"""Sequential building blocks: selection, weighted median, search, local sort, k-way merge."""

from .checks import (
    balance_violation,
    check_sorted_output,
    is_globally_sorted,
    is_permutation,
    is_sorted,
)
from .kmerge import (
    LoserTree,
    binary_merge_tree,
    kway_merge,
    loser_tree_merge,
    merge_two_sorted,
    sort_keys,
)
from .search import counts_between, local_histogram, rank_of
from .select import floyd_rivest, median_of_medians, nsmallest_value, quickselect
from .wmedian import is_weighted_median, weighted_median

__all__ = [
    "LoserTree",
    "balance_violation",
    "binary_merge_tree",
    "check_sorted_output",
    "counts_between",
    "floyd_rivest",
    "is_globally_sorted",
    "is_permutation",
    "is_sorted",
    "is_weighted_median",
    "kway_merge",
    "local_histogram",
    "loser_tree_merge",
    "median_of_medians",
    "merge_two_sorted",
    "nsmallest_value",
    "quickselect",
    "rank_of",
    "sort_keys",
    "weighted_median",
]
