"""The paper's contribution: distributed histogram sort and its pieces."""

from .api import (
    AutoSortResult,
    autosort,
    find_splitters,
    nth_element,
    percentile,
    sort,
    sorted_result,
    top_k,
)
from .config import SortConfig, SplitterConfig
from .dselect import DSelectResult, dselect
from .exchange import ExchangePlan, build_exchange_plan, exchange
from .histsort import PHASES, SortResult, SortState, histogram_sort, run_pipeline
from .keys import PackError, PackSpec, pack_keys, plan_packing, unpack_keys
from .merge import local_merge, merge_cost
from .multiselect import SplitterConvergenceError, SplitterResult
from .overlap import OverlapResult, exchange_merge_overlap, one_factor_partner

__all__ = [
    "AutoSortResult",
    "DSelectResult",
    "ExchangePlan",
    "PHASES",
    "PackError",
    "PackSpec",
    "SortConfig",
    "SortResult",
    "SortState",
    "SplitterConfig",
    "SplitterConvergenceError",
    "SplitterResult",
    "OverlapResult",
    "autosort",
    "build_exchange_plan",
    "exchange_merge_overlap",
    "one_factor_partner",
    "dselect",
    "exchange",
    "find_splitters",
    "histogram_sort",
    "local_merge",
    "merge_cost",
    "nth_element",
    "pack_keys",
    "percentile",
    "plan_packing",
    "run_pipeline",
    "sort",
    "sorted_result",
    "top_k",
    "unpack_keys",
]
