"""K-way merge kernels: unit + property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seq import (
    LoserTree,
    binary_merge_tree,
    kway_merge,
    loser_tree_merge,
    merge_two_sorted,
)

sorted_runs = st.lists(
    st.lists(st.integers(0, 40), max_size=50).map(sorted),
    min_size=1,
    max_size=9,
)


class TestMergeTwo:
    def test_basic(self):
        out = merge_two_sorted(np.array([1, 3, 5]), np.array([2, 4, 6]))
        assert out.tolist() == [1, 2, 3, 4, 5, 6]

    def test_empty_sides(self):
        a = np.array([1, 2])
        assert merge_two_sorted(a, np.array([])).tolist() == [1, 2]
        assert merge_two_sorted(np.array([]), a).tolist() == [1, 2]
        assert merge_two_sorted(np.array([]), np.array([])).size == 0

    def test_disjoint_ranges(self):
        out = merge_two_sorted(np.array([10, 11]), np.array([1, 2]))
        assert out.tolist() == [1, 2, 10, 11]

    def test_all_ties(self):
        out = merge_two_sorted(np.full(3, 5), np.full(4, 5))
        assert out.tolist() == [5] * 7

    def test_returns_copy(self):
        a = np.array([1, 2])
        out = merge_two_sorted(a, np.array([]))
        out[0] = 99
        assert a[0] == 1

    @given(
        a=st.lists(st.integers(-30, 30), max_size=60).map(sorted),
        b=st.lists(st.integers(-30, 30), max_size=60).map(sorted),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_numpy(self, a, b):
        out = merge_two_sorted(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        ref = np.sort(np.concatenate([a, b]).astype(np.int64)) if a or b else np.empty(0)
        assert np.array_equal(out, ref)


class TestLoserTree:
    def test_single_run(self):
        t = LoserTree([np.array([1, 2, 3])])
        assert [t.pop() for _ in range(3)] == [1, 2, 3]

    def test_interleaved_runs(self):
        t = LoserTree([np.array([1, 4, 7]), np.array([2, 5, 8]), np.array([3, 6, 9])])
        assert [t.pop() for _ in range(9)] == list(range(1, 10))

    def test_len_tracks_remaining(self):
        t = LoserTree([np.array([1]), np.array([2, 3])])
        assert len(t) == 3
        t.pop()
        assert len(t) == 2

    def test_pop_exhausted_raises(self):
        t = LoserTree([np.array([1])])
        t.pop()
        with pytest.raises(IndexError):
            t.pop()

    def test_empty_runs_mixed_in(self):
        t = LoserTree([np.array([]), np.array([2, 4]), np.array([]), np.array([1])])
        assert [t.pop() for _ in range(3)] == [1, 2, 4]

    def test_no_runs_rejected(self):
        with pytest.raises(ValueError):
            LoserTree([])

    def test_stability_ties_by_run_order(self):
        # ties pop from the lower-numbered run first
        t = LoserTree([np.array([5.0]), np.array([5.0])])
        t._runs  # internal: pop order checked through count only
        assert t.pop() == 5.0 and t.pop() == 5.0


def _drain_per_element(runs):
    tree = LoserTree(runs)
    out = np.empty(len(tree), dtype=np.result_type(*runs))
    for i in range(out.size):
        out[i] = tree.pop()
    return out


class TestPopRun:
    """The chunked drain must be byte-identical to element-wise pop."""

    def test_chunks_cover_disjoint_runs_in_two_slices(self):
        t = LoserTree([np.array([1, 2, 3]), np.array([10, 11])])
        first = t.pop_run()
        assert first.tolist() == [1, 2, 3]
        assert t.pop_run().tolist() == [10, 11]
        assert len(t) == 0

    def test_ties_split_by_run_order(self):
        # run 0 emits through the tie (lower index wins equal heads);
        # run 1 then runs unchallenged until run 0's remaining 9
        t = LoserTree([np.array([5, 5, 9]), np.array([5, 6])])
        assert t.pop_run().tolist() == [5, 5]
        assert t.pop_run().tolist() == [5, 6]
        assert t.pop_run().tolist() == [9]

    def test_exhausted_raises(self):
        t = LoserTree([np.array([1])])
        t.pop_run()
        with pytest.raises(IndexError):
            t.pop_run()

    def test_interleaving_pop_and_pop_run(self):
        runs = [np.array([1, 4, 7]), np.array([2, 5, 8]), np.array([3, 6, 9])]
        t = LoserTree(runs)
        seq = [t.pop(), *t.pop_run().tolist(), t.pop()]
        while len(t):
            seq.extend(t.pop_run().tolist())
        assert seq == list(range(1, 10))

    @given(runs=sorted_runs)
    @settings(max_examples=100, deadline=None)
    def test_byte_identical_to_pop(self, runs):
        arrays = [np.array(r, dtype=np.int64) for r in runs if r]
        if not arrays:
            return
        ref = _drain_per_element(arrays)
        out = loser_tree_merge(arrays)
        assert out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()

    def test_byte_identical_on_floats_with_dupes(self, rng):
        arrays = [
            np.sort(rng.choice([0.5, 1.5, 1.5, 2.5, np.inf], size=40))
            for _ in range(5)
        ]
        assert loser_tree_merge(arrays).tobytes() == _drain_per_element(arrays).tobytes()

    def test_adaptive_fallback_crosses_probe_windows(self, rng):
        # fine interleave large enough to trigger the element-mode backoff
        arrays = [
            np.sort(rng.integers(0, 2**60, size=3000).astype(np.uint64))
            for _ in range(4)
        ]
        ref = np.sort(np.concatenate(arrays))
        assert np.array_equal(loser_tree_merge(arrays), ref)


class TestKwayMerge:
    @pytest.mark.parametrize("strategy", ["binary_tree", "tournament", "sort"])
    def test_empty_input(self, strategy):
        assert kway_merge([], strategy).size == 0

    @pytest.mark.parametrize("strategy", ["binary_tree", "tournament", "sort"])
    def test_all_empty_runs_keep_their_dtype(self, strategy):
        out = kway_merge([np.empty(0, np.uint64)] * 3, strategy)
        assert out.size == 0 and out.dtype == np.uint64

    @pytest.mark.parametrize("strategy", ["binary_tree", "tournament", "sort"])
    def test_single_run(self, strategy):
        out = kway_merge([np.array([3, 4])], strategy)
        assert out.tolist() == [3, 4]

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            kway_merge([np.array([1])], "bogus")

    @given(runs=sorted_runs)
    @settings(max_examples=80, deadline=None)
    def test_strategies_agree_with_sort(self, runs):
        arrays = [np.array(r, dtype=np.int64) for r in runs]
        nonempty = [a for a in arrays if a.size]
        ref = (
            np.sort(np.concatenate(nonempty))
            if nonempty
            else np.empty(0, dtype=np.int64)
        )
        for strategy in ("binary_tree", "tournament", "sort"):
            out = kway_merge(arrays, strategy)
            assert np.array_equal(out, ref), strategy

    def test_many_runs(self, rng):
        runs = [np.sort(rng.integers(0, 1000, rng.integers(0, 50))) for _ in range(33)]
        ref = np.sort(np.concatenate(runs))
        assert np.array_equal(binary_merge_tree(runs), ref)
        assert np.array_equal(loser_tree_merge(runs), ref)

    def test_float_dtype_preserved(self):
        out = binary_merge_tree([np.array([1.5]), np.array([0.5])])
        assert out.dtype == np.float64
        assert out.tolist() == [0.5, 1.5]
