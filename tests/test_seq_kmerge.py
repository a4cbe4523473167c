"""Local sort and k-way merge kernels: unit + property tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.seq import (
    LoserTree,
    binary_merge_tree,
    kway_merge,
    loser_tree_merge,
    merge_two_sorted,
    sort_keys,
)

sorted_runs = st.lists(
    st.lists(st.integers(0, 40), max_size=50).map(sorted),
    min_size=1,
    max_size=9,
)

STRATEGIES = ["binary_tree", "tournament", "sort"]

# duplicate-heavy key pools: signed zeros and +-inf for floats, the
# max-key sentinel 2**64-1 for uint64
_KEY_POOLS = {
    np.int64: st.integers(-20, 20),
    np.float64: st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.5, 1.5, np.inf]),
    np.uint64: st.sampled_from([0, 1, 7, 2**63, 2**64 - 2, 2**64 - 1]),
}


@st.composite
def typed_runs(draw):
    """1..33 ragged sorted runs of one dtype, empties mixed in."""
    dtype = draw(st.sampled_from(list(_KEY_POOLS)))
    runs = draw(
        st.lists(st.lists(_KEY_POOLS[dtype], max_size=12), min_size=1, max_size=33)
    )
    return [np.sort(np.array(r, dtype=dtype)) for r in runs]


def _zero_signs(out):
    return np.signbit(out).tolist()


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

    def test_ties_keep_a_before_b(self):
        pos, neg = np.array([0.0]), np.array([-0.0])
        assert _zero_signs(merge_two_sorted(pos, neg)) == [False, True]
        assert _zero_signs(merge_two_sorted(neg, pos)) == [True, False]

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
        # ties pop from the lower-numbered run first: 0.0 == -0.0, and the
        # sign bit tells which run a popped zero came from
        pos, neg = np.array([0.0]), np.array([-0.0])
        t = LoserTree([pos, neg])
        assert _zero_signs([t.pop(), t.pop()]) == [False, True]
        t = LoserTree([neg, pos])
        assert _zero_signs([t.pop(), t.pop()]) == [True, False]


def _drain_per_element(runs):
    tree = LoserTree(runs)
    out = np.empty(len(tree), dtype=np.result_type(*runs))
    for i in range(out.size):
        out[i] = tree.pop()
    return out


class TestPopRun:
    """Every merge kernel must be byte-identical to a run of element-wise pops."""

    @given(runs=typed_runs())
    @settings(max_examples=150, deadline=None)
    def test_byte_identical_to_pop(self, runs):
        ref = _drain_per_element(runs)
        for merge in (loser_tree_merge, binary_merge_tree):
            out = merge(runs)
            assert out.dtype == ref.dtype, merge.__name__
            assert out.tobytes() == ref.tobytes(), merge.__name__
        a, b = runs[0], runs[-1]
        ref = _drain_per_element([a, b])
        out = merge_two_sorted(a, b)
        assert out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()

    def test_byte_identical_on_floats_with_dupes(self, rng):
        arrays = [
            np.sort(rng.choice([0.5, 1.5, 1.5, 2.5, np.inf], size=40))
            for _ in range(5)
        ]
        assert loser_tree_merge(arrays).tobytes() == _drain_per_element(arrays).tobytes()


class TestKwayMerge:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_empty_input(self, strategy):
        assert kway_merge([], strategy).size == 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_empty_runs_keep_their_dtype(self, strategy):
        out = kway_merge([np.empty(0, np.uint64)] * 3, strategy)
        assert out.size == 0 and out.dtype == np.uint64

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_single_run(self, strategy):
        out = kway_merge([np.array([3, 4])], strategy)
        assert out.tolist() == [3, 4]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_ties_by_run_order(self, strategy):
        pos, neg = np.array([0.0]), np.array([-0.0])
        assert _zero_signs(kway_merge([pos, neg], strategy)) == [False, True]
        assert _zero_signs(kway_merge([neg, pos, neg], strategy)) == [True, False, True]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_nan_tails_sort_last(self, strategy):
        # LoserTree's drain order is undefined on NaNs ([.5, 1, nan, 2, ...]);
        # no strategy may inherit that
        nan = np.nan
        runs = [np.array([1.0, nan]), np.array([0.5, 2.0, nan, nan]), np.array([3.0])]
        out = kway_merge(runs, strategy)
        assert out.tobytes() == np.sort(np.concatenate(runs)).tobytes()

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
        for strategy in STRATEGIES:
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


# ------------------------------------------------ byte-stable on every dtype

_DTYPES = [
    np.bool_, np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
    np.float16, np.float32, np.float64,
]


def _float_bits(dtype):
    """Bit patterns of duplicate-heavy float keys: ±0, ±inf, a few finite
    keys, and NaNs of both signs with distinct payloads."""
    uint = np.dtype(f"u{dtype.itemsize}")
    plain = np.array([-np.inf, -1.5, -0.0, 0.0, 0.5, 1.5, 3.0, np.inf], dtype)
    nan = int(np.array(np.nan, dtype).view(uint))
    sign = 1 << (8 * dtype.itemsize - 1)
    nans = [nan, nan | 1, nan | 2, nan | sign, nan | sign | 3]
    return [int(b) for b in plain.view(uint)] + nans


@st.composite
def key_arrays(draw, dtype, max_size=60):
    """One array of ``dtype``; floats are built from bits so that NaN
    payloads survive."""
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        bits = draw(st.lists(st.sampled_from(_float_bits(dtype)), max_size=max_size))
        return np.array(bits, dtype=f"u{dtype.itemsize}").view(dtype)
    if dtype.kind == "b":
        return np.array(draw(st.lists(st.booleans(), max_size=max_size)), dtype=dtype)
    info = np.iinfo(dtype)
    keys = st.one_of(st.integers(max(info.min, -3), 3), st.integers(info.min, info.max))
    return np.array(draw(st.lists(keys, max_size=max_size)), dtype=dtype)


@st.composite
def any_keys(draw):
    return draw(key_arrays(draw(st.sampled_from(_DTYPES))))


@st.composite
def ragged_runs(draw):
    """0..33 sorted runs of one dtype, empties mixed in."""
    dtype = draw(st.sampled_from(_DTYPES))
    runs = draw(st.lists(key_arrays(dtype, max_size=12), max_size=33))
    return [np.sort(r, kind="stable") for r in runs]


def _stable(runs):
    """The oracle: a stable sort of the concatenation."""
    return np.sort(np.concatenate(runs), kind="stable") if runs else np.empty(0)


def _same_bytes(out, ref):
    return out.dtype == ref.dtype and out.tobytes() == ref.tobytes()


_NEG_ZERO = np.array([0.0, 1.5, -0.0, 0.0, -1.0])  # one -0.0 among +0.0s


class TestStableBytes:
    """``sort_keys`` and every merge return a stable sort's bytes, also
    where they take the unstable SIMD sort."""

    @given(a=any_keys())
    @example(a=np.array([3, -1, 3, 0, 127, -128], np.int8))  # integers: SIMD
    @example(a=np.array([2.5, -1.0, 2.5, np.inf, -np.inf]))  # no zero, no NaN: SIMD
    @example(a=_NEG_ZERO)  # a signed zero: stable
    @settings(max_examples=200, deadline=None)
    def test_sort_keys_matches_stable_sort(self, a):
        assert _same_bytes(sort_keys(a), np.sort(a, kind="stable"))

    @given(runs=ragged_runs())
    @example(runs=[np.array(r, np.int32) for r in ([0, 3], [-1, 3], [2])])  # integers: SIMD
    @example(runs=[np.array([-1.0, 2.5]), np.array([2.5, np.inf]), np.array([0.5])])  # SIMD
    @example(runs=[np.sort(_NEG_ZERO, kind="stable"), np.array([0.0, 0.5]), np.array([0.0])])
    @example(runs=[np.array([-0.0, 1.0]), np.array([0.0, 0.5])])  # k = 2: timsort
    @settings(max_examples=150, deadline=None)
    def test_merges_match_stable_sort(self, runs):
        ref = _stable(runs)
        for strategy in STRATEGIES:
            assert _same_bytes(kway_merge(runs, strategy), ref), strategy
        for merge in (binary_merge_tree, loser_tree_merge):
            assert _same_bytes(merge(runs), ref), merge.__name__
        if runs:
            a, b = runs[0], runs[-1]
            assert _same_bytes(merge_two_sorted(a, b), _stable([a, b]))

    @pytest.mark.parametrize("dtype", _DTYPES)
    def test_all_empty_input_keeps_its_dtype(self, dtype):
        empty = np.empty(0, dtype)
        assert sort_keys(empty).dtype == dtype
        assert merge_two_sorted(empty, empty).dtype == dtype
        for strategy in STRATEGIES:
            assert kway_merge([empty] * 5, strategy).dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_long_zero_blocks_keep_input_order(self, rng, dtype):
        # long enough that the SIMD sort's partitioning, not its insertion
        # sort, would meet the zeros
        a = rng.choice(np.array([-0.0, 0.0, 1.0, -2.0], dtype), size=4096)
        assert _same_bytes(sort_keys(a), np.sort(a, kind="stable"))
        runs = [np.sort(c, kind="stable") for c in np.array_split(a, 8)]
        assert _same_bytes(kway_merge(runs, "sort"), _stable(runs))

    def test_sort_keys_returns_a_copy(self):
        a = np.array([3, 1, 2])
        out = sort_keys(a)
        out[0] = 99
        assert a.tolist() == [3, 1, 2]
