"""Splitter determination (Algorithms 2+3) tests.

The central invariant: for every boundary, some achievable left-count in
``[L, U]`` is within tolerance of the target, splitter values are
monotone, and the realized ranks reproduce the requested capacities.
"""

import numpy as np
import pytest

from repro.core import SplitterConfig, find_splitters
from repro.core.multiselect import SplitterConvergenceError
from repro.mpi import SPMDError


def _find(run, parts, caps=None, eps=0.0, config=None):
    p = len(parts)

    def prog(comm):
        return find_splitters(
            comm, np.sort(parts[comm.rank]), capacities=caps, eps=eps, config=config
        )

    return run(p, prog)


def _assert_valid(parts, res, eps=0.0):
    """Check the splitter result against a global oracle."""
    allk = np.sort(np.concatenate([np.asarray(q) for q in parts]))
    n = allk.size
    p = len(parts)
    tol = int(np.floor(eps * n / (2 * p)))
    assert res.nboundaries == p - 1
    prev = None
    for i in range(p - 1):
        v = res.values[i]
        L = np.searchsorted(allk, v, side="left")
        U = np.searchsorted(allk, v, side="right")
        assert res.lower[i] == L and res.upper[i] == U, f"bounds wrong at {i}"
        r = res.realized_ranks[i]
        assert L <= r <= U, f"realized rank not achievable at {i}"
        assert abs(r - res.targets[i]) <= tol, f"tolerance violated at {i}"
        if prev is not None:
            assert v >= prev, "splitter values must be monotone"
            assert r >= res.realized_ranks[i - 1], "realized ranks must be monotone"
        prev = v


class TestFindSplitters:
    @pytest.mark.parametrize("p", [2, 3, 5, 8])
    def test_uniform_ints(self, run, rng, p):
        parts = [rng.integers(0, 10**9, 2000).astype(np.uint64) for _ in range(p)]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)

    def test_normal_floats(self, run, rng):
        parts = [rng.normal(size=1500) for _ in range(6)]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)

    def test_float32(self, run, rng):
        parts = [rng.normal(size=1500).astype(np.float32) for _ in range(4)]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)
        assert res.values.dtype == np.float32

    def test_heavy_duplicates(self, run, rng):
        parts = [rng.integers(0, 4, 3000).astype(np.int64) for _ in range(5)]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)

    def test_all_equal(self, run):
        parts = [np.full(1000, 7, dtype=np.int64) for _ in range(4)]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)
        assert res.rounds == 0  # resolved by the min-run pre-acceptance

    def test_sparse_partitions(self, run, rng):
        parts = [
            rng.integers(0, 10**6, 0 if r % 2 else 2000).astype(np.int64)
            for r in range(6)
        ]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)

    def test_single_holder(self, run, rng):
        parts = [rng.integers(0, 1000, 4000).astype(np.int64)] + [
            np.zeros(0, dtype=np.int64) for _ in range(3)
        ]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)
        # trailing empty ranks: boundaries at the global end
        assert res.realized_ranks[-1] == 4000

    def test_negative_keys(self, run, rng):
        parts = [rng.integers(-10**6, 10**6, 1500).astype(np.int64) for _ in range(4)]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)

    def test_nearly_sorted(self, run):
        parts = [np.arange(r * 1000, (r + 1) * 1000, dtype=np.int64) for r in range(4)]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)

    def test_custom_capacities(self, run, rng):
        parts = [rng.integers(0, 10**6, 1000).astype(np.int64) for _ in range(4)]
        caps = [4000, 0, 0, 0]
        res = _find(run, parts, caps=caps)[0]
        _assert_valid(parts, res)
        assert res.realized_ranks.tolist() == [4000, 4000, 4000]

    def test_capacities_must_sum(self, run, rng):
        parts = [rng.integers(0, 100, 10).astype(np.int64) for _ in range(2)]
        with pytest.raises(SPMDError):
            _find(run, parts, caps=[5, 6])

    def test_eps_reduces_rounds(self, run, rng):
        parts = [rng.integers(0, 10**9, 4000).astype(np.uint64) for _ in range(6)]
        exact = _find(run, parts, eps=0.0)[0]
        loose = _find(run, parts, eps=0.1)[0]
        _assert_valid(parts, loose, eps=0.1)
        assert loose.rounds < exact.rounds

    def test_empty_world(self, run):
        parts = [np.zeros(0, dtype=np.int64) for _ in range(3)]
        res = _find(run, parts)[0]
        assert res.total == 0
        assert res.rounds == 0

    def test_single_rank(self, run, rng):
        parts = [rng.normal(size=100)]
        res = _find(run, parts)[0]
        assert res.nboundaries == 0

    def test_replicated_result(self, run, rng):
        parts = [rng.normal(size=500) for _ in range(4)]
        out = _find(run, parts)
        for r in out[1:]:
            assert np.array_equal(r.values, out[0].values)
            assert np.array_equal(r.realized_ranks, out[0].realized_ranks)

    def test_rounds_bounded_by_key_width(self, run, rng):
        parts = [rng.integers(0, 2**16, 4000).astype(np.uint64) for _ in range(4)]
        res = _find(run, parts)[0]
        assert res.rounds <= 16 + 2

    def test_rounds_independent_of_p(self, run, rng):
        rounds = []
        for p in (2, 4, 8):
            parts = [rng.integers(0, 10**9, 2000).astype(np.uint64) for _ in range(p)]
            rounds.append(_find(run, parts)[0].rounds)
        assert max(rounds) - min(rounds) <= 6  # §V-A: P does not drive rounds

    def test_convergence_guard(self, run, rng):
        parts = [rng.normal(size=500) for _ in range(4)]
        cfg = SplitterConfig(max_rounds=1)
        with pytest.raises(SPMDError) as ei:
            _find(run, parts, config=cfg)
        assert isinstance(
            ei.value.failures[min(ei.value.failures)], SplitterConvergenceError
        )

    def test_2d_rejected(self, run):
        def prog(comm):
            return find_splitters(comm, np.zeros((2, 2)))

        with pytest.raises(SPMDError):
            run(2, prog)

    def test_nonnumeric_rejected(self, run):
        def prog(comm):
            return find_splitters(comm, np.array(["a", "b"]))

        with pytest.raises(SPMDError):
            run(2, prog)


class TestSplitterConfigs:
    @pytest.mark.parametrize(
        "config",
        [
            SplitterConfig(initial_guess="sample"),
            SplitterConfig(initial_guess="sample", sample_factor=32),
            SplitterConfig(probe_schedule="midpoint"),
            SplitterConfig(initial_guess="sample", probe_schedule="midpoint"),
        ],
        ids=["sample", "sample32", "midpoint", "midpoint-sample"],
    )
    def test_configs_stay_correct(self, run, rng, config):
        parts = [rng.integers(0, 10**9, 2000).astype(np.uint64) for _ in range(5)]
        res = _find(run, parts, config=config)[0]
        _assert_valid(parts, res)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SplitterConfig(initial_guess="bogus")
        with pytest.raises(ValueError):
            SplitterConfig(sample_factor=0)
        with pytest.raises(ValueError):
            SplitterConfig(max_rounds=0)
        with pytest.raises(ValueError):
            SplitterConfig(probe_schedule="bogus")
