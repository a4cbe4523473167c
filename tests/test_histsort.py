"""Integration tests of the full four-superstep histogram sort."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import PHASES, SortConfig, SplitterConfig, histogram_sort
from repro.core.histsort import SortState, run_pipeline
from repro.data import make_partition
from repro.mpi.checkpoint import PH_SORTED, PH_SPLIT, PH_START
from repro.seq import balance_violation, check_sorted_output, is_globally_sorted, is_permutation


def _sort_all(run, parts, config=None, caps=None):
    p = len(parts)

    def prog(comm):
        return histogram_sort(comm, parts[comm.rank], config=config, capacities=caps)

    return run(p, prog)


DISTS = [
    "uniform_u64",
    "normal_f64",
    "normal_f32",
    "zipf_u64",
    "exponential_f64",
    "nearly_sorted_i64",
    "duplicates_i64",
    "all_equal_i64",
]


class TestSortAcrossDistributions:
    @pytest.mark.parametrize("dist", DISTS)
    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_output_contract(self, run, dist, p):
        parts = [make_partition(dist, 1200, rank=r, seed=7) for r in range(p)]
        out = _sort_all(run, parts)
        check_sorted_output(parts, [r.output for r in out])

    @pytest.mark.parametrize("dist", ["uniform_u64", "duplicates_i64"])
    def test_ragged_sizes(self, run, rng, dist):
        sizes = [0, 1, 777, 2000, 13]
        parts = [make_partition(dist, n, rank=r, seed=3) for r, n in enumerate(sizes)]
        out = _sort_all(run, parts)
        check_sorted_output(parts, [r.output for r in out])

    def test_dtype_preserved(self, run):
        parts = [make_partition("normal_f32", 500, rank=r) for r in range(3)]
        out = _sort_all(run, parts)
        assert all(r.output.dtype == np.float32 for r in out)

    def test_single_element_world(self, run):
        parts = [np.array([5], dtype=np.int64), np.zeros(0, dtype=np.int64)]
        out = _sort_all(run, parts)
        assert out[0].output.tolist() == [5]
        assert out[1].output.size == 0


class TestSortConfigurations:
    @pytest.mark.parametrize("strategy", ["sort", "binary_tree", "tournament", "adaptive"])
    def test_merge_strategies(self, run, strategy):
        parts = [make_partition("uniform_u64", 900, rank=r, seed=11) for r in range(4)]
        out = _sort_all(run, parts, config=SortConfig(merge_strategy=strategy))
        check_sorted_output(parts, [r.output for r in out])

    def test_uniquify_path(self, run):
        parts = [make_partition("duplicates_i64", 800, rank=r, seed=5) for r in range(4)]
        parts = [p.astype(np.uint64) for p in parts]
        out = _sort_all(run, parts, config=SortConfig(uniquify=True))
        check_sorted_output(parts, [r.output for r in out])
        assert all(r.output.dtype == np.uint64 for r in out)

    def test_eps_balance_and_speed(self, run):
        parts = [make_partition("uniform_u64", 4000, rank=r, seed=2) for r in range(6)]
        exact = _sort_all(run, parts, config=SortConfig(eps=0.0))
        loose = _sort_all(run, parts, config=SortConfig(eps=0.05))
        assert loose[0].rounds < exact[0].rounds
        outs = [r.output for r in loose]
        assert is_globally_sorted(outs) and is_permutation(parts, outs)
        assert balance_violation(
            [o.size for o in outs], [p.size for p in parts], 0.05
        ) == 0

    def test_capacities_rebalance(self, run, rng):
        parts = [
            rng.integers(0, 10**6, n).astype(np.int64) for n in (4000, 0, 0, 0)
        ]
        caps = [1000, 1000, 1000, 1000]
        out = _sort_all(run, parts, caps=caps)
        outs = [r.output for r in out]
        assert [o.size for o in outs] == caps
        assert is_globally_sorted(outs) and is_permutation(parts, outs)

    def test_sampled_guess_config(self, run):
        cfg = SortConfig(splitter=SplitterConfig(initial_guess="sample"))
        parts = [make_partition("normal_f64", 1500, rank=r, seed=9) for r in range(5)]
        out = _sort_all(run, parts, config=cfg)
        check_sorted_output(parts, [r.output for r in out])


class TestSortDiagnostics:
    def test_phase_times_cover_total(self, run):
        parts = [make_partition("uniform_u64", 2000, rank=r, seed=4) for r in range(4)]
        out = _sort_all(run, parts)
        for r in out:
            assert set(r.phases) == {"local_sort", "splitting", "exchange", "merge", "other"}
            assert all(v >= 0 for v in r.phases.values())
            assert r.time == pytest.approx(sum(r.phases.values()))
            assert r.phases["local_sort"] > 0

    def test_rounds_reported(self, run):
        parts = [make_partition("uniform_u64", 2000, rank=r, seed=4) for r in range(4)]
        out = _sort_all(run, parts)
        assert out[0].rounds > 0
        assert out[0].rounds == out[0].splitters.rounds

    def test_exchanged_bytes_positive(self, run):
        parts = [make_partition("uniform_u64", 2000, rank=r, seed=4) for r in range(4)]
        out = _sort_all(run, parts)
        assert all(r.exchanged_bytes == r.output.nbytes for r in out)

    def test_deterministic_given_seed(self, run):
        parts = [make_partition("uniform_u64", 500, rank=r, seed=1) for r in range(3)]
        a = _sort_all(run, parts)
        b = _sort_all(run, parts)
        for x, y in zip(a, b):
            assert np.array_equal(x.output, y.output)
            assert x.phases == y.phases


class TestPublicApi:
    def test_sort_returns_partition(self, run):
        parts = [make_partition("uniform_u64", 700, rank=r, seed=6) for r in range(4)]

        def prog(comm):
            return repro.sort(comm, parts[comm.rank])

        outs = run(4, prog)
        check_sorted_output(parts, outs)

    def test_sort_eps_kwarg(self, run):
        parts = [make_partition("uniform_u64", 3000, rank=r, seed=6) for r in range(4)]

        def prog(comm):
            return repro.sort(comm, parts[comm.rank], eps=0.05)

        outs = run(4, prog)
        assert is_globally_sorted(outs) and is_permutation(parts, outs)

    def test_sorted_result_diagnostics(self, run):
        parts = [make_partition("uniform_u64", 700, rank=r, seed=6) for r in range(2)]

        def prog(comm):
            return repro.sorted_result(comm, parts[comm.rank])

        out = run(2, prog)
        assert out[0].rounds >= 1

    def test_nth_element(self, run):
        parts = [make_partition("normal_f64", 800, rank=r, seed=8) for r in range(4)]
        ref = np.sort(np.concatenate(parts))

        def prog(comm):
            return repro.nth_element(comm, parts[comm.rank], 1600)

        assert run(4, prog)[0] == ref[1600]

    def test_lazy_module_attrs(self):
        assert repro.SortConfig is SortConfig
        with pytest.raises(AttributeError):
            repro.nonexistent_thing


class TestSortProperty:
    @given(
        seed=st.integers(0, 10**6),
        p=st.integers(1, 6),
        n=st.integers(0, 400),
        dist=st.sampled_from(["uniform_u64", "duplicates_i64", "normal_f64"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_contract_random_configs(self, seed, p, n, dist):
        from tests.conftest import spmd

        parts = [make_partition(dist, n, rank=r, seed=seed) for r in range(p)]

        def prog(comm):
            return histogram_sort(comm, parts[comm.rank])

        out = spmd(p, prog)
        check_sorted_output(parts, [r.output for r in out])


class TestResume:
    """Entering the pipeline at a phase marker skips the steps before it."""

    @pytest.mark.parametrize("uniquify", [False, True])
    @pytest.mark.parametrize(
        "marker, skipped",
        [
            (PH_START, ()),
            (PH_SORTED, ("local_sort",)),
            (PH_SPLIT, ("local_sort", "splitting")),
        ],
    )
    def test_resumed_state_gives_the_fresh_output(self, run, marker, skipped, uniquify):
        config = SortConfig(uniquify=uniquify)
        parts = [make_partition("uniform_u64", 500, rank=r, seed=41) >> 24 for r in range(4)]

        def prog(comm):
            local = parts[comm.rank]
            fresh = SortState(local, local.dtype)
            ref = run_pipeline(comm, fresh, config)
            resumed = SortState(local, local.dtype, marker=marker)
            if marker >= PH_SORTED:
                resumed.work, resumed.spec = fresh.work, fresh.spec
            if marker >= PH_SPLIT:
                resumed.splitters = fresh.splitters
            return ref, run_pipeline(comm, resumed, config)

        for ref, res in run(4, prog):
            assert res.output.tobytes() == ref.output.tobytes()
            assert res.rounds == ref.rounds
            assert res.exchanged_bytes == ref.exchanged_bytes
            assert set(res.phases) == set(PHASES)
            assert all(res.phases[name] == 0.0 for name in skipped)
            assert all(res.phases[name] > 0.0 for name in set(PHASES) - set(skipped))
