"""§V-A — histogramming iteration counts by key type and rank count.

Paper claims: 64-bit floats converge in 60–64 iterations, 32-bit floats in
25–35, uint64 drawn from [0, 1e9] in ~30; the processor count does not
drive the iteration count.  At the execute-mode N the absolute numbers are
smaller (rounds grow ~1 per doubling of N by the min-gap argument and the
paper sorts 2^31+ keys), so the checks are on ordering and P-independence;
EXPERIMENTS.md records the extrapolation to paper scale.
"""

import numpy as np

from repro.bench import iterations_experiment
from repro.core import find_splitters
from repro.data import make_partition
from repro.mpi import run_spmd


def test_iterations_series(emit):
    series = emit(iterations_experiment(repeats=3, n_per_rank=1 << 12))
    by_dist: dict[str, list[int]] = {}
    for r in series.rows:
        by_dist.setdefault(r["dist"], []).append(r["rounds_med"])
    # key width ordering: f32 needs fewer rounds than f64
    assert np.median(by_dist["normal_f32"]) <= np.median(by_dist["normal_f64"])
    # uint64 restricted to [0,1e9]: bounded by ~30 key bits
    assert max(by_dist["uniform_u64"]) <= 32
    # P-independence at fixed N
    for dist, rounds in by_dist.items():
        assert max(rounds) - min(rounds) <= 6, (dist, rounds)


def test_iterations_grow_with_n(emit):
    """Min-gap argument: rounds grow ~1 per doubling of N (until key width).

    At the paper's N ~ 2^31 this extrapolates to the reported 60-64 rounds
    for 64-bit floats; noise per seed is a few rounds, so medians over
    seeds are compared across a 64x size span.
    """

    def prog(comm, n_per_rank, seed):
        local = np.sort(
            make_partition("normal_f64", n_per_rank, rank=comm.rank, seed=seed)
        )
        return find_splitters(comm, local).rounds

    def med_rounds(n_per_rank):
        return float(
            np.median([run_spmd(8, prog, n_per_rank, s)[0] for s in range(5)])
        )

    small = med_rounds(1 << 10)
    large = med_rounds(1 << 16)
    assert large > small
    assert large - small <= 14  # ~log2(64) + noise


def test_iterations_kernel(benchmark):
    def once():
        def prog(comm):
            local = np.sort(make_partition("uniform_u64", 4096, rank=comm.rank, seed=2))
            return find_splitters(comm, local).rounds

        return run_spmd(16, prog)[0]

    rounds = benchmark(once)
    assert rounds > 0
