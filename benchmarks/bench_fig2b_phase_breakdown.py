"""Fig. 2(b) — strong-scaling phase fractions.

Paper's headline: the histogramming (splitting) fraction grows with the
processor count and dominates beyond ~2000 ranks, while the ALL-TO-ALL
fraction stays roughly stable and "other" is negligible.
"""

from repro.bench import fig2b_phase_breakdown
from repro.core import histogram_sort
from repro.data import make_partition
from repro.machine import supermuc_phase2
from repro.mpi import run_spmd


def test_fig2b_execute(emit):
    series = emit(fig2b_phase_breakdown(mode="execute", repeats=2))
    assert all(abs(sum((r["frac_sort"], r["frac_split"], r["frac_exchange"], r["frac_other"])) - 1.0) < 1e-6
               for r in series.rows)


def test_fig2b_model(emit):
    series = emit(fig2b_phase_breakdown(mode="model"))
    rows = {r["nodes"]: r for r in series.rows}
    # histogramming fraction grows monotonically with scale ...
    assert rows[128]["frac_split"] > rows[8]["frac_split"] > rows[1]["frac_split"]
    # ... and dominates at the largest scale (paper: the bottleneck >2000 ranks)
    assert rows[128]["frac_split"] == max(
        rows[128]["frac_split"], rows[128]["frac_exchange"], rows[128]["frac_other"]
    )
    # "other" stays negligible
    assert all(r["frac_other"] < 0.1 for r in series.rows)


def test_fig2b_kernel(benchmark):
    """Kernel: a full sort whose per-phase timings feed the breakdown."""
    machine = supermuc_phase2()

    def prog(comm):
        local = make_partition("uniform_u64", 1024, rank=comm.rank, seed=3)
        return histogram_sort(comm, local).phases

    phases = benchmark(
        lambda: run_spmd(28, prog, machine=machine, ranks_per_node=28)
    )
    assert all(p["local_sort"] > 0 for p in phases)
