"""Fig. 4 — shared-memory strong scaling on a single node.

5 GB of normally distributed float64 keys; 7..28 cores over 1..4 NUMA
domains; DASH (MPI ranks + one cross-domain move) vs Intel PSTL (TBB task
merge sort) vs an OpenMP task merge sort.

Paper shape: TBB wins when only one NUMA domain is occupied; DASH surpasses
TBB as soon as data crosses NUMA boundaries; OpenMP trails both.
"""

from repro.bench import fig4_shared_memory
from repro.machine import single_node
from repro.smp import parallel_mergesort_time


def test_fig4_series(emit):
    series = emit(fig4_shared_memory())
    rows = {r["numa_domains"]: r for r in series.rows}
    # crossover exactly as in the paper
    assert rows[1]["winner"] == "tbb"
    for domains in (2, 3, 4):
        assert rows[domains]["winner"] == "dash", rows[domains]
    # OpenMP trails TBB everywhere
    for r in series.rows:
        assert r["openmp_s"] > r["tbb_s"]
    # DASH keeps scaling with domains
    assert rows[4]["dash_s"] < rows[2]["dash_s"] < rows[1]["dash_s"]


def test_fig4_kernel(benchmark):
    """Kernel: one TBB merge-sort schedule simulation (28 cores)."""
    machine = single_node()
    run = benchmark(
        parallel_mergesort_time,
        machine,
        5 * 2**30 // 8,
        cores=28,
        active_domains=4,
        runtime="tbb",
    )
    assert run.seconds > 0
