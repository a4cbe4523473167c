"""Fig. 3(b) — weak-scaling phase fractions.

Paper: local sorting and the ALL-TO-ALL exchange dominate (the network
moves ~256 GB at 128 nodes); the splitter ALLREDUCEs stay amortized.
"""

from repro.bench import fig3b_phase_breakdown
from repro.model import predict_histsort
from repro.machine import supermuc_phase2


def test_fig3b_execute(emit):
    series = emit(fig3b_phase_breakdown(mode="execute", repeats=2))
    for r in series.rows:
        assert r["local_sort"] > 0 and r["exchange"] >= 0


def test_fig3b_model(emit):
    series = emit(fig3b_phase_breakdown(mode="model"))
    rows = {r["nodes"]: r for r in series.rows}
    big = rows[128]
    # local sort (incl. merge) + exchange together dominate ...
    assert big["frac_sort"] + big["frac_exchange"] > 0.8
    # ... histogramming stays a minor fraction in weak scaling
    assert big["frac_split"] < 0.25
    # exchange fraction grows from 1 node to many nodes
    assert big["frac_exchange"] > rows[1]["frac_exchange"]


def test_fig3b_kernel(benchmark):
    """Kernel: the model evaluation itself (used 8x per series)."""
    machine = supermuc_phase2()
    pred = benchmark(
        predict_histsort,
        machine,
        2**24 * 2048,
        2048,
        ranks_per_node=16,
        rounds=30,
    )
    assert pred.total > 0
