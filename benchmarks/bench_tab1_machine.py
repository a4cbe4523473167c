"""Table I — the SuperMUC Phase 2 machine description.

Prints the preset in Table I form and benchmarks the cost model's hottest
query (``alltoallv_per_rank``), which every simulated exchange calls.
"""

import numpy as np

from repro.bench import table1_machine
from repro.machine import CostModel, make_placement, supermuc_phase2


def test_tab1_machine_table(benchmark, emit):
    series = emit(table1_machine())
    rows = {r["item"]: r["value"] for r in series.rows}
    assert rows["Cores/node"] == 28
    assert rows["NUMA domains"] == 4

    machine = supermuc_phase2(nodes=8)
    cm = CostModel(make_placement(machine, 128, ranks_per_node=16))
    vols = np.random.default_rng(0).integers(0, 1 << 16, (128, 128)).astype(float)
    ranks = list(range(128))

    result = benchmark(cm.alltoallv_per_rank, vols, ranks)
    assert result.shape == (128,)
