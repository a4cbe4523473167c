"""Fig. 2(a) — strong scaling of DASH vs the Charm++-style HSS comparator.

Two series are produced:

* ``fig2a_execute`` — the real algorithms executed in-process at 1..4
  simulated nodes (paper layout: 28 ranks/node DASH, 16 ranks/node HSS),
  timings in virtual seconds, median of repeated seeds with 95% CI;
* ``fig2a_model``  — the calibrated closed-form model at the paper's full
  1..128 node / 3584 core scale with 32 GB of uint64 keys.

Paper shapes to check: near-linear speedup at low node counts, efficiency
around 0.5–0.6 at 3500 cores, DASH at least as fast as HSS, HSS with the
wider confidence band.
"""

from repro.bench import fig2a_strong_scaling, run_sort_trial
from repro.machine import supermuc_phase2


def test_fig2a_execute(emit):
    series = emit(fig2a_strong_scaling(mode="execute", repeats=3))
    rows = series.rows
    assert len(rows) >= 3
    # strong scaling: more nodes, less time
    assert rows[-1]["dash_s"] < rows[0]["dash_s"]
    # DASH at least competitive with HSS at the largest executed scale
    assert rows[-1]["dash_s"] <= rows[-1]["hss_s"] * 1.25


def test_fig2a_model(emit):
    series = emit(fig2a_strong_scaling(mode="model", repeats=3))
    rows = {r["nodes"]: r for r in series.rows}
    assert rows[128]["cores"] == 3584
    # paper: parallel efficiency ~0.6 at >3500 cores (we accept 0.35..0.8)
    assert 0.35 <= rows[128]["dash_eff"] <= 0.8
    # near-linear at low node counts
    assert rows[2]["dash_eff"] > 0.7
    # DASH <= HSS everywhere; HSS volatility band is wider
    for r in series.rows:
        assert r["dash_s"] <= r["hss_s"] * 1.05
        assert r["hss_hi"] >= r["hss_s"]


def test_fig2a_kernel(benchmark):
    """Representative kernel: one executed DASH sort trial (virtual time)."""
    machine = supermuc_phase2()

    def trial():
        return run_sort_trial(
            28, 2048, algo="dash", machine=machine, ranks_per_node=28, seed=5
        )

    result = benchmark(trial)
    assert result.total > 0
