"""Model conformance: static symbolic traffic vs model vs measurement.

``python -m repro.analyze cost`` closes the loop between the three ways
this repo talks about communication volume:

* **static** — the :mod:`repro.analyze.costlint` abstract interpretation
  re-derives each algorithm's per-phase wire bytes from the *source code*:
  every collective call site's symbolic payload term (elements over
  ``{1, log p, p, p², s, n/p, n}``), times its loop factor, times the
  verb's recording multiplier, evaluated at a concrete ``(p, n, s)``;
* **modelled** — the closed-form wire-byte formulas of
  :mod:`repro.model.phases` (``traffic_histsort`` & co.);
* **measured** — :func:`measure_traffic` runs a small traced
  virtual-clock trial and bins its span bytes by algorithm phase via
  :func:`repro.trace.analysis.phase_traffic`.

All three follow the runtime's byte-recording conventions (symmetric
collectives count every rank's payload; BCAST counts the root payload
once; ALLTOALLV counts the total exchanged volume), so per phase they
must agree within a constant factor.  A disagreement beyond ``tolerance``
means the code's communication pattern drifted from what the model
prices — exactly the regression the hierarchical-collective and AMS-sort
work must not introduce silently — and the check fails **with
attribution**: the symbolic term and call site of every static
contribution to the disagreeing phase.

The comparison is deliberately coarse (defaults: 6x tolerance, phases
under a 1 KiB floor skipped): the static side is a may-analysis upper
bound (all splitter boundaries assumed active every round), and the
measured side includes early-retirement effects.  What it pins down is
the *asymptotic shape* — an O(p²) exchange or an O(n) gather lands
orders of magnitude outside the band, not percent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from . import symbolic as sym
from .costlint import CostProgram
from .interproc import Program

__all__ = [
    "TrafficSnapshot",
    "PhaseComparison",
    "ConformanceReport",
    "ALGORITHMS",
    "static_traffic",
    "measure_traffic",
    "model_traffic",
    "check_conformance",
    "main_cost",
]

#: per-verb wire multiplier under the runtime's recording conventions:
#: broadcasts/scatters record the root payload once, every other verb
#: records each rank's contribution (p of them execute the call)
_ROOT_ONLY_VERBS = frozenset({"bcast", "scatter"})

_ITEMSIZE = 8


@dataclass(frozen=True)
class TrafficSnapshot:
    """Measured per-phase wire bytes of one traced trial."""

    algo: str
    p: int
    n: int
    rounds: int
    phase_bytes: dict[str, float]
    #: payload of the histogram sort's exact gather, in keys (one of ``rounds``)
    gathered: int = 0


@dataclass(frozen=True)
class PhaseComparison:
    """One phase's three-way volume comparison."""

    phase: str
    static: float
    modelled: float
    measured: float
    ratio: float          #: max/min after flooring (1.0 = perfect agreement)
    ok: bool
    skipped: bool         #: all three under the byte floor — not judged
    attribution: tuple[str, ...] = ()  #: static terms feeding this phase


@dataclass
class ConformanceReport:
    """Full conformance verdict for one algorithm at one (p, n)."""

    algo: str
    p: int
    n: int
    rounds: int
    comparisons: list[PhaseComparison] = field(default_factory=list)
    unpriced: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.comparisons)


# ----------------------------------------------------------- entry configs


@dataclass(frozen=True)
class _Entry:
    """How to derive, model, and measure one algorithm's traffic."""

    #: module paths analyzed for the static side (callees included)
    modules: tuple[str, ...]
    #: function (``"<file stem>:<dotted>"``) -> phase its sites bill to
    phase_of: dict[str, str]
    #: non-ground atom values at (p, n): ``$param``/``$param.attr`` sizes
    bindings: Callable[[int, int], dict[str, float]]
    #: closed-form wire-byte model from :mod:`repro.model.phases`
    model: Callable[[int, int, int, int], dict[str, float]]
    #: the traced trial's row in :data:`repro.algorithms.ALGORITHMS`
    sort: str


def _model_histsort(n: int, p: int, rounds: int, gathered: int) -> dict[str, float]:
    from ..model.phases import traffic_histsort

    return traffic_histsort(n, p, rounds=rounds, gathered_keys=gathered)


def _model_samplesort(n: int, p: int, rounds: int, gathered: int) -> dict[str, float]:
    from ..model.phases import traffic_samplesort

    return traffic_samplesort(n, p)


def _model_psrs(n: int, p: int, rounds: int, gathered: int) -> dict[str, float]:
    from ..model.phases import traffic_psrs

    return traffic_psrs(n, p)


def _core_bindings(p: int, n: int) -> dict[str, float]:
    # parameter-shaped atoms the static pass cannot ground by itself:
    # partitions are n/p elements, SplitterResult vectors are p-1 long
    b = float(max(p - 1, 1))
    return {
        "$local_sorted": n / p,
        "$local": n / p,
        "$splitters.values": b,
        "$splitters.realized_ranks": b,
        "$splitters.lower": b,
        "$splitters.upper": b,
        "$splitter_values": b,
        "$probes": b,
    }


ALGORITHMS: dict[str, _Entry] = {
    "histsort": _Entry(
        modules=(
            "repro.core.histsort",
            "repro.core.multiselect",
            "repro.core.exchange",
            "repro.seq.search",
        ),
        phase_of={
            "histsort:local_sort": "local_sort",
            "multiselect:find_splitters": "splitting",
            "exchange:build_exchange_plan": "other",
            "exchange:exchange": "exchange",
        },
        bindings=_core_bindings,
        model=_model_histsort,
        sort="dash",
    ),
    "samplesort": _Entry(
        modules=("repro.baselines.samplesort", "repro.baselines.common"),
        phase_of={
            "samplesort:_random_sample": "sampling",
            "samplesort:_select_splitters": "splitting",
            "common:exchange_by_splitters": "exchange",
        },
        bindings=_core_bindings,
        model=_model_samplesort,
        sort="sample_sort",
    ),
    "psrs": _Entry(
        modules=("repro.baselines.samplesort", "repro.baselines.common"),
        phase_of={
            "samplesort:_regular_sample": "splitting",
            "samplesort:_select_splitters": "splitting",
            "common:exchange_by_splitters": "exchange",
        },
        bindings=_core_bindings,
        model=_model_psrs,
        sort="psrs",
    ),
}


# ------------------------------------------------------------- static side


def _module_summaries(modules: tuple[str, ...]) -> list[Any]:
    import importlib

    from .engine import build_record

    out = []
    for modname in modules:
        path = Path(importlib.import_module(modname).__file__)
        rec = build_record(path.read_text(encoding="utf-8"), str(path))
        if rec.summary is not None:
            out.append(rec.summary)
    return out


#: functions whose result size depends on the data, priced as an atom of
#: the environment below: the exact gather's per-rank payload
_DATA_SIZED = {"multiselect:_residue": "$residue"}


def _short(key: str) -> str:
    """``"<file stem>:<dotted>"`` of a cost-program function key."""
    path, _, dotted = key.partition("::")
    return f"{Path(path).stem}:{dotted}"


def _function_phase(entry: _Entry, key: str) -> str | None:
    """Phase a cost site bills to, or ``None`` when out of scope."""
    return entry.phase_of.get(_short(key))


def static_traffic(
    algo: str, p: int, n: int, rounds: int, gathered: int = 0
) -> tuple[dict[str, float], dict[str, list[str]], list[str]]:
    """Statically derived per-phase wire bytes at concrete ``(p, n, s)``;
    ``gathered`` keys (not ``n``) size the exact gather's per-rank payload.

    Returns ``(phase_bytes, attribution, unpriced)``: the evaluated bytes,
    the per-phase symbolic terms with their call sites, and the sites
    whose payload stayed non-ground even under the entry bindings (their
    contribution is dropped, which the caller surfaces).
    """
    entry = ALGORITHMS[algo]
    prog = CostProgram(Program(_module_summaries(entry.modules)))
    for key in prog.returns:
        if _short(key) in _DATA_SIZED:
            prog.returns[key] = sym.atom(_DATA_SIZED[_short(key)])
    env: dict[str, float] = {
        "p": float(p),
        "logp": math.log2(max(p, 2)),
        "n": float(n),
        "s": float(max(rounds, 1)),
        "$residue": gathered / p,
    }
    env.update(entry.bindings(p, n))

    bytes_per_phase: dict[str, float] = {}
    attribution: dict[str, list[str]] = {}
    unpriced: list[str] = []
    for key in sorted(prog.cost):
        for site in prog.cost[key].sites:
            verb = site.verb
            phase = _function_phase(entry, key)
            if phase is None:
                continue
            payload, _via = prog.resolve_size(key, site.payload)
            loop, _ = prog.resolve_size(key, site.loop)
            term = sym.mul(payload, loop)
            where = f"{Path(key.partition('::')[0]).name}:{site.line}"
            if term is sym.UNKNOWN:
                unpriced.append(f"{where} {verb}(payload unknown) -> {phase}")
                continue
            value, dropped = sym.evaluate_ground(term, env)
            if dropped:
                unpriced.append(
                    f"{where} {verb}({sym.fmt(term)}) drops "
                    f"{{{', '.join(sorted(dropped))}}} -> {phase}"
                )
            mult = 1.0 if verb in _ROOT_ONLY_VERBS else float(p)
            contributed = value * _ITEMSIZE * mult
            bytes_per_phase[phase] = bytes_per_phase.get(phase, 0.0) + contributed
            attribution.setdefault(phase, []).append(
                f"{verb}@{where}: {sym.fmt(term)} elems x {_ITEMSIZE} B x "
                f"{'1 (root)' if mult == 1.0 else 'p'} = {contributed:.0f} B"
            )
    return bytes_per_phase, attribution, unpriced


# ----------------------------------------------------------- measured side


def measure_traffic(algo: str, p: int, n: int, seed: int = 7) -> TrafficSnapshot:
    """Run a small traced virtual-clock trial and bin span bytes by phase."""
    import numpy as np

    from ..algorithms import ALGORITHMS as SORTS
    from ..core import SortConfig
    from ..mpi import run_spmd
    from ..trace.analysis import phase_traffic

    sort = SORTS[ALGORITHMS[algo].sort].run
    n_local = max(n // p, 1)

    def prog(comm):
        rng = np.random.Generator(np.random.MT19937([seed, comm.rank]))
        local = rng.integers(0, 2**62, size=n_local, dtype=np.uint64)
        res = sort(comm, local, SortConfig())
        return res.rounds, getattr(getattr(res, "splitters", None), "gathered_keys", 0)

    results, rt = run_spmd(p, prog, trace=True, return_runtime=True)
    spans = rt.trace.spans()
    return TrafficSnapshot(
        algo=algo,
        p=p,
        n=n_local * p,
        rounds=int(max(r for r, _ in results)),
        phase_bytes={k: float(v) for k, v in phase_traffic(spans).items()},
        gathered=int(results[0][1]),
    )


def model_traffic(
    algo: str, p: int, n: int, rounds: int, gathered: int = 0
) -> dict[str, float]:
    """Closed-form wire-byte prediction from :mod:`repro.model.phases`."""
    return ALGORITHMS[algo].model(n, p, rounds, gathered)


# ------------------------------------------------------------- comparison


def check_conformance(
    algo: str,
    p: int = 8,
    n: int = 1 << 13,
    *,
    tolerance: float = 6.0,
    floor: float = 1024.0,
    seed: int = 7,
) -> ConformanceReport:
    """Three-way per-phase traffic comparison for one algorithm.

    Phases where all three volumes sit under ``floor`` bytes are skipped
    (setup-sized collectives drown in constant overheads the static side
    does not price); otherwise each value is clamped up to ``floor`` and
    the max/min ratio must stay within ``tolerance``.
    """
    if algo not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algo!r}; have {sorted(ALGORITHMS)}"
        )
    snap = measure_traffic(algo, p, n, seed=seed)
    static, attribution, unpriced = static_traffic(
        algo, p, snap.n, snap.rounds, snap.gathered
    )
    modelled = model_traffic(algo, p, snap.n, snap.rounds, snap.gathered)

    report = ConformanceReport(
        algo=algo, p=p, n=snap.n, rounds=snap.rounds, unpriced=unpriced
    )
    phases = list(modelled)  # the model defines the canonical phase set
    extra = (set(static) | set(snap.phase_bytes)) - set(phases)
    phases.extend(sorted(ph for ph in extra if ph != "-"))
    for ph in phases:
        vals = (
            static.get(ph, 0.0),
            modelled.get(ph, 0.0),
            snap.phase_bytes.get(ph, 0.0),
        )
        if max(vals) < floor:
            report.comparisons.append(
                PhaseComparison(
                    phase=ph,
                    static=vals[0],
                    modelled=vals[1],
                    measured=vals[2],
                    ratio=1.0,
                    ok=True,
                    skipped=True,
                )
            )
            continue
        clamped = [max(v, floor) for v in vals]
        ratio = max(clamped) / min(clamped)
        report.comparisons.append(
            PhaseComparison(
                phase=ph,
                static=vals[0],
                modelled=vals[1],
                measured=vals[2],
                ratio=ratio,
                ok=ratio <= tolerance,
                skipped=False,
                attribution=tuple(attribution.get(ph, ())),
            )
        )
    return report


# -------------------------------------------------------------------- CLI


def _fmt_bytes(v: float) -> str:
    return f"{v:,.0f}"


def main_cost(argv: list[str] | None = None) -> int:
    """``python -m repro.analyze cost`` entry point."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze cost",
        description=(
            "Model-conformance check: statically derived per-phase wire "
            "bytes vs the repro.model.phases closed forms vs a measured "
            "virtual-clock trial."
        ),
        epilog="Exit codes: 0 all phases agree, 1 disagreement, 2 error.",
    )
    parser.add_argument(
        "--algo",
        action="append",
        choices=sorted(ALGORITHMS),
        default=None,
        help="algorithm(s) to check (repeatable; default: all)",
    )
    parser.add_argument("--p", type=int, default=8, help="trial ranks (default 8)")
    parser.add_argument(
        "--n", type=int, default=1 << 13, help="total keys (default 8192)"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=6.0,
        help="max allowed max/min volume ratio per phase (default 6)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=1024.0,
        help="bytes under which a phase is not judged (default 1024)",
    )
    args = parser.parse_args(argv)
    algos = args.algo or sorted(ALGORITHMS)

    failed = False
    for algo in algos:
        try:
            report = check_conformance(
                algo, args.p, args.n, tolerance=args.tolerance, floor=args.floor
            )
        except Exception as exc:  # internal error, not a conformance verdict
            print(f"repro.analyze cost: internal error on {algo}: {exc}", file=sys.stderr)
            return 2
        verdict = "OK" if report.ok else "FAIL"
        try:
            print(
                f"{algo}: p={report.p} n={report.n} rounds={report.rounds} "
                f"-> {verdict}"
            )
            for c in report.comparisons:
                status = "skip" if c.skipped else ("ok" if c.ok else "FAIL")
                print(
                    f"  {c.phase:<10s} static={_fmt_bytes(c.static):>12s}  "
                    f"model={_fmt_bytes(c.modelled):>12s}  "
                    f"measured={_fmt_bytes(c.measured):>12s}  "
                    f"ratio={c.ratio:5.2f}  [{status}]"
                )
                if not c.ok:
                    for line in c.attribution:
                        print(f"      static term: {line}")
            for note in report.unpriced:
                print(f"  note: unpriced site {note}")
        except BrokenPipeError:  # e.g. piped into `head`
            sys.stderr.close()
            return 1 if failed or not report.ok else 0
        if not report.ok:
            failed = True
    return 1 if failed else 0
