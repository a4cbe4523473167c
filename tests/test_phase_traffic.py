"""Measured per-phase wire bytes equal the closed-form traffic model.

The paper's case for histogram sort is a communication-volume argument:
O(p) counts per histogram round, one ALL-TO-ALLV of the data.  The
``traffic_*`` formulas of :mod:`repro.model.phases` state it per phase;
a traced trial measures it (:func:`repro.trace.analysis.phase_traffic`
bins every rank's payload bytes by the phase it ran in).  Both follow the
runtime's recording conventions, so they must agree to the byte.  Three
shapes pin growth in p and in n; the mutants below are the regressions the
check exists for, each seeded into real library code.
"""

import textwrap
import types
from importlib import import_module
from pathlib import Path

import pytest

from repro.algorithms import ALGORITHMS
from repro.core import SortConfig
from repro.data import make_partition
from repro.machine import abstract_cluster
from repro.model.phases import traffic_histsort, traffic_psrs, traffic_samplesort
from repro.mpi import run_spmd
from repro.trace.analysis import phase_traffic

SHAPES = [(8, 8192), (32, 8192), (8, 65536)]
#: where zipf keys make the splitters pack the exchange
ZIPF_MACHINE = {"machine": abstract_cluster(2, cores_per_node=4)}

# modules, not the functions ``repro.core`` re-exports under the same names
histsort, multiselect, exchange, samplesort = map(import_module, (
    "repro.core.histsort", "repro.core.multiselect", "repro.core.exchange",
    "repro.baselines.samplesort",
))

#: sort name -> its wire-byte model at (n, p), given rank 0's result
MODELS = {
    "dash": lambda n, p, res: traffic_histsort(
        n, p, rounds=res.rounds, gathered_keys=res.splitters.gathered_keys,
        widths=res.splitters.widths,
    ),
    "sample_sort": lambda n, p, res: traffic_samplesort(n, p),
    "psrs": lambda n, p, res: traffic_psrs(n, p),
}

#: the one phase the model bounds from above instead of pricing exactly
UPPER_BOUNDS = {("dash", "splitting")}


def mismatches(algo, p, n, spans=None, dist="uniform_u64", **machine):
    """``{phase: (measured, modelled)}`` for every phase off the model;
    ``spans``, if given, receives the trial's spans."""
    run = ALGORITHMS[algo].run

    def prog(comm):
        local = make_partition(dist, n // p, rank=comm.rank, seed=7)
        return run(comm, local, SortConfig())

    results, rt = run_spmd(p, prog, trace=True, return_runtime=True, **machine)
    if spans is not None:
        spans.extend(rt.trace.spans())
    measured = phase_traffic(rt.trace.spans())
    modelled = MODELS[algo](n, p, results[0])
    out = {}
    for phase in sorted(set(measured) | set(modelled)):
        got, want = measured.get(phase, 0), modelled.get(phase, 0.0)
        if not (got <= want if (algo, phase) in UPPER_BOUNDS else got == want):
            out[phase] = (got, want)
    return out


class TestMeasuredTraffic:
    @pytest.mark.parametrize("p, n", SHAPES)
    @pytest.mark.parametrize("algo", list(MODELS))
    def test_every_phase_is_the_model(self, algo, p, n):
        """Equality in every phase but histogram sort's ``splitting``.

        There the model charges each histogram round ``2(p-1)`` counts, one
        probe pair per boundary, while a round ships pairs only for the
        boundaries still open (``traffic_histsort``'s docstring): an upper
        bound by design, exact only when no boundary retires before the
        last round.  Which shapes that holds at depends on the keys (here
        p = 32 reads 512 B under the bound), so the test asserts ``<=``.
        """
        assert mismatches(algo, p, n) == {}

    def test_the_exchange_composed_by_node_moves_the_model_bytes(self):
        """2 nodes x 4 ranks, 512 keys each under ``"squeeze"``: the
        exchange goes through the node leaders — a member's span sits at
        the level of its hand-over — and still moves exactly the model's
        bytes."""
        spans = []
        assert mismatches("dash", 8, 4096, spans, machine=abstract_cluster(2, cores_per_node=4)) == {}
        levels = [s.attrs["level"] for s in spans if s.name == "node_alltoallv"]
        assert levels == ["network", *["numa"] * 3] * 2

    def test_a_packed_exchange_moves_the_model_bytes(self):
        """2 nodes x 4 ranks of zipf keys under ``"squeeze"``: the exchange
        ships each destination's keys in its bucket's width (0, 1 and 8
        bytes here), exactly the bytes the model reads off those widths."""
        spans = []
        assert mismatches("dash", 8, 8192, spans, dist="zipf_u64", **ZIPF_MACHINE) == {}
        assert sum(s.attrs["bytes"] for s in spans if s.name.endswith("alltoallv")) < 8192 * 8


def _mutant(module, anchor, replacement):
    """``module`` re-executed from its own source with one edit."""
    path = Path(module.__file__)
    text = path.read_text(encoding="utf-8")
    assert text.count(anchor) == 1, f"{path.name} drifted: {anchor!r} not found once"
    mutant = types.ModuleType(module.__name__)
    mutant.__file__, mutant.__package__ = module.__file__, module.__package__
    exec(compile(text.replace(anchor, replacement), str(path), "exec"), vars(mutant))
    return mutant


_PAIRWISE_EXCHANGE = """\
    cuts = np.concatenate(([0], np.cumsum(plan.send_counts)))
    parts = [local_sorted[cuts[d] : cuts[d + 1]] for d in range(comm.size)]
    for peer in range(comm.size):
        if peer != comm.rank:  # the self-chunk stays local
            parts[peer] = comm.sendrecv(parts[peer], peer, tag=1)
    received = (np.concatenate(parts), plan.recv_counts)
"""

#: the bytes per key the packed exchange ships to each destination
_PACKED_WIDTHS = "    size, widths, masks = dtype.itemsize, plan.widths, plan.masks\n"

#: the tail of the row every rank deposits in the setup allgather, and
#: the step that unpacks the gathered rows
_SETUP_ROW = """\
               hi, n_local - int(local_sorted.searchsorted(hi)))

        def setup(rows):
            n, mins, at_min, maxs, at_max = zip(*rows)
"""

#: (where it is patched in, function, module, anchor, replacement, algo,
#: the phase it moves) — one mutant per shape of traffic regression
MUTANTS = {
    "root-bottleneck": (  # the whole partition gathered at the root
        samplesort, "_random_sample", samplesort,
        "gathered = comm.gather(sample, root=0)",
        "gathered = comm.gather(local, root=0)",
        "sample_sort", "sampling",
    ),
    "oversized-reduce": (  # the whole partition allreduced
        histsort, "find_splitters", multiselect,
        "    comm.compute(compute.call_overhead)\n",
        "    comm.allreduce(local_sorted)\n    comm.compute(compute.call_overhead)\n",
        "dash", "splitting",
    ),
    "p2-traffic": (  # a p-long row per rank in the setup allgather
        histsort, "find_splitters", multiselect,
        _SETUP_ROW, _SETUP_ROW.replace("(hi)))\n", "(hi)), np.full(p, n_local))\n")
        .replace("at_max = zip", "at_max, _ = zip"),
        "dash", "splitting",
    ),
    "handrolled-collective": (  # ALL-TO-ALLV as a pairwise sendrecv loop
        histsort, "exchange", exchange,
        "        received = comm.alltoallv(local_sorted, plan.send_counts, by_node=plan.by_node)\n",
        textwrap.indent(_PAIRWISE_EXCHANGE, "    "),
        "dash", "exchange",
    ),
}


class TestTrafficRegressions:
    @pytest.mark.parametrize("name", list(MUTANTS))
    def test_mutant_fails_the_check(self, name, monkeypatch):
        target, fn, module, anchor, replacement, algo, phase = MUTANTS[name]
        monkeypatch.setattr(target, fn, getattr(_mutant(module, anchor, replacement), fn))
        assert list(mismatches(algo, 8, 8192)) == [phase]

    def test_a_width_class_packed_too_narrow_fails_the_check(self, monkeypatch):
        """The exchange ships the 1-byte class in 0 bytes, the widths the
        splitters publish unchanged."""
        narrow = _mutant(exchange, _PACKED_WIDTHS, _PACKED_WIDTHS.replace(
            "plan.widths, plan.masks", "np.where(plan.widths == 1, 0, plan.widths), plan.masks")
            + "    masks = masks * (widths > 0)\n")
        monkeypatch.setattr(exchange, "_packed_exchange", narrow._packed_exchange)
        assert list(mismatches("dash", 8, 8192, dist="zipf_u64", **ZIPF_MACHINE)) == ["exchange"]
