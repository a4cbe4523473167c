"""Closed-form phase models for paper-scale prediction.

The in-process runtime executes the real algorithm and prices it in virtual
time, but holding 2^31 keys × 3584 ranks in one address space is not
possible; these closed forms evaluate the same cost model symbolically so
the benchmark harness can extend executed series to the paper's full scale
(128 nodes / 3584 cores, 256 GB).  The formulas mirror §V's complexity
analysis:

* local sort: ``c_sort · (N/P) · log2(N/P)``
* splitting:  ``rounds × (allreduce(2·(P-1)·8 B) + binary-search histogram)``
  — a round ships at most one probe per *open* splitter, so ``2·(P-1)``
  counts is an upper bound under every probe schedule; ``rounds`` is taken
  from executed runs of the same key type and schedule.  The default
  ``"squeeze"`` schedule composes its allreduces by node
  (:meth:`CostModel.node_allreduce`) and ends in one exact gather, which
  counts as a round and is priced as what it is once its payload
  ``gathered_keys`` is given: an allgather of that many keys plus the merge
  of the ``P`` sorted runs;
* exchange:   one ALL-TO-ALLV of the full volume, priced per locality level
  with the bisection-bandwidth floor;
* merge:      strategy-dependent (re-sort in the paper's configuration);
* other:      the O(p²)-volume bound/permutation exchanges of Algorithm 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.cost import CostModel
from ..machine.spec import Level, MachineSpec
from ..machine.topology import make_placement
from ..core.merge import merge_cost

__all__ = [
    "MODEL_VERSION",
    "PhasePrediction",
    "predict_histsort",
    "predict_hss",
    "predict_samplesort",
    "traffic_histsort",
    "traffic_samplesort",
    "traffic_psrs",
]

#: bumped whenever a closed-form formula changes; cached tuning plans carry
#: the version they were scored under and are invalidated on mismatch
#: (see :mod:`repro.tune.cache`).
MODEL_VERSION = 4


@dataclass(frozen=True)
class PhasePrediction:
    """Per-phase modelled seconds for one (N, P) point."""

    local_sort: float
    splitting: float
    exchange: float
    merge: float
    other: float

    @property
    def total(self) -> float:
        return self.local_sort + self.splitting + self.exchange + self.merge + self.other

    def as_dict(self) -> dict[str, float]:
        return {
            "local_sort": self.local_sort,
            "splitting": self.splitting,
            "exchange": self.exchange,
            "merge": self.merge,
            "other": self.other,
        }


def predict_histsort(
    machine: MachineSpec,
    n_total: int,
    p: int,
    *,
    ranks_per_node: int,
    rounds: int,
    gathered_keys: int = 0,
    itemsize: int = 8,
    merge_strategy: str = "sort",
    probe_schedule: str = "squeeze",
) -> PhasePrediction:
    """Modelled phase times of the histogram sort at scale ``(N, P)``.

    ``rounds`` includes the exact gather of the ``"squeeze"`` schedule; with
    ``gathered_keys == 0`` that round is priced like a histogram round (the
    firing rule guarantees it does not exceed a flat one).  As in
    :func:`~repro.core.find_splitters`, only ``"squeeze"`` composes its
    allreduces by node.
    """
    if p < 1 or n_total < 0:
        raise ValueError("need p >= 1 and n_total >= 0")
    placement = make_placement(machine, p, ranks_per_node)
    cost = CostModel(placement)
    compute = machine.compute
    ranks = list(range(p))
    n_local = n_total / p

    local_sort = compute.sort(int(n_local), itemsize)

    # Splitting: per round one allreduce of at most 2(P-1) int64 counts (one
    # probe per open splitter) plus the local histogram binary searches and
    # the validation of every open splitter.
    allreduce = cost.node_allreduce if probe_schedule == "squeeze" else cost.allreduce
    per_round = (
        allreduce(2 * max(p - 1, 1) * 8, ranks)
        + compute.search(2 * max(p - 1, 1), max(int(n_local), 2))
        + compute.call_overhead
        + 2.0e-9 * max(p - 1, 1)
    )
    splitting = rounds * per_round + allreduce(16, ranks)
    if gathered_keys:
        splitting += (
            cost.allgather(gathered_keys * itemsize / p, ranks)
            + compute.kway_merge(gathered_keys, p)
            + compute.call_overhead
            + 2.0e-9 * max(p - 1, 1)
            - per_round
        )

    # Exchange: with a random input every rank sends ~(1 - 1/P) of its data,
    # spread uniformly over the other ranks; locality splits the volume into
    # intra-node (memcpy-priced under shm) and network shares.
    # A node cannot hold more of a rank's peers than exist: clamp, or the
    # network share (1 - intra_frac) goes negative when ranks_per_node > p.
    rpn = min(placement.ranks_per_node, p)
    send_bytes = n_local * itemsize * (1.0 - 1.0 / p)
    if p > 1:
        intra_frac = min((rpn - 1) / (p - 1), 1.0)
    else:
        intra_frac = 1.0
    intra_link = machine.link(Level.NODE)
    net_link = machine.link(Level.NETWORK) if machine.nodes > 1 else intra_link
    # NIC sharing (all ranks of a node drive the network concurrently) and
    # the measured MPI_Alltoallv bulk-payload inefficiency.
    net_beta = net_link.beta * min(rpn, p) * cost.alltoallv_inefficiency
    per_rank = (
        send_bytes * intra_frac * intra_link.beta
        + send_bytes * (1.0 - intra_frac) * net_beta
        + (p - 1) * (intra_frac * intra_link.latency + (1 - intra_frac) * net_link.latency)
    )
    cross_total = n_total * itemsize * (1.0 - intra_frac)
    floor = cross_total / machine.bisection_bandwidth
    exchange = max(per_rank, floor) + cost.software_overhead

    merge = merge_cost(compute, int(n_local), min(p, max(int(n_local), 1)), merge_strategy)

    # Other: exchange preparation — bound histogram, the rank-order-fill
    # EXCLUSIVE_SCAN, and the send-count ALL-TO-ALL (O(p) volume per rank).
    other = (
        cost.scan(max(p - 1, 1) * 8, ranks)
        + cost.alltoall(8, ranks)
        + compute.search(2 * max(p - 1, 1), max(int(n_local), 2))
        + compute.partition(2 * p)
    )

    return PhasePrediction(
        local_sort=local_sort,
        splitting=splitting,
        exchange=exchange,
        merge=merge,
        other=other,
    )


# ------------------------------------------------------- wire-byte models
#
# Per-phase *wire bytes*, not seconds: the modelled column of the
# ``repro.analyze cost`` conformance check.  The formulas follow the
# runtime's recording conventions (``Stats.record_collective`` and the
# per-rank trace spans): symmetric collectives count every rank's payload,
# ALLTOALLV counts the total exchanged volume including self-chunks, and
# BCAST counts the root payload once.


def traffic_histsort(
    n_total: int, p: int, *, rounds: int, gathered_keys: int = 0, itemsize: int = 8
) -> dict[str, float]:
    """Modelled per-phase wire bytes of the histogram sort.

    ``splitting`` carries the fixed-size setup collectives (the size
    allgather, the (min, max) reduction, and the extreme-key bounds) plus
    ``rounds`` histogram ALLREDUCEs of ``2(p-1)`` int64 counts — an upper
    bound, since a round carries at most one probe per *open* boundary
    (fewer where the shared schedule deduplicates a narrow bracket) and
    boundaries retire as they converge; the exact gather, one of the
    ``rounds``, ships its ``gathered_keys`` instead.  ``other`` is the
    exchange preparation (rank-order-fill EXCLUSIVE_SCAN + send-count
    ALL-TO-ALL); ``exchange`` the full data volume.
    """
    if p < 1 or n_total < 0:
        raise ValueError("need p >= 1 and n_total >= 0")
    b = max(p - 1, 0)
    return {
        "local_sort": 0.0,
        "splitting": p * (8.0 + 24.0 + 16.0)
        + (rounds - bool(gathered_keys)) * p * 16.0 * b
        + float(gathered_keys) * itemsize,
        "other": p * 8.0 * b + p * (8.0 * p + 8.0),
        "exchange": float(n_total) * itemsize,
        "merge": 0.0,
    }


def traffic_samplesort(
    n_total: int, p: int, *, oversample: int = 32, itemsize: int = 8
) -> dict[str, float]:
    """Modelled per-phase wire bytes of random sample sort.

    ``sampling`` gathers ``min(oversample, n/p)`` keys per rank to the
    root; ``splitting`` broadcasts the ``p-1`` chosen splitters (root
    payload only, per the recording convention).
    """
    if p < 1 or n_total < 0:
        raise ValueError("need p >= 1 and n_total >= 0")
    s = min(oversample, n_total // max(p, 1))
    return {
        "sampling": p * float(s) * itemsize,
        "splitting": max(p - 1, 0) * float(itemsize),
        "exchange": float(n_total) * itemsize,
        "merge": 0.0,
    }


def traffic_psrs(n_total: int, p: int, *, itemsize: int = 8) -> dict[str, float]:
    """Modelled per-phase wire bytes of PSRS (regular sampling).

    Every rank contributes ``p-1`` regular samples to the root gather and
    receives the ``p-1`` splitters by broadcast — both inside the
    ``splitting`` phase (the gather happens after the local sort's mark).
    """
    if p < 1 or n_total < 0:
        raise ValueError("need p >= 1 and n_total >= 0")
    b = max(p - 1, 0)
    return {
        "local_sort": 0.0,
        "splitting": p * b * float(itemsize) + b * float(itemsize),
        "exchange": float(n_total) * itemsize,
        "merge": 0.0,
    }


def predict_hss(
    machine: MachineSpec,
    n_total: int,
    p: int,
    *,
    ranks_per_node: int,
    rounds: int,
    cand_per_round: float,
    itemsize: int = 8,
) -> PhasePrediction:
    """Modelled phases of Histogram Sort with Sampling at scale ``(N, P)``.

    ``rounds`` and ``cand_per_round`` (the candidate-vector size the sampled
    refinement histograms each round) are measured from executed runs —
    they carry HSS's volatility into the prediction.
    """
    # Both implementations use a single-threaded STL sort for the local
    # phases (§VI-B), so everything but the splitting phase matches DASH.
    base = predict_histsort(
        machine,
        n_total,
        p,
        ranks_per_node=ranks_per_node,
        rounds=0,
        itemsize=itemsize,
        merge_strategy="sort",
    )
    placement = make_placement(machine, p, ranks_per_node)
    cost = CostModel(placement)
    compute = machine.compute
    ranks = list(range(p))
    n_local = max(int(n_total / p), 2)
    cand = max(cand_per_round, 1.0)
    per_round = (
        cost.allgather(cand * itemsize / p, ranks)      # sampled proposals
        + compute.sort(int(cand))                        # candidate dedup/sort
        + compute.search(int(2 * cand), n_local)         # local histogram
        + cost.allreduce(2 * cand * 8, ranks)            # global histogram
        + compute.call_overhead
    )
    splitting = rounds * per_round + cost.allreduce(16, ranks)
    return PhasePrediction(
        local_sort=base.local_sort,
        splitting=splitting,
        exchange=base.exchange,
        merge=base.merge,
        other=base.other,
    )


def predict_samplesort(
    machine: MachineSpec,
    n_total: int,
    p: int,
    *,
    ranks_per_node: int,
    oversample: int = 16,
    itemsize: int = 8,
) -> PhasePrediction:
    """Modelled phases of one-shot sample sort (the §III baseline).

    Splitting is a single round: every rank contributes ``oversample``
    regular samples, the root sorts the ``oversample·p`` candidates and
    broadcasts ``p-1`` splitters.  No histogramming, so the phase is cheap —
    the price is imbalance, which this closed form (like the paper's §III
    discussion) does not capture; dry runs through the executing runtime do.
    """
    base = predict_histsort(
        machine,
        n_total,
        p,
        ranks_per_node=ranks_per_node,
        rounds=0,
        itemsize=itemsize,
        merge_strategy="sort",
    )
    placement = make_placement(machine, p, ranks_per_node)
    cost = CostModel(placement)
    compute = machine.compute
    ranks = list(range(p))
    splitting = (
        cost.gather(oversample * itemsize, ranks)
        + compute.sort(oversample * p)
        + cost.bcast(max(p - 1, 1) * itemsize, ranks)
        + compute.call_overhead
    )
    return PhasePrediction(
        local_sort=base.local_sort,
        splitting=splitting,
        exchange=base.exchange,
        merge=base.merge,
        other=base.other,
    )
