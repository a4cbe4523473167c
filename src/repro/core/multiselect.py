"""Splitter determination by iterative histogramming (Algorithms 2 + 3).

This is the paper's primary contribution: a *k-way multiselect* that finds
all ``P-1`` splitters at once by narrowing a bracket ``(lo_i, hi_i]`` per
splitter, with one ``ALLREDUCE`` of the global histogram per round, **no
sampling**, and no assumptions on key distribution, rank count, or
partition density.

The search starts from every rank's size, the global ``(min, max)``
(Algorithm 3 line 3) and the counts ``U(gmin)`` / ``L(gmax)`` at those
extremes.  ``"squeeze"`` gathers all of them in one ALLGATHER of a
``(size, min, #min, max, #max)`` row per rank, whose last arriver derives
them and builds the search; the pinned schedules keep one collective each
(a sizes ALLGATHER, two flat ALLREDUCEs).  Keys of ±inf cost one more
ALLREDUCE, of the finite keys' ``(min, max)``.

Algorithm sketch (per round, every rank):

1. place at most one probe per still-open splitter into one sorted probe
   vector — interpolated on the global counts at its bracket's two ends
   and aimed past the target rank into the wider side
   (``probe_schedule="squeeze"``, the default), spread equally over the
   bracket the splitters share (``"shared"``), or at the bracket's
   midpoint (``"midpoint"``, the paper's literal Algorithm 3, which
   repeats a shared bracket's midpoint once per splitter);
2. local histogram of the probe vector by binary search on the locally
   sorted partition (two ``np.searchsorted`` calls);
3. ``ALLREDUCE`` the local ``(l, u)`` vectors into the global ``(L, U)``
   (``"squeeze"``: composed by node, ``by_node=True``);
4. VALIDATE_SPLITTER, every open splitter against every probe: accept the
   lowest probe whose ``[L, U]`` can meet the target rank ``t_i`` within
   tolerance, otherwise move ``lo_i`` / ``hi_i`` to the two neighbouring
   probes that bracket it.  Every rank would compute the same brackets, so
   the ALLREDUCE's last arriver does it once for all (``then=``), and
   places the next probe vector with it.

``"squeeze"`` ends the search exactly, as DSELECT does (Algorithm 1,
§IV-B): once the keys still inside the open brackets can be allgathered
for no more modelled time than the next round would cost, every rank
gathers them and reads each remaining splitter off the sorted residue.

Ties (duplicate keys) need no key uniquification here: acceptance uses the
achievable-interval test and the exchange (Algorithm 4) later splits the
duplicate run by rank order.  The classic ``(key, rank, index)`` transform
is still available in :mod:`repro.core.keys`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..mpi.ops import ReduceOp
from ..seq.search import local_histogram
from .config import SplitterConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi import Comm

__all__ = [
    "SplitterResult",
    "SplitterConvergenceError",
    "accept_or_tighten",
    "tightened_ranks",
    "find_splitters",
]

#: elementwise (min, max) fold over (lo, hi) tuples in which a NaN loses
#: both comparisons (``min``/``max`` would keep one as first argument)
_MINMAX = ReduceOp("minmax", lambda a, b: (
    b[0] if a[0] != a[0] or b[0] < a[0] else a[0],
    b[1] if a[1] != a[1] or b[1] > a[1] else a[1]))


class SplitterConvergenceError(RuntimeError):
    """Raised when histogramming exceeds its round budget."""


@dataclass(frozen=True)
class SplitterResult:
    """Outcome of the splitter determination.

    ``values[i]`` is the key value of boundary ``i`` (between output ranks
    ``i`` and ``i+1``); ``realized_ranks[i]`` the exact number of keys the
    exchange will place left of that boundary (within tolerance of
    ``targets[i]``); ``lower``/``upper`` the boundary's global histogram
    ``(L, U)``.  ``rounds`` counts the exact finish as one round;
    ``gathered_keys`` is its payload (0 when it never fired).  ``by_node``:
    the exchange of this partition — EXSCAN, count ALL-TO-ALL and
    ALL-TO-ALLV — may compose by node (``"squeeze"``, like its own
    collectives; the pinned schedules keep the paper's flat ones).

    ``widths`` (None: every key travels whole): the bytes per key the
    ALL-TO-ALLV ships to each destination — the low bytes of the keys,
    marked per destination by the byte-mask word ``masks[d]``, restored as
    ``lows[d]`` plus their offset modulo ``2**(8 * widths[d])``
    (:meth:`_ProbeArithmetic.packing`).
    """

    values: np.ndarray
    realized_ranks: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    targets: np.ndarray
    capacities: np.ndarray
    total: int
    tolerance: int
    rounds: int
    probes_total: int
    gathered_keys: int = 0
    by_node: bool = False
    widths: np.ndarray | None = None
    lows: np.ndarray | None = None
    masks: np.ndarray | None = None

    @property
    def nboundaries(self) -> int:
        return int(self.values.size)

    @classmethod
    def trivial(cls, dtype, targets, capacities, total: int, tolerance: int):
        """The zero-round result: no keys, or a single rank."""
        zeros = np.zeros(targets.size, dtype=np.int64)
        return cls(
            values=np.zeros(targets.size, dtype=dtype),
            realized_ranks=targets.copy(),
            lower=zeros,
            upper=zeros.copy(),
            targets=targets,
            capacities=capacities,
            total=total,
            tolerance=tolerance,
            rounds=0,
            probes_total=0,
        )


#: a key span below ``_SPANS[i]`` fits in ``_WIDTHS[i]`` bytes
_SPANS = np.array([1, 1 << 8, 1 << 16, 1 << 32], dtype=np.uint64)
_WIDTHS = np.array([0, 1, 2, 4, 8])


class _ProbeArithmetic:
    """Dtype-aware probe placement inside half-open brackets ``(lo, hi]``."""

    def __init__(self, dtype: np.dtype):
        self.dtype = np.dtype(dtype)
        if self.dtype.kind not in "iuf":
            raise TypeError(
                f"histogram splitting requires numeric keys, got dtype {self.dtype}"
            )
        self.is_int = self.dtype.kind in "iu"
        #: (min, max) of the finite keys if a global extreme is infinite: no
        #: arithmetic works on such a bracket end, so probes go inside these
        self.finite: tuple | None = None
        #: the widest key slice, in bytes, the exchange ships instead of the
        #: whole key (-1: none), set with the search
        self.packable = -1

    def extremes(self, keys) -> tuple:
        """``(min, max)`` of sorted ``keys``; the MINMAX identity if empty."""
        if keys.size:
            return keys[0], keys[-1]
        info = np.iinfo(self.dtype) if self.is_int else np.finfo(self.dtype)
        return self.dtype.type(info.max), self.dtype.type(info.min)

    def below(self, hi) -> np.ndarray:
        """The largest key value under each ``hi``."""
        if self.is_int:
            return hi - self.dtype.type(1)
        return np.nextafter(hi, self.dtype.type(-np.inf))

    def spread(self, lo, hi, j, g) -> np.ndarray:
        """Probe ``j`` of ``g`` equally spaced ones inside each ``(lo, hi]``.

        All arguments are aligned arrays with ``1 <= j <= g``; the probe sits
        at ``lo + ceil(j * (hi - lo) / (g + 1))``, so ``g == 1`` is the
        bisection midpoint of Algorithm 3 (``== hi`` at collapse).  A bracket
        narrower than its ``g`` repeats values; callers deduplicate.  With
        ``j / (g + 1)`` a rank fraction this is the interpolated placement
        (integer keys: exact while ``g < 2**32``).
        """
        if self.is_int:
            # Modulo-2^64 arithmetic on the width is exact for every integer
            # dtype, full-range u64/i64 included: j * width never forms.
            base = lo.astype(np.uint64)
            parts = (g + 1).astype(np.uint64)
            q, r = np.divmod(hi.astype(np.uint64) - base, parts)
            ju = j.astype(np.uint64)
            return (base + ju * q + (ju * r + parts - 1) // parts).astype(self.dtype)
        lo64, hi64 = lo.astype(np.float64), hi.astype(np.float64)
        if self.finite is not None:
            lo64, hi64 = np.maximum(lo64, self.finite[0]), np.minimum(hi64, self.finite[1])
        frac = j / (g + 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            raw = lo64 + (hi64 - lo64) * frac
        # hi - lo overflows for keys near +-max: the convex form cannot
        raw = np.where(np.isfinite(raw), raw, lo64 * (1.0 - frac) + hi64 * frac)
        raw = raw.astype(self.dtype)
        raw = np.where(raw <= lo, np.nextafter(lo, hi), raw)
        return np.where(raw > hi, hi, raw)

    def packing(self, gmin, values, gmax) -> tuple | None:
        """``(widths, lows, masks)`` of the exchange's destinations, or None
        where every key travels whole.  Destination ``d`` receives keys of
        ``[lows[d], highs[d]]``, the splitters and the global extremes at the
        ends, so the low ``w`` bytes of a key hold its offset from ``lows[d]``
        exactly where ``highs[d] - lows[d] < 2**(8w)`` (modulo 2^64, as in
        :meth:`spread`); ``w`` is that width where at most ``packable``, the
        itemsize elsewhere.  ``masks[d]`` is a key-sized word whose bytes are
        1 at the ``widths[d]`` low bytes of a key, 0 elsewhere."""
        if self.packable < 0:
            return None
        lows, highs = np.append(gmin, values), np.append(values, gmax)
        widths = _WIDTHS[_SPANS.searchsorted(highs.astype(np.uint64) - lows.astype(np.uint64),
                                             side="right")]
        packed = widths <= self.packable
        if not packed.any():
            return None
        size = self.dtype.itemsize
        widths = np.where(packed, widths, size)
        order = np.arange(size)  # each byte's significance
        if self.dtype != self.dtype.newbyteorder("<"):
            order = order[::-1]
        masks = (order < widths[:, None]).view(f"u{size}").ravel()
        return widths, lows.astype(self.dtype), masks


def accept_or_tighten(probes, L, U, t, tol, lo, hi):
    """VALIDATE_SPLITTER (Algorithm 2) of every target against every probe.

    ``probes`` is sorted, so its global histogram ``(L, U)`` is monotone and
    the probes that satisfy target ``t`` — some left-count in ``[L, U]``
    within ``tol`` of it — form one contiguous index range; the splitter of
    a target that none satisfies lies between two neighbouring probes.
    ``lo`` / ``hi`` are the targets' current brackets, monotone like ``t``.

    Returns ``(hit, first, new_lo, new_hi)``, aligned with ``t``:
    ``probes[first]`` is the lowest satisfying probe where ``hit``;
    elsewhere ``probes[first - 1]`` / ``probes[first]`` (where they exist)
    are the neighbours, and ``new_lo`` / ``new_hi`` the bracket tightened to
    them — it moved exactly where it differs from ``lo`` / ``hi``.
    """
    first = U.searchsorted(t - tol)
    hit = first < L.searchsorted(t + tol, side="right")
    # padded with the loosest bracket ends, which tighten nobody
    ext = np.concatenate((lo[:1], probes, hi[-1:]))
    return hit, first, np.maximum(lo, ext[first]), np.minimum(hi, ext[first + 1])


def tightened_ranks(first, L, U, lo_moved, hi_moved, lo_rank, hi_rank):
    """Global counts at the bracket ends :func:`accept_or_tighten` moved
    (``lo_moved`` / ``hi_moved``; ``first`` is its result for the same
    ``(L, U)``): a new ``lo`` is the probe below ``first`` and carries its
    ``U``, a new ``hi`` is ``probes[first]`` and carries its ``L`` — so
    ``hi_rank - lo_rank`` keys lie strictly inside the bracket."""
    return (
        np.where(lo_moved, U[first - 1], lo_rank),
        np.where(hi_moved, L.take(first, mode="clip"), hi_rank),
    )


class _GatherRule:
    """When the exact finish of ``"squeeze"`` pays.

    Gathering ``residue`` keys replaces a round's ALLREDUCE and searches by
    an ALLGATHER of ``residue / P`` keys per rank and a merge of the ``P``
    sorted runs that arrive; the coefficients of both sides are read off
    the cost model once per call.  Both collectives run composed by node
    where that finishes first, yet are weighed flat, like for like: against
    the composed round alone the gather waits out rounds that together cost
    more (uniform keys on 2 x 8 ranks: 11 rounds, 118 us; this way 4 and
    66), and weighing both composed read 4 of 18 sampled runs dearer and
    none cheaper (2 x 4 ranks of 8,192 uniform keys, seed 2: 36.5 -> 42.5 us).
    """

    def __init__(self, comm: "Comm", itemsize: int, n_mean: int):
        cost, ranks = comm.cost, tuple(comm.world_ranks)
        self.compute, self.p, self.n_mean = cost.compute, len(ranks), n_mean
        self.gather0 = cost.allgather(0.0, ranks)
        self.gather1 = (cost.allgather(1.0, ranks) - self.gather0) * itemsize / self.p
        self.reduce0 = cost.allreduce(0.0, ranks)
        self.reduce1 = cost.allreduce(16.0, ranks) - self.reduce0

    def pays(self, residue: int, k: int) -> bool:
        """No dearer than the flat round of ``k`` probes that is certain to follow."""
        return (
            self.gather0 + self.gather1 * residue + self.compute.kway_merge(residue, self.p)
            <= self.reduce0 + self.reduce1 * k + self.compute.search(2 * k, self.n_mean)
        )


def _residue(local_sorted, lo, hi) -> np.ndarray:
    """The local keys strictly inside the open brackets (a shared one once)."""
    own = np.ones(lo.size, dtype=bool)
    own[1:] = lo[1:] != lo[:-1]
    start = local_sorted.searchsorted(lo[own], side="right")
    count = local_sorted.searchsorted(hi[own], side="left") - start
    inside = np.repeat(start - (count.cumsum() - count), count) + np.arange(count.sum())
    return local_sorted[inside]


def _bracket_slots(lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(j, g)`` per open target: its 1-based slot among the ``g`` targets
    sharing its bracket.  Open brackets are disjoint or identical and
    monotone in the target, so ``lo`` alone identifies (and sorts) them."""
    left = lo.searchsorted(lo)
    return np.arange(1, lo.size + 1) - left, lo.searchsorted(lo, side="right") - left


def _squeeze_slots(t, lo, lo_rank, span, stalled) -> tuple[np.ndarray, np.ndarray]:
    """``(j, g)`` under "squeeze": each probe sits at rank fraction ``j / (g + 1)``.

    A target alone in a bracket whose span halved last round interpolates on
    the counts at the bracket's ends, aiming ``min(sqrt(span), side) / 2``
    ranks past the target into the bracket's wider ``side`` — so that side
    collapses to ~sqrt(span) keys, where plain regula falsi lets one end
    creep.  A ``stalled`` bracket, and one that targets still share, takes its
    "shared" slot instead: key-space bisection, which bounds the rounds
    whatever the distribution.
    """
    mixed = stalled.any() or (lo[1:] == lo[:-1]).any()
    if mixed:
        js, gs = _bracket_slots(lo)
        spread_it = stalled | (gs > 1)
        if spread_it.all():
            return js, gs
    left = t - lo_rank
    up = left + left < span
    push = (np.minimum(np.sqrt(span), np.where(up, span - left, left)) * 0.5).astype(np.int64)
    j, g = np.where(up, left + push, left - push), span - 1
    if mixed:
        j, g = np.where(spread_it, js, j), np.where(spread_it, gs, g)
    return j, g


def _regular_sample(local_sorted: np.ndarray, count: int) -> np.ndarray:
    """``count`` regularly spaced keys from a sorted partition."""
    n = local_sorted.size
    if n == 0 or count <= 0:
        return local_sorted[:0]
    idx = np.linspace(0, n - 1, num=min(count, n)).astype(np.int64)
    return local_sorted[idx]


class _Search:
    """The search's replicated state, one object for every rank.

    Every rank would derive the same brackets from the same global values,
    so the last arriver of each collective of the search advances this
    object once (``then=``) and all ranks read it: built from ``(U(gmin),
    L(gmax))``, seeded by the sampled probes, advanced by each histogram
    round, finished by the exact gather.  Each step ends by placing the next
    round's probes and deciding whether the gather pays (:meth:`_place`);
    the last one, by sizing the exchange's packing once for all.  What it
    publishes to the ranks is read-only.
    """

    def __init__(self, ends, targets, tol, total, gmin, gmax, arith, config, rule):
        u_gmin, l_gmax = (int(v) for v in ends)
        self.schedule = config.probe_schedule
        self.squeeze = self.schedule == "squeeze"
        self.tol, self.total, self.gmin, self.gmax = tol, total, gmin, gmax
        self.arith, self.rule = arith, rule
        self.values = np.empty(targets.size, dtype=arith.dtype)
        self.lower, self.upper, self.realized = (np.zeros(targets.size, np.int64) for _ in range(3))
        # Targets inside the global-minimum duplicate run can only be met by
        # the splitter value gmin itself, which the half-open probe interval
        # (lo, hi] would never test — resolve them up front (includes
        # empty-output ranks) ...
        at_min = targets - tol <= u_gmin
        self.values[at_min] = gmin
        self.realized[at_min] = np.minimum(targets[at_min], u_gmin)
        self.upper[at_min] = u_gmin
        # ... and those at N, to gmax, whose true lower bound the exchange
        # needs for its rank-order fill.  The pinned schedules probe ``hi =
        # gmax`` for the rest of its run; "squeeze" treats ``hi`` as a known
        # miss (and no probe reaches +inf), so there the whole run resolves now.
        whole_run = self.squeeze or not np.isfinite(gmax)
        at_max = ~at_min & (targets + tol >= (l_gmax if whole_run else total))
        self.values[at_max] = gmax
        self.realized[at_max] = np.clip(targets[at_max], l_gmax, total)
        self.lower[at_max], self.upper[at_max] = l_gmax, total
        self.active = ~(at_min | at_max)
        # Compact state of the open targets, in target order.
        self.t = targets[self.active]
        m = self.t.size
        self.lo, self.hi = np.full(m, gmin, dtype=arith.dtype), np.full(m, gmax, dtype=arith.dtype)
        if self.squeeze:
            # Counts at the bracket ends, U(lo) and L(hi): span keys lie strictly
            # inside.  A bracket whose span failed to halve is ``stalled``.
            self.lo_rank = np.full(m, u_gmin, dtype=np.int64)
            self.hi_rank = np.full(m, l_gmax, dtype=np.int64)
            self.span = self.hi_rank - self.lo_rank
            self.stalled = np.ones(m, dtype=bool)
        self.rounds = self.probes_total = self.gathered_keys = self.sampled = 0
        if config.initial_guess != "sample" or not m:
            self._place()

    def seed(self, samples):
        """Round 1 probes the targets' quantiles of everybody's regular sample."""
        flat = np.sort(np.concatenate(samples))
        self.sampled, probes = flat.size, None
        if flat.size:
            frac = self.t.astype(np.float64) / self.total
            idx = np.clip((frac * (flat.size - 1)).round().astype(np.int64), 0, flat.size - 1)
            probes = np.clip(flat[idx], self.gmin, self.gmax).astype(self.arith.dtype)
        self._place(probes)
        return self

    def advance(self, glob):
        """VALIDATE_SPLITTER of the open targets on one round's ``(L, U)``."""
        probes, t, lo, hi = self.probes, self.t, self.lo, self.hi
        k = probes.size
        L, U = glob[:k], glob[k:]
        hit, first, self.lo, self.hi = accept_or_tighten(probes, L, U, t, self.tol, lo, hi)
        if self.squeeze:
            self.lo_rank, self.hi_rank = tightened_ranks(
                first, L, U, self.lo > lo, self.hi < hi, self.lo_rank, self.hi_rank
            )
            was, self.span = self.span, self.hi_rank - self.lo_rank
            self.stalled = was < self.span + self.span
        if hit.any():
            done, j = self.active.nonzero()[0][hit], first[hit]
            self.values[done] = probes[j]
            self.lower[done], self.upper[done] = L[j], U[j]
            self.realized[done] = t[hit].clip(L[j], U[j])
            self.active[done] = False
            still = ~hit
            self.t, self.lo, self.hi = t[still], self.lo[still], self.hi[still]
            if self.squeeze:
                self.lo_rank, self.hi_rank = self.lo_rank[still], self.hi_rank[still]
                self.span, self.stalled = self.span[still], self.stalled[still]
        self.rounds += 1
        self.probes_total += k
        self._place()
        return self

    def finish(self, residues):
        """DSELECT's endgame: each open target's key, read off everybody's
        sorted residue.  The key of global rank ``t`` is in it: ``lo_rank <
        t < hi_rank`` on every open bracket."""
        keys = np.sort(np.concatenate(residues))
        base = keys.searchsorted(self.lo, side="right")
        values = keys[base + (self.t - self.lo_rank)]
        base = self.lo_rank - base
        done = self.active.nonzero()[0]
        self.values[done] = values
        self.lower[done] = keys.searchsorted(values) + base
        self.upper[done] = keys.searchsorted(values, side="right") + base
        self.realized[done] = self.t
        self.gathered_keys, self.rounds, self.t = int(keys.size), self.rounds + 1, self.t[:0]
        self._place()
        return self

    def _place(self, probes=None):
        """The next round's sorted probe vector, at most one probe per open
        target, and whether the exact finish pays instead; with no target
        left open, the result is final."""
        if not self.t.size:
            self.packing = self.arith.packing(self.gmin, self.values, self.gmax) or (None,) * 3
            for a in (self.values, self.lower, self.upper, self.realized, *self.packing):
                if a is not None:
                    a.setflags(write=False)
            return
        if probes is None:
            # "shared": the targets sharing a bracket spread their probes over
            # it; Algorithm 3: every target bisects its own (slot 1 of 1);
            # "squeeze" never re-probes ``hi``, a known miss
            if self.squeeze:
                j, g = _squeeze_slots(self.t, self.lo, self.lo_rank, self.span, self.stalled)
            elif self.schedule == "shared":
                j, g = _bracket_slots(self.lo)
            else:
                j, g = np.ones((2, self.t.size), np.int64)
            hi = self.arith.below(self.hi) if self.squeeze else self.hi
            probes = self.arith.spread(self.lo, hi, j, g)
        if self.schedule != "midpoint" and (probes[1:] <= probes[:-1]).any():
            probes = np.unique(probes)  # a bracket narrower than its budget
        self.probes = probes
        self.gather = (
            self.squeeze and self.rounds > 0 and self.rule.pays(int(self.span.sum()), probes.size)
        )
        for a in (self.t, self.lo, self.hi, probes):
            a.setflags(write=False)


def find_splitters(
    comm: "Comm",
    local_sorted: np.ndarray,
    capacities: Sequence[int] | None = None,
    eps: float = 0.0,
    config: SplitterConfig | None = None,
) -> SplitterResult:
    """Determine the ``P-1`` output-boundary splitters (Algorithm 3).

    Parameters
    ----------
    comm:
        The communicator; every rank must call collectively.
    local_sorted:
        This rank's locally sorted keys (1-D, any numeric dtype).  Empty
        partitions are fine (sparse inputs, §V-A).
    capacities:
        Target output sizes per rank.  Defaults to the current input sizes
        (perfect partitioning of the existing layout).  Must sum to the
        global element count.
    eps:
        Load-balance threshold of Definition 1; the per-boundary tolerance
        is ``floor(eps * N / (2 P))`` elements.
    """
    if config is None:
        config = SplitterConfig()
    local_sorted = np.asarray(local_sorted)
    if local_sorted.ndim != 1:
        raise ValueError("local partition must be 1-D")
    p, n_local, dtype = comm.size, int(local_sorted.size), local_sorted.dtype
    compute = comm.cost.compute
    arith = _ProbeArithmetic(dtype)
    want = None if capacities is None else np.asarray(list(capacities), dtype=np.int64)
    if want is not None and (want.size != p or np.any(want < 0)):
        raise ValueError("capacities must be P non-negative sizes")
    squeeze = config.probe_schedule == "squeeze"  # the pinned schedules keep the paper's flat collectives

    def layout(sizes):
        """``(caps, targets, total, tol)`` of the input ``sizes``; None if
        ``capacities`` does not sum to their total."""
        c, total = (sizes.copy() if want is None else want), int(sizes.sum())
        if c.sum() != total:
            return None
        targets = np.cumsum(c)[:-1].astype(np.int64) if p > 1 else np.zeros(0, np.int64)
        return c, targets, total, int(np.floor(eps * total / (2 * p))) if total else 0

    def start(lay, gmin, gmax, ends, finite=None):
        """The search every rank shares, built once by a collective's last
        arriver from the ``layout`` and ``ends = (U(gmin), L(gmax))``; None if
        there is nothing to search or ``capacities`` does not fit (every rank
        raises below)."""
        if lay is None or not lay[2] or p == 1:
            return None
        _, targets, total, tol = lay
        arith.finite = finite
        rule = _GatherRule(comm, dtype.itemsize, max(total // p, 1)) if squeeze else None
        if squeeze and arith.is_int:
            # a bucket's keys travel in w bytes where the bytes that saves per
            # key on an unshared NIC outprice packing and unpacking it
            byte, key = comm.cost.network_byte_price(comm.world_ranks), compute.c_partition
            pays = [w for w in (0, 1, 2, 4) if (dtype.itemsize - w) * byte > 2 * key]
            arith.packable = max(pays, default=-1)
        return _Search(ends, targets, tol, total, gmin, gmax, arith, config, rule)

    finite_ends = lambda gmin, gmax: arith.is_int or bool(np.isfinite(gmin) and np.isfinite(gmax))
    if squeeze:
        # One setup collective: every rank's size, (min, max) and the keys at
        # each, from which the last arriver derives the global (min, max)
        # (Algorithm 3 line 3), U(gmin) and L(gmax) — and starts the search.
        lo, hi = arith.extremes(local_sorted)
        row = (n_local, lo, int(local_sorted.searchsorted(lo, side="right")),
               hi, n_local - int(local_sorted.searchsorted(hi)))

        def setup(rows):
            n, mins, at_min, maxs, at_max = zip(*rows)
            sizes = np.array(n, dtype=np.int64)
            gmin, gmax = functools.reduce(_MINMAX, zip(mins, maxs))
            ends = (sum(c for v, c in zip(mins, at_min) if v == gmin),
                    int(sizes.sum()) - sum(c for v, c in zip(maxs, at_max) if v == gmax))
            lay = layout(sizes)
            search = start(lay, gmin, gmax, ends) if finite_ends(gmin, gmax) else None
            return sizes, lay, gmin, gmax, ends, search

        sizes, lay, gmin, gmax, ends, search = comm.allgather(row, by_node=True, then=setup)
    else:
        sizes = np.asarray(comm.allgather(n_local), dtype=np.int64)
        lay = layout(sizes)
    if lay is None:
        raise ValueError(f"capacities sum to {want.sum()} but the input holds {sizes.sum()} keys")
    caps, targets, total, tol = lay
    boundaries = p - 1
    if total == 0 or boundaries == 0:
        return SplitterResult.trivial(dtype, targets, caps, total, tol)

    if not squeeze:
        # Global (min, max) — one reduction (Algorithm 3 line 3).  Empty
        # ranks contribute identity sentinels.
        gmin, gmax = comm.allreduce(arith.extremes(local_sorted), op=_MINMAX)
    finite = None
    if not finite_ends(gmin, gmax):
        # one more reduction, on inputs holding -inf / +inf keys only: the
        # finite keys' (min, max), which "squeeze" starts its search from
        keys = arith.extremes(local_sorted[np.isfinite(local_sorted)])
        if squeeze:
            search = comm.allreduce(keys, op=_MINMAX, by_node=True,
                                    then=lambda f: start(lay, gmin, gmax, ends, f))
        else:
            finite = comm.allreduce(keys, op=_MINMAX)
    if not squeeze:
        # Global bounds of the extreme keys, U(gmin) and L(gmax): the search
        # starts from them.
        ends = np.array([np.searchsorted(local_sorted, gmin, side="right"),
                         np.searchsorted(local_sorted, gmax, side="left")], dtype=np.int64)
        search = comm.allreduce(ends, then=lambda ends: start(lay, gmin, gmax, ends, finite))
    comm.compute(compute.call_overhead)

    # Optional sampled initial probes (§III-B "optimizing initial guesses").
    if config.initial_guess == "sample" and search.t.size:
        sample = _regular_sample(local_sorted, config.sample_factor)
        search = comm.allgather(sample, then=search.seed)
        comm.compute(compute.sort(search.sampled))

    tracer = comm.tracer
    while search.t.size:
        t_round, m, k = comm.clock, search.t.size, search.probes.size
        if search.rounds >= config.max_rounds:
            raise SplitterConvergenceError(
                f"splitters did not converge within {config.max_rounds} rounds "
                f"({m} of {boundaries} boundaries still open)"
            )
        if search.gather:
            break
        # Local histogram by binary search (Algorithm 3 line 7) ...
        l_loc, u_loc = local_histogram(local_sorted, search.probes)
        comm.compute(compute.search(2 * k, max(n_local, 1)))
        # ... and the global histogram via a single ALLREDUCE (line 8), whose
        # last arriver validates every open splitter against it.
        search = comm.allreduce(
            np.concatenate([l_loc, u_loc]), by_node=squeeze, then=search.advance
        )
        comm.compute(compute.call_overhead + 2.0e-9 * m)
        tracer.record(
            "histogram_round", t_round, round=search.rounds,
            probes=int(k), targets=int(m), open=int(search.t.size),
        )
    if search.t.size:  # the exact finish: the keys left inside the brackets
        search = comm.allgather(_residue(local_sorted, search.lo, search.hi), by_node=squeeze,
                                then=search.finish)
        comm.compute(compute.kway_merge(search.gathered_keys, p))  # P sorted runs
        comm.compute(compute.call_overhead + 2.0e-9 * m)
        tracer.record(
            "histogram_gather", t_round, round=search.rounds,
            keys=search.gathered_keys, targets=int(m),
        )

    return SplitterResult(
        values=search.values,
        realized_ranks=search.realized,
        lower=search.lower,
        upper=search.upper,
        targets=targets,
        capacities=caps,
        total=total,
        tolerance=tol,
        rounds=search.rounds,
        probes_total=search.probes_total,
        gathered_keys=search.gathered_keys,
        by_node=squeeze,
        widths=search.packing[0],
        lows=search.packing[1],
        masks=search.packing[2],
    )
