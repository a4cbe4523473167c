"""Splitter determination by iterative histogramming (Algorithms 2 + 3).

This is the paper's primary contribution: a *k-way multiselect* that finds
all ``P-1`` splitters at once by narrowing a bracket ``(lo_i, hi_i]`` per
splitter, with one ``ALLREDUCE`` of the global histogram per round, **no
sampling**, and no assumptions on key distribution, rank count, or
partition density.

Algorithm sketch (per round, every rank):

1. place at most one probe per still-open splitter into one sorted probe
   vector — the splitters sharing a bracket spread theirs equally over it
   (``probe_schedule="shared"``), or each bisects its own bracket
   (``"midpoint"``, the paper's literal Algorithm 3, which repeats a
   shared bracket's midpoint once per splitter);
2. local histogram of the probe vector by binary search on the locally
   sorted partition (two ``np.searchsorted`` calls);
3. ``ALLREDUCE`` the local ``(l, u)`` vectors into the global ``(L, U)``;
4. VALIDATE_SPLITTER, every open splitter against every probe: accept the
   lowest probe whose ``[L, U]`` can meet the target rank ``t_i`` within
   tolerance, otherwise move ``lo_i`` / ``hi_i`` to the two neighbouring
   probes that bracket it.

Ties (duplicate keys) need no key uniquification here: acceptance uses the
achievable-interval test and the exchange (Algorithm 4) later splits the
duplicate run by rank order.  The classic ``(key, rank, index)`` transform
is still available in :mod:`repro.core.keys`.
"""

from __future__ import annotations

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
    "find_splitters",
]

#: elementwise (min, max) fold over (lo, hi) tuples
_MINMAX = ReduceOp("minmax", lambda a, b: (min(a[0], b[0]), max(a[1], b[1])))


class SplitterConvergenceError(RuntimeError):
    """Raised when histogramming exceeds its round budget."""


@dataclass(frozen=True)
class SplitterResult:
    """Outcome of the splitter determination.

    ``values[i]`` is the key value of boundary ``i`` (between output ranks
    ``i`` and ``i+1``); ``realized_ranks[i]`` the exact number of keys the
    exchange will place left of that boundary (within tolerance of
    ``targets[i]``); ``lower``/``upper`` the boundary's global histogram
    ``(L, U)``.
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


class _ProbeArithmetic:
    """Dtype-aware probe placement inside half-open brackets ``(lo, hi]``."""

    def __init__(self, dtype: np.dtype):
        self.dtype = np.dtype(dtype)
        if self.dtype.kind not in "iuf":
            raise TypeError(
                f"histogram splitting requires numeric keys, got dtype {self.dtype}"
            )
        self.is_int = self.dtype.kind in "iu"

    def spread(self, lo, hi, j, g) -> np.ndarray:
        """Probe ``j`` of ``g`` equally spaced ones inside each ``(lo, hi]``.

        All arguments are aligned arrays with ``1 <= j <= g``; the probe sits
        at ``lo + ceil(j * (hi - lo) / (g + 1))``, so ``g == 1`` is the
        bisection midpoint of Algorithm 3 (``== hi`` at collapse).  A bracket
        narrower than its ``g`` repeats values; callers deduplicate.
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
        frac = j / (g + 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            raw = lo64 + (hi64 - lo64) * frac
        # hi - lo overflows for keys near +-max: the convex form cannot
        raw = np.where(np.isfinite(raw), raw, lo64 * (1.0 - frac) + hi64 * frac)
        raw = raw.astype(self.dtype)
        raw = np.where(raw <= lo, np.nextafter(lo, hi), raw)
        return np.where(raw > hi, hi, raw)


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


def _bracket_slots(lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(j, g)`` per open target: its 1-based slot among the ``g`` targets
    sharing its bracket.  Open brackets are disjoint or identical and
    monotone in the target, so ``lo`` alone identifies (and sorts) them."""
    left = lo.searchsorted(lo)
    return np.arange(1, lo.size + 1) - left, lo.searchsorted(lo, side="right") - left


def _regular_sample(local_sorted: np.ndarray, count: int) -> np.ndarray:
    """``count`` regularly spaced keys from a sorted partition."""
    n = local_sorted.size
    if n == 0 or count <= 0:
        return local_sorted[:0]
    idx = np.linspace(0, n - 1, num=min(count, n)).astype(np.int64)
    return local_sorted[idx]


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
    p = comm.size
    n_local = int(local_sorted.size)
    compute = comm.cost.compute

    sizes = np.asarray(comm.allgather(n_local), dtype=np.int64)
    if capacities is None:
        caps = sizes.copy()
    else:
        caps = np.asarray(list(capacities), dtype=np.int64)
        if caps.size != p or np.any(caps < 0):
            raise ValueError("capacities must be P non-negative sizes")
        if caps.sum() != sizes.sum():
            raise ValueError(
                f"capacities sum to {caps.sum()} but the input holds {sizes.sum()} keys"
            )
    total = int(sizes.sum())
    boundaries = p - 1
    targets = np.cumsum(caps)[:-1].astype(np.int64) if p > 1 else np.zeros(0, np.int64)
    tol = int(np.floor(eps * total / (2 * p))) if total else 0

    dtype = local_sorted.dtype
    arith = _ProbeArithmetic(dtype)

    if total == 0 or boundaries == 0:
        return SplitterResult.trivial(dtype, targets, caps, total, tol)

    # Global (min, max) — one reduction (Algorithm 3 line 3).  Empty ranks
    # contribute identity sentinels.
    if n_local:
        local_min, local_max = local_sorted[0], local_sorted[-1]
    else:
        info = np.iinfo(dtype) if arith.is_int else np.finfo(dtype)
        local_min, local_max = dtype.type(info.max), dtype.type(info.min)
    gmin, gmax = comm.allreduce((local_min, local_max), op=_MINMAX)
    # Global bounds of the extreme keys.  Targets inside the global-minimum
    # duplicate run can only be met by the splitter value gmin itself, which
    # the half-open probe interval (lo, hi] would never test — resolve them
    # up front; targets at N resolve to gmax, whose true lower bound the
    # exchange needs for its rank-order fill.
    u_gmin, l_gmax = (
        int(v)
        for v in comm.allreduce(
            np.array(
                [
                    np.searchsorted(local_sorted, gmin, side="right"),
                    np.searchsorted(local_sorted, gmax, side="left"),
                ],
                dtype=np.int64,
            )
        )
    )
    comm.compute(compute.call_overhead)

    lo = np.full(boundaries, gmin, dtype=dtype)
    hi = np.full(boundaries, gmax, dtype=dtype)
    values = np.empty(boundaries, dtype=dtype)
    lower = np.zeros(boundaries, dtype=np.int64)
    upper = np.zeros(boundaries, dtype=np.int64)
    realized = np.zeros(boundaries, dtype=np.int64)

    # Covered by the minimum key's run (includes empty-output ranks) ...
    at_min = targets - tol <= u_gmin
    values[at_min] = gmin
    realized[at_min] = np.minimum(targets[at_min], u_gmin)
    upper[at_min] = u_gmin
    # ... or by the maximum key's.
    at_max = ~at_min & (targets + tol >= total)
    values[at_max] = gmax
    realized[at_max] = np.clip(targets[at_max], l_gmax, total)
    lower[at_max], upper[at_max] = l_gmax, total
    active = ~(at_min | at_max)

    # Optional sampled initial probes (§III-B "optimizing initial guesses").
    first_probes: np.ndarray | None = None
    if config.initial_guess == "sample" and active.any():
        sample = _regular_sample(local_sorted, config.sample_factor)
        gathered = comm.allgather(sample)
        flat = np.sort(np.concatenate(gathered)) if gathered else local_sorted[:0]
        comm.compute(compute.sort(flat.size))
        if flat.size:
            frac = targets[active].astype(np.float64) / total
            idx = np.clip((frac * (flat.size - 1)).round().astype(np.int64), 0, flat.size - 1)
            first_probes = flat[idx]

    shared = config.probe_schedule == "shared"
    # Compact state of the open targets, in target order.
    t, lo, hi = targets[active], lo[active], hi[active]
    rounds = 0
    probes_total = 0
    tracer = comm.tracer
    while active.any():
        t_round = comm.clock
        rounds += 1
        if rounds > config.max_rounds:
            raise SplitterConvergenceError(
                f"splitters did not converge within {config.max_rounds} rounds "
                f"({t.size} of {boundaries} boundaries still open)"
            )
        m = t.size
        # One sorted probe vector of at most one probe per open target.
        if rounds == 1 and first_probes is not None:
            probes = np.clip(first_probes, gmin, gmax).astype(dtype)
        else:
            # "shared": the targets sharing a bracket spread their probes over
            # it; Algorithm 3: every target bisects its own (slot 1 of 1)
            j, g = _bracket_slots(lo) if shared else np.ones((2, m), np.int64)
            probes = arith.spread(lo, hi, j, g)
        if shared and (probes[1:] == probes[:-1]).any():
            probes = np.unique(probes)  # a bracket narrower than its budget
        k = probes.size
        probes_total += k

        # Local histogram by binary search (Algorithm 3 line 7) ...
        l_loc, u_loc = local_histogram(local_sorted, probes)
        comm.compute(compute.search(2 * k, max(n_local, 1)))
        # ... and the global histogram via a single ALLREDUCE (line 8).
        glob = comm.allreduce(np.concatenate([l_loc, u_loc]))
        L, U = glob[:k], glob[k:]

        hit, first, lo, hi = accept_or_tighten(probes, L, U, t, tol, lo, hi)
        if hit.any():
            done, j = active.nonzero()[0][hit], first[hit]
            values[done] = probes[j]
            lower[done], upper[done] = L[j], U[j]
            realized[done] = t[hit].clip(L[j], U[j])
            active[done] = False
            still = ~hit
            t, lo, hi = t[still], lo[still], hi[still]

        comm.compute(compute.call_overhead + 2.0e-9 * m)
        tracer.record(
            "histogram_round",
            t_round,
            round=rounds,
            probes=int(k),
            targets=int(m),
            open=int(t.size),
        )

    return SplitterResult(
        values=values,
        realized_ranks=realized,
        lower=lower,
        upper=upper,
        targets=targets,
        capacities=caps,
        total=total,
        tolerance=tol,
        rounds=rounds,
        probes_total=probes_total,
    )
