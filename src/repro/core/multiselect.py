"""Splitter determination by iterative histogramming (Algorithms 2 + 3).

This is the paper's primary contribution: a *k-way multiselect* that finds
all ``P-1`` splitters at once by bisecting the key space, with one
``ALLREDUCE`` of the global histogram per round, **no sampling**, and no
assumptions on key distribution, rank count, or partition density.

Algorithm sketch (per round, every rank):

1. probe each still-active splitter at the midpoint of its bracket
   ``(lo_i, hi_i]``;
2. local histogram of the probe vector by binary search on the locally
   sorted partition (two ``np.searchsorted`` calls);
3. ``ALLREDUCE`` the local ``(l, u)`` vectors into the global ``(L, U)``;
4. VALIDATE_SPLITTER: accept splitter ``i`` when a left-count in
   ``[L_i, U_i]`` can meet the target rank ``t_i`` within tolerance,
   otherwise move ``lo_i`` or ``hi_i`` to the probe.

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

__all__ = ["SplitterResult", "SplitterConvergenceError", "find_splitters"]

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
    """Dtype-aware midpoint/step logic of the bisection."""

    def __init__(self, dtype: np.dtype):
        self.dtype = np.dtype(dtype)
        if self.dtype.kind not in "iuf":
            raise TypeError(
                f"histogram splitting requires numeric keys, got dtype {self.dtype}"
            )
        self.is_int = self.dtype.kind in "iu"

    def midpoint(self, lo, hi):
        """A probe in the half-open interval ``(lo, hi]`` (== hi at collapse)."""
        if self.is_int:
            lo_i, hi_i = int(lo), int(hi)
            if hi_i <= lo_i:
                return self.dtype.type(hi_i)
            d = hi_i - lo_i
            return self.dtype.type(lo_i + d // 2 + (d & 1))
        if not (lo < hi):
            return self.dtype.type(hi)
        raw = self.dtype.type(float(lo) + (float(hi) - float(lo)) / 2.0)
        step = np.nextafter(self.dtype.type(lo), self.dtype.type(hi))
        if raw <= lo:
            raw = step
        if raw > hi:
            raw = self.dtype.type(hi)
        return raw


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

    lo = [dtype.type(gmin)] * boundaries
    hi = [dtype.type(gmax)] * boundaries
    values = np.empty(boundaries, dtype=dtype)
    lower = np.zeros(boundaries, dtype=np.int64)
    upper = np.zeros(boundaries, dtype=np.int64)
    realized = np.zeros(boundaries, dtype=np.int64)
    active = np.ones(boundaries, dtype=bool)

    for i in range(boundaries):
        if targets[i] - tol <= u_gmin:
            # Covered by the minimum key's run (includes empty-output ranks).
            values[i], realized[i] = dtype.type(gmin), int(min(targets[i], u_gmin))
            lower[i], upper[i] = 0, u_gmin
            active[i] = False
        elif targets[i] + tol >= total:
            values[i] = dtype.type(gmax)
            realized[i] = int(np.clip(targets[i], l_gmax, total))
            lower[i], upper[i] = l_gmax, total
            active[i] = False

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

    rounds = 0
    probes_total = 0
    tracer = comm.tracer
    while active.any():
        t_round = comm.clock
        rounds += 1
        if rounds > config.max_rounds:
            raise SplitterConvergenceError(
                f"splitters did not converge within {config.max_rounds} rounds "
                f"({int(active.sum())} of {boundaries} boundaries still open)"
            )
        act_idx = np.flatnonzero(active)
        m = act_idx.size
        if rounds == 1 and first_probes is not None:
            probes = np.clip(first_probes, gmin, gmax).astype(dtype)
        else:
            probes = np.array(
                [arith.midpoint(lo[i], hi[i]) for i in act_idx], dtype=dtype
            )
        probes_total += m

        # Local histogram by binary search (Algorithm 3 line 7) ...
        l_loc, u_loc = local_histogram(local_sorted, probes)
        comm.compute(compute.search(2 * m, max(n_local, 1)))
        # ... and the global histogram via a single ALLREDUCE (line 8).
        glob = comm.allreduce(np.concatenate([l_loc, u_loc]))
        L, U = glob[:m], glob[m:]

        t = targets[act_idx]
        # VALIDATE_SPLITTER (Algorithm 2) with the achievable-interval test:
        # some left-count in [L, U] lies within tol of the target.
        ok = (L <= t + tol) & (U >= t - tol)
        too_high = ~ok & (L > t + tol)   # splitter value too large
        too_low = ~ok & ~too_high        # upper bound below target: too small

        for j in np.flatnonzero(ok):
            i = int(act_idx[j])
            values[i] = probes[j]
            lower[i], upper[i] = int(L[j]), int(U[j])
            realized[i] = int(np.clip(t[j], L[j], U[j]))
            active[i] = False
        for j in np.flatnonzero(too_high):
            hi[int(act_idx[j])] = probes[j]
        for j in np.flatnonzero(too_low):
            lo[int(act_idx[j])] = probes[j]

        if config.cross_probe and active.any():
            _cross_probe_tighten(lo, hi, probes, L, U, targets, tol, active)
        comm.compute(compute.call_overhead + 2.0e-9 * m)
        tracer.record(
            "histogram_round",
            t_round,
            round=rounds,
            probes=int(m),
            open=int(active.sum()),
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


def _cross_probe_tighten(
    lo: list,
    hi: list,
    probes: np.ndarray,
    L: np.ndarray,
    U: np.ndarray,
    targets: np.ndarray,
    tol: int,
    active: np.ndarray,
) -> None:
    """Tighten every open bracket with *all* probe outcomes of this round.

    Histogram bounds are monotone in the probe value, so after sorting the
    probes, the largest probe with ``U < t - tol`` is a valid new ``lo`` and
    the smallest probe with ``L > t + tol`` a valid new ``hi`` for target
    ``t`` — regardless of which splitter the probe belonged to.
    """
    order = np.argsort(probes, kind="stable")
    pv = probes[order]
    Ls = L[order]
    Us = U[order]
    for i in np.flatnonzero(active):
        t = targets[i]
        k = int(np.searchsorted(Us, t - tol, side="left")) - 1
        if k >= 0 and pv[k] > lo[i]:
            lo[i] = pv[k]
        j = int(np.searchsorted(Ls, t + tol, side="right"))
        if j < pv.size and pv[j] < hi[i]:
            hi[i] = pv[j]
