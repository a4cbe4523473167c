"""Local sorting and k-way merging of sorted runs (§V-C of the paper).

The paper weighs three ways of combining the ``P`` sorted chunks a rank
receives from the exchange:

* re-sorting the concatenation (what the evaluated implementation does),
* a **binary merge tree** — pairwise two-way merges, ``ceil(log2 P)`` passes,
* a **tournament (loser) tree** — one pass, ``O(log P)`` per element.

The strategy selects what the *virtual* machine is charged
(:func:`repro.core.merge.merge_cost`, the §VI-E.2 study); on the host every
strategy does its real work with one primitive, :func:`_natural_merge` —
concatenate, then sort in place.  Every kernel here returns the bytes of
``np.sort(..., kind="stable")`` of the concatenation: equal keys of a
lower-indexed run first, which is :class:`LoserTree`'s tie rule.

Which sort gets there is :func:`_sort_kind`'s call.  Where equal keys are
equal bytes (integers, bools, floats holding no ±0 and no NaN) the order of
ties cannot show, so NumPy's SIMD quicksort is used — ~10× timsort on
random keys.  Elsewhere, and for two-run merges, timsort stays: on two
presorted runs its galloping merge is linear and beats the SIMD sort.
DESIGN.md ("Vectorisation") has the sizing tables; :class:`LoserTree`
stays as the element-wise reference the tests compare against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "sort_keys",
    "merge_two_sorted",
    "binary_merge_tree",
    "LoserTree",
    "loser_tree_merge",
    "kway_merge",
    "merge_in_place",
]


def _sort_kind(a: np.ndarray) -> str | None:
    """``None`` (NumPy's SIMD default) where an unstable sort of ``a``
    yields the stable sort's bytes, else ``"stable"``.

    Only ±0 and NaNs are equal keys with distinct bytes among the IEEE
    floats; longdouble's padding bytes and NaT keep other kinds stable.
    """
    if a.dtype.kind in "biu":
        return None
    if a.dtype.kind == "f" and a.dtype.itemsize <= 8:
        if a.all() and not np.isnan(a).any():
            return None
    return "stable"


def sort_keys(a: np.ndarray) -> np.ndarray:
    """A sorted copy of ``a``, byte-identical to ``np.sort(a, kind="stable")``."""
    a = np.asarray(a)
    return np.sort(a, kind=_sort_kind(a))


def merge_in_place(buf: np.ndarray, k: int) -> np.ndarray:
    """Sort ``buf``, ``k`` non-empty sorted runs back to back, in place into
    their stable merge's bytes.  Two runs stay on timsort (a linear merge)."""
    buf.sort(kind="stable" if k < 3 else _sort_kind(buf))
    return buf


def _natural_merge(runs: Sequence[np.ndarray]) -> np.ndarray:
    """Stable merge of sorted ``runs``: concatenate, then sort in place.

    Always a fresh array; empty runs do not vote on its dtype unless all
    are empty.
    """
    runs = [np.asarray(r) for r in runs]
    nonempty = [r for r in runs if r.size]
    if not nonempty:
        return np.empty(0, dtype=np.result_type(*runs) if runs else np.float64)
    return merge_in_place(np.concatenate(nonempty), len(nonempty))


def merge_two_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable two-way merge of sorted arrays.

    Elements of ``b`` are placed after equal elements of ``a`` (stability).
    """
    return _natural_merge((a, b))


def binary_merge_tree(runs: Sequence[np.ndarray]) -> np.ndarray:
    """K-way merge with the bytes of ceil(log2 k) pairwise stable passes."""
    return _natural_merge(runs)


class LoserTree:
    """A tournament (loser) tree over ``k`` sorted runs.

    Classic Knuth-style replacement-selection structure: internal nodes hold
    the *loser* of the match below them, the overall winner sits at the
    root.  ``pop()`` returns the globally smallest head and replays the
    winner's path in ``O(log k)`` comparisons.

    This is the element-wise reference the merge kernels are tested
    against, not a merge path.  It requires totally ordered keys: every
    comparison with a NaN head is false, so NaN-bearing runs drain out of
    order (the kernels sort NaNs last, as ``np.sort`` does).
    """

    def __init__(self, runs: Sequence[np.ndarray]):
        real = [np.asarray(r) for r in runs]
        if not real:
            raise ValueError("LoserTree needs at least one run")
        # Pad the run count to a power of two with empty (always-losing)
        # runs so the tree is perfect: leaf j sits at node k + j, the
        # parent of node i is i // 2, internal nodes 1..k-1 store losers.
        k = 1
        while k < len(real):
            k *= 2
        empty = np.empty(0, dtype=real[0].dtype)
        self._runs = real + [empty] * (k - len(real))
        self._pos = [0] * k
        self._k = k
        self._remaining = sum(r.size for r in real)
        # cached current head per run (None = exhausted, loses every
        # match); avoids a numpy scalar extraction on every comparison of
        # every path replay
        self._heads = [r[0] if r.size else None for r in self._runs]
        self._tree = [-1] * k  # internal nodes: run index of the loser
        winner_at = [-1] * (2 * k)
        for j in range(k):
            winner_at[k + j] = j
        for node in range(k - 1, 0, -1):
            a, b = winner_at[2 * node], winner_at[2 * node + 1]
            if self._beats(a, b):
                winner_at[node], self._tree[node] = a, b
            else:
                winner_at[node], self._tree[node] = b, a
        self._winner = winner_at[1]

    def _advance(self, run: int) -> None:
        pos = self._pos[run] + 1
        self._pos[run] = pos
        arr = self._runs[run]
        self._heads[run] = arr[pos] if pos < arr.size else None
        self._remaining -= 1

    def _beats(self, a: int, b: int) -> bool:
        """Does run ``a``'s head win (strictly smaller, ties to lower run)?"""
        ha, hb = self._heads[a], self._heads[b]
        if hb is None:
            return True
        if ha is None:
            return False
        return bool(ha < hb) or (bool(ha == hb) and a < b)

    def __len__(self) -> int:
        return self._remaining

    def pop(self):
        """Remove and return the globally smallest remaining element."""
        if self._remaining == 0:
            raise IndexError("pop from exhausted LoserTree")
        run = self._winner
        value = self._runs[run][self._pos[run]]
        self._advance(run)
        # Replay the winner's path: at each node the path element meets the
        # stored loser; the loser of the match stays, the winner moves up.
        node = (self._k + run) // 2
        cur = run
        while node >= 1:
            stored = self._tree[node]
            if self._beats(stored, cur):
                self._tree[node], cur = cur, stored
            node //= 2
        self._winner = cur
        return value


def loser_tree_merge(runs: Sequence[np.ndarray]) -> np.ndarray:
    """K-way merge in :class:`LoserTree` order (ties to the lower run)."""
    return _natural_merge(runs)


def kway_merge(runs: Sequence[np.ndarray], strategy: str = "binary_tree") -> np.ndarray:
    """Merge sorted runs; every strategy returns the same bytes.

    ``strategy`` is one of ``binary_tree``, ``tournament``, or ``sort``
    (concatenate + re-sort, the paper's evaluated configuration).
    """
    if strategy not in ("binary_tree", "tournament", "sort"):
        raise ValueError(f"unknown merge strategy {strategy!r}")
    return _natural_merge(runs)
