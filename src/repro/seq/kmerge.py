"""K-way merging of sorted runs (§V-C of the paper).

The paper weighs three ways of combining the ``P`` sorted chunks a rank
receives from the exchange:

* re-sorting the concatenation (what the evaluated implementation does),
* a **binary merge tree** — pairwise two-way merges, ``ceil(log2 P)`` passes,
* a **tournament (loser) tree** — one pass, ``O(log P)`` per element.

All three are provided here; :func:`repro.core.merge.local_merge` picks one
by configuration, and ``benchmarks/bench_merge_strategies.py`` reproduces
the §VI-E.2 study of their trade-offs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "merge_two_sorted",
    "binary_merge_tree",
    "LoserTree",
    "loser_tree_merge",
    "kway_merge",
]


def merge_two_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable two-way merge of sorted arrays, fully vectorised.

    Elements of ``b`` are placed after equal elements of ``a`` (stability).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0:
        return b.copy()
    if b.size == 0:
        return a.copy()
    # Final index of each b-element: its insertion point in a, shifted by
    # the number of b-elements before it.
    pos_b = np.searchsorted(a, b, side="right") + np.arange(b.size)
    out = np.empty(a.size + b.size, dtype=np.result_type(a, b))
    mask = np.zeros(out.size, dtype=bool)
    mask[pos_b] = True
    out[pos_b] = b
    out[~mask] = a
    return out


def _merged_empty(runs: Sequence[np.ndarray]) -> np.ndarray:
    """The merge of all-empty ``runs``: empty, in their dtype."""
    return np.empty(0, dtype=np.result_type(*runs) if runs else np.float64)


def binary_merge_tree(runs: Sequence[np.ndarray]) -> np.ndarray:
    """Merge ``k`` sorted runs with ceil(log2 k) pairwise passes.

    Each element is touched once per pass; pairs can merge as soon as both
    inputs are available, which is what makes this strategy overlap well
    with an incoming all-to-all (§VI-E.1).
    """
    runs = [np.asarray(r) for r in runs]
    nonempty = [r for r in runs if r.size]
    if not nonempty:
        return _merged_empty(runs)
    runs = nonempty
    while len(runs) > 1:
        nxt = [
            merge_two_sorted(runs[i], runs[i + 1])
            for i in range(0, len(runs) - 1, 2)
        ]
        if len(runs) % 2:
            nxt.append(runs[-1])
        runs = nxt
    return runs[0]


class LoserTree:
    """A tournament (loser) tree over ``k`` sorted runs.

    Classic Knuth-style replacement-selection structure: internal nodes hold
    the *loser* of the match below them, the overall winner sits at the
    root.  ``pop()`` returns the globally smallest head and replays the
    winner's path in ``O(log k)`` comparisons.
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
        # cached current head per run (None = exhausted); avoids a numpy
        # scalar extraction on every comparison of every path replay
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

    def _head(self, run: int):
        return self._heads[run]  # None = exhausted → loses every match

    def _advance(self, run: int, by: int) -> None:
        pos = self._pos[run] + by
        self._pos[run] = pos
        arr = self._runs[run]
        self._heads[run] = arr[pos] if pos < arr.size else None
        self._remaining -= by

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
        self._advance(run, 1)
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

    def pop_run(self) -> np.ndarray:
        """Remove and return the longest chunk the winner emits unbeaten.

        The tournament invariant makes the overall second-best one of the
        losers stored on the winner's root-to-leaf path, so the winner
        run keeps winning until its next element stops beating that
        challenger's head — a boundary one ``searchsorted`` finds.  The
        whole prefix is emitted as a slice and the path is replayed
        *once*, amortizing the ``O(log k)`` comparisons over the chunk;
        the element order is identical to repeated :meth:`pop` calls
        (ties included: an equal head still wins exactly when the winner
        has the lower run index).
        """
        if self._remaining == 0:
            raise IndexError("pop from exhausted LoserTree")
        run = self._winner
        arr = self._runs[run]
        pos = self._pos[run]
        # strongest challenger: best head among the losers on the path
        node = (self._k + run) // 2
        best = -1
        while node >= 1:
            stored = self._tree[node]
            if best < 0 or self._beats(stored, best):
                best = stored
            node //= 2
        limit = self._heads[best] if best >= 0 else None
        if limit is None:
            end = arr.size  # no live challenger: run empties in one go
        else:
            nxt = pos + 1
            if nxt >= arr.size or (
                arr[nxt] > limit if run < best else not arr[nxt] < limit
            ):
                end = nxt  # common case: a single element, no search needed
            else:
                side = "right" if run < best else "left"
                # the current head beats the challenger, so the chunk is
                # never empty; the floor also guarantees progress on
                # unordered (e.g. NaN-bearing) input
                end = max(
                    pos + int(np.searchsorted(arr[pos:], limit, side=side)),
                    nxt,
                )
        chunk = arr[pos:end]
        self._advance(run, chunk.size)
        node = (self._k + run) // 2
        cur = run
        while node >= 1:
            stored = self._tree[node]
            if self._beats(stored, cur):
                self._tree[node], cur = cur, stored
            node //= 2
        self._winner = cur
        return chunk


def loser_tree_merge(runs: Sequence[np.ndarray]) -> np.ndarray:
    """Single-pass k-way merge through a :class:`LoserTree`.

    Drains the tree in vectorised chunks (:meth:`LoserTree.pop_run`):
    whenever the winning run can emit several elements before the next
    challenger, they move as one slice and the path replay is amortized
    over the chunk — disjoint or duplicate-heavy runs merge at memcpy
    speed.  When a probe window shows the interleave is element-fine
    (average chunk below 2), the drain falls back to the plain
    :meth:`~LoserTree.pop` loop with exponential backoff before probing
    again, so adversarial inputs never pay the chunk bookkeeping.  Both
    paths emit the identical element sequence, so the output is
    byte-identical however the modes interleave.
    """
    runs = [np.asarray(r) for r in runs]
    nonempty = [r for r in runs if r.size]
    if not nonempty:
        return _merged_empty(runs)
    runs = nonempty
    if len(runs) == 1:
        return runs[0].copy()
    tree = LoserTree(runs)
    out = np.empty(len(tree), dtype=np.result_type(*runs))
    i = 0
    probe = 2048  # elements per chunked probe window
    backoff = probe  # element-mode stretch; doubles while probes fail
    while i < out.size:
        window_end = min(i + probe, out.size)
        start, chunks = i, 0
        while i < window_end:
            chunk = tree.pop_run()
            out[i : i + chunk.size] = chunk
            i += chunk.size
            chunks += 1
        if i >= out.size:
            break
        if i - start >= 2 * chunks:
            backoff = probe  # chunking pays here: keep probing eagerly
            continue
        element_end = min(i + backoff, out.size)
        while i < element_end:
            out[i] = tree.pop()
            i += 1
        backoff = min(backoff * 2, 65536)
    return out


def kway_merge(runs: Sequence[np.ndarray], strategy: str = "binary_tree") -> np.ndarray:
    """Merge sorted runs with the chosen strategy.

    ``strategy`` is one of ``binary_tree``, ``tournament``, or ``sort``
    (concatenate + re-sort, the paper's evaluated configuration).
    """
    runs = [np.asarray(r) for r in runs]
    if strategy == "binary_tree":
        return binary_merge_tree(runs)
    if strategy == "tournament":
        return loser_tree_merge(runs)
    if strategy == "sort":
        if not runs:
            return np.empty(0)
        out = np.concatenate(runs)
        out.sort(kind="stable")
        return out
    raise ValueError(f"unknown merge strategy {strategy!r}")
