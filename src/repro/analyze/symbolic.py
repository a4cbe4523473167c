"""Symbolic size algebra for the communication-cost analyzer.

Sizes are sums of monomials over a small atom vocabulary:

``p``
    the communicator size (``comm.size``),
``logp``
    its binary logarithm (``p.bit_length()``-style loop depths),
``n``
    the *global* element count — a rank's partition is ``n/p``, i.e. the
    monomial ``n·p⁻¹``,
``s``
    the trip count of a data-dependent loop (histogramming rounds),
``$<param>`` / ``$<param>.<attr>``
    the size (array) or magnitude (scalar) of a function parameter — bound
    to the caller's argument size during interprocedural substitution,
``@<line>_<col>``
    the size of an unresolved call result at that source position —
    substituted with the callee's symbolic return size once the call graph
    resolves it.

A size is either ``None`` (``UNKNOWN`` — the lattice top) or a normalized
tuple of ``(coeff, powers)`` monomials, where ``powers`` is a sorted tuple
of ``(atom, exponent)`` pairs with non-zero integer exponents.  ``n/p`` is
``(1.0, (("n", 1), ("p", -1)))``.  Everything is a *may* upper bound:
``add`` joins branches, ``smax`` is bounded by ``add``, and any operation
touching ``UNKNOWN`` stays ``UNKNOWN``.

The representation is deliberately plain tuples + module functions (no
classes): sizes are hashable and compare by value, which is what fixpoint
change detection needs.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

__all__ = [
    "UNKNOWN",
    "GROUND_ATOMS",
    "const",
    "atom",
    "add",
    "sub",
    "mul",
    "scale",
    "smin",
    "smax",
    "reciprocal",
    "logify",
    "degree",
    "free_atoms",
    "is_ground",
    "is_const",
    "grows",
    "dominant",
    "substitute",
    "evaluate",
    "evaluate_ground",
    "fmt",
]

#: the lattice top: nothing is known about the size
UNKNOWN = None

#: atoms with a concrete evaluation (everything else is a placeholder)
GROUND_ATOMS = frozenset({"p", "logp", "n", "s"})

#: Size = tuple[tuple[float, tuple[tuple[str, int], ...]], ...] | None
Size = Any


def _norm(terms: Iterable[tuple[float, tuple[tuple[str, int], ...]]]) -> Size:
    acc: dict[tuple[tuple[str, int], ...], float] = {}
    for coeff, powers in terms:
        powers = tuple(sorted((a, int(e)) for a, e in powers if int(e) != 0))
        acc[powers] = acc.get(powers, 0.0) + float(coeff)
    out = tuple(
        (c, pw) for pw, c in sorted(acc.items()) if abs(c) > 1e-12
    )
    return out


def const(c: float) -> Size:
    """The constant size ``c``."""
    return _norm([(float(c), ())])


def atom(name: str, exp: int = 1) -> Size:
    """A single-atom size, e.g. ``atom("p")`` or ``atom("n") * atom("p", -1)``."""
    return _norm([(1.0, ((name, exp),))])


ZERO = const(0)
ONE = const(1)


def add(*sizes: Size) -> Size:
    """Sum of sizes (also the branch join: an upper bound of either)."""
    if any(s is UNKNOWN for s in sizes):
        return UNKNOWN
    return _norm(t for s in sizes for t in s)


def scale(size: Size, c: float) -> Size:
    if size is UNKNOWN:
        return UNKNOWN
    return _norm((coeff * c, pw) for coeff, pw in size)


def sub(a: Size, b: Size) -> Size:
    """``a - b`` — exact for constants, otherwise the upper bound ``a``."""
    if a is UNKNOWN:
        return UNKNOWN
    if b is not UNKNOWN and is_const(a) and is_const(b):
        return _norm(list(a) + list(scale(b, -1.0)))
    return a


def mul(a: Size, b: Size) -> Size:
    if a is UNKNOWN or b is UNKNOWN:
        return UNKNOWN
    out = []
    for ca, pa in a:
        for cb, pb in b:
            powers: dict[str, int] = dict(pa)
            for at, e in pb:
                powers[at] = powers.get(at, 0) + e
            out.append((ca * cb, tuple(powers.items())))
    return _norm(out)


def reciprocal(size: Size) -> Size:
    """``1 / size`` — only a single non-zero monomial is invertible."""
    if size is UNKNOWN or len(size) != 1 or abs(size[0][0]) <= 1e-12:
        return UNKNOWN
    ((coeff, powers),) = size
    return _norm([(1.0 / coeff, tuple((a, -e) for a, e in powers))])


def _dominance_key(powers: tuple[tuple[str, int], ...]) -> tuple:
    d = dict(powers)
    ground = (d.get("n", 0), d.get("p", 0), d.get("s", 0), d.get("logp", 0))
    other = tuple(sorted((a, e) for a, e in d.items() if a not in GROUND_ATOMS))
    return (ground, other)


def smin(a: Size, b: Size) -> Size:
    """``min(a, b)`` — keeps the asymptotically smaller known operand."""
    if a is UNKNOWN:
        return b
    if b is UNKNOWN:
        return a
    ka = max((_dominance_key(pw) for _, pw in a), default=((0, 0, 0, 0), ()))
    kb = max((_dominance_key(pw) for _, pw in b), default=((0, 0, 0, 0), ()))
    return a if ka <= kb else b


def smax(a: Size, b: Size) -> Size:
    """``max(a, b)`` — monomial-wise coefficient max.

    A sound upper bound of either operand (coefficients absent from one
    side count as 0), and much tighter than the sum when both sides share
    their dominant monomial — the common case for branch joins, where the
    two arms compute differently-shaped views of the same data.
    """
    if a is UNKNOWN or b is UNKNOWN:
        return UNKNOWN
    ca = {tuple(sorted(pw)): c for c, pw in a}
    cb = {tuple(sorted(pw)): c for c, pw in b}
    return _norm(
        (max(ca.get(k, 0.0), cb.get(k, 0.0)), k) for k in set(ca) | set(cb)
    )


def logify(size: Size) -> Size:
    """``log2`` of a size (``p.bit_length()`` and friends).

    Only ``p``-degree sizes have a representable logarithm (``logp``);
    constants map to constants and everything else to ``UNKNOWN``.
    """
    if size is UNKNOWN:
        return UNKNOWN
    if is_const(size):
        v = evaluate(size, {})
        return const(max(math.log2(v), 1.0)) if v and v > 1 else ONE
    if degree(size, "p") >= 1 and all(
        all(a == "p" for a, _ in pw) for _, pw in size
    ):
        return atom("logp")
    return UNKNOWN


def degree(size: Size, sym: str) -> int:
    """Largest exponent of ``sym`` across the monomials (0 if absent)."""
    if size is UNKNOWN:
        return 0
    return max((dict(pw).get(sym, 0) for _, pw in size), default=0)


def free_atoms(size: Size) -> frozenset[str]:
    if size is UNKNOWN:
        return frozenset()
    return frozenset(a for _, pw in size for a, _ in pw)


def is_ground(size: Size) -> bool:
    """True when every atom evaluates concretely (no ``$``/``@`` leftovers)."""
    return size is not UNKNOWN and free_atoms(size) <= GROUND_ATOMS


def is_const(size: Size) -> bool:
    return size is not UNKNOWN and all(not pw for _, pw in size)


def grows(size: Size) -> bool:
    """True when any monomial has a positive-exponent ground atom."""
    if size is UNKNOWN:
        return False
    return any(
        any(a in GROUND_ATOMS and e > 0 for a, e in pw) for _, pw in size
    )


def dominant(size: Size) -> Size:
    """The asymptotically maximal monomials (per-atom exponent order)."""
    if size is UNKNOWN or not size:
        return size
    keep = []
    for i, (ci, pi) in enumerate(size):
        di = dict(pi)
        dominated = False
        for j, (cj, pj) in enumerate(size):
            if i == j:
                continue
            dj = dict(pj)
            atoms = set(di) | set(dj)
            if all(dj.get(a, 0) >= di.get(a, 0) for a in atoms) and di != dj:
                dominated = True
                break
        if not dominated:
            keep.append((ci, pi))
    return _norm(keep)


def substitute(size: Size, env: dict[str, Size]) -> Size:
    """Replace atoms by sizes; atoms absent from ``env`` (or mapped to
    ``UNKNOWN``, which is ``None``) are kept.

    A negative exponent on a substituted atom only survives when the
    replacement is a single monomial (invertible); otherwise the whole
    size collapses to ``UNKNOWN``.
    """
    if size is UNKNOWN:
        return UNKNOWN
    total: Size = ZERO
    for coeff, powers in size:
        term: Size = const(coeff)
        for at, exp in powers:
            rep = env.get(at)
            if rep is None:
                term = mul(term, atom(at, exp))
                continue
            if exp >= 0:
                for _ in range(exp):
                    term = mul(term, rep)
            else:
                inv = reciprocal(rep)
                if inv is UNKNOWN:
                    return UNKNOWN
                for _ in range(-exp):
                    term = mul(term, inv)
        total = add(total, term)
    return total


def evaluate(size: Size, env: dict[str, float]) -> float | None:
    """Concrete value of a size, or ``None`` on unknown / unbound atoms."""
    if size is UNKNOWN:
        return None
    total = 0.0
    for coeff, powers in size:
        v = coeff
        for at, exp in powers:
            if at not in env:
                return None
            v *= float(env[at]) ** exp
        total += v
    return max(total, 0.0)


def evaluate_ground(size: Size, env: dict[str, float]) -> tuple[float, frozenset[str]]:
    """Value of the ground monomials; also reports the dropped atoms.

    Non-ground monomials (unresolved ``$``/``@`` placeholders — e.g. a
    config-gated code path the trial never runs) are skipped rather than
    poisoning the whole term; callers surface the dropped atoms.
    """
    if size is UNKNOWN:
        return 0.0, frozenset({"?"})
    total = 0.0
    dropped: set[str] = set()
    for coeff, powers in size:
        extra = {a for a, _ in powers} - GROUND_ATOMS - set(env)
        if extra:
            dropped |= extra
            continue
        v = coeff
        for at, exp in powers:
            v *= float(env[at]) ** exp
        total += v
    return max(total, 0.0), frozenset(dropped)


# -------------------------------------------------------------- formatting


def _fmt_coeff(c: float) -> str:
    if abs(c - round(c)) < 1e-9:
        return str(int(round(c)))
    return f"{c:g}"


def _fmt_atom(a: str, e: int) -> str:
    name = {"logp": "log p"}.get(a, a)
    if a.startswith("$"):
        name = f"|{a[1:]}|"
    if a.startswith("@"):
        name = f"?{a[1:]}"
    e = abs(e)
    return name if e == 1 else f"{name}^{e}"


def fmt(size: Size) -> str:
    """Human form, e.g. ``2·p·s + n/p`` or ``?`` for ``UNKNOWN``."""
    if size is UNKNOWN:
        return "?"
    if not size:
        return "0"
    parts = []
    for coeff, powers in sorted(size, key=lambda t: _dominance_key(t[1]), reverse=True):
        num = [_fmt_atom(a, e) for a, e in powers if e > 0]
        den = [_fmt_atom(a, e) for a, e in powers if e < 0]
        if not num or abs(coeff - 1.0) > 1e-9 or (not num and not den):
            num.insert(0, _fmt_coeff(coeff))
        s = "·".join(num) if num else "1"
        if den:
            s += "/" + "/".join(den)
        parts.append(s)
    return " + ".join(parts)
