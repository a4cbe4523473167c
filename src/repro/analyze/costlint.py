"""Communication-cost lint: symbolic payload sizes and scalability rules.

Two halves, mirroring the summaries/join split of
:mod:`repro.analyze.interproc`:

**Extraction (per file).**  :func:`extract_function_cost` runs a
flow-insensitive abstract interpretation over one function, mapping names
to :mod:`repro.analyze.symbolic` sizes: array lengths for buffers, value
magnitudes for integers.  Seeds are the SPMD vocabulary — ``comm.size`` is
``p``, rank-tainted values are bounded by ``p``, ``len(data)`` and
``np.empty(k)``/slicing/``argsort``/``searchsorted`` shapes propagate
through assignments, non-comm parameters become ``$param`` atoms, and
unresolved user calls become ``@line_col`` atoms.  The result — every
collective/p2p *cost site* of the function's lowering with its payload term
and enclosing-loop multiplier, every ``for``-loop issuing point-to-point
traffic, and the function's symbolic return size — is the
:class:`FunctionCost` on the function's
:class:`~repro.analyze.interproc.FunctionSummary`.

**Whole-program resolution.**  :class:`CostProgram`
resolves ``@`` placeholders bottom-up over the SCCs of the shared
:class:`~repro.analyze.interproc.Program` (substituting callee return sizes
with ``$param`` atoms bound to the caller's argument sizes) and judges the
four ``RULES`` entries of layer ``cost`` on the resolved payloads.

Judgements only fire on *ground* terms (atoms in {p, log p, n, s}); sizes
still mentioning ``$param``/``@call`` placeholders stay silent — a may
analysis that prefers missed findings over false alarms.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable

from . import symbolic as sym
from .astlint import COLLECTIVE_METHODS, Finding
from .interproc import Program
from .lower import SCOPES, FunctionContext

__all__ = [
    "RULE_ROOT_BOTTLENECK",
    "RULE_P2_TRAFFIC",
    "RULE_HANDROLLED",
    "RULE_OVERSIZED_REDUCE",
    "CostSite",
    "PeerLoop",
    "CallSize",
    "FunctionCost",
    "extract_function_cost",
    "CostProgram",
]

RULE_ROOT_BOTTLENECK = "SPMD-ROOT-BOTTLENECK"
RULE_P2_TRAFFIC = "SPMD-P2-TRAFFIC"
RULE_HANDROLLED = "SPMD-HANDROLLED-COLLECTIVE"
RULE_OVERSIZED_REDUCE = "SPMD-OVERSIZED-REDUCE"

#: verbs whose first argument is a payload this analysis prices
_PAYLOAD_VERBS = frozenset(
    {
        "bcast",
        "reduce",
        "allreduce",
        "gather",
        "allgather",
        "scatter",
        "alltoall",
        "alltoallv",
        "scan",
        "exscan",
        "send",
        "isend",
        "sendrecv",
    }
)

_P2P_BLOCKING = frozenset({"send", "recv", "sendrecv"})
_P2P_ALL = frozenset({"send", "recv", "sendrecv", "isend", "irecv"})

#: numpy callables whose result size is their first argument's size
_NP_PASSTHROUGH = frozenset(
    {
        "sort",
        "unique",
        "asarray",
        "asanyarray",
        "ascontiguousarray",
        "copy",
        "ravel",
        "clip",
        "abs",
        "floor",
        "ceil",
        "round",
        "argsort",
        "cumsum",
        "diff",
        "flatnonzero",
        "zeros_like",
        "ones_like",
        "empty_like",
        "full_like",
        "array",
    }
)

_NP_CONSTRUCTORS = frozenset({"zeros", "ones", "empty"})

_METHOD_PASSTHROUGH = frozenset(
    {"astype", "copy", "ravel", "clip", "round", "tolist", "view"}
)
_METHOD_SCALAR = frozenset(
    {"sum", "max", "min", "mean", "any", "all", "item", "prod", "argmax", "argmin"}
)


# ------------------------------------------------------------ cost facts


@dataclass
class CostSite:
    """One priced comm call: payload elements, times its enclosing loops."""

    verb: str
    line: int
    payload: sym.Size
    loop: sym.Size


@dataclass
class PeerLoop:
    """One outermost ``for`` loop issuing point-to-point traffic."""

    line: int
    count: sym.Size
    verbs: set[str] = field(default_factory=set)
    blocking: bool = False
    payload: sym.Size = sym.ZERO  #: elements sent per trip


@dataclass
class CallSize:
    """An unresolved user call (an ``@line_col`` atom) and its argument sizes."""

    spec: tuple[str, ...]
    display: str
    args: list[sym.Size]
    kwargs: dict[str, sym.Size]


@dataclass
class FunctionCost:
    """Symbolic cost facts of one function, caller-agnostic."""

    returns: sym.Size
    defaults: dict[str, sym.Size]  #: literal parameter defaults
    sites: list[CostSite]
    loops: list[PeerLoop]
    calls: dict[str, CallSize]  #: placeholder atom -> the call behind it


# --------------------------------------------------------------- inference

_NUM, _ARR, _SEQ, _UNK = "num", "arr", "seq", "unk"


class _Inference:
    """Flow-insensitive size environment for one function body."""

    def __init__(
        self,
        ctx: FunctionContext,
        spec_for: Callable[[ast.Call], tuple[tuple[str, ...], str] | None],
        entry: bool = False,
    ) -> None:
        self.fn = ctx.node
        self.ctx = ctx
        self.spec_for = spec_for
        self.entry = entry
        self.env: dict[str, tuple[str, Any]] = {}
        self.calls: dict[str, CallSize] = {}
        self.defaults: dict[str, Any] = {}
        self._seed()

    # -- seeding

    def _seed(self) -> None:
        args = self.fn.args
        ordered = list(args.posonlyargs) + list(args.args)
        defaults: dict[str, ast.expr] = {}
        for a, d in zip(ordered[len(ordered) - len(args.defaults):], args.defaults):
            defaults[a.arg] = d
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                defaults[a.arg] = d
        for name in [a.arg for a in ordered + list(args.kwonlyargs)]:
            if name in self.ctx.comm_names or name in ("self", "cls"):
                continue
            dflt = defaults.get(name)
            if isinstance(dflt, ast.Constant) and isinstance(dflt.value, (int, float)) \
                    and not isinstance(dflt.value, bool):
                size = sym.const(dflt.value)
                self.env[name] = (_NUM, size)
                self.defaults[name] = size
            elif self.entry:
                # data parameter of an entry-marked rank function (the prog
                # handed to run_spmd): by SPMD convention it carries the
                # rank's share of the global input, n/p — the anchor that
                # grounds the n vocabulary for the cost rules
                self.env[name] = (_UNK, self._div(sym.atom("n"), sym.atom("p")))
            else:
                self.env[name] = (_UNK, sym.atom("$" + name))

    # -- fixpoint over assignments

    def run(self) -> None:
        seeds = dict(self.env)
        prev = dict(self.env)
        for _ in range(4):
            self._block(self.fn.body)
            snap = dict(self.env)
            if snap == prev:
                return
            prev = snap
        # unconverged names (loop-carried growth) widen to unknown
        self._block(self.fn.body)
        for name, val in list(self.env.items()):
            if prev.get(name) != val and name not in seeds:
                self.env[name] = (_UNK, sym.UNKNOWN)

    def _block(self, stmts: list[ast.stmt]) -> None:
        """Interpret a statement list, joining ``if``/``else`` branch envs.

        Branches are evaluated on copies of the incoming environment and
        joined with :func:`symbolic.smax` — without the join, source-order
        processing would leave the *else* branch's (often degenerate,
        e.g. ``x = arr[:0]``) binding as the final word.
        """
        for st in stmts:
            if isinstance(st, SCOPES):
                continue
            if isinstance(st, ast.If):
                saved = dict(self.env)
                self._block(st.body)
                after_body = self.env
                self.env = dict(saved)
                self._block(st.orelse)
                self.env = self._join(after_body, self.env)
                continue
            self._stmt(st)
            for attr in ("body", "orelse", "finalbody"):
                sub = getattr(st, attr, None)
                if sub:
                    self._block(sub)
            for handler in getattr(st, "handlers", []) or []:
                self._block(handler.body)

    @staticmethod
    def _join(
        a: dict[str, tuple[str, Any]], b: dict[str, tuple[str, Any]]
    ) -> dict[str, tuple[str, Any]]:
        out: dict[str, tuple[str, Any]] = {}
        for name in set(a) | set(b):
            va, vb = a.get(name), b.get(name)
            if va is None or va == vb:
                out[name] = vb  # type: ignore[assignment]
            elif vb is None:
                out[name] = va
            else:
                kind = va[0] if va[0] == vb[0] else _UNK
                out[name] = (kind, sym.smax(va[1], vb[1]))
        return out

    # -- transfer

    def _stmt(self, st: ast.stmt) -> None:
        if isinstance(st, ast.Assign):
            val = st.value
            for tgt in st.targets:
                self._bind(tgt, val)
        elif isinstance(st, ast.AnnAssign) and st.value is not None:
            self._bind(st.target, st.value)
        elif isinstance(st, ast.AugAssign) and isinstance(st.target, ast.Name):
            cur = self.env.get(st.target.id, (_UNK, sym.UNKNOWN))
            kind, size = self.eval(st.value)
            if isinstance(st.op, ast.Add):
                self.env[st.target.id] = (cur[0], sym.add(cur[1], size))
            elif isinstance(st.op, ast.Mult):
                self.env[st.target.id] = (cur[0], sym.mul(cur[1], size))
            else:
                self.env[st.target.id] = cur
        elif isinstance(st, ast.For):
            self._bind_loop_var(st.target, st.iter)
        elif isinstance(st, ast.With):
            for item in st.items:
                if isinstance(item.optional_vars, ast.Name):
                    self.env[item.optional_vars.id] = self.eval(item.context_expr)
        elif isinstance(st, ast.Expr):
            self.eval(st.value)  # register call placeholders
        elif isinstance(st, ast.Return) and st.value is not None:
            self.eval(st.value)

    def _bind(self, tgt: ast.expr, val: ast.expr) -> None:
        if isinstance(tgt, ast.Name):
            self.env[tgt.id] = self.eval(val)
            return
        if isinstance(tgt, (ast.Tuple, ast.List)):
            names = [e for e in tgt.elts if isinstance(e, ast.Name)]
            if isinstance(val, (ast.Tuple, ast.List)) and len(val.elts) == len(tgt.elts):
                for t, v in zip(tgt.elts, val.elts):
                    if isinstance(t, ast.Name):
                        self.env[t.id] = self.eval(v)
                return
            kind, size = self.eval(val)
            if len(names) and size is not sym.UNKNOWN:
                # homogeneous-tuple heuristic: each component carries an
                # equal share of the unpacked value's total size
                share = sym.scale(size, 1.0 / max(len(tgt.elts), 1))
                for t in names:
                    self.env[t.id] = (_UNK, share)
            else:
                for t in names:
                    self.env[t.id] = (_UNK, sym.UNKNOWN)

    def _bind_loop_var(self, tgt: ast.expr, it: ast.expr) -> None:
        if isinstance(tgt, ast.Name):
            kind, size = self.eval(it)
            if self._is_range(it):
                self.env[tgt.id] = (_NUM, size)  # bounded by the range stop
            else:
                self.env[tgt.id] = (_UNK, sym.UNKNOWN)
        elif isinstance(tgt, (ast.Tuple, ast.List)):
            for e in tgt.elts:
                if isinstance(e, ast.Name):
                    self.env[e.id] = (_UNK, sym.UNKNOWN)

    @staticmethod
    def _is_range(it: ast.expr) -> bool:
        return (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id in ("range", "reversed")
        )

    # -- expression sizing

    def elems(self, e: ast.expr) -> Any:
        """Payload element count of an expression (scalars count 1)."""
        kind, size = self.eval(e)
        if kind == _NUM:
            return sym.ONE
        return size

    def eval(self, e: ast.expr) -> tuple[str, Any]:  # noqa: C901
        if isinstance(e, ast.Constant):
            v = e.value
            if isinstance(v, bool) or v is None:
                return (_NUM, sym.ONE)
            if isinstance(v, (int, float)):
                return (_NUM, sym.const(abs(v)))
            if isinstance(v, (str, bytes)):
                return (_NUM, sym.const(max(len(v), 1)))
            return (_NUM, sym.ONE)
        if isinstance(e, ast.Name):
            if e.id in self.env:
                return self.env[e.id]
            if self.ctx.is_rank_expr(e):
                return (_NUM, sym.atom("p"))
            return (_UNK, sym.UNKNOWN)
        if isinstance(e, ast.Attribute):
            return self._attribute(e)
        if isinstance(e, ast.BinOp):
            return self._binop(e)
        if isinstance(e, ast.UnaryOp):
            return self.eval(e.operand)
        if isinstance(e, ast.BoolOp):
            return (_NUM, sym.ONE)
        if isinstance(e, ast.Compare):
            kind, size = self.eval(e.left)
            if kind in (_ARR, _SEQ):
                return (_ARR, size)
            return (_NUM, sym.ONE)
        if isinstance(e, ast.IfExp):
            kb, sb = self.eval(e.body)
            ko, so = self.eval(e.orelse)
            return (kb if kb == ko else _UNK, sym.add(sb, so))
        if isinstance(e, (ast.Tuple, ast.List, ast.Set)):
            total: Any = sym.ZERO
            for el in e.elts:
                if isinstance(el, ast.Starred):
                    total = sym.add(total, self.elems(el.value))
                else:
                    total = sym.add(total, self.elems(el))
            return (_SEQ, total)
        if isinstance(e, ast.Dict):
            total = sym.ZERO
            for k, v in zip(e.keys, e.values):
                total = sym.add(total, self.elems(v) if v is not None else sym.ZERO)
            return (_SEQ, total)
        if isinstance(e, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            return self._comprehension(e)
        if isinstance(e, ast.Call):
            return self._call(e)
        if isinstance(e, ast.Subscript):
            return self._subscript(e)
        if isinstance(e, ast.Starred):
            return self.eval(e.value)
        return (_UNK, sym.UNKNOWN)

    def _attribute(self, e: ast.Attribute) -> tuple[str, Any]:
        if isinstance(e.value, ast.Name) and e.value.id in self.ctx.comm_names:
            if e.attr in ("size", "rank", "world_rank"):
                return (_NUM, sym.atom("p"))
            return (_UNK, sym.UNKNOWN)
        base_kind, base_size = self.eval(e.value)
        if e.attr == "size":
            return (_NUM, base_size)
        if e.attr == "itemsize":
            return (_NUM, sym.const(8))
        if e.attr in ("T", "flat", "real", "imag"):
            return (base_kind, base_size)
        # field of a parameter-shaped object: a bindable `$param.attr` atom
        if base_size is not sym.UNKNOWN and len(base_size) == 1:
            (coeff, powers), = base_size
            if (
                abs(coeff - 1.0) < 1e-9
                and len(powers) == 1
                and powers[0][1] == 1
                and powers[0][0].startswith("$")
            ):
                return (_UNK, sym.atom(powers[0][0] + "." + e.attr))
        return (_UNK, sym.UNKNOWN)

    def _binop(self, e: ast.BinOp) -> tuple[str, Any]:
        ka, sa = self.eval(e.left)
        kb, sb = self.eval(e.right)
        arr_kinds = (_ARR, _SEQ)
        if ka in arr_kinds or kb in arr_kinds:
            if isinstance(e.op, ast.Mult) and ka == _SEQ and kb == _NUM:
                return (_SEQ, sym.mul(sa, sb))  # [x] * k
            if isinstance(e.op, ast.Mult) and kb == _SEQ and ka == _NUM:
                return (_SEQ, sym.mul(sb, sa))
            if isinstance(e.op, ast.Add) and ka in arr_kinds and kb in arr_kinds \
                    and (ka == _SEQ or kb == _SEQ):
                return (_SEQ, sym.add(sa, sb))  # list concatenation
            # elementwise: the shape survives from whichever side is known
            if ka in arr_kinds and sa is not sym.UNKNOWN:
                return (_ARR, sa)
            if kb in arr_kinds and sb is not sym.UNKNOWN:
                return (_ARR, sb)
            return (_ARR, sym.UNKNOWN)
        if isinstance(e.op, ast.Add):
            return (_NUM, sym.add(sa, sb))
        if isinstance(e.op, ast.Sub):
            if ka == _UNK and kb == _UNK:
                # unknown-kind operands may be arrays (elementwise subtract
                # keeps the shape) — `a - b` cancelling to zero would erase
                # a real payload, so bound by the larger side instead
                return (_UNK, sym.smax(sa, sb))
            return (_NUM, sym.sub(sa, sb))
        if isinstance(e.op, ast.Mult):
            return (_NUM, sym.mul(sa, sb))
        if isinstance(e.op, (ast.Div, ast.FloorDiv)):
            return (_NUM, self._div(sa, sb))
        if isinstance(e.op, ast.Mod):
            return (_NUM, sym.smin(sa, sb))
        if isinstance(e.op, ast.LShift):
            # 1 << j with j of log p magnitude is bounded by p
            if sb is not sym.UNKNOWN and sym.degree(sb, "logp") >= 1:
                return (_NUM, sym.atom("p"))
            return (_NUM, sym.UNKNOWN)
        if isinstance(e.op, ast.Pow):
            if sb is not sym.UNKNOWN and sym.is_const(sb):
                k = sym.evaluate(sb, {})
                if k is not None and 0 <= k <= 4 and abs(k - round(k)) < 1e-9:
                    out = sym.ONE
                    for _ in range(int(round(k))):
                        out = sym.mul(out, sa)
                    return (_NUM, out)
            return (_NUM, sym.UNKNOWN)
        return (_NUM, sym.UNKNOWN)

    @staticmethod
    def _div(a: Any, b: Any) -> Any:
        if a is sym.UNKNOWN:
            return sym.UNKNOWN
        inv = sym.reciprocal(b)
        # division cannot grow a non-negative size
        return a if inv is sym.UNKNOWN else sym.mul(a, inv)

    def _comprehension(self, e) -> tuple[str, Any]:
        if len(e.generators) != 1:
            return (_SEQ, sym.UNKNOWN)
        gen = e.generators[0]
        count = self.elems(gen.iter)
        elt = e.elt if not isinstance(e, ast.DictComp) else e.value
        # partition-slice pattern: slices of one array indexed by the
        # comprehension variable cover the array once, not count× it
        base = self._partition_slice_base(elt, gen.target)
        if base is not None:
            bk, bs = self.eval(base)
            if bk in (_ARR, _SEQ, _UNK) and bs is not sym.UNKNOWN:
                return (_SEQ, bs)
        saved = dict(self.env)
        self._bind_loop_var(gen.target, gen.iter)
        ek, es = self.eval(elt)
        self.env = saved
        if ek in (_ARR, _SEQ) and es is not sym.UNKNOWN:
            return (_SEQ, sym.mul(count, es))
        # unknown elements are assumed scalar (may-analysis: prefer an
        # under-estimate over poisoning every comprehension payload)
        return (_SEQ, count)

    @staticmethod
    def _partition_slice_base(elt: ast.expr, target: ast.expr) -> ast.expr | None:
        if not (isinstance(elt, ast.Subscript) and isinstance(elt.slice, ast.Slice)):
            return None
        var = {target.id} if isinstance(target, ast.Name) else {
            t.id for t in getattr(target, "elts", []) if isinstance(t, ast.Name)
        }
        names = {
            n.id
            for bound in (elt.slice.lower, elt.slice.upper)
            if bound is not None
            for n in ast.walk(bound)
            if isinstance(n, ast.Name)
        }
        return elt.value if var & names else None

    def _call(self, e: ast.Call) -> tuple[str, Any]:  # noqa: C901
        func = e.func
        kwargs = {kw.arg: kw.value for kw in e.keywords if kw.arg}

        if isinstance(func, ast.Attribute):
            # communicator collectives / p2p results
            if self.ctx.is_comm_call(e, COLLECTIVE_METHODS | _P2P_ALL | {"iprobe"}):
                return self._comm_result(func.attr, e)
            base = func.value
            attr = func.attr
            if isinstance(base, ast.Name) and base.id in ("np", "numpy"):
                return self._numpy(attr, e, kwargs)
            if attr in _METHOD_PASSTHROUGH:
                return self.eval(base)
            if attr in _METHOD_SCALAR:
                return (_NUM, sym.UNKNOWN)
            if attr == "bit_length":
                _, bs = self.eval(base)
                return (_NUM, sym.logify(bs))
            if attr in ("reshape", "repeat"):
                return (_ARR, sym.UNKNOWN)
            if attr in ("integers", "random", "normal", "uniform", "choice", "permutation"):
                if "size" in kwargs:
                    _, s = self.eval(kwargs["size"])
                    return (_ARR, s)
                return (_UNK, sym.UNKNOWN)
        if isinstance(func, ast.Name):
            name = func.id
            if name == "len" and e.args:
                return (_NUM, self.elems(e.args[0]))
            if name in ("int", "float", "abs", "round", "bool") and e.args:
                _, s = self.eval(e.args[0])
                return (_NUM, s)
            if name in ("range", "reversed"):
                return (_SEQ, self._range_count(e))
            if name in ("list", "tuple", "sorted", "set", "frozenset") and e.args:
                _, s = self.eval(e.args[0])
                return (_SEQ, s)
            if name == "enumerate" and e.args:
                _, s = self.eval(e.args[0])
                return (_SEQ, s)
            if name == "zip" and e.args:
                sizes = [self.eval(a)[1] for a in e.args]
                out = sizes[0]
                for s in sizes[1:]:
                    out = sym.smin(out, s)
                return (_SEQ, out)
            if name == "min" and len(e.args) >= 2:
                out = self.eval(e.args[0])[1]
                for a in e.args[1:]:
                    out = sym.smin(out, self.eval(a)[1])
                return (_NUM, out)
            if name == "max" and len(e.args) >= 2:
                out = self.eval(e.args[0])[1]
                for a in e.args[1:]:
                    out = sym.smax(out, self.eval(a)[1])
                return (_NUM, out)
            if name == "sum":
                return (_NUM, sym.UNKNOWN)
        # user-defined call: register a placeholder for the global phase
        # (re-recorded each pass so argument sizes see the refined env)
        spec = self.spec_for(e)
        if spec is not None:
            key = f"@{e.lineno}_{e.col_offset}"
            self.calls[key] = CallSize(
                *spec,
                args=[self.elems(a) for a in e.args],
                kwargs={kw.arg: self.elems(kw.value) for kw in e.keywords if kw.arg},
            )
            return (_UNK, sym.atom(key))
        if "size" in kwargs:  # rng-style constructor on an unknown object
            _, s = self.eval(kwargs["size"])
            return (_ARR, s)
        return (_UNK, sym.UNKNOWN)

    def _numpy(self, attr: str, e: ast.Call, kwargs: dict[str, ast.expr]) -> tuple[str, Any]:
        args = e.args
        if attr in _NP_CONSTRUCTORS or attr == "full":
            if not args:
                return (_ARR, sym.UNKNOWN)
            shape = args[0]
            if isinstance(shape, (ast.Tuple, ast.List)):  # 2-D+: product
                total = sym.ONE
                for el in shape.elts:
                    total = sym.mul(total, self.eval(el)[1])
                return (_ARR, total)
            return (_ARR, self.eval(shape)[1])
        if attr == "arange":
            return (_ARR, self._range_count(e))
        if attr == "linspace":
            num = kwargs.get("num") or (args[2] if len(args) > 2 else None)
            return (_ARR, self.eval(num)[1] if num is not None else sym.UNKNOWN)
        if attr in ("concatenate", "hstack", "vstack"):
            if args and isinstance(args[0], (ast.Tuple, ast.List)):
                padded = self._pad_concat(args[0].elts)
                if padded is not None:
                    return (_ARR, padded)
                return (_ARR, self.eval(args[0])[1])  # sum of parts
            return (_ARR, self.elems(args[0]) if args else sym.UNKNOWN)
        if attr == "append" and len(args) >= 2:
            return (_ARR, sym.add(self.elems(args[0]), self.elems(args[1])))
        if attr == "searchsorted" and len(args) >= 2:
            vk, vs = self.eval(args[1])
            if vk == _NUM:
                # scalar probe: an index bounded by the array's length
                return (_NUM, self.elems(args[0]))
            return (_ARR, vs)
        if attr in _NP_PASSTHROUGH:
            return (_ARR, self.elems(args[0]) if args else sym.UNKNOWN)
        if attr in ("minimum", "maximum", "where"):
            for a in args:
                k, s = self.eval(a)
                if k in (_ARR, _SEQ) and s is not sym.UNKNOWN:
                    return (_ARR, s)
            return (_NUM, sym.UNKNOWN)
        if attr in ("sum", "max", "min", "prod", "mean", "median", "dot", "count_nonzero", "argmax", "argmin"):
            return (_NUM, sym.UNKNOWN)
        if attr == "split" and args:
            return (_SEQ, self.elems(args[0]))
        return (_UNK, sym.UNKNOWN)

    def _pad_concat(self, elts: list[ast.expr]) -> Any | None:
        """Pad-to-length idiom: ``concatenate([x, np.full(K - x.size, ...)])``.

        The filler's count is written as a *difference* against a sibling's
        length, so the concatenation totals exactly ``K`` — but symbolic
        subtraction cannot cancel non-constant sizes, and summing the parts
        would report ``|x| + K`` instead.  Recognise the shape syntactically
        and return ``K`` (plus any parts outside the pair).
        """
        names = {el.id: i for i, el in enumerate(elts) if isinstance(el, ast.Name)}
        for i, el in enumerate(elts):
            if not (
                isinstance(el, ast.Call)
                and isinstance(el.func, ast.Attribute)
                and el.func.attr in ("full", "zeros", "ones", "empty")
                and isinstance(el.func.value, ast.Name)
                and el.func.value.id in ("np", "numpy")
                and el.args
            ):
                continue
            count = el.args[0]
            if not (isinstance(count, ast.BinOp) and isinstance(count.op, ast.Sub)):
                continue
            rhs = count.right
            base: str | None = None
            if (
                isinstance(rhs, ast.Attribute)
                and rhs.attr == "size"
                and isinstance(rhs.value, ast.Name)
            ):
                base = rhs.value.id
            elif (
                isinstance(rhs, ast.Call)
                and isinstance(rhs.func, ast.Name)
                and rhs.func.id == "len"
                and rhs.args
                and isinstance(rhs.args[0], ast.Name)
            ):
                base = rhs.args[0].id
            if base is None or base not in names:
                continue
            target = self.eval(count.left)[1]
            if target is sym.UNKNOWN:
                return None
            rest = sym.ZERO
            for j, other in enumerate(elts):
                if j not in (i, names[base]):
                    rest = sym.add(rest, self.elems(other))
            return sym.add(target, rest)
        return None

    def _range_count(self, e: ast.Call) -> Any:
        args = [self.eval(a)[1] for a in e.args]
        if not args:
            return sym.UNKNOWN
        if len(args) == 1:
            return args[0]
        return sym.sub(args[1], args[0])

    def _comm_result(self, verb: str, e: ast.Call) -> tuple[str, Any]:
        payload = self.elems(e.args[0]) if e.args else sym.ZERO
        if verb in ("allgather", "gather"):
            return (_SEQ, sym.mul(sym.atom("p"), payload))
        if verb in ("alltoall", "alltoallv"):
            # symmetric-exchange assumption: received totals match sent
            return (_SEQ, payload)
        if verb in ("allreduce", "reduce", "bcast", "scan", "exscan"):
            kind = self.eval(e.args[0])[0] if e.args else _UNK
            return (kind, self.eval(e.args[0])[1] if e.args else sym.ZERO)
        if verb == "scatter":
            return (_UNK, self._div(payload, sym.atom("p")))
        if verb == "sendrecv":
            kind = self.eval(e.args[0])[0] if e.args else _UNK
            return (kind, self.eval(e.args[0])[1] if e.args else sym.UNKNOWN)
        return (_UNK, sym.UNKNOWN)

    def _subscript(self, e: ast.Subscript) -> tuple[str, Any]:
        # a.shape[k] is the array's length (1-D codebase convention)
        if isinstance(e.value, ast.Attribute) and e.value.attr == "shape":
            _, bs = self.eval(e.value.value)
            return (_NUM, bs)
        bk, bs = self.eval(e.value)
        if isinstance(e.slice, ast.Slice):
            lo, hi = e.slice.lower, e.slice.upper
            if hi is not None and e.slice.step is None:
                hk, hs = self.eval(hi)
                if hk == _NUM and hs is not sym.UNKNOWN:
                    if lo is None:
                        return (_ARR, sym.smin(bs, hs) if bs is not sym.UNKNOWN else hs)
                    lk, ls = self.eval(lo)
                    if lk == _NUM and ls is not sym.UNKNOWN:
                        return (_ARR, sym.sub(hs, ls))
            return (_ARR, bs)
        ik, isz = self.eval(e.slice)
        if ik in (_ARR, _SEQ):
            return (_ARR, isz)  # fancy / boolean-mask indexing
        if bk == _ARR:
            return (_NUM, sym.UNKNOWN)
        return (_UNK, sym.UNKNOWN)


# ------------------------------------------------------------ cost extraction


def _cost_sites(inf: _Inference) -> tuple[list[CostSite], list[PeerLoop]]:
    """Cost sites and p2p loops of a function: its lowered comm calls priced
    under their enclosing loops (``for`` multiplies by the iterable's size,
    ``while`` by the symbolic round count ``s``)."""
    ctx = inf.ctx
    trips = {id(st): inf.elems(st.iter) for st in ctx.stmts if isinstance(st, ast.For)}
    sites: list[CostSite] = []
    loops: dict[int, PeerLoop] = {}
    for call in ctx.comm_calls(_PAYLOAD_VERBS | {"recv", "irecv"}):
        node = call.node
        verb = node.func.attr  # type: ignore[union-attr]
        priced = verb in _PAYLOAD_VERBS  # recv/irecv only count towards loops
        payload = inf.elems(node.args[0]) if priced and node.args else sym.ZERO
        if priced:
            factor = sym.ONE
            for lp in call.loops:
                factor = sym.mul(
                    factor, trips[id(lp)] if isinstance(lp, ast.For) else sym.atom("s")
                )
            sites.append(CostSite(verb, node.lineno, payload, factor))
        fors = [lp for lp in call.loops if isinstance(lp, ast.For)]
        if verb in _P2P_ALL and fors:
            count = sym.ONE
            for lp in fors:
                count = sym.mul(count, trips[id(lp)])
            rec = loops.setdefault(fors[0].lineno, PeerLoop(fors[0].lineno, count))
            rec.verbs.add(verb)
            rec.blocking |= verb in _P2P_BLOCKING
            rec.payload = sym.add(rec.payload, payload)
            if rec.count is sym.UNKNOWN or (
                count is not sym.UNKNOWN and sym.smin(rec.count, count) == rec.count
            ):
                rec.count = count  # deeper nesting: keep the max
    return sites, sorted(loops.values(), key=lambda r: r.line)


def extract_function_cost(
    ctx: FunctionContext,
    spec_for: Callable[[ast.Call], tuple[tuple[str, ...], str] | None],
    entry: bool = False,
) -> FunctionCost | None:
    """Symbolic cost facts of one lowered function."""
    inf = _Inference(ctx, spec_for, entry=entry)
    inf.run()
    sites, loops = _cost_sites(inf)
    if not (sites or loops or inf.calls or ctx.returns):
        # nothing to price — and no return statement to size: a caller must
        # read "unknown" off this function (it may be a generator), not 0
        return None
    returns = sym.add(sym.ZERO, *(inf.elems(value) for value in ctx.returns))
    return FunctionCost(returns, inf.defaults, sites, loops, inf.calls)


# ------------------------------------------------------- whole-program phase


class CostProgram:
    """Resolves ``@`` placeholders bottom-up and judges the cost rules."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.path_of = program.path_of
        self.cost: dict[str, FunctionCost] = {
            key: fs.cost for key, fs in program.summary.items() if fs.cost is not None
        }
        self.returns: dict[str, Any] = {}
        self._propagate()

    # -- bottom-up return-size fixpoint

    def _propagate(self) -> None:
        for scc in self.program.sccs:
            for _ in range(2 if len(scc) > 1 else 1):
                for key in scc:
                    if key in self.cost:
                        self.returns[key] = self._returns_of(key)

    def _returns_of(self, key: str) -> Any:
        ret = self.cost[key].returns
        subst, _ = self._subst_env(key)
        return sym.substitute(ret, subst) if subst else ret

    def _subst_env(self, key: str) -> tuple[dict[str, Any], dict[str, tuple[str, str, int]]]:
        """Placeholder substitutions for ``key``, plus via-witness metadata."""
        env: dict[str, Any] = {}
        via: dict[str, tuple[str, str, int]] = {}
        for ph, call in self.cost[key].calls.items():
            callee = self.program.placeholders[key].get(ph)
            if callee is None:
                continue
            bound = self._bind_call(callee, call)
            if bound is sym.UNKNOWN:
                continue
            env[ph] = bound
            via[ph] = (
                call.display,
                self.path_of[callee],
                self.program.graph.functions[callee].line,
            )
        return env, via

    def _bind_call(self, callee: str, call: CallSize) -> Any:
        cost = self.cost.get(callee)
        if cost is None:
            return sym.UNKNOWN
        ret = self.returns.get(callee)
        if ret is sym.UNKNOWN:  # no propagated size (yet): fall back to the raw one
            ret = cost.returns
        if ret is sym.UNKNOWN:
            return sym.UNKNOWN
        params = self.program.summary[callee].params
        offset = 1 if call.spec[0] == "self" else 0
        binding: dict[str, Any] = {}
        for i, arg in enumerate(call.args):
            idx = i + offset
            if idx < len(params) and arg is not sym.UNKNOWN:
                binding["$" + params[idx]] = arg
        for kw, arg in call.kwargs.items():
            if arg is not sym.UNKNOWN:
                binding["$" + kw] = arg
        for name, dflt in cost.defaults.items():
            binding.setdefault("$" + name, dflt)
        bound = sym.substitute(ret, binding)
        # a surviving @-atom belongs to the *callee's* line numbers — it
        # must never leak into the caller where it could collide with the
        # caller's own placeholders
        if bound is not sym.UNKNOWN and any(
            a.startswith("@") for a in sym.free_atoms(bound)
        ):
            return sym.UNKNOWN
        return bound

    # -- resolution for sites

    def resolve_size(self, key: str, size: Any) -> tuple[Any, list[tuple[str, str, int]]]:
        """Substitute resolvable ``@`` atoms; returns (size, via chain)."""
        if size is sym.UNKNOWN:
            return size, []
        atoms = sym.free_atoms(size)
        if not any(a.startswith("@") for a in atoms):
            return size, []
        env, via = self._subst_env(key)
        chain = [via[a] for a in sorted(atoms) if a in via and a in env]
        return sym.substitute(size, {a: v for a, v in env.items() if a in atoms}), chain

    # -- rules

    def findings(self) -> list[Finding]:
        out: list[Finding] = []
        for key in sorted(self.cost):
            path = self.path_of[key]
            for site in self.cost[key].sites:
                out.extend(self._judge_site(key, path, site))
            for loop in self.cost[key].loops:
                out.extend(self._judge_loop(key, path, loop))
        return out

    def _judge_site(self, key: str, path: str, site: CostSite) -> list[Finding]:
        verb = site.verb
        payload, via = self.resolve_size(key, site.payload)
        if not sym.is_ground(payload):
            return []
        related = tuple((p, ln) for _, p, ln in via)
        via_note = "".join(
            f" (payload size via {disp}(), defined at {p}:{ln})" for disp, p, ln in via
        )
        dn = sym.degree(payload, "n")
        dp = sym.degree(payload, "p")
        term = sym.fmt(payload)
        if verb in ("gather", "gatherv", "reduce") and dn >= 1:
            root_vol = sym.fmt(sym.dominant(sym.mul(sym.atom("p"), payload)))
            return [
                Finding(
                    path,
                    site.line,
                    RULE_ROOT_BOTTLENECK,
                    f"{verb} of an Ω(n/p) payload — inferred {term} elements "
                    f"per rank, so the root materializes Θ({root_vol}); "
                    f"replace with an allreduce of O(p) counts or a "
                    f"distributed merge{via_note}",
                    related=related,
                )
            ]
        if verb == "allgather" and (dp >= 1 or dn >= 1):
            per_rank = sym.fmt(sym.dominant(sym.mul(sym.atom("p"), payload)))
            return [
                Finding(
                    path,
                    site.line,
                    RULE_P2_TRAFFIC,
                    f"allgather deposit of {term} elements grows with "
                    f"{'p' if dp >= 1 else 'n'} — every rank materializes "
                    f"Θ({per_rank}), Ω(p²) wire bytes across the "
                    f"communicator{via_note}",
                    related=related,
                )
            ]
        if verb in ("alltoall", "alltoallv") and (dp >= 2 or (dn >= 1 and dp >= 0)):
            return [
                Finding(
                    path,
                    site.line,
                    RULE_P2_TRAFFIC,
                    f"{verb} row payload of {term} elements per rank exceeds "
                    f"the O(p) counts / O(n/p) data budget — "
                    f"Θ({sym.fmt(sym.dominant(sym.mul(sym.atom('p'), payload)))}) "
                    f"total wire volume{via_note}",
                    related=related,
                )
            ]
        if verb in ("allreduce", "scan", "exscan") and dn >= 1:
            return [
                Finding(
                    path,
                    site.line,
                    RULE_OVERSIZED_REDUCE,
                    f"{verb} payload of {term} elements grows with n — "
                    f"reductions should carry O(p) histogram/count vectors, "
                    f"not data; every rank pays Θ({term}) per call{via_note}",
                    related=related,
                )
            ]
        return []

    def _judge_loop(self, key: str, path: str, loop: PeerLoop) -> list[Finding]:
        count, _ = self.resolve_size(key, loop.count)
        if not sym.is_ground(count) or sym.degree(count, "p") < 1:
            return []
        payload, via = self.resolve_size(key, loop.payload)
        big_payload = sym.is_ground(payload) and (
            sym.degree(payload, "n") >= 1 or sym.degree(payload, "p") >= 1
        )
        if not loop.blocking and not big_payload:
            # nonblocking O(1) payloads over a peer loop (e.g. isend +
            # waitall of per-peer counts) are latency-bound, not a
            # re-implemented data collective
            return []
        verbs = "/".join(sorted(loop.verbs))
        kind = "blocking rounds" if loop.blocking else "in-flight volume"
        related = tuple((p, ln) for _, p, ln in via)
        detail = (
            f" moving {sym.fmt(payload)} elements per round"
            if big_payload
            else ""
        )
        return [
            Finding(
                path,
                loop.line,
                RULE_HANDROLLED,
                f"loop over {sym.fmt(sym.dominant(count))} peers issuing "
                f"{verbs}{detail} re-implements a collective with O(p) "
                f"{kind} — use alltoallv/gather/bcast so the runtime can "
                f"price and schedule it as one operation",
                related=related,
            )
        ]
