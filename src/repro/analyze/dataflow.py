"""The per-function rules that need *order*: a small CFG plus a forward
may-analysis for buffer reuse, and the payload-shape rule.

Whether a write to a buffer happens between an ``isend`` and the matching
``wait()`` depends on which paths through the function exist, so
:func:`build_cfg` lowers ``if``/``while``/``for``/``try`` to edges between
basic blocks of simple statements and a worklist fixpoint carries the set of
live (request, buffer-names) facts.  The shape rule reads the calls and
bindings of the function's lowering
(:class:`~repro.analyze.lower.FunctionContext`).  Everything here is a *may*
analysis: a finding means some path exhibits the hazard, not all paths.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .astlint import Finding, ModuleInfo
from .lower import SCOPES, FunctionContext, bound_pairs, loop_waits_all, wait_targets

__all__ = [
    "RULE_BUFFER_REUSE",
    "RULE_SHAPE_MISMATCH",
    "build_cfg",
    "check_function",
    "rank_sized_expr",
    "rank_sized_names",
    "uniform_collective_hits",
]

RULE_BUFFER_REUSE = "SPMD-BUFFER-REUSE"
RULE_SHAPE_MISMATCH = "SPMD-SHAPE-MISMATCH"

#: collectives whose payload must have the same shape on every rank
_UNIFORM_COLLECTIVES = frozenset({"allreduce", "reduce", "scan", "exscan", "alltoall"})

#: ndarray methods that mutate the receiver in place
_MUTATOR_METHODS = frozenset(
    {"fill", "sort", "partition", "put", "resize", "setflags", "itemset", "byteswap"}
)

#: numpy module functions whose first argument is written in place
_NP_INPLACE_FUNCS = frozenset({"copyto", "put", "place", "putmask"})

#: numpy constructors whose first argument is a size/shape
_SIZE_CONSTRUCTORS = frozenset({"zeros", "ones", "empty", "full", "arange"})


# ------------------------------------------------------------------- CFG

# ``("kill-coll", name)`` is a pseudo-statement emitted into a block: kill
# every request tracked under the given collection name (a
# ``for r in reqs: r.wait()`` loop header).


@dataclass
class Block:
    """One basic block: simple statements plus successor block indices."""

    stmts: list = field(default_factory=list)
    succ: list[int] = field(default_factory=list)


class CFG:
    """A function's control-flow graph; block 0 is the entry."""

    def __init__(self) -> None:
        self.blocks: list[Block] = [Block()]

    def new(self) -> int:
        self.blocks.append(Block())
        return len(self.blocks) - 1

    def edge(self, a: int, b: int) -> None:
        if b not in self.blocks[a].succ:
            self.blocks[a].succ.append(b)

    def preds(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.blocks]
        for i, b in enumerate(self.blocks):
            for s in b.succ:
                out[s].append(i)
        return out


class _CFGBuilder:
    """Lowers a function body to a :class:`CFG`.

    Compound statements become edges; their header expressions (``if``
    tests, ``for`` iterables) are kept as synthetic ``ast.Expr`` entries so
    transfer functions still see calls made inside them.  ``return`` /
    ``raise`` / ``break`` / ``continue`` divert control to the right
    target and leave the fall-through block unreachable (its in-state is
    empty, so it contributes nothing at joins).
    """

    def __init__(self) -> None:
        self.cfg = CFG()
        self.cur = 0

    def build(self, fn: ast.FunctionDef) -> CFG:
        self._body(fn.body, ())
        return self.cfg

    def _emit(self, item) -> None:
        self.cfg.blocks[self.cur].stmts.append(item)

    def _emit_expr(self, expr: ast.expr) -> None:
        wrapper = ast.Expr(value=expr)
        ast.copy_location(wrapper, expr)
        self._emit(wrapper)

    def _body(self, stmts: list[ast.stmt], loops) -> None:
        for st in stmts:
            self._stmt(st, loops)

    def _stmt(self, st: ast.stmt, loops) -> None:  # noqa: C901
        cfg = self.cfg
        if isinstance(st, SCOPES):
            return  # nested scopes are analyzed as their own functions
        if isinstance(st, ast.If):
            self._emit_expr(st.test)
            start = self.cur
            then = cfg.new()
            cfg.edge(start, then)
            self.cur = then
            self._body(st.body, loops)
            then_end = self.cur
            other = cfg.new()
            cfg.edge(start, other)
            self.cur = other
            self._body(st.orelse, loops)
            else_end = self.cur
            join = cfg.new()
            cfg.edge(then_end, join)
            cfg.edge(else_end, join)
            self.cur = join
        elif isinstance(st, (ast.While, ast.For, ast.AsyncFor)):
            header = cfg.new()
            cfg.edge(self.cur, header)
            self.cur = header
            if isinstance(st, ast.While):
                self._emit_expr(st.test)
            else:
                self._emit_expr(st.iter)
                if loop_waits_all(st):
                    self._emit(("kill-coll", st.iter.id))  # type: ignore[union-attr]
            body = cfg.new()
            after = cfg.new()
            cfg.edge(header, body)
            cfg.edge(header, after)
            self.cur = body
            self._body(st.body, loops + ((after, header),))
            cfg.edge(self.cur, header)
            self.cur = after
            if st.orelse:
                self._body(st.orelse, loops)
        elif isinstance(st, ast.Try):
            entry = self.cur
            body = cfg.new()
            cfg.edge(entry, body)
            self.cur = body
            self._body(st.body, loops)
            if st.orelse:
                self._body(st.orelse, loops)
            body_end = self.cur
            ends = [body_end]
            for handler in st.handlers:
                hb = cfg.new()
                # An exception may fire before the first statement of the
                # body or after its last — edge from both ends (may analysis).
                cfg.edge(entry, hb)
                cfg.edge(body_end, hb)
                self.cur = hb
                self._body(handler.body, loops)
                ends.append(self.cur)
            join = cfg.new()
            for e in ends:
                cfg.edge(e, join)
            self.cur = join
            if st.finalbody:
                self._body(st.finalbody, loops)
        elif isinstance(st, (ast.With, ast.AsyncWith)):
            for item in st.items:
                self._emit_expr(item.context_expr)
            self._body(st.body, loops)
        elif isinstance(st, (ast.Return, ast.Raise)):
            self._emit(st)
            self.cur = cfg.new()  # unreachable continuation
        elif isinstance(st, (ast.Break, ast.Continue)):
            if loops:
                after, header = loops[-1]
                cfg.edge(self.cur, after if isinstance(st, ast.Break) else header)
            self.cur = cfg.new()  # unreachable continuation
        else:
            self._emit(st)


def build_cfg(fn: ast.FunctionDef) -> CFG:
    """Public entry: the CFG of one function body."""
    return _CFGBuilder().build(fn)


# -------------------------------------------------- SPMD-BUFFER-REUSE

# A live request fact: (key, buffer names, isend line).
#   key = ("var", name)   — request bound to a variable
#   key = ("coll", name)  — request appended to a list variable
_LiveReq = tuple


def _payload_names(expr: ast.expr) -> frozenset[str]:
    """Base names whose storage the payload expression directly references.

    Only *direct* references count (``buf``, ``buf[i:]``, ``obj.buf``,
    tuples/lists of those) — arithmetic like ``buf + 1`` materializes a
    temporary, so later writes to ``buf`` are harmless.
    """
    names: set[str] = set()

    def base(e: ast.expr) -> None:
        while isinstance(e, (ast.Subscript, ast.Attribute, ast.Starred)):
            e = e.value
        if isinstance(e, ast.Name):
            names.add(e.id)

    if isinstance(expr, (ast.Tuple, ast.List)):
        for elt in expr.elts:
            base(elt)
    else:
        base(expr)
    return frozenset(names)


def _isend_call(ctx: FunctionContext, expr: ast.expr) -> ast.Call | None:
    if isinstance(expr, ast.Call) and ctx.is_comm_call(expr, frozenset({"isend"})):
        return expr
    return None


def _wait_kills(stmt: ast.stmt) -> tuple[set, set]:
    """Names whose requests complete in this statement: (vars, collections)."""
    var_kills: set[str] = set()
    coll_kills: set[str] = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Call):
            names, collections = wait_targets(n)
            var_kills.update(names)
            if collections:
                coll_kills.update(names)
    return var_kills, coll_kills


def _mutated_names(stmt: ast.stmt) -> list[tuple[str, str]]:
    """(name, how) pairs for every in-place write in the statement."""
    out: list[tuple[str, str]] = []

    def sub_base(target: ast.expr) -> str | None:
        while isinstance(target, (ast.Subscript, ast.Attribute)):
            target = target.value
        return target.id if isinstance(target, ast.Name) else None

    if isinstance(stmt, ast.Assign):
        for tgt in stmt.targets:
            elts = tgt.elts if isinstance(tgt, (ast.Tuple, ast.List)) else [tgt]
            for t in elts:
                if isinstance(t, ast.Subscript):
                    name = sub_base(t)
                    if name:
                        out.append((name, f"{name}[...] = ..."))
    elif isinstance(stmt, ast.AugAssign):
        name = sub_base(stmt.target)
        if name:
            op = type(stmt.op).__name__
            out.append((name, f"augmented assignment ({op}) writes in place"))
    for n in ast.walk(stmt):
        if not isinstance(n, ast.Call):
            continue
        func = n.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATOR_METHODS
            and isinstance(func.value, ast.Name)
        ):
            out.append((func.value.id, f".{func.attr}() mutates in place"))
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in _NP_INPLACE_FUNCS
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
            and n.args
        ):
            name = sub_base(n.args[0])
            if name:
                out.append((name, f"np.{func.attr}() writes the first argument"))
    return out


def _rebound_names(stmt: ast.stmt) -> set[str]:
    """Plain-name rebindings: the name no longer refers to the sent buffer."""
    out: set[str] = set()
    if isinstance(stmt, ast.Assign):
        for tgt in stmt.targets:
            elts = tgt.elts if isinstance(tgt, (ast.Tuple, ast.List)) else [tgt]
            out.update(t.id for t in elts if isinstance(t, ast.Name))
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        if stmt.value is not None:
            out.add(stmt.target.id)
    return out


def _gen_requests(ctx: FunctionContext, stmt: ast.stmt) -> list[_LiveReq]:
    """Request facts born in this statement."""
    gens: list[_LiveReq] = []
    for name, value in bound_pairs(stmt):
        call = _isend_call(ctx, value)
        if call is not None and call.args:
            gens.append((("var", name), _payload_names(call.args[0]), call.lineno))
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "append"
            and isinstance(call.func.value, ast.Name)
            and call.args
        ):
            inner = _isend_call(ctx, call.args[0])
            if inner is not None and inner.args:
                gens.append(
                    (
                        ("coll", call.func.value.id),
                        _payload_names(inner.args[0]),
                        inner.lineno,
                    )
                )
    return gens


def _transfer(
    ctx: FunctionContext,
    items: list,
    state: frozenset,
    report=None,
) -> frozenset:
    """Run one block's statements over a live-request set."""
    live = set(state)
    for item in items:
        if isinstance(item, tuple) and item and item[0] == "kill-coll":
            name = item[1]
            live = {r for r in live if r[0] != ("coll", name)}
            continue
        stmt = item
        var_kills, coll_kills = _wait_kills(stmt)
        if var_kills or coll_kills:
            live = {
                r
                for r in live
                if not (
                    (r[0][0] == "var" and r[0][1] in var_kills)
                    or (r[0][0] == "coll" and r[0][1] in coll_kills)
                )
            }
        if report is not None:
            for name, how in _mutated_names(stmt):
                for req in sorted(live, key=lambda r: (r[0], r[2])):
                    if name in req[1]:
                        report(stmt, name, how, req)
        rebound = _rebound_names(stmt)
        if rebound:
            live = {
                (key, names - rebound, line) if names & rebound else (key, names, line)
                for key, names, line in live
            }
        for gen in _gen_requests(ctx, stmt):
            key = gen[0]
            if key[0] == "var":
                # rebinding the request variable forgets the old request
                live = {r for r in live if r[0] != key}
            live.add(gen)
    return frozenset(live)


def _buffer_reuse(mod: ModuleInfo, ctx: FunctionContext) -> list[Finding]:
    if not ctx.comm_calls(("isend",)):
        return []  # no request is ever born, so no buffer is ever in flight
    cfg = build_cfg(ctx.node)
    preds = cfg.preds()
    n = len(cfg.blocks)
    out_states: list[frozenset] = [frozenset()] * n

    changed = True
    while changed:
        changed = False
        for i, block in enumerate(cfg.blocks):
            ins: frozenset = frozenset().union(*(out_states[p] for p in preds[i])) if preds[i] else frozenset()
            out = _transfer(ctx, block.stmts, ins)
            if out != out_states[i]:
                out_states[i] = out
                changed = True

    findings: list[Finding] = []
    seen: set[tuple] = set()

    def report(stmt, name: str, how: str, req: _LiveReq) -> None:
        key = (stmt.lineno, name, req[2])
        if key in seen:
            return
        seen.add(key)
        findings.append(
            Finding(
                mod.path,
                stmt.lineno,
                RULE_BUFFER_REUSE,
                f"'{name}' is written ({how}) while an isend() of it from "
                f"line {req[2]} is still in flight; real MPI owns the buffer "
                "until the request's wait() — wait first or send a copy",
            )
        )

    for i, block in enumerate(cfg.blocks):
        ins = frozenset().union(*(out_states[p] for p in preds[i])) if preds[i] else frozenset()
        _transfer(ctx, block.stmts, ins, report=report)
    return findings


# ------------------------------------------------- SPMD-SHAPE-MISMATCH


def _size_args(call: ast.Call) -> list[ast.expr]:
    """The size/shape argument(s) of a numpy constructor call."""
    args = list(call.args[:1])
    for kw in call.keywords:
        if kw.arg in ("shape", "N", "num"):
            args.append(kw.value)
    return args


def rank_sized_expr(
    expr: ast.expr, ctx: FunctionContext, rank_sized: set[str]
) -> bool:
    """Does the expression build a container whose *length* is rank-dependent?"""

    def tainted_size(e: ast.expr) -> bool:
        return ctx.is_rank_expr(e) or bool(ctx.reads(e)[0] & rank_sized)

    if isinstance(expr, ast.Name):
        return expr.id in rank_sized
    if isinstance(expr, ast.Call):
        func = expr.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SIZE_CONSTRUCTORS
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            return any(tainted_size(a) for a in _size_args(expr))
        if isinstance(func, ast.Name) and func.id in ("list", "range") and expr.args:
            return any(tainted_size(a) for a in expr.args)
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Mult):
        for seq, count in ((expr.left, expr.right), (expr.right, expr.left)):
            if isinstance(seq, (ast.List, ast.Tuple)) and tainted_size(count):
                return True
    if isinstance(expr, ast.Subscript) and isinstance(expr.slice, ast.Slice):
        bounds = [b for b in (expr.slice.lower, expr.slice.upper) if b is not None]
        return any(tainted_size(b) for b in bounds)
    if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
        return any(
            tainted_size(gen.iter) for gen in expr.generators
        )
    return False


def rank_sized_names(
    ctx: FunctionContext, extra_sized: frozenset[str] = frozenset()
) -> set[str]:
    """Names bound to rank-sized containers (assignment fixpoint).

    ``extra_sized`` seeds names known to be rank-sized from evidence the
    local analysis cannot see — e.g. the result of a helper call whose
    summary says it returns a rank-dependent-length container.
    """
    rank_sized: set[str] = set(extra_sized)
    for _ in range(4):
        changed = False
        for name, value, _ in ctx.bindings:
            if name not in rank_sized and rank_sized_expr(value, ctx, rank_sized):
                rank_sized.add(name)
                changed = True
        if not changed:
            break
    return rank_sized


def uniform_collective_hits(
    ctx: FunctionContext, rank_sized: set[str]
) -> list[tuple[str, int, ast.expr]]:
    """``(verb, line, payload)`` for every uniform-shape collective whose
    payload length is rank-dependent under the given rank-sized name set."""
    hits: list[tuple[str, int, ast.expr]] = []
    for call in ctx.comm_calls(_UNIFORM_COLLECTIVES):
        n = call.node
        if not n.args:
            continue
        payload = n.args[0]
        if not rank_sized_expr(payload, ctx, rank_sized):
            continue
        verb = n.func.attr  # type: ignore[union-attr]
        hits.append((verb, n.lineno, payload))
    return hits


def _shape_mismatch(mod: ModuleInfo, ctx: FunctionContext) -> list[Finding]:
    # Fixpoint over assignments: names bound to rank-sized containers.
    rank_sized = rank_sized_names(ctx)

    findings: list[Finding] = []
    for verb, line, payload in uniform_collective_hits(ctx, rank_sized):
        desc = (
            f"'{payload.id}'" if isinstance(payload, ast.Name) else "the payload"
        )
        findings.append(
            Finding(
                mod.path,
                line,
                RULE_SHAPE_MISMATCH,
                f"{desc} passed to '{verb}()' has a rank-dependent length; "
                f"'{verb}' requires the same shape on every rank — pad to a "
                "common size or use alltoallv/gather",
            )
        )
    return findings


# ----------------------------------------------------------- entry point


def check_function(mod: ModuleInfo, ctx: FunctionContext) -> list[Finding]:
    """All dataflow rules over one rank function."""
    findings = _buffer_reuse(mod, ctx)
    findings.extend(_shape_mismatch(mod, ctx))
    return findings
