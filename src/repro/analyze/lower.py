"""Lower one module, once, into the facts every rule reads.

:func:`lower_module` is the only traversal of a whole module: one
scope-aware walk that lists, in source order, every function definition
(with its dotted scope name and owning class), the import tables, and the
calls no function body owns (module level, class bodies, decorators,
defaults).  It lowers each definition as it meets it:

:func:`lower` makes a single ordered walk over a function's *own*
statements — nested ``def``/``class`` bodies belong to their own
lowering — and records, in source order:

* ``stmts`` — each own statement exactly once, whatever it nests in
  (``try``/``except``/``else``/``finally``, ``with``, ``match`` cases, loop
  ``else`` arms);
* ``bindings`` — ``name = value`` / ``name: T = value`` pairs, and the
  element-wise pairs of a tuple-to-tuple assignment;
* ``returns`` — the value expression of every ``return``;
* ``calls`` — every :class:`ast.Call` once, with its enclosing
  ``for``/``while`` loops and the chain of control-flow *guards* it sits
  under;
* ``scopes`` — the nested ``def``/``class`` statements it stepped over;
* ``loads`` and ``waited`` — how often each name is read, and which names
  have their requests completed (``wait``/``test``/``waitall``/drain loop).

All of that is syntactic.  What depends on *which names are communicators*
— the alias set, rank taint, and therefore the line at which a call's
guards become rank-divergent — is resolved per :class:`FunctionContext`;
:meth:`FunctionContext.with_comms` and :meth:`FunctionContext.assuming`
derive another view that shares the same lowering instead of walking again.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "SCOPES",
    "REQUEST_METHODS",
    "TAG_ARG_INDEX",
    "TAG_EXEMPT",
    "Binding",
    "CallFact",
    "FunctionContext",
    "Definition",
    "ModuleLowering",
    "lower",
    "lower_module",
    "LOCALS_SEP",
    "dotted_name",
    "tag_expr",
    "wait_targets",
    "loop_waits_all",
    "bound_pairs",
]

#: statements that open a scope of their own
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: separator marking a nested (closure) scope inside a dotted function name
LOCALS_SEP = "<locals>"

#: comm methods returning a Request that somebody must complete
REQUEST_METHODS = frozenset({"isend", "irecv"})

#: positional index of the ``tag`` argument per p2p method
TAG_ARG_INDEX = {"send": 2, "isend": 2, "recv": 1, "irecv": 1, "iprobe": 1, "sendrecv": 3}

#: tag values excluded from collision checks (default / wildcard)
TAG_EXEMPT = frozenset({0, -1})

#: parameter names / annotations treated as communicator handles
_COMM_PARAM_NAMES = frozenset({"comm", "sub", "subcomm", "intercomm"})

_RANK_ATTRS = ("rank", "world_rank")

#: one control-flow condition a node sits under: (test expression, line)
Guard = tuple[ast.expr, int]


# ------------------------------------------------------- syntactic helpers


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a name, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def tag_expr(call: ast.Call) -> ast.expr | None:
    """The ``tag`` argument of a p2p method call, keyword or positional."""
    for kw in call.keywords:
        if kw.arg == "tag":
            return kw.value
    idx = TAG_ARG_INDEX.get(call.func.attr)  # type: ignore[union-attr]
    if idx is not None and len(call.args) > idx:
        return call.args[idx]
    return None


def wait_targets(call: ast.Call) -> tuple[list[str], bool]:
    """Names whose requests ``call`` completes, and whether they name
    collections (``waitall(reqs)``) rather than single requests."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("wait", "test"):
        return ([func.value.id] if isinstance(func.value, ast.Name) else []), False
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "waitall":
        return [a.id for a in call.args if isinstance(a, ast.Name)], True
    return [], False


def loop_waits_all(st: ast.stmt) -> bool:
    """``for r in reqs: ... r.wait()/r.test() ...`` drains the whole list."""
    if not (
        isinstance(st, (ast.For, ast.AsyncFor))
        and isinstance(st.target, ast.Name)
        and isinstance(st.iter, ast.Name)
    ):
        return False
    return any(
        isinstance(n, ast.Call) and wait_targets(n) == ([st.target.id], False)
        for body_st in st.body
        for n in ast.walk(body_st)
    )


def bound_pairs(st: ast.stmt) -> list[tuple[str, ast.expr]]:
    """``(name, value)`` for every name the statement binds to an expression:
    ``x = v``, ``x: T = v``, and one pair per element of ``a, b = v, w``."""
    if isinstance(st, ast.AnnAssign):
        tgt, val = st.target, st.value
    elif isinstance(st, ast.Assign) and len(st.targets) == 1:
        tgt, val = st.targets[0], st.value
    else:
        return []
    if isinstance(tgt, ast.Name) and val is not None:
        return [(tgt.id, val)]
    if (
        isinstance(tgt, ast.Tuple)
        and isinstance(val, ast.Tuple)
        and len(tgt.elts) == len(val.elts)
    ):
        return [
            (t.id, v) for t, v in zip(tgt.elts, val.elts) if isinstance(t, ast.Name)
        ]
    return []


def _terminates(stmts: list[ast.stmt]) -> bool:
    """Does the branch end the surrounding iteration/function for sure?"""
    return any(
        isinstance(s, (ast.Return, ast.Break, ast.Continue, ast.Raise))
        for s in stmts
    )


# ------------------------------------------------------------------- facts


class Binding(NamedTuple):
    name: str
    value: ast.expr
    stmt: ast.stmt


class CallFact(NamedTuple):
    node: ast.Call
    loops: tuple[ast.stmt, ...]  #: enclosing ``for``/``while``, outermost first
    guards: tuple[Guard, ...]  #: conditions it sits under, outermost first


@dataclass
class FunctionContext:
    """One function's lowering, seen with a given set of communicators."""

    node: ast.FunctionDef
    comm_names: set[str]
    tainted: set[str]
    stmts: list[ast.stmt] = field(default_factory=list)
    bindings: list[Binding] = field(default_factory=list)
    returns: list[ast.expr] = field(default_factory=list)
    calls: list[CallFact] = field(default_factory=list)
    scopes: list[ast.stmt] = field(default_factory=list)
    loads: dict[str, int] = field(default_factory=dict)
    waited: set[str] = field(default_factory=set)
    #: id(expr) -> (names mentioned, names whose .rank is read); shared by
    #: every view of this lowering because it is purely syntactic
    _reads: dict[int, tuple[frozenset[str], frozenset[str]]] = field(
        default_factory=dict, repr=False
    )

    # -- communicator views

    def with_comms(self, extra: Iterable[str]) -> "FunctionContext":
        """The same lowering with ``extra`` parameter names known to be
        communicators from whole-program evidence (e.g. the first parameter
        of a function passed to ``run_spmd``)."""
        comm, tainted = self._resolve(set(extra))
        return replace(self, comm_names=comm, tainted=tainted)

    def assuming(self, tainted_name: str) -> "FunctionContext":
        """The same view with one more name treated as rank-tainted."""
        return replace(self, tainted=self.tainted | {tainted_name})

    def _resolve(self, comm: set[str]) -> tuple[set[str], set[str]]:
        """Communicator aliases, then rank-tainted names (two fixpoints)."""
        args = self.node.args
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if a.arg in _COMM_PARAM_NAMES or (
                a.annotation is not None and "Comm" in ast.unparse(a.annotation)
            ):
                comm.add(a.arg)
        tainted: set[str] = set()
        if not comm:
            return comm, tainted

        def is_alias(value: ast.expr) -> bool:
            return (isinstance(value, ast.Name) and value.id in comm) or (
                isinstance(value, ast.Call)
                and self.is_comm_call(value, ("split", "dup"), comm)
            )

        # Communicator handles are never treated as tainted values:
        # collectives over a split/dup'd comm are congruent *within* that
        # comm even though the handle differs across ranks.
        def is_tainted(value: ast.expr) -> bool:
            names, rank_bases = self.reads(value)
            return bool(rank_bases & comm or names & tainted)

        for known, grows in ((comm, is_alias), (tainted, is_tainted)):
            changed = True
            while changed:
                changed = False
                for name, value, _ in self.bindings:
                    if name not in comm and name not in known and grows(value):
                        known.add(name)
                        changed = True
        return comm, tainted

    # -- queries

    def is_comm_call(
        self, call: ast.Call, methods: Iterable[str], comm: set[str] | None = None
    ) -> bool:
        return (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in methods
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id in (self.comm_names if comm is None else comm)
        )

    def comm_calls(self, methods: Iterable[str]) -> list[CallFact]:
        """Own calls of the given methods on a communicator handle."""
        return [c for c in self.calls if self.is_comm_call(c.node, methods)]

    def reads(self, expr: ast.AST) -> tuple[frozenset[str], frozenset[str]]:
        """Names an expression mentions, and names whose ``.rank`` it reads."""
        hit = self._reads.get(id(expr))
        if hit is None:
            names: set[str] = set()
            rank_bases: set[str] = set()
            for n in ast.walk(expr):
                if isinstance(n, ast.Name):
                    names.add(n.id)
                elif (
                    isinstance(n, ast.Attribute)
                    and n.attr in _RANK_ATTRS
                    and isinstance(n.value, ast.Name)
                ):
                    rank_bases.add(n.value.id)
            hit = self._reads[id(expr)] = (frozenset(names), frozenset(rank_bases))
        return hit

    def is_rank_expr(self, expr: ast.AST) -> bool:
        """Does the expression read ``comm.rank`` or a rank-tainted name?"""
        if not (self.comm_names or self.tainted):
            return False
        names, rank_bases = self.reads(expr)
        return bool(rank_bases & self.comm_names or names & self.tainted)

    def divergence(self, call: CallFact) -> int | None:
        """Line where rank-dependent control flow around ``call`` begins, or
        ``None`` when every rank reaches it."""
        for test, line in call.guards:
            if self.is_rank_expr(test):
                return line
        return None


# ----------------------------------------------------------------- the walk


def _body(
    ctx: FunctionContext,
    stmts: list[ast.stmt],
    guards: tuple[Guard, ...],
    loops: tuple[ast.stmt, ...],
) -> None:
    """The one own-statement walk: each statement once, in source order."""
    for st in stmts:
        if isinstance(st, SCOPES):
            ctx.scopes.append(st)
            continue
        ctx.stmts.append(st)
        ctx.bindings.extend(Binding(n, v, st) for n, v in bound_pairs(st))
        if isinstance(st, ast.Return) and st.value is not None:
            ctx.returns.append(st.value)
        if loop_waits_all(st):
            ctx.waited.add(st.iter.id)  # type: ignore[union-attr]
        if isinstance(st, ast.If):
            _expr(ctx, st.test, guards, loops)
            inner = guards + ((st.test, st.lineno),)
            _body(ctx, st.body, inner, loops)
            _body(ctx, st.orelse, inner, loops)
            # Early exit: `if cond: return/continue` puts every later
            # sibling under the same condition.
            if _terminates(st.body) != _terminates(st.orelse):
                guards = inner
        elif isinstance(st, (ast.For, ast.While)):
            test = st.test if isinstance(st, ast.While) else st.iter
            if isinstance(st, ast.For):
                _expr(ctx, st.target, guards, loops)
            _expr(ctx, test, guards, loops)
            _body(ctx, st.body, guards + ((test, st.lineno),), loops + (st,))
            _body(ctx, st.orelse, guards, loops)
        else:
            _children(ctx, st, guards, loops)


def _children(ctx: FunctionContext, node: ast.AST, guards, loops) -> None:
    """Generic descent: statement lists are walked as bodies (reaching
    ``except`` handlers, ``match`` cases, ``with`` and ``try`` arms), anything
    else as part of the current statement."""
    for _, value in ast.iter_fields(node):
        items = value if isinstance(value, list) else [value]
        if items and isinstance(items[0], ast.stmt):
            _body(ctx, items, guards, loops)
            continue
        for item in items:
            if isinstance(item, ast.expr):
                _expr(ctx, item, guards, loops)
            elif isinstance(item, ast.AST):
                _children(ctx, item, guards, loops)


def _expr(ctx: FunctionContext, node: ast.expr, guards, loops) -> None:
    if isinstance(node, ast.Call):
        ctx.calls.append(CallFact(node, loops, guards))
        ctx.waited.update(wait_targets(node)[0])
    elif isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load):
            ctx.loads[node.id] = ctx.loads.get(node.id, 0) + 1
        return
    elif isinstance(node, ast.IfExp):
        _expr(ctx, node.test, guards, loops)
        inner = guards + ((node.test, node.lineno),)
        _expr(ctx, node.body, inner, loops)
        _expr(ctx, node.orelse, inner, loops)
        return
    _children(ctx, node, guards, loops)


def lower(fn: ast.FunctionDef) -> FunctionContext:
    """Lower ``fn`` and resolve the communicators its signature declares."""
    ctx = FunctionContext(fn, set(), set())
    _body(ctx, fn.body, (), ())
    ctx.comm_names, ctx.tainted = ctx._resolve(set())
    return ctx


# ---------------------------------------------------------- the module walk


class Definition(NamedTuple):
    dotted: str  #: scope-qualified name (``f``, ``C.m``, ``f.<locals>.g``)
    cls: str | None  #: owning class name for methods
    ctx: FunctionContext


@dataclass
class ModuleLowering:
    """One module's definitions, imports and unowned calls, in source order."""

    functions: list[Definition] = field(default_factory=list)
    #: local alias -> fully dotted module it names (``import a.b as x``)
    import_modules: dict[str, str] = field(default_factory=dict)
    #: local name -> (module, symbol) (``from a.b import f as g``)
    import_symbols: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: ``(scope, call)`` for every call outside all function bodies
    calls: list[tuple[str, ast.Call]] = field(default_factory=list)

    def all_calls(self) -> Iterator[tuple[str, ast.Call]]:
        """Every call of the module with the dotted scope it is made from."""
        yield from self.calls
        for d in self.functions:
            scope = f"{d.dotted}.{LOCALS_SEP}"
            for fact in d.ctx.calls:
                yield scope, fact.node


def _resolve_relative(modname: str, module: str | None, level: int) -> str | None:
    """Absolute module named by a ``from``-import inside ``modname``."""
    if level == 0:
        return module
    parts = modname.split(".")
    if level > len(parts):
        return None
    return ".".join(parts[: len(parts) - level] + ([module] if module else [])) or None


def lower_module(tree: ast.Module, modname: str = "") -> ModuleLowering:
    """Walk ``tree`` once; relative imports resolve against ``modname``."""
    low = ModuleLowering()

    def imports(node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                low.import_modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            # an import climbing above ``modname`` keeps its relative tail:
            # it names no module of the fileset, but ``..mpi.tags`` is still
            # recognisably a tags import
            target = _resolve_relative(modname, node.module, node.level) or node.module
            for alias in node.names:
                if target is not None and alias.name != "*":
                    low.import_symbols[alias.asname or alias.name] = (target, alias.name)

    def scan(nodes: Iterable[ast.AST], scope: tuple[str, ...], cls: str | None) -> None:
        """Code no function body owns: every node is visited."""
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                scan(ast.iter_child_nodes(node), scope + (node.name,), node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                define(node, scope, cls)
            else:
                if isinstance(node, ast.Call):
                    low.calls.append((".".join(scope), node))
                imports(node)
                scan(ast.iter_child_nodes(node), scope, cls)

    def define(
        fn: ast.FunctionDef | ast.AsyncFunctionDef, scope: tuple[str, ...], cls: str | None
    ) -> None:
        # decorators, defaults and annotations run in the enclosing scope
        scan([*fn.decorator_list, fn.args, *filter(None, [fn.returns])], scope, cls)
        inner = scope + (fn.name, LOCALS_SEP)
        if isinstance(fn, ast.AsyncFunctionDef):
            # the SPMD runtime is synchronous: an async body is lowered by
            # nobody, but the definitions nested in it are still listed
            scan(fn.body, inner, None)
            return
        ctx = lower(fn)
        low.functions.append(Definition(".".join(scope + (fn.name,)), cls, ctx))
        for st in ctx.stmts:
            imports(st)
        scan(ctx.scopes, inner, None)  # methods of a local class are closures

    scan(tree.body, (), None)
    return low
