"""Whole-program call graph over the analyzed fileset.

The interprocedural rules in :mod:`repro.analyze.interproc` need to know
*who calls whom* across every module handed to the analyzer.  This module
provides the two halves of that question:

* **Per-file indexing** — :func:`index_module` reads a module's lowering
  (:func:`repro.analyze.lower.lower_module`) into a :class:`ModuleIndex`:
  every function definition (module-level functions, class methods, and
  nested closures, each with a dotted scope name like
  ``outer.<locals>.inner`` or ``Cls.method``), the module's import
  aliases, and *entry marks* for closures passed to ``run_spmd(p, fn)`` /
  ``rt.run(fn)`` / ``SortConfig(...)`` — their first parameter is a
  communicator even when it is not named ``comm``.

* **Whole-program resolution** — :class:`CallGraph` stitches the
  per-module indexes together: a raw call *spec* recorded at a call site (``("name", "f")``, ``("attr",
  "helpers", "f")``, ``("self", "m")``) resolves through the caller's
  lexical scope chain, then module-level definitions, then the import
  maps.  Unresolvable calls (builtins, third-party code, dynamic
  dispatch) resolve to ``None`` and the analysis stays silent about them
  — every interprocedural rule only fires on edges it can prove.

Strongly connected components (Tarjan) give the bottom-up summary order:
:meth:`CallGraph.sccs_bottom_up` yields SCCs with callees before callers,
so recursion (direct or mutual) becomes a fixpoint within one SCC.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from .astlint import ModuleInfo
from .lower import LOCALS_SEP, ModuleLowering

__all__ = [
    "FunctionNode",
    "ModuleIndex",
    "CallGraph",
    "index_module",
]

#: callables whose Name arguments are SPMD entry points: name -> positional
#: index of the rank function in the call's arguments
_ENTRY_SINKS = {"run_spmd": 1, "run": 0}

#: constructors whose bare-Name arguments are treated as rank functions
_ENTRY_CTORS = frozenset({"SortConfig"})


@dataclass
class FunctionNode:
    """One function definition, addressable as ``modpath::dotted``."""

    dotted: str  #: scope-qualified name inside the module (``f``, ``C.m``, ``f.<locals>.g``)
    name: str
    line: int
    params: list[str]
    cls: str | None = None  #: owning class name for methods
    is_entry: bool = False  #: passed to run_spmd/rt.run/SortConfig somewhere in this module
    node: ast.FunctionDef | None = field(default=None, compare=False, repr=False)


@dataclass
class ModuleIndex:
    """Functions and import aliases of one module."""

    path: str
    modname: str
    functions: dict[str, FunctionNode] = field(default_factory=dict)
    #: local alias -> fully dotted module it names (``import a.b as x``)
    import_modules: dict[str, str] = field(default_factory=dict)
    #: local name -> (module, symbol) (``from a.b import f as g``)
    import_symbols: dict[str, tuple[str, str]] = field(default_factory=dict)


# ------------------------------------------------------------ per-file index


def _mark_entries(low: ModuleLowering, index: ModuleIndex) -> None:
    """Flag functions passed (by name) to run_spmd / rt.run / SortConfig.

    The mark means "the first parameter of this function is a communicator
    handle" — :mod:`repro.analyze.interproc` uses it to build summary
    contexts for rank functions whose comm parameter has a non-standard
    name (``def body(c, xs)`` passed to ``run_spmd(4, body)``).  It is
    module-local, so a name match against the nearest definition in any
    enclosing scope suffices.
    """
    scopes = _scope_table(index)
    for scope, call in low.all_calls():
        func = call.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        candidates: list[ast.expr] = []
        if callee in _ENTRY_SINKS:
            candidates = call.args[_ENTRY_SINKS[callee] :][:1]
        elif callee in _ENTRY_CTORS:
            candidates = [*call.args, *(kw.value for kw in call.keywords)]
        for cand in candidates:
            if isinstance(cand, ast.Name):
                hit = _lookup_name(scopes, scope, cand.id)
                if hit is not None and hit.params:
                    hit.is_entry = True


def _scope_table(index: ModuleIndex) -> dict[str, dict[str, FunctionNode]]:
    """scope prefix -> {function name -> node} for lexical lookup."""
    table: dict[str, dict[str, FunctionNode]] = {}
    for fn in index.functions.values():
        parent = fn.dotted.rsplit(".", 1)[0] if "." in fn.dotted else ""
        table.setdefault(parent, {})[fn.name] = fn
    return table


def _lookup_name(
    scopes: dict[str, dict[str, FunctionNode]], scope: str, name: str
) -> FunctionNode | None:
    """Resolve a bare name through the lexical scope chain to module level.

    Class bodies are not lexical scopes for the code inside methods — a
    bare ``helper()`` inside a method never means a sibling method — so
    only function scopes (``...<locals>``) and module level are consulted.
    """
    parts = scope.split(".") if scope else []
    while True:
        if not parts or parts[-1] == LOCALS_SEP:
            hit = scopes.get(".".join(parts), {}).get(name)
            if hit is not None:
                return hit
        if not parts:
            return None
        # step out of one scope level (functions contribute "name.<locals>")
        if len(parts) >= 2 and parts[-1] == LOCALS_SEP:
            del parts[-2:]
        else:
            del parts[-1]


def index_module(mod: ModuleInfo) -> ModuleIndex:
    """Index one lowered module: functions, imports, and entry marks."""
    low = mod.lowering
    index = ModuleIndex(
        mod.path, mod.modname, import_modules=low.import_modules, import_symbols=low.import_symbols
    )
    for dotted, cls, ctx in low.functions:
        fn, args = ctx.node, ctx.node.args
        params = [a.arg for a in [*args.posonlyargs, *args.args]]
        index.functions[dotted] = FunctionNode(
            dotted, fn.name, fn.lineno, params, cls, node=fn
        )
    _mark_entries(low, index)
    return index


# ------------------------------------------------------- program resolution


class CallGraph:
    """Cross-module function table and call-spec resolution.

    Functions are addressed by ``"path::dotted"`` keys — paths are unique
    even when module *names* collide (two ``conftest.py`` files).  Import
    resolution goes through module names; on a name collision the first
    module indexed wins and later ones are unreachable via imports
    (conservative: unresolved calls produce no findings).
    """

    def __init__(self, indexes: list[ModuleIndex]) -> None:
        self.indexes = indexes
        self.by_path: dict[str, ModuleIndex] = {ix.path: ix for ix in indexes}
        self.by_modname: dict[str, ModuleIndex] = {}
        for ix in indexes:
            self.by_modname.setdefault(ix.modname, ix)
        self.functions: dict[str, FunctionNode] = {}
        self._scopes: dict[str, dict[str, dict[str, FunctionNode]]] = {}
        for ix in indexes:
            self._scopes[ix.path] = _scope_table(ix)
            for dotted, fn in ix.functions.items():
                self.functions[f"{ix.path}::{dotted}"] = fn
        self.edges: dict[str, set[str]] = {k: set() for k in self.functions}

    # -- addressing helpers

    def key(self, path: str, dotted: str) -> str:
        return f"{path}::{dotted}"

    def add_edge(self, caller: str, callee: str) -> None:
        if caller in self.edges and callee in self.functions:
            self.edges[caller].add(callee)

    # -- resolution

    def resolve(
        self, path: str, caller_dotted: str, spec: list[str] | tuple[str, ...]
    ) -> str | None:
        """Resolve one call spec from inside ``path::caller_dotted``.

        Specs come from :mod:`repro.analyze.interproc` call-site records:

        * ``("name", f)`` — bare name: lexical scope chain, then module
          level, then ``from m import f`` symbol imports.
        * ``("attr", prefix, f)`` — dotted call ``prefix.f(...)`` where
          ``prefix`` is a module alias (``import a.b as prefix``) or a
          dotted module path.
        * ``("self", m)`` — method call on ``self`` inside a class body.
        """
        ix = self.by_path.get(path)
        if ix is None:
            return None
        kind = spec[0]
        if kind == "name":
            name = spec[1]
            # lookup starts *inside* the caller so its own closures win
            scope = f"{caller_dotted}.{LOCALS_SEP}"
            hit = _lookup_name(self._scopes[path], scope, name)
            if hit is not None:
                return self.key(path, hit.dotted)
            sym = ix.import_symbols.get(name)
            if sym is not None:
                return self._module_symbol(*sym)
            return None
        if kind == "attr":
            prefix, name = spec[1], spec[2]
            target = ix.import_modules.get(prefix)
            if target is None and prefix in ix.import_symbols:
                # ``from a import b`` where b is itself a module
                mod, sym = ix.import_symbols[prefix]
                target = f"{mod}.{sym}"
            if target is None and prefix in self.by_modname:
                target = prefix
            if target is None:
                return None
            return self._module_symbol(target, name)
        if kind == "self":
            name = spec[1]
            fn = ix.functions.get(caller_dotted)
            if fn is None or fn.cls is None:
                return None
            # the method's class prefix is everything up to "<Cls>.<name>"
            prefix = caller_dotted.rsplit(".", 1)[0]
            hit = ix.functions.get(f"{prefix}.{name}")
            if hit is not None:
                return self.key(path, hit.dotted)
            return None
        return None

    def _module_symbol(self, module: str, symbol: str) -> str | None:
        ix = self.by_modname.get(module)
        if ix is None:
            return None
        hit = ix.functions.get(symbol)
        if hit is not None:
            return self.key(ix.path, hit.dotted)
        return None

    # -- SCC ordering

    def sccs_bottom_up(self) -> Iterator[list[str]]:
        """Tarjan SCCs in reverse topological order (callees first).

        Tarjan emits each SCC only after every SCC it can still reach has
        been emitted, so iterating in emission order processes callees
        before their callers — exactly the bottom-up summary order.
        """
        index_of: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        out: list[list[str]] = []

        def strongconnect(v: str) -> None:
            # iterative Tarjan: (node, iterator over successors)
            work: list[tuple[str, Iterator[str]]] = [(v, iter(sorted(self.edges[v])))]
            index_of[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            while work:
                node, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index_of:
                        index_of[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(sorted(self.edges[w]))))
                        advanced = True
                        break
                    if w in on_stack:
                        low[node] = min(low[node], index_of[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index_of[node]:
                    scc: list[str] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == node:
                            break
                    out.append(sorted(scc))

        for v in sorted(self.functions):
            if v not in index_of:
                strongconnect(v)
        yield from out
