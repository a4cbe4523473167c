"""Per-function summaries, and the whole-program rules joined over them.

The per-function rules stop at the function boundary, so exactly the helper
shapes that multi-level sorting introduces — a helper that creates an
``isend`` and returns the request, a wrapper that threads a tag parameter
into a ``send``, a rank-dependent partition size computed in one function
and fed to a collective in another — are invisible to them.  This module
closes that gap in two phases:

**Summaries (per file).**  :func:`summarize_module` reads each
function's lowering (:mod:`repro.analyze.lower`) into a
:class:`FunctionSummary`: which requests escape
through the return value, whether the return value is rank-tainted or a
rank-sized container, which parameters flow into p2p ``tag`` arguments,
every collective issued on a communicator handle, and every call site with
its rank-divergence line plus enough caller-local facts (is the result
waited? returned? fed to a uniform collective as a size?) that the
whole-program phase never needs an AST.

**Whole-program join.**  :class:`Program` resolves every call site once
through :class:`repro.analyze.callgraph.CallGraph` and propagates summaries
bottom-up over SCCs (a fixpoint within each SCC handles recursion, e.g.
AMS-style group-recursive phases calling shared collective helpers).  The
four interprocedural rules (``RULES`` entries of layer ``inter``) are judged
here.

Everything is a *may* analysis over edges the call graph can prove;
unresolvable calls (dynamic dispatch, third-party code) stay silent.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, TypeVar

from .astlint import (
    COLLECTIVE_METHODS,
    P2P_METHODS,
    Finding,
    ModuleInfo,
)
from .callgraph import CallGraph, FunctionNode, ModuleIndex, index_module
from .dataflow import rank_sized_expr, rank_sized_names, uniform_collective_hits
from .lower import (
    LOCALS_SEP,
    REQUEST_METHODS,
    TAG_EXEMPT,
    FunctionContext,
    dotted_name,
    tag_expr,
)

_T = TypeVar("_T")

__all__ = [
    "RULE_ESCAPED_REQUEST",
    "RULE_INTERPROC_TAG",
    "RULE_INTERPROC_DIV",
    "RULE_RANK_TAINT_SHAPE",
    "INTERPROC_RULES",
    "CallSite",
    "FunctionSummary",
    "ModuleSummary",
    "summarize_module",
    "Program",
    "check_program",
]

RULE_ESCAPED_REQUEST = "SPMD-ESCAPED-REQUEST"
RULE_INTERPROC_TAG = "SPMD-INTERPROC-TAG-COLLISION"
RULE_INTERPROC_DIV = "SPMD-INTERPROC-DIV-COLLECTIVE"
RULE_RANK_TAINT_SHAPE = "SPMD-RANK-TAINT-SHAPE"

INTERPROC_RULES = (
    RULE_ESCAPED_REQUEST,
    RULE_INTERPROC_TAG,
    RULE_INTERPROC_DIV,
    RULE_RANK_TAINT_SHAPE,
)


# ------------------------------------------------------------- summary IR


@dataclass
class CallSite:
    """One call to a (potentially) user-defined function, caller's view."""

    spec: tuple[str, ...]  #: ("name", f) | ("attr", prefix, f) | ("self", m)
    display: str  #: source spelling for messages, e.g. ``helpers.send_rows``
    line: int
    div_line: int | None = None  #: rank-divergence start in the caller, if any
    pos_const: dict[int, int] = field(default_factory=dict)
    kw_const: dict[str, int] = field(default_factory=dict)
    pos_taint: list[int] = field(default_factory=list)
    kw_taint: list[str] = field(default_factory=list)
    pos_names: dict[int, str] = field(default_factory=dict)
    kw_names: dict[str, str] = field(default_factory=dict)
    result: str = "other"  #: discarded | named | returned | other
    result_name: str | None = None
    result_consumed: bool = False  #: the bound name is loaded somewhere
    result_waited: bool = False  #: wait()/test()/waitall()/drain loop
    result_returned: bool = False  #: result flows into the caller's return
    #: uniform collectives that become rank-sized if the result is treated
    #: as a rank-tainted scalar / a rank-sized container: [(verb, line)]
    shape_hits_taint: list[tuple[str, int]] = field(default_factory=list)
    shape_hits_sized: list[tuple[str, int]] = field(default_factory=list)

    def bind(
        self, callee: FunctionNode, pos: Mapping[int, _T], kw: Mapping[str, _T]
    ) -> Iterator[tuple[str, _T]]:
        """``(callee parameter, item)`` for each positional/keyword entry of
        this site that lands on a parameter of ``callee``."""
        offset = 1 if self.spec[0] == "self" else 0
        for i, item in pos.items():
            if 0 <= i + offset < len(callee.params):
                yield callee.params[i + offset], item
        for name, item in kw.items():
            if name in callee.params:
                yield name, item


@dataclass
class FunctionSummary:
    """Communication-relevant facts about one function, caller-agnostic."""

    dotted: str
    name: str
    line: int
    params: list[str] = field(default_factory=list)
    comm_params: list[str] = field(default_factory=list)
    #: collectives issued on a communicator handle: [(display, line)]
    collectives: list[tuple[str, int]] = field(default_factory=list)
    #: requests that escape through the return value: [(verb, line)]
    escaping: list[tuple[str, int]] = field(default_factory=list)
    returns_taint: bool = False
    returns_taint_line: int | None = None
    #: params whose taint would reach the return value
    taint_params_to_return: list[str] = field(default_factory=list)
    returns_sized: bool = False
    returns_sized_line: int | None = None
    #: param name -> line of the p2p call whose tag it feeds
    tag_params: dict[str, int] = field(default_factory=dict)
    calls: list[CallSite] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """Everything the whole-program phase needs from one file."""

    index: ModuleIndex
    functions: dict[str, FunctionSummary] = field(default_factory=dict)

    @property
    def path(self) -> str:
        return self.index.path

    @property
    def modname(self) -> str:
        return self.index.modname


# ------------------------------------------------------- per-file summaries


class _Summarizer:
    """Builds one :class:`FunctionSummary` from a function's lowering."""

    def __init__(
        self,
        node_info: FunctionNode,
        ctx: FunctionContext,
        resolvable_names: set[str],
        import_prefixes: set[str],
    ) -> None:
        self.info = node_info
        self.ctx = ctx
        self.resolvable_names = resolvable_names
        self.import_prefixes = import_prefixes
        self.returned_names: frozenset[str] = frozenset().union(
            *(ctx.reads(r)[0] for r in ctx.returns)
        )
        #: the shape rule's verdict without any interprocedural evidence —
        #: what every hypothetical in :meth:`_shape_delta` is compared with
        self.base_sized = rank_sized_names(ctx)
        self.base_hits = {
            (verb, line)
            for verb, line, _ in uniform_collective_hits(ctx, self.base_sized)
        }

    def run(self) -> FunctionSummary:
        summary = FunctionSummary(
            dotted=self.info.dotted,
            name=self.info.name,
            line=self.info.line,
            params=list(self.info.params),
            comm_params=sorted(
                p for p in self.info.params if p in self.ctx.comm_names
            ),
        )
        self._collectives(summary)
        self._escaping(summary)
        self._returns(summary)
        self._tag_params(summary)
        self._call_sites(summary)
        return summary

    # -- local facts

    def _collectives(self, summary: FunctionSummary) -> None:
        ctx = self.ctx
        for call in ctx.comm_calls(COLLECTIVE_METHODS):
            n = call.node
            display = f"{n.func.value.id}.{n.func.attr}"  # type: ignore[union-attr]
            summary.collectives.append((display, n.lineno))
        summary.collectives.sort(key=lambda c: (c[1], c[0]))

    def _escaping(self, summary: FunctionSummary) -> None:
        ctx = self.ctx
        # requests returned directly: `return comm.isend(...)` (or in a tuple)
        for r in ctx.returns:
            parts = r.elts if isinstance(r, (ast.Tuple, ast.List)) else [r]
            for part in parts:
                if isinstance(part, ast.Call) and ctx.is_comm_call(
                    part, REQUEST_METHODS
                ):
                    summary.escaping.append((part.func.attr, part.lineno))  # type: ignore[union-attr]
        # requests bound to a name that is returned and never waited
        for name, value, _ in ctx.bindings:
            if (
                isinstance(value, ast.Call)
                and ctx.is_comm_call(value, REQUEST_METHODS)
                and name in self.returned_names
                and name not in ctx.waited
            ):
                summary.escaping.append((value.func.attr, value.lineno))  # type: ignore[union-attr]
        summary.escaping.sort(key=lambda e: (e[1], e[0]))

    def _returns(self, summary: FunctionSummary) -> None:
        ctx = self.ctx
        for r in ctx.returns:
            if not summary.returns_taint and ctx.is_rank_expr(r):
                summary.returns_taint = True
                summary.returns_taint_line = r.lineno
            if not summary.returns_sized and rank_sized_expr(r, ctx, self.base_sized):
                summary.returns_sized = True
                summary.returns_sized_line = r.lineno
        summary.taint_params_to_return = sorted(
            p
            for p in self.info.params
            if p in self.returned_names and p not in ctx.comm_names
        )

    def _tag_params(self, summary: FunctionSummary) -> None:
        params = set(self.info.params)
        for call in self.ctx.comm_calls(P2P_METHODS):
            expr = tag_expr(call.node)
            if expr is None:
                continue
            for name in self.ctx.reads(expr)[0] & params:
                summary.tag_params.setdefault(name, call.node.lineno)

    # -- call sites

    def _spec_for(self, call: ast.Call) -> tuple[tuple[str, ...], str] | None:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in self.resolvable_names:
                return ("name", func.id), func.id
            return None
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name):
                base = func.value.id
                if base in self.ctx.comm_names:
                    return None  # comm method, not a user call
                if base == "self":
                    return ("self", func.attr), f"self.{func.attr}"
            dotted = dotted_name(func.value)
            if dotted is not None and dotted in self.import_prefixes:
                return ("attr", dotted, func.attr), f"{dotted}.{func.attr}"
        return None

    def _call_sites(self, summary: FunctionSummary) -> None:
        ctx = self.ctx
        # statement-level result classification for top-level call patterns
        kind_of: dict[int, tuple[str, str | None]] = {}
        for st in ctx.stmts:
            if isinstance(st, ast.Expr) and isinstance(st.value, ast.Call):
                kind_of[id(st.value)] = ("discarded", None)
            elif isinstance(st, ast.Return) and isinstance(st.value, ast.Call):
                kind_of[id(st.value)] = ("returned", None)
        for name, value, _ in ctx.bindings:
            if isinstance(value, ast.Call):
                kind_of[id(value)] = ("named", name)

        sites: list[CallSite] = []
        for fact in ctx.calls:
            call = fact.node
            spec_display = self._spec_for(call)
            if spec_display is None:
                continue
            spec, display = spec_display
            kind, name = kind_of.get(id(call), ("other", None))
            site = CallSite(
                spec=spec,
                display=display,
                line=call.lineno,
                div_line=ctx.divergence(fact),
                result=kind,
                result_name=name,
            )
            self._record_args(site, call)
            if kind == "returned":
                site.result_returned = True
            elif kind == "named" and name is not None:
                site.result_consumed = ctx.loads.get(name, 0) > 0
                site.result_waited = name in ctx.waited
                site.result_returned = name in self.returned_names
                site.shape_hits_taint = self._shape_delta(name, as_sized=False)
                site.shape_hits_sized = self._shape_delta(name, as_sized=True)
            sites.append(site)
        sites.sort(key=lambda s: (s.line, s.display))
        summary.calls = sites

    def _record_args(self, site: CallSite, call: ast.Call) -> None:
        ctx = self.ctx
        for i, a in enumerate(call.args):
            if isinstance(a, ast.Starred):
                break  # positions past a star are unknowable
            if isinstance(a, ast.Constant) and isinstance(a.value, int):
                site.pos_const[i] = a.value
            elif isinstance(a, ast.Name):
                site.pos_names[i] = a.id
            if ctx.is_rank_expr(a):
                site.pos_taint.append(i)
        for kw in call.keywords:
            if kw.arg is None:
                continue  # **kwargs
            if isinstance(kw.value, ast.Constant) and isinstance(kw.value.value, int):
                site.kw_const[kw.arg] = kw.value.value
            elif isinstance(kw.value, ast.Name):
                site.kw_names[kw.arg] = kw.value.id
            if ctx.is_rank_expr(kw.value):
                site.kw_taint.append(kw.arg)

    def _shape_delta(self, name: str, as_sized: bool) -> list[tuple[str, int]]:
        """Uniform-collective payload sites that light up when ``name`` is
        treated as rank-tainted (scalar) or rank-sized (container)."""
        ctx = self.ctx
        if as_sized:
            hyp_sized = rank_sized_names(ctx, extra_sized=frozenset({name}))
        else:
            ctx = ctx.assuming(name)
            hyp_sized = rank_sized_names(ctx)
        hits = [
            (verb, line)
            for verb, line, _ in uniform_collective_hits(ctx, hyp_sized)
            if (verb, line) not in self.base_hits
        ]
        hits.sort(key=lambda h: (h[1], h[0]))
        return hits


def _context(
    mod: ModuleInfo, info: FunctionNode, extra_comms: dict[str, set[str]]
) -> FunctionContext:
    """The function's lowering, seen with any evidence-backed extra comms."""
    ctx = mod.context(info.node)
    extra = extra_comms.get(info.dotted)
    return ctx.with_comms(extra) if extra else ctx


def _propagate_comm_params(mod: ModuleInfo, index: ModuleIndex) -> dict[str, set[str]]:
    """Module-local fixpoint: which params are communicators by evidence.

    Seeds: the first parameter of every entry-marked function.  Transfer:
    a comm handle passed positionally (or by keyword) to a module-local
    callee makes the matching callee parameter a comm.  The result feeds
    :meth:`FunctionContext.with_comms` so helpers whose comm parameter has
    a non-standard name (``def helper(c): c.barrier()``) still summarize
    their collectives.  Module-local on purpose — cross-file propagation
    would make per-file summaries depend on other files' content.
    """
    from .callgraph import _lookup_name, _scope_table

    extra: dict[str, set[str]] = {}
    for dotted, info in index.functions.items():
        if info.is_entry and info.params:
            extra.setdefault(dotted, set()).add(info.params[0])
    scopes = _scope_table(index)
    for _ in range(len(index.functions) + 1):
        changed = False
        for dotted, info in index.functions.items():
            if info.node is None:
                continue
            ctx = _context(mod, info, extra)
            if not ctx.comm_names:
                continue
            for call in ctx.calls:
                n = call.node
                if not isinstance(n.func, ast.Name):
                    continue
                hit = _lookup_name(scopes, f"{dotted}.{LOCALS_SEP}", n.func.id)
                if hit is None or not hit.params:
                    continue
                bound: list[str] = []
                for i, a in enumerate(n.args):
                    if (
                        isinstance(a, ast.Name)
                        and a.id in ctx.comm_names
                        and i < len(hit.params)
                    ):
                        bound.append(hit.params[i])
                for kw in n.keywords:
                    if (
                        kw.arg is not None
                        and isinstance(kw.value, ast.Name)
                        and kw.value.id in ctx.comm_names
                        and kw.arg in hit.params
                    ):
                        bound.append(kw.arg)
                if bound:
                    s = extra.setdefault(hit.dotted, set())
                    fresh = set(bound) - s
                    if fresh:
                        s |= fresh
                        changed = True
        if not changed:
            break
    return extra


def summarize_module(mod: ModuleInfo, index: ModuleIndex | None = None) -> ModuleSummary:
    """Summarize every function of a parsed module."""
    if index is None:
        index = index_module(mod)
    resolvable = set(index.import_symbols)
    resolvable.update(fn.name for fn in index.functions.values())
    prefixes = set(index.import_modules) | set(index.import_symbols)
    extra_comms = _propagate_comm_params(mod, index)
    out = ModuleSummary(index=index)
    for dotted, info in index.functions.items():
        if info.node is None:
            continue
        ctx = _context(mod, info, extra_comms)
        out.functions[dotted] = _Summarizer(info, ctx, resolvable, prefixes).run()
    return out


# ------------------------------------------------------ whole-program phase


@dataclass
class _Facts:
    """Propagated (transitive) facts for one function."""

    #: (display, path, line, chain-of-function-names) of a witness collective
    collective: tuple[str, str, int, tuple[str, ...]] | None = None
    #: {(verb, path, line)} of requests escaping through the return value
    escapes: frozenset[tuple[str, str, int]] = frozenset()
    returns_taint: tuple[str, int] | None = None  #: (path, line) witness
    returns_sized: tuple[str, int] | None = None
    #: param name -> (path, line) of the p2p tag use it (transitively) feeds
    tag_params: dict[str, tuple[str, int]] = field(default_factory=dict)
    taint_params_to_return: frozenset[str] = frozenset()


class Program:
    """The analyzed fileset as one program: a resolved call graph plus the
    key -> path/module/summary table the interprocedural rules below read."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules = list(summaries)
        self.graph = CallGraph([m.index for m in self.modules])
        self.summary: dict[str, FunctionSummary] = {}
        self.path_of: dict[str, str] = {}
        self.modname_of: dict[str, str] = {}
        for m in self.modules:
            for dotted, fs in m.functions.items():
                key = self.graph.key(m.path, dotted)
                self.summary[key] = fs
                self.path_of[key] = m.path
                self.modname_of[key] = m.modname
        #: call sites resolved inside the fileset: key -> [(site, callee key)]
        self.resolved: dict[str, list[tuple[CallSite, str]]] = {}
        for key, fs in self.summary.items():
            self.resolved[key] = [
                (site, callee)
                for site in fs.calls
                if (callee := self._resolve(key, site.spec)) is not None
            ]
        #: SCCs of the resolved graph, callees first
        self.sccs = list(self.graph.sccs_bottom_up())
        self.facts: dict[str, _Facts] = {k: _Facts() for k in self.summary}

    def _resolve(self, key: str, spec: tuple[str, ...]) -> str | None:
        callee = self.graph.resolve(self.path_of[key], self.summary[key].dotted, spec)
        if callee is None or callee not in self.summary:
            return None
        self.graph.add_edge(key, callee)
        return callee

    # -- propagation

    def propagate(self) -> None:
        for scc in self.sccs:
            in_scope = [k for k in scc if k in self.summary]
            changed = True
            while changed:
                changed = False
                for key in in_scope:
                    if self._update(key):
                        changed = True

    def _update(self, key: str) -> bool:
        fs = self.summary[key]
        path = self.path_of[key]
        f = self.facts[key]
        changed = False

        # collectives: own first, else inherit the smallest witness
        if f.collective is None:
            witness: tuple[str, str, int, tuple[str, ...]] | None = None
            if fs.collectives:
                disp, line = min(fs.collectives, key=lambda c: (c[1], c[0]))
                witness = (disp, path, line, ())
            else:
                candidates = []
                for site, callee in self.resolved[key]:
                    cw = self.facts[callee].collective
                    if cw is not None:
                        cname = self.summary[callee].name
                        candidates.append((cw[0], cw[1], cw[2], (cname, *cw[3])))
                if candidates:
                    witness = min(candidates, key=lambda w: (w[1], w[2], w[0]))
            if witness is not None:
                f.collective = witness
                changed = True

        # escaping requests: own plus those inherited through returned calls
        esc = {(verb, path, line) for verb, line in fs.escaping}
        for site, callee in self.resolved[key]:
            if site.result_returned and not site.result_waited:
                esc |= self.facts[callee].escapes
        esc_frozen = frozenset(esc)
        if esc_frozen != f.escapes:
            f.escapes = esc_frozen
            changed = True

        # rank-tainted / rank-sized returns
        if f.returns_taint is None:
            w = None
            if fs.returns_taint and fs.returns_taint_line is not None:
                w = (path, fs.returns_taint_line)
            else:
                for site, callee in self.resolved[key]:
                    if not site.result_returned:
                        continue
                    cf = self.facts[callee]
                    if cf.returns_taint is not None:
                        w = cf.returns_taint
                        break
                    if self._tainted_args_reach_return(site, callee):
                        cs = self.summary[callee]
                        w = (self.path_of[callee], cs.line)
                        break
            if w is not None:
                f.returns_taint = w
                changed = True
        if f.returns_sized is None:
            w = None
            if fs.returns_sized and fs.returns_sized_line is not None:
                w = (path, fs.returns_sized_line)
            else:
                for site, callee in self.resolved[key]:
                    if site.result_returned and self.facts[callee].returns_sized:
                        w = self.facts[callee].returns_sized
                        break
            if w is not None:
                f.returns_sized = w
                changed = True

        # taint-through and tag params: local ones, plus own params forwarded
        # into a callee param that reaches its return (on a returned call) or
        # feeds a p2p tag
        t2r = set(fs.taint_params_to_return)
        tags = {p: (path, line) for p, line in fs.tag_params.items()}
        tags.update(f.tag_params)
        for site, callee in self.resolved[key]:
            cf = self.facts[callee]
            for p, name in site.bind(
                self.graph.functions[callee], site.pos_names, site.kw_names
            ):
                if name not in fs.params:
                    continue
                if site.result_returned and p in cf.taint_params_to_return:
                    t2r.add(name)
                if p in cf.tag_params and name not in tags:
                    tags[name] = cf.tag_params[p]
        t2r_frozen = frozenset(t2r)
        if t2r_frozen != f.taint_params_to_return:
            f.taint_params_to_return = t2r_frozen
            changed = True
        if tags != f.tag_params:
            f.tag_params = tags
            changed = True

        return changed

    def _tainted_args_reach_return(self, site: CallSite, callee: str) -> bool:
        reach = self.facts[callee].taint_params_to_return
        return any(
            p in reach
            for p, _ in site.bind(
                self.graph.functions[callee],
                dict.fromkeys(site.pos_taint),
                dict.fromkeys(site.kw_taint),
            )
        )

    # -- rules

    def findings(self) -> list[Finding]:
        """Propagate summaries bottom-up, then judge the four rules."""
        self.propagate()
        out: list[Finding] = []
        out.extend(self._escaped_requests())
        out.extend(self._div_collectives())
        out.extend(self._tag_collisions())
        out.extend(self._rank_taint_shapes())
        return out

    def _escaped_requests(self) -> list[Finding]:
        out: list[Finding] = []
        for key in sorted(self.summary):
            path = self.path_of[key]
            for site, callee in self.resolved[key]:
                esc = self.facts[callee].escapes
                if not esc:
                    continue
                if site.result == "discarded":
                    how = "the call result is discarded"
                elif site.result == "named" and not site.result_consumed:
                    how = f"'{site.result_name}' is never used afterwards"
                else:
                    continue
                for verb, epath, eline in sorted(esc, key=lambda e: (e[1], e[2])):
                    out.append(
                        Finding(
                            path,
                            site.line,
                            RULE_ESCAPED_REQUEST,
                            f"Request created by '{verb}()' at {epath}:{eline} "
                            f"escapes through '{site.display}()' and is never "
                            f"waited anywhere ({how}); wait on the returned "
                            "request or drain it before the epoch ends",
                            related=((epath, eline),),
                        )
                    )
        return out

    def _div_collectives(self) -> list[Finding]:
        out: list[Finding] = []
        for key in sorted(self.summary):
            path = self.path_of[key]
            for site, callee in self.resolved[key]:
                if site.div_line is None:
                    continue
                w = self.facts[callee].collective
                if w is None:
                    continue
                disp, wpath, wline, chain = w
                # chain lists the functions between the callee and the one
                # holding the collective, outermost first
                via = " via " + " -> ".join(chain) if chain else ""
                out.append(
                    Finding(
                        path,
                        site.line,
                        RULE_INTERPROC_DIV,
                        f"call to '{site.display}()' is only reached under "
                        f"rank-dependent control flow (divergence starts at "
                        f"line {site.div_line}), but it issues collective "
                        f"'{disp}()' at {wpath}:{wline}{via}; every rank of "
                        "the communicator must issue it",
                        related=((wpath, wline),),
                    )
                )
        return out

    def _tag_collisions(self) -> list[Finding]:
        # (callee key, param, value) -> [(caller path, modname, line, display)]
        groups: dict[
            tuple[str, str, int], list[tuple[str, str, int, str]]
        ] = {}
        for key in sorted(self.summary):
            path = self.path_of[key]
            modname = self.modname_of[key]
            for site, callee in self.resolved[key]:
                cf = self.facts[callee]
                for param, value in site.bind(
                    self.graph.functions[callee], site.pos_const, site.kw_const
                ):
                    if param not in cf.tag_params or value in TAG_EXEMPT:
                        continue
                    groups.setdefault((callee, param, value), []).append(
                        (path, modname, site.line, site.display)
                    )
        out: list[Finding] = []
        for (callee, param, value), sites in sorted(groups.items()):
            modnames = {m for _, m, _, _ in sites}
            if len(modnames) < 2:
                continue
            tpath, tline = self.facts[callee].tag_params[param]
            cname = self.summary[callee].name
            for path, modname, line, display in sites:
                others = sorted(m for m in modnames if m != modname)
                out.append(
                    Finding(
                        path,
                        line,
                        RULE_INTERPROC_TAG,
                        f"tag constant {value} funnels into parameter "
                        f"'{param}' of '{cname}()' (p2p tag at {tpath}:{tline}) "
                        f"from multiple modules ({', '.join(others)} also "
                        "calls it with the same value); unrelated protocols "
                        "cross-match messages — disambiguate the tag per "
                        "call site or allocate namespaces in repro.mpi.tags",
                        related=((tpath, tline),),
                    )
                )
        return out

    def _rank_taint_shapes(self) -> list[Finding]:
        out: list[Finding] = []
        seen: set[tuple[str, int, str]] = set()
        for key in sorted(self.summary):
            path = self.path_of[key]
            for site, callee in self.resolved[key]:
                cf = self.facts[callee]
                cname = self.summary[callee].name
                taint_origin = cf.returns_taint
                if taint_origin is None and self._tainted_args_reach_return(
                    site, callee
                ):
                    taint_origin = (self.path_of[callee], self.summary[callee].line)
                if taint_origin is not None:
                    for verb, hline in site.shape_hits_taint:
                        dkey = (path, hline, verb)
                        if dkey in seen:
                            continue
                        seen.add(dkey)
                        out.append(
                            Finding(
                                path,
                                hline,
                                RULE_RANK_TAINT_SHAPE,
                                f"payload of '{verb}()' has a length derived "
                                f"from '{cname}()' which returns a "
                                f"rank-dependent value ({taint_origin[0]}:"
                                f"{taint_origin[1]}); '{verb}' requires the "
                                "same shape on every rank — pad to a common "
                                "size or use alltoallv/gather",
                                related=(taint_origin,),
                            )
                        )
                if cf.returns_sized is not None:
                    for verb, hline in site.shape_hits_sized:
                        dkey = (path, hline, verb)
                        if dkey in seen:
                            continue
                        seen.add(dkey)
                        out.append(
                            Finding(
                                path,
                                hline,
                                RULE_RANK_TAINT_SHAPE,
                                f"payload of '{verb}()' is a container from "
                                f"'{cname}()' which returns a rank-dependent "
                                f"length ({cf.returns_sized[0]}:"
                                f"{cf.returns_sized[1]}); '{verb}' requires "
                                "the same shape on every rank — pad to a "
                                "common size or use alltoallv/gather",
                                related=(cf.returns_sized,),
                            )
                        )
        return out


def check_program(summaries: Iterable[ModuleSummary]) -> list[Finding]:
    """Run the four interprocedural rules over module summaries."""
    return Program(summaries).findings()
