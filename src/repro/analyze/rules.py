"""The rule catalogue, and the rules judged on one function's lowering.

:data:`RULES` is the single description of every rule — id, layer, summary
and long ``doc`` — that ``--list-rules``, SARIF export and DESIGN.md's rule
reference all read.  This module also implements the per-function rules that
need no control-flow graph (divergent collectives, unwaited requests,
blocking cycles, wall-clock reads) and the per-module half of the tag audit;
:func:`check_module` runs them, plus the CFG rules of
:mod:`repro.analyze.dataflow`, over every rank function of a module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .astlint import COLLECTIVE_METHODS, P2P_METHODS, Finding, ModuleInfo
from .dataflow import (
    RULE_BUFFER_REUSE,
    RULE_SHAPE_MISMATCH,
    check_function as _dataflow_rules,
)
from .interproc import (
    RULE_ESCAPED_REQUEST,
    RULE_INTERPROC_DIV,
    RULE_INTERPROC_TAG,
    RULE_RANK_TAINT_SHAPE,
)
from .lower import (
    REQUEST_METHODS,
    TAG_ARG_INDEX,
    TAG_EXEMPT,
    FunctionContext,
    dotted_name,
    tag_expr,
)

__all__ = [
    "RULES",
    "check_module",
    "module_tag_sites",
    "join_literal_tags",
]

RULE_DIV_COLLECTIVE = "SPMD-DIV-COLLECTIVE"
RULE_UNWAITED = "SPMD-UNWAITED-REQUEST"
RULE_BLOCKING_CYCLE = "SPMD-BLOCKING-CYCLE"
RULE_TAG_COLLISION = "SPMD-TAG-COLLISION"
RULE_WALLCLOCK = "SPMD-WALLCLOCK"


@dataclass(frozen=True)
class Rule:
    id: str
    summary: str
    #: "intra" = one function, "cross" = whole fileset but syntactic,
    #: "inter" = interprocedural dataflow over the call graph
    layer: str = "intra"
    #: markdown long description (SARIF ``fullDescription``); the per-rule
    #: heading in DESIGN.md doubles as the ``helpUri`` anchor
    doc: str = ""


RULES: tuple[Rule, ...] = (
    Rule(
        RULE_DIV_COLLECTIVE,
        "collective reachable only under rank-dependent control flow",
        doc="A collective (`barrier`, `allreduce`, ...) is reached only on "
        "paths guarded by `comm.rank`, so not every rank of the communicator "
        "issues it. Real MPI hangs; the in-process runtime raises a "
        "congruence error. Hoist the collective out of the rank branch, or "
        "make every rank participate (e.g. contribute a neutral element).",
    ),
    Rule(
        RULE_UNWAITED,
        "isend/irecv Request discarded or never waited",
        doc="The `Request` returned by `isend()`/`irecv()` is dropped or "
        "never completed in this function, so the operation may never "
        "finish and its buffer lifetime is undefined. Call `.wait()` (or "
        "collect requests and wait on all of them) before returning.",
    ),
    Rule(
        RULE_BLOCKING_CYCLE,
        "symmetric blocking send/send or recv/recv across a rank branch",
        doc="Both arms of a rank-conditional open with the same blocking "
        "verb. `recv`/`recv` deadlocks immediately; `send`/`send` deadlocks "
        "under rendezvous MPI semantics even though the eager in-process "
        "runtime happens to survive it. Use `sendrecv()` or order the pair "
        "by rank parity.",
    ),
    Rule(
        RULE_TAG_COLLISION,
        "literal tag collides across modules or invades a foreign namespace",
        "cross",
        doc="A literal message tag is also used by another module, or falls "
        "inside a tag namespace registered to a different subsystem in "
        "`repro.mpi.tags`. Colliding tags cross-match messages between "
        "unrelated protocols. Allocate a namespace in `repro.mpi.tags` "
        "instead of picking numbers.",
    ),
    Rule(
        RULE_WALLCLOCK,
        "wall-clock / nondeterministic source inside a rank function",
        doc="A rank function reads wall-clock time (`time.time()`, "
        "`datetime.now()`, ...) or draws from an unseeded random source. "
        "Virtual-clock runs must be bit-reproducible: derive time from "
        "`comm.clock` and randomness from a `Generator` seeded per rank.",
    ),
    Rule(
        RULE_BUFFER_REUSE,
        "buffer written between isend() and its request's wait()",
        doc="The payload buffer of an in-flight `isend()` is mutated before "
        "the matching `wait()`. MPI owns the buffer until completion; the "
        "receiver may observe either version. Complete the request first, "
        "or send a copy.",
    ),
    Rule(
        RULE_SHAPE_MISMATCH,
        "uniform-shape collective fed a rank-dependent-length payload",
        doc="A collective that assumes congruent payload shapes on every "
        "rank (`allreduce`, `alltoall`, `scatter`, ...) receives a buffer "
        "whose length depends on `comm.rank`. Pad to a common shape, or "
        "switch to the variable-length variant (`alltoallv`).",
    ),
    Rule(
        RULE_ESCAPED_REQUEST,
        "request escapes a callee's return value and is never waited",
        "inter",
        doc="A helper returns the `Request` of an `isend()`/`irecv()` and "
        "the caller drops it, so no frame ever completes the operation. "
        "Interprocedural variant of SPMD-UNWAITED-REQUEST: wait on the "
        "returned request at the call site.",
    ),
    Rule(
        RULE_INTERPROC_TAG,
        "tag constant funnels into the same helper tag parameter from multiple modules",
        "inter",
        doc="Two modules pass their own tag constants into the same helper "
        "parameter, so the helper's sends and receives can cross-match "
        "between the two protocols. Give each caller a distinct namespace "
        "in `repro.mpi.tags`, or thread the namespace through the helper.",
    ),
    Rule(
        RULE_INTERPROC_DIV,
        "rank-divergent call leads transitively to a collective inside a callee",
        "inter",
        doc="A call issued under rank-dependent control flow reaches a "
        "collective inside the callee (possibly through further calls), so "
        "only some ranks enter it. Interprocedural variant of "
        "SPMD-DIV-COLLECTIVE; the finding's related location points at the "
        "collective inside the callee.",
    ),
    Rule(
        RULE_RANK_TAINT_SHAPE,
        "helper's rank-dependent return feeds a uniform-shape collective payload",
        "inter",
        doc="A helper whose return value's shape depends on `comm.rank` "
        "(e.g. `rank`-sized slices) flows into a uniform-shape collective in "
        "the caller. Interprocedural variant of SPMD-SHAPE-MISMATCH.",
    ),
)


# ------------------------------------------------------ SPMD-DIV-COLLECTIVE


def _div_collective(mod: ModuleInfo, ctx: FunctionContext) -> list[Finding]:
    findings: list[Finding] = []
    for call in ctx.comm_calls(COLLECTIVE_METHODS):
        div = ctx.divergence(call)
        if div is None:
            continue
        func = call.node.func
        name = f"{func.value.id}.{func.attr}"  # type: ignore[attr-defined]
        findings.append(
            Finding(
                mod.path,
                call.node.lineno,
                RULE_DIV_COLLECTIVE,
                f"collective '{name}()' is only reached under rank-dependent "
                f"control flow (divergence starts at line {div}); every "
                "rank of the communicator must issue it",
            )
        )
    return findings


# --------------------------------------------------- SPMD-UNWAITED-REQUEST


def _unwaited_requests(mod: ModuleInfo, ctx: FunctionContext) -> list[Finding]:
    findings: list[Finding] = []
    for st in ctx.stmts:
        if (
            isinstance(st, ast.Expr)
            and isinstance(st.value, ast.Call)
            and ctx.is_comm_call(st.value, REQUEST_METHODS)
        ):
            verb = st.value.func.attr  # type: ignore[union-attr]
            findings.append(
                Finding(
                    mod.path,
                    st.lineno,
                    RULE_UNWAITED,
                    f"Request returned by '{verb}()' is discarded; call "
                    ".wait() (or keep it and wait later) or the operation "
                    "may never complete",
                )
            )
    assigned = {  # name -> line of request assignment
        b.name: b.stmt.lineno
        for b in ctx.bindings
        if isinstance(b.value, ast.Call) and ctx.is_comm_call(b.value, REQUEST_METHODS)
    }
    for name, line in sorted(assigned.items(), key=lambda kv: kv[1]):
        if not ctx.loads.get(name):
            findings.append(
                Finding(
                    mod.path,
                    line,
                    RULE_UNWAITED,
                    f"Request assigned to '{name}' is never waited "
                    "(no wait()/test() or later use in this function)",
                )
            )
    return findings


# ---------------------------------------------------- SPMD-BLOCKING-CYCLE

_BLOCKING_VERBS = frozenset({"send", "recv"})


def _first_blocking_call(stmts: list[ast.stmt], ctx: FunctionContext) -> ast.Call | None:
    for st in stmts:
        calls = [
            n
            for n in ast.walk(st)
            if isinstance(n, ast.Call) and ctx.is_comm_call(n, P2P_METHODS | COLLECTIVE_METHODS)
        ]
        if calls:
            return min(calls, key=lambda c: (c.lineno, c.col_offset))
    return None


def _blocking_cycle(mod: ModuleInfo, ctx: FunctionContext) -> list[Finding]:
    findings: list[Finding] = []
    for node in ctx.stmts:
        if not isinstance(node, ast.If) or not node.orelse:
            continue
        if not ctx.is_rank_expr(node.test):
            continue
        a = _first_blocking_call(node.body, ctx)
        b = _first_blocking_call(node.orelse, ctx)
        if a is None or b is None:
            continue
        va = a.func.attr  # type: ignore[union-attr]
        vb = b.func.attr  # type: ignore[union-attr]
        if va == vb and va in _BLOCKING_VERBS:
            why = (
                "both sides block in recv() with no message in flight"
                if va == "recv"
                else "send/send cycles deadlock under rendezvous MPI semantics "
                "(the in-process runtime buffers eagerly, real MPI may not)"
            )
            findings.append(
                Finding(
                    mod.path,
                    node.lineno,
                    RULE_BLOCKING_CYCLE,
                    f"both branches of this rank-conditional start with a "
                    f"blocking '{va}()' (lines {a.lineno} and {b.lineno}); "
                    f"{why}; use sendrecv() or order the pair",
                )
            )
    return findings


# -------------------------------------------------------- SPMD-WALLCLOCK

_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})
_NP_GLOBAL_RANDOM = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "seed",
    }
)


def _wallclock_reason(call: ast.Call) -> str | None:
    name = dotted_name(call.func)
    if name is None:
        return None
    parts = name.split(".")
    head, tail = parts[0], parts[-1]
    if head == "time" and tail in _TIME_FUNCS:
        return f"'{name}()' reads the wall clock"
    if head in ("datetime",) and tail in _DATETIME_FUNCS:
        return f"'{name}()' reads the wall clock"
    if head == "random":
        return f"'{name}()' draws from the unseeded global random state"
    if head in ("np", "numpy") and len(parts) >= 2 and parts[1] == "random":
        if tail in _NP_GLOBAL_RANDOM:
            return f"'{name}()' uses numpy's unseeded global random state"
        if tail == "default_rng" and not call.args and not call.keywords:
            return f"'{name}()' without a seed is nondeterministic"
    if head == "uuid" and tail in ("uuid1", "uuid4"):
        return f"'{name}()' is nondeterministic"
    if head in ("os", "secrets") and tail in ("urandom", "token_bytes", "token_hex", "randbits"):
        return f"'{name}()' reads the OS entropy pool"
    return None


def _wallclock(mod: ModuleInfo, ctx: FunctionContext) -> list[Finding]:
    findings = []
    for call in ctx.calls:
        reason = _wallclock_reason(call.node)
        if reason:
            findings.append(
                Finding(
                    mod.path,
                    call.node.lineno,
                    RULE_WALLCLOCK,
                    f"{reason} inside rank function "
                    f"'{ctx.node.name}'; virtual-clock runs must derive "
                    "time from comm.clock and randomness from a seeded "
                    "Generator",
                )
            )
    return findings


# ----------------------------------------------------- SPMD-TAG-COLLISION

def _namespace_table() -> dict[str, tuple[int, str]]:
    from repro.mpi import tags

    return dict(tags.NAMESPACES)


def _namespace_bases() -> dict[int, tuple[str, str]]:
    """base value -> (namespace key, owning module)."""
    return {base: (key, owner) for key, (base, owner) in _namespace_table().items()}


def _owner_of_literal(value: int) -> tuple[str, str] | None:
    from repro.mpi import tags

    for key, (base, owner) in _namespace_table().items():
        if base <= value < base + tags.NAMESPACE_WIDTH:
            return key, owner
    return None


def module_tag_sites(mod: ModuleInfo) -> tuple[list[Finding], list[tuple[int, int]]]:
    """Per-module half of the tag audit.

    Returns the module-local findings (namespace borrowing, literals inside
    a foreign namespace) plus the free-literal ``(value, line)`` sites that
    feed the cross-module collision join (:func:`join_literal_tags`).
    """
    findings: list[Finding] = []
    sites: list[tuple[int, int]] = []
    #: local name -> attribute name for imports from repro.mpi.tags
    imports = {
        local: symbol
        for local, (module, symbol) in mod.lowering.import_symbols.items()
        if module.rpartition(".")[2] == "tags"
    }
    bases = _namespace_bases()
    for _, node in mod.lowering.all_calls():
        if not (isinstance(node.func, ast.Attribute) and node.func.attr in TAG_ARG_INDEX):
            continue
        expr = tag_expr(node)
        if expr is None:
            continue
        base_name: str | None = None
        literal: int | None = None
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
            literal = expr.value
        elif isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            if isinstance(expr.left, ast.Name):
                base_name = expr.left.id
            elif isinstance(expr.left, ast.Constant) and isinstance(expr.left.value, int):
                literal = expr.left.value
        elif isinstance(expr, ast.Name):
            base_name = expr.id

        if base_name is not None:
            attr = imports.get(base_name)
            if attr is None:
                continue  # not a tags.* constant; out of scope
            from repro.mpi import tags as tags_mod

            base_val = getattr(tags_mod, attr, None)
            if isinstance(base_val, int) and base_val in bases:
                key, owner = bases[base_val]
                if mod.modname and owner and not _same_module(mod.modname, owner):
                    findings.append(
                        Finding(
                            mod.path,
                            node.lineno,
                            RULE_TAG_COLLISION,
                            f"tag namespace '{key}' (base {base_val}) is "
                            f"owned by {owner}; allocate a namespace in "
                            "repro.mpi.tags instead of borrowing one",
                        )
                    )
            continue

        if literal is None or literal in TAG_EXEMPT:
            continue
        hit = _owner_of_literal(literal)
        if hit is not None:
            key, owner = hit
            if not _same_module(mod.modname, owner):
                findings.append(
                    Finding(
                        mod.path,
                        node.lineno,
                        RULE_TAG_COLLISION,
                        f"literal tag {literal} falls inside namespace "
                        f"'{key}' owned by {owner}; pick a tag from "
                        "repro.mpi.tags (USER_BASE) instead",
                    )
                )
            continue
        sites.append((literal, node.lineno))
    return findings, sites


def join_literal_tags(
    sites: list[tuple[str, str, int, int]]
) -> list[Finding]:
    """Cross-module collision join over ``(modname, path, value, line)``
    free-literal sites collected by :func:`module_tag_sites`."""
    literals: dict[int, list[tuple[str, str, int]]] = {}
    for modname, path, value, line in sites:
        literals.setdefault(value, []).append((modname, path, line))
    findings: list[Finding] = []
    for value, hits in literals.items():
        owners = {m for m, _, _ in hits}
        if len(owners) > 1:
            for modname, path, line in hits:
                others = sorted(o for o in owners if o != modname)
                findings.append(
                    Finding(
                        path,
                        line,
                        RULE_TAG_COLLISION,
                        f"literal tag {value} is also used by "
                        f"{', '.join(others)}; colliding tags cross-match "
                        "messages between unrelated protocols — allocate "
                        "namespaces in repro.mpi.tags",
                    )
                )
    return findings


def _same_module(modname: str, owner: str) -> bool:
    return modname == owner or modname.startswith(owner + ".") or owner.startswith(modname + ".")


# ----------------------------------------------------------- entry points


def check_module(mod: ModuleInfo) -> list[Finding]:
    """Run all per-module rules over every rank function."""
    findings: list[Finding] = []
    for _, _, ctx in mod.lowering.functions:
        if not ctx.comm_names:
            continue
        findings.extend(_div_collective(mod, ctx))
        findings.extend(_unwaited_requests(mod, ctx))
        findings.extend(_blocking_cycle(mod, ctx))
        findings.extend(_wallclock(mod, ctx))
        findings.extend(_dataflow_rules(mod, ctx))
    return findings
