"""Shared vocabulary of the lint pass: findings, modules, suppression.

A *rank function* holds a communicator — a parameter named ``comm`` or
annotated ``Comm``, plus aliases created by ``split``/``dup``.  A parsed
module is lowered once (:mod:`repro.analyze.lower`) when its
:class:`ModuleInfo` is built.  Findings print as ``file:line: RULE-ID
message`` and the CLI exits non-zero when any survive.

Suppression: a comment ``# spmd: ignore`` silences every rule on its line;
``# spmd: ignore[RULE-ID]`` silences one rule.  The ``SPMD-`` prefix may be
dropped inside the brackets (``# spmd: ignore[BUFFER-REUSE]``).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .lower import FunctionContext, ModuleLowering, lower_module

__all__ = [
    "Finding",
    "ModuleInfo",
    "analyze_paths",
    "analyze_source",
    "module_from_source",
    "COLLECTIVE_METHODS",
    "P2P_METHODS",
    "RULE_PARSE_ERROR",
    "RULE_STALE_SUPPRESSION",
    "suppression_table",
]

RULE_PARSE_ERROR = "SPMD-PARSE-ERROR"

#: meta-finding: a suppression comment (``spmd: ignore``) silencing nothing
RULE_STALE_SUPPRESSION = "SPMD-STALE-SUPPRESSION"

#: collective methods of :class:`repro.mpi.Comm` (must be congruent)
COLLECTIVE_METHODS = frozenset(
    {
        "barrier",
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
        "split",
        "dup",
    }
)

#: point-to-point methods (rank-divergent by design)
P2P_METHODS = frozenset({"send", "recv", "sendrecv", "isend", "irecv", "iprobe"})

_SUPPRESS_RE = re.compile(r"#\s*spmd:\s*ignore(?:\[(?P<rules>[A-Z0-9, \-]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One lint finding, printable as ``file:line: RULE-ID message``.

    ``related`` carries secondary ``(path, line)`` locations — e.g. the
    collective inside a callee for an interprocedural finding whose primary
    location is the divergent call site.  Text output keeps the references
    inline in the message; SARIF export emits them as ``relatedLocations``.
    """

    path: str
    line: int
    rule: str
    message: str
    related: tuple[tuple[str, int], ...] = ()

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class ModuleInfo:
    """A parsed module and its one lowering."""

    path: str
    modname: str
    tree: ast.Module
    lowering: ModuleLowering

    def __post_init__(self) -> None:
        self._contexts = {id(d.ctx.node): d.ctx for d in self.lowering.functions}

    def context(self, fn: ast.FunctionDef) -> FunctionContext:
        """The lowering of one of this module's function definitions."""
        return self._contexts[id(fn)]


def suppression_table(source: str) -> dict[int, list[str] | None]:
    """Map line number -> suppression spec for every ``# spmd: ignore`` comment.

    ``None`` means the bare form (every rule suppressed); a list holds the
    rule IDs named in the brackets, verbatim.  Only real comment tokens
    count — marker text inside a string literal suppresses nothing — and
    only a file whose text contains the marker is tokenized at all.
    """
    table: dict[int, list[str] | None] = {}
    if _SUPPRESS_RE.search(source) is None:
        return table
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            m = _SUPPRESS_RE.search(tok.string) if tok.type == tokenize.COMMENT else None
            if m is not None:
                rules = m.group("rules")
                table[tok.start[0]] = (
                    None if rules is None else [r.strip() for r in rules.split(",")]
                )
    except (tokenize.TokenError, IndentationError, SyntaxError, ValueError):
        return {}
    return table


def _suppresses(spec: list[str] | None | bool, rule: str) -> bool:
    """Does one suppression-table entry silence ``rule``?

    ``False`` (no entry) never suppresses; ``None`` (bare ignore) always
    does.  Rule IDs may be written without the ``SPMD-`` prefix — the
    ``spmd:`` marker already names the namespace.
    """
    if spec is False:
        return False
    if spec is None:
        return True
    assert isinstance(spec, list)
    return rule in spec or rule.removeprefix("SPMD-") in spec


# --------------------------------------------------------------- module I/O


def _derive_modname(path: Path) -> str:
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        return ".".join(parts[parts.index("repro") :])
    return path.stem


def module_from_source(
    source: str, path: str = "<memory>", modname: str | None = None
) -> ModuleInfo | Finding:
    """Parse source into a :class:`ModuleInfo`, or a parse-error finding."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(path, exc.lineno or 1, RULE_PARSE_ERROR, exc.msg or "syntax error")
    name = modname if modname is not None else _derive_modname(Path(path))
    return ModuleInfo(path, name, tree, lower_module(tree, name))


def collect_files(paths: Iterable[str | Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    return files


# ------------------------------------------------------------- entry points


def analyze_paths(paths: Iterable[str | Path]) -> list[Finding]:
    """Lint every ``.py`` file under the given paths (full rule set).

    Runs the whole-program pipeline — intraprocedural rules, the
    cross-module tag audit, and the interprocedural rules of
    :mod:`repro.analyze.interproc`.
    """
    from .engine import analyze_program

    return analyze_program(paths)


def analyze_source(
    source: str, path: str = "<memory>", modname: str | None = None
) -> list[Finding]:
    """Lint a single in-memory module: the same per-file record and global
    phase as :func:`analyze_paths`, over a one-file program."""
    from .engine import analyze_records, build_record

    return analyze_records([build_record(source, path, modname)])
