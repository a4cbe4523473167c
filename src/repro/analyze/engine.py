"""The one analysis pipeline: lower, judge per function, join.

:func:`analyze_program` is the entry point behind the CLI and
:func:`repro.analyze.astlint.analyze_paths`;
:func:`repro.analyze.astlint.analyze_source` runs the same two phases over
a one-file program.

**Per file** (:func:`build_record`).  Each ``.py`` file is parsed and
lowered once (:func:`repro.analyze.lower.lower_module`), and every
parse-derived artifact is read off that lowering into a
:class:`FileRecord`: the per-function rule findings, the module-local tag
audit and the :class:`~repro.analyze.interproc.ModuleSummary`; the
suppression table comes from the file's comment tokens.

**Global** (:func:`analyze_records`).  The cross-module literal-tag join
and the interprocedural rules run over one
:class:`~repro.analyze.interproc.Program` built from the records'
summaries.  Suppression is applied from the records' tables, then findings
are deduplicated and sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .astlint import (
    Finding,
    ModuleInfo,
    RULE_PARSE_ERROR,
    RULE_STALE_SUPPRESSION,
    _derive_modname,
    _suppresses,
    collect_files,
    module_from_source,
    suppression_table,
)
from .interproc import ModuleSummary, Program, summarize_module
from .rules import check_module, join_literal_tags, module_tag_sites

__all__ = [
    "FileRecord",
    "analyze_program",
    "analyze_records",
    "build_record",
]


@dataclass
class FileRecord:
    """Every parse-derived artifact of one analyzed file."""

    path: str
    modname: str
    #: raw intraprocedural findings (check_module), unsuppressed
    findings: list[Finding] = field(default_factory=list)
    #: module-local tag-audit findings (namespace ownership), unsuppressed
    tag_findings: list[Finding] = field(default_factory=list)
    #: free-literal tag sites feeding the cross-module join: [(value, line)]
    literal_tags: list[tuple[int, int]] = field(default_factory=list)
    #: suppression comments: line -> None (all rules) | [rule ids]
    suppression: dict[int, list[str] | None] = field(default_factory=dict)
    #: interprocedural summary (None for files that failed to parse)
    summary: ModuleSummary | None = None
    #: parse failure, if any
    parse_error: Finding | None = None


def build_record(source: str, path: str, modname: str | None = None) -> FileRecord:
    """Extract every parse-derived artifact from one file's source."""
    out = module_from_source(source, path, modname)
    if isinstance(out, Finding):
        return FileRecord(
            path=path,
            modname=modname if modname is not None else _derive_modname(Path(path)),
            parse_error=out,
        )
    mod: ModuleInfo = out
    tag_findings, literal_tags = module_tag_sites(mod)
    return FileRecord(
        path=path,
        modname=mod.modname,
        findings=check_module(mod),
        tag_findings=tag_findings,
        literal_tags=literal_tags,
        suppression=suppression_table(source),
        summary=summarize_module(mod),
    )


def analyze_program(paths: Iterable[str | Path]) -> list[Finding]:
    """Analyze every ``.py`` file under ``paths`` with the full rule set."""
    records: list[FileRecord] = []
    for file in collect_files(paths):
        path = str(file)
        try:
            source = file.read_text(encoding="utf-8")
        except OSError as exc:
            unreadable = Finding(path, 1, RULE_PARSE_ERROR, str(exc))
            records.append(FileRecord(path, file.stem, parse_error=unreadable))
            continue
        records.append(build_record(source, path))
    return analyze_records(records)


def analyze_records(records: list[FileRecord]) -> list[Finding]:
    """The global phase: join per-file records into one program, judge the
    cross-file rules, apply suppression; findings sorted and deduplicated."""
    findings: list[Finding] = []
    tag_sites: list[tuple[str, str, int, int]] = []
    summaries = []
    suppression: dict[str, dict[int, list[str] | None]] = {}
    for rec in records:
        findings.extend(rec.findings)
        findings.extend(rec.tag_findings)
        tag_sites.extend((rec.modname, rec.path, v, l) for v, l in rec.literal_tags)
        if rec.summary is not None:
            summaries.append(rec.summary)
        suppression[rec.path] = rec.suppression
    findings.extend(join_literal_tags(tag_sites))
    findings.extend(Program(summaries).findings())

    kept: list[Finding] = []
    used: set[tuple[str, int]] = set()
    for f in findings:
        if _suppresses(suppression.get(f.path, {}).get(f.line, False), f.rule):
            used.add((f.path, f.line))
        else:
            kept.append(f)
    # stale-suppression lint: an ignore comment that silenced nothing this
    # run.  Like parse errors these are never themselves suppressible — a
    # stale marker must not be able to hide behind itself.
    for rec in records:
        for line, spec in rec.suppression.items():
            if (rec.path, line) in used:
                continue
            listed = "" if spec is None else f"[{', '.join(spec)}]"
            kept.append(
                Finding(
                    rec.path,
                    line,
                    RULE_STALE_SUPPRESSION,
                    f"'# spmd: ignore{listed}' suppresses nothing — no rule "
                    "fires on this line; remove the comment or fix its rule "
                    "list",
                )
            )
    # parse errors are never suppressible — there is no trustworthy source
    # line to carry the ignore comment
    kept.extend(rec.parse_error for rec in records if rec.parse_error is not None)
    return sorted(set(kept), key=lambda f: (f.path, f.line, f.rule))
