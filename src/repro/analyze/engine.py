"""The one analysis pipeline: lower, judge per function, join, cache.

:func:`analyze_program` is the entry point behind the CLI and
:func:`repro.analyze.astlint.analyze_paths`;
:func:`repro.analyze.astlint.analyze_source` runs the same two phases over
a one-file program.

**Per file** (:func:`build_record`, cacheable).  Each ``.py`` file is
hashed; on a store hit the cached :class:`~repro.analyze.store.FileRecord`
is reused and the file is *never parsed*.  On a miss the file is parsed and
lowered once (:func:`repro.analyze.lower.lower_module`), and every
parse-derived artifact is read off that lowering: the per-function rule
findings, the module-local tag audit and the
:class:`~repro.analyze.interproc.ModuleSummary`; the suppression table
comes from the file's comment tokens.

**Global** (:func:`analyze_records`, every run).  The cross-module
literal-tag join, the interprocedural rules and the cost rules run over one
:class:`~repro.analyze.interproc.Program` built from the union of cached
and fresh records — cheap because it only touches serialized summaries.
Suppression is applied from the cached tables, then findings are
deduplicated and sorted.  The output is therefore byte-identical between
cold and warm runs.
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
from .costlint import CostProgram
from .interproc import Program, summarize_module
from .rules import check_module, join_literal_tags, module_tag_sites
from .store import AnalysisStore, FileRecord, content_hash

__all__ = [
    "AnalysisStats",
    "AnalysisReport",
    "analyze_program",
    "analyze_records",
    "build_record",
]


@dataclass
class AnalysisStats:
    """How much work one :func:`analyze_program` call actually did."""

    parsed: int = 0  #: files parsed + summarized this run (store misses)
    reused: int = 0  #: files served from the store without parsing


@dataclass
class AnalysisReport:
    findings: list[Finding] = field(default_factory=list)
    stats: AnalysisStats = field(default_factory=AnalysisStats)


def build_record(source: str, path: str, modname: str | None = None) -> FileRecord:
    """Extract every cacheable artifact from one file's source (cold path)."""
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


def analyze_program(
    paths: Iterable[str | Path], store: AnalysisStore | None = None
) -> AnalysisReport:
    """Analyze every ``.py`` file under ``paths`` with the full rule set.

    With a ``store``, unchanged files are served from cache (their record
    was extracted by an earlier run) and the store is saved afterwards;
    without one, every file is parsed fresh.  Output is identical either
    way — only the work differs.
    """
    report = AnalysisReport()
    records: list[FileRecord] = []

    for file in collect_files(paths):
        path = str(file)
        try:
            source = file.read_text(encoding="utf-8")
        except OSError as exc:
            unreadable = Finding(path, 1, RULE_PARSE_ERROR, str(exc))
            records.append(FileRecord(path, file.stem, parse_error=unreadable))
            continue
        digest = content_hash(source)
        record = store.get(path, digest) if store is not None else None
        if record is None:
            record = build_record(source, path)
            report.stats.parsed += 1
            if store is not None:
                store.put(path, digest, record)
        else:
            report.stats.reused += 1
        records.append(record)

    if store is not None:
        store.save()
    report.findings = analyze_records(records)
    return report


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
    program = Program(summaries)
    findings.extend(program.findings())
    findings.extend(CostProgram(program).findings())

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
