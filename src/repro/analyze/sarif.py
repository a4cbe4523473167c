"""SARIF 2.1.0 export for lint findings.

SARIF (Static Analysis Results Interchange Format) is the schema GitHub
code scanning ingests: ``python -m repro.analyze --format sarif`` writes a
log that ``github/codeql-action/upload-sarif`` turns into inline PR
annotations.  One run, one driver (``repro.analyze``), one rule entry per
catalogue rule, one result per finding.
"""

from __future__ import annotations

import json
from typing import Iterable

from .astlint import Finding

__all__ = ["to_sarif", "dump_sarif"]

_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_VERSION = "2.1.0"

#: findings that abort analysis map to SARIF "error"; lint rules to "warning"
_ERROR_RULES = frozenset({"SPMD-PARSE-ERROR"})


#: DESIGN.md carries one heading per rule; GitHub renders `#spmd-...`
#: anchors for them, so the helpUri of every rule resolves to its entry.
_HELP_DOC = "DESIGN.md"


def _help_uri(rule_id: str) -> str:
    return f"{_HELP_DOC}#{rule_id.lower()}"


def _rule_catalogue() -> list[dict]:
    from .rules import RULES

    rules = [
        {
            "id": rule.id,
            "shortDescription": {"text": rule.summary},
            **(
                {"fullDescription": {"text": rule.doc, "markdown": rule.doc}}
                if rule.doc
                else {}
            ),
            "helpUri": _help_uri(rule.id),
            "defaultConfiguration": {"level": "warning"},
            "properties": {"layer": rule.layer},
        }
        for rule in RULES
    ]
    parse_doc = (
        "The analyzer could not parse an input file, so none of its rules "
        "ran there. A syntax error anywhere in the linted tree fails the "
        "run with exit code 2 — a parse error must not read as a clean pass."
    )
    stale_doc = (
        "A `# spmd: ignore[RULE]` suppression comment no longer matches any "
        "finding on its line. Stale suppressions hide future regressions of "
        "the suppressed rule; delete the comment."
    )
    rules.append(
        {
            "id": "SPMD-PARSE-ERROR",
            "shortDescription": {"text": "input could not be parsed"},
            "fullDescription": {"text": parse_doc, "markdown": parse_doc},
            "helpUri": _help_uri("SPMD-PARSE-ERROR"),
            "defaultConfiguration": {"level": "error"},
        }
    )
    rules.append(
        {
            "id": "SPMD-STALE-SUPPRESSION",
            "shortDescription": {
                "text": "spmd: ignore comment no longer suppresses anything"
            },
            "fullDescription": {"text": stale_doc, "markdown": stale_doc},
            "helpUri": _help_uri("SPMD-STALE-SUPPRESSION"),
            "defaultConfiguration": {"level": "warning"},
            "properties": {"layer": "meta"},
        }
    )
    return rules


def _location(path: str, line: int) -> dict:
    return {
        "physicalLocation": {
            "artifactLocation": {
                "uri": path.replace("\\", "/"),
                "uriBaseId": "SRCROOT",
            },
            "region": {"startLine": max(line, 1)},
        }
    }


def _result(finding: Finding, rule_index: dict[str, int]) -> dict:
    out = {
        "ruleId": finding.rule,
        **(
            {"ruleIndex": rule_index[finding.rule]}
            if finding.rule in rule_index
            else {}
        ),
        "level": "error" if finding.rule in _ERROR_RULES else "warning",
        "message": {"text": finding.message},
        "locations": [_location(finding.path, finding.line)],
    }
    if finding.related:
        # secondary locations of interprocedural findings — e.g. the
        # collective inside the callee when the primary location is the
        # divergent call site in another file
        out["relatedLocations"] = [
            _location(path, line) for path, line in finding.related
        ]
    return out


def to_sarif(findings: Iterable[Finding]) -> dict:
    """Findings as a SARIF 2.1.0 log object (JSON-serializable dict)."""
    rules = _rule_catalogue()
    rule_index = {r["id"]: i for i, r in enumerate(rules)}
    return {
        "$schema": _SCHEMA,
        "version": _VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.analyze",
                        "informationUri": "https://github.com/",
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": [_result(f, rule_index) for f in findings],
            }
        ],
    }


def dump_sarif(findings: Iterable[Finding], stream) -> None:
    """Serialize findings as SARIF JSON to a text stream."""
    json.dump(to_sarif(findings), stream, indent=2, sort_keys=False)
    stream.write("\n")
