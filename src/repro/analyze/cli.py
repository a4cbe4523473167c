"""``python -m repro.analyze`` — static SPMD lint CLI.

Exit codes: 0 clean, 1 findings, 2 usage/internal error (including
unparsable inputs and an unwritable ``--output``).  Every run parses every
file; the only thing written is the report.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from .astlint import RULE_PARSE_ERROR, Finding, analyze_paths
from .rules import RULES

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Static SPMD correctness lint for repro.mpi programs.",
        epilog="Exit codes: 0 clean, 1 findings, 2 usage/internal error "
        "(including unparsable inputs).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "examples"],
        help="files or directories to lint (default: src examples)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="output format: human-readable text or SARIF 2.1.0 JSON",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the report to FILE instead of stdout",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.id} [{rule.layer}]: {rule.summary}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        # a typo'd directory silently linting zero files would read as a
        # clean pass in CI
        print(
            f"repro.analyze: no such file or directory: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    try:
        findings = analyze_paths(args.paths)
    except Exception as exc:  # internal error, not a lint finding
        print(f"repro.analyze: internal error: {exc}", file=sys.stderr)
        return 2
    return _report(findings, args)


def _report(findings: list[Finding], args: argparse.Namespace) -> int:
    try:
        with (
            open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
        ) as out:
            if args.format == "sarif":
                from .sarif import dump_sarif

                dump_sarif(findings, out)
            else:
                for f in findings:
                    print(f.format(), file=out)
    except OSError as exc:  # an undelivered report must not read as "findings"
        print(
            f"repro.analyze: cannot write {args.output or '<stdout>'}: {exc}",
            file=sys.stderr,
        )
        return 2
    if any(f.rule == RULE_PARSE_ERROR for f in findings):
        print("repro.analyze: could not parse some inputs", file=sys.stderr)
        return 2
    if findings:
        n = len(findings)
        print(f"repro.analyze: {n} finding{'s' if n != 1 else ''}", file=sys.stderr)
        return 1
    return 0
