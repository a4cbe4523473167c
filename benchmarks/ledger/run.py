"""Entry point of the perf ledger: ``python3 benchmarks/ledger/run.py``.

With ``--workload`` it runs that workload in this process (what the
driver calls); without, it runs every workload, both passes, each in a
fresh child interpreter.  See README.md in this directory.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

STARTED = time.perf_counter()  # before numpy and repro are imported: both are set-up
ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"ledger: no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    # the checkout's sources, never an installed copy
    sys.path.insert(0, str(src))
    from ledgerlib.cli import main as cli_main

    return cli_main(started=STARTED)


if __name__ == "__main__":
    sys.exit(main())
