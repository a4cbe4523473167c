"""Quickstart: sort a distributed array with the histogram sort.

Runs an SPMD program on the in-process runtime: every rank generates a
partition of uniform 64-bit keys (the paper's benchmark workload), calls
``repro.sort``, and the script verifies the global output contract and
prints the virtual-time phase breakdown.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import repro
from repro.data import uniform_u64
from repro.machine import supermuc_phase2
from repro.mpi import run_spmd
from repro.seq import check_sorted_output
from repro.trace import combine_phases

P = 16                 # ranks (threads in-process)
N_PER_RANK = 50_000    # keys per rank


def program(comm):
    # Each rank owns a partition; nothing else is shared.
    local = uniform_u64(N_PER_RANK, rank=comm.rank, seed=2024)
    result = repro.sorted_result(comm, local)
    return local, result


def main() -> None:
    machine = supermuc_phase2(nodes=1)
    out, runtime = run_spmd(
        P, program, machine=machine, ranks_per_node=P, return_runtime=True
    )
    inputs = [pair[0] for pair in out]
    results = [pair[1] for pair in out]
    outputs = [r.output for r in results]

    check_sorted_output(inputs, outputs)
    print(f"sorted {P * N_PER_RANK:,} keys across {P} ranks - contract holds")
    print(f"histogramming rounds : {results[0].rounds}")
    print(f"modelled makespan    : {runtime.elapsed() * 1e3:.2f} ms (virtual)")

    phases = combine_phases([r.phases for r in results], how="max")
    total = sum(phases.values())
    print("phase breakdown (max over ranks):")
    for name, seconds in phases.items():
        print(f"  {name:<12} {seconds * 1e3:8.3f} ms  ({seconds / total:5.1%})")

    boundaries = [o[0] for o in outputs if o.size]
    print(f"first keys per rank  : {boundaries[:6]} ...")


if __name__ == "__main__":
    main()
