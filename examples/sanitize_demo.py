"""Sanitizer demo: catch three memory hazards the runtime's checks cannot see.

Every run verifies the *protocol* (congruent collectives, no deadlock, no
leaked messages or requests); ``sanitize=True`` verifies the *memory
model*: who may touch a buffer, and when.  This script runs three deliberately buggy programs under
``run_spmd(..., sanitize=True)`` and prints the sanitizer's diagnosis of
each, then re-runs a correct 16-rank histogram sort twice to show the
non-perturbation guarantee: virtual clocks are bit-identical with the
sanitizer on and off.

Run:  python examples/sanitize_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.core import histogram_sort
from repro.data import make_partition
from repro.mpi import run_spmd
from repro.sanitize import SanitizerError


def show(title, prog, ranks=2):
    print(f"--- {title}")
    try:
        run_spmd(ranks, prog, sanitize=True)
    except SanitizerError as exc:
        for finding in exc.findings:
            print(f"    {finding.format()}")
    else:
        print("    (no findings)")
    print()


# 1. WRITE-AFTER-ISEND: the eager-copy runtime makes this look fine, but
#    real MPI owns the buffer until the request completes — the receiver
#    would see the torn write.
def write_after_isend(comm):
    if comm.rank == 0:
        buf = np.arange(64, dtype=np.float64)
        req = comm.isend(buf, 1)
        buf[3] = -1.0  # deliberate bug for the demo  # spmd: ignore[BUFFER-REUSE]
        req.wait()
    elif comm.rank == 1:
        comm.recv(0)


# 2. RECV-ALIAS: a payload whose __deepcopy__ returns itself defeats the
#    runtime's copy discipline; sender and receiver share one array.
class SelfBox:
    def __init__(self, arr):
        self.arr = arr

    def __deepcopy__(self, memo):
        return self


def recv_alias(comm):
    if comm.rank == 0:
        box = SelfBox(np.ones(32))
        comm.send(box, 1)
        comm.recv(1)  # keep box alive until rank 1 has it
    elif comm.rank == 1:
        comm.recv(0)
        comm.send(0, 0)


# 3. HB-RACE: rank closures can capture the same Python object.  Annotate
#    accesses with mark_read/mark_write and the vector clocks prove whether
#    a send/recv or collective actually orders them.
def hb_race(comm):
    if comm.rank == 0:
        comm.mark_write(SHARED)
        SHARED["value"] = 42
    else:
        comm.mark_read(SHARED)
        _ = SHARED.get("value")  # no edge orders this against the write


SHARED: dict = {"value": 0}


def main():
    show("WRITE-AFTER-ISEND: buffer mutated while isend is in flight", write_after_isend)
    show("RECV-ALIAS: payload defeats the copy discipline", recv_alias)
    show("HB-RACE: unsynchronized access to a closure-shared dict", hb_race)

    print("--- non-perturbation: 16-rank histogram sort, sanitizer on vs off")

    def sort_prog(comm):
        local = make_partition("uniform_u64", 2000, rank=comm.rank, seed=3)
        return histogram_sort(comm, local).output

    _, rt_off = run_spmd(16, sort_prog, return_runtime=True, sanitize=False)
    _, rt_on = run_spmd(16, sort_prog, return_runtime=True, sanitize=True)
    identical = bool(np.array_equal(rt_off.clocks, rt_on.clocks))
    print(f"    virtual clocks bit-identical: {identical}")
    print(f"    modelled makespan (off/on): {rt_off.elapsed():.6f} / {rt_on.elapsed():.6f}")
    print(f"    findings in the correct sort: {rt_on.sanitizer.findings}")


if __name__ == "__main__":
    main()
