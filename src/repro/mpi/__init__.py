"""In-process SPMD message-passing runtime (the MPI/PGAS substitute).

One thread per rank, mpi4py-like communicator API, deterministic collective
semantics, and virtual-time accounting via :mod:`repro.machine`.

Quick start::

    from repro.mpi import run_spmd

    def program(comm):
        part = comm.rank * 10
        total = comm.allreduce(part)
        return total

    print(run_spmd(4, program))

Fault tolerance: pass ``faults=FaultPlan(...)`` (see :mod:`repro.faults`)
to inject deterministic message drops/duplications/delays and rank
crashes.  Every message — a send, or one a collective stands for — climbs
one retry ladder that prices the plan's link faults onto its arrival
(:mod:`repro.mpi.reliable`), and ``comm.revoke()`` / ``comm.agree()`` /
``comm.shrink()`` implement ULFM-style recovery.
"""

from .checkpoint import PH_SORTED, PH_SPLIT, PH_START, BuddyCheckpointer, Replica
from .comm import ANY_SOURCE, ANY_TAG, Comm
from .errors import (
    Aborted,
    CollectiveMismatchError,
    CommRevokedError,
    CommunicatorError,
    DeadlockError,
    MessageLeakError,
    MessageTimeoutError,
    RankFailedError,
    SPMDError,
)
from .ops import LAND, LOR, MAX, MAXLOC, MIN, MINLOC, PROD, SUM, ReduceOp
from .payload import copy_payload, payload_nbytes
from .requests import Request, waitall
from .runtime import Runtime, Stats, StatsSnapshot, run_spmd
from .spare import PoolVerdict

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Aborted",
    "BuddyCheckpointer",
    "CollectiveMismatchError",
    "Comm",
    "CommRevokedError",
    "CommunicatorError",
    "DeadlockError",
    "LAND",
    "LOR",
    "MAX",
    "MAXLOC",
    "MIN",
    "MINLOC",
    "MessageLeakError",
    "MessageTimeoutError",
    "PH_SORTED",
    "PH_SPLIT",
    "PH_START",
    "PROD",
    "PoolVerdict",
    "RankFailedError",
    "ReduceOp",
    "Replica",
    "Request",
    "Runtime",
    "SPMDError",
    "SUM",
    "Stats",
    "StatsSnapshot",
    "copy_payload",
    "payload_nbytes",
    "run_spmd",
    "waitall",
]
