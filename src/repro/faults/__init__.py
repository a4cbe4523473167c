"""Deterministic fault injection for the SPMD runtime (the adversary).

A :class:`FaultPlan` is built from a :class:`FaultSpec` plus a seed and is
fully deterministic: every drop / duplication / delay decision is a pure
function of ``(seed, src, dst, link-event-index)`` and every crash fires
at a fixed per-rank operation count or virtual time — never from wall
clock.  Attach a plan to a runtime (``Runtime(size, faults=plan)`` or
``run_spmd(..., faults=plan)``) and :mod:`repro.mpi` injects the
scheduled faults into p2p delivery and prices them into every collective;
``faults=None`` leaves the runtime bit-identical to an un-instrumented one.

The chaos harness (``python -m repro.faults.chaos``) sweeps seeds x fault
rates x rank counts over the resilient histogram sort and asserts that
every run ends in a correctly sorted output on the surviving ranks or a
typed, diagnosable error — never a hang.
"""

from .plan import CrashEvent, DegradedWindow, FaultPlan, FaultSpec, FaultStats, LinkFault

__all__ = [
    "CrashEvent",
    "DegradedWindow",
    "FaultPlan",
    "FaultSpec",
    "FaultStats",
    "LinkFault",
]
