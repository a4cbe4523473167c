"""Point-to-point tag namespaces — the repo-wide tag registry.

Every module that sends tagged p2p traffic owns one *namespace*: a
disjoint, generously sized range of tag values.  Call sites derive their
tags as ``<BASE> + offset`` (offset = round/stage number), which keeps a
message's origin readable in traces and makes cross-module collisions
impossible by construction.

The static analyzer's ``SPMD-TAG-COLLISION`` rule reads :data:`NAMESPACES`
below: a literal tag that lands inside a namespace owned by another module
(or the same literal appearing in two modules) is reported.  New p2p code
should claim the next free base here rather than invent a literal.

Audit notes (PR 2)
------------------
* ``repro.core.exchange`` / ``repro.core.multiselect`` / ``repro.core.dselect``
  are collective-only (ALLTOALLV / ALLREDUCE / ALLGATHER) and send no
  tagged p2p messages; they reserve nothing.
* ``repro.core.overlap`` previously used the raw literal ``1000 + round``;
  ``repro.baselines.bitonic`` counted tags up from 1 and
  ``repro.baselines.hyperquicksort`` used the bare round number — the
  three overlapped for small rounds.  All now draw from disjoint bases.
* Tag ``0`` is the untagged default (:data:`TAG_DEFAULT`) and is excluded
  from collision checking.
"""

from __future__ import annotations

__all__ = [
    "TAG_DEFAULT",
    "NAMESPACE_WIDTH",
    "OVERLAP_ROUND_BASE",
    "BITONIC_STAGE_BASE",
    "HYPERQUICKSORT_ROUND_BASE",
    "USER_BASE",
    "NAMESPACES",
]

#: the implicit tag of untagged ``send``/``recv`` calls
TAG_DEFAULT = 0

#: tags available to one namespace (offsets must stay below this)
NAMESPACE_WIDTH = 1_000_000

#: 1-factor exchange/merge rounds of :mod:`repro.core.overlap`
OVERLAP_ROUND_BASE = 1 * NAMESPACE_WIDTH

#: compare-split stages of :mod:`repro.baselines.bitonic`
BITONIC_STAGE_BASE = 2 * NAMESPACE_WIDTH

#: halving rounds of :mod:`repro.baselines.hyperquicksort`
HYPERQUICKSORT_ROUND_BASE = 3 * NAMESPACE_WIDTH

#: first base free for application / example code
USER_BASE = 8 * NAMESPACE_WIDTH

#: namespace name -> (base, owner module); consumed by the TAG-COLLISION rule
NAMESPACES: dict[str, tuple[int, str]] = {
    "overlap_round": (OVERLAP_ROUND_BASE, "repro.core.overlap"),
    "bitonic_stage": (BITONIC_STAGE_BASE, "repro.baselines.bitonic"),
    "hyperquicksort_round": (HYPERQUICKSORT_ROUND_BASE, "repro.baselines.hyperquicksort"),
}

