"""Machine model: topology, link/kernel costs, virtual-time pricing.

This package is the "hardware" substitute for the paper's SuperMUC Phase 2
testbed: a declarative :class:`~repro.machine.spec.MachineSpec`, a rank
:class:`~repro.machine.topology.Placement`, and a
:class:`~repro.machine.cost.CostModel` that prices every runtime operation
in virtual seconds.
"""

from .cost import CostModel
from .presets import abstract_cluster, laptop, single_node, supermuc_phase2
from .spec import ComputeSpec, Level, LinkSpec, MachineSpec, NodeSpec
from .topology import Placement, make_placement

__all__ = [
    "ComputeSpec",
    "CostModel",
    "Level",
    "LinkSpec",
    "MachineSpec",
    "NodeSpec",
    "Placement",
    "abstract_cluster",
    "laptop",
    "make_placement",
    "single_node",
    "supermuc_phase2",
]
