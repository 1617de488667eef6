"""Three-server coded caching: MN placement, effective-pair delivery, and
exact rate analysis at desk scale."""

from .system import (
    Demand,
    PacketId,
    SystemConfig,
    build_config,
    random_demand,
    worst_demand,
)
from .mn import Broadcast, Group, mn_delivery, verify_full_recovery
from .pairing import (
    Layer,
    PairGraph,
    build_layers,
    count_unpaired,
    is_effective_pair,
    max_matching,
)
from .delivery import (
    DeliveryPlan,
    RateReport,
    assemble_plan,
    build_plan,
    measure_rate,
    verify_plan,
)
from . import analysis

__version__ = "0.1.0"

__all__ = [
    "Broadcast",
    "DeliveryPlan",
    "Demand",
    "Group",
    "Layer",
    "PacketId",
    "PairGraph",
    "RateReport",
    "SystemConfig",
    "analysis",
    "assemble_plan",
    "build_config",
    "build_layers",
    "build_plan",
    "count_unpaired",
    "is_effective_pair",
    "max_matching",
    "measure_rate",
    "mn_delivery",
    "random_demand",
    "verify_full_recovery",
    "verify_plan",
    "worst_demand",
]
