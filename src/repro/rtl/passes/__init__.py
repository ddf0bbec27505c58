"""Netlist optimization passes (see :mod:`repro.rtl.passes.base`)."""

from .base import (
    OPT_LEVELS,
    Pass,
    PassManager,
    PassStats,
    check_module,
    comb_topo_order,
    pipeline_for_level,
)
from .constant_fold import ConstantFold
from .dce import DeadCellElim
from .delay_coalesce import DelayCoalesce
from .share import SHAREABLE_KINDS, CommonCellSharing, share_cells

__all__ = [
    "CommonCellSharing",
    "ConstantFold",
    "DeadCellElim",
    "DelayCoalesce",
    "OPT_LEVELS",
    "Pass",
    "PassManager",
    "PassStats",
    "SHAREABLE_KINDS",
    "check_module",
    "comb_topo_order",
    "pipeline_for_level",
    "share_cells",
]
