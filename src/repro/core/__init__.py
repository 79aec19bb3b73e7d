"""Flat-tree core: converters, Pods, wiring, conversion, control plane."""

from repro.core.controller import Controller, ReconfigurationPlan
from repro.core.conversion import Mode, convert, hybrid_configs, mode_configs
from repro.core.converter import (
    BLADE_A,
    BLADE_B,
    Converter,
    ConverterConfig,
    ConverterId,
    pair_links,
)
from repro.core.design import FlatTreeDesign, mn_candidates, paper_round
from repro.core.failures import FailureSet, Leg, heal
from repro.core.flattree import FlatTree
from repro.core.scaling import DownscalePlan, apply_sleep, downscale_plan
from repro.core.interpod import (
    boundaries,
    iter_pairs,
    paired_column,
    paired_config_for_row,
)
from repro.core.multistage import (
    TwoStageDesign,
    TwoStageFlatTree,
    build_two_stage_flat_tree,
)
from repro.core.pod import (
    PodSide,
    direct_server_slots,
    half_width,
    left_columns,
    middle_column,
    right_columns,
    side_of_edge,
)
from repro.core.cost import BillOfMaterials, bill_of_materials, relative_cost
from repro.core.profiling import (
    ProfilePoint,
    ProfileResult,
    profile_mn,
    profiled_design,
)
from repro.core.reconfigure import (
    MACH_ZEHNDER,
    MEMS_OPTICAL,
    PACKET_CHIP,
    Schedule,
    Technology,
    disruption,
    schedule,
)
from repro.core.wiring import (
    PodCoreWiring,
    Slot,
    WiringPattern,
    clos_wiring,
    coverage_is_uniform,
    pattern_is_degenerate,
    profile_is_uniform,
    profiled_pattern,
    recommended_pattern,
    recommended_pattern_for_k,
    rotation_diversity,
    safe_pattern,
)
from repro.core.zones import (
    Zone,
    ZoneLayout,
    proportional_layout,
    uniform_layout,
)

__all__ = [
    "BLADE_A",
    "BLADE_B",
    "BillOfMaterials",
    "MACH_ZEHNDER",
    "MEMS_OPTICAL",
    "PACKET_CHIP",
    "Schedule",
    "Technology",
    "Controller",
    "Converter",
    "ConverterConfig",
    "ConverterId",
    "DownscalePlan",
    "FailureSet",
    "FlatTree",
    "FlatTreeDesign",
    "Leg",
    "Mode",
    "PodCoreWiring",
    "PodSide",
    "ProfilePoint",
    "ProfileResult",
    "ReconfigurationPlan",
    "Slot",
    "TwoStageDesign",
    "TwoStageFlatTree",
    "WiringPattern",
    "Zone",
    "ZoneLayout",
    "apply_sleep",
    "bill_of_materials",
    "boundaries",
    "build_two_stage_flat_tree",
    "disruption",
    "clos_wiring",
    "convert",
    "downscale_plan",
    "heal",
    "coverage_is_uniform",
    "direct_server_slots",
    "half_width",
    "hybrid_configs",
    "iter_pairs",
    "left_columns",
    "middle_column",
    "mn_candidates",
    "mode_configs",
    "pair_links",
    "paired_column",
    "paired_config_for_row",
    "paper_round",
    "pattern_is_degenerate",
    "profile_mn",
    "profiled_design",
    "profile_is_uniform",
    "profiled_pattern",
    "proportional_layout",
    "relative_cost",
    "schedule",
    "recommended_pattern",
    "recommended_pattern_for_k",
    "right_columns",
    "rotation_diversity",
    "safe_pattern",
    "side_of_edge",
    "uniform_layout",
]
