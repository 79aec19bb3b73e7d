"""The hotspot campaign: a scripted battery under the sampling profiler.

Runs the library's expensive phases back to back — fat-tree build,
Clos -> global-random conversion, KSP across source groups, MCF on the
paper's 20-member clusters, and a flowsim FCT run — with a
:class:`repro.obs.SamplingProfiler` attached, so the resulting
``HOTSPOTS_<seq>.json`` (see :mod:`repro.obs.hotspots`) ranks real
function-level hotspots with the campaign stage (span) they burned
time under.  This is the evidence artifact for ROADMAP open items 1-2:
what to vectorize and shard before the k=48/64 mega-fabric runs.

Stage sizing scales down from the requested ``k`` where a full-size
stage would dwarf the others (MCF caps at k=16, flowsim at k=8 — the
LP and the fluid simulator are superlinear and would otherwise be the
only thing the profile sees).  Every stage runs under its own
``hotspots.<stage>`` span nested in ``hotspots.campaign``, and the
sampler emits a ``sampler.flush`` marker at each boundary so a live
telemetry tail shows the battery advancing.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.obs.sampler import DEFAULT_HZ
from repro.core.controller import Controller
from repro.core.conversion import Mode, convert
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.experiments.fct import hotspot_flows
from repro.flowsim.simulator import FlowSimulator
from repro.mcf.approx import solve_concurrent_approx
from repro.mcf.commodities import build_flow_problem
from repro.routing.ksp import build_ksp_table
from repro.topology.clos import fat_tree_params
from repro.topology.elements import EdgeSwitch, Network
from repro.topology.fattree import build_fat_tree

__all__ = ["CampaignResult", "run_campaign"]

#: MCF stage cap: the approximation is superlinear in network size and
#: would swamp the profile at full campaign k.
MCF_MAX_K = 16

#: Flowsim stage cap: the fluid simulator recomputes fair shares per
#: event; k=8 with a few hundred flows is already thousands of solves.
FLOWSIM_MAX_K = 8

#: Default flow count for the FCT stage.
DEFAULT_FLOWS = 200

#: Garg-Koenemann epsilon for the MCF stage — looser than the
#: experiment default so the stage stays seconds, not minutes.
MCF_EPSILON = 0.2


@dataclass
class CampaignResult:
    """One finished campaign: the profile plus per-stage accounting."""

    k: int
    hz: float
    profile: obs.SampleProfile
    #: Ordered stage records: name, the span path the stage ran under,
    #: and its wall time — the input :func:`repro.obs.hotspots.
    #: build_document` derives per-stage sample counts from.
    stages: List[Dict[str, object]] = field(default_factory=list)


def _ksp_source_group_pairs(
        net: Network) -> List[Tuple[EdgeSwitch, EdgeSwitch]]:
    """One representative edge switch per pod, all ordered cross-pod pairs.

    "Across source groups" in the paper's sense: inter-pod routes on
    the converted fabric, where KSP path diversity actually matters.
    """
    first_edge: Dict[int, EdgeSwitch] = {}
    for switch in sorted(net.switches_of_kind("edge")):
        assert isinstance(switch, EdgeSwitch)
        first_edge.setdefault(switch.pod, switch)
    pods = sorted(first_edge)
    return [(first_edge[src], first_edge[dst])
            for src in pods for dst in pods if src != dst]


def run_campaign(
    k: int = 32,
    hz: float = DEFAULT_HZ,
    seed: int = 0,
    flows: int = DEFAULT_FLOWS,
) -> CampaignResult:
    """Run the full battery under the sampler; returns the profile.

    Requires telemetry for span attribution: when the bus is disabled
    it is enabled (metrics-only) for the duration and restored after.
    """
    enabled_here = not obs.enabled()
    if enabled_here:
        obs.enable()
    try:
        return _run_campaign_enabled(k, hz, seed, flows)
    finally:
        if enabled_here:
            obs.disable()


def _run_campaign_enabled(k: int, hz: float, seed: int,
                          flows: int) -> CampaignResult:
    result = CampaignResult(k=k, hz=hz, profile=obs.SampleProfile(
        {}, 0, 0.0, hz))
    sampler = obs.SamplingProfiler(hz=hz)
    sampler.start()
    try:
        with obs.span("hotspots.campaign", k=k):
            state: Dict[str, object] = {}
            for name in ("build", "convert", "ksp", "mcf", "flowsim"):
                started = time.perf_counter()
                with obs.span(f"hotspots.{name}") as stage_span:
                    _run_stage(name, k, seed, flows, state)
                    span_path = getattr(stage_span, "path", f"hotspots.{name}")
                result.stages.append({
                    "name": name,
                    "span": span_path,
                    "wall_s": time.perf_counter() - started,
                })
                sampler.flush(label=name)
    finally:
        result.profile = sampler.stop()
    return result


def _run_stage(name: str, k: int, seed: int, flows: int,
               state: Dict[str, object]) -> None:
    """Execute one named stage, threading products through ``state``."""
    if name == "build":
        build_fat_tree(k)
        state["ft"] = FlatTree(FlatTreeDesign.for_fat_tree(k))
    elif name == "convert":
        ft = state["ft"]
        assert isinstance(ft, FlatTree)
        state["net"] = convert(ft, Mode.GLOBAL_RANDOM)
    elif name == "ksp":
        net = state["net"]
        assert isinstance(net, Network)
        build_ksp_table(net, _ksp_source_group_pairs(net))
    elif name == "mcf":
        # Lazy import: fig8_alltoall pulls the whole experiment stack.
        from repro.experiments.fig8_alltoall import all_to_all_workload

        mcf_k = min(k, MCF_MAX_K)
        params = fat_tree_params(mcf_k)
        commodities = all_to_all_workload(
            params, "locality", random.Random(seed))
        problem = build_flow_problem(build_fat_tree(mcf_k), commodities)
        solve_concurrent_approx(problem, epsilon=MCF_EPSILON)
    elif name == "flowsim":
        flowsim_k = min(k, FLOWSIM_MAX_K)
        design = FlatTreeDesign.for_fat_tree(flowsim_k)
        controller = Controller(FlatTree(design))
        controller.apply_mode(Mode.GLOBAL_RANDOM)
        specs = hotspot_flows(design.params.num_servers, flows,
                              random.Random(seed + 1))
        FlowSimulator(controller.network, controller.route).run(specs)
    else:  # pragma: no cover - stage list is fixed above
        raise ValueError(f"unknown campaign stage {name!r}")
