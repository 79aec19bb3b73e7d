"""Centralized control plane (paper §2.6).

"Flat-tree requires a control plane to change the network topology and
to conduct routing accordingly ... we follow the recent trend of using a
centralized network controller for global network management."

:class:`Controller` owns a :class:`~repro.core.flattree.FlatTree` plant
and provides:

* **conversion** — apply an operating mode or a hybrid
  :class:`~repro.core.zones.ZoneLayout`; each change produces a
  :class:`ReconfigurationPlan` describing converter re-programming and
  the physical link/server churn (which links blink, which servers move
  to a different switch), executed in drain -> reconfigure -> restore
  stages;
* **routing** — per-mode routing scheme selection (two-level for a pure
  Clos network, k-shortest-paths otherwise), path caching, and SDN
  compilation (§2.6's pre-computed path programs).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro import obs
from repro.errors import ReproError, RoutingError
from repro.core.conversion import Mode, hybrid_configs, mode_configs
from repro.core.converter import ConverterConfig, ConverterId, RealizedLink
from repro.core.flattree import FlatTree
from repro.core.zones import ZoneLayout, uniform_layout
from repro.routing.base import Path, RoutingTable, select_path
from repro.routing.ksp import k_shortest_paths
from repro.routing.sdn import SdnProgram
from repro.routing.twolevel import two_level_route
from repro.topology.elements import Network, SwitchId


class PlanUnit(NamedTuple):
    """One indivisible step of a conversion.

    ``converters`` is a re-programmed converter, or both ends of a
    re-programmed side pair, which no batch of a schedule may split.
    ``dark_links`` are the cables the unit darkens: those its circuits
    realize under the current configuration but not under the target.
    """

    converters: Tuple[ConverterId, ...]
    dark_links: Tuple[Tuple[SwitchId, SwitchId], ...]


@dataclass
class ReconfigurationPlan:
    """Everything one conversion entails, for audit and staging.

    ``units`` are the scheduling units in sorted converter order, each
    with the cables it darkens; ``links_removed``, ``links_added`` and
    ``servers_moved`` sum the units' changes.  ``stages`` is the
    execution order: converters are drained (their circuits go dark),
    re-programmed, then restored — flows must be steered off the
    affected links before stage 1 commits.
    """

    config_changes: Dict[ConverterId, Tuple[ConverterConfig, ConverterConfig]]
    links_removed: List[Tuple[SwitchId, SwitchId]]
    links_added: List[Tuple[SwitchId, SwitchId]]
    servers_moved: Dict[int, Tuple[SwitchId, SwitchId]]
    units: List[PlanUnit]
    stages: List[str] = field(default_factory=list)

    @property
    def converter_count(self) -> int:
        return len(self.config_changes)

    def is_noop(self) -> bool:
        return not self.config_changes

    def summary(self) -> str:
        return (
            f"{self.converter_count} converters re-programmed, "
            f"{len(self.links_removed)} links down, "
            f"{len(self.links_added)} links up, "
            f"{len(self.servers_moved)} servers relocated"
        )


class Controller:
    """Central controller over one flat-tree plant."""

    def __init__(self, flattree: FlatTree) -> None:
        self.flattree = flattree
        self.layout: ZoneLayout = uniform_layout(flattree.params, Mode.CLOS)
        self.flattree.set_configs(mode_configs(flattree, Mode.CLOS))
        self._network: Optional[Network] = None
        self._route_cache: Dict[Tuple[SwitchId, SwitchId], List[Path]] = {}
        self.last_plan: Optional[ReconfigurationPlan] = None
        # Degradation state set by the resilient execution path: active
        # plant failures and whether the last conversion was rolled back
        # mid-way (layout no longer describes the whole plant).
        self._failures = None
        self._partial = False

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    @property
    def network(self) -> Network:
        """The currently materialized logical network (cached).

        While plant failures are active (after a chaotic execution),
        this is the *degraded* materialization — dead circuits absent,
        stranded servers detached.
        """
        if self._network is None:
            self._network = self.flattree.materialize(
                failures=self._failures
            )
        return self._network

    @cached_property
    def _rank(self) -> Dict[SwitchId, int]:
        """Each plant switch's position in ``repr`` order.

        Plans orient and sort cables by it, so cable lists (and any
        batch schedule or link label built from them) are independent
        of PYTHONHASHSEED: the switch NamedTuple variants are not
        mutually orderable.  The plant's switches never change, so one
        table serves every plan.
        """
        ordered = sorted(self.flattree.switches, key=repr)
        return {switch: i for i, switch in enumerate(ordered)}

    @property
    def degraded(self) -> bool:
        """True when failures are active or a conversion was aborted."""
        return self._failures is not None or self._partial

    def apply_mode(self, mode: Mode) -> ReconfigurationPlan:
        """Convert the whole network to one mode."""
        return self.apply_layout(uniform_layout(self.flattree.params, mode))

    def apply_layout(self, layout: ZoneLayout) -> ReconfigurationPlan:
        """Convert to a hybrid zone layout and return the plan executed."""
        modes = sorted({m.value for m in layout.pod_modes().values()})
        with obs.span("apply_layout", modes=",".join(modes)):
            target = hybrid_configs(self.flattree, layout.pod_modes())
            plan = self._commit(target)
            self.layout = layout
            return plan

    def _commit(
        self, target: Mapping[ConverterId, ConverterConfig]
    ) -> ReconfigurationPlan:
        """Plan ``target`` and commit it; the network is rebuilt on use."""
        plan = self._plan(target)
        self.flattree.set_configs(target)
        self._network = None
        self._route_cache.clear()
        self.last_plan = plan
        return plan

    def _plan(
        self, target: Mapping[ConverterId, ConverterConfig]
    ) -> ReconfigurationPlan:
        """The plan to reach ``target``, read from the circuit table.

        No network is built.  Each scheduling unit's circuits are walked
        under the current and the target configurations, under the
        active plant failures: a cable only the current ones realize
        goes dark, one only the target realizes comes up, and a server
        attached under both to different switches moves.  A server the
        target strands is not moved; the served network omits it.
        """
        ft = self.flattree
        changes = ft.diff_configs(target)
        current = ft.configs()
        rank = self._rank

        def by_rank(cable: Tuple[SwitchId, SwitchId]) -> Tuple[int, int]:
            return rank[cable[0]], rank[cable[1]]

        pair_of = {cid: pair for pair in ft.pairs
                   if pair[0] in changes and pair[1] in changes
                   for cid in pair}
        units: List[PlanUnit] = []
        added: List[Tuple[SwitchId, SwitchId]] = []
        moved: Dict[int, Tuple[SwitchId, SwitchId]] = {}
        for cid in sorted(changes):
            pair = pair_of.get(cid)
            if pair is not None and cid != min(pair):
                continue  # the unit sits at its earlier end
            members = (cid,) if pair is None else tuple(sorted(pair))
            bundles = () if pair is None else (pair,)
            old = ft.circuits(current, members, bundles, self._failures)
            new = ft.circuits(target, members, bundles, self._failures)
            old_cables, new_cables = _cables(old, rank), _cables(new, rank)
            dark = tuple((old_cables - new_cables).elements())
            units.append(PlanUnit(members, dark))
            added += (new_cables - old_cables).elements()
            homes = {a: b for tag, a, b in new if tag == "attach"}
            for _tag, server, switch in old:
                home = homes.get(server, switch)  # stranded: not moved
                if isinstance(server, int) and home != switch:
                    moved[server] = (switch, home)
        removed = sorted((cable for unit in units for cable in unit.dark_links),
                         key=by_rank)
        added.sort(key=by_rank)
        stages = []
        if changes:
            stages = [
                f"drain {len(changes)} converters "
                f"({len(removed)} circuits go dark)",
                "re-program converter configurations",
                f"restore circuits ({len(added)} links up, "
                f"{len(moved)} servers on new switches)",
                "recompute routes and re-install SDN programs",
            ]
        obs.incr("core.controller.plans")
        obs.incr("core.controller.reprogrammed", len(changes))
        obs.incr("core.controller.links_removed", len(removed))
        obs.incr("core.controller.links_added", len(added))
        obs.incr("core.controller.servers_moved", len(moved))
        return ReconfigurationPlan(
            config_changes=changes,
            links_removed=removed,
            links_added=added,
            # Server ids ascend in converter order, the order servers
            # join a materialized network.
            servers_moved=dict(sorted(moved.items())),
            units=units,
            stages=stages,
        )

    def execute_mode(self, mode: Mode, **kwargs):
        """:meth:`execute_layout` for a whole-network mode."""
        return self.execute_layout(
            uniform_layout(self.flattree.params, mode), **kwargs
        )

    def execute_layout(
        self,
        layout: ZoneLayout,
        *,
        technology=None,
        chaos=None,
        policy=None,
        monitor=None,
        max_batch: int = 64,
        start: float = 0.0,
    ):
        """Convert to ``layout`` through the resilient execution path.

        Unlike :meth:`apply_layout` (which commits the target
        configuration atomically), this drives the conversion batch by
        batch via :func:`repro.core.reconfigure.execute`, surviving the
        faults a :class:`~repro.chaos.ChaosSchedule` injects: failed
        converter commands are retried with backoff, exhausted batches
        roll back, and active plant faults trigger self-healing.  The
        controller then serves the network execution actually produced
        — degraded and/or partially converted — and routing falls back
        to k-shortest-paths over surviving links whenever the
        mode-native strategy cannot apply (see :meth:`routes`).
        Returns the :class:`~repro.core.reconfigure.ExecutionReport`.
        """
        from repro.core.reconfigure import MEMS_OPTICAL, execute

        modes = sorted({m.value for m in layout.pod_modes().values()})
        with obs.span("execute_layout", modes=",".join(modes)):
            target = hybrid_configs(self.flattree, layout.pod_modes())
            plan = self._plan(target)
            report = execute(
                self.flattree,
                plan,
                self.network,
                technology=technology or MEMS_OPTICAL,
                max_batch=max_batch,
                start=start,
                chaos=chaos,
                policy=policy,
                monitor=monitor,
            )
            self.layout = layout
            self._partial = not report.success
            self._failures = (
                None if report.failures.is_empty() else report.failures
            )
            self._network = report.network
            self._route_cache.clear()
            self.last_plan = plan
            if monitor is not None:
                monitor.rebind(report.network)
            return report

    # ------------------------------------------------------------------
    # failure self-recovery (paper §5)
    # ------------------------------------------------------------------
    def recover(self, failures) -> ReconfigurationPlan:
        """Re-configure converters to survive a failure set.

        Uses :func:`repro.core.failures.heal` to pick, per affected
        converter (and jointly per side pair), the configuration that
        keeps servers attached through healthy legs and preserves the
        most circuits.  Returns the executed plan; the network is rebuilt
        on use as the *intended* materialization under the controller's
        own active failures — ask ``flattree.materialize(failures=...)``
        for the degraded view.
        """
        from repro.core.failures import heal

        return self._commit(heal(self.flattree, failures))

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _is_pure_clos(self) -> bool:
        return all(
            zone.mode is Mode.CLOS for zone in self.layout.zones
        )

    def routes(self, src_server: int, dst_server: int) -> List[Path]:
        """Candidate switch paths between two servers' switches.

        Pure Clos uses the deterministic two-level route; any converted
        network uses k-shortest-paths (Jellyfish-style), cached per
        switch pair.  On a degraded or partially-converted network the
        native strategy's precomputed tables may reference dead
        elements, so the controller validates the native path against
        the live network and falls back to k-shortest-paths over the
        surviving links when it cannot apply.
        """
        net = self.network
        src_sw = net.server_switch(src_server)
        dst_sw = net.server_switch(dst_server)
        if src_sw == dst_sw:
            return [Path((src_sw,))]
        if self._is_pure_clos():
            try:
                return [two_level_route(
                    self.flattree.params, net, src_server, dst_server
                )]
            except (ReproError, KeyError):
                if not self.degraded:
                    raise
                obs.incr("core.controller.native_route_fallbacks")
        key = (src_sw, dst_sw)
        if key not in self._route_cache:
            obs.incr("core.controller.route_cache_misses")
            self._route_cache[key] = k_shortest_paths(net, src_sw, dst_sw)
        else:
            obs.incr("core.controller.route_cache_hits")
        return self._route_cache[key]

    def route(
        self, src_server: int, dst_server: int, flow_key: object = 0
    ) -> Path:
        """One path for a flow, hash-selected among the candidates."""
        options = self.routes(src_server, dst_server)
        if not options:
            raise RoutingError(
                f"no route between servers {src_server} and {dst_server}"
            )
        if options[0].hops == 0:
            return options[0]
        return select_path(options, flow_key)

    def compile_sdn(
        self, server_pairs: List[Tuple[int, int]]
    ) -> SdnProgram:
        """Pre-compute and compile SDN rules for the given server pairs."""
        table = RoutingTable(name=f"controller[{self.network.name}]")
        for src, dst in server_pairs:
            table.add(self.routes(src, dst))
        return SdnProgram.compile(table)


def _cables(links: Iterable[RealizedLink],
            rank: Mapping[SwitchId, int]) -> Counter:
    """The cables among ``links`` as a multiset, each oriented by rank."""
    return Counter((a, b) if rank[a] <= rank[b] else (b, a)
                   for tag, a, b in links if tag == "cable")
