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

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.errors import ReproError, RoutingError
from repro.core.conversion import Mode, hybrid_configs, mode_configs
from repro.core.converter import ConverterConfig, ConverterId
from repro.core.flattree import FlatTree
from repro.core.zones import ZoneLayout, uniform_layout
from repro.routing.base import Path, RoutingTable, select_path
from repro.routing.ksp import k_shortest_paths
from repro.routing.sdn import SdnProgram
from repro.routing.twolevel import two_level_route
from repro.topology.elements import Network, SwitchId


@dataclass
class ReconfigurationPlan:
    """Everything one conversion entails, for audit and staging.

    ``pairs`` are the side pairs whose two ends are both re-programmed;
    no batch of a schedule may split one.  ``stages`` is the execution
    order: converters are drained (their circuits go dark),
    re-programmed, then restored — flows must be steered off the
    affected links before stage 1 commits.
    """

    config_changes: Dict[ConverterId, Tuple[ConverterConfig, ConverterConfig]]
    links_removed: List[Tuple[SwitchId, SwitchId]]
    links_added: List[Tuple[SwitchId, SwitchId]]
    servers_moved: Dict[int, Tuple[SwitchId, SwitchId]]
    pairs: List[Tuple[ConverterId, ConverterId]]
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
        """Plan ``target``, commit it, and serve the planned network."""
        plan, after = self._plan(target)
        self.flattree.set_configs(target)
        self._network = after
        self._route_cache.clear()
        self.last_plan = plan
        return plan

    def _plan(
        self, target: Mapping[ConverterId, ConverterConfig]
    ) -> Tuple[ReconfigurationPlan, Network]:
        """The plan to reach ``target`` and the network it yields.

        Both networks of the diff are materialized under the active
        plant failures, so the plan compares like with like.
        """
        before = self.network
        changes = self.flattree.diff_configs(target)
        after = self.flattree.materialize(target, failures=self._failures)

        removed, added = _link_diff(before, after)
        moved = {
            server: (before.server_switch(server), after.server_switch(server))
            for server in before.servers()
            if before.server_switch(server) != after.server_switch(server)
        }
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
            servers_moved=moved,
            pairs=[(left, right) for left, right in self.flattree.pairs
                   if left in changes and right in changes],
            stages=stages,
        ), after

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
            plan, _after = self._plan(target)
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
        most circuits.  Returns the executed plan; the cached network is
        the *intended* healthy materialization — ask
        ``flattree.materialize(failures=...)`` for the degraded view.
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


def _link_diff(
    before: Network, after: Network
) -> Tuple[List[Tuple[SwitchId, SwitchId]], List[Tuple[SwitchId, SwitchId]]]:
    """Cable-level differences between two materializations."""

    def multiset(net: Network) -> Dict[frozenset, int]:
        return {
            frozenset((u, v)): d["mult"]
            for u, v, d in net.fabric.edges(data=True)
        }

    b, a = multiset(before), multiset(after)
    deltas: Dict[frozenset, int] = {}
    for key in a.keys() | b.keys():
        delta = a.get(key, 0) - b.get(key, 0)
        if delta:
            deltas[key] = delta
    removed: List[Tuple[SwitchId, SwitchId]] = []
    added: List[Tuple[SwitchId, SwitchId]] = []
    # Sorted, and each cable oriented by the same order, so the cable
    # diff (and any batch schedule or link label built from it) is
    # independent of PYTHONHASHSEED; repr keys because the switch
    # NamedTuple variants are not mutually orderable.  Only changed
    # cables are sorted: most of a conversion's cables stay put.
    for key in sorted(deltas, key=lambda pair: sorted(repr(s) for s in pair)):
        delta = deltas[key]
        pair = tuple(sorted(key, key=repr))
        if delta < 0:
            removed.extend([pair] * -delta)
        else:
            added.extend([pair] * delta)
    return removed, added
