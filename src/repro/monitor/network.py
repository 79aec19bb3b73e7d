"""sFlow/INT-style network monitoring plane over a fabric.

The paper's claims (§3.2-§3.4) are statements about *link-level load*
— flat-tree within a few percent of the random graph's path length,
zero-hop conversion, hybrid-zone isolation — yet the LP and the fluid
simulator only report endpoint aggregates.  :class:`NetworkMonitor`
closes that gap: the max-min allocator and the flowsim event loop
publish per-directed-link utilization, active-flow counts and
per-switch aggregate load at every allocation event; the conversion
engine publishes link-down/link-up events per schedule batch.  The
monitor maintains

* **bounded time series** per directed link (ring buffer of
  :class:`LinkSample`, configurable sampling ``interval`` and
  ``retention``) with exact running peak/mean even after old samples
  are evicted;
* a **downtime ledger**: dark windows per physical link, the
  audit-side cross-check of ``Schedule.blink_window`` and the input to
  :meth:`NetworkMonitor.dark_traffic` (how much in-flight traffic
  traversed dark links);
* **derived stats**: top-K hotspot links, per-switch aggregate load,
  Gini / max-min imbalance over mean link utilization.

When :mod:`repro.obs` telemetry is enabled, every recorded sample and
down/up transition is exported through the current sink as
``link_sample`` / ``link_down`` / ``link_up`` JSONL events (see
``docs/observability.md`` for the schemas).  A monitor attached to
nothing costs nothing: all publishers take ``monitor=None`` fast paths.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.errors import ReproError
from repro.obs.stats import gini as _gini
from repro.obs.stats import nearest_rank_quantile
from repro.routing.base import Path
from repro.topology.elements import Network, SwitchId

LinkKey = Tuple[SwitchId, SwitchId]

#: Default sampling interval in simulated seconds (0 = every event).
DEFAULT_INTERVAL = 0.0
#: Default ring-buffer retention per directed link, in samples.
DEFAULT_RETENTION = 1024
#: Event types the monitor exports through the obs sinks.
CAPABILITIES: Tuple[str, ...] = ("link_sample", "link_down", "link_up")


def switch_label(switch: SwitchId) -> str:
    """Compact human-readable switch name (``agg0.1``, ``core3``)."""
    kind = getattr(switch, "kind", None)
    if kind in ("edge", "agg"):
        return f"{kind}{switch.pod}.{switch.index}"
    if kind == "core":
        return f"core{switch.index}"
    if kind == "switch":
        return f"sw{switch.index}"
    return repr(switch)


def link_label(u: SwitchId, v: SwitchId) -> str:
    """Directed link name used in events and reports."""
    return f"{switch_label(u)}->{switch_label(v)}"


@dataclass(frozen=True)
class LinkSample:
    """One utilization observation of a directed link."""

    t: float
    rate: float
    utilization: float
    active_flows: int


class LinkSeries:
    """Bounded time series plus exact running stats for one link.

    The ring buffer holds the most recent ``retention`` samples; the
    running ``peak``/``mean`` statistics cover *every* observation ever
    recorded, so eviction never distorts the derived stats.
    """

    __slots__ = ("key", "capacity", "samples", "count", "peak",
                 "peak_flows", "_util_sum")

    def __init__(self, key: LinkKey, capacity: float, retention: int) -> None:
        self.key = key
        self.capacity = capacity
        self.samples: Deque[LinkSample] = deque(maxlen=retention)
        self.count = 0
        self.peak = 0.0
        self.peak_flows = 0
        self._util_sum = 0.0

    def record(self, sample: LinkSample) -> None:
        self.samples.append(sample)
        self.count += 1
        self._util_sum += sample.utilization
        if sample.utilization > self.peak:
            self.peak = sample.utilization
        if sample.active_flows > self.peak_flows:
            self.peak_flows = sample.active_flows

    @property
    def mean_utilization(self) -> float:
        return self._util_sum / self.count if self.count else 0.0

    def utilization_quantile(self, q: float) -> float:
        """Nearest-rank quantile over the *retained* samples."""
        return nearest_rank_quantile(
            (s.utilization for s in self.samples), q
        )

    def snapshot(self) -> Dict[str, object]:
        return {
            "link": link_label(*self.key),
            "capacity": self.capacity,
            "samples": self.count,
            "peak_utilization": self.peak,
            "mean_utilization": self.mean_utilization,
            "peak_active_flows": self.peak_flows,
        }


class NetworkMonitor:
    """Monitoring plane: link counters, switch loads, downtime ledger.

    Publishers call :meth:`on_allocation` (allocator/flowsim) and
    :meth:`link_down` / :meth:`link_up` (conversion engine); consumers
    read :meth:`hotspots`, :meth:`switch_loads`, :meth:`gini`,
    :meth:`downtime` and :meth:`dark_traffic`, or render the report
    tables in :mod:`repro.monitor.report`.
    """

    def __init__(
        self,
        net: Network,
        interval: float = DEFAULT_INTERVAL,
        retention: int = DEFAULT_RETENTION,
    ) -> None:
        if interval < 0:
            raise ReproError("sampling interval must be non-negative")
        if retention < 1:
            raise ReproError("retention must be at least 1 sample")
        self.net = net
        self.interval = interval
        self.retention = retention
        self._capacity: Dict[LinkKey, float] = {}
        self._bind_capacities(net)
        self._series: Dict[LinkKey, LinkSeries] = {}
        self._switch_sum: Dict[SwitchId, float] = {}
        self._switch_peak: Dict[SwitchId, float] = {}
        self.events_seen = 0
        self.samples_taken = 0
        self._last_sample_t = -math.inf
        # Downtime ledger: undirected link -> list of [down_t, up_t|None].
        self._dark: Dict[frozenset, List[List[Optional[float]]]] = {}
        self._dark_keys: Dict[frozenset, LinkKey] = {}

    def _bind_capacities(self, net: Network) -> None:
        for u, v, cap in net.edge_list():
            self._capacity[(u, v)] = cap
            self._capacity[(v, u)] = cap

    def rebind(self, net: Network) -> None:
        """Point the monitor at a new materialization of the fabric.

        Used across a live conversion: series for surviving links keep
        accumulating, links new to the fabric get fresh series, and the
        downtime ledger carries over untouched, so one monitor holds
        the utilization trajectory of the whole before/after timeline.
        """
        self.net = net
        self._bind_capacities(net)

    # ------------------------------------------------------------------
    # publishers
    # ------------------------------------------------------------------
    def on_allocation(
        self,
        t: float,
        link_rates: Dict[LinkKey, float],
        link_flows: Optional[Dict[LinkKey, int]] = None,
    ) -> None:
        """Record one allocation event (rate per loaded directed link).

        ``interval`` throttles recording: events closer than the
        sampling interval to the previous recorded sample are counted
        but not sampled, bounding both memory and JSONL volume.
        """
        self.events_seen += 1
        if (self.interval > 0.0 and self.samples_taken
                and t - self._last_sample_t < self.interval):
            return
        self._last_sample_t = t
        self.samples_taken += 1
        link_flows = link_flows or {}
        export = obs.enabled()
        switch_load: Dict[SwitchId, float] = {}
        for key, rate in link_rates.items():
            capacity = self._capacity.get(key)
            if capacity is None:
                capacity = self.net.capacity(*key)
                if capacity <= 0:
                    raise ReproError(
                        f"allocation on unknown link {link_label(*key)}"
                    )
                self._capacity[key] = capacity
            series = self._series.get(key)
            if series is None:
                series = LinkSeries(key, capacity, self.retention)
                self._series[key] = series
            utilization = rate / capacity
            flows = link_flows.get(key, 0)
            series.record(LinkSample(t, rate, utilization, flows))
            for switch in key:
                switch_load[switch] = switch_load.get(switch, 0.0) + rate
            if export:
                obs.publish(
                    "link_sample", "monitor.link_sample",
                    t=t,
                    link=link_label(*key),
                    value=utilization,
                    utilization=utilization,
                    rate=rate,
                    capacity=capacity,
                    active_flows=flows,
                )
        for switch, load in switch_load.items():
            self._switch_sum[switch] = (
                self._switch_sum.get(switch, 0.0) + load
            )
            if load > self._switch_peak.get(switch, 0.0):
                self._switch_peak[switch] = load
        obs.incr("monitor.samples")
        obs.incr("monitor.link_samples", len(link_rates))

    def link_down(self, t: float, u: SwitchId, v: SwitchId) -> None:
        """A physical link goes dark (conversion batch commits)."""
        key = frozenset((u, v))
        windows = self._dark.setdefault(key, [])
        if windows and windows[-1][1] is None:
            raise ReproError(
                f"link {link_label(u, v)} is already dark"
            )
        windows.append([t, None])
        self._dark_keys.setdefault(key, (u, v))
        obs.incr("monitor.link_down_events")
        obs.publish(
            "link_down", "monitor.link_down",
            t=t, link=link_label(u, v), value=1,
        )

    def link_up(self, t: float, u: SwitchId, v: SwitchId) -> None:
        """A dark link is restored; closes its open downtime window."""
        key = frozenset((u, v))
        windows = self._dark.get(key)
        if not windows or windows[-1][1] is not None:
            raise ReproError(
                f"link_up for {link_label(u, v)} without a matching "
                f"link_down"
            )
        down_t = windows[-1][0]
        if t < down_t:
            raise ReproError(
                f"link {link_label(u, v)} comes up at {t} before it "
                f"went down at {down_t}"
            )
        windows[-1][1] = t
        obs.incr("monitor.link_up_events")
        obs.publish(
            "link_up", "monitor.link_up",
            t=t, link=link_label(u, v), value=1, dark_s=t - down_t,
        )

    # ------------------------------------------------------------------
    # derived statistics
    # ------------------------------------------------------------------
    def series(self) -> List[LinkSeries]:
        """All tracked link series (links that ever carried traffic)."""
        return list(self._series.values())

    def link_series(self, u: SwitchId, v: SwitchId) -> Optional[LinkSeries]:
        return self._series.get((u, v))

    def hotspots(self, k: int = 10, by: str = "peak") -> List[LinkSeries]:
        """Top-``k`` busiest links by peak or mean utilization."""
        if by not in ("peak", "mean"):
            raise ReproError(f"hotspot ordering must be peak/mean, not {by!r}")
        return sorted(
            self._series.values(),
            key=lambda s: (
                -(s.peak if by == "peak" else s.mean_utilization),
                link_label(*s.key),
            ),
        )[:k]

    def switch_loads(self) -> Dict[SwitchId, float]:
        """Mean aggregate load (sum of incident link rates) per switch."""
        if not self.samples_taken:
            return {}
        return {
            s: total / self.samples_taken
            for s, total in self._switch_sum.items()
        }

    def switch_peak_loads(self) -> Dict[SwitchId, float]:
        return dict(self._switch_peak)

    def gini(self) -> float:
        """Gini coefficient over mean utilization of *all* fabric links.

        Idle links count as zero load: a fabric where traffic crowds
        onto a few links scores high even if those links are balanced
        among themselves.
        """
        means = {key: 0.0 for key in self._capacity}
        for key, series in self._series.items():
            means[key] = series.mean_utilization
        return _gini(means.values())

    def max_min_imbalance(self) -> float:
        """Max over links of mean utilization / fabric-wide mean (>= 1).

        1.0 is perfectly balanced; large values mean hotspot links run
        far above the average link.  Returns 0 with no samples.
        """
        if not self._series:
            return 0.0
        means = [0.0] * (len(self._capacity) - len(self._series))
        means.extend(s.mean_utilization for s in self._series.values())
        overall = sum(means) / len(means)
        if overall == 0:
            return 0.0
        return max(means) / overall

    def peak_utilization(self) -> float:
        """Highest utilization any link ever reached."""
        return max((s.peak for s in self._series.values()), default=0.0)

    def time_range(self) -> Tuple[float, float]:
        """(first, last) sample time over the retained samples."""
        first = math.inf
        last = -math.inf
        for series in self._series.values():
            if series.samples:
                first = min(first, series.samples[0].t)
                last = max(last, series.samples[-1].t)
        if first is math.inf:
            return (0.0, 0.0)
        return (first, last)

    # ------------------------------------------------------------------
    # downtime ledger
    # ------------------------------------------------------------------
    def dark_windows(self, u: SwitchId, v: SwitchId) -> List[Tuple[float, float]]:
        """Closed dark windows of a physical link (direction-agnostic)."""
        return [
            (t0, t1)
            for t0, t1 in self._dark.get(frozenset((u, v)), [])
            if t1 is not None
        ]

    def open_dark_links(self) -> List[LinkKey]:
        """Links currently dark (down without a matching up)."""
        return [
            self._dark_keys[key]
            for key, windows in self._dark.items()
            if windows and windows[-1][1] is None
        ]

    def downtime(self) -> Dict[LinkKey, float]:
        """Total dark seconds per physical link (closed windows only)."""
        out: Dict[LinkKey, float] = {}
        for key, windows in self._dark.items():
            total = sum(t1 - t0 for t0, t1 in windows if t1 is not None)
            out[self._dark_keys[key]] = total
        return out

    def total_dark_time(self) -> float:
        """Sum of per-link dark time (link-seconds of downtime)."""
        return sum(self.downtime().values())

    def dark_traffic(
        self, flows: Iterable[Tuple[Path, float, float]]
    ) -> float:
        """Flow-seconds of in-flight traffic that traversed dark links.

        ``flows`` is ``(path, start, finish)`` per flow.  For every
        (flow, link on its path, closed dark window) triple, the overlap
        of the flow's lifetime with the window accumulates — the
        disruption a drain-less conversion would have inflicted.
        """
        windows_by_link = {
            key: [(t0, t1) for t0, t1 in windows if t1 is not None]
            for key, windows in self._dark.items()
        }
        if not windows_by_link:
            return 0.0
        total = 0.0
        for path, start, finish in flows:
            for u, v in path.edges():
                for t0, t1 in windows_by_link.get(frozenset((u, v)), ()):
                    total += max(0.0, min(finish, t1) - max(start, t0))
        return total

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable summary of everything the monitor holds."""
        return {
            "net": self.net.name,
            "interval": self.interval,
            "retention": self.retention,
            "events_seen": self.events_seen,
            "samples_taken": self.samples_taken,
            "links_tracked": len(self._series),
            "peak_utilization": self.peak_utilization(),
            "gini": self.gini(),
            "max_min_imbalance": self.max_min_imbalance(),
            "links": [s.snapshot() for s in self.hotspots(len(self._series))],
            "switch_loads": {
                switch_label(s): load
                for s, load in sorted(
                    self.switch_loads().items(),
                    key=lambda item: -item[1],
                )
            },
            "downtime": {
                link_label(*key): dark
                for key, dark in self.downtime().items()
            },
            "total_dark_s": self.total_dark_time(),
        }

    def describe(self) -> str:
        interval = ("every event" if self.interval == 0
                    else f"{self.interval:g}s")
        return (
            f"monitor({self.net.name}: {len(self._series)} links, "
            f"{self.samples_taken}/{self.events_seen} events sampled, "
            f"interval {interval}, retention {self.retention})"
        )
