"""Trajectory-aware regression analytics over durable perf sessions.

``tools.perfreport diff`` judges two ``BENCH_*.json`` sessions
pairwise: one noisy recording can flip the gate either way.  This
module ingests the *whole* recorded trajectory — every numbered
``BENCH_<seq>.json`` at the repo root — into per-metric time series
and judges the newest point against a noise model fitted to its own
history:

* **noise model** — per metric, the median and median absolute
  deviation (MAD) over the trailing window (default 8 sessions,
  newest excluded).  The acceptance band half-width is::

      max(sigmas * 1.4826 * MAD, rel_floor * median, min_runtime_s)

  ``1.4826 * MAD`` estimates a Gaussian sigma robustly, so one
  historical outlier cannot widen the band the way a stddev would;
  the relative floor (default 25%, the pairwise gate's tolerance
  :data:`repro.obs.bench.DEFAULT_TOLERANCE`) keeps near-constant series
  from producing a zero-width band, and the absolute floor (default
  5 ms, :data:`repro.obs.bench.DEFAULT_MIN_RUNTIME_S`) mutes timer
  jitter on micro-benches.
* **step detection** — the newest value outside the band is a
  ``step-up`` (regression; drives ``exit_code`` 1) or ``step-down``
  (improvement; reported, never fails).  Every *historical* point is
  also scanned against its own preceding window so the renderers can
  mark where past steps landed in the series.

Surface: ``python -m tools.perfreport trend`` (text / JSON /
markdown); ``make bench-compare`` gates CI on this instead of the
pairwise diff.  A regression must therefore exceed the *noise band*,
not merely the 25% pairwise tolerance.

Like the other durable-artifact writers this module is a
replay-critical flatlint FT007 sink: reports must be byte-identical
across replays, so no wall clock or RNG may flow in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs import bench
from repro.obs.trace import event

__all__ = [
    "DEFAULT_SIGMAS",
    "DEFAULT_WINDOW",
    "MAD_SCALE",
    "MIN_HISTORY",
    "MetricTrend",
    "SeriesPoint",
    "StepChange",
    "TrendReport",
    "analyze_series",
    "analyze_trajectory",
    "bench_series",
    "emit_trend_event",
    "render_json",
    "render_markdown",
    "render_text",
]

#: Trailing sessions the noise model is fitted to (newest excluded).
DEFAULT_WINDOW = 8

#: Band half-width in robust sigmas; 4 keeps honest noise inside.
DEFAULT_SIGMAS = 4.0

#: MAD -> sigma for Gaussian noise (1 / Phi^-1(3/4)).
MAD_SCALE = 1.4826

#: History points needed before the newest one can be judged.
MIN_HISTORY = 2


@dataclass
class SeriesPoint:
    """One session's observation of one metric."""

    seq: int
    label: str  # e.g. "BENCH_3.json"
    value: float


@dataclass
class StepChange:
    """A point that broke out of its trailing noise band."""

    seq: int
    label: str
    direction: str  # step-up | step-down
    value: float
    median: float

    @property
    def ratio(self) -> Optional[float]:
        return self.value / self.median if self.median > 0 else None


@dataclass
class MetricTrend:
    """One metric's series plus the newest point's judgement."""

    metric: str
    points: List[SeriesPoint]
    median: float = 0.0
    mad: float = 0.0
    band_low: float = 0.0
    band_high: float = 0.0
    #: ok | step-up | step-down | below-floor | insufficient-history
    status: str = "insufficient-history"
    steps: List[StepChange] = field(default_factory=list)

    @property
    def newest(self) -> Optional[SeriesPoint]:
        return self.points[-1] if self.points else None

    @property
    def delta(self) -> Optional[float]:
        if self.newest is None or self.status == "insufficient-history":
            return None
        return self.newest.value - self.median

    @property
    def ratio(self) -> Optional[float]:
        if self.newest is None or self.median <= 0:
            return None
        if self.status == "insufficient-history":
            return None
        return self.newest.value / self.median


@dataclass
class TrendReport:
    """The full trajectory judgement the CLIs and the CI gate consume."""

    root: str
    window: int
    sigmas: float
    rel_floor: float
    min_runtime_s: float
    sessions: List[str] = field(default_factory=list)
    metrics: List[MetricTrend] = field(default_factory=list)
    environment_drift: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricTrend]:
        return [m for m in self.metrics if m.status == "step-up"]

    @property
    def improvements(self) -> List[MetricTrend]:
        return [m for m in self.metrics if m.status == "step-down"]

    @property
    def step_count(self) -> int:
        return sum(len(m.steps) for m in self.metrics)

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0


# ----------------------------------------------------------------------
# the noise model
# ----------------------------------------------------------------------

def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _band(history: Sequence[float], sigmas: float, rel_floor: float,
          min_runtime_s: float) -> Tuple[float, float, float, float]:
    """(median, mad, band_low, band_high) for one trailing window."""
    median = _median(history)
    mad = _median([abs(v - median) for v in history])
    half = max(sigmas * MAD_SCALE * mad, rel_floor * median, min_runtime_s)
    return median, mad, max(0.0, median - half), median + half


def analyze_series(
    metric: str,
    points: Sequence[SeriesPoint],
    window: int = DEFAULT_WINDOW,
    sigmas: float = DEFAULT_SIGMAS,
    rel_floor: float = bench.DEFAULT_TOLERANCE,
    min_runtime_s: float = bench.DEFAULT_MIN_RUNTIME_S,
) -> MetricTrend:
    """Judge one metric's newest point against its trailing history.

    Historical breakouts are recorded in ``steps`` (each point judged
    against the window preceding *it*), but only the newest point sets
    ``status`` — an old step already shipped, it is context, not news.
    """
    trend = MetricTrend(metric=metric, points=list(points))
    series = trend.points
    steps: List[StepChange] = []
    for index in range(len(series)):
        history = [p.value for p in series[max(0, index - window):index]]
        if len(history) < MIN_HISTORY:
            continue
        median, mad, low, high = _band(history, sigmas, rel_floor,
                                       min_runtime_s)
        point = series[index]
        if point.value > high:
            direction = "step-up"
        elif point.value < low:
            direction = "step-down"
        else:
            direction = ""
        if direction:
            steps.append(StepChange(seq=point.seq, label=point.label,
                                    direction=direction, value=point.value,
                                    median=median))
        if index == len(series) - 1:
            trend.median, trend.mad = median, mad
            trend.band_low, trend.band_high = low, high
            newest_floor = max(point.value, median)
            if newest_floor < min_runtime_s:
                trend.status = "below-floor"
            else:
                trend.status = direction or "ok"
    trend.steps = steps
    return trend


# ----------------------------------------------------------------------
# trajectory ingestion
# ----------------------------------------------------------------------

def bench_series(
    sessions: Sequence[Tuple[Path, Mapping[str, object]]],
) -> Dict[str, List[SeriesPoint]]:
    """``bench:<key>`` series from decoded ``BENCH_*.json`` sessions."""
    series: Dict[str, List[SeriesPoint]] = {}
    for path, session in sessions:
        benchmarks = session.get("benchmarks")
        if not isinstance(benchmarks, dict):
            continue
        for key in sorted(benchmarks):
            entry = benchmarks[key]
            if not isinstance(entry, dict):
                continue
            wall = entry.get("wall_s")
            if not isinstance(wall, (int, float)) or isinstance(wall, bool):
                continue
            series.setdefault(f"bench:{key}", []).append(SeriesPoint(
                seq=bench.session_seq(path) or 0, label=path.name,
                value=float(wall)))
    return series


def analyze_trajectory(
    root: Optional[Path] = None,
    window: int = DEFAULT_WINDOW,
    sigmas: float = DEFAULT_SIGMAS,
    rel_floor: float = bench.DEFAULT_TOLERANCE,
    min_runtime_s: float = bench.DEFAULT_MIN_RUNTIME_S,
) -> TrendReport:
    """Ingest every numbered session under ``root`` and judge the newest.

    Sessions that fail to decode are skipped with a drift note rather
    than failing the whole report — one corrupt historical artifact
    must not brick the gate.
    """
    root = root if root is not None else bench.repo_root()
    report = TrendReport(root=str(root), window=window, sigmas=sigmas,
                         rel_floor=rel_floor, min_runtime_s=min_runtime_s)
    bench_sessions: List[Tuple[Path, Mapping[str, object]]] = []
    for path in bench.session_paths(root):
        try:
            bench_sessions.append((path, bench.load_session(path)))
        except ReproError as exc:
            report.environment_drift.append(f"{path.name}: unreadable ({exc})")
            continue
        report.sessions.append(path.name)
    all_series = bench_series(bench_sessions)
    report.metrics = [
        analyze_series(metric, all_series[metric], window=window,
                       sigmas=sigmas, rel_floor=rel_floor,
                       min_runtime_s=min_runtime_s)
        for metric in sorted(all_series)
    ]
    for (prev_path, prev), (cur_path, cur) in zip(bench_sessions,
                                                  bench_sessions[1:]):
        report.environment_drift.extend(
            f"{prev_path.name} -> {cur_path.name}: {note}"
            for note in bench.environment_drift(prev, cur))
    return report


# ----------------------------------------------------------------------
# rendering + wire event
# ----------------------------------------------------------------------

_STATUS_ORDER = {"step-up": 0, "step-down": 1, "ok": 2,
                 "below-floor": 3, "insufficient-history": 4}


def _ordered(metrics: Sequence[MetricTrend]) -> List[MetricTrend]:
    return sorted(metrics,
                  key=lambda m: (_STATUS_ORDER.get(m.status, 9),
                                 -(abs(m.delta) if m.delta is not None
                                   else 0.0),
                                 m.metric))


def render_text(report: TrendReport, top: int = 40) -> str:
    """Aligned per-metric trajectory table, regressions first."""
    lines = [
        f"perfreport trend: {len(report.sessions)} session(s) under "
        f"{report.root}",
        f"noise model: median +/- max({report.sigmas:g} x 1.4826 x MAD, "
        f"{report.rel_floor:.0%} x median, "
        f"{report.min_runtime_s * 1e3:g} ms) over trailing "
        f"{report.window} session(s)",
    ]
    header = (f"{'status':<21} {'newest':>10} {'median':>10} {'band':>23} "
              f" metric")
    lines += [header, "-" * len(header)]
    ordered = _ordered(report.metrics)
    for metric in ordered[:top]:
        newest = metric.newest
        value = f"{newest.value:.4f}" if newest is not None else "-"
        if metric.status == "insufficient-history":
            median = band = "-"
        else:
            median = f"{metric.median:.4f}"
            band = f"[{metric.band_low:.4f}, {metric.band_high:.4f}]"
        ratio = (f" ({metric.ratio:.2f}x)"
                 if metric.ratio is not None
                 and metric.status in ("step-up", "step-down") else "")
        lines.append(f"{metric.status + ratio:<21} {value:>10} {median:>10} "
                     f"{band:>23}  {metric.metric}")
    if len(report.metrics) > top:
        lines.append(f"... {len(report.metrics) - top} more metric(s) "
                     f"(raise --top)")
    past = [(metric.metric, step) for metric in report.metrics
            for step in metric.steps
            if metric.newest is None or step.seq != metric.newest.seq]
    if past:
        lines.append("")
        lines.append("historical steps:")
        for name, step in past:
            ratio = f" ({step.ratio:.2f}x)" if step.ratio is not None else ""
            lines.append(f"  {step.label}: {name} {step.direction} to "
                         f"{step.value:.4f}{ratio}")
    if report.environment_drift:
        lines.append("")
        lines.append("environment drift:")
        lines.extend(f"  {note}" for note in report.environment_drift)
    lines.append(
        f"{len(report.regressions)} regression(s), "
        f"{len(report.improvements)} improvement(s) across "
        f"{len(report.metrics)} metric(s)")
    return "\n".join(lines)


def render_json(report: TrendReport) -> Dict[str, object]:
    """JSON-ready report — the ``TREND_REPORT.json`` CI artifact body."""
    return {
        "schema": "flattree.trend/1",
        "root": report.root,
        "window": report.window,
        "sigmas": report.sigmas,
        "rel_floor": report.rel_floor,
        "min_runtime_s": report.min_runtime_s,
        "sessions": list(report.sessions),
        "regressions": len(report.regressions),
        "improvements": len(report.improvements),
        "environment_drift": list(report.environment_drift),
        "metrics": [
            {
                "metric": m.metric,
                "status": m.status,
                "newest": m.newest.value if m.newest is not None else None,
                "median": m.median,
                "mad": m.mad,
                "band_low": m.band_low,
                "band_high": m.band_high,
                "delta": m.delta,
                "ratio": m.ratio,
                "points": [
                    {"seq": p.seq, "label": p.label, "value": p.value}
                    for p in m.points
                ],
                "steps": [
                    {"seq": s.seq, "label": s.label,
                     "direction": s.direction, "value": s.value,
                     "median": s.median, "ratio": s.ratio}
                    for s in m.steps
                ],
            }
            for m in _ordered(report.metrics)
        ],
    }


def render_markdown(report: TrendReport, top: int = 40) -> str:
    """GitHub-flavored summary table for PR comments / job summaries."""
    lines = [
        "## Performance trajectory",
        "",
        f"{len(report.sessions)} session(s); noise band = median +/- "
        f"max({report.sigmas:g}x1.4826xMAD, {report.rel_floor:.0%}, "
        f"{report.min_runtime_s * 1e3:g} ms) over trailing "
        f"{report.window}.",
        "",
        "| status | metric | newest | median | band |",
        "|---|---|---:|---:|---|",
    ]
    for metric in _ordered(report.metrics)[:top]:
        newest = metric.newest
        value = f"{newest.value:.4f}" if newest is not None else "-"
        if metric.status == "insufficient-history":
            median = band = "-"
        else:
            median = f"{metric.median:.4f}"
            band = f"[{metric.band_low:.4f}, {metric.band_high:.4f}]"
        badge = {"step-up": "**step-up**",
                 "step-down": "step-down"}.get(metric.status, metric.status)
        lines.append(f"| {badge} | `{metric.metric}` | {value} | {median} "
                     f"| {band} |")
    if report.environment_drift:
        lines.append("")
        lines.append("Environment drift:")
        lines.extend(f"- {note}" for note in report.environment_drift)
    lines.append("")
    lines.append(f"{len(report.regressions)} regression(s), "
                 f"{len(report.improvements)} improvement(s).")
    return "\n".join(lines)


def emit_trend_event(report: TrendReport) -> None:
    """Publish the registered ``perf.trend_session`` wire event."""
    event("perf.trend_session", sessions=len(report.sessions),
          metrics=len(report.metrics), steps=report.step_count)
