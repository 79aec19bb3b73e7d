"""Shared statistics helpers used across telemetry and simulation.

One implementation of nearest-rank quantile indexing serves the
metrics registry (:class:`~repro.obs.registry.Histogram`), simulation
results (:class:`~repro.flowsim.simulator.SimulationResult`) and the
network monitor's derived link statistics, so the three subsystems can
never drift apart on percentile semantics.  The streaming primitives
(:class:`Ewma`, :class:`WindowedQuantile`) back the health plane's
per-series rollups (:mod:`repro.health`): O(1) state per series, no
allocation on the update path.  :func:`scrub_nonfinite` is the one
NaN scrub every durable JSON artifact goes through.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, Iterable, Sequence, Tuple

from repro.errors import ReproError

#: The quantiles every summary table in the repo reports.
SUMMARY_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p90", 0.90), ("p99", 0.99),
)


def nearest_rank_quantile(values: Iterable[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (``nan`` when empty).

    Uses the inclusive nearest-rank definition: the smallest sample
    whose rank is at least ``ceil(q * n)``, clamped to the sample range,
    so ``q=0`` is the minimum and ``q=1`` the maximum.
    """
    if not 0.0 <= q <= 1.0:
        raise ReproError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(values)
    if not ordered:
        return math.nan
    index = min(len(ordered) - 1,
                max(0, int(math.ceil(q * len(ordered))) - 1))
    return ordered[index]


def quantile_summary(values: Sequence[float]) -> Dict[str, float]:
    """``{"p50": ..., "p90": ..., "p99": ...}`` over *values*.

    The one place the repo's p50/p90/p99 triple is spelled out —
    :class:`~repro.obs.registry.Histogram` snapshots, link-series
    summaries and the health plane's rollups all call this instead of
    repeating three ``nearest_rank_quantile`` lines each.
    """
    ordered = sorted(values)
    return {
        label: nearest_rank_quantile(ordered, q)
        for label, q in SUMMARY_QUANTILES
    }


class Ewma:
    """Exponentially-weighted moving average, O(1) per observation.

    ``alpha`` is the per-observation smoothing factor (weight of the
    newest sample); :meth:`from_half_life` derives it from the number
    of observations after which an old sample's weight has halved.
    Before the first update :attr:`value` is ``nan``; the first
    observation seeds the average exactly (no zero-bias warmup).
    """

    __slots__ = ("alpha", "value", "count")

    def __init__(self, alpha: float = 0.2) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ReproError(f"EWMA alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value = math.nan
        self.count = 0

    @classmethod
    def from_half_life(cls, half_life: float) -> "Ewma":
        """EWMA whose sample weight halves every *half_life* updates."""
        if half_life <= 0:
            raise ReproError(f"half-life must be positive, got {half_life}")
        return cls(alpha=1.0 - 2.0 ** (-1.0 / half_life))

    def update(self, value: float) -> float:
        """Fold one observation in; returns the new average."""
        self.count += 1
        if self.count == 1:
            self.value = float(value)
        else:
            self.value += self.alpha * (float(value) - self.value)
        return self.value


class WindowedQuantile:
    """Sliding-window quantiles over the last ``window`` observations.

    A bounded ring buffer (O(1) push, O(window) memory); quantiles are
    computed on demand through the shared nearest-rank definition, so
    a windowed p99 here and a histogram p99 can never disagree on
    semantics.  ``sum``/``count`` cover every observation ever pushed
    (eviction never distorts the running mean).
    """

    __slots__ = ("window", "_samples", "count", "sum")

    def __init__(self, window: int = 128) -> None:
        if window < 1:
            raise ReproError(f"window must be >= 1, got {window}")
        self.window = window
        self._samples: Deque[float] = deque(maxlen=window)
        self.count = 0
        self.sum = 0.0

    def push(self, value: float) -> None:
        self._samples.append(float(value))
        self.count += 1
        self.sum += float(value)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        """Running mean over *all* observations (not just the window)."""
        return self.sum / self.count if self.count else math.nan

    @property
    def last(self) -> float:
        return self._samples[-1] if self._samples else math.nan

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the retained window."""
        return nearest_rank_quantile(self._samples, q)

    def summary(self) -> Dict[str, float]:
        return quantile_summary(list(self._samples))


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of a non-negative distribution (0 = balanced).

    The monitor uses it over per-link mean utilizations as the
    load-imbalance summary: 0 means every link carries the same load,
    values toward 1 mean a few links carry nearly everything.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    if ordered[0] < 0:
        raise ReproError("gini requires non-negative values")
    # One fused pass: sum and the rank-weighted sum together.  This is
    # on the health plane's per-evaluation path, where generator frames
    # per element were the dominant constant factor.
    total = 0.0
    weighted = 0.0
    coefficient = 1 - n
    for v in ordered:
        total += v
        weighted += coefficient * v
        coefficient += 2
    if total == 0:
        return 0.0
    return weighted / (n * total)


def scrub_nonfinite(value: Any) -> Any:
    """Replace NaN/inf floats with ``None``, through dicts and sequences.

    JSON has no NaN, so health reports and remediation ledgers pass
    through this before they are written: the files stay standard
    JSON and diff cleanly.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: scrub_nonfinite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [scrub_nonfinite(item) for item in value]
    return value
