"""Statistical sampling profiler: wall-clock stacks with span context.

The span profiler (:mod:`repro.obs.perf`) only attributes time to code
we already wrapped in spans — exactly the wrong tool for *discovering*
unknown hotspots inside builders, KSP, MCF, or flowsim internals.
:class:`SamplingProfiler` fills that gap: a background daemon thread
snapshots the target thread's Python stack via
:func:`sys._current_frames` at a configurable rate, aggregates
identical stacks, and tags every sample with the innermost telemetry
span active on the target thread at capture time (via
:func:`repro.obs.trace.active_span_path`), so function-level self/cum
time lands *inside* the existing span taxonomy.

Costs and caveats:

* Overhead is O(stack depth) per sample on the *sampler* thread; the
  target thread pays nothing beyond GIL handoffs.  At the default
  97 Hz the flowsim benchmark gate holds total overhead under 5 %
  plus a 10 ms jitter floor, about 12 % at its ~0.13 s baseline
  (``benchmarks/test_bench_overhead.py``).
* The default rate is a prime (97 Hz) so periodic program phases do
  not alias against the sampling clock.
* Sampling is statistical: functions cheaper than a few sample
  periods may not appear at all.  Durations are estimates
  (``samples x period``), not measurements.

Wire events (registered in :mod:`repro.obs.contract`):
``sampler.start`` on :meth:`SamplingProfiler.start`, ``sampler.flush``
on each :meth:`~SamplingProfiler.flush`, ``sampler.stop`` with the
final sample count on :meth:`~SamplingProfiler.stop`.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from types import FrameType, TracebackType
from typing import Dict, List, Optional, Tuple, Type

from repro.obs.trace import active_span_path, event

__all__ = [
    "DEFAULT_HZ",
    "FunctionStat",
    "SampleProfile",
    "SamplingProfiler",
]

#: Default sampling rate.  Prime, so periodic phases in the profiled
#: program do not alias against the sampler clock.
DEFAULT_HZ = 97.0

#: Frames deeper than this are truncated (innermost kept); guards the
#: per-sample cost against pathological recursion.
_MAX_DEPTH = 128

#: One aggregated sample bucket: (span path at capture, root-first
#: stack of ``module.qualname`` frames) -> hit count.
_Counts = Dict[Tuple[str, Tuple[str, ...]], int]


def _frame_key(frame: FrameType) -> str:
    """``module.qualname`` for one frame (qualname falls back pre-3.11)."""
    code = frame.f_code
    module = str(frame.f_globals.get("__name__", "?"))
    qualname = str(getattr(code, "co_qualname", code.co_name))
    return f"{module}.{qualname}"


def _stack_of(frame: Optional[FrameType]) -> Tuple[str, ...]:
    """Root-first tuple of frame keys, truncated at :data:`_MAX_DEPTH`."""
    parts: List[str] = []
    cursor = frame
    while cursor is not None and len(parts) < _MAX_DEPTH:
        parts.append(_frame_key(cursor))
        cursor = cursor.f_back
    parts.reverse()
    return tuple(parts)


@dataclass
class FunctionStat:
    """Per-function attribution aggregated over all samples.

    ``self`` counts samples where the function was the innermost frame;
    ``cum`` counts samples where it appeared anywhere on the stack
    (deduplicated per sample, so recursion does not double-count).
    ``spans`` maps the telemetry span path active at capture time to
    the number of *self* samples taken under it — the "which phase is
    this hot in" signal the hotspot report ranks by.
    """

    key: str
    self_samples: int = 0
    cum_samples: int = 0
    self_s: float = 0.0
    cum_s: float = 0.0
    spans: Dict[str, int] = field(default_factory=dict)


class SampleProfile:
    """Immutable result of a sampling run."""

    def __init__(self, counts: _Counts, samples: int, duration_s: float,
                 hz: float) -> None:
        self.counts: _Counts = dict(counts)
        self.samples = samples
        self.duration_s = duration_s
        self.hz = hz

    @property
    def period_s(self) -> float:
        """Estimated seconds represented by one sample."""
        if self.samples <= 0:
            return 0.0
        return self.duration_s / self.samples

    @property
    def effective_hz(self) -> float:
        """Achieved sampling rate (<= requested under load)."""
        if self.duration_s <= 0.0:
            return 0.0
        return self.samples / self.duration_s

    def aggregate(self) -> List[FunctionStat]:
        """Per-function stats, sorted by self time (desc), then name."""
        period = self.period_s
        stats: Dict[str, FunctionStat] = {}
        for (span_path, stack), count in self.counts.items():
            if not stack:
                continue
            leaf = stats.setdefault(stack[-1], FunctionStat(stack[-1]))
            leaf.self_samples += count
            leaf.spans[span_path] = leaf.spans.get(span_path, 0) + count
            for key in sorted(set(stack)):
                entry = stats.setdefault(key, FunctionStat(key))
                entry.cum_samples += count
        out = list(stats.values())
        for entry in out:
            entry.self_s = entry.self_samples * period
            entry.cum_s = entry.cum_samples * period
        out.sort(key=lambda entry: (-entry.self_samples, entry.key))
        return out

    def folded(self) -> List[str]:
        """Folded stacks (``a;b;c <weight>``), flamegraph.pl-compatible.

        Weights are integer microseconds of estimated self time, the
        same unit :meth:`repro.obs.perf.Profile.folded` emits, so both
        render through the same tooling.  Span path components prefix
        the Python frames, putting sampled stacks *under* their span in
        the flame graph.
        """
        period_us = self.period_s * 1e6
        weights: Dict[str, int] = {}
        for (span_path, stack), count in self.counts.items():
            parts = span_path.split("/") if span_path else []
            key = ";".join(list(parts) + list(stack))
            if not key:
                continue
            weights[key] = weights.get(key, 0) + int(round(count * period_us))
        return [f"{key} {weight}" for key, weight in sorted(weights.items())]

    def render_table(self, top: int = 20) -> str:
        """Human-readable top-N by self time, with dominant span."""
        lines = [
            f"samples {self.samples}  duration {self.duration_s:.2f}s  "
            f"rate {self.effective_hz:.0f}/{self.hz:.0f} Hz",
            f"{'self_s':>8} {'cum_s':>8} {'self%':>6}  function  [span]",
        ]
        total_s = self.samples * self.period_s
        for entry in self.aggregate()[:top]:
            share = 100.0 * entry.self_s / total_s if total_s > 0 else 0.0
            span = ""
            if entry.spans:
                span_path = max(sorted(entry.spans),
                                key=lambda path: entry.spans[path])
                if span_path:
                    span = f"  [{span_path}]"
            lines.append(f"{entry.self_s:8.3f} {entry.cum_s:8.3f} "
                         f"{share:5.1f}%  {entry.key}{span}")
        return "\n".join(lines)


class SamplingProfiler:
    """Background-thread stack sampler for one target thread.

    Usage::

        profiler = SamplingProfiler(hz=97)
        profiler.start()            # samples the *calling* thread
        ... workload ...
        profile = profiler.stop()   # SampleProfile

    or as a context manager (profile lands on ``.profile``).  One
    profiler instance supports one start/stop cycle.
    """

    def __init__(self, hz: float = DEFAULT_HZ,
                 target_thread_id: Optional[int] = None) -> None:
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz}")
        self.hz = hz
        self._target_thread_id = target_thread_id
        self._interval_s = 1.0 / hz
        self._counts: _Counts = {}
        self._samples = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0
        self._duration_s = 0.0
        #: ``_duration_s`` is finalized both by the sampler thread's
        #: ``finally`` (crash path) and by :meth:`stop` (normal path);
        #: the join() already orders them, but the lock makes the
        #: handoff explicit rather than implicit in the join.
        self._state_lock = threading.Lock()
        self.profile: Optional[SampleProfile] = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def samples(self) -> int:
        """Samples captured so far (approximate while running)."""
        return self._samples

    def start(self) -> "SamplingProfiler":
        """Begin sampling; the target defaults to the calling thread."""
        if self._thread is not None:
            raise RuntimeError("SamplingProfiler cannot be restarted; "
                               "create a new instance")
        if self._target_thread_id is None:
            self._target_thread_id = threading.get_ident()
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-sampler", daemon=True)
        self._thread.start()
        event("sampler.start", hz=self.hz)
        return self

    def stop(self) -> SampleProfile:
        """Stop sampling, join the sampler thread, return the profile.

        Idempotent: a second ``stop()`` returns the cached profile
        instead of raising, so ``finally``-style teardown can call it
        unconditionally after an explicit mid-body stop.
        """
        if self._thread is None:
            raise RuntimeError("SamplingProfiler was never started")
        if self.profile is not None:
            return self.profile
        self._stop.set()
        self._thread.join()
        with self._state_lock:
            if self._duration_s == 0.0:
                self._duration_s = time.perf_counter() - self._started_at
        self.profile = SampleProfile(
            self._counts, self._samples, self._duration_s, self.hz)
        event("sampler.stop", samples=self._samples,
              elapsed_s=self._duration_s)
        return self.profile

    def flush(self, label: str = "") -> int:
        """Emit a ``sampler.flush`` marker; returns samples so far.

        Campaign runners call this at stage boundaries so a live
        telemetry tail shows sampling progress between phases; it does
        not reset or copy the aggregation state.
        """
        event("sampler.flush", samples=self._samples, label=label)
        return self._samples

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> bool:
        # Tear the sampler thread down even when the with-body raised;
        # skip the stop when it already happened (explicit mid-body
        # stop) so the original exception is never masked.
        if self._thread is not None and self.profile is None:
            self.stop()
        return False

    def _run(self) -> None:
        """Sampler thread body: fixed-rate ticks with drift correction.

        The loop runs under ``try/finally``: whatever a capture raises,
        the duration is finalized and the stop flag is set, so a
        crashed sampler can still be ``stop()``ed cleanly and never
        outlives its start/stop cycle.
        """
        target = self._target_thread_id
        assert target is not None
        interval = self._interval_s
        origin = time.perf_counter()
        tick = 0
        try:
            while True:
                tick += 1
                deadline = origin + tick * interval
                delay = deadline - time.perf_counter()
                if delay > 0 and self._stop.wait(delay):
                    break
                if self._stop.is_set():
                    break
                frame = sys._current_frames().get(target)
                if frame is None:  # target thread exited
                    break
                stack = _stack_of(frame)
                del frame  # drop the reference promptly; frames pin locals
                span_path = active_span_path(target)
                bucket = (span_path, stack)
                self._counts[bucket] = self._counts.get(bucket, 0) + 1
                self._samples += 1
        finally:
            self._stop.set()
            with self._state_lock:
                self._duration_s = time.perf_counter() - self._started_at
