"""Telemetry state, span tracing, and the zero-overhead fast path.

Design goals, in order:

1. **Disabled is free.**  Every helper (``incr``, ``observe``,
   ``set_gauge``, ``timer``, ``span``) starts with one attribute check
   against the module-global :data:`_state` and returns immediately —
   no allocation, no dict lookup — so permanently-instrumented hot
   paths cost nothing in normal runs.
2. **Call sites aggregate.**  Instrumentation records *per public call*
   (one ``incr`` with the loop's total, one timer around the whole
   solve), never per inner-loop iteration, so even enabled overhead is
   O(1) per library call.
3. **Events are flat dicts.**  A span exit emits ``{ts, name, kind:
   "span", duration_s, path, depth, ...attrs}``; metric updates (when a
   sink is installed) emit ``{ts, name, kind, value}``.  Sinks are
   pluggable (:mod:`repro.obs.sinks`).
"""

from __future__ import annotations

import contextvars
import os
import time
import tracemalloc
from typing import Dict, Optional, Tuple, Union

from repro.obs.registry import MetricsRegistry
from repro.obs.sinks import NullSink, Sink

#: The process-global registry all helpers write into.
registry = MetricsRegistry()

#: Environment switch for per-span memory accounting (see
#: :func:`enable`); any value other than ``""``/``"0"`` turns it on.
TRACEMALLOC_ENV = "REPRO_TRACEMALLOC"

#: The ambient span stack: ``(name, span_id)`` frames, innermost last.
#: A :mod:`contextvars` variable (not a plain list on ``_state``) so
#: parentage stays correct per-thread and per-async-task.
_SPAN_STACK: "contextvars.ContextVar[Tuple[Tuple[str, int], ...]]" = \
    contextvars.ContextVar("repro_obs_span_stack", default=())


class _State:
    """Mutable telemetry switchboard (one per process)."""

    __slots__ = ("enabled", "sink", "emit_metric_events", "next_span_id",
                 "trace_malloc", "_started_tracemalloc")

    def __init__(self) -> None:
        self.enabled = False
        self.sink: Sink = NullSink()
        self.emit_metric_events = False
        #: Deterministic per-process span-id counter: reset to 1 by
        #: :func:`enable`, so the same instrumented run always yields
        #: the same ids (no wall-clock or randomness in span identity).
        self.next_span_id = 1
        self.trace_malloc = False
        self._started_tracemalloc = False


_state = _State()


def enabled() -> bool:
    """Is telemetry collection currently on?"""
    return _state.enabled


def enable(sink: Optional[Sink] = None,
           emit_metric_events: bool = False,
           trace_malloc: Optional[bool] = None) -> None:
    """Turn telemetry on.

    ``sink`` receives span events (and, with ``emit_metric_events``,
    every metric update) as JSON-ready dicts; ``None`` keeps
    metrics-only collection, the cheapest enabled mode.

    ``trace_malloc`` adds per-span memory accounting: each span event
    grows a ``mem_peak_kb`` attribute, the :mod:`tracemalloc` peak over
    the span body relative to its entry allocation level.  ``None``
    (the default) defers to the :data:`TRACEMALLOC_ENV` environment
    variable.  Peak tracking is process-global, so a nested span that
    resets the peak can make an enclosing span under-report — read
    ``mem_peak_kb`` as per-phase attribution, not an exact bound (see
    ``docs/performance.md``).
    """
    _state.sink = sink if sink is not None else NullSink()
    _state.emit_metric_events = emit_metric_events
    _state.next_span_id = 1
    _SPAN_STACK.set(())
    if trace_malloc is None:
        trace_malloc = os.environ.get(TRACEMALLOC_ENV, "0") not in ("", "0")
    _state.trace_malloc = trace_malloc
    if trace_malloc and not tracemalloc.is_tracing():
        tracemalloc.start()
        _state._started_tracemalloc = True
    _state.enabled = True


def disable() -> None:
    """Turn telemetry off and flush/close the sink."""
    _state.enabled = False
    try:
        _state.sink.flush()
        _state.sink.close()
    finally:
        _state.sink = NullSink()
        _state.emit_metric_events = False
        _SPAN_STACK.set(())
        if _state._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        _state.trace_malloc = False
        _state._started_tracemalloc = False


def current_sink() -> Sink:
    return _state.sink


def _emit_metric(name: str, kind: str, value: float) -> None:
    _state.sink.emit({
        "ts": time.time(),
        "name": name,
        "kind": kind,
        "value": value,
    })


def publish(kind: str, name: str, **fields: object) -> None:
    """Emit one raw wire event through the telemetry bus.

    The sanctioned emission path for library code that produces
    non-metric event kinds (the monitor's ``link_sample`` family):
    everything funnels through the current sink, so the recorded trace
    holds every event regardless of who produced it.  No-op when
    telemetry is disabled; flatlint FT005 forbids bypassing this by
    calling ``current_sink().emit`` directly outside ``repro.obs``.
    """
    if not _state.enabled:
        return
    payload: Dict[str, object] = {"ts": time.time(), "name": name,
                                  "kind": kind}
    payload.update(fields)
    _state.sink.emit(payload)


def incr(name: str, amount: float = 1.0) -> None:
    """Bump counter ``name`` (no-op when telemetry is disabled)."""
    if not _state.enabled:
        return
    registry.counter(name).inc(amount)
    if _state.emit_metric_events:
        _emit_metric(name, "counter", amount)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` (no-op when telemetry is disabled)."""
    if not _state.enabled:
        return
    registry.gauge(name).set(value)
    if _state.emit_metric_events:
        _emit_metric(name, "gauge", value)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` (no-op when disabled)."""
    if not _state.enabled:
        return
    registry.histogram(name).observe(value)
    if _state.emit_metric_events:
        _emit_metric(name, "histogram", value)


class _NullCtx:
    """Shared allocation-free context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullCtx":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_CTX = _NullCtx()


class _Timer:
    __slots__ = ("_name", "_start")

    def __init__(self, name: str) -> None:
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        elapsed = time.perf_counter() - self._start
        if _state.enabled:
            registry.histogram(self._name).observe(elapsed)
            if _state.emit_metric_events:
                _state.sink.emit({
                    "ts": time.time(),
                    "name": self._name,
                    "kind": "timer",
                    "duration_s": elapsed,
                })
        return False


def timer(name: str) -> Union[_NullCtx, _Timer]:
    """``with timer("mcf.exact.solve_s"):`` — seconds into a histogram."""
    if not _state.enabled:
        return _NULL_CTX
    return _Timer(name)


class Span:
    """A named wall-clock phase; nests via the ambient span stack.

    On exit it emits one event carrying the span's ``duration_s``, its
    slash-joined ``path`` (ancestry included), ``depth``, and its trace
    context — a stable ``span_id`` (deterministic per-process counter,
    reset on :func:`enable`) plus the ``parent_id`` of the enclosing
    span (``None`` at the root) — plus any keyword attributes given at
    creation, and records the duration into the registry histogram
    ``span.<name>_s``.  The id links let ``repro.obs.perf`` rebuild the
    exact call tree from a JSONL trace even when sibling spans share a
    name.
    """

    __slots__ = ("name", "attrs", "path", "depth", "span_id", "parent_id",
                 "_start", "_token", "_mem_baseline")

    def __init__(self, name: str, attrs: Dict[str, object]) -> None:
        self.name = name
        self.attrs = attrs
        self.path = name
        self.depth = 0
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self._start = 0.0
        self._token: Optional[
            "contextvars.Token[Tuple[Tuple[str, int], ...]]"] = None
        self._mem_baseline: Optional[int] = None

    def __enter__(self) -> "Span":
        stack = _SPAN_STACK.get()
        self.depth = len(stack)
        self.path = "/".join([frame[0] for frame in stack] + [self.name])
        self.span_id = _state.next_span_id
        _state.next_span_id += 1
        self.parent_id = stack[-1][1] if stack else None
        self._token = _SPAN_STACK.set(stack + ((self.name, self.span_id),))
        if _state.trace_malloc and tracemalloc.is_tracing():
            tracemalloc.reset_peak()
            self._mem_baseline = tracemalloc.get_traced_memory()[0]
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Optional[type], *exc: object) -> bool:
        duration = time.perf_counter() - self._start
        if self._token is not None:
            _SPAN_STACK.reset(self._token)
            self._token = None
        if _state.enabled:
            registry.histogram(f"span.{self.name}_s").observe(duration)
            event = {
                "ts": time.time(),
                "name": self.name,
                "kind": "span",
                "duration_s": duration,
                "path": self.path,
                "depth": self.depth,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
            }
            if self._mem_baseline is not None and tracemalloc.is_tracing():
                peak = tracemalloc.get_traced_memory()[1]
                event["mem_peak_kb"] = max(0, peak - self._mem_baseline) / 1024
            if exc_type is not None:
                event["error"] = exc_type.__name__
            event.update(self.attrs)
            _state.sink.emit(event)
        return False


def span(name: str, **attrs: object) -> Union[_NullCtx, Span]:
    """``with span("convert", mode="global-random"):`` — trace a phase."""
    if not _state.enabled:
        return _NULL_CTX
    return Span(name, attrs)


def event(name: str, **attrs: object) -> None:
    """Emit a one-off structured event (e.g. a skipped candidate)."""
    if not _state.enabled:
        return
    payload = {"ts": time.time(), "name": name, "kind": "event",
               "value": attrs.pop("value", 1)}
    payload.update(attrs)
    _state.sink.emit(payload)
