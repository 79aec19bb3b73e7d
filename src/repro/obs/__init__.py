"""repro.obs — dependency-free observability: metrics, spans, sinks.

Three pieces (see ``docs/observability.md`` for the metric catalog):

* a process-global :class:`~repro.obs.registry.MetricsRegistry`
  (``repro.obs.registry``) of counters, gauges and histograms addressed
  by dotted names (``topology.fattree.build_s``);
* a span/tracing API — ``with obs.span("convert", mode=...):`` —
  emitting structured JSON-lines events to a pluggable sink;
* instrumentation helpers (``incr`` / ``observe`` / ``set_gauge`` /
  ``timer`` / ``event``) used throughout the library.  All of them are
  **no-ops until** :func:`enable` **is called**: the disabled fast path
  is a single attribute check, so the permanent instrumentation costs
  nothing in ordinary runs.

Spans carry ``span_id``/``parent_id`` trace context; feed a recorded
JSONL trace to :class:`~repro.obs.perf.Profile` for per-name self /
cumulative time, the critical path, and flamegraph export, and to
:mod:`repro.obs.diffprof` to see which span moved between two traces
(``docs/performance.md``).

Typical use::

    from repro import obs
    from repro.obs.sinks import MemorySink

    sink = MemorySink()
    obs.enable(sink, emit_metric_events=True)
    with obs.span("experiment", k=8):
        ...                     # instrumented library calls
    print(obs.render_table())   # final counters/quantiles
    obs.disable()               # flush + close the sink
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
from repro.obs.render import render_table
from repro.obs.stats import (
    Ewma,
    WindowedQuantile,
    gini,
    nearest_rank_quantile,
    quantile_summary,
    scrub_nonfinite,
)
from repro.obs.sinks import (
    FileSink,
    MemorySink,
    NullSink,
    Sink,
    StderrSink,
    StreamSink,
)
from repro.obs.perf import NameStats, Profile, SpanNode
from repro.obs.trace import (
    TRACEMALLOC_ENV,
    Span,
    current_sink,
    disable,
    enable,
    enabled,
    event,
    incr,
    observe,
    publish,
    registry,
    set_gauge,
    span,
    timer,
)

__all__ = [
    "Counter",
    "Ewma",
    "FileSink",
    "Gauge",
    "Histogram",
    "MemorySink",
    "MetricsRegistry",
    "NameStats",
    "NullSink",
    "Profile",
    "Sink",
    "Span",
    "SpanNode",
    "StderrSink",
    "StreamSink",
    "TRACEMALLOC_ENV",
    "Timer",
    "WindowedQuantile",
    "current_sink",
    "disable",
    "enable",
    "enabled",
    "event",
    "gini",
    "incr",
    "nearest_rank_quantile",
    "observe",
    "publish",
    "quantile_summary",
    "registry",
    "render_table",
    "scrub_nonfinite",
    "set_gauge",
    "span",
    "timer",
]
