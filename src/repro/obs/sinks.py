"""Event sinks: where structured telemetry events go.

Every sink accepts plain-dict events (already timestamped by the
tracer) through ``emit`` and is flushed/closed by ``repro.obs.disable``.
The JSONL wire format is one compact JSON object per line; every event
carries ``ts`` (unix seconds), ``name`` and ``kind``, plus either
``value`` (metric updates) or ``duration_s`` (spans/timers).
"""

from __future__ import annotations

import json
import sys
import threading
from typing import IO, Dict, List, Optional

#: One telemetry event on the wire: a flat, JSON-ready mapping.
TelemetryEvent = Dict[str, object]


class Sink:
    """Interface: subclasses override :meth:`emit`."""

    def emit(self, event: TelemetryEvent) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def describe(self) -> str:
        return type(self).__name__


class NullSink(Sink):
    """Swallows everything (metrics-only telemetry)."""

    def emit(self, event: TelemetryEvent) -> None:
        pass

    def describe(self) -> str:
        return "null"


class MemorySink(Sink):
    """Buffers events in a list — the test and notebook sink.

    ``emit`` runs on whatever thread hits the bus, so the buffer is
    lock-guarded against a concurrent ``clear``.
    """

    def __init__(self) -> None:
        self.events: List[TelemetryEvent] = []
        self._lock = threading.Lock()

    def emit(self, event: TelemetryEvent) -> None:
        with self._lock:
            self.events.append(event)

    def clear(self) -> None:
        with self._lock:
            self.events.clear()

    def describe(self) -> str:
        return f"memory({len(self.events)} events)"


class StreamSink(Sink):
    """JSON-lines onto an open text stream (not closed by default)."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self._stream = stream if stream is not None else sys.stderr

    def emit(self, event: TelemetryEvent) -> None:
        self._stream.write(json.dumps(event, sort_keys=True,
                                      default=str) + "\n")

    def flush(self) -> None:
        self._stream.flush()

    def describe(self) -> str:
        name = getattr(self._stream, "name", None)
        return f"stream({name})" if name else "stream"


class StderrSink(StreamSink):
    """JSON-lines to standard error (the CLI's ``--telemetry`` default)."""

    def __init__(self) -> None:
        super().__init__(sys.stderr)

    def describe(self) -> str:
        return "stderr"


class FileSink(StreamSink):
    """JSON-lines appended to a file path (``--telemetry=PATH``)."""

    def __init__(self, path: str) -> None:
        self.path = path
        super().__init__(open(path, "a", encoding="utf-8"))

    def close(self) -> None:
        self._stream.close()

    def describe(self) -> str:
        return f"file({self.path})"
