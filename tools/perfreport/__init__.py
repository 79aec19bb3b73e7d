"""perfreport — command-line front end of the perf-analysis layer.

``python -m tools.perfreport`` reads the repo's durable perf records
and judges them; the judging lives in the library, one module per
question:

* ``diff BASE NEW`` — the pairwise gate (:mod:`repro.obs.diffprof`):
  two ``BENCH_*.json`` sessions or telemetry traces, with a 25% tolerance, a 5 ms floor, environment
  drift notes and per-path attribution;
* ``trend`` — the trajectory gate (:mod:`repro.obs.trend`): every
  numbered session against its own MAD noise band;
* ``profile`` / ``flamegraph`` — the span profiler
  (:mod:`repro.obs.perf`).

Exit codes mirror ``tools.flatlint``: 0 clean, 1 regressions found,
2 usage errors (unreadable file, schema violation).  See
``docs/performance.md``.
"""

__version__ = "1.0.0"
