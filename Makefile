# Convenience targets for the flat-tree reproduction.

PYTHON ?= python3

.PHONY: install test perf-test bench golden bench-session bench-smoke bench-compare trend-smoke figures examples lint lint-fast clean telemetry-smoke monitor-smoke chaos-smoke health-smoke heal-smoke

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q -m "not slow" --ignore=tests/experiments

# The benchmark's own tests (perf/, outside the tier-1 testpaths): tiny
# runs of every workload, answer checks, input determinism.  ~20 s.
perf-test:
	PYTHONPATH=src $(PYTHON) -m pytest perf/ -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Golden tables: rerun every bench whose table comes from fixed seeds
# (all but the overhead, lint and diffprof wall-clock tables) and diff
# each table against its committed block in benchmarks/RESULTS.txt.
# The committed RESULTS.txt and METRICS.json are restored afterwards.
golden:
	@saved=$$(mktemp -d); \
	cp benchmarks/RESULTS.txt benchmarks/METRICS.json "$$saved"; \
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ -q --benchmark-only -k "not overhead and not lint and not diffprof" \
		&& $(PYTHON) benchmarks/golden.py "$$saved/RESULTS.txt" benchmarks/RESULTS.txt; \
	status=$$?; \
	cp "$$saved/RESULTS.txt" "$$saved/METRICS.json" benchmarks/; \
	rm -rf "$$saved"; \
	exit $$status

# Record a durable perf session: full bench suite -> repo-root
# BENCH_<seq>.json with environment fingerprint + registry counters.
bench-session:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench

# Tiny bench smoke for CI: two fast benches -> BENCH_smoke.json, then
# prove the pairwise gate's wiring with a self-diff (must exit 0).  The
# file is left behind for the CI artifact upload; `make clean` removes it.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --select "fig5 or ksp" --out BENCH_smoke.json --label smoke
	$(PYTHON) -m tools.perfreport diff BENCH_smoke.json BENCH_smoke.json

# Trajectory-aware regression gate: the default judges the newest
# point of every bench metric against a MAD noise band fitted to the
# whole recorded BENCH_* trajectory (exit 1 only when a metric steps
# outside its band — a regression must beat the noise, not just the
# 25% pairwise tolerance).  Override with
# BASE=... NEW=... for the pairwise two-session diff; its exit 1 (a
# grown bench) is reported but tolerated, and only usage errors fail.
bench-compare:
	@if [ -n "$$BASE" ] || [ -n "$$NEW" ]; then \
		$(PYTHON) -m tools.perfreport diff "$$BASE" "$$NEW" --min-runtime 0.05 || [ $$? -eq 1 ]; \
	else \
		$(PYTHON) -m tools.perfreport trend; \
	fi

# Differential-analysis smoke for CI: attribute the delta between the
# two newest recorded bench sessions (exit 1 = attributed regression is
# fine here — the gate is `trend` below), then run the trajectory
# engine over the full recorded history and leave TREND_REPORT.json
# behind for the CI artifact upload; `make clean` removes it.
trend-smoke:
	$(PYTHON) -m tools.perfreport diff || [ $$? -eq 1 ]
	$(PYTHON) -m tools.perfreport trend --out TREND_REPORT.json
	test -s TREND_REPORT.json

# Static analysis: the domain-aware flatlint pass (FT001-FT008, incl.
# the whole-program concurrency-safety and determinism-taint analyses;
# see docs/static-analysis.md) plus the mypy typing gate configured in
# pyproject.toml.  mypy is skipped with a notice when not installed
# (it is in the `dev` extra); flatlint always runs.  Exit codes:
# 0 clean, 1 findings, 2 usage, 3 engine errors (parse failure/crash).
lint:
	$(PYTHON) -m tools.flatlint src tests tools benchmarks
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro; \
	else \
		echo "lint: mypy not installed - skipping the typing gate (pip install -e .[dev])"; \
	fi

# Fast inner-loop lint: only the files git reports changed are linted,
# but src/tools are still parsed as context so the interprocedural
# rules (FT006/FT007) reason over the whole call graph.
lint-fast:
	$(PYTHON) -m tools.flatlint --changed-only src tests tools benchmarks

# Run one small experiment with telemetry enabled, validate the JSONL
# stream against the wire contract in docs/observability.md, and prove
# the span trace round-trips into a profile tree + folded stacks.
telemetry-smoke:
	rm -f telemetry-smoke.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.cli --telemetry=telemetry-smoke.jsonl fig5 --ks 4
	$(PYTHON) tools/check_telemetry.py telemetry-smoke.jsonl --min-names 12
	$(PYTHON) -m tools.perfreport profile telemetry-smoke.jsonl
	$(PYTHON) -m tools.perfreport flamegraph telemetry-smoke.jsonl > /dev/null
	rm -f telemetry-smoke.jsonl

# Exercise the network monitoring plane on a k=4 all-to-all and validate
# the link_sample/link_down/link_up events it exports, then print the
# monitored FCT report under two string-hash seeds: the downtime ledger
# and link labels must not depend on PYTHONHASHSEED.
monitor-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli --telemetry=monitor-smoke.jsonl monitor --k 4 --pattern alltoall
	PYTHONPATH=src $(PYTHON) -m repro.cli --telemetry=monitor-smoke-fct.jsonl fct --ks 4 --flows 12 --monitor
	$(PYTHON) tools/check_telemetry.py monitor-smoke.jsonl --min-names 4
	$(PYTHON) tools/check_telemetry.py monitor-smoke-fct.jsonl --min-names 10
	PYTHONHASHSEED=1 PYTHONPATH=src $(PYTHON) -m repro.cli fct --ks 4 --flows 24 --monitor > monitor-smoke-a.txt
	PYTHONHASHSEED=2 PYTHONPATH=src $(PYTHON) -m repro.cli fct --ks 4 --flows 24 --monitor > monitor-smoke-b.txt
	cmp monitor-smoke-a.txt monitor-smoke-b.txt
	rm -f monitor-smoke.jsonl monitor-smoke-fct.jsonl monitor-smoke-a.txt monitor-smoke-b.txt

# Run a small fixed-seed chaos sweep twice: the recovery events must
# pass the wire contract and the sweep table must be deterministic.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli --telemetry=chaos-smoke.jsonl chaos --k 4 --rates 0 0.3 --technologies mems --trials 2 --seed 7 > /dev/null
	$(PYTHON) tools/check_telemetry.py chaos-smoke.jsonl --min-names 8
	PYTHONPATH=src $(PYTHON) -m repro.cli chaos --k 4 --rates 0 0.3 --technologies mems --trials 2 --seed 7 > chaos-smoke-a.txt
	PYTHONPATH=src $(PYTHON) -m repro.cli chaos --k 4 --rates 0 0.3 --technologies mems --trials 2 --seed 7 > chaos-smoke-b.txt
	cmp chaos-smoke-a.txt chaos-smoke-b.txt
	rm -f chaos-smoke.jsonl chaos-smoke-a.txt chaos-smoke-b.txt

# Record a hotspot run, then judge it through the fabric health plane:
# exactly the link_hotspot alert must fire (exit 1 on any other alert
# set, 2 on IO/usage errors) and the JSON report must replay
# byte-identical.  HEALTH_REPORT.json is left behind for the CI
# artifact upload; `make clean` removes it.
health-smoke:
	rm -f health-smoke.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.cli --telemetry=health-smoke.jsonl monitor --k 4 --pattern hotspot --flows 24 > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro.cli health health-smoke.jsonl --expect link_hotspot --out HEALTH_REPORT.json
	PYTHONPATH=src $(PYTHON) -m repro.cli health health-smoke.jsonl --expect link_hotspot --json > health-smoke-a.json
	PYTHONPATH=src $(PYTHON) -m repro.cli health health-smoke.jsonl --expect link_hotspot --json > health-smoke-b.json
	cmp health-smoke-a.json health-smoke-b.json
	rm -f health-smoke.jsonl health-smoke-a.json health-smoke-b.json

# Close the loop end to end: record a hotspot monitor trace, replay it
# through the remediation plane (exactly a reconvert must complete;
# HEAL_LEDGER.json is left behind for the CI artifact upload), prove
# the ledger replays byte-identical, validate the selfheal.* wire
# events of a telemetry-enabled replay, and run the three-arm regret
# gate (exit 1 unless the closed loop strictly beats no-op).
heal-smoke:
	rm -f heal-smoke.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.cli --telemetry=heal-smoke.jsonl monitor --k 4 --pattern hotspot --flows 24 > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro.cli heal heal-smoke.jsonl --expect reconvert --out HEAL_LEDGER.json
	PYTHONPATH=src $(PYTHON) -m repro.cli heal heal-smoke.jsonl --out heal-smoke-b.json > /dev/null
	cmp HEAL_LEDGER.json heal-smoke-b.json
	PYTHONPATH=src $(PYTHON) -m repro.cli --telemetry=heal-smoke-events.jsonl heal heal-smoke.jsonl > /dev/null
	$(PYTHON) tools/check_telemetry.py heal-smoke-events.jsonl --min-names 3
	PYTHONPATH=src $(PYTHON) -m repro.cli heal --regret --k 4 --seed 7
	rm -f heal-smoke.jsonl heal-smoke-b.json heal-smoke-events.jsonl

figures:
	$(PYTHON) -m repro.cli fig5
	$(PYTHON) -m repro.cli fig6
	$(PYTHON) -m repro.cli fig7
	$(PYTHON) -m repro.cli fig8 --ks 4 6
	$(PYTHON) -m repro.cli hybrid --k 6

examples:
	for script in examples/*.py; do echo "== $$script =="; $(PYTHON) $$script; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	rm -f BENCH_smoke.json telemetry-smoke.jsonl TREND_REPORT.json
	rm -f HEALTH_REPORT.json health-smoke*.jsonl health-smoke-*.json
	rm -f HEAL_LEDGER.json heal-smoke*.jsonl heal-smoke-b.json
	find . -name __pycache__ -type d -exec rm -rf {} +
