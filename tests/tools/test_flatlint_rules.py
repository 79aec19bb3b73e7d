"""Every flatlint rule must *fire* on a bad fixture and stay silent on
the fixed version — rules proven to detect, not just proven quiet."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.obs.contract import EVENT_FIELDS
from tools.flatlint import all_rules
from tools.flatlint.engine import PARSE_ERROR_CODE, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_snippet(tmp_path, relpath, source):
    """Write *source* at *relpath* under tmp_path and lint it.

    The relative path controls the module name the rules see:
    ``src/repro/flowsim/bad.py`` lints as ``repro.flowsim.bad``, so
    scope-sensitive rules behave exactly as they would in-tree.
    """
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    findings, _ = lint_paths([str(path)], all_rules())
    return findings


def codes(findings):
    return sorted({f.code for f in findings})


class TestFT001Determinism:
    def test_global_random_call_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", """\
            import random

            def pick(xs):
                return random.choice(xs)
            """)
        assert codes(findings) == ["FT001"]
        assert "seeded random.Random" in findings[0].message

    def test_seeded_rng_is_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", """\
            import random

            def pick(xs, seed):
                rng = random.Random(seed)
                return rng.choice(xs)
            """)
        assert findings == []

    def test_from_import_alias_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", """\
            from random import shuffle as mix

            def scramble(xs):
                mix(xs)
            """)
        assert codes(findings) == ["FT001"]

    def test_numpy_global_rng_fires_but_default_rng_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", """\
            import numpy as np

            def draw():
                return np.random.rand(3)

            def seeded(seed):
                return np.random.default_rng(seed)
            """)
        assert codes(findings) == ["FT001"]
        assert len(findings) == 1
        assert "default_rng" in findings[0].message

    def test_local_variable_named_random_is_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", """\
            def pick(random, xs):
                return random.choice(xs)
            """)
        assert findings == []

    def test_wall_clock_fires_only_in_simulation_scope(self, tmp_path):
        bad = """\
            import time

            def stamp():
                return time.time()
            """
        in_scope = lint_snippet(tmp_path, "src/repro/flowsim/bad.py", bad)
        assert codes(in_scope) == ["FT001"]
        assert "wall-clock" in in_scope[0].message
        out_of_scope = lint_snippet(tmp_path, "src/repro/topology/ok.py", bad)
        assert out_of_scope == []

    def test_wall_clock_fires_in_the_health_plane(self, tmp_path):
        # Health judgments run on the trace clock ``t``; a host clock
        # would make two replays of one trace judge differently.
        findings = lint_snippet(tmp_path, "src/repro/health/bad.py", """\
            import time

            def now():
                return time.time()
            """)
        assert codes(findings) == ["FT001"]
        assert "repro.health.bad" in findings[0].message

    def test_datetime_now_fires_in_experiments(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/experiments/bad.py", """\
            from datetime import datetime

            def stamp():
                return datetime.now().isoformat()
            """)
        assert codes(findings) == ["FT001"]

    def test_set_iteration_fires_and_sorted_is_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", """\
            def out(a, b):
                for x in set(a) | set(b):
                    print(x)
            """)
        assert codes(findings) == ["FT001"]
        assert "PYTHONHASHSEED" in findings[0].message
        fixed = lint_snippet(tmp_path, "ok.py", """\
            def out(a, b):
                for x in sorted(set(a) | set(b)):
                    print(x)
            """)
        assert fixed == []

    def test_list_of_set_and_rng_choice_of_set_fire(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", """\
            def f(xs, rng):
                a = list(set(xs))
                b = rng.choice(frozenset(xs))
                return a, b
            """)
        assert [f.code for f in findings] == ["FT001", "FT001"]

    def test_hash_derived_seed_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", """\
            import random
            import numpy as np

            def streams(seed, place, rng):
                a = random.Random(seed + hash(place) % 1000)
                b = np.random.default_rng(seed=hash((seed, place)))
                rng.seed(hash(place))
                return a, b
            """)
        assert [f.code for f in findings] == ["FT001"] * 3
        assert all("hash()" in f.message for f in findings)
        assert "PYTHONHASHSEED" in findings[0].message

    def test_stable_seed_and_hash_elsewhere_are_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", """\
            import random
            import zlib

            def stream(seed, place, table):
                table[hash(place)] = place
                return random.Random(seed + zlib.crc32(place.encode()) % 1000)
            """)
        assert findings == []


class TestFT002TelemetryContract:
    def test_unregistered_name_fires_in_library(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/core/fake.py", """\
            from repro import obs

            def f():
                obs.event("totally.unregistered", x=1)
            """)
        assert codes(findings) == ["FT002"]
        assert "not registered" in findings[0].message

    def test_unregistered_scratch_name_allowed_in_tests(self, tmp_path):
        findings = lint_snippet(tmp_path, "tests/fake_test.py", """\
            from repro import obs

            def test_plumbing():
                obs.event("scratch.name", x=1)
            """)
        assert findings == []

    def test_missing_required_field_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/core/fake.py", """\
            from repro import obs

            def f():
                obs.event("core.failures.heal", reconfigured=1,
                          unrecoverable=0)
            """)
        assert codes(findings) == ["FT002"]
        assert "'t'" in findings[0].message or " t" in findings[0].message

    def test_complete_emit_is_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/core/fake.py", """\
            from repro import obs

            def f(t):
                obs.event("core.failures.heal", reconfigured=1,
                          unrecoverable=0, t=t)
            """)
        assert findings == []

    @pytest.mark.parametrize("name", sorted(EVENT_FIELDS))
    def test_each_declared_attribute_is_required(self, tmp_path, name):
        # obs.event supplies 'value' itself, so only the others count.
        fields = sorted(set(EVENT_FIELDS[name]) - {"value"})

        def emit(kwargs):
            return lint_snippet(tmp_path, "src/repro/core/fake.py", f"""\
                from repro import obs

                def f():
                    obs.event({name!r}, {", ".join(kwargs)})
                """)

        assert emit(f"{f}=1" for f in fields) == []
        for omitted in fields:
            findings = emit(f"{f}=1" for f in fields if f != omitted)
            assert codes(findings) == ["FT002"], omitted
            assert f"attribute(s) {omitted} (see" in findings[0].message

    def test_kwargs_forwarding_skips_field_check(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/core/fake.py", """\
            from repro import obs

            def f(**attrs):
                obs.event("core.failures.heal", **attrs)
            """)
        assert findings == []

    def test_dynamic_name_fires_in_library(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/core/fake.py", """\
            from repro import obs

            def f(name):
                obs.event(name, x=1)
            """)
        assert codes(findings) == ["FT002"]
        assert "literal" in findings[0].message

    def test_registered_name_without_emit_site_fires(self, tmp_path):
        # A lone copy of the real contract module has no emit sites in
        # scope, so *every* registered name must be reported as dead.
        from repro.obs import contract

        source = (REPO_ROOT / "src/repro/obs/contract.py").read_text(
            encoding="utf-8")
        findings = lint_snippet(
            tmp_path, "src/repro/obs/contract.py", source)
        assert codes(findings) == ["FT002"]
        assert len(findings) == len(contract.KNOWN_EVENT_NAMES)
        assert all("no emit site" in f.message for f in findings)
        # ... and each finding points at the registration line itself.
        assert all(f.line > 1 for f in findings)


class TestFT003Hygiene:
    def test_mutable_default_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", """\
            def f(xs=[]):
                return xs
            """)
        assert codes(findings) == ["FT003"]
        assert "mutable default" in findings[0].message

    def test_none_default_is_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", """\
            def f(xs=None):
                return xs or []
            """)
        assert findings == []

    def test_silent_broad_except_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", """\
            def f():
                try:
                    risky()
                except Exception:
                    pass
            """)
        assert codes(findings) == ["FT003"]
        assert "swallows" in findings[0].message

    def test_bare_except_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", """\
            def f():
                try:
                    risky()
                except:
                    return None
            """)
        assert codes(findings) == ["FT003"]

    def test_narrow_except_and_recorded_broad_except_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", """\
            from repro import obs

            def f():
                try:
                    risky()
                except ValueError:
                    pass

            def g():
                try:
                    risky()
                except Exception as exc:
                    obs.incr("failures")

            def h():
                try:
                    risky()
                except Exception:
                    raise
            """)
        assert findings == []

    def test_float_equality_fires_in_library_only(self, tmp_path):
        bad = """\
            def f(capacity, other):
                return capacity == other.capacity
            """
        in_library = lint_snippet(tmp_path, "src/repro/core/cap.py", bad)
        assert codes(in_library) == ["FT003"]
        assert "isclose" in in_library[0].message
        in_tests = lint_snippet(tmp_path, "tests/test_cap.py", bad)
        assert in_tests == []

    def test_zero_sentinel_comparison_is_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/core/cap.py", """\
            def f(rate):
                return rate == 0.0
            """)
        assert findings == []


class TestFT004Layering:
    def test_forbidden_module_scope_import_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/topology/bad.py", """\
            from repro.monitor import NetworkMonitor
            """)
        assert codes(findings) == ["FT004"]
        assert "repro.monitor" in findings[0].message

    def test_routing_may_not_import_mcf(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/routing/bad.py", """\
            from repro.mcf.exact import solve_concurrent_exact
            """)
        assert codes(findings) == ["FT004"]
        assert "repro.routing may not import repro.mcf" in findings[0].message

    def test_lazy_function_level_import_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/topology/ok.py", """\
            def late():
                from repro.monitor import NetworkMonitor
                return NetworkMonitor
            """)
        assert findings == []

    def test_obs_internals_fire_even_lazily(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/core/bad.py", """\
            def peek():
                from repro.obs.trace import _state
                return _state
            """)
        assert codes(findings) == ["FT004"]
        assert "internal" in findings[0].message

    def test_obs_facade_and_public_submodules_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/core/ok.py", """\
            from repro import obs
            from repro.obs.stats import gini
            from repro.obs.contract import KNOWN_EVENT_NAMES
            """)
        assert findings == []

    def test_unknown_package_must_be_declared(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/newpkg/mod.py", """\
            from repro.core import controller
            """)
        assert codes(findings) == ["FT004"]
        assert "layering DAG" in findings[0].message

    def test_declared_dag_is_acyclic(self):
        from tools.flatlint.rules.layering import ALLOWED

        state = {}

        def visit(pkg):
            if state.get(pkg) == "done":
                return
            assert state.get(pkg) != "visiting", f"cycle through {pkg}"
            state[pkg] = "visiting"
            for dep in ALLOWED.get(pkg, ()):
                visit(dep)
            state[pkg] = "done"

        for pkg in ALLOWED:
            visit(pkg)


class TestFT005BusEmission:
    BAD = """\
        from repro import obs

        def leak(payload):
            obs.current_sink().emit(payload)
        """

    def test_direct_chain_fires_in_library_code(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/traffic/bad.py", self.BAD)
        assert codes(findings) == ["FT005"]
        assert "obs.publish" in findings[0].message

    def test_aliased_sink_variable_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/traffic/bad.py", """\
            from repro import obs

            def leak(payload):
                sink = obs.current_sink()
                sink.emit(payload)
            """)
        assert codes(findings) == ["FT005"]

    def test_install_sink_fires_outside_health(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/core/bad.py", """\
            from repro import obs

            def hijack(sink):
                obs.install_sink(sink)
            """)
        assert codes(findings) == ["FT005"]
        assert "install_sink" in findings[0].message

    def test_obs_package_exempt(self, tmp_path):
        assert lint_snippet(tmp_path, "src/repro/obs/tee.py", self.BAD) == []

    def test_health_package_not_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/health/tee.py", self.BAD)
        assert codes(findings) == ["FT005"]

    def test_tests_and_tools_exempt(self, tmp_path):
        assert lint_snippet(tmp_path, "tests/poke.py", self.BAD) == []

    def test_publish_is_the_sanctioned_path(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/traffic/ok.py", """\
            from repro import obs

            def emit_sample(t, link, utilization):
                obs.publish("link_sample", "traffic.sample", t=t,
                            link=link, value=utilization,
                            utilization=utilization, rate=utilization,
                            capacity=1.0, active_flows=1)
            """)
        assert [f for f in findings if f.code == "FT005"] == []

    def test_inline_suppression(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/traffic/bad.py", """\
            from repro import obs

            def leak(payload):
                obs.current_sink().emit(payload)  # flatlint: disable=FT005
            """)
        assert findings == []


class TestFT006ConcurrencySafety:
    """Interprocedural shared-state analysis over the call graph."""

    # Thread entry -> two call frames -> mutation: the finding must
    # carry the full route, proving the analysis walks the graph
    # rather than pattern-matching the mutation site.
    RACY = """\
        import threading


        class Shared:
            def __init__(self):
                self.items = []
                self._thread = threading.Thread(target=self.worker)

            def start(self):
                self._thread.start()

            def stop(self):
                self._thread.join()

            def worker(self):
                self.step()

            def step(self):
                self.bump()

            def bump(self):
                self.items.append(1)

            def main_side(self):
                self.bump()
        """

    def test_unlocked_shared_mutation_fires_three_frames_deep(
            self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/zz.py", self.RACY)
        assert codes(findings) == ["FT006"]
        message = findings[0].message
        assert "Shared.items" in message
        assert ("Shared.worker -> repro.zz.Shared.step -> "
                "repro.zz.Shared.bump") in message

    def test_lock_at_the_boundary_protects_the_whole_cone(self, tmp_path):
        # One `with self._lock:` at each entry into the shared helper
        # silences the rule — no locks needed inside step/bump.
        findings = lint_snippet(tmp_path, "src/repro/zz.py", """\
            import threading


            class Shared:
                def __init__(self):
                    self.items = []
                    self._lock = threading.Lock()
                    self._thread = threading.Thread(target=self.worker)

                def start(self):
                    self._thread.start()

                def stop(self):
                    self._thread.join()

                def worker(self):
                    with self._lock:
                        self.step()

                def step(self):
                    self.bump()

                def bump(self):
                    self.items.append(1)

                def main_side(self):
                    with self._lock:
                        self.bump()
            """)
        assert findings == []

    def test_fires_only_inside_repro(self, tmp_path):
        assert lint_snippet(tmp_path, "tools/zz.py", self.RACY) == []

    def test_bare_acquire_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/zz.py", """\
            def touch(lock):
                lock.acquire()
                try:
                    pass
                finally:
                    lock.release()
            """)
        assert codes(findings) == ["FT006"]
        assert "with" in findings[0].message

    def test_thread_without_teardown_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/zz.py", """\
            import threading


            def fire_and_forget(fn):
                threading.Thread(target=fn).start()
            """)
        assert codes(findings) == ["FT006"]
        assert "join" in findings[0].message

    def test_inline_suppression(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/zz.py", """\
            import threading


            def fire_and_forget(fn):
                threading.Thread(target=fn).start()  # flatlint: disable=FT006
            """)
        assert findings == []


class TestFT007DeterminismTaint:
    """Nondeterminism sources flowing into replay-critical sinks."""

    # Source three frames above the sink: record -> stamp -> write ->
    # ledger.add.  The receiver in `write` is untyped, so dispatch is
    # unknown — the rule must widen (pseudo-sink `<unknown>.add`), not
    # drop the taint.
    TAINTED = """\
        import time


        class RemediationLedger:
            def __init__(self):
                self.entries = []

            def add(self, entry):
                self.entries.append(entry)


        def record(ledger: RemediationLedger):
            stamp(ledger)


        def stamp(ledger):
            write(ledger, time.time())


        def write(ledger, ts):
            ledger.add({"ts": ts})
        """

    def test_wall_clock_reaching_ledger_fires_with_route(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/zz.py", self.TAINTED)
        assert codes(findings) == ["FT007"]
        message = findings[0].message
        assert "time.time()" in message
        # The diagnostic names the source->sink route, and unknown
        # dispatch widened into the pseudo-sink instead of dropping.
        assert "repro.zz.stamp -> repro.zz.write" in message
        assert "add" in message

    def test_trace_clocked_value_is_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/zz.py", """\
            class RemediationLedger:
                def __init__(self):
                    self.entries = []

                def add(self, entry):
                    self.entries.append(entry)


            def record(ledger, t):
                ledger.add({"t": t})
            """)
        assert findings == []

    def test_fires_only_inside_repro(self, tmp_path):
        assert lint_snippet(tmp_path, "tools/zz.py", self.TAINTED) == []

    def test_inline_suppression(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/zz.py", """\
            import time


            class RemediationLedger:
                def __init__(self):
                    self.entries = []

                def add(self, entry):
                    self.entries.append(entry)


            def record(ledger: RemediationLedger):
                ledger.add({"ts": time.time()})  # flatlint: disable=FT007
            """)
        assert findings == []

    # The trace-diff writer and the ledger module are replay-critical
    # sink modules: what they write must be byte-identical across
    # replays, so a wall clock flowing in must fire.
    DIFF_TAINTED = """\
        import time


        def render_report(stamp):
            return {"ts": stamp}


        def publish():
            return render_report(time.time())
        """

    def test_wall_clock_reaching_the_diff_writer_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/obs/diffprof.py",
                                self.DIFF_TAINTED)
        assert codes(findings) == ["FT007"]
        assert "time.time()" in findings[0].message

    def test_ledger_module_wall_clock_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/selfheal/ledger.py",
                                self.DIFF_TAINTED)
        assert codes(findings) == ["FT007"]

    def test_clean_diff_writer_is_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/obs/diffprof.py", """\
            def render_report(deltas):
                return {"deltas": sorted(deltas)}
            """)
        assert findings == []


class TestFT008FabricViews:
    def test_edges_on_a_network_fabric_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/topology/bad.py", """\
            def cables(net):
                return [(u, v) for u, v, d in net.fabric.edges(data=True)]
            """)
        assert codes(findings) == ["FT008"]
        assert "Network.bundles()" in findings[0].message

    def test_degree_on_the_private_fabric_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/topology/bad.py", """\
            class Net:
                def busiest(self):
                    return max(self._fabric.degree, key=lambda nd: nd[1])
            """)
        assert codes(findings) == ["FT008"]

    def test_a_name_bound_to_a_fabric_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/core/bad.py", """\
            def count(net):
                graph = net.fabric
                return len(graph.edges)
            """)
        assert codes(findings) == ["FT008"]

    def test_an_annotated_alias_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/core/bad.py", """\
            def count(net):
                graph: nx.Graph = net.fabric
                return len(graph.edges)
            """)
        assert codes(findings) == ["FT008"]

    def test_an_attribute_alias_fires_across_methods(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/core/bad.py", """\
            class Holder:
                def __init__(self, net):
                    self.graph = net.fabric

                def busiest(self):
                    return max(self.graph.degree, key=lambda nd: nd[1])
            """)
        assert codes(findings) == ["FT008"]

    def test_an_alias_holds_only_where_it_is_assigned(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/core/ok.py", """\
            def walk(net):
                g = net.fabric
                return list(g.adjacency())

            def hops(path):
                g = path
                return len(g.edges())

            class Other:
                def __init__(self, net):
                    self.graph = net.fabric

            class Path:
                def hops(self):
                    return len(self.graph.edges())
            """)
        assert findings == []

    def test_an_alias_reaches_a_nested_function(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/core/bad.py", """\
            def count(net):
                g = net.fabric

                def inner():
                    return len(g.edges)
                return inner()
            """)
        assert codes(findings) == ["FT008"]

    def test_bundles_adjacency_and_network_degree_are_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/topology/ok.py", """\
            def cables(net):
                out = [(u, v) for u, v, _cap, _mult in net.bundles()]
                for u, nbrs in net.fabric.adjacency():
                    out.append((u, len(nbrs), net.degree(u)))
                return out, path.edges()
            """)
        assert findings == []

    def test_tests_are_exempt(self, tmp_path):
        findings = lint_snippet(tmp_path, "tests/test_oracle.py", """\
            def expected(net):
                return set(net.fabric.edges())
            """)
        assert findings == []

    def test_suppression_silences_it(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/topology/bad.py", """\
            def cables(net):
                return list(net.fabric.edges())  # flatlint: disable=FT008
            """)
        assert findings == []


class TestSuppressionsAndParseErrors:
    def test_inline_suppression_silences_only_that_code(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", """\
            import random

            def pick(xs):
                return random.choice(xs)  # flatlint: disable=FT001
            """)
        assert findings == []

    def test_wrong_code_does_not_suppress(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", """\
            import random

            def pick(xs):
                return random.choice(xs)  # flatlint: disable=FT003
            """)
        assert codes(findings) == ["FT001"]

    def test_disable_all_suppresses_everything(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", """\
            import random

            def pick(xs=[]):  # flatlint: disable=all
                return xs
            """)
        assert findings == []

    def test_syntax_error_reported_as_ft000(self, tmp_path):
        findings = lint_snippet(tmp_path, "mod.py", "def broken(:\n")
        assert [f.code for f in findings] == [PARSE_ERROR_CODE]

    def test_every_rule_has_stable_code_and_summary(self):
        rules = all_rules()
        assert [r.code for r in rules] == ["FT001", "FT002", "FT003",
                                           "FT004", "FT005", "FT006",
                                           "FT007", "FT008"]
        assert all(r.name and r.summary for r in rules)
