"""The benchmark's four workloads over the flat-tree plant.

Each workload turns a seed into inputs, runs one *job* per call and
checks every output.  A run drives one workload as a closed loop: a
single caller submits the next job only after the previous one returned.
Jobs come in ``kinds`` (job ``j`` is of kind ``j % kinds``); a run
reports, per kind, the median job time, and sums those medians.

Inputs come from :func:`rng_for`, never from ``hash()``, so one seed
gives the same inputs in every process.  The plant is reached only
through its public functions, and every call into a layer sits inside an
``obs.span("layer.<module>.<function>")``; the span is free while
telemetry is off and feeds the per-layer metrics of a traced run.

Workload protocol (duck-typed):

* ``name``, ``kinds``, ``config()`` -- identity, job kinds, and the sizes
  a stored reference is valid for;
* ``inputs(job)`` -- the inputs of job number ``job`` (untimed);
* ``ops(inputs)`` -- how many operations the job attempts;
* ``run(inputs)`` -- the timed job;
* ``check(job, inputs, output)`` -- one message per failed operation;
* ``finish()`` -- checks that need the whole run, made after the window;
* ``solution_ratio()`` -- answer / exact answer, minimum over the run;
* ``input_ratios()`` -- how much the inputs repeat (per-layer metrics).

Workloads with per-seed answers in ``reference.json`` also have
``record(inputs, output)``, what ``--write-reference`` stores per job.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro import obs
from repro.core import (
    Controller,
    FlatTree,
    FlatTreeDesign,
    Mode,
    convert,
    proportional_layout,
    uniform_layout,
)
from repro.flowsim.simulator import FlowSimulator, FlowSpec
from repro.mcf import (
    Commodity,
    build_flow_problem,
    concurrent_upper_bound,
    solve_concurrent_approx,
    solve_concurrent_exact,
)
from repro.topology import (
    ClosParams,
    build_fat_tree,
    build_jellyfish_like_fat_tree,
    build_two_stage,
    fat_tree_params,
)

#: Relative tolerance on λ against a stored or re-solved exact optimum.
LAMBDA_RTOL = 1e-6
#: FPTAS accuracy: the ε ``repro.experiments.common.solve_throughput``
#: passes when an LP is too large to solve exactly.
EPSILON = 0.08
#: Absolute tolerance of the flow certificate (unit link capacities).
FLOW_ATOL = 1e-6
#: Relative tolerance on FCT statistics against the reference.
FCT_RTOL = 1e-9

PLACEMENTS: Tuple[str, ...] = ("locality", "weak locality")
TOPOLOGIES: Tuple[str, ...] = ("fat-tree", "flat-tree", "two-stage",
                               "jellyfish")


def rng_for(*key: object) -> random.Random:
    """A generator seeded by its key alone.

    ``random.Random`` seeds a string through SHA-512, so the stream is
    the same in every process whatever ``PYTHONHASHSEED`` is.
    """
    return random.Random(":".join(str(part) for part in key))


def digest(value: object) -> str:
    """Short stable digest of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# traffic generation (the benchmark's own, so plant changes never move it)
# ----------------------------------------------------------------------
def locality_placement(
    num_servers: int, members: int, rng: random.Random
) -> List[int]:
    """Strong locality: consecutive servers from a random offset."""
    offset = rng.randrange(num_servers)
    return [(offset + i) % num_servers for i in range(members)]


def weak_locality_placement(
    params: ClosParams, clusters: int, cluster_size: int, rng: random.Random
) -> List[int]:
    """Weak locality: each cluster fills random free servers of random Pods."""
    free = [list(params.pod_servers(p)) for p in range(params.pods)]
    placement: List[int] = []
    for _ in range(clusters):
        needed = cluster_size
        while needed:
            pod = rng.choice([p for p, servers in enumerate(free) if servers])
            chosen = rng.sample(free[pod], min(needed, len(free[pod])))
            taken = set(chosen)
            free[pod] = [s for s in free[pod] if s not in taken]
            placement.extend(chosen)
            needed -= len(chosen)
    return placement


def all_to_all(placement: Sequence[int], cluster_size: int) -> List[Commodity]:
    """Every ordered member pair inside every cluster, unit demand."""
    out = []
    for start in range(0, len(placement), cluster_size):
        members = placement[start:start + cluster_size]
        out.extend(Commodity(a, b) for a in members for b in members if a != b)
    return out


def flat_tree(k: int, mode: Mode):
    """A flat-tree(k) plant converted to ``mode`` (paper defaults)."""
    with obs.span("layer.core.convert"):
        return convert(FlatTree(FlatTreeDesign.for_fat_tree(k)), mode)


def flow_certificate(problem, result) -> Optional[str]:
    """Why ``result.flows`` does not carry ``result.throughput``, or None.

    Checks non-negativity, arc capacities and, per demand group, flow
    conservation ``out - in = λ·b``; passing proves λ is achievable.
    """
    flows = result.flows
    lam = result.throughput
    if flows is None:
        return "no flows returned"
    if flows.min() < -FLOW_ATOL:
        return f"negative flow {flows.min():.3g}"
    overload = (flows.sum(axis=0) - problem.arc_cap).max()
    if overload > FLOW_ATOL:
        return f"capacity exceeded by {overload:.3g}"
    n = problem.num_nodes
    for g, group in enumerate(problem.groups):
        net_out = (np.bincount(problem.arc_src, flows[g], n)
                   - np.bincount(problem.arc_dst, flows[g], n))
        supply = np.zeros(n)
        supply[group.source] = group.total_demand
        supply[group.sinks] -= group.demands
        gap = np.abs(net_out - lam * supply).max()
        if gap > FLOW_ATOL:
            return f"group {g} conservation off by {gap:.3g}"
    return None


def lambda_failure(lam: float) -> Optional[str]:
    if not (math.isfinite(lam) and lam > 0):
        return f"λ={lam}"
    return None


# ----------------------------------------------------------------------
# fig8_lp
# ----------------------------------------------------------------------
@dataclass
class Fig8Inputs:
    placement: str
    topology: str
    topology_seed: int
    commodities: List[Commodity]


class Fig8Lp:
    """Figure 8 at one k: all-to-all clusters x 2 placements x 4 topologies.

    A figure point is eight exact concurrent-flow LPs, and each job
    builds one topology and solves one of them: jobs ``8p .. 8p+7`` are
    point ``p``.  Every point draws fresh random topologies and
    placements, so no answer can be reused from an earlier point.
    """

    name = "fig8_lp"
    kinds = len(PLACEMENTS) * len(TOPOLOGIES)

    def __init__(self, seed: int, reference: Optional[dict] = None,
                 k: int = 6, cluster_size: int = 20) -> None:
        self.seed = seed
        self.k = k
        self.cluster_size = cluster_size
        self.params = fat_tree_params(k)
        self.clusters = max(1, self.params.num_servers // cluster_size)
        self.reference = _seed_reference(reference, self, seed)
        self._first_point: Dict[int, Tuple[Fig8Inputs, float]] = {}

    def config(self) -> dict:
        return {"k": self.k, "cluster_size": self.cluster_size}

    def inputs(self, job: int) -> Fig8Inputs:
        point, slot = divmod(job, self.kinds)
        rng = rng_for(self.name, self.seed, point)
        seeds = {"two-stage": rng.getrandbits(32),
                 "jellyfish": rng.getrandbits(32)}
        members = self.clusters * self.cluster_size
        placements = {
            "locality": locality_placement(
                self.params.num_servers, members, rng),
            "weak locality": weak_locality_placement(
                self.params, self.clusters, self.cluster_size, rng),
        }
        place = PLACEMENTS[slot // len(TOPOLOGIES)]
        topology = TOPOLOGIES[slot % len(TOPOLOGIES)]
        return Fig8Inputs(place, topology, seeds.get(topology, 0),
                          all_to_all(placements[place], self.cluster_size))

    def ops(self, inputs: Fig8Inputs) -> int:
        return 1

    def network(self, inputs: Fig8Inputs):
        topology = inputs.topology
        if topology == "flat-tree":
            return flat_tree(self.k, Mode.LOCAL_RANDOM)
        rng = random.Random(inputs.topology_seed)
        if topology == "fat-tree":
            with obs.span("layer.topology.build_fat_tree"):
                return build_fat_tree(self.k)
        if topology == "two-stage":
            with obs.span("layer.topology.build_two_stage"):
                return build_two_stage(self.params, rng)
        with obs.span("layer.topology.build_jellyfish_like_fat_tree"):
            return build_jellyfish_like_fat_tree(self.k, rng)

    def run(self, inputs: Fig8Inputs, return_flows: bool = False):
        net = self.network(inputs)
        with obs.span("layer.mcf.build_flow_problem"):
            problem = build_flow_problem(net, inputs.commodities)
        with obs.span("layer.mcf.solve_concurrent_exact",
                      lp_vars=problem.num_groups * problem.num_arcs + 1):
            result = solve_concurrent_exact(problem, return_flows=return_flows)
        return problem, result

    def check(self, job: int, inputs: Fig8Inputs, output) -> List[str]:
        problem, result = output
        lam = result.throughput
        if job < self.kinds:
            self._first_point[job] = (inputs, lam)
        expected = _job_reference(self.reference, job)
        failure = lambda_failure(lam)
        if failure is None and lam > concurrent_upper_bound(problem) * (
                1 + LAMBDA_RTOL):
            failure = f"λ={lam!r} above the cut bound"
        if failure is None and expected is not None and not math.isclose(
                lam, expected, rel_tol=LAMBDA_RTOL):
            failure = f"λ={lam!r}, reference {expected!r}"
        return [f"job {job}: {failure}"] if failure else []

    def finish(self) -> List[str]:
        """Certify the first point: re-solve with flows and check them."""
        failures = []
        for job, (inputs, lam) in sorted(self._first_point.items()):
            problem, result = self.run(inputs, return_flows=True)
            reason = flow_certificate(problem, result)
            if not math.isclose(result.throughput, lam, rel_tol=LAMBDA_RTOL):
                reason = f"λ={lam!r} but {result.throughput!r} with flows"
            if reason:
                failures.append(f"job {job}: {reason}")
        return failures

    def solution_ratio(self) -> float:
        return 1.0  # exact LPs, checked above

    def input_ratios(self) -> Dict[str, float]:
        return {}

    def record(self, inputs: Fig8Inputs, output) -> float:
        return output[1].throughput


# ----------------------------------------------------------------------
# fptas_a2a
# ----------------------------------------------------------------------
class FptasA2a:
    """Garg-Könemann FPTAS on Figure-8 all-to-all traffic.

    Every job solves one instance: 20-member all-to-all clusters placed
    with weak locality on a k=14 flat-tree in global-random mode.  At
    k=14 that LP has 238 demand groups x 2744 arcs = 653k variables,
    above ``repro.experiments.common.EXACT_LP_VAR_LIMIT``, so the
    experiments solve it with this FPTAS and :data:`EPSILON`; it is the
    smallest such instance built the way Figure 8 builds its traffic.
    The instance is fixed rather than drawn from the seed: its exact
    optimum λ* takes the exact LP half an hour, so ``--write-reference``
    solves it once and stores it.  The seed does not change this workload's inputs.
    """

    name = "fptas_a2a"
    kinds = 1

    def __init__(self, seed: int, reference: Optional[dict] = None,
                 k: int = 14, cluster_size: int = 20) -> None:
        self.k = k
        self.cluster_size = cluster_size
        params = fat_tree_params(k)
        clusters = max(1, params.num_servers // cluster_size)
        self.commodities = all_to_all(weak_locality_placement(
            params, clusters, cluster_size, rng_for(self.name, "instance")),
            cluster_size)
        self.net = flat_tree(k, Mode.GLOBAL_RANDOM)
        entry = (reference or {}).get(self.name, {})
        self.lambda_star: Optional[float] = (
            entry.get("lambda_star") if entry.get("config") == self.config()
            else None)
        self._first: Optional[float] = None

    def config(self) -> dict:
        instance = [[c.src, c.dst, c.demand] for c in self.commodities]
        return {"k": self.k, "cluster_size": self.cluster_size,
                "epsilon": EPSILON, "instance": digest(instance)}

    def inputs(self, job: int) -> None:
        return None

    def ops(self, inputs: None) -> int:
        return 1

    def problem(self):
        with obs.span("layer.mcf.build_flow_problem"):
            return build_flow_problem(self.net, self.commodities)

    def run(self, inputs: None) -> float:
        problem = self.problem()
        with obs.span("layer.mcf.solve_concurrent_approx"):
            return solve_concurrent_approx(problem, epsilon=EPSILON).throughput

    def check(self, job: int, inputs: None, output: float) -> List[str]:
        if self._first is None:
            self._first = output
        failure = lambda_failure(output)
        if failure is None and output != self._first:
            failure = (f"λ={output!r} differs from the first solve's "
                       f"{self._first!r}")
        if failure is None and self.lambda_star is not None and (
                output > self.lambda_star * (1 + LAMBDA_RTOL)):
            failure = f"λ={output!r} above the optimum {self.lambda_star!r}"
        return [f"job {job}: {failure}"] if failure else []

    def exact_lambda(self) -> float:
        return solve_concurrent_exact(self.problem()).throughput

    def finish(self) -> List[str]:
        if self.lambda_star is not None or self._first is None:
            return []
        self.lambda_star = self.exact_lambda()
        return self.check(0, None, self._first)

    def solution_ratio(self) -> float:
        if self._first is None or self.lambda_star is None:
            return 0.0
        return self._first / self.lambda_star

    def input_ratios(self) -> Dict[str, float]:
        return {}


# ----------------------------------------------------------------------
# fct_poisson
# ----------------------------------------------------------------------
#: Flow sizes, drawn in equal shares: mostly mice plus a few elephants.
FLOW_SIZES = (0.1, 0.1, 0.1, 0.5, 1.0, 4.0)
#: Poisson arrivals per unit of simulated time.
ARRIVAL_RATE = 100.0


class FctPoisson:
    """Fluid flow simulation on flat-tree in global-random mode.

    A job is one FCT experiment as ``repro.experiments`` runs it: convert
    the plant to global-random mode, then simulate a fresh batch of
    flows with Poisson arrivals and KSP-8 routing through the
    controller.  The conversion empties the controller's per-switch-pair
    route cache, so every job starts cold.  Each flow's two servers are
    drawn uniformly among all servers, as ``repro.traffic.uniform_pairs``
    draws them.  Sizes come in equal shares of :data:`FLOW_SIZES`, so
    every job carries the same total volume.
    """

    name = "fct_poisson"
    kinds = 1

    def __init__(self, seed: int, reference: Optional[dict] = None,
                 k: int = 12, flows: int = 300) -> None:
        self.seed = seed
        self.k = k
        self.flows = flows
        design = FlatTreeDesign.for_fat_tree(k)
        self.num_servers = design.params.num_servers
        self.layout = uniform_layout(design.params, Mode.GLOBAL_RANDOM)
        self.controller = Controller(FlatTree(design))
        self.controller.apply_layout(self.layout)
        self.max_capacity = max(
            cap for _u, _v, cap in self.controller.network.edge_list())
        self.reference = _seed_reference(reference, self, seed)
        self.routes_changed = 0
        self._route_requests = 0
        self._route_repeats = 0

    def config(self) -> dict:
        return {"k": self.k, "flows": self.flows, "rate": ARRIVAL_RATE}

    def inputs(self, job: int) -> List[FlowSpec]:
        rng = rng_for(self.name, self.seed, job)
        sizes = [FLOW_SIZES[i % len(FLOW_SIZES)] for i in range(self.flows)]
        rng.shuffle(sizes)
        now = 0.0
        specs = []
        for fid, size in enumerate(sizes):
            now += rng.expovariate(ARRIVAL_RATE)
            src, dst = rng.sample(range(self.num_servers), 2)
            specs.append(FlowSpec(fid, src, dst, size, now))
        return specs

    def ops(self, inputs: List[FlowSpec]) -> int:
        return len(inputs)

    def _route(self, src: int, dst: int, flow_key: int):
        with obs.span("layer.routing.route"):
            return self.controller.route(src, dst, flow_key)

    def run(self, inputs: List[FlowSpec]):
        with obs.span("layer.core.apply_layout"):
            self.controller.apply_layout(self.layout)
        with obs.span("layer.core.network"):
            net = self.controller.network
        with obs.span("layer.flowsim.run"):
            return FlowSimulator(net, self._route).run(inputs)

    @staticmethod
    def summary(output) -> dict:
        paths = sorted((c.spec.flow_id, repr(c.path.nodes))
                       for c in output.completed)
        return {"paths": digest(paths), "mean_fct": output.mean_fct,
                "p99_fct": output.p99_fct, "makespan": output.makespan}

    def check(self, job: int, inputs: List[FlowSpec], output) -> List[str]:
        self._count_pairs(inputs)
        done = {c.spec.flow_id: c for c in output.completed}
        failures = [f"job {job} flow {f.spec.flow_id}: failed ({f.reason})"
                    for f in output.failed]
        failed_ids = {f.spec.flow_id for f in output.failed}
        for spec in inputs:
            flow = done.get(spec.flow_id)
            if flow is None:
                if spec.flow_id not in failed_ids:
                    failures.append(f"job {job} flow {spec.flow_id}: missing")
            elif flow.path_hops == 0:
                if flow.duration != 0:
                    failures.append(f"job {job} flow {spec.flow_id}: "
                                    f"same-switch FCT {flow.duration}")
            elif flow.duration < spec.size / self.max_capacity - 1e-9:
                failures.append(f"job {job} flow {spec.flow_id}: FCT "
                                f"{flow.duration} faster than line rate")
        expected = _job_reference(self.reference, job)
        if failures or expected is None:
            return failures
        got = self.summary(output)
        if got["paths"] != expected["paths"]:
            self.routes_changed += 1
        elif not all(math.isclose(got[key], expected[key], rel_tol=FCT_RTOL)
                     for key in ("mean_fct", "p99_fct", "makespan")):
            return [f"job {job}: FCT summary {got} != reference {expected}"
                    ] * len(inputs)
        return []

    def _count_pairs(self, inputs: List[FlowSpec]) -> None:
        net = self.controller.network
        seen = set()
        for spec in inputs:
            pair = (net.server_switch(spec.src_server),
                    net.server_switch(spec.dst_server))
            if pair[0] == pair[1]:
                continue
            self._route_requests += 1
            self._route_repeats += pair in seen
            seen.add(pair)

    def finish(self) -> List[str]:
        return []

    def solution_ratio(self) -> float:
        return 1.0  # exact fluid simulation, checked above

    def input_ratios(self) -> Dict[str, float]:
        return {"routing.pair_repeat_ratio":
                self._route_repeats / max(1, self._route_requests)}

    def record(self, inputs: List[FlowSpec], output) -> dict:
        return self.summary(output)


# ----------------------------------------------------------------------
# reconvert_sdn
# ----------------------------------------------------------------------
#: Pairs per conversion whose shortest path is re-derived by BFS.
BFS_CHECKED_PAIRS = 20


class ReconvertSdn:
    """Control-plane loop: convert, then compile and validate SDN routes.

    Each job converts the plant to a layout drawn from the three uniform
    modes and every ``proportional_layout`` hybrid split, compiles SDN
    rules for fresh server pairs and validates them on the new network.
    Every conversion empties the route cache, so routing is all misses.
    """

    name = "reconvert_sdn"
    kinds = 1

    def __init__(self, seed: int, reference: Optional[dict] = None,
                 k: int = 16, pairs: int = 200) -> None:
        self.seed = seed
        self.k = k
        self.pairs = pairs
        design = FlatTreeDesign.for_fat_tree(k)
        params = design.params
        self.num_servers = params.num_servers
        self.controller = Controller(FlatTree(design))
        self.layouts = [uniform_layout(params, mode) for mode in Mode] + [
            proportional_layout(params, count / params.pods)
            for count in range(1, params.pods)]
        self.reference = _seed_reference(reference, self, seed)
        self._layouts_seen: set = set()
        self._conversions = 0
        self._layout_repeats = 0
        self._route_requests = 0
        self._route_repeats = 0

    def config(self) -> dict:
        return {"k": self.k, "pairs": self.pairs}

    def inputs(self, job: int) -> Tuple[int, List[Tuple[int, int]]]:
        rng = rng_for(self.name, self.seed, job)
        layout = rng.randrange(len(self.layouts))
        pairs = [tuple(rng.sample(range(self.num_servers), 2))
                 for _ in range(self.pairs)]
        return layout, pairs

    def ops(self, inputs) -> int:
        return 1

    def run(self, inputs):
        layout, pairs = inputs
        with obs.span("layer.core.apply_layout"):
            self.controller.apply_layout(self.layouts[layout])
        with obs.span("layer.core.network"):
            net = self.controller.network
        with obs.span("layer.routing.compile_sdn"):
            program = self.controller.compile_sdn(pairs)
        with obs.span("layer.routing.validate_on"):
            program.validate_on(net)
        return net, program

    def hop_lengths(self, pairs) -> List[List[int]]:
        return [sorted(path.hops for path in self.controller.routes(s, d))
                for s, d in pairs]

    def check(self, job: int, inputs, output) -> List[str]:
        layout, pairs = inputs
        net, program = output
        self._count_inputs(layout, pairs, net)
        # Path ids number a switch pair's paths in the order its server
        # pairs were compiled; each id must forward along its path.
        installed: Dict[tuple, list] = {}
        for i, (src, dst) in enumerate(pairs):
            paths = self.controller.routes(src, dst)
            if not paths:
                return [f"job {job} pair {i}: no route"]
            for path in paths:
                if path.hops:
                    installed.setdefault((path.src, path.dst), []).append(path)
            if i < BFS_CHECKED_PAIRS:
                shortest = nx.shortest_path_length(
                    net.fabric, paths[0].src, paths[0].dst)
                if min(p.hops for p in paths) != shortest:
                    return [f"job {job} pair {i}: no shortest path "
                            f"({shortest} hops) among routes"]
        for (src_sw, dst_sw), paths in installed.items():
            for path_id, path in enumerate(paths):
                if program.forward(src_sw, dst_sw, path_id) != path:
                    return [f"job {job}: rules for {src_sw}->{dst_sw} do not "
                            f"forward path {path_id}"]
        expected = _job_reference(self.reference, job)
        if expected is not None and self.record(inputs, output) != expected:
            return [f"job {job}: KSP hop lengths differ from the reference"]
        return []

    def _count_inputs(self, layout, pairs, net) -> None:
        self._conversions += 1
        self._layout_repeats += layout in self._layouts_seen
        self._layouts_seen.add(layout)
        seen = set()
        for src, dst in pairs:
            pair = (net.server_switch(src), net.server_switch(dst))
            if pair[0] == pair[1]:
                continue
            self._route_requests += 1
            self._route_repeats += pair in seen
            seen.add(pair)

    def finish(self) -> List[str]:
        return []

    def solution_ratio(self) -> float:
        return 1.0  # exact KSP, checked above

    def input_ratios(self) -> Dict[str, float]:
        return {
            "core.layout_repeat_ratio":
                self._layout_repeats / max(1, self._conversions),
            "routing.pair_repeat_ratio":
                self._route_repeats / max(1, self._route_requests),
        }

    def record(self, inputs, output) -> str:
        """Digest of each pair's sorted KSP hop lengths (ties may differ)."""
        return digest(self.hop_lengths(inputs[1]))


WORKLOADS = {cls.name: cls for cls in (Fig8Lp, FptasA2a, FctPoisson,
                                       ReconvertSdn)}


def _seed_reference(reference: Optional[dict], workload, seed: int):
    """The stored per-job answers for this workload, seed and sizes."""
    entry = (reference or {}).get(workload.name, {})
    if entry.get("config") != workload.config():
        return None
    return entry.get("seeds", {}).get(str(seed))


def _job_reference(per_job: Optional[list], job: int):
    if per_job is None or job >= len(per_job):
        return None
    return per_job[job]
