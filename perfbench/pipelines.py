"""The benchmark's workloads, driven through repro's public API.

One *operation* runs a workload's whole pipeline cold, as a user pays for
it: make an input, partition and place it, deploy a ``Surfer``, then run
the workload's jobs one after another (a closed loop with one client and
no concurrency).  The run's seed fixes a workload's inputs; a run cycles
through them until its time is used and reports the median set-up and
the mean job and pipeline time per operation, so one unlucky input or
one slow second moves it little.

Every operation must reproduce the results and simulated counters of
the first operation on the same input exactly; only those first results
are kept.  They are checked against a single-machine oracle after the
last operation, so the oracle's memory never shows in ``peak_rss_mb``.
A failed job or check counts as one failed operation; it does not abort
the run.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from repro.apps import (
    BreadthFirstSearchPropagation,
    NetworkRankingMapReduce,
    NetworkRankingPropagation,
)
from repro.cluster import Cluster, GIGABIT_BPS, MachineSpec
from repro.cluster.topology import t2
from repro.core.bandwidth_aware import bandwidth_aware_partition
from repro.core.range_plan import contiguous_range_plan
from repro.core.surfer import JobResult, Surfer
from repro.errors import SurferError
from repro.graph.algorithms import bfs_levels, pagerank
from repro.graph.generators import composite_social_graph, rmat
from repro.graph.store import ShardBackedGraph, build_shard_store
from repro.graph.stream import stream_rmat
from repro.partitioning import (
    WGraph,
    balance,
    edge_cut,
    recursive_bisection,
    validate_assignment,
)
from repro.partitioning.kway import kway_refine_balance

from spans import Tracer

__all__ = ["Sizes", "FULL", "SMALLEST", "WORKLOADS", "RunResult",
           "run_workload"]

# The regime-scaled cluster of repro.bench.workloads, copied so the
# benchmark does not depend on that module: one simulated byte stands
# for HARDWARE_SCALE real bytes and every rate is divided by it.
HARDWARE_SCALE = 200_000.0
LINK_BPS = 40_000_000.0 / HARDWARE_SCALE
TESTBED_MACHINE = MachineSpec(
    memory_bytes=8 * 1024**3,
    disk_read_bps=180_000_000.0,
    disk_write_bps=150_000_000.0,
    cpu_ops_per_sec=50_000_000.0,
    nic_bps=GIGABIT_BPS,
)

# Appendix F composite social graph and the partitioner's k-way balance.
COMMUNITY_SIZE = 512
COMMUNITY_K = 8
REWIRE_RATIO = 0.05
SOCIAL_PARTS = 8
KWAY_TOLERANCE = 0.05
RMAT_EDGE_FACTOR = 8
# NR agrees with the oracle to ~1e-17; float64 reordering stays far below.
NR_ATOL = 1e-12
# Mean seconds host_probe() takes on the 2-vCPU Xeon (Sapphire Rapids)
# VM the benchmark was written on; wall times are reported at the host
# speed this defines.
REFERENCE_PROBE_S = 0.025


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  Partitions are placed two per machine on the
    T2(4,1) tree."""

    # Distinct inputs per seed.  The partitioner's cost varies ~11%
    # between social graphs, the -ooc jobs' ~5%; more inputs per run
    # keep that out of the run-to-run spread.
    social_inputs: int = 8
    ooc_inputs: int = 5
    communities: int = 4          # social-pipeline: 4 x 512 vertices
    social_iterations: int = 25   # NR supersteps and NR MapReduce rounds
    rmat_scale: int = 15          # -ooc: 32,768 vertices, ~244k edges
    ooc_parts: int = 16           # one shard per partition
    pagerank_iterations: int = 10
    bfs_sources: int = 4


FULL = Sizes()
SMALLEST = Sizes(social_inputs=2, ooc_inputs=2, communities=2,
                 social_iterations=2,
                 rmat_scale=10, ooc_parts=8, pagerank_iterations=2,
                 bfs_sources=2)


def input_seed(seed: int, index: int) -> int:
    """Seed of the run's ``index``-th input."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def make_cluster(parts: int) -> Cluster:
    topology = t2(4, 1, parts // 2, LINK_BPS)
    return Cluster(topology,
                   machine_spec=TESTBED_MACHINE.scaled(HARDWARE_SCALE))


# ----------------------------------------------------------------------
# Set-up: input -> partition -> placement -> deployed Surfer
# ----------------------------------------------------------------------
@dataclass
class Deployed:
    surfer: Surfer
    #: per-layer counts that describe the input and the plan
    info: dict[str, float]
    #: the plan passed validate_assignment (and the k-way balance bound)
    plan_ok: bool
    #: perf_counter() when the Surfer was deployed; set-up ends here
    ready: float
    sources: list[int] = field(default_factory=list)


def social_setup(sizes: Sizes, seed: int, tracer: Tracer,
                 work: Path) -> Deployed:
    parts = SOCIAL_PARTS
    with tracer.span("graph.generate"):
        graph = composite_social_graph(
            num_communities=sizes.communities,
            community_size=COMMUNITY_SIZE, k=COMMUNITY_K,
            p_r=REWIRE_RATIO, seed=seed)
    with tracer.span("partitioning.wgraph"):
        wgraph = WGraph.from_digraph(graph)
    with tracer.span("partitioning.bisect"):
        data = recursive_bisection(wgraph, parts, seed=seed,
                                   kway_tolerance=None)
    with tracer.span("partitioning.kway"):
        data.parts[:] = kway_refine_balance(wgraph, data.parts, parts,
                                            tolerance=KWAY_TOLERANCE)
    cluster = make_cluster(parts)
    with tracer.span("core.placement"):
        plan = bandwidth_aware_partition(graph, cluster.topology,
                                         parts, seed=seed, data=data)
    with tracer.span("core.deploy"):
        surfer = Surfer(graph, cluster, seed=seed, plan=plan)
    ready = perf_counter()
    imbalance = balance(plan.parts, parts, wgraph.vweights)
    return Deployed(
        surfer=surfer,
        info={
            "graph.edges": graph.num_edges,
            "partitioning.edge_cut": edge_cut(graph, plan.parts),
            "partitioning.balance": imbalance,
        },
        plan_ok=_plan_ok(plan.parts, graph.num_vertices, parts)
        and imbalance <= 1.0 + KWAY_TOLERANCE,
        ready=ready,
    )


def ooc_setup(sizes: Sizes, seed: int, tracer: Tracer,
              work: Path) -> Deployed:
    """Streamed R-MAT -> shard store (one shard per partition) ->
    contiguous range plan: the multilevel partitioner is skipped."""
    parts = sizes.ooc_parts
    path = work / "store"
    with tracer.span("graph.store_build"):
        store = build_shard_store(
            stream_rmat(sizes.rmat_scale, edge_factor=RMAT_EDGE_FACTOR,
                        seed=seed),
            path, num_shards=parts)
        graph = ShardBackedGraph(store)
    cluster = make_cluster(parts)
    with tracer.span("core.placement"):
        plan = contiguous_range_plan(graph, cluster.topology, parts,
                                     seed=seed, offsets=store.vertex_starts)
    with tracer.span("core.deploy"):
        surfer = Surfer(graph, cluster, seed=seed, plan=plan)
    ready = perf_counter()
    rng = np.random.default_rng(seed)
    candidates = np.flatnonzero(graph.out_degrees() > 0)
    sources = rng.choice(candidates, size=sizes.bfs_sources, replace=False)
    return Deployed(
        surfer=surfer,
        info={
            "graph.edges": graph.num_edges,
            "graph.store_bytes": sum(f.stat().st_size
                                     for f in path.rglob("*.npy")),
        },
        plan_ok=_plan_ok(plan.parts, graph.num_vertices, parts),
        ready=ready,
        sources=sorted(int(s) for s in sources),
    )


def _plan_ok(parts: np.ndarray, n: int, num_parts: int) -> bool:
    try:
        validate_assignment(parts, n, num_parts)
    except SurferError:
        return False
    return True


# ----------------------------------------------------------------------
# Jobs and their oracles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Job:
    """One timed ``Surfer`` call; ``span`` names its layer."""

    span: str
    run: Callable[[Surfer], JobResult]
    exact: bool


def _nr_prop(iterations: int) -> Job:
    return Job("propagation.job", lambda s: s.run_propagation(
        NetworkRankingPropagation(), iterations=iterations,
        vectorized=True), exact=False)


def _nr_mr(rounds: int) -> Job:
    return Job("mapreduce.job", lambda s: s.run_mapreduce(
        NetworkRankingMapReduce(), rounds=rounds, vectorized=True),
        exact=False)


def _bfs(source: int, bound: int) -> Job:
    return Job("propagation.job", lambda s: s.run_propagation(
        BreadthFirstSearchPropagation(source=source), iterations=bound,
        frontier=True, until_convergence=True, vectorized=True),
        exact=True)


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[Sizes], int]
    setup: Callable[[Sizes, int, Tracer, Path], Deployed]
    #: the jobs of one operation, given the BFS sources
    jobs: Callable[[Sizes, list[int]], list[Job]]
    #: single-machine reference results, one per job, in job order
    oracle: Callable[[Sizes, int, list[int]], list[np.ndarray]]
    #: span-name prefixes of the layer this workload is chosen to stress
    target: tuple[str, ...]


def _social_oracle(sizes: Sizes, seed: int, sources: list[int]) -> list:
    graph = composite_social_graph(
        num_communities=sizes.communities, community_size=COMMUNITY_SIZE,
        k=COMMUNITY_K, p_r=REWIRE_RATIO, seed=seed)
    ranks = pagerank(graph, num_iterations=sizes.social_iterations,
                     dangling="self")
    return [ranks, ranks]


def _rmat_twin(sizes: Sizes, seed: int):
    """The in-memory graph bit-identical to the streamed store."""
    return rmat(sizes.rmat_scale, edge_factor=RMAT_EDGE_FACTOR, seed=seed)


def _pagerank_oracle(sizes: Sizes, seed: int, sources: list[int]) -> list:
    return [pagerank(_rmat_twin(sizes, seed),
                     num_iterations=sizes.pagerank_iterations,
                     dangling="self")]


def _bfs_oracle(sizes: Sizes, seed: int, sources: list[int]) -> list:
    twin = _rmat_twin(sizes, seed)
    return [bfs_levels(twin, s) for s in sources]


WORKLOADS: dict[str, Workload] = {
    "social-pipeline": Workload(
        inputs=lambda z: z.social_inputs,
        setup=social_setup,
        jobs=lambda z, sources: [_nr_prop(z.social_iterations),
                                 _nr_mr(z.social_iterations)],
        oracle=_social_oracle,
        target=("partitioning.",),
    ),
    "pagerank-ooc": Workload(
        inputs=lambda z: z.ooc_inputs,
        setup=ooc_setup,
        jobs=lambda z, sources: [_nr_prop(z.pagerank_iterations)],
        oracle=_pagerank_oracle,
        target=("propagation.", "runtime."),
    ),
    "bfs-ooc": Workload(
        inputs=lambda z: z.ooc_inputs,
        setup=ooc_setup,
        jobs=lambda z, sources: [_bfs(s, 1 << z.rmat_scale)
                                 for s in sources],
        oracle=_bfs_oracle,
        target=("propagation.superstep", "runtime."),
    ),
}


# ----------------------------------------------------------------------
# One operation
# ----------------------------------------------------------------------
@dataclass
class Op:
    input: int
    traced: bool
    tracer: Tracer
    sources: list[int]
    setup_s: float
    job_s: float
    info: dict[str, float]
    sim: tuple[float, float, float]
    results: list[Any]
    job_ok: list[bool]
    #: host_probe() after the set-up and after each job, outside the timing
    probe_s: list[float]

    @property
    def pipeline_s(self) -> float:
        return self.setup_s + self.job_s


def run_op(workload: Workload, sizes: Sizes, seed: int, index: int,
           work: Path, tracer: Tracer, traced: bool) -> Op:
    """One cold pipeline on the run's ``index``-th input."""
    shutil.rmtree(work / "store", ignore_errors=True)
    # the previous operation's garbage is not this one's cost
    gc.collect()
    with tracer.patched() if traced else nullcontext():
        start = perf_counter()
        deployed = workload.setup(sizes, input_seed(seed, index), tracer,
                                  work)
        setup_s = deployed.ready - start
        probe_s = [host_probe()]
        job_s = 0.0
        done: list[tuple[Job, JobResult | None]] = []
        for job in workload.jobs(sizes, deployed.sources):
            start = perf_counter()
            try:
                with tracer.span(job.span):
                    result: JobResult | None = job.run(deployed.surfer)
            except SurferError:
                result = None
            job_s += perf_counter() - start
            probe_s.append(host_probe())
            done.append((job, result))
    finished = [r for _, r in done if r is not None]
    info = dict(deployed.info)
    info.update(_program_counters(done, deployed.surfer))
    return Op(
        input=index,
        traced=traced,
        tracer=tracer,
        sources=deployed.sources,
        setup_s=setup_s,
        job_s=job_s,
        info=info,
        sim=(sum(r.response_time for r in finished),
             sum(r.metrics.network_bytes for r in finished),
             sum(r.metrics.disk_bytes for r in finished)),
        results=[None if r is None or r.failed else r.result
                 for _, r in done],
        job_ok=[deployed.plan_ok and r is not None and not r.failed
                for _, r in done],
        probe_s=probe_s,
    )


def _program_counters(done: list[tuple[Job, JobResult | None]],
                      surfer: Surfer) -> dict[str, float]:
    """Counters the program already returns, summed over the jobs."""
    c: dict[str, float] = defaultdict(float)
    for job, result in done:
        if result is None or result.events is None:
            continue
        m = result.events.metrics
        c["runtime.scheduler_s"] += m.get("scheduler.wall_seconds")
        c["runtime.stages"] += m.get("scheduler.stages")
        c["runtime.tasks"] += m.get("scheduler.tasks_executed")
        c["cluster.bytes_cross_pod"] += m.get("network.bytes_cross_pod")
        c["cluster.machine_s"] += result.total_machine_time
        if job.span == "propagation.job":
            c["propagation.udf_s"] += m.get("wall.udf_seconds")
            c["propagation.supersteps"] += len(result.reports)
            for name in ("messages_emitted", "messages_shipped",
                         "locally_propagated"):
                c["propagation." + name] += m.get("propagation." + name)
            c["frontier.active"] += m.get("frontier.active")
            c["frontier.exchange_bytes"] += m.get("frontier.exchange_bytes")
        else:
            c["mapreduce.shuffle_records"] += sum(
                r.shuffle_records for r in result.reports)
            c["mapreduce.shuffle_bytes"] += sum(
                r.shuffle_bytes for r in result.reports)
    emitted = c["propagation.messages_emitted"]
    steps = c["propagation.supersteps"]
    c["propagation.local_ratio"] = (c.pop("propagation.locally_propagated")
                                    / emitted if emitted else 0.0)
    c["propagation.ship_ratio"] = (c["propagation.messages_shipped"]
                                   / emitted if emitted else 0.0)
    c["frontier.active_ratio"] = (
        c.pop("frontier.active") / (surfer.pgraph.num_vertices * steps)
        if steps else 0.0)
    c["core.inner_edge_ratio"] = surfer.pgraph.inner_edge_ratio
    return dict(c)


# ----------------------------------------------------------------------
# A run: operations cycling over the inputs, checks, metrics
# ----------------------------------------------------------------------
#: top-level spans timed in every operation, as per-layer ``*_s`` metrics
SEQUENTIAL_LAYERS = (
    "graph.generate", "graph.store_build", "partitioning.wgraph",
    "partitioning.bisect", "partitioning.kway", "core.placement",
    "core.deploy", "propagation.job", "mapreduce.job",
)
#: spans only a traced operation records
TRACED_LAYERS = ("partitioning.coarsen", "partitioning.initial",
                 "partitioning.fm", "propagation.superstep",
                 "mapreduce.round", "runtime.stage")
#: per-layer counts read from the program or the plan
COUNTS = (
    "graph.edges", "graph.store_bytes", "partitioning.edge_cut",
    "partitioning.balance", "core.inner_edge_ratio", "propagation.udf_s",
    "propagation.supersteps", "propagation.messages_emitted",
    "propagation.messages_shipped", "propagation.local_ratio",
    "propagation.ship_ratio", "frontier.active_ratio",
    "frontier.exchange_bytes", "mapreduce.shuffle_records",
    "mapreduce.shuffle_bytes", "runtime.scheduler_s", "runtime.stages",
    "runtime.tasks", "cluster.bytes_cross_pod", "cluster.machine_s",
)
JOB_PREFIXES = ("propagation.", "mapreduce.", "runtime.")


@dataclass
class RunResult:
    attempted: int
    failed: int
    #: wall times in measured seconds; multiply by ``host_speed`` to
    #: report them at the reference host speed
    metrics: dict[str, float]
    spans: list[dict[str, Any]]
    #: REFERENCE_PROBE_S over the run's mean host_probe() time
    host_speed: float

    @property
    def correct(self) -> bool:
        return self.failed == 0


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes now.

    The loop shares no code with the program, so it measures only how
    fast the host runs interpreted Python at the moment.  That speed
    drifts by up to ~1.6x over minutes on a shared host, in user time,
    and moves the program's wall times with it.
    """
    start = perf_counter()
    counts: dict[int, int] = {}
    for i in range(150_000):
        key = i % 977
        counts[key] = counts.get(key, 0) + i
    return perf_counter() - start


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path, sizes: Sizes = FULL) -> RunResult:
    """Cycle operations over the run's inputs for ``seconds``.

    Untraced, every input runs once and one input again, at least.
    With ``trace`` each input runs untraced then traced, at least once,
    and the result holds the per-layer metrics; otherwise the end-to-end
    ones.  A run stops before the operation it expects to end past
    ``seconds``.  The first operation warms the process up and is
    checked but not timed.
    """
    workload = WORKLOADS[name]
    inputs = workload.inputs(sizes)
    step = 2 if trace else 1
    least = 2 * inputs if trace else inputs + 1
    work.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    first: dict[int, Op] = {}
    start = perf_counter()
    try:
        while True:
            i = len(ops)
            index, traced = (i // step) % inputs, i % step == 1
            tracer = Tracer(f"{name}/seed{seed}/input{index}/op{i}")
            op = run_op(workload, sizes, seed, index, work, tracer, traced)
            ops.append(op)
            ref = first.setdefault(index, op)
            if ref is not op:
                _compare(op, ref)
            done = len(ops)
            if (done >= least and
                    (perf_counter() - start) * (done + 1) / done > seconds):
                break
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work / "store", ignore_errors=True)

    failed = _check(workload, sizes, seed, ops, first)
    attempted = sum(len(op.job_ok) for op in ops)
    plain = [op for op in ops[1:] if not op.traced]
    firsts = list(first.values())
    host_speed = REFERENCE_PROBE_S / statistics.fmean(
        p for op in ops[1:] for p in op.probe_s)
    if trace:
        metrics = _layer_metrics(workload, plain,
                                 [op for op in ops if op.traced])
        metrics["host.speed"] = host_speed
    else:
        metrics = {
            "setup_s": _median(plain, lambda op: op.setup_s),
            # Within a run the host's speed drifts over tens of seconds
            # and moves every operation of a stretch alike; the mean
            # per operation averages that drift better than the median.
            "job_s": _mean(plain, lambda op: op.job_s),
            "pipeline_s": _mean(plain, lambda op: op.pipeline_s),
            "peak_rss_mb": peak_rss_mb,
            "sim_response_s": _mean(firsts, lambda op: op.sim[0]),
            "sim_network_bytes": _mean(firsts, lambda op: op.sim[1]),
            "sim_disk_bytes": _mean(firsts, lambda op: op.sim[2]),
        }
    spans = [s for op in ops if op.traced for s in op.tracer.dump()]
    return RunResult(attempted, failed, metrics, spans, host_speed)


def _compare(op: Op, ref: Op) -> None:
    """Fail ``op``'s jobs that differ from the first operation on the
    same input, in result bits or simulated counters; drop its
    results."""
    op.job_ok = [ok and op.sim == ref.sim and np.array_equal(r, r0)
                 for ok, r, r0 in zip(op.job_ok, op.results, ref.results)]
    op.results = []


def _check(workload: Workload, sizes: Sizes, seed: int, ops: list[Op],
           first: dict[int, Op]) -> int:
    """Failed jobs: those already failed, and those whose input's first
    operation does not match the oracle."""
    oracle_ok: dict[int, list[bool]] = {}
    for index, op in first.items():
        reference = workload.oracle(sizes, input_seed(seed, index),
                                    op.sources)
        jobs = workload.jobs(sizes, op.sources)
        oracle_ok[index] = [
            r is not None and _matches(r, expected, job.exact)
            for r, expected, job in zip(op.results, reference, jobs)
        ]
    return sum(not (ok and oracle_ok[op.input][j])
               for op in ops for j, ok in enumerate(op.job_ok))


def _matches(result: np.ndarray, reference: np.ndarray,
             exact: bool) -> bool:
    result = np.asarray(result)
    if result.shape != reference.shape:
        return False
    if exact:
        return bool(np.array_equal(result, reference))
    return bool(np.max(np.abs(result - reference), initial=0.0) <= NR_ATOL)


def _median(ops: list[Op], value: Callable[[Op], float]) -> float:
    return float(statistics.median(value(op) for op in ops))


def _mean(ops: list[Op], value: Callable[[Op], float]) -> float:
    return float(statistics.fmean(value(op) for op in ops))


def _self_sum(op: Op, prefixes: tuple[str, ...]) -> float:
    return sum(t for name, t in op.tracer.self_times().items()
               if name.startswith(prefixes))


def _layer_metrics(workload: Workload, plain: list[Op],
                   traced: list[Op]) -> dict[str, float]:
    out: dict[str, float] = {}
    for layer in SEQUENTIAL_LAYERS:
        out[layer + "_s"] = _median(
            plain, lambda op: op.tracer.totals().get(layer, 0.0))
    for key in COUNTS:
        out[key] = _median(plain, lambda op: op.info.get(key, 0.0))
    for layer in TRACED_LAYERS:
        out[layer + "_s"] = _median(
            traced, lambda op: op.tracer.self_times().get(layer, 0.0))
    out["partitioning.fm_calls"] = _median(
        traced, lambda op: op.tracer.counts().get("partitioning.fm", 0))
    out["trace.overhead_s"] = (_median(traced, lambda op: op.pipeline_s)
                               - _median(plain, lambda op: op.pipeline_s))
    out["trace.coverage"] = _median(
        traced, lambda op: op.tracer.covered() / op.pipeline_s)
    out["trace.superstep_udf_gap_s"] = _median(
        traced, lambda op: op.tracer.self_times().get(
            "propagation.superstep", 0.0) - op.info["propagation.udf_s"])
    for metric, prefixes in (("trace.partitioning_share", ("partitioning.",)),
                             ("trace.job_share", JOB_PREFIXES),
                             ("trace.target_share", workload.target)):
        out[metric] = _median(
            traced, lambda op: _self_sum(op, prefixes) / op.pipeline_s)
    return out
