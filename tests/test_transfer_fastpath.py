"""Vectorized fast path (columnar Transfer, route and Combine):
equivalence, the shared group-by kernel, routing determinism, and the
shipped-message accounting regression.

The scalar per-edge path is the oracle: the array path must reproduce its
results, message counts, byte counts and task costs *bit for bit* at
every optimization level (see docs/COST_MODEL.md for the contract).
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.apps import NetworkRankingPropagation
from repro.apps.connected_components import ConnectedComponentsPropagation
from repro.apps.recommender import RecommenderPropagation
from repro.apps.traversal import (
    BreadthFirstSearchPropagation,
    DeltaPageRankPropagation,
    KCoreDecompositionPropagation,
    ShortestPathsPropagation,
)
from repro.bench.workloads import make_cluster, topology_by_name
from repro.core.range_plan import contiguous_range_plan
from repro.core.surfer import Surfer
from repro.errors import JobError
from repro.graph.generators import composite_social_graph, rmat
from repro.graph.store import build_shard_store, open_shard_graph
from repro.graph.stream import stream_from_edges, stream_rmat
from repro.propagation.api import (
    MessageBox,
    PropagationApp,
    fold_by_dest,
    fold_groups,
    fold_identity,
    group_by_key,
)
from repro.propagation.engine import PropagationEngine, virtual_partition
from repro.mapreduce.engine import reducer_of
from tests.conftest import make_test_cluster

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


# ----------------------------------------------------------------------
# CSR slice gathering
# ----------------------------------------------------------------------
class TestOutEdgesOf:
    def test_matches_scan_order(self, small_graph):
        verts = np.array([5, 0, 17, 100, 3], dtype=np.int64)
        src, dst = small_graph.out_edges_of(verts)
        expected = [
            (int(u), int(v))
            for u in verts
            for v in small_graph.out_neighbors(int(u))
        ]
        assert list(zip(src.tolist(), dst.tolist())) == expected

    def test_empty_subset(self, small_graph):
        src, dst = small_graph.out_edges_of(np.zeros(0, dtype=np.int64))
        assert src.size == 0 and dst.size == 0

    def test_full_graph_matches_edges(self, small_graph):
        src, dst = small_graph.out_edges_of(
            np.arange(small_graph.num_vertices)
        )
        assert np.array_equal(src, small_graph.edge_sources())
        assert np.array_equal(dst, small_graph.out_indices)


# ----------------------------------------------------------------------
# Order-exact array folding and the shared group-by kernel
# ----------------------------------------------------------------------
class TestFoldByDest:
    def test_float_add_is_bit_identical_to_scalar_fold(self):
        rng = np.random.default_rng(11)
        dests = rng.integers(0, 40, 5000)
        values = rng.random(5000)
        oracle: dict[int, float] = {}
        for d, v in zip(dests, values):
            d = int(d)
            oracle[d] = oracle[d] + v if d in oracle else v
        uniq, merged, counts = fold_by_dest(dests, values, np.add)
        assert uniq.tolist() == sorted(oracle)
        for d, m in zip(uniq.tolist(), merged):
            assert m == oracle[d]  # exact, not approx
        assert int(counts.sum()) == 5000

    def test_minimum_fold(self):
        dests = np.array([3, 1, 3, 1, 3])
        values = np.array([5, 9, 2, 4, 7], dtype=np.int64)
        uniq, merged, counts = fold_by_dest(dests, values, np.minimum)
        assert uniq.tolist() == [1, 3]
        assert merged.tolist() == [4, 2]
        assert counts.tolist() == [2, 3]


class TestGroupByKey:
    """The columnar route and combine reproduce the scalar inbox."""

    def test_bags_match_add_sequence(self):
        # three source chunks arriving in order, as at one inbox
        chunks = [(np.array([2, 1, 2]), np.array([10, 20, 30])),
                  (np.array([1, 3]), np.array([40, 50])),
                  (np.array([2, 2, 3]), np.array([60, 70, 80]))]
        oracle = MessageBox()
        for dests, values in chunks:
            for d, v in zip(dests.tolist(), values.tolist()):
                oracle.add(d, v)
        uniq, bounds, grouped = group_by_key([c[0] for c in chunks],
                                             [c[1] for c in chunks])
        assert uniq.tolist() == sorted(oracle.data)
        b = bounds.tolist()
        for i, d in enumerate(uniq.tolist()):
            assert grouped[b[i]:b[i + 1]].tolist() == oracle.values_of(d)

    def test_merged_match_add_sequence(self):
        rng = np.random.default_rng(5)
        dests = rng.integers(0, 10, 300)
        values = rng.random(300)
        oracle = MessageBox(merge=lambda a, b: a + b)
        for d, v in zip(dests.tolist(), values.tolist()):
            oracle.add(d, v)
        uniq, bounds, grouped = group_by_key([dests[:120], dests[120:]],
                                             [values[:120], values[120:]])
        merged = fold_groups(bounds, grouped, np.add)
        for d, m in zip(uniq.tolist(), merged.tolist()):
            assert m == oracle.data[d]  # bitwise

    def test_fold_is_the_left_fold_on_adversarial_magnitudes(self):
        rng = np.random.default_rng(3)
        n = 100_000
        values = ((10.0 ** rng.integers(-12, 13, n))
                  * rng.choice([-1.0, 1.0], n))
        left = 0.0
        for v in values.tolist():
            left = left + v
        _, bounds, grouped = group_by_key([np.zeros(n, dtype=np.int64)],
                                          [values])
        assert fold_groups(bounds, grouped, np.add)[0] == left
        # why the kernel never uses reduceat: it sums float64 segments
        # pairwise, which this input tells apart from the left fold
        assert np.add.reduceat(values, [0])[0] != left

    def test_empty_input(self):
        uniq, bounds, grouped = group_by_key(
            [np.zeros(0, dtype=np.int64)], [np.zeros(0)])
        assert uniq.size == 0 and bounds.tolist() == [0]
        assert fold_groups(bounds, grouped, np.minimum).size == 0

    @pytest.mark.parametrize("ufunc, dtype, expected", [
        (np.add, np.float64, 0.0),
        (np.logical_or, np.bool_, False),
        (np.minimum, np.int64, np.iinfo(np.int64).max),
        (np.minimum, np.float64, np.inf),
    ])
    def test_fold_identity(self, ufunc, dtype, expected):
        identity = fold_identity(ufunc, dtype)
        assert identity == expected
        assert np.asarray(identity).dtype == np.dtype(dtype)
        # the identity leaves any value unchanged under the fold
        probe = np.asarray([3], dtype=dtype)
        assert ufunc(probe, identity).tolist() == probe.tolist()


# ----------------------------------------------------------------------
# Scalar vs. vectorized engine equivalence
# ----------------------------------------------------------------------
class _DeclineFirstPartitionNR(NetworkRankingPropagation):
    """NR whose fast path declines on partition 0's edges."""

    def transfer_array(self, src, dst, state):
        if src.size and state.pgraph.parts[src[0]] == 0:
            return None
        return super().transfer_array(src, dst, state)


class _DeclineFirstPartitionCC(ConnectedComponentsPropagation):
    """CC (integer labels) whose fast path declines on partition 0."""

    def transfer_array(self, src, dst, state):
        if src.size and state.pgraph.parts[src[0]] == 0:
            return None
        return super().transfer_array(src, dst, state)


class _AdversarialNR(NetworkRankingPropagation):
    """NR started from ranks of wildly mixed magnitude and sign."""

    def setup(self, pgraph):
        state = super().setup(pgraph)
        rng = np.random.default_rng(17)
        n = pgraph.num_vertices
        state.values[:] = ((10.0 ** rng.integers(-12, 13, n))
                           * rng.choice([-1.0, 1.0], n))
        return state


def _job_signature(job):
    reports = [
        (r.messages_emitted, r.messages_shipped, r.network_bytes,
         r.spill_bytes, r.locally_propagated)
        for r in job.reports
    ]
    tasks = [
        (e.task.name, e.task.cpu_ops, e.task.disk_read_bytes,
         e.task.disk_write_bytes, tuple(e.task.sends),
         tuple(e.task.receives), e.task.disk_penalty)
        for e in job.executions
    ]
    metrics = (job.metrics.network_bytes, job.metrics.disk_bytes,
               job.metrics.response_time)
    return reports, tasks, metrics


class TestFastPathEquivalence:
    @pytest.fixture(scope="class")
    def graph(self):
        return composite_social_graph(
            num_communities=8, community_size=64, k=5, seed=9
        )

    @pytest.mark.parametrize("local_opts", [True, False])
    @pytest.mark.parametrize("app_name", ["NR", "CC", "RS"])
    def test_bit_identical_products(self, graph, app_name, local_opts):
        apps = {
            "NR": (NetworkRankingPropagation, graph),
            "CC": (ConnectedComponentsPropagation, graph.symmetrized()),
            "RS": (RecommenderPropagation, graph),
        }
        app_cls, g = apps[app_name]
        surfer = Surfer(g, make_test_cluster(4), num_parts=8, seed=3)
        scalar = surfer.run_propagation(app_cls(), iterations=3,
                                        local_opts=local_opts,
                                        vectorized=False)
        fast = surfer.run_propagation(app_cls(), iterations=3,
                                      local_opts=local_opts,
                                      vectorized=True)
        assert np.array_equal(np.asarray(scalar.result),
                              np.asarray(fast.result))
        assert _job_signature(scalar) == _job_signature(fast)

    def test_force_vectorized_rejects_unsupported_app(self, graph):
        class NoArrayApp(PropagationApp):
            name = "no-array"
            is_associative = True

            def transfer(self, u, v, state):
                return 1.0

            def combine(self, v, values, state):
                return sum(values)

            def merge(self, a, b):
                return a + b

            def update(self, state, combined):
                pass

            def setup(self, pgraph):
                return None

        surfer = Surfer(graph, make_test_cluster(4), num_parts=8, seed=3)
        with pytest.raises(JobError):
            surfer.run_propagation(NoArrayApp(), vectorized=True)

    def test_scalar_select_without_array_twin_falls_back(self, graph):
        """Overriding select but not select_array disqualifies the fast
        path instead of silently selecting every vertex."""

        class HalfSelect(NetworkRankingPropagation):
            def select(self, u, state):
                return u % 2 == 0

        surfer = Surfer(graph, make_test_cluster(4), num_parts=8, seed=3)
        with pytest.raises(JobError):
            surfer.run_propagation(HalfSelect(), vectorized=True)
        auto = surfer.run_propagation(HalfSelect())  # auto: scalar path
        scalar = surfer.run_propagation(HalfSelect(), vectorized=False)
        assert np.array_equal(np.asarray(auto.result),
                              np.asarray(scalar.result))
        assert _job_signature(auto) == _job_signature(scalar)


#: app name -> (class, needs a symmetrized graph, runs to convergence)
PARITY_APPS = {
    "NR": (NetworkRankingPropagation, False, False),
    "CC": (ConnectedComponentsPropagation, True, False),
    "RS": (RecommenderPropagation, False, False),
    "BFS": (BreadthFirstSearchPropagation, False, True),
    "SSSP": (ShortestPathsPropagation, False, True),
    "DPR": (DeltaPageRankPropagation, False, True),
    "KCORE": (KCoreDecompositionPropagation, True, True),
}


def _assert_parity(surfer, app_cls, converge, **kw):
    """Scalar oracle vs vectorized fast path: results and every cost."""
    if converge:
        kw.update(iterations=100, until_convergence=True)
    else:
        kw.update(iterations=3)
    scalar = surfer.run_propagation(app_cls(), vectorized=False, **kw)
    fast = surfer.run_propagation(app_cls(), vectorized=True, **kw)
    assert not scalar.failed and not fast.failed
    assert np.array_equal(np.asarray(scalar.result),
                          np.asarray(fast.result))
    assert _job_signature(scalar) == _job_signature(fast)


class TestColumnarParity:
    """The columnar route and combine against the scalar oracle: the
    traversal apps in both modes, shard-backed range-plan graphs,
    mixed iterations and adversarial float magnitudes."""

    @pytest.fixture(scope="class")
    def graph(self):
        return composite_social_graph(
            num_communities=8, community_size=64, k=5, seed=9
        )

    @pytest.fixture(scope="class")
    def shard_graphs(self, tmp_path_factory):
        """Directed and symmetrized R-MAT shard stores (8 shards)."""
        root = tmp_path_factory.mktemp("stores")
        directed_path = root / "directed"
        build_shard_store(stream_rmat(10, edge_factor=8, seed=2010),
                          directed_path, num_shards=8)
        directed = open_shard_graph(directed_path)
        sym = rmat(10, edge_factor=8, seed=2010).symmetrized()
        sym_path = root / "symmetrized"
        build_shard_store(
            stream_from_edges(np.column_stack(
                (sym.edge_sources(), sym.out_indices)), sym.num_vertices),
            sym_path, num_shards=8)
        return {False: directed, True: open_shard_graph(sym_path)}

    @pytest.mark.parametrize("local_opts", [True, False])
    @pytest.mark.parametrize("frontier", [True, False])
    @pytest.mark.parametrize("app_name", ["BFS", "SSSP", "DPR", "KCORE"])
    def test_traversal_apps(self, graph, app_name, frontier, local_opts):
        app_cls, symmetric, converge = PARITY_APPS[app_name]
        g = graph.symmetrized() if symmetric else graph
        surfer = Surfer(g, make_test_cluster(4), num_parts=8, seed=3)
        _assert_parity(surfer, app_cls, converge, frontier=frontier,
                       local_opts=local_opts)

    @pytest.mark.parametrize("local_opts", [True, False])
    @pytest.mark.parametrize("app_name", sorted(PARITY_APPS))
    def test_shard_backed_range_plan(self, shard_graphs, app_name,
                                     local_opts):
        app_cls, symmetric, converge = PARITY_APPS[app_name]
        g = shard_graphs[symmetric]
        cluster = make_cluster(topology_by_name("T2(4,1)", 8))
        plan = contiguous_range_plan(g, cluster.topology, 8, seed=2010,
                                     offsets=g.store.vertex_starts)
        surfer = Surfer(g, cluster, seed=2010, plan=plan)
        _assert_parity(surfer, app_cls, converge, local_opts=local_opts)

    @pytest.mark.parametrize("local_opts", [True, False])
    @pytest.mark.parametrize("app_cls", [_DeclineFirstPartitionNR,
                                         _DeclineFirstPartitionCC])
    def test_mixed_iteration(self, graph, app_cls, local_opts,
                             monkeypatch):
        """Partition 0's transfer_array declines, so each iteration mixes
        a scalar-path partition into the columnar route and combine."""
        g = (graph.symmetrized() if app_cls is _DeclineFirstPartitionCC
             else graph)
        surfer = Surfer(g, make_test_cluster(4), num_parts=8, seed=3)
        scalar = surfer.run_propagation(app_cls(), iterations=3,
                                        local_opts=local_opts,
                                        vectorized=False)
        calls = []
        original = PropagationEngine._run_transfer_scalar

        def spy(engine, app, state, p, finfo=None):
            calls.append(p)
            return original(engine, app, state, p, finfo)

        monkeypatch.setattr(PropagationEngine, "_run_transfer_scalar", spy)
        mixed = surfer.run_propagation(app_cls(), iterations=3,
                                       local_opts=local_opts)
        assert calls == [0, 0, 0]  # one scalar partition per iteration
        assert np.array_equal(np.asarray(scalar.result),
                              np.asarray(mixed.result))
        assert _job_signature(scalar) == _job_signature(mixed)

    @pytest.mark.parametrize("local_opts", [True, False])
    def test_adversarial_magnitudes(self, graph, local_opts):
        """Ranks spanning 24 decades with mixed signs: every combined
        rank must equal the scalar ``teleport + sum(bag)`` bit for bit,
        which a pairwise (reduceat-style) fold would miss."""
        surfer = Surfer(graph, make_test_cluster(4), num_parts=8, seed=3)
        scalar = surfer.run_propagation(_AdversarialNR(), iterations=2,
                                        local_opts=local_opts,
                                        vectorized=False)
        fast = surfer.run_propagation(_AdversarialNR(), iterations=2,
                                      local_opts=local_opts,
                                      vectorized=True)
        assert np.array_equal(scalar.result, fast.result)
        assert _job_signature(scalar) == _job_signature(fast)

    def test_fast_path_never_builds_boxes(self, graph, monkeypatch):
        """A vectorized job routes and combines without one
        ``MessageBox.add`` call."""
        surfer = Surfer(graph, make_test_cluster(4), num_parts=8, seed=3)
        scalar = surfer.run_propagation(NetworkRankingPropagation(),
                                        iterations=3, vectorized=False)

        def forbidden(box, dest, value):
            raise AssertionError("MessageBox.add on the fast path")

        monkeypatch.setattr(MessageBox, "add", forbidden)
        fast = surfer.run_propagation(NetworkRankingPropagation(),
                                      iterations=3, vectorized=True)
        assert not fast.failed
        assert np.array_equal(scalar.result, fast.result)
        assert _job_signature(scalar) == _job_signature(fast)


# ----------------------------------------------------------------------
# Regression: messages_shipped at O1/O2 (no local optimizations)
# ----------------------------------------------------------------------
class TestShippedAccounting:
    def test_unmerged_cross_messages_all_counted(self, small_graph):
        """Without local optimizations an associative app ships every raw
        message; the report must not collapse them to distinct
        destinations (the pre-fix behavior)."""
        surfer = Surfer(small_graph, make_test_cluster(4), num_parts=8,
                        seed=3)
        job = surfer.run_propagation(NetworkRankingPropagation(),
                                     local_opts=False)
        report = job.reports[0]
        # NR transfers along every edge, so every cross edge ships one
        # unmerged message.
        assert report.messages_shipped == surfer.pgraph.num_cross_edges
        # merging must make the count strictly smaller on this workload
        merged = surfer.run_propagation(NetworkRankingPropagation(),
                                        local_opts=True)
        assert merged.reports[0].messages_shipped < report.messages_shipped


# ----------------------------------------------------------------------
# Regression: routing determinism across PYTHONHASHSEED values
# ----------------------------------------------------------------------
_ROUTE_SNIPPET = """
from repro.propagation.engine import PropagationEngine, virtual_partition
from repro.mapreduce.engine import reducer_of
keys = ["user:42", "item-7", ("pair", 3), b"blob", 42, -5]
print([virtual_partition(k, 16) for k in keys])
print([reducer_of(k, 8) for k in keys])
"""


class TestRoutingDeterminism:
    def _route_output(self, hashseed: str) -> str:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _ROUTE_SNIPPET],
            capture_output=True, text=True, env=env, check=True,
        )
        return proc.stdout

    def test_string_key_routing_survives_hash_salting(self):
        out0 = self._route_output("0")
        out1 = self._route_output("12345")
        assert out0 == out1
        # and the parent process (whatever its seed) agrees too
        keys = ["user:42", "item-7", ("pair", 3), b"blob", 42, -5]
        local = str([virtual_partition(k, 16) for k in keys]) + "\n" + \
            str([reducer_of(k, 8) for k in keys]) + "\n"
        assert out0 == local

    def test_int_routing_unchanged_from_seed(self):
        # the Knuth multiplicative hash for ints is load-bearing for
        # existing layouts: keep it byte-for-byte
        assert virtual_partition(42, 16) == \
            ((42 * 2654435761) & 0xFFFFFFFF) % 16
        assert reducer_of(np.int64(9), 8) == \
            ((9 * 2654435761) & 0xFFFFFFFF) % 8
