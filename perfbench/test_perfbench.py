"""Self-test of the benchmark: every workload at its smallest size.

    PYTHONPATH=src python3 -m pytest perfbench -q

Checks that each workload emits every metric ``BENCHMARK.json`` names,
that all output checks pass, that the partitioner reads zero where it is
bypassed, and that the split bisection the benchmark times gives the
same partition as the library's one-call default.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.graph.generators import composite_social_graph  # noqa: E402
from repro.partitioning import WGraph, recursive_bisection  # noqa: E402
from repro.partitioning.kway import kway_refine_balance  # noqa: E402

import pipelines  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _names(section: str) -> set[str]:
    return {m["name"] for m in SPEC[section]}


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_and_passes_checks(workload, trace,
                                                       tmp_path):
    run = pipelines.run_workload(workload, seed=3, seconds=0.0, trace=trace,
                                 work=tmp_path, sizes=pipelines.SMALLEST)
    assert run.correct and run.failed == 0 and run.attempted >= 1
    assert run.host_speed > 0
    assert set(run.metrics) == _names("per_layer" if trace else "end_to_end")
    assert all(math.isfinite(v) for v in run.metrics.values())
    if not trace:
        assert all(run.metrics[name] > 0 for name in run.metrics)
        return
    assert run.spans and all(
        set(s) == {"name", "start", "end", "parent", "run"} and s["end"]
        >= s["start"] for s in run.spans)
    partitioning = [v for k, v in run.metrics.items()
                    if k.startswith(("partitioning.",
                                     "trace.partitioning_share"))]
    if workload.endswith("-ooc"):
        assert not any(partitioning)
        assert run.metrics["graph.store_bytes"] > 0
    else:
        assert all(partitioning)
        assert run.metrics["mapreduce.shuffle_records"] > 0


def test_workload_metadata_matches_spec():
    assert list(pipelines.WORKLOADS) == WORKLOADS
    assert _names("end_to_end") >= {"setup_s"}
    assert not _names("end_to_end") & _names("per_layer")


def test_split_bisection_equals_one_call_default():
    graph = composite_social_graph(num_communities=2, community_size=512,
                                   k=8, p_r=0.05, seed=5)
    wgraph = WGraph.from_digraph(graph)
    one_call = recursive_bisection(wgraph, 8, seed=5)
    split = recursive_bisection(wgraph, 8, seed=5, kway_tolerance=None)
    split.parts[:] = kway_refine_balance(wgraph, split.parts, 8,
                                         tolerance=pipelines.KWAY_TOLERANCE)
    np.testing.assert_array_equal(split.parts, one_call.parts)


def test_self_time_subtracts_children_and_patches_are_restored():
    from repro.partitioning import bisect

    original = bisect.fm_refine
    tracer = Tracer("t")
    with tracer.patched():
        assert bisect.fm_refine is not original
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
    assert bisect.fm_refine is original
    totals, own = tracer.totals(), tracer.self_times()
    assert own["inner"] == pytest.approx(totals["inner"])
    assert own["outer"] == pytest.approx(totals["outer"] - totals["inner"])
    assert tracer.counts() == {"outer": 1, "inner": 2}
    assert tracer.covered() == pytest.approx(totals["outer"])


def test_without_program_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
