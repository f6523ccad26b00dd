"""Transfer fast path — scalar vs. vectorized microbenchmark.

Not a paper figure: this guards the array-at-a-time Transfer
implementation (docs/COST_MODEL.md, "Vectorized Transfer fast path").
It times the full Transfer stage of one NR iteration on the fig11-scale
standard workload (the 32-machine / 64-partition configuration every
figure bench shares) under both implementations, checks the iteration
products are bit-identical, and fails loudly if the fast path regresses.
"""

from __future__ import annotations

import time

from repro.apps import NetworkRankingPropagation
from repro.bench.harness import ExperimentTable
from repro.propagation.engine import PropagationEngine

#: CI floor — local runs see ~6-7x (recorded in results/); anything
#: below this means the fast path stopped being fast.
MIN_SPEEDUP = 3.0
ROUNDS = 5


def _engine(surfer, vectorized: bool) -> PropagationEngine:
    return PropagationEngine(
        surfer.pgraph, surfer.store, surfer.cluster, local_opts=True,
        assignment=surfer.assignment, vectorized=vectorized,
    )


def _one_pass(engine, surfer, app, state):
    start = time.perf_counter()
    transfers = [
        engine._run_transfer_udfs(app, state, p)
        for p in range(surfer.num_parts)
    ]
    return time.perf_counter() - start, transfers


def _stage_signature(transfers):
    return [
        (t.messages, t.cpu_ops, t.spill_bytes, t.output_bytes,
         t.locally_propagated, t.shipped, sorted(t.outbox_bytes.items()),
         t.inner_combined)
        for t in transfers
    ]


def test_transfer_fastpath(benchmark, workload, record):
    surfer = workload.surfer("bandwidth-aware")
    app = NetworkRankingPropagation()
    state = app.setup(surfer.pgraph)

    def run():
        scalar_eng = _engine(surfer, vectorized=False)
        vec_eng = _engine(surfer, vectorized=True)
        best = {"scalar": float("inf"), "vec": float("inf")}
        products = {}
        # rounds are interleaved so clock-frequency drift hits both
        # implementations alike
        for _ in range(ROUNDS):
            for key, eng in (("scalar", scalar_eng), ("vec", vec_eng)):
                elapsed, products[key] = _one_pass(eng, surfer, app, state)
                best[key] = min(best[key], elapsed)
        return ((best["scalar"], products["scalar"]),
                (best["vec"], products["vec"]))

    (scalar_s, scalar_products), (vec_s, vec_products) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = scalar_s / vec_s

    table = ExperimentTable(
        title="Transfer stage: scalar vs. vectorized (NR, fig11-scale "
              f"workload, {surfer.graph.num_edges} edges, "
              f"{surfer.num_parts} partitions)",
        columns=["stage time (ms)", "speedup"],
    )
    table.add_row("scalar (before)", [round(scalar_s * 1000, 1), 1.0])
    table.add_row("vectorized (after)",
                  [round(vec_s * 1000, 1), round(speedup, 2)])
    table.notes.append(
        "best of %d rounds; products verified bit-identical" % ROUNDS
    )
    record("transfer_fastpath", table.render())

    # identical Transfer products, per partition
    assert _stage_signature(scalar_products) == \
        _stage_signature(vec_products)
    assert speedup >= MIN_SPEEDUP
