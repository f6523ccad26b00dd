"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload social-pipeline --seed 1 \\
        --seconds 36 --trace 0

The program under test is imported from ``src/`` of the checkout that
holds this file; without it the script exits with status 2 and prints no
result.  ``--trace 0`` prints the end-to-end metrics named in
``BENCHMARK.json``, ``--trace 1`` the per-layer ones and writes the
run's spans to ``.perfbench_work/traces/``.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One process runs one job at a time: pin native thread pools before
# numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def _report(run, name: str, unit: str) -> float:
    """A wall time (unit ``s``) at the reference host speed; any other
    metric as measured."""
    value = run.metrics[name]
    return value * run.host_speed if unit == "s" else value


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != src:
        print(f"perfbench: repro resolved outside {src}", file=sys.stderr)
        return 2

    from pipelines import run_workload

    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), WORK)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(run.metrics):
        print("perfbench: emitted metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(run.metrics))}", file=sys.stderr)
        return 3
    if args.trace:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(run.spans))
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": _report(run, name, units[name]),
                           "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
