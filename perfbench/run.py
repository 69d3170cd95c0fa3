"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload gft_cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's own ``src/``; without it the command fails before measuring.
``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json`` (what
each means on each workload is in ``plan.json``), ``--trace 1`` every
per-layer metric, from a separate traced run.
Progress and notes go to stderr; the last stdout line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def _pin_blas_threads() -> None:
    """One BLAS thread per process: with at most ``nproc`` busy processes
    (the pool's two workers, or daemon plus generator), processes x
    threads never exceeds the cores.  Must run before numpy is imported."""
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = "1"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}/repro", file=sys.stderr)
        return 2
    _pin_blas_threads()
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    import repro  # noqa: E402

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    import workloads as runners  # noqa: E402

    plan = json.loads((HERE / "plan.json").read_text())
    plan["per_layer_names"] = [m["name"] for m in spec["per_layer"]]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    outcome = runners.RUNNERS[args.workload](
        plan, args.seed, args.seconds, bool(args.trace)
    )
    for note in outcome.notes:
        print(f"[{args.workload} seed={args.seed}] {note}", file=sys.stderr)
    names = {m["name"] for m in declared}
    if set(outcome.metrics) != names:
        missing = sorted(names - set(outcome.metrics))
        extra = sorted(set(outcome.metrics) - names)
        print(f"error: metrics missing {missing}, extra {extra}", file=sys.stderr)
        return 3
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
