"""Benchmark entry point.

    python3 perfbench/run.py --workload train_moe --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  ``--trace 0`` prints every end-to-end metric, ``--trace 1``
every per-layer metric; the last line of standard output is the result
object.  The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

# Set before NumPy loads: unpinned BLAS threads make step times unsteady.
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}
ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train_moe", "serve_bursty", "dist_adaptive")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run "
              "from the root of a source checkout", file=sys.stderr)
        return 2
    os.environ.update(PINS)
    # Serial expert executor, no run registry, default substrate dtype.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import harness
    from perfbench.workloads import WORKLOADS
    harness.load_program()
    import_s = time.perf_counter() - T_START

    wl = WORKLOADS[args.workload]()
    if args.trace:
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        report = harness.run_traced(
            wl, args.seed, args.seconds,
            spans_path=out_dir / f"spans_{wl.name}_seed{args.seed}.jsonl")
    else:
        # Imports happen once per process: time two more fresh ones.
        import_s = statistics.median(
            [import_s] + harness.import_seconds(2))
        report = harness.run_untraced(wl, args.seed, args.seconds,
                                      import_s=import_s)
    report.info.update(workload=wl.name, trace=args.trace,
                       env=harness.environment(args.seed, PINS))
    print("perfbench " + json.dumps(report.info))
    for error in report.errors[:10]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    kind = "per_layer" if args.trace else "end_to_end"
    print(report.result_json(harness.declared_metrics(kind)))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
