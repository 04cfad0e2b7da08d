"""Run one blackedge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload edgecount_n20 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the benchmark imports the package from
``src/`` there.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  Exits non-zero without a result
when the sources are missing.
"""

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blackedge" / "__init__.py").is_file():
        print(f"perfbench: no blackedge package under {SRC}", file=sys.stderr)
        return 2
    # eigh and the matmuls sit on the hot path; one thread keeps runs comparable
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import measure  # imports numpy and blackedge

    info = measure.host_info(args.seed)
    print(f"# workload={args.workload} trace={args.trace} seconds={args.seconds:g} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    if args.trace:
        attempted, failed, metrics, notes = measure.run_traced(args.workload, args.seed)
    else:
        attempted, failed, metrics, notes = measure.run_untraced(
            args.workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    for name, (value, unit) in notes.items():
        print(f"# {name} = {value:g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
