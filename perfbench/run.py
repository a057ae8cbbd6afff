"""Benchmark of the risimage sweep chain.

Run from the repository root:

    python3 perfbench/run.py --workload desk-snr-dense --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
reports the per-layer metrics of a traced run. Either way the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the full result, with the run environment and every sample,
is written to ``perfbench/out/<workload>/result.json``. The exit code is 1
when an output check failed and 2 when the benchmark could not run.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "risimage" / "__init__.py").is_file():
        print(f"error: no risimage sources under {SRC}", file=sys.stderr)
        return 2

    # BLAS reads its thread count once, when numpy is first imported. At most
    # 2 threads, and never more than the CPUs this process may use.
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    import bench

    workload = WORKLOADS[args.workload]
    if args.trace:
        result = bench.run_traced(workload, args.seed, args.seconds)
    else:
        result = bench.run_timed(workload, args.seed, args.seconds)
    env = bench.environment(args.seed)
    print("environment: " + " ".join(f"{key}={value}" for key, value in env.items()))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} failed_frac = {failed / attempted!r} 1 ({failed} of {attempted} points)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
