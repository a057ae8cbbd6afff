"""Regenerate the stored reference ``metrics.csv`` of every workload.

    python3 perfbench/make_reference.py

Run it only when a change to the program is meant to change its output, and
say why in the change. The check in ``bench.py`` is independent of the
workload seed, so one sweep with any seed gives the reference.
"""

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402


def main() -> None:
    bench.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        base = bench.OUT_DIR / workload.name
        shutil.rmtree(base, ignore_errors=True)
        plan, _ = write_inputs(workload, 0, base / "inputs", base / "run")
        code, _ = bench.sweep(plan)
        if code != 0:
            raise SystemExit(f"{workload.name}: sweep exited with {code}")
        shutil.copyfile(base / "run" / "metrics.csv", bench.REFERENCE_DIR / f"{workload.name}.csv")
        print(f"{workload.name}: reference written")


if __name__ == "__main__":
    main()
