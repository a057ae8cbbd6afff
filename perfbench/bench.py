"""One benchmark run of one workload: probes, warm-up, timed sweeps, checks.

Every sweep goes through the command users run, ``risimage.cli.main(["sweep",
"--plan", ...])``, in this process, with stdout captured. Each sweep's
``metrics.csv`` is checked against the workload's stored reference before the
next sweep starts; checking is never inside a timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from risimage import cli
from workloads import Workload, write_inputs

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
REFERENCE_DIR = HERE / "reference"

# Noiseless NMSE may move this much (relative) before the check fails; it
# admits a re-ordering of the floating-point algebra, not a different image.
NMSE_RTOL = 1e-6
MIN_SWEEPS = 3  # timed sweeps per run, however long they take
# Set-up time drifts with the machine's load over seconds, so its probes are
# spread over the whole run rather than taken back to back.
SETUP_PROBES = 5  # at least this many per run
SETUP_PROBE_GAP_S = 2.0
PROBE_TIMEOUT_S = 170

END_TO_END = {
    "sweep_s": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "nmse_mean": "1",
    "ok_frac": "1",
}


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _point_key(row: dict) -> tuple[str, str, str]:
    return row["I"], row["snr_db"], row["z_prime"]


def _row_ok(row: dict, ref: dict, seed: int) -> bool:
    if (row["gamma"], row["retained_rank"], row["seed"]) != (ref["gamma"], ref["retained_rank"], str(seed)):
        return False
    try:
        value = float(row["nmse"])
    except ValueError:  # empty: the point failed
        return False
    if not math.isfinite(value):
        return False
    if row["snr_db"] == "":
        return math.isclose(value, float(ref["nmse"]), rel_tol=NMSE_RTOL)
    return True  # noisy NMSE depends on how noise is keyed; only finiteness is checked


def failed_points(rows: list[dict], reference: list[dict], noise_seed: int) -> int:
    """Points of one sweep whose ``metrics.csv`` row errored or differs from the reference.

    The I, snr_db and z_prime columns identify a point and must all be
    present; gamma and retained_rank must match exactly; the seed column must
    be the plan seed plus the row index; a noiseless NMSE must match within
    ``NMSE_RTOL`` and a noisy one must be finite.
    """
    expected = {_point_key(ref): ref for ref in reference}
    if len(rows) != len(reference) or {_point_key(row) for row in rows} != expected.keys():
        return len(reference)
    return sum(
        not _row_ok(row, expected[_point_key(row)], noise_seed + index)
        for index, row in enumerate(rows)
    )


@dataclass
class Tally:
    """Points attempted and failed over every sweep of one benchmark run."""

    reference: list[dict]
    noise_seed: int
    attempted: int = 0
    failed: int = 0
    nmse: list[float] = field(default_factory=list)

    def check(self, code: int, run_dir: Path) -> None:
        self.attempted += len(self.reference)
        if code != 0:
            self.failed += len(self.reference)
            return
        rows = read_rows(run_dir / "metrics.csv")
        self.failed += failed_points(rows, self.reference, self.noise_seed)
        self.nmse = [float(row["nmse"]) for row in rows if row["nmse"]]


def sweep(plan: Path) -> tuple[int, float]:
    """One ``risimage sweep --plan`` call; returns its exit code and wall time."""
    argv = ["sweep", "--plan", str(plan)]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, elapsed


def probe(mode: str, plan: Path) -> list[float]:
    """Run ``probe.py`` in a fresh interpreter and return the numbers it prints."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), mode, str(plan)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{mode} probe failed:\n{done.stderr}")
    return [float(value) for value in done.stdout.split()]


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "seed": seed,
    }


@dataclass
class Run:
    """The generated inputs and output directories of one benchmark run."""

    workload: Workload
    base: Path
    plan: Path
    probe_plan: Path
    tally: Tally

    @property
    def run_dir(self) -> Path:
        return self.base / "run"

    @property
    def probe_run_dir(self) -> Path:
        return self.base / "probe" / "run"


def prepare(workload: Workload, seed: int) -> Run:
    """Empty the workload's output directory and generate this seed's inputs."""
    base = OUT_DIR / workload.name
    shutil.rmtree(base, ignore_errors=True)
    plan, noise_seed = write_inputs(workload, seed, base / "inputs", base / "run")
    probe_plan, _ = write_inputs(workload, seed, base / "probe", base / "probe" / "run")
    reference = read_rows(REFERENCE_DIR / f"{workload.name}.csv")
    return Run(workload, base, plan, probe_plan, Tally(reference, noise_seed))


def _summary(run: Run, metrics: dict, units: dict, extra: dict) -> dict:
    tally = run.tally
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (run.base / "result.json").write_text(json.dumps({**result, **extra}, indent=1) + "\n")
    return result


def run_timed(workload: Workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one workload, with tracing off."""
    run = prepare(workload, seed)
    code, peak_rss_mb = probe("rss", run.probe_plan)
    run.tally.check(int(code), run.probe_run_dir)

    run.tally.check(sweep(run.plan)[0], run.run_dir)  # warm-up, untimed
    times, setup = [], []
    next_probe = 0.0
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_SWEEPS or time.perf_counter() < deadline:
        code, elapsed = sweep(run.plan)
        run.tally.check(code, run.run_dir)
        times.append(elapsed)
        if time.perf_counter() >= next_probe:
            setup.append(probe("setup", run.probe_plan)[0])
            next_probe = time.perf_counter() + SETUP_PROBE_GAP_S
    while len(setup) < SETUP_PROBES:
        setup.append(probe("setup", run.probe_plan)[0])

    tally = run.tally
    ok_frac = (tally.attempted - tally.failed) / tally.attempted
    sweep_s = statistics.median(times)
    metrics = {
        "sweep_s": sweep_s,
        "points_per_s": workload.points * ok_frac / sweep_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "nmse_mean": statistics.fmean(tally.nmse) if tally.nmse else math.nan,
        "ok_frac": ok_frac,
    }
    extra = {
        "failed_frac": 1.0 - ok_frac,
        "environment": environment(seed),
        "samples": {"sweep_s": times, "setup_s": setup},
    }
    return _summary(run, metrics, END_TO_END, extra)


def run_traced(workload: Workload, seed: int, seconds: float) -> dict:
    """Per-layer metrics of one workload from alternating untraced and traced sweeps.

    Each per-layer value is the median over the traced sweeps;
    ``trace.overhead_s`` is the median traced sweep time minus the median
    untraced one. All spans are written to ``spans.json`` at the end.
    """
    run = prepare(workload, seed)
    run.tally.check(sweep(run.plan)[0], run.run_dir)  # warm-up, untimed
    plain, timed, layers, spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(timed) < MIN_SWEEPS or time.perf_counter() < deadline:
        code, elapsed = sweep(run.plan)
        run.tally.check(code, run.run_dir)
        plain.append(elapsed)
        with tracing.traced(tracing.Tracer()) as tracer:
            code, elapsed = sweep(run.plan)
        run.tally.check(code, run.run_dir)
        timed.append(elapsed)
        layers.append(tracing.layer_metrics(tracer.spans, workload.points, run.run_dir))
        spans.append([vars(span) for span in tracer.spans])

    metrics = {name: statistics.median(one[name] for one in layers) for name in tracing.PER_LAYER}
    metrics["trace.overhead_s"] = statistics.median(timed) - statistics.median(plain)
    units = {**tracing.PER_LAYER, "trace.overhead_s": "s"}
    (run.base / "spans.json").write_text(json.dumps(spans) + "\n")
    extra = {
        "environment": environment(seed),
        "samples": {"untraced_sweep_s": plain, "traced_sweep_s": timed},
    }
    return _summary(run, metrics, units, extra)
