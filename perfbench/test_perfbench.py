"""Tests of the benchmark's tracing and output check.

    python3 -m pytest perfbench
"""

import copy

import pytest

import bench
import tracing
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def traced_sweeps():
    """One traced sweep of every workload at seed 0: {name: (run, tracer)}."""
    sweeps = {}
    for name, workload in WORKLOADS.items():
        run = bench.prepare(workload, 0)
        with tracing.traced(tracing.Tracer()) as tracer:
            code, _ = bench.sweep(run.plan)
        run.tally.check(code, run.run_dir)
        sweeps[name] = (run, tracer)
    return sweeps


def test_tracing_restores_every_wrapped_function():
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in tracing.TARGETS]
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert all(getattr(module, attr) is not fn for module, attr, fn in originals)
            raise RuntimeError("leave the traced block early")
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_span_nests_under_cli_main(traced_sweeps, name):
    run, tracer = traced_sweeps[name]
    assert run.tally.failed == 0
    spans = tracer.spans
    assert [span.name for span in spans if span.parent is None] == ["cli.main"]
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    assert sum(tracing.self_times(spans)) == pytest.approx(spans[0].duration, abs=1e-9)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_runner_self_time_is_not_negative(traced_sweeps, name):
    run, tracer = traced_sweeps[name]
    metrics = tracing.layer_metrics(tracer.spans, run.workload.points, run.run_dir)
    assert metrics.keys() == tracing.PER_LAYER.keys()
    assert metrics["runner.self_s"] >= 0.0


def test_output_check_counts_each_differing_point():
    reference = bench.read_rows(bench.REFERENCE_DIR / "desk-snr-dense.csv")
    seed = 11
    rows = copy.deepcopy(reference)
    for index, row in enumerate(rows):
        row["seed"] = str(seed + index)
    assert bench.failed_points(rows, reference, seed) == 0

    noiseless = next(row for row in rows if row["snr_db"] == "")
    noiseless["nmse"] = repr(float(noiseless["nmse"]) * (1 + 10 * bench.NMSE_RTOL))
    noisy = next(row for row in rows if row["snr_db"] != "")
    noisy["retained_rank"] = "1"
    assert bench.failed_points(rows, reference, seed) == 2
    assert bench.failed_points(rows, reference, seed + 1) == len(reference)
    assert bench.failed_points(rows[:-1], reference, seed) == len(reference)
