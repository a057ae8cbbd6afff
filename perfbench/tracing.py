"""Spans around the public calls of each risimage layer, from outside the package.

``traced(tracer)`` replaces each function in ``TARGETS`` with a wrapper that
records a span (name, start, end, parent) and a few counts taken from the
call's arguments or result, and puts every original back on exit. Where a
module imports a function by name (``runner.sample_grids``), the name in the
importing module is the one replaced, because that is the one it calls.

``layer_metrics`` turns the spans of one sweep into per-layer numbers. A
layer's busy time is the self time of its spans: their duration minus the
part covered by child spans, so busy times never count a nested call twice.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from risimage import (
    cli,
    em_core,
    mask_design,
    measurement,
    reconstruct,
    ris_synthesis,
    runner,
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps the spans of one traced run in memory, in start order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(
                id=len(self.spans),
                name=name,
                parent=self._open[-1] if self._open else None,
                start=time.perf_counter(),
            )
            self.spans.append(span)
            self._open.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        return wrapper


def _file_bytes(args, _result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, counts taken after the call)
TARGETS = [
    (cli, "main", "cli.main", None),
    (cli, "run_plan", "runner.run_plan", None),
    (runner, "validate_scene", "scene.validate_scene", None),
    (runner, "sample_grids", "scene.sample_grids", None),
    (runner, "resolve_target", "targets.resolve_target", None),
    (runner, "write_grid_image", "targets.write_grid_image", None),
    (em_core, "assemble_kernel", "em_core.assemble_kernel", lambda a, r: {"entries": r.entries.size}),
    (em_core, "psf_vector", "em_core.psf_vector", None),
    (measurement, "psf_vector", "em_core.psf_vector", None),
    (em_core, "load_kernel", "em_core.load_kernel", None),
    (em_core, "save_kernel", "em_core.save_kernel", _file_bytes),
    (mask_design, "ideal_masks", "mask_design.ideal_masks", None),
    (mask_design, "save_mask_vectors", "mask_design.save_mask_vectors", _file_bytes),
    (ris_synthesis, "tikhonov_inverse", "ris_synthesis.tikhonov_inverse", lambda a, r: {"rank": r.retained_rank}),
    (ris_synthesis, "realize_masks", "ris_synthesis.realize_masks", lambda a, r: {"masks": r.count}),
    (ris_synthesis, "save_profiles", "ris_synthesis.save_profiles", _file_bytes),
    (ris_synthesis, "write_synthesis_summary", "ris_synthesis.write_synthesis_summary", _file_bytes),
    (measurement, "measure", "measurement.measure", lambda a, r: {"records": len(r)}),
    (reconstruct, "reconstruct_2d", "reconstruct.reconstruct_2d", lambda a, r: {"flagged": int(r.flagged.sum())}),
    (reconstruct, "reconstruct_3d", "reconstruct.reconstruct_3d", lambda a, r: {"flagged": int(r.flagged.sum())}),
    (reconstruct, "calibrate_estimate", "reconstruct.calibrate_estimate", None),
    (reconstruct, "nmse", "reconstruct.nmse", None),
]


@contextmanager
def traced(tracer: Tracer):
    """Install a wrapper for every target; restore the originals on exit."""
    originals = []
    try:
        for module, attr, name, count in TARGETS:
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


# Layer -> span names whose self time is the layer's busy time.
LAYERS = {
    "scene": ("scene.validate_scene", "scene.sample_grids"),
    "em_core.kernel": ("em_core.assemble_kernel",),
    "em_core.psf": ("em_core.psf_vector",),
    "mask_design": ("mask_design.ideal_masks",),
    "ris_synthesis.svd": ("ris_synthesis.tikhonov_inverse",),
    "ris_synthesis.realize": ("ris_synthesis.realize_masks",),
    "measurement": ("measurement.measure",),
    "reconstruct": (
        "reconstruct.reconstruct_2d",
        "reconstruct.reconstruct_3d",
        "reconstruct.calibrate_estimate",
        "reconstruct.nmse",
    ),
}


# Per-layer metric -> unit, in report order.
PER_LAYER = {
    "scene.calls": "count",
    "scene.busy_s": "s",
    "em_core.kernel.calls": "count",
    "em_core.kernel.busy_s": "s",
    "em_core.kernel.entries": "count",
    "em_core.kernel.entries_per_s": "1/s",
    "em_core.psf.busy_s": "s",
    "em_core.kernel_cache.loads": "count",
    "em_core.kernel_cache.load_s": "s",
    "em_core.kernel_cache.save_s": "s",
    "mask_design.calls": "count",
    "mask_design.busy_s": "s",
    "mask_design.save_s": "s",
    "mask_design.save_bytes": "B",
    "ris_synthesis.svd.calls": "count",
    "ris_synthesis.svd.busy_s": "s",
    "ris_synthesis.retained_rank": "count",
    "ris_synthesis.realize.calls": "count",
    "ris_synthesis.realize.masks": "count",
    "ris_synthesis.realize.busy_s": "s",
    "ris_synthesis.save_s": "s",
    "ris_synthesis.save_bytes": "B",
    "measurement.calls": "count",
    "measurement.records": "count",
    "measurement.busy_s": "s",
    "measurement.records_per_s": "1/s",
    "reconstruct.calls": "count",
    "reconstruct.busy_s": "s",
    "reconstruct.flagged_pixels": "count",
    "targets.resolve_s": "s",
    "targets.image_writes": "count",
    "targets.image_write_s": "s",
    "runner.self_s": "s",
    "runner.cache.kernel_builds": "count",
    "runner.cache.inverse_builds": "count",
    "runner.cache.reuse_ratio": "1",
    "runner.artifact_bytes": "B",
    "cli.parse_s": "s",
}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], points: int, run_dir: Path) -> dict[str, float]:
    """Per-layer counts and times of one traced sweep, keyed as ``PER_LAYER``.

    ``points`` is the sweep's point count and ``run_dir`` its output
    directory, whose total size after the sweep is ``runner.artifact_bytes``.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    totals: dict[str, float] = {}
    for span, self_s in zip(spans, own):
        calls[span.name] = calls.get(span.name, 0) + 1
        busy[span.name] = busy.get(span.name, 0.0) + self_s
        for key, value in span.counts.items():
            totals[f"{span.name}:{key}"] = totals.get(f"{span.name}:{key}", 0) + value

    def n(*names):
        return sum(calls.get(name, 0) for name in names)

    def s(*names):
        return sum(busy.get(name, 0.0) for name in names)

    def t(key):
        return totals.get(key, 0)

    out: dict[str, float] = {}
    for layer, names in LAYERS.items():
        out[f"{layer}.calls"] = n(*names)
        out[f"{layer}.busy_s"] = s(*names)
    out["em_core.kernel.entries"] = t("em_core.assemble_kernel:entries")
    out["em_core.kernel.entries_per_s"] = _rate(out["em_core.kernel.entries"], out["em_core.kernel.busy_s"])
    out["em_core.kernel_cache.loads"] = n("em_core.load_kernel")
    out["em_core.kernel_cache.load_s"] = s("em_core.load_kernel")
    out["em_core.kernel_cache.save_s"] = s("em_core.save_kernel")
    out["mask_design.save_s"] = s("mask_design.save_mask_vectors")
    out["mask_design.save_bytes"] = t("mask_design.save_mask_vectors:bytes")
    inverses = n("ris_synthesis.tikhonov_inverse")
    out["ris_synthesis.retained_rank"] = t("ris_synthesis.tikhonov_inverse:rank") / inverses if inverses else 0.0
    out["ris_synthesis.realize.masks"] = t("ris_synthesis.realize_masks:masks")
    out["ris_synthesis.save_s"] = s("ris_synthesis.save_profiles", "ris_synthesis.write_synthesis_summary")
    out["ris_synthesis.save_bytes"] = t("ris_synthesis.save_profiles:bytes") + t(
        "ris_synthesis.write_synthesis_summary:bytes"
    )
    out["measurement.records"] = t("measurement.measure:records")
    out["measurement.records_per_s"] = _rate(out["measurement.records"], out["measurement.busy_s"])
    out["reconstruct.flagged_pixels"] = t("reconstruct.reconstruct_2d:flagged") + t(
        "reconstruct.reconstruct_3d:flagged"
    )
    out["targets.resolve_s"] = s("targets.resolve_target")
    out["targets.image_writes"] = n("targets.write_grid_image")
    out["targets.image_write_s"] = s("targets.write_grid_image")
    out["runner.self_s"] = s("runner.run_plan")
    out["runner.cache.kernel_builds"] = n("em_core.assemble_kernel")
    out["runner.cache.inverse_builds"] = inverses
    out["runner.cache.reuse_ratio"] = points / inverses if inverses else 0.0
    out["runner.artifact_bytes"] = _dir_bytes(run_dir)
    main = [span for span in spans if span.name == "cli.main"]
    plans = [span for span in spans if span.name == "runner.run_plan"]
    out["cli.parse_s"] = sum(span.duration for span in main) - sum(span.duration for span in plans)
    return {name: out[name] for name in PER_LAYER}
