"""Experiment orchestration: plans, sweeps, and run-directory output.

A plan expands into the Cartesian product of target distances, measurement
counts, and SNR settings, run in that nesting order, one call of
``_run_distance`` per distance: a distance builds its kernel and regularized
inverse once, its mask counts share one mask set, each count taking its
first rows and computing its own moments from them, and the SNR points,
which differ only in noise, reuse them and are reconstructed together, as
one stack of their measurements.
Everything derived from the plan seed is deterministic: re-running a plan
reproduces the metrics CSV byte for byte (wall-clock timings therefore live
in a separate file).
"""

from __future__ import annotations

import csv
import os
import time
from collections.abc import Callable, Iterable
from contextlib import ExitStack
from dataclasses import dataclass, fields
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import em_core, mask_design, measurement, reconstruct, ris_synthesis
from .errors import ImagingError, MalformedConfig, ZeroSolution
from .mask_design import MaskSet
from .measurement import TargetModel
from .scene import (
    SampleGrids,
    SceneConfig,
    ValidatedScene,
    check_scene_dimensions,
    check_target_distance,
    load_scene_config,
    parse_key_values,
    read_config_text,
    read_fields,
    sample_grids,
    validate_scene,
    with_target_distance,
)
from .targets import check_target_spec, resolve_target, write_grid_image

METRICS_FIELDS = ["I", "snr_db", "z_prime", "gamma", "nmse", "retained_rank", "seed"]
TIMINGS_FIELDS = ["I", "snr_db", "z_prime", "wall_ms"]

# Allowed values of the plan's mode options.
PLAN_MODES = {
    "calibration": (reconstruct.CALIBRATE_NONE, reconstruct.CALIBRATE_MAX1, reconstruct.CALIBRATE_LSQ),
    "noise_mode": (measurement.NOISE_RELATIVE, measurement.NOISE_ABSOLUTE),
    "phase_mode": (mask_design.PHASE_TAYLOR, mask_design.PHASE_EXACT),
    "truncation_mode": (ris_synthesis.TRUNCATE_SIGMA_SQ, ris_synthesis.TRUNCATE_SIGMA),
}


def default_gamma(z_prime: float) -> float:
    """Regularization weight per target distance; distances outside the studied
    2..8 m band clamp to the nearest band (scaled desk geometries land below it)."""
    if z_prime <= 3.0:
        return 1e-12
    if z_prime <= 5.0:
        return 1e-14
    return 1e-15


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything one sweep needs: scene, target source, axes, and options; a
    plan file sets each field by its declared type (``scene.read_fields``)."""

    scene: SceneConfig
    target: str = "block"
    i_values: tuple[int, ...] = (256,)
    snr_values: tuple[float | None, ...] = (None,)
    z_values: tuple[float, ...] = ()  # empty: keep the scene's target distance
    gamma: float | None = None  # None: default per target distance
    threshold_factor: float = ris_synthesis.DEFAULT_THRESHOLD_FACTOR
    truncation_mode: str = ris_synthesis.TRUNCATE_SIGMA_SQ
    seed: int = 0
    output_dir: str = "runs/out"
    calibration: str = reconstruct.CALIBRATE_MAX1
    noise_mode: str = measurement.NOISE_RELATIVE
    phase_mode: str = mask_design.PHASE_TAYLOR
    ideal_masks: bool = False
    keep_artifacts: bool = False
    n0_dbm_per_hz: float = measurement.DEFAULT_N0_DBM_PER_HZ
    bandwidth_hz: float = measurement.DEFAULT_BANDWIDTH_HZ

    def resolved_z_values(self) -> tuple[float, ...]:
        return self.z_values if self.z_values else (self.scene.target_distance,)

    def validate(self, synthesis: bool | None = None) -> None:
        """Reject every bad plan value before anything runs. Without
        ``z_values`` the scene is validated whole at its own distance; with
        them, the bounds that depend on the target distance are checked per
        point, so a swept distance outside them fails only its own points.
        ``synthesis`` says whether masks are to be realized, by default
        unless ``ideal_masks``: a target too small to realize any design
        (``mask_design.check_realizable``) is then rejected too."""
        if self.z_values:
            check_scene_dimensions(self.scene)
            for z_prime in self.z_values:
                check_target_distance(z_prime)
        else:
            validate_scene(self.scene)
        if not self.i_values:
            raise MalformedConfig("i_values must be nonempty")
        # the sample count does not depend on z', so ideal_masks would apply
        # this same rule at every point
        for count in self.i_values:
            mask_design.check_measurement_count(count, self.scene.n_target)
        if synthesis is None:
            synthesis = not self.ideal_masks
        if synthesis:
            mask_design.check_realizable(self.scene.n_target)
        if self.keep_artifacts:
            self.check_exports(synthesis)
        if not self.snr_values:
            raise MalformedConfig("snr_values must be nonempty")
        # every sweep point draws its noise from its own stream, seed + index
        n_points = len(self.resolved_z_values()) * len(self.i_values) * len(self.snr_values)
        measurement.check_seed(self.seed, streams=n_points)
        for snr_db in self.snr_values:
            measurement.check_snr(snr_db)
        measurement.check_noise_settings(self.n0_dbm_per_hz, self.bandwidth_hz)
        ris_synthesis.check_threshold_factor(self.threshold_factor)
        check_target_spec(self.target)
        if self.gamma is not None:
            ris_synthesis.check_gamma(self.gamma)
        for key, allowed in PLAN_MODES.items():
            if getattr(self, key) not in allowed:
                raise MalformedConfig(f"{key} must be one of {allowed}, got {getattr(self, key)!r}")


    def check_exports(self, synthesis: bool) -> None:
        """Reject mask counts whose exports would each hold more than
        ``em_core.ENTRY_CAP`` entries (``mask_design.check_export_size``):
        the ideal and realized masks, count x M, and with ``synthesis`` the
        coefficient profiles, count x N."""
        n_ris = self.scene.n_ris_x * self.scene.n_ris_y
        widths = (self.scene.n_target, n_ris) if synthesis else (self.scene.n_target,)
        for count in self.i_values:
            for width in widths:
                mask_design.check_export_size(count, width)


@dataclass
class PointResult:
    """Outcome of one sweep point, in plan order."""

    index: int
    z_prime: float
    n_measurements: int
    snr_db: float | None
    gamma: float
    seed: int
    nmse: float | None = None
    retained_rank: int | None = None
    wall_ms: float = 0.0
    error: str | None = None


@dataclass
class RunResult:
    run_dir: Path
    points: list[PointResult]
    kernel_builds: int


def _run_distance(plan: ExperimentPlan, points: list[PointResult], result: RunResult, lap: Callable[[], float]) -> None:
    """Run the ``points`` of one distance, in plan order.

    The distance's scene, grids and target are built once, and its kernel
    and regularized inverse once, when its masks first need them: the
    inverse is decomposed from the stream of the kernel's rows as they are
    assembled, so the kernel never exists whole. Under ``keep_artifacts``
    every count's exports read one realization pass
    (:func:`export_synthesis`), which needs the inverse's sector blocks;
    otherwise the inverse drops them once it is built, since realizing
    masks reads only its target-side factors.

    A design's rows repeat (``mask_design.distinct_row_count``), so the mask
    counts share one mask set, built for the largest of them
    (:func:`build_mask_set`), whose noiseless receiver fields are computed
    once for every SNR point, a realized set's in its realization pass.
    Each count's set is its first rows (``MaskSet.first``), which computes
    its own moments, and its fields their prefix. A realization that fails
    with :class:`ZeroSolution` at mask r fails only the counts above r: the
    largest count up to r is built alone for the rest.

    The points of one count are measured from their own noise streams into
    the rows of one stack (:func:`measure_points`), which is reconstructed,
    calibrated and scored in one pass (:func:`score`), each row with the
    bits of its point scored alone; then each point's estimate images are
    written. An error of a build fails every point that needs it, an error
    of the measurement, the reconstruction or the calibration every point
    of its count, and an NMSE that is not a finite number its own point.
    A count's first point books in its ``wall_ms`` the builds before it and
    its count's measure and score (``lap()`` gives the milliseconds since
    its last call), and each point its own images.
    """

    def fail(failed: list[PointResult], exc: ImagingError) -> None:
        for point in failed:
            point.error = f"{type(exc).__name__}: {exc}"

    try:
        scene = validate_scene(with_target_distance(plan.scene, points[0].z_prime))
        grids = sample_grids(scene)
        target = resolve_target(plan.target, scene)
    except ImagingError as exc:
        points[0].wall_ms += lap()
        fail(points, exc)
        return
    artifact_dir = result.run_dir / "artifacts" if plan.keep_artifacts else None
    inv = None

    def inverse() -> ris_synthesis.RegularizedInverse:
        nonlocal inv
        if inv is None:
            result.kernel_builds += 1
            inv = regularized_inverse(plan, scene, grids, points[0].gamma)
            if artifact_dir is None:  # no profile maps back to the aperture
                inv = inv.without_blocks()
        return inv

    groups = [(count, list(group)) for count, group in groupby(points, key=attrgetter("n_measurements"))]
    counts = list(dict.fromkeys(count for count, _ in groups))
    mask_set, largest = None, max(counts)
    while mask_set is None and largest:
        built = [count for count in counts if count <= largest]
        try:
            mask_set, fields = build_mask_set(plan, scene, grids, target, built, inverse, artifact_dir)
        except ZeroSolution as exc:  # the masks before exc.mask are realizable
            error, largest = exc, max((count for count in counts if count <= exc.mask), default=0)
        except ImagingError as exc:
            error, largest = exc, 0
    for count, group in groups:
        try:
            if count > largest:
                raise error
            masks = mask_set.first(count)
            meas = measure_points(plan, group, fields[:count], masks.kind)
            estimates, errors = score(scene, grids, meas, masks, plan.calibration, target.values)
        except ImagingError as exc:
            fail(group, exc)
            continue
        finally:
            group[0].wall_ms += lap()
        for point, estimate, nmse in zip(group, estimates, errors.tolist()):
            try:
                point.nmse = reconstruct.finite_score(nmse)
            except ImagingError as exc:
                fail([point], exc)
            else:
                point.retained_rank = inv.retained_rank if inv is not None else None
                write_estimate_images(result.run_dir / f"estimate_{point.index:03d}.pgm", estimate, target.grid_shape)
            point.wall_ms += lap()


def regularized_inverse(
    plan: ExperimentPlan, scene: ValidatedScene, grids: SampleGrids, gamma: float
) -> ris_synthesis.RegularizedInverse:
    """The regularized inverse at weight ``gamma`` of the scene's kernel,
    decomposed from the stream of its rows as they are assembled, so the
    kernel never exists whole; the inverse holds its sector blocks, not the
    kernel or its rows."""
    kernel = em_core.kernel_stream(scene, grids)
    return ris_synthesis.tikhonov_inverse(kernel, gamma, plan.threshold_factor, plan.truncation_mode)


def build_mask_set(
    plan: ExperimentPlan,
    scene: ValidatedScene,
    grids: SampleGrids,
    target: TargetModel,
    counts: list[int],
    inverse: Callable[[], ris_synthesis.RegularizedInverse],
    artifact_dir: Path | None,
) -> tuple[MaskSet, np.ndarray]:
    """The set of masks that points measure, sized for the largest of
    ``counts``, and its noiseless receiver fields: the designed set under
    ``ideal_masks``, or the set that ``inverse()`` realizes from it, with the
    fields taken in the realization pass. With an ``artifact_dir``, each
    count's designed set is exported there, and its realized one by
    :func:`export_synthesis`, from the same pass."""
    fp = scene.fingerprint
    ideal = mask_design.ideal_masks(scene, grids, max(counts), plan.phase_mode)
    exports = [(count, f"_{fp[:16]}_I{count}") for count in counts]
    if artifact_dir is not None:
        for count, suffix in exports:
            mask_design.save_mask_vectors(artifact_dir / f"masks_ideal{suffix}.bin", ideal.first(count), fp)
    if plan.ideal_masks:
        return ideal, measurement.noiseless_fields(scene, grids, ideal, target)
    inv = inverse()
    receiver = measurement.ReceiverFields(scene, grids, ideal, target)
    amplification = scene.config.amplification
    if artifact_dir is None:
        masks = ris_synthesis.realize_masks(inv, ideal, amplification, [receiver.add])
    else:
        masks = export_synthesis(artifact_dir, exports, fp, inv, ideal, amplification, [receiver.add])
    return masks, receiver.fields()


def _leading(kept: int, reader: ris_synthesis.Reader) -> ris_synthesis.Reader:
    """``reader`` of a realization pass that takes only the pass's first ``kept`` rows."""

    def read(rows: slice, block: np.ndarray, scales: np.ndarray, c: np.ndarray) -> None:
        taken = min(rows.stop, kept) - rows.start
        if taken > 0:
            reader(slice(rows.start, rows.start + taken), block[:taken], scales[:taken], c[:taken])

    return read


def export_synthesis(
    directory: Path,
    exports: Iterable[tuple[int, str]],
    fp: str,
    inv,
    ideal: MaskSet,
    amplification: float,
    readers: Iterable = (),
) -> MaskSet:
    """Realize ``ideal`` in one pass and write, for each ``(count, suffix)``
    of ``exports``, the realized masks, coefficient profiles and synthesis
    summary of its first ``count`` masks to ``directory``, each file stem
    ending in ``suffix``. The masks, the profiles and the summary's misfit
    are readers of the realization pass, beside ``readers``; a count's
    writers read its distinct rows, the first
    ``ideal.first(count).distinct_rows`` of the pass, which its files
    repeat, each row at its own offset. A count's mask writer scales each
    block onto the power budget into one buffer of the pass's block size,
    and every count's profiles are mapped through the one set of aperture
    factors of the pass. Returns the realized set."""
    misfit = ris_synthesis.RealizedMisfit(ideal)
    exports = [(count, suffix, ideal.first(count).distinct_rows) for count, suffix in exports]
    distinct, points = ideal.distinct_rows, ideal.points
    scaled = np.empty((min(em_core.block_rows(points, distinct * points), distinct), points), dtype=np.complex128)

    def mask_writer(write) -> ris_synthesis.Reader:
        def add(rows: slice, block: np.ndarray, scales: np.ndarray, _c: np.ndarray) -> None:
            with em_core.small_ufunc_buffers():
                write(np.multiply(block, scales[:, None], out=scaled[: len(block)]), rows.start)

        return add

    readers = [*readers, misfit.add]
    factors = ris_synthesis.aperture_factors(inv)
    with ExitStack() as files:
        for count, suffix, period in exports:
            masks_path, profiles_path = (directory / f"{stem}{suffix}.bin" for stem in ("masks_realized", "profiles"))
            write = files.enter_context(
                mask_design.mask_file_writer(masks_path, ideal.kind, (count, ideal.points), fp, period)
            )
            profiles = files.enter_context(
                ris_synthesis.profile_writer(profiles_path, inv, count, fp, period, factors)
            )
            readers += [_leading(period, mask_writer(write)), _leading(period, profiles)]
        realized = ris_synthesis.realize_masks(inv, ideal, amplification, readers)
    for count, suffix, period in exports:
        summary = directory / f"synthesis{suffix}.txt"
        ris_synthesis.write_synthesis_summary(summary, inv, realized.first(count), misfit.values[:period])
    return realized


def measure_points(
    plan: ExperimentPlan, points: list[PointResult], fields: np.ndarray, mask_kind: str
) -> measurement.Measurements:
    """The measurement sets of ``points`` as one stack, a row per point from
    its own SNR and noise stream, all taken from the noiseless receiver
    ``fields`` of one set of ``mask_kind`` masks under the plan's noise
    settings (``measurement.measure``)."""
    return measurement.measure(
        fields,
        mask_kind,
        [point.snr_db for point in points],
        [point.seed for point in points],
        noise_mode=plan.noise_mode,
        n0_dbm_per_hz=plan.n0_dbm_per_hz,
        bandwidth_hz=plan.bandwidth_hz,
    )


def score(
    scene: ValidatedScene, grids: SampleGrids, meas, masks: MaskSet, calibration: str, truth: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct the stack of measurement sets ``meas``
    (``measurement.measure``) by the scene's kind, a plane through its PSF
    (``em_core.psf_vector``), remove the cell measure, calibrate against
    ``truth`` and return the calibrated estimates and their NMSEs, a row and
    an NMSE per set (``reconstruct.nmse``)."""
    if scene.is_3d:
        result = reconstruct.reconstruct_3d(scene, meas, masks)
    else:
        result = reconstruct.reconstruct_2d(meas, masks, em_core.psf_vector(scene, grids.target_points))
    # Remove the known physical cell measure before any calibration.
    estimates = reconstruct.calibrate_estimate(result.estimate / grids.target_cell_measure, calibration, truth)
    return estimates, reconstruct.nmse(truth, estimates)


def _stopwatch() -> Callable[[], float]:
    """A lap timer: each call returns the milliseconds since the one before
    (or since the timer was made)."""
    last = time.perf_counter()

    def lap() -> float:
        nonlocal last
        now = time.perf_counter()
        elapsed, last = (now - last) * 1000.0, now
        return elapsed

    return lap


def plan_points(plan: ExperimentPlan) -> list[PointResult]:
    """Expand the plan axes into ordered sweep points with derived seeds."""
    points = []
    index = 0
    for z_prime in plan.resolved_z_values():
        for n_measurements in plan.i_values:
            for snr_db in plan.snr_values:
                points.append(
                    PointResult(
                        index=index,
                        z_prime=z_prime,
                        n_measurements=n_measurements,
                        snr_db=snr_db,
                        gamma=plan.gamma if plan.gamma is not None else default_gamma(z_prime),
                        seed=plan.seed + index,
                    )
                )
                index += 1
    return points


def run_plan(plan: ExperimentPlan) -> RunResult:
    """Execute every sweep point in plan order and write the run directory.

    Contents: resolved config snapshot, metrics.csv (deterministic given the
    seed), timings.csv, one estimate image per scored point (per slice and
    component for volumes), errors.log for failed points, and mask/profile
    exports when ``keep_artifacts`` is set. A run into a used directory
    removes the errors.log of an earlier run when no point fails, and the
    estimate images of an earlier run at the index of each point that fails.
    """
    plan.validate()
    run_dir = Path(plan.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_snapshot(run_dir / "config_snapshot.txt", plan)
    if plan.keep_artifacts:
        (run_dir / "artifacts").mkdir(exist_ok=True)

    result = RunResult(run_dir=run_dir, points=plan_points(plan), kernel_builds=0)
    lap = _stopwatch()
    for _, points in groupby(result.points, key=attrgetter("z_prime")):
        _run_distance(plan, list(points), result, lap)

    _write_csv(
        run_dir / "metrics.csv",
        METRICS_FIELDS,
        (
            (p.n_measurements, p.snr_db, p.z_prime, p.gamma, p.nmse, p.retained_rank, p.seed)
            for p in result.points
        ),
    )
    _write_csv(
        run_dir / "timings.csv",
        TIMINGS_FIELDS,
        ((p.n_measurements, p.snr_db, p.z_prime, f"{p.wall_ms:.3f}") for p in result.points),
    )
    failed = [p for p in result.points if p.error is not None]
    for p in failed:  # drop the images that an earlier run into this directory wrote for it
        stem = f"estimate_{p.index:03d}"
        (run_dir / f"{stem}.pgm").unlink(missing_ok=True)
        for part in ("re", "im"):
            for stale in run_dir.glob(f"{stem}_slice*_{part}.pgm"):
                stale.unlink()
    if failed:
        with em_core.text_file_writer(run_dir / "errors.log") as fh:
            fh.write("".join(f"point {p.index}: {p.error}\n" for p in failed))
    else:
        (run_dir / "errors.log").unlink(missing_ok=True)
    return result


# Environment variables that set the BLAS thread count; summation order, and
# so the last digits of metrics.csv, depend on it.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"
    return f"{blas['name']} {blas.get('version', '')}".strip()


def _write_snapshot(path: Path, plan: ExperimentPlan) -> None:
    """The resolved plan and scene, then the numpy version, BLAS build and BLAS
    thread settings that the last digits of ``metrics.csv`` depend on."""
    lines = []
    for f in fields(plan.scene):
        lines.append(f"scene.{f.name} = {getattr(plan.scene, f.name)!r}")
    for f in fields(plan):
        if f.name == "scene":
            continue
        lines.append(f"plan.{f.name} = {getattr(plan, f.name)!r}")
    lines.append(f"env.numpy = {np.__version__!r}")
    lines.append(f"env.blas = {_blas_name()!r}")
    lines.extend(f"env.{var} = {os.environ.get(var)!r}" for var in _BLAS_THREAD_VARS)
    with em_core.text_file_writer(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``header`` and then ``rows``, each cell through :func:`_csv_value`."""
    with em_core.text_file_writer(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_csv_value(value) for value in row] for row in rows)


def write_estimate_images(path: str | Path, estimate: np.ndarray, grid_shape: tuple[int, ...]) -> None:
    """Write a flat estimate as grey-level images.

    A plane grid (nx, ny) goes to ``path`` itself; a volume (nx, ny, nz) goes
    to ``<stem>_slice<iz>_re.pgm`` and ``_im.pgm`` beside it, one pair per slice.
    """
    if len(grid_shape) == 2:
        nx, ny = grid_shape
        write_grid_image(path, estimate.reshape(ny, nx).T)  # back to [ix, iy]
        return
    nx, ny, nz = grid_shape
    volume = estimate.reshape(nz, ny, nx)
    stem = os.path.splitext(path)[0]
    for iz in range(nz):
        slice_grid = volume[iz].T  # [ix, iy]
        write_grid_image(f"{stem}_slice{iz}_re.pgm", slice_grid.real)
        write_grid_image(f"{stem}_slice{iz}_im.pgm", slice_grid.imag)


# --- plan files --------------------------------------------------------------------

def parse_plan(text: str, base_dir: Path | None = None) -> ExperimentPlan:
    """Build an :class:`ExperimentPlan` from the flat key-value format.

    The keys are its field names (:func:`~risimage.scene.read_fields`), and
    ``scene`` names the scene config file (relative to the plan file). The
    sweep axes are comma-separated lists, with ``none`` allowed in
    ``snr_values`` for noiseless points.
    """
    values = parse_key_values(text)
    if "scene" not in values:
        raise MalformedConfig("plan needs a 'scene = <path>' entry")
    scene_path = Path(values.pop("scene"))
    if base_dir is not None and not scene_path.is_absolute():
        scene_path = base_dir / scene_path
    scene = load_scene_config(scene_path)
    # Points run one after another; plan files written when they could run
    # on a thread pool may still say "workers = 1".
    try:
        workers = int(values.pop("workers", "1"))
    except ValueError as exc:
        raise MalformedConfig(f"bad plan value for workers: {exc}") from exc
    if workers != 1:
        raise MalformedConfig("workers must be 1: sweep points run one after another")
    return ExperimentPlan(scene=scene, **read_fields(ExperimentPlan, values, "plan"))


def load_plan(path: str | Path) -> ExperimentPlan:
    path = Path(path)
    return parse_plan(read_config_text(path), base_dir=path.parent)
