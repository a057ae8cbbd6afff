"""Seeded fuzzing of scene keys, ``run`` flags and plan keys through the command line.

Each scene case takes a small valid scene (an 8x8 aperture over a 4x4 plane
target, or over a 2x2x2 volume), overrides one or two of its keys and draws
``run``'s numeric flags, then runs ``validate`` and ``run`` through
``cli.main``. Each plan case replaces one or two keys of a valid plan on the
plane scene and runs ``sweep --plan``. The invariant, whatever the input:
nothing is raised (warnings are errors under the project's pytest settings);
``validate`` exits 0 or 2, and when it exits 2 so does ``run``, before making
its run directory; a plan value that the field reader rejects, or that holds
a NUL byte, makes ``sweep`` exit 2 with ``MalformedConfig``; a run or sweep that exits 2 makes no run
directory, one that exits 0 or 1 scores its points with finite NMSEs and logs
each point without a score as an ``ImagingError`` subclass, and it exits 1
only when no point is scored. Fixed seeds and a fixed example budget keep the
cases the same on every run.

One more property draws small plane and volume scenes, square or not, of odd
and even counts, and checks every structured decomposition route against
``np.linalg.svd`` of the dense kernel. Another draws targets of a power-of-two
point count M with 2M or 4M masks, whose design pairs its rows, and checks
the paired realization against that of the same rows stored.
"""

import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from risimage import cli, errors
from risimage import em_core as em
from risimage import mask_design as md
from risimage import ris_synthesis as rs
from risimage.runner import ExperimentPlan, default_gamma
from risimage.scene import read_fields, sample_grids, validate_scene

from conftest import DESK_Z_VALUES, desk_config, realize_with_values, volume_config

PLANE_SCENE = """
wavelength = 0.01
ris_len_x = 0.25
ris_len_y = 0.25
target_len_x = 0.125
target_len_y = 0.125
target_distance = 0.125
incident_elevation = 30
receiver_x = 5.0
receiver_y = 5.0
receiver_z = -1.25
n_ris_x = 8
n_ris_y = 8
n_target_x = 4
n_target_y = 4
"""

VOLUME_SCENE = PLANE_SCENE.replace("n_target_x = 4", "n_target_x = 2").replace(
    "n_target_y = 4", "n_target_y = 2"
) + "target_kind = volume3d\nn_target_z = 2\ntarget_depth = 0.0625\n"

# Extremes, degenerate values and text that is no number at all.
SPECIAL = [
    "0", "-0", "-1", "1", "inf", "-inf", "nan", "1e308", "-1e308", "5e-324", "-5e-324",
    "1e-300", "1e300", "1e-154", "1e154", "1e-150", "-1e149", "0x10", "abc", "", "1+1j", "1e308+1e308j",
]
NUMBERS = st.one_of(st.sampled_from(SPECIAL), st.floats().map(repr), st.floats(-10.0, 10.0).map(repr))

# Grid sizes stay within 8x8 aperture samples and 4x4 target samples.
GRID_KEYS = {
    "n_ris_x": st.integers(-2, 8),
    "n_ris_y": st.integers(-2, 8),
    "n_target_x": st.integers(-2, 4),
    "n_target_y": st.integers(-2, 4),
}
SCENE_KEYS = [
    "wavelength", "ris_len_x", "ris_len_y", "target_len_x", "target_len_y", "target_distance",
    "incident_elevation", "receiver_x", "receiver_y", "receiver_z", "incident_amplitude",
    "amplification", "reflection_coeff", "target_depth", *GRID_KEYS, "n_target_z", "target_kind",
]


def scene_value(key: str) -> st.SearchStrategy[str]:
    if key in GRID_KEYS:
        return st.one_of(GRID_KEYS[key].map(str), st.sampled_from(["abc", "1.5", ""]))
    if key == "n_target_z":  # with a 2x2 volume layer, at most 4x4 samples
        return st.one_of(st.integers(-1, 4).map(str), st.sampled_from(["abc", ""]))
    if key == "target_kind":
        return st.sampled_from(["plane2d", "volume3d", "cube"])
    return NUMBERS


@st.composite
def overrides(draw) -> list[str]:
    """``--set`` arguments for one or two distinct scene keys."""
    keys = draw(st.lists(st.sampled_from(SCENE_KEYS), min_size=1, max_size=2, unique=True))
    argv = []
    for key in keys:
        argv += ["--set", f"{key}={draw(scene_value(key))}"]
    return argv


@st.composite
def run_flags(draw) -> list[str]:
    """Some of ``run``'s numeric flags, each left out (two times in three) or drawn."""
    left_out = st.none() | st.none()
    argv = []
    count = draw(left_out | st.sampled_from([-4, 0, 3, 4, 8, 12, 16, 32, 64]))
    if count is not None:
        argv.append(f"-I={count}")
    for flag in ("--snr-db", "--gamma", "--threshold-factor"):
        value = draw(left_out | NUMBERS)
        if value is not None:
            argv.append(f"{flag}={value}")
    seed = draw(left_out | st.integers(0, 99) | st.integers(-3, 2**129))
    if seed is not None:
        argv.append(f"--seed={seed}")
    if draw(st.booleans()):
        argv.append("--ideal-masks")
    calibration = draw(st.none() | st.sampled_from(["none", "max1", "lsq"]))
    if calibration is not None:
        argv.append(f"--calibration={calibration}")
    return argv


def invoke(argv: list[str]) -> int:
    """``cli.main``'s exit code; argparse's own rejection of a flag value exits 2."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return 2


def is_imaging_error(name: str) -> bool:
    kind = getattr(errors, name, None)
    return isinstance(kind, type) and issubclass(kind, errors.ImagingError)


def check_outcome(code: int, out: Path) -> None:
    """The exit code and run directory ``out`` of a ``run`` or ``sweep``."""
    assert code in (0, 1, 2)
    if code == 2:
        assert not out.exists()
        return
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    scores = [row["nmse"] for row in rows if row["nmse"]]
    assert rows and all(math.isfinite(float(nmse)) for nmse in scores)
    assert (code == 1) == (not scores)
    errors_log = out / "errors.log"
    lines = errors_log.read_text().splitlines() if errors_log.exists() else []
    assert len(lines) == len(rows) - len(scores)
    for line in lines:
        _, error = line.split(": ", 1)
        assert is_imaging_error(error.split(":", 1)[0]), line


def check_case(scene_text: str, scene_argv: list[str], flags: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        scene = Path(tmp) / "scene.cfg"
        scene.write_text(scene_text)
        valid = invoke(["validate", "--scene", str(scene), *scene_argv])
        assert valid in (0, 2)
        out = Path(tmp) / "run"
        code = invoke(["run", "--scene", str(scene), *scene_argv, *flags, "--output", str(out)])
        if valid == 2:  # a scene that validate rejects is bad input to run as well
            assert code == 2
        check_outcome(code, out)


# A valid plan on the plane scene, and the keys a case replaces with numbers,
# words, words holding a NUL byte or lists with an empty item.
VALID_PLAN = {"target": "block", "i_values": "32", "snr_values": "none, 20", "seed": "3"}
PLAN_KEYS = [
    "i_values", "snr_values", "z_values", "gamma", "threshold_factor", "seed",
    "ideal_masks", "keep_artifacts", "calibration", "n0_dbm_per_hz", "bandwidth_hz",
]
PLAN_WORDS = [
    "none", "None", "yes", "maybe", "true", "0", "32,", ",20", "32,,64", "none,", "20, none", "32, 64",
    "32\x00", "none\x00", "max1\x00", "20,\x00",
]


@st.composite
def plan_entries(draw) -> dict[str, str]:
    """Replacement texts for one or two distinct plan keys."""
    keys = draw(st.lists(st.sampled_from(PLAN_KEYS), min_size=1, max_size=2, unique=True))
    return {key: draw(NUMBERS | st.sampled_from(PLAN_WORDS)) for key in keys}


def check_plan_case(entries: dict[str, str]) -> None:
    # a NUL byte in any value is rejected as the plan file is read (scene.parse_key_values)
    rejected = any("\x00" in value for value in entries.values())
    try:
        read_fields(ExperimentPlan, entries, "plan")
    except errors.MalformedConfig:
        rejected = True
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "scene.cfg").write_text(PLANE_SCENE)
        out = Path(tmp) / "run"
        plan = {**VALID_PLAN, **entries, "output_dir": str(out)}
        plan_path = Path(tmp) / "plan.cfg"
        plan_path.write_text("scene = scene.cfg\n" + "".join(f"{key} = {value}\n" for key, value in plan.items()))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = invoke(["sweep", "--plan", str(plan_path)])
        if rejected:
            assert code == 2 and "MalformedConfig" in stderr.getvalue()
        check_outcome(code, out)


FUZZ = settings(max_examples=150, derandomize=True, deadline=None, database=None)


@FUZZ
@given(scene_argv=overrides(), flags=run_flags())
def test_plane_scene_inputs(scene_argv, flags):
    check_case(PLANE_SCENE, scene_argv, flags)


@FUZZ
@given(scene_argv=overrides(), flags=run_flags())
def test_volume_scene_inputs(scene_argv, flags):
    check_case(VOLUME_SCENE, scene_argv, flags)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(entries=plan_entries())
@example(entries={"calibration": "max1\x00"})  # a NUL in a str field, which read_fields takes as it is
@example(entries={"target": "block\x00"})
def test_plan_file_inputs(entries):
    check_plan_case(entries)


# Small plane and volume scenes for the decomposition property: square ones take
# the D4 swap split, and each side's count may be odd or even.
ELEVATIONS = (0.0, 30.0, 55.0)


@st.composite
def mirror_scenes(draw):
    square = draw(st.booleans())
    tx, ax = draw(st.integers(1, 7)), draw(st.integers(2, 12))
    ty, ay = (tx, ax) if square else (draw(st.integers(1, 7)), draw(st.integers(2, 12)))
    keys = dict(
        n_target_x=tx,
        n_target_y=ty,
        n_ris_x=ax,
        n_ris_y=ay,
        incident_elevation=math.radians(draw(st.sampled_from(ELEVATIONS))),
        incident_amplitude=draw(st.sampled_from([1.0, -2.5])),
    )
    z_prime = draw(st.sampled_from(DESK_Z_VALUES))
    if draw(st.booleans()):
        return volume_config(z_prime, n_z=draw(st.integers(1, 3)), **keys)
    return desk_config(z_prime, **keys)


def grid_factors(inv) -> np.ndarray:
    """The retained columns of U on the target grid, every sector's unfolded."""
    gathers = rs._sector_gathers(rs._target_shape(inv))
    columns = []
    for factor, gather in zip(rs._folded_factors(inv), gathers):
        if gather is None:
            columns.append(factor.u)
        elif factor.sigma.size:  # a sector may have no rows to gather from
            columns.append(gather[1][:, None] * factor.u[gather[0]])
    return np.concatenate(columns, axis=1)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(cfg=mirror_scenes(), seed=st.integers(0, 2**32 - 1))
def test_mirror_decompositions_match_the_dense_svd(cfg, seed):
    """Every structured route (plane sectors, with or without the swap split, and
    volume table stacks) gives the dense SVD's spectrum, retained projector and
    realized masks."""
    scene = validate_scene(cfg)
    grids = sample_grids(scene)
    kernel = em.assemble_kernel(scene, grids)
    gamma = default_gamma(cfg.target_distance)
    inv = rs.tikhonov_inverse(kernel, gamma)
    u, sigma, vh = np.linalg.svd(kernel.entries, full_matrices=False)

    size = max(len(sigma), len(inv.sigma))
    expected, got = np.zeros(size), np.zeros(size)
    expected[: len(sigma)], got[: len(inv.sigma)] = sigma, inv.sigma
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * sigma[0])

    r = inv.retained_rank
    assert r == np.count_nonzero(sigma**2 >= rs.DEFAULT_THRESHOLD_FACTOR * gamma)
    retained = grid_factors(inv)
    projector = u[:, :r] @ u[:, :r].conj().T
    # a retained subspace is determined to about the backward error over its gap
    # to the first dropped value (Davis & Kahan): 1e-12 holds where that gap is wide
    gap = sigma[r - 1] - (sigma[r] if r < len(sigma) else 0.0)
    bound = max(1e-12, 1e-14 * sigma[0] / gap)
    np.testing.assert_allclose(retained @ retained.conj().T, projector, rtol=0, atol=bound)

    rng = np.random.default_rng(seed)
    shape = (8, scene.n_target)
    kind = md.KIND_MASK3D if kernel.symmetry.weights is not None else md.KIND_MASK2D
    masks = md.MaskSet(kind, stored=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    _, values = realize_with_values(inv, masks, 1.0)
    coefficients = (sigma / (sigma**2 + gamma))[:r, None] * (u[:, :r].conj().T @ masks.stored.T)
    profiles = vh[:r].conj().T @ coefficients
    profiles *= np.sqrt(scene.n_ris) / np.linalg.norm(profiles, axis=0)
    dense = (kernel.entries @ profiles).T
    np.testing.assert_allclose(values, dense, rtol=0, atol=1e-10 * np.abs(dense).max())


@st.composite
def paired_designs(draw):
    """A small plane target of 2 to 8 points a side, or a volume of 1 to 4,
    with a power-of-two point count M >= 4, and a mask count of 2M or 4M."""
    keys = dict(
        n_ris_x=draw(st.integers(6, 12)),
        n_ris_y=draw(st.integers(6, 12)),
        incident_elevation=math.radians(draw(st.sampled_from(ELEVATIONS))),
    )
    z_prime = draw(st.sampled_from(DESK_Z_VALUES))
    if draw(st.booleans()):
        sides = st.sampled_from([1, 2, 4])
        tx, ty, tz = draw(sides), draw(sides), draw(sides)
        if tx * ty * tz < 4:
            tz = 4
        cfg = volume_config(z_prime, n_z=tz, n_target_x=tx, n_target_y=ty, **keys)
    else:
        sides = st.sampled_from([2, 4, 8])
        cfg = desk_config(z_prime, n_target_x=draw(sides), n_target_y=draw(sides), **keys)
    return cfg, draw(st.sampled_from([2, 4]))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(design=paired_designs())
def test_paired_realization_matches_the_stored_rows(design):
    """A designed set of R = 2M rows stages and maps only its first M and forms
    each partner row from its row and one constant row; realized from the same
    rows stored, which do not pair, it gives the same masks and norms."""
    cfg, multiple = design
    scene = validate_scene(cfg)
    grids = sample_grids(scene)
    inv = rs.tikhonov_inverse(em.kernel_stream(scene, grids), default_gamma(cfg.target_distance))
    designed = md.ideal_masks(scene, grids, multiple * scene.n_target)
    distinct = designed.distinct_rows
    stored = md.MaskSet(designed.kind, stored=designed.vectors[:distinct])
    assert designed.paired and distinct == 2 * scene.n_target and not stored.paired
    (paired, paired_values), (plain, plain_values) = (realize_with_values(inv, m, 1.5) for m in (designed, stored))
    scale = np.abs(plain_values).max()
    np.testing.assert_allclose(paired_values[:distinct], plain_values, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(paired.solution_norms[:distinct], plain.solution_norms, rtol=1e-12)
