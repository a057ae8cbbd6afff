"""Seeded fuzzing of scene keys, ``run`` flags and plan keys through the command line.

Each scene case takes a small valid scene (an 8x8 aperture over a 4x4 plane
target, or over a 2x2x2 volume), overrides one or two of its keys and draws
``run``'s numeric flags, then runs ``validate`` and ``run`` through
``cli.main``. Each plan case replaces one or two keys of a valid plan on the
plane scene and runs ``sweep --plan``. The invariant, whatever the input:
nothing is raised (warnings are errors under the project's pytest settings);
``validate`` exits 0 or 2, and when it exits 2 so does ``run``, before making
its run directory; a plan value that the field reader rejects makes ``sweep``
exit 2 with ``MalformedConfig``; a run or sweep that exits 2 makes no run
directory, one that exits 0 or 1 scores its points with finite NMSEs and logs
each point without a score as an ``ImagingError`` subclass, and it exits 1
only when no point is scored. Fixed seeds and a fixed example budget keep the
cases the same on every run.
"""

import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from risimage import cli, errors
from risimage.runner import ExperimentPlan
from risimage.scene import read_fields

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
# words or lists with an empty item.
VALID_PLAN = {"target": "block", "i_values": "32", "snr_values": "none, 20", "seed": "3"}
PLAN_KEYS = [
    "i_values", "snr_values", "z_values", "gamma", "threshold_factor", "seed",
    "ideal_masks", "keep_artifacts", "calibration", "n0_dbm_per_hz", "bandwidth_hz",
]
PLAN_WORDS = ["none", "None", "yes", "maybe", "true", "0", "32,", ",20", "32,,64", "none,", "20, none", "32, 64"]


@st.composite
def plan_entries(draw) -> dict[str, str]:
    """Replacement texts for one or two distinct plan keys."""
    keys = draw(st.lists(st.sampled_from(PLAN_KEYS), min_size=1, max_size=2, unique=True))
    return {key: draw(NUMBERS | st.sampled_from(PLAN_WORDS)) for key in keys}


def check_plan_case(entries: dict[str, str]) -> None:
    try:
        read_fields(ExperimentPlan, entries, "plan")
        rejected = False
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
def test_plan_file_inputs(entries):
    check_plan_case(entries)
