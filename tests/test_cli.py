"""Command-line verbs, plan files, run directories, and their determinism."""

import csv
import dataclasses
import functools
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import risimage
from risimage import cli, em_core
from risimage import mask_design as md
from risimage import measurement as ms
from risimage import reconstruct as rc
from risimage import ris_synthesis as rs
from risimage import runner as rn
from risimage import scene as sc
from risimage.targets import resolve_target, write_pgm

SCENE_TEXT = """
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
n_ris_x = 16
n_ris_y = 16
n_target_x = 8
n_target_y = 8
"""


@pytest.fixture()
def scene_file(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE_TEXT)
    return path


def read_metrics(run_dir):
    with open(Path(run_dir) / "metrics.csv", newline="") as fh:
        return list(csv.DictReader(fh))


class TestValidateVerb:
    def test_reports_resolution(self, scene_file, capsys):
        assert cli.main(["validate", "--scene", str(scene_file)]) == 0
        out = capsys.readouterr().out
        assert "scene valid" in out and "resolution_x_m" in out

    def test_reports_the_target_pitch_over_the_resolution(self, scene_file, capsys):
        # the desk target: 7.8 mm pixels against a 7.1 mm resolution at z' = 0.125
        argv = ["validate", "--scene", str(scene_file), "--set", "n_target_x=16", "--set", "n_target_y=16"]
        assert cli.main(argv) == 0
        values = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()[1:])
        pitch = 0.125 / 16
        for axis in "xy":
            ratio = float(values[f"target_pitch_over_resolution_{axis}"])
            assert ratio == pytest.approx(pitch / float(values[f"resolution_{axis}_m"]), rel=1e-12)
            assert ratio == pytest.approx(1.105, abs=1e-3)

    def test_set_override_can_break_the_scene(self, scene_file, capsys):
        code = cli.main(["validate", "--scene", str(scene_file), "--set", "target_distance=30"])
        assert code == 2
        assert "NearFieldViolation" in capsys.readouterr().err


class TestKernelVerb:
    def test_assemble_then_cache_hit(self, scene_file, tmp_path, capsys):
        out = tmp_path / "kernel.bin"
        assert cli.main(["kernel", "--scene", str(scene_file), "--output", str(out)]) == 0
        assert "assembled" in capsys.readouterr().out
        assert cli.main(["kernel", "--scene", str(scene_file), "--output", str(out)]) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_full_size_plane_kernel_file_exits_2_unless_forced(self, scene_file, tmp_path, capsys):
        # plane kernel files once held every row; such a file is stale, not a cache hit
        scene = sc.validate_scene(sc.load_scene_config(scene_file))
        grids = sc.sample_grids(scene)
        out = tmp_path / "kernel.bin"
        header = f"kind=Z_2d m={scene.n_target} n={scene.n_ris} fingerprint={scene.fingerprint}\n"
        em_core.write_complex_file(out, header, em_core.kernel_2d(scene, grids).entries)
        assert cli.main(["kernel", "--scene", str(scene_file), "--output", str(out)]) == 2
        assert "CacheMismatch" in capsys.readouterr().err
        assert cli.main(["kernel", "--scene", str(scene_file), "--output", str(out), "--force"]) == 0
        assert "assembled" in capsys.readouterr().out
        assert out.stat().st_size == len(header) + 16 * (scene.n_target // 4) * scene.n_ris
        assert cli.main(["kernel", "--scene", str(scene_file), "--output", str(out)]) == 0
        assert "cache hit" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "overrides, label",
        [
            ([], "Z_2d 64x256, mirror- and swap-symmetric kernel"),
            (["--set", "target_len_y=0.1"], "Z_2d 64x256, mirror-symmetric kernel"),
        ],
        ids=["square", "oblong"],
    )
    def test_label_says_how_the_kernel_splits(self, scene_file, tmp_path, capsys, overrides, label):
        out = tmp_path / "kernel.bin"
        assert cli.main(["kernel", "--scene", str(scene_file), *overrides, "--output", str(out)]) == 0
        assert label in capsys.readouterr().out


class TestMasksVerb:
    def test_exports_ideal_masks(self, scene_file, tmp_path):
        out = tmp_path / "masks.bin"
        assert cli.main(["masks", "--scene", str(scene_file), "-I", "128", "--output", str(out)]) == 0
        kind, vectors, _ = md.load_mask_vectors(out)
        assert kind == md.KIND_MASK2D
        assert vectors.shape == (128, 64)


class TestMeasureReconstructVerbs:
    def test_measure_then_reconstruct_round_trip(self, scene_file, tmp_path, capsys):
        records_path = tmp_path / "records.csv"
        masks_path = tmp_path / "masks.bin"
        estimate_path = tmp_path / "estimate.pgm"
        assert (
            cli.main(
                [
                    "masks",
                    "--scene",
                    str(scene_file),
                    "-I",
                    "128",
                    "--phase-mode",
                    "exact",
                    "--output",
                    str(masks_path),
                ]
            )
            == 0
        )
        assert (
            cli.main(
                [
                    "measure",
                    "--scene",
                    str(scene_file),
                    "-I",
                    "128",
                    "--phase-mode",
                    "exact",
                    "--ideal-masks",
                    "--target",
                    "block",
                    "--output",
                    str(records_path),
                ]
            )
            == 0
        )
        assert (
            cli.main(
                [
                    "reconstruct",
                    "--scene",
                    str(scene_file),
                    "--records",
                    str(records_path),
                    "--masks",
                    str(masks_path),
                    "--target",
                    "block",
                    "--calibration",
                    "max1",
                    "--output",
                    str(estimate_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        nmse_line = [l for l in out.splitlines() if l.startswith("nmse = ")]
        assert nmse_line and float(nmse_line[0].split("=")[1]) < 1e-6
        assert estimate_path.exists()

    def test_ideal_masks_measure_like_the_stored_stack(self, scene_file, tmp_path):
        # the designed stack formed on read gives the records of the C-ordered
        # amplitudes * e^{j phase}, with the amplitudes read off H_I itself
        records_path = tmp_path / "records.csv"
        desk = ["--set", "n_target_x=16", "--set", "n_target_y=16", "--set", "n_ris_x=32", "--set", "n_ris_y=32"]
        argv = ["measure", "--scene", str(scene_file), *desk, "-I", "1024", "--ideal-masks", "--snr-db", "20"]
        assert cli.main([*argv, "--seed", "3", "--output", str(records_path)]) == 0
        cfg = sc.load_scene_config(scene_file)
        scene = sc.validate_scene(dataclasses.replace(cfg, n_target_x=16, n_target_y=16, n_ris_x=32, n_ris_y=32))
        grids = sc.sample_grids(scene)
        amplitudes = (md.hadamard(1024)[:, 1 : scene.n_target + 1] > 0).astype(np.float64)
        phase = md.design_phases_2d(scene, grids)
        stored = md.MaskSet(kind=md.KIND_MASK2D, stored=amplitudes * np.exp(1j * phase)[None, :])
        target = resolve_target("block", scene)
        fields = ms.noiseless_fields(scene, grids, stored, target)
        ms.records_to_csv(tmp_path / "expected.csv", ms.measure(fields, stored.kind, 20.0, 3))
        assert records_path.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_ideal_masks_form_their_stack_once_per_group(self, scene_file, tmp_path, monkeypatch):
        formed = []
        form = md.MaskSet._designed

        def counting_form(masks, rows=slice(None)):
            stack = form(masks, rows)
            formed.append(stack.shape)
            return stack

        monkeypatch.setattr(md.MaskSet, "_designed", counting_form)
        argv = ["sweep", "--scene", str(scene_file), "--ideal-masks", "--i-sweep", "128,256"]
        assert cli.main([*argv, "--snr-sweep", "none,10,20", "--output", str(tmp_path / "s")]) == 0
        assert formed == [(128, 64), (256, 64)]


class TestSynthesizeVerb:
    def test_writes_profiles_and_summary(self, scene_file, tmp_path):
        out_dir = tmp_path / "synth"
        code = cli.main(
            ["synthesize", "--scene", str(scene_file), "-I", "128", "--output", str(out_dir)]
        )
        assert code == 0
        for name in ("masks_ideal.bin", "masks_realized.bin", "profiles.bin", "synthesis.txt"):
            assert (out_dir / name).exists()
        kind, vectors, _ = md.load_mask_vectors(out_dir / "profiles.bin")
        assert kind == "profiles" and vectors.shape == (128, 256)


class TestVolumeVerbs:
    VOLUME_SCENE = SCENE_TEXT.replace("n_target_x = 8", "n_target_x = 2").replace(
        "n_target_y = 8", "n_target_y = 2"
    ) + "target_kind = volume3d\nn_target_z = 2\ntarget_depth = 0.0625\n"

    def test_measure_reconstruct_round_trip_3d(self, tmp_path, capsys):
        scene_path = tmp_path / "volume.cfg"
        scene_path.write_text(self.VOLUME_SCENE)
        volume_path = tmp_path / "target.txt"
        voxels = ["1.0 0.0"] * 8
        voxels[3] = "2.0 0.0"
        volume_path.write_text("2 2 2\n" + "\n".join(voxels) + "\n")
        masks_path = tmp_path / "masks.bin"
        records_path = tmp_path / "records.csv"
        common = ["--scene", str(scene_path), "-I", "16"]
        assert cli.main(["masks", *common, "--output", str(masks_path)]) == 0
        assert (
            cli.main(
                [
                    "measure",
                    *common,
                    "--ideal-masks",
                    "--target",
                    str(volume_path),
                    "--output",
                    str(records_path),
                ]
            )
            == 0
        )
        assert (
            cli.main(
                [
                    "reconstruct",
                    *common,
                    "--records",
                    str(records_path),
                    "--masks",
                    str(masks_path),
                    "--target",
                    str(volume_path),
                    "--calibration",
                    "none",
                    "--output",
                    str(tmp_path / "estimate.pgm"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        nmse_line = [l for l in out.splitlines() if l.startswith("nmse = ")]
        assert nmse_line and float(nmse_line[0].split("=")[1]) < 1e-6
        assert (tmp_path / "estimate_slice0_re.pgm").exists()
        assert (tmp_path / "estimate_slice1_im.pgm").exists()


class TestStepVerbParity:
    """synthesize -> measure -> reconstruct is the run point, one step at a time."""

    @pytest.mark.parametrize("volume", [False, True], ids=["plane", "volume"])
    def test_steps_reproduce_the_run_point(self, tmp_path, capsys, volume):
        scene_path = tmp_path / "scene.cfg"
        scene_path.write_text(TestVolumeVerbs.VOLUME_SCENE if volume else SCENE_TEXT)
        common = ["--scene", str(scene_path), "-I", "16" if volume else "128"]
        noise = ["--snr-db", "20", "--seed", "3"]
        assert cli.main(["run", *common, *noise, "--calibration", "lsq", "--output", str(tmp_path / "run")]) == 0
        run_nmse = read_metrics(tmp_path / "run")[0]["nmse"]
        capsys.readouterr()

        records = tmp_path / "records.csv"
        estimate = tmp_path / "steps" / "estimate_000.pgm"
        assert cli.main(["synthesize", *common, "--output", str(tmp_path / "synth")]) == 0
        assert cli.main(["measure", *common, *noise, "--output", str(records)]) == 0
        capsys.readouterr()
        masks = tmp_path / "synth" / "masks_realized.bin"
        argv = ["reconstruct", *common, "--records", str(records), "--masks", str(masks), "--calibration", "lsq"]
        assert cli.main([*argv, "--output", str(estimate)]) == 0
        assert f"nmse = {run_nmse}" in capsys.readouterr().out.splitlines()

        images = sorted(path.name for path in (tmp_path / "run").glob("estimate_*.pgm"))
        assert len(images) == (4 if volume else 1)  # a volume: 2 slices, re and im
        for name in images:
            assert (tmp_path / "steps" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()

    def test_verbs_reach_the_stages_through_their_modules(self, scene_file, tmp_path, monkeypatch):
        calls = []
        for module, name in ((rc, "reconstruct_2d"), (rs, "save_profiles")):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        common = ["--scene", str(scene_file), "-I", "128"]
        assert cli.main(["run", *common, "--keep-artifacts", "--output", str(tmp_path / "run")]) == 0
        assert sorted(calls) == ["reconstruct_2d", "save_profiles"]
        calls.clear()
        assert cli.main(["synthesize", *common, "--output", str(tmp_path / "synth")]) == 0
        assert calls == ["save_profiles"]
        calls.clear()
        assert cli.main(["measure", *common, "--output", str(tmp_path / "records.csv")]) == 0
        masks = str(tmp_path / "synth" / "masks_realized.bin")
        argv = ["reconstruct", *common, "--records", str(tmp_path / "records.csv"), "--masks", masks]
        assert cli.main([*argv, "--output", str(tmp_path / "estimate.pgm")]) == 0
        assert calls == ["reconstruct_2d"]

    def test_options_left_out_keep_the_plan_defaults(self, scene_file):
        args = cli.build_parser().parse_args(["run", "--scene", str(scene_file), "-I", "128"])
        plan = cli._plan_from_args(args, sweep=False)
        assert plan == rn.ExperimentPlan(scene=plan.scene, i_values=(128,))


class TestRunVerb:
    def test_ideal_bypass_reaches_oracle_accuracy(self, scene_file, tmp_path):
        run_dir = tmp_path / "run"
        code = cli.main(
            [
                "run",
                "--scene",
                str(scene_file),
                "--target",
                "checkerboard",
                "-I",
                "128",
                "--ideal-masks",
                "--phase-mode",
                "exact",
                "--output",
                str(run_dir),
            ]
        )
        assert code == 0
        rows = read_metrics(run_dir)
        assert len(rows) == 1
        assert float(rows[0]["nmse"]) < 1e-6
        assert (run_dir / "estimate_000.pgm").exists()
        assert (run_dir / "config_snapshot.txt").exists()

    def test_repeat_run_is_byte_identical(self, scene_file, tmp_path):
        args = [
            "run",
            "--scene",
            str(scene_file),
            "--target",
            "block",
            "-I",
            "128",
            "--snr-db",
            "20",
            "--seed",
            "7",
        ]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--output", str(dir_a)]) == 0
        assert cli.main(args + ["--output", str(dir_b)]) == 0
        assert (dir_a / "metrics.csv").read_bytes() == (dir_b / "metrics.csv").read_bytes()


class TestSweepVerb:
    def test_more_measurements_lower_nmse(self, scene_file, tmp_path):
        run_dir = tmp_path / "sweep"
        code = cli.main(
            [
                "sweep",
                "--scene",
                str(scene_file),
                "--target",
                "block",
                "--i-sweep",
                "64,256",
                "--snr-db",
                "20",
                "--calibration",
                "lsq",
                "--seed",
                "1",
                "--output",
                str(run_dir),
            ]
        )
        assert code == 0
        rows = read_metrics(run_dir)
        assert len(rows) == 2
        assert float(rows[1]["nmse"]) < float(rows[0]["nmse"])

    def test_plan_file_driven_sweep(self, scene_file, tmp_path):
        plan_path = tmp_path / "plan.cfg"
        plan_path.write_text(
            f"""
scene = {scene_file.name}
target = block
i_values = 128
snr_values = none, 20
seed = 3
calibration = lsq
output_dir = {tmp_path / 'plan_run'}
"""
        )
        assert cli.main(["sweep", "--plan", str(plan_path)]) == 0
        rows = read_metrics(tmp_path / "plan_run")
        assert len(rows) == 2
        assert rows[0]["snr_db"] == ""
        assert rows[1]["snr_db"] == "20.0"

    def test_default_count_ignores_a_replaced_distance(self, scene_file, tmp_path):
        # the scene's own distance lies beyond the Rayleigh distance, but the
        # z-sweep replaces it; the default count for 64 pixels is 128
        def sweep(name, *extra):
            args = ["sweep", "--scene", str(scene_file), "--set", "target_distance=30", "--z-sweep", "0.125"]
            assert cli.main(args + list(extra) + ["--seed", "2", "--output", str(tmp_path / name)]) == 0
            return (tmp_path / name / "metrics.csv").read_bytes()

        assert sweep("default") == sweep("explicit", "-I", "128")

    @pytest.mark.parametrize("output", ["runs/out", "elsewhere"])
    def test_output_flag_replaces_the_plan_directory(self, scene_file, tmp_path, monkeypatch, output):
        # the flag's old default, runs/out, was taken for "not given"
        monkeypatch.chdir(tmp_path)
        plan_path = tmp_path / "plan.cfg"
        plan_path.write_text(f"scene = {scene_file.name}\ni_values = 128\noutput_dir = {tmp_path / 'planned'}\n")
        assert cli.main(["sweep", "--plan", str(plan_path), "--output", output]) == 0
        assert len(read_metrics(tmp_path / output)) == 1
        assert not (tmp_path / "planned").exists()

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--seed", "99"], ["--seed"]),
            (
                ["--seed", "99", "--gamma", "1e-3", "--i-sweep", "64", "--snr-sweep", "10"],
                ["--seed", "--gamma", "--i-sweep", "--snr-sweep"],
            ),
            (
                ["--scene", "{scene}", "--set", "n_ris_x=8", "-I", "128", "--ideal-masks", "--z-sweep", "0.25"],
                ["--scene", "--set", "--measurements", "--ideal-masks", "--z-sweep"],
            ),
        ],
        ids=["seed", "plan-and-sweep-options", "scene-options"],
    )
    def test_plan_takes_no_other_option_but_output(self, scene_file, tmp_path, capsys, extra, named):
        plan_path = tmp_path / "plan.cfg"
        plan_path.write_text(f"scene = {scene_file.name}\ni_values = 128\noutput_dir = {tmp_path / 'planned'}\n")
        argv = ["sweep", "--plan", str(plan_path), *(arg.format(scene=scene_file) for arg in extra)]
        assert cli.main([*argv, "--output", str(tmp_path / "given")]) == 2
        err = capsys.readouterr().err
        assert "MalformedConfig" in err and all(flag in err for flag in named)
        assert cli.main(argv) == 2
        assert not (tmp_path / "planned").exists() and not (tmp_path / "given").exists()

    def test_sweep_needs_plan_or_scene(self, capsys):
        assert cli.main(["sweep", "--target", "block"]) == 2
        assert "MalformedConfig" in capsys.readouterr().err


class TestBadInput:
    """Malformed command-line values exit with code 2 and a typed error."""

    def test_set_without_equals(self, scene_file, capsys):
        code = cli.main(["validate", "--scene", str(scene_file), "--set", "n_ris_x"])
        assert code == 2
        assert "MalformedConfig" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--i-sweep", "256,abc"), ("--snr-sweep", "10,loud"), ("--z-sweep", "0.1,far")]
    )
    def test_non_numeric_sweep_list(self, scene_file, tmp_path, capsys, flag, value):
        code = cli.main(
            ["sweep", "--scene", str(scene_file), flag, value, "--output", str(tmp_path / "s")]
        )
        assert code == 2
        assert "MalformedConfig" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, error",
        [
            ("--z-sweep=none", "MalformedConfig"),
            ("--i-sweep=none", "MalformedConfig"),
            ("--z-sweep=nan", "NonPositiveDimension"),
            ("--z-sweep=0", "NonPositiveDimension"),
            ("--z-sweep=-0.1", "NonPositiveDimension"),
        ],
    )
    def test_sweep_axis_without_a_usable_value(self, scene_file, tmp_path, capsys, option, error):
        # 'none' is a noiseless SNR; no distance or mask count means it
        code = cli.main(["sweep", "--scene", str(scene_file), option, "--output", str(tmp_path / "s")])
        assert code == 2
        assert error in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_non_positive_distance_in_plan(self, scene_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.cfg"
        plan_path.write_text(f"scene = {scene_file.name}\nz_values = -0.1\noutput_dir = {tmp_path / 'p'}\n")
        assert cli.main(["sweep", "--plan", str(plan_path)]) == 2
        assert "NonPositiveDimension" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_distance_too_small_for_the_kernel_in_plan(self, scene_file, tmp_path, capsys):
        # 1e-300 is a positive distance, but its R^3 underflows and the kernel fills with inf
        plan_path = tmp_path / "plan.cfg"
        plan_path.write_text(f"scene = {scene_file.name}\nz_values = 1e-300\noutput_dir = {tmp_path / 'p'}\n")
        assert cli.main(["sweep", "--plan", str(plan_path)]) == 2
        assert "NonPositiveDimension" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_bad_scene_with_measurement_count(self, scene_file, tmp_path, capsys):
        # -I skips the scene validation that choosing a default count does
        code = cli.main(
            ["run", "--scene", str(scene_file), "--set", "n_target_x=0", "-I", "128", "--output", str(tmp_path / "r")]
        )
        assert code == 2
        assert "NonPositiveDimension" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "verb, entry, error",
        [
            ("run", "amplification=inf", "NonPositiveDimension"),
            ("run", "reflection_coeff=nan", "MalformedConfig"),
            ("run", "reflection_coeff=1e308", "MalformedConfig"),
            ("validate", "reflection_coeff=-1.5", "MalformedConfig"),
            ("run", "receiver_z=inf", "MalformedConfig"),
            ("run", "incident_amplitude=0", "MalformedConfig"),
            ("run", "incident_elevation=90", "MalformedConfig"),
            ("run", "incident_elevation=nan", "MalformedConfig"),
            ("run", "receiver_x=nan", "MalformedConfig"),
            ("run", "wavelength=inf", "NonPositiveDimension"),
            ("run", "target_distance=inf", "NonPositiveDimension"),
            ("validate", "target_len_x=1e308", "NonPositiveDimension"),
            ("run", "target_len_x=1e308", "NonPositiveDimension"),
            ("validate", "receiver_y=1e308", "MalformedConfig"),
            ("run", "receiver_y=1e308", "MalformedConfig"),
            ("run", "target_len_y=5e-324", "NonPositiveDimension"),
            ("validate", "target_distance=1e-300", "NonPositiveDimension"),
            ("sweep", "amplification=inf", "NonPositiveDimension"),
            ("validate", "amplification=inf", "NonPositiveDimension"),
        ],
    )
    def test_non_finite_or_degenerate_scene_value(self, scene_file, tmp_path, capsys, verb, entry, error):
        # each would otherwise run to a nan NMSE or fail at every point
        argv = [verb, "--scene", str(scene_file), "--set", entry]
        if verb != "validate":
            argv += ["-I", "128", "--output", str(tmp_path / "r")]
        assert cli.main(argv) == 2
        assert error in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["run", "--scene", "{scene}", "-I", "128", "--output", "{file}"], "FileExistsError"),
            (["masks", "--scene", "{scene}", "-I", "128", "--output", "{file}/m.bin"], "FileExistsError"),
            (
                ["reconstruct", "--scene", "{scene}", "-I", "128", "--records", "{dir}", "--masks", "{dir}/m.bin",
                 "--output", "{dir}/e.pgm"],
                "IsADirectoryError",
            ),
            (["validate", "--scene", "{dir}"], "IsADirectoryError"),
        ],
        ids=["run-output-file", "masks-under-file", "records-directory", "scene-directory"],
    )
    def test_unusable_path(self, scene_file, tmp_path, capsys, argv, error):
        taken = tmp_path / "taken.txt"
        taken.write_text("not a directory\n")
        paths = {"scene": scene_file, "file": taken, "dir": tmp_path}
        assert cli.main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {error}: ")

    @pytest.mark.parametrize("verb", ["run", "measure", "masks"])
    def test_negative_seed(self, scene_file, tmp_path, capsys, verb):
        code = cli.main(
            [
                verb,
                "--scene",
                str(scene_file),
                "-I",
                "128",
                "--snr-db",
                "20",
                "--seed",
                "-3",
                "--output",
                str(tmp_path / "neg"),
            ]
        )
        assert code == 2
        assert "MalformedConfig" in capsys.readouterr().err

    def test_negative_seed_in_plan_file(self, scene_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.cfg"
        plan_path.write_text(f"scene = {scene_file.name}\nseed = -1\noutput_dir = {tmp_path / 'p'}\n")
        assert cli.main(["sweep", "--plan", str(plan_path)]) == 2
        assert "MalformedConfig" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry",
        [
            "calibration = peak",
            "noise_mode = loud",
            "phase_mode = cubic",
            "truncation_mode = soft",
            "gamma = -1",
            "gamma = inf",
            "snr_values = nan, 10",
            "snr_values = 1e300",
            "snr_values = 10, -4000",
            "threshold_factor = -1",
            "threshold_factor = inf",
            "bandwidth_hz = nan",
            "bandwidth_hz = -1e6",
            "n0_dbm_per_hz = nan",
        ],
    )
    def test_bad_plan_value(self, scene_file, tmp_path, capsys, entry):
        plan_path = tmp_path / "plan.cfg"
        plan_path.write_text(f"scene = {scene_file.name}\n{entry}\noutput_dir = {tmp_path / 'p'}\n")
        assert cli.main(["sweep", "--plan", str(plan_path)]) == 2
        assert "MalformedConfig" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("verb", ["run", "measure", "synthesize"])
    def test_negative_gamma_flag(self, scene_file, tmp_path, capsys, verb):
        code = cli.main(
            [verb, "--scene", str(scene_file), "-I", "128", "--gamma", "-1", "--output", str(tmp_path / "g")]
        )
        assert code == 2
        assert "MalformedConfig" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, value", [("run", "-inf"), ("measure", "nan")])
    def test_non_finite_snr_flag(self, scene_file, tmp_path, capsys, verb, value):
        code = cli.main(
            [verb, "--scene", str(scene_file), "-I", "128", f"--snr-db={value}", "--output", str(tmp_path / "s")]
        )
        assert code == 2
        assert "MalformedConfig" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, value", [("run", "1e300"), ("run", "-4000"), ("measure", "-4000"), ("sweep", "3100")]
    )
    def test_snr_power_ratio_out_of_range_flag(self, scene_file, tmp_path, capsys, verb, value):
        # 10^(snr/10) overflows (a traceback) or is no normal double (a nan NMSE)
        code = cli.main(
            [verb, "--scene", str(scene_file), "-I", "128", f"--snr-db={value}", "--output", str(tmp_path / "s")]
        )
        assert code == 2
        assert "MalformedConfig" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("value", ["3000", "-3000"])
    def test_extreme_snr_in_range_still_runs(self, scene_file, tmp_path, value):
        code = cli.main(
            ["run", "--scene", str(scene_file), "-I", "128", f"--snr-db={value}", "--output", str(tmp_path / "s")]
        )
        assert code == 0
        assert np.isfinite(float(read_metrics(tmp_path / "s")[0]["nmse"]))

    def test_nmse_overflow_fails_its_point(self, scene_file, tmp_path):
        # uncalibrated, noise at -3070 dB scales the estimate until its squared error overflows
        argv = ["run", "--scene", str(scene_file), "-I", "128", "--calibration", "none"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--snr-db=-3070", "--output", str(tmp_path / "over")]) == 1
            assert cli.main([*argv, "--snr-db=-3060", "--output", str(tmp_path / "near")]) == 0
        errors = (tmp_path / "over" / "errors.log").read_text().splitlines()
        assert len(errors) == 1 and "NonFiniteScore" in errors[0]
        assert read_metrics(tmp_path / "over")[0]["nmse"] == ""
        assert 1e306 < float(read_metrics(tmp_path / "near")[0]["nmse"]) < math.inf

    OVERFLOWING_VOLUME = ["--set", "wavelength=1e-154", "--set", "receiver_z=-1e153"]

    def test_kernel_with_no_finite_entries(self, tmp_path, capsys):
        # a valid scene whose offset tables overflow in kr**2
        scene_path = tmp_path / "volume.cfg"
        scene_path.write_text(TestVolumeVerbs.VOLUME_SCENE)
        argv = ["kernel", "--scene", str(scene_path), *self.OVERFLOWING_VOLUME, "--output", str(tmp_path / "k.bin")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "NonFiniteKernel" in err and "wavelength 1e-154 m" in err
        assert not (tmp_path / "k.bin").exists()

    def test_non_finite_kernel_fails_its_point(self, tmp_path):
        scene_path = tmp_path / "volume.cfg"
        scene_path.write_text(TestVolumeVerbs.VOLUME_SCENE)
        argv = ["run", "--scene", str(scene_path), *self.OVERFLOWING_VOLUME, "-I", "16"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--output", str(tmp_path / "r")]) == 1
        errors = (tmp_path / "r" / "errors.log").read_text().splitlines()
        assert len(errors) == 1 and "NonFiniteKernel" in errors[0] and "wavelength 1e-154 m" in errors[0]

    def test_far_receiver_at_a_tiny_wavelength_still_runs(self, tmp_path):
        # the receiver's (k R')**2 overflows, and 1 / (k R')**2 takes its limit 0
        scene_path = tmp_path / "volume.cfg"
        scene_path.write_text(TestVolumeVerbs.VOLUME_SCENE)
        argv = ["run", "--scene", str(scene_path), "--set", "wavelength=1e-150", "--set", "receiver_z=-1e149"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "-I", "16", "--output", str(tmp_path / "r")]) == 0
        assert np.isfinite(float(read_metrics(tmp_path / "r")[0]["nmse"]))

    def test_kernel_too_large_to_square_fails_every_point(self, scene_file, tmp_path, capsys):
        # the kernel scales with the incident amplitude; its sigma**2 would overflow
        argv = ["sweep", "--scene", str(scene_file), "--set", "incident_amplitude=1e300", "-I", "128"]
        assert cli.main([*argv, "--snr-sweep", "none,20", "--output", str(tmp_path / "s")]) == 1
        errors = (tmp_path / "s" / "errors.log").read_text().splitlines()
        assert len(errors) == 2 and all("SvdFailure" in line and "incident_amplitude" in line for line in errors)

    def test_non_finite_snr_sweep(self, scene_file, tmp_path, capsys):
        code = cli.main(
            ["sweep", "--scene", str(scene_file), "--snr-sweep", "nan,10", "--output", str(tmp_path / "s")]
        )
        assert code == 2
        assert "MalformedConfig" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "measure", "measure --ideal-masks"])
    def test_nan_threshold_factor_flag(self, scene_file, tmp_path, capsys, verb):
        code = cli.main(
            [*verb.split(), "--scene", str(scene_file), "-I", "128", "--threshold-factor", "nan", "--output", str(tmp_path / "t")]
        )
        assert code == 2
        assert "MalformedConfig" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--gamma", "--threshold-factor"])
    def test_infinite_gamma_or_threshold_factor_flag(self, scene_file, tmp_path, capsys, flag):
        # either one zeroes every regularized weight, so every point would fail
        code = cli.main(["run", "--scene", str(scene_file), "-I", "128", flag, "inf", "--output", str(tmp_path / "r")])
        assert code == 2
        assert "MalformedConfig" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_zero_measurement_count_on_run(self, scene_file, tmp_path, capsys):
        code = cli.main(["run", "--scene", str(scene_file), "-I", "0", "--output", str(tmp_path / "r")])
        assert code == 2
        assert "UnsupportedOrder" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_measurement_count_below_the_target_samples(self, scene_file, tmp_path, capsys):
        code = cli.main(["run", "--scene", str(scene_file), "-I", "32", "--output", str(tmp_path / "r")])
        assert code == 2
        assert "InsufficientMeasurements" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_measurement_count_not_a_power_of_two_in_plan(self, scene_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.cfg"
        plan_path.write_text(f"scene = {scene_file.name}\ni_values = 6\noutput_dir = {tmp_path / 'p'}\n")
        assert cli.main(["sweep", "--plan", str(plan_path)]) == 2
        assert "UnsupportedOrder" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_zero_measurement_count(self, scene_file, tmp_path, capsys):
        code = cli.main(["masks", "--scene", str(scene_file), "-I", "0", "--output", str(tmp_path / "m.bin")])
        assert code == 2
        assert "UnsupportedOrder" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "measure"])
    def test_missing_target_file(self, scene_file, tmp_path, capsys, verb):
        missing = tmp_path / "absent.pgm"
        code = cli.main(
            [verb, "--scene", str(scene_file), "-I", "128", "--target", str(missing), "--output", str(tmp_path / "t")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "MissingFile" in err and str(missing) in err

    def test_missing_scene_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        assert cli.main(["validate", "--scene", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "MissingFile" in err and str(missing) in err

    def test_missing_plan_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.plan"
        assert cli.main(["sweep", "--plan", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "MissingFile" in err and str(missing) in err

    def test_missing_scene_named_in_plan(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.cfg"
        plan_path.write_text(f"scene = absent.cfg\noutput_dir = {tmp_path / 'p'}\n")
        assert cli.main(["sweep", "--plan", str(plan_path)]) == 2
        err = capsys.readouterr().err
        assert "MissingFile" in err and "absent.cfg" in err

    @pytest.mark.parametrize("verb", ["run", "measure"])
    def test_seed_beyond_the_stream_key_range(self, scene_file, tmp_path, capsys, verb):
        code = cli.main(
            [
                verb,
                "--scene",
                str(scene_file),
                "-I",
                "128",
                "--snr-db",
                "20",
                "--seed",
                str(2**128),
                "--output",
                str(tmp_path / "big"),
            ]
        )
        assert code == 2
        assert "MalformedConfig" in capsys.readouterr().err

    def test_plan_seeds_beyond_the_stream_key_range(self, scene_file, tmp_path, capsys):
        # the last point's seed, seed + 1, is one past the largest key
        plan_path = tmp_path / "plan.cfg"
        plan_path.write_text(
            f"scene = {scene_file.name}\nsnr_values = 10, 20\nseed = {2**128 - 1}\n"
            f"output_dir = {tmp_path / 'p'}\n"
        )
        assert cli.main(["sweep", "--plan", str(plan_path)]) == 2
        assert "MalformedConfig" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--records", "--masks"])
    def test_missing_reconstruct_input(self, scene_file, tmp_path, capsys, flag):
        common = ["--scene", str(scene_file), "-I", "128"]
        inputs = {"--records": tmp_path / "records.csv", "--masks": tmp_path / "masks.bin"}
        assert cli.main(["measure", *common, "--ideal-masks", "--output", str(inputs["--records"])]) == 0
        assert cli.main(["masks", *common, "--output", str(inputs["--masks"])]) == 0
        missing = inputs[flag] = tmp_path / "absent"
        code = cli.main(
            [
                "reconstruct",
                *common,
                "--records",
                str(inputs["--records"]),
                "--masks",
                str(inputs["--masks"]),
                "--output",
                str(tmp_path / "estimate.pgm"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "MissingFile" in err and str(missing) in err

    @pytest.mark.parametrize("damage", ["non-numeric cell", "short row", "header"])
    def test_malformed_records_file(self, scene_file, tmp_path, capsys, damage):
        common = ["--scene", str(scene_file), "-I", "128"]
        records, masks = tmp_path / "records.csv", tmp_path / "masks.bin"
        assert cli.main(["measure", *common, "--ideal-masks", "--output", str(records)]) == 0
        assert cli.main(["masks", *common, "--output", str(masks)]) == 0
        header, first, *rest = records.read_text().splitlines()
        cells = first.split(",")
        if damage == "non-numeric cell":
            first = ",".join([cells[0], "abc", *cells[2:]])
        elif damage == "short row":
            first = ",".join(cells[:3])
        else:
            header = header.replace("sigma2", "variance")
        records.write_text("\n".join([header, first, *rest]) + "\n")
        code = cli.main(
            ["reconstruct", *common, "--records", str(records), "--masks", str(masks), "--output", str(tmp_path / "e.pgm")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "MalformedRecords" in err and str(records) in err

    @pytest.mark.parametrize("calibration", ["max1", "lsq"])
    def test_volume_masks_for_another_depth(self, tmp_path, capsys, calibration):
        # a 2x2x2 volume reconstructed from a mask export of a 2x2x4 one
        scene_path = tmp_path / "volume.cfg"
        scene_path.write_text(TestVolumeVerbs.VOLUME_SCENE)
        volume_path = tmp_path / "target.txt"
        volume_path.write_text("2 2 2\n" + "\n".join(["1.0 0.0"] * 8) + "\n")
        common = ["--scene", str(scene_path), "-I", "16"]
        records, masks = tmp_path / "records.csv", tmp_path / "masks.bin"
        assert cli.main(["masks", *common, "--set", "n_target_z=4", "--output", str(masks)]) == 0
        assert cli.main(["measure", *common, "--ideal-masks", "--target", str(volume_path), "--output", str(records)]) == 0
        code = cli.main(
            [
                "reconstruct",
                *common,
                "--records",
                str(records),
                "--masks",
                str(masks),
                "--target",
                str(volume_path),
                "--calibration",
                calibration,
                "--output",
                str(tmp_path / "estimate.pgm"),
            ]
        )
        assert code == 2
        assert "DimensionMismatch" in capsys.readouterr().err
        assert not list(tmp_path.glob("estimate*"))

    def test_undecodable_volume_target(self, tmp_path, capsys):
        scene_path = tmp_path / "volume.cfg"
        scene_path.write_text(TestVolumeVerbs.VOLUME_SCENE)
        volume_path = tmp_path / "vol.bin"
        volume_path.write_bytes(b"2 2 2\n\xff\xfe\x00\x81")
        common = ["--scene", str(scene_path), "-I", "16", "--ideal-masks", "--target", str(volume_path)]
        assert cli.main(["measure", *common, "--output", str(tmp_path / "records.csv")]) == 2
        assert "MalformedVolume" in capsys.readouterr().err
        # a sweep records it as the failed point's error
        assert cli.main(["run", *common, "--output", str(tmp_path / "run")]) == 1
        assert "ERROR MalformedVolume" in capsys.readouterr().out

    def test_image_target_on_a_volume_scene(self, tmp_path, capsys):
        # a volume scene reads every target file as a volume, whatever its name
        scene_path = tmp_path / "volume.cfg"
        scene_path.write_text(TestVolumeVerbs.VOLUME_SCENE)
        image_path = tmp_path / "image.pgm"
        write_pgm(image_path, np.array([[0, 255], [255, 0]]))
        common = ["--scene", str(scene_path), "-I", "16", "--target", str(image_path)]
        assert cli.main(["measure", *common, "--output", str(tmp_path / "records.csv")]) == 2
        assert "MalformedVolume" in capsys.readouterr().err
        assert not (tmp_path / "records.csv").exists()
        # a sweep records it as the failed point's error, before any kernel is built
        assert cli.main(["run", *common, "--output", str(tmp_path / "run")]) == 1
        out = capsys.readouterr().out
        assert "ERROR MalformedVolume" in out and "(kernel builds: 0)" in out

    @pytest.mark.parametrize("measured", ["volume", "plane"])
    def test_records_of_the_other_kind(self, scene_file, tmp_path, capsys, measured):
        # plane records are magnitudes and volume records complex fields
        volume_path = tmp_path / "volume.cfg"
        volume_path.write_text(TestVolumeVerbs.VOLUME_SCENE)
        scenes = {"plane": ["--scene", str(scene_file), "-I", "128"], "volume": ["--scene", str(volume_path), "-I", "128"]}
        other = scenes["plane" if measured == "volume" else "volume"]
        records, masks = tmp_path / "records.csv", tmp_path / "masks.bin"
        assert cli.main(["measure", *scenes[measured], "--ideal-masks", "--output", str(records)]) == 0
        assert cli.main(["masks", *other, "--output", str(masks)]) == 0
        argv = ["reconstruct", *other, "--records", str(records), "--masks", str(masks)]
        assert cli.main([*argv, "--output", str(tmp_path / "estimate.pgm")]) == 2
        assert "KindMismatch" in capsys.readouterr().err
        assert not list(tmp_path.glob("estimate*"))

    def test_scene_outside_the_near_field_exits_2_before_any_directory(self, scene_file, tmp_path, capsys):
        # validate rejects the scene itself, so run and sweep do too
        scene_argv = ["--scene", str(scene_file), "--set", "target_distance=30"]
        assert cli.main(["validate", *scene_argv]) == 2
        for verb in ("run", "sweep"):
            out = tmp_path / verb
            assert cli.main([verb, *scene_argv, "-I", "128", "--output", str(out)]) == 2
            assert "NearFieldViolation" in capsys.readouterr().err
            assert not out.exists()
        # a swept distance outside the bound fails only its own points
        out = tmp_path / "swept"
        argv = ["sweep", "--scene", str(scene_file), "-I", "128", "--z-sweep", "30,0.125"]
        assert cli.main([*argv, "--output", str(out)]) == 0
        assert (out / "errors.log").read_text().startswith("point 0: NearFieldViolation: ")
        assert [row["nmse"] != "" for row in read_metrics(out)] == [False, True]

    def test_huge_mask_count_exits_2_before_any_mask_array(self, scene_file, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a mask set was built")

        monkeypatch.setattr(md, "ideal_masks", unreachable)
        monkeypatch.setattr(rs, "realize_masks", unreachable)
        out = tmp_path / "huge"
        argv = ["run", "--scene", str(scene_file), "-I", str(2**30), "--output", str(out)]
        assert cli.main(argv) == 2
        assert "MaskSetSizeError" in capsys.readouterr().err
        assert not out.exists()


class TestRunnerInternals:
    def test_truncated_kernel_cache_is_rebuilt(self, scene_file, tmp_path):
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file),
            target="block",
            i_values=(128,),
            snr_values=(None,),
            keep_artifacts=True,
            output_dir=str(tmp_path / "cache"),
        )
        assert rn.run_plan(plan).kernel_builds == 1
        (cached,) = (tmp_path / "cache" / "kernels").glob("kernel_*.bin")
        intact = cached.read_bytes()
        cached.write_bytes(intact[: len(intact) // 2])

        result = rn.run_plan(plan)
        assert result.points[0].error is None
        assert result.kernel_builds == 1
        assert cached.read_bytes() == intact
        assert not list((tmp_path / "cache").rglob("*.tmp"))
        assert rn.run_plan(plan).kernel_builds == 0

    def test_full_size_plane_kernel_cache_is_rebuilt(self, scene_file, tmp_path):
        # a cache file written when plane kernels stored every row
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file), i_values=(128,), output_dir=str(tmp_path / "fresh")
        )
        rn.run_plan(plan)
        scene = sc.validate_scene(plan.scene)
        cached = tmp_path / "cache" / "kernels" / f"kernel_{scene.fingerprint[:16]}.bin"
        cached.parent.mkdir(parents=True)
        header = f"kind=Z_2d m={scene.n_target} n={scene.n_ris} fingerprint={scene.fingerprint}\n"
        em_core.write_complex_file(cached, header, em_core.kernel_2d(scene, sc.sample_grids(scene)).entries)
        stale = dataclasses.replace(plan, keep_artifacts=True, output_dir=str(tmp_path / "cache"))

        result = rn.run_plan(stale)
        assert result.kernel_builds == 1 and result.points[0].error is None
        assert cached.stat().st_size == len(header) + 16 * (scene.n_target // 4) * scene.n_ris
        metrics = (tmp_path / "cache" / "metrics.csv").read_bytes()
        assert metrics == (tmp_path / "fresh" / "metrics.csv").read_bytes()
        assert rn.run_plan(stale).kernel_builds == 0

    def test_moments_and_fields_once_per_mask_set(self, scene_file, tmp_path, monkeypatch):
        # two distances x two mask counts x three SNR points: four mask sets
        moments, fields = [], []

        def counted_moments(masks, _original=md.MaskSet.moments.func):
            moments.append(masks.count)
            return _original(masks)

        def counted_fields(*args, _original=ms.noiseless_fields):
            fields.append(args[2].count)
            return _original(*args)

        counted = functools.cached_property(counted_moments)
        counted.__set_name__(md.MaskSet, "moments")
        monkeypatch.setattr(md.MaskSet, "moments", counted)
        monkeypatch.setattr(ms, "noiseless_fields", counted_fields)
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file),
            i_values=(64, 128),
            snr_values=(None, 10.0, 20.0),
            z_values=(0.125, 0.15),
            output_dir=str(tmp_path / "sweep"),
        )
        result = rn.run_plan(plan)
        assert all(p.error is None for p in result.points) and len(result.points) == 12
        assert moments == fields == [64, 128, 64, 128]

    def test_cached_plane_kernel_keeps_its_mirror_sectors(self, scene_file, tmp_path, monkeypatch):
        sector_counts = []

        def recorded(*args, _original=rs.tikhonov_inverse, **kwargs):
            inv = _original(*args, **kwargs)
            sector_counts.append(len(inv.sectors))
            return inv

        monkeypatch.setattr(rs, "tikhonov_inverse", recorded)
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file),
            i_values=(128,),
            keep_artifacts=True,
            output_dir=str(tmp_path / "cache"),
        )
        builds = [rn.run_plan(plan).kernel_builds for _ in range(2)]
        assert builds == [1, 0]  # the second run loads the kernel from the cache
        assert sector_counts == [4, 4]

    def test_previous_kernel_is_freed_before_the_next_build(self, scene_file, tmp_path, monkeypatch):
        # a sweep holds one distance's kernel at a time
        built, alive_at_build = [], []

        def recorded(*args, _original=em_core.assemble_kernel, **kwargs):
            alive_at_build.append(sum(ref() is not None for ref in built))
            kernel = _original(*args, **kwargs)
            built.append(weakref.ref(kernel.stored))
            return kernel

        monkeypatch.setattr(em_core, "assemble_kernel", recorded)
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file),
            i_values=(128,),
            z_values=(0.125, 0.15, 0.2),
            output_dir=str(tmp_path / "sweep"),
        )
        assert all(p.error is None for p in rn.run_plan(plan).points)
        assert alive_at_build == [0, 0, 0]

    @staticmethod
    def record_live_kernels(monkeypatch):
        """Record, at each realize_masks and save_profiles call, how many assembled kernels are alive."""
        built, alive = [], []

        def assembled(*args, _original=em_core.assemble_kernel, **kwargs):
            kernel = _original(*args, **kwargs)
            built.append(weakref.ref(kernel.stored))
            return kernel

        def recording(name, original):
            def call(*args, **kwargs):
                alive.append((name, sum(ref() is not None for ref in built)))
                return original(*args, **kwargs)

            return call

        monkeypatch.setattr(em_core, "assemble_kernel", assembled)
        for name in ("realize_masks", "save_profiles"):
            monkeypatch.setattr(rs, name, recording(name, getattr(rs, name)))
        return alive

    def test_kernel_is_freed_once_decomposed(self, scene_file, tmp_path, monkeypatch):
        # the inverse keeps its sector blocks, so no kernel outlives tikhonov_inverse
        alive = self.record_live_kernels(monkeypatch)
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file),
            i_values=(64, 128),
            z_values=(0.125, 0.15),
            keep_artifacts=True,
            output_dir=str(tmp_path / "sweep"),
        )
        result = rn.run_plan(plan)
        assert all(p.error is None for p in result.points) and result.kernel_builds == 2
        assert alive == [("realize_masks", 0), ("save_profiles", 0)] * 4

    def test_synthesize_verb_frees_the_kernel_once_decomposed(self, scene_file, tmp_path, monkeypatch):
        alive = self.record_live_kernels(monkeypatch)
        argv = ["synthesize", "--scene", str(scene_file), "-I", "128", "--output", str(tmp_path / "s")]
        assert cli.main(argv) == 0
        assert alive == [("realize_masks", 0), ("save_profiles", 0)]

    def test_kernel_reused_across_snr_points(self, scene_file, tmp_path):
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file),
            target="block",
            i_values=(128,),
            snr_values=(0.0, 10.0, 20.0),
            output_dir=str(tmp_path / "reuse"),
            calibration="lsq",
        )
        result = rn.run_plan(plan)
        assert result.kernel_builds == 1
        assert all(p.error is None for p in result.points)

    def test_error_points_are_recorded_and_run_continues(self, scene_file, tmp_path):
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file),
            target="block",
            i_values=(128,),
            snr_values=(None,),
            z_values=(50.0, 0.125),  # 50 m is beyond the 25 m Rayleigh distance
            ideal_masks=True,
            output_dir=str(tmp_path / "err"),
        )
        result = rn.run_plan(plan)
        errors = [p for p in result.points if p.error is not None]
        assert len(errors) == 1 and "NearFieldViolation" in errors[0].error
        assert (tmp_path / "err" / "errors.log").exists()
        rows = read_metrics(tmp_path / "err")
        assert rows[0]["nmse"] == "" and rows[1]["nmse"] != ""

    def test_workers_key_accepts_only_one(self, scene_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.cfg"
        body = f"scene = {scene_file.name}\ni_values = 128\noutput_dir = {tmp_path / 'w'}\n"
        plan_path.write_text(body + "workers = 1\n")
        assert rn.load_plan(plan_path).i_values == (128,)
        plan_path.write_text(body + "workers = 2\n")
        assert cli.main(["sweep", "--plan", str(plan_path)]) == 2
        assert "MalformedConfig" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--scene", str(scene_file), "--workers", "2"])
        assert exit_info.value.code == 2

    def test_unreachable_distance_fails_only_its_points(self, scene_file, tmp_path):
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file),
            target="block",
            i_values=(128,),
            snr_values=(None, 20.0),
            z_values=(0.125, 50.0, 0.25),  # 50 m is beyond the 25 m Rayleigh distance
            keep_artifacts=True,
            output_dir=str(tmp_path / "far"),
        )
        result = rn.run_plan(plan)
        failed = [p.index for p in result.points if p.error is not None]
        assert failed == [p.index for p in result.points if p.z_prime == 50.0] == [2, 3]
        assert all(result.points[i].error.startswith("NearFieldViolation: ") for i in failed)
        assert all(p.nmse is not None for p in result.points if p.error is None)
        log = (tmp_path / "far" / "errors.log").read_text().splitlines()
        assert [line.split(":")[0] for line in log] == ["point 2", "point 3"]
        names = [p.name for p in (tmp_path / "far" / "artifacts").iterdir()]
        for prefix in ("masks_ideal_", "masks_realized_", "profiles_", "synthesis_"):
            assert sum(n.startswith(prefix) for n in names) == 2  # one per reachable distance
        assert result.kernel_builds == 2

    def test_shared_builds_once_per_distance_and_mask_count(self, scene_file, tmp_path, monkeypatch):
        calls = {"ideal_masks": 0, "tikhonov_inverse": 0}
        for module, name in ((md, "ideal_masks"), (rs, "tikhonov_inverse")):
            def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file),
            target="block",
            i_values=(128, 256),
            snr_values=(None, 10.0, 20.0),
            z_values=(0.125, 0.25),
            output_dir=str(tmp_path / "shared"),
        )
        result = rn.run_plan(plan)
        assert all(p.error is None for p in result.points)
        assert calls == {"ideal_masks": 4, "tikhonov_inverse": 2}

    def test_snapshot_records_numpy_and_blas(self, scene_file, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file), i_values=(128,), output_dir=str(tmp_path / "snap")
        )
        rn.run_plan(plan)
        lines = (tmp_path / "snap" / "config_snapshot.txt").read_text().splitlines()
        assert f"env.numpy = {np.__version__!r}" in lines
        assert any(line.startswith("env.blas = '") for line in lines)
        assert "env.OPENBLAS_NUM_THREADS = '1'" in lines
        assert "env.MKL_NUM_THREADS = None" in lines

    def test_gamma_defaults_follow_distance_bands(self):
        assert rn.default_gamma(2.5) == 1e-12
        assert rn.default_gamma(4.0) == 1e-14
        assert rn.default_gamma(8.0) == 1e-15
        assert rn.default_gamma(0.125) == 1e-12  # desk distances clamp to the near band

    def test_keep_artifacts_exports_masks_profiles_and_kernels(self, scene_file, tmp_path):
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file),
            target="block",
            i_values=(128,),
            snr_values=(None,),
            keep_artifacts=True,
            output_dir=str(tmp_path / "keep"),
        )
        rn.run_plan(plan)
        artifact_dir = tmp_path / "keep" / "artifacts"
        names = sorted(p.name for p in artifact_dir.iterdir())
        assert any(n.startswith("masks_ideal_") for n in names)
        assert any(n.startswith("masks_realized_") for n in names)
        assert any(n.startswith("profiles_") for n in names)
        assert any(n.startswith("synthesis_") for n in names)
        assert list((tmp_path / "keep" / "kernels").glob("kernel_*.bin"))

    @staticmethod
    def record_inverses(monkeypatch) -> list:
        """Record the inverse passed to each realize_masks call."""
        inverses = []

        def recorded(inv, *args, _original=rs.realize_masks, **kwargs):
            inverses.append(inv)
            return _original(inv, *args, **kwargs)

        monkeypatch.setattr(rs, "realize_masks", recorded)
        return inverses

    def test_inverse_drops_its_blocks_when_nothing_is_exported(self, scene_file, tmp_path, monkeypatch):
        inverses = self.record_inverses(monkeypatch)
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file),
            i_values=(64, 128),
            z_values=(0.125, 0.15),
            output_dir=str(tmp_path / "run"),
        )
        result = rn.run_plan(plan)
        assert all(p.error is None for p in result.points)
        assert len(inverses) == 4
        assert all(s.block is None for inv in inverses for s in inv.sectors)
        assert all(inv.shape == (64, 256) for inv in inverses)

    def test_kept_artifacts_keep_the_blocks_and_the_profile_bytes(self, scene_file, tmp_path, monkeypatch):
        inverses = self.record_inverses(monkeypatch)
        cfg = sc.load_scene_config(scene_file)
        plan = rn.ExperimentPlan(
            scene=cfg, i_values=(128,), keep_artifacts=True, output_dir=str(tmp_path / "keep")
        )
        assert all(p.error is None for p in rn.run_plan(plan).points)
        (inv,) = inverses
        assert all(s.block is not None for s in inv.sectors)
        # the same profiles, exported from a freshly built inverse
        scene = sc.validate_scene(cfg)
        grids = sc.sample_grids(scene)
        gamma = rn.default_gamma(cfg.target_distance)
        fresh = rs.tikhonov_inverse(em_core.assemble_kernel(scene, grids), gamma)
        expected = tmp_path / "profiles.bin"
        ideal = md.ideal_masks(scene, grids, 128)
        rs.save_profiles(expected, fresh, ideal, cfg.amplification, scene.fingerprint)
        (written,) = (tmp_path / "keep" / "artifacts").glob("profiles_*.bin")
        assert written.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("verb, blocks", [("measure", False), ("synthesize", True)])
    def test_only_the_synthesize_verb_keeps_the_blocks(self, scene_file, tmp_path, monkeypatch, verb, blocks):
        inverses = self.record_inverses(monkeypatch)
        argv = [verb, "--scene", str(scene_file), "-I", "128", "--output", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        (inv,) = inverses
        assert [s.block is not None for s in inv.sectors] == [blocks] * 4


class TestVolumeRun:
    def test_volume_pipeline_writes_slice_images(self, tmp_path):
        cfg = sc.SceneConfig(
            wavelength=0.01,
            ris_len_x=0.25,
            ris_len_y=0.25,
            target_len_x=0.125,
            target_len_y=0.125,
            target_distance=0.125,
            incident_elevation=np.radians(30.0),
            receiver_pos=(5.0, 5.0, -1.25),
            n_ris_x=16,
            n_ris_y=16,
            n_target_x=2,
            n_target_y=2,
            n_target_z=2,
            target_depth=0.0625,
            target_kind=sc.VOLUME_3D,
        )
        plan = rn.ExperimentPlan(
            scene=cfg,
            target="block",
            i_values=(16,),
            snr_values=(None,),
            ideal_masks=True,
            calibration="none",
            output_dir=str(tmp_path / "vol"),
        )
        result = rn.run_plan(plan)
        assert result.points[0].error is None
        assert (tmp_path / "vol" / "estimate_000_slice0_re.pgm").exists()
        assert (tmp_path / "vol" / "estimate_000_slice1_im.pgm").exists()


class TestBlasThreads:
    """BLAS sums in a thread-count-dependent order, so only the last digits may move."""

    @staticmethod
    def sweep_metrics(scene_path, sweep_args, run_dir, threads):
        env = dict(os.environ, PYTHONPATH=str(Path(risimage.__file__).parent.parent))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        command = [sys.executable, "-m", "risimage.cli", "sweep", "--scene", str(scene_path), *sweep_args]
        done = subprocess.run(
            [*command, "--output", str(run_dir)], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        return read_metrics(run_dir)

    @pytest.mark.parametrize(
        "scene_text, sweep_args",
        [
            (SCENE_TEXT, ["--i-sweep", "128", "--snr-sweep", "none,20", "--z-sweep", "0.125,0.25"]),
            (TestVolumeVerbs.VOLUME_SCENE, ["--i-sweep", "16", "--snr-sweep", "none,20", "--z-sweep", "0.125,0.15"]),
            # odd sizes put a centre line into the even mirror sectors
            (
                SCENE_TEXT.replace("n_ris_x = 16", "n_ris_x = 15").replace("n_target_x = 8", "n_target_x = 7"),
                ["--i-sweep", "128", "--snr-sweep", "none,20", "--z-sweep", "0.125,0.25"],
            ),
        ],
        ids=["plane", "volume", "plane-odd"],
    )
    def test_one_and_two_threads_agree(self, tmp_path, scene_text, sweep_args):
        scene_path = tmp_path / "scene.cfg"
        scene_path.write_text(scene_text)
        one, two = (
            self.sweep_metrics(scene_path, sweep_args, tmp_path / f"threads{n}", n) for n in (1, 2)
        )
        assert len(one) == len(two) == 4
        for row_one, row_two in zip(one, two):
            assert row_one["nmse"], row_one
            exact = ("I", "snr_db", "z_prime", "gamma", "retained_rank", "seed")
            assert [row_one[key] for key in exact] == [row_two[key] for key in exact]
            assert float(row_two["nmse"]) == pytest.approx(float(row_one["nmse"]), rel=1e-11, abs=0.0)
