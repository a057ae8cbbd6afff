"""Command-line verbs, plan files, run directories, and their determinism."""

import argparse
import csv
import dataclasses
import errno
import functools
import math
import os
import shutil
import subprocess
import sys
import time
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
from risimage.errors import CacheMismatch, EmptySet, KindMismatch, MaskSetSizeError, ZeroSolution
from risimage.targets import resolve_target, write_pgm

from conftest import desk_config, peak_traced_bytes, small_config, volume_config

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


def help_text(argv, capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(argv)
    assert done.value.code == 0
    return capsys.readouterr().out


class TestHelp:
    @pytest.mark.parametrize("columns", ["52", "80", "131"])
    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]], ids=["risimage", "sweep"])
    def test_help_is_that_of_the_default_formatter(self, argv, columns, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", columns)
        built = help_text(argv, capsys)
        init = argparse.HelpFormatter.__init__

        def default_width(self, prog, indent_increment=2, max_help_position=24, width=None):
            init(self, prog, indent_increment, max_help_position)  # the terminal width, looked up anew

        monkeypatch.setattr(argparse.HelpFormatter, "__init__", default_width)
        assert built.startswith("usage: risimage")
        assert built.encode() == help_text(argv, capsys).encode()

    def test_the_terminal_width_is_looked_up_once_per_parser(self, monkeypatch):
        calls = []
        size = shutil.get_terminal_size

        def counted(*args, **kwargs):
            calls.append(args)
            return size(*args, **kwargs)

        monkeypatch.setattr(shutil, "get_terminal_size", counted)
        cli.build_parser().parse_args(["sweep", "--plan", "plan.txt"])
        assert len(calls) == 1


def parser_output(parser, argv, capsys):
    """The exit code and the bytes of stdout and stderr of ``parser`` on ``argv``."""
    with pytest.raises(SystemExit) as done:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return done.value.code, captured.out.encode(), captured.err.encode()


class TestVerbParser:
    """``main`` builds the subparser of the verb it is given alone."""

    @pytest.mark.parametrize("verb", list(cli.VERBS))
    def test_help_and_errors_match_the_full_parser(self, verb, capsys):
        one = cli.build_parser(verb)
        (subparsers,) = [action for action in one._actions if isinstance(action, argparse._SubParsersAction)]
        assert list(subparsers.choices) == [verb]
        # the verb's help, an option it lacks, and a bad value or an option it lacks
        for argv in ([verb, "--help"], [verb, "--bogus", "1"], [verb, "-I", "x"]):
            assert parser_output(one, argv, capsys) == parser_output(cli.build_parser(), argv, capsys)

    def test_main_builds_only_the_verb_it_runs(self, scene_file, monkeypatch):
        built = []

        def recorded(verb=None, _original=cli.build_parser):
            built.append(verb)
            return _original(verb)

        monkeypatch.setattr(cli, "build_parser", recorded)
        assert cli.main(["validate", "--scene", str(scene_file)]) == 0
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        with pytest.raises(SystemExit):
            cli.main(["bogus"])
        assert built == ["validate", None, None]

    @pytest.mark.parametrize("argv", [["bogus", "--scene", "s.cfg"], [], ["--scene", "s.cfg"]])
    def test_an_unknown_or_missing_verb_fails_as_before(self, argv, capsys):
        with pytest.raises(SystemExit) as done:
            cli.main(argv)
        assert done.value.code == 2
        err = capsys.readouterr().err.encode()
        assert (2, b"", err) == parser_output(cli.build_parser(), argv, capsys)
        assert b"{validate,kernel,masks,synthesize,measure,reconstruct,run,sweep}" in err


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
    def test_full_size_plane_kernel_file_is_replaced(self, scene_file, tmp_path, capsys):
        # plane kernel files once held every row; the verb writes the quadrant rows over such a file
        scene = sc.validate_scene(sc.load_scene_config(scene_file))
        grids = sc.sample_grids(scene)
        out = tmp_path / "kernel.bin"
        header = f"kind=Z_2d m={scene.n_target} n={scene.n_ris} fingerprint={scene.fingerprint}\n"
        with em_core.complex_file_writer(out, header, (scene.n_target, scene.n_ris)) as write:
            write(em_core.assemble_kernel(scene, grids).entries)
        assert cli.main(["kernel", "--scene", str(scene_file), "--output", str(out)]) == 0
        assert "assembled" in capsys.readouterr().out
        assert out.stat().st_size == len(header) + 16 * (scene.n_target // 4) * scene.n_ris
        em_core.load_kernel(out, scene, grids)

    def test_force_is_no_longer_an_option(self, scene_file, tmp_path, capsys):
        out = tmp_path / "kernel.bin"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["kernel", "--scene", str(scene_file), "--output", str(out), "--force"])
        assert exit_info.value.code == 2
        assert "--force" in capsys.readouterr().err and not out.exists()

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


    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_ris_x": 32, "n_ris_y": 32, "n_target_x": 16, "n_target_y": 16},
            {"target_len_y": 0.1},
            {"n_ris_x": 33, "n_ris_y": 33, "n_target_x": 15, "n_target_y": 15},
            {"target_kind": "volume3d", "n_target_x": 2, "n_target_y": 2, "n_target_z": 2, "target_depth": 0.0625},
        ],
        ids=["desk", "oblong", "odd-15-33", "volume"],
    )
    def test_streamed_file_holds_the_saved_kernel(self, scene_file, tmp_path, overrides):
        sets = [a for key, value in overrides.items() for a in ("--set", f"{key}={value}")]
        out = tmp_path / "kernel.bin"
        assert cli.main(["kernel", "--scene", str(scene_file), *sets, "--output", str(out)]) == 0
        scene = sc.validate_scene(dataclasses.replace(sc.load_scene_config(scene_file), **overrides))
        em_core.save_kernel(tmp_path / "whole.bin", em_core.assemble_kernel(scene, sc.sample_grids(scene)))
        assert out.read_bytes() == (tmp_path / "whole.bin").read_bytes()
        assert not list(tmp_path.glob(".*.tmp"))

    def test_build_never_holds_the_quadrant(self, scene_file, tmp_path):
        # at 64^2 x 32^2 the stored quadrant is 16 MiB; the file takes it a row block at a time
        sizes = [f"{key}={n}" for key, n in (("n_ris_x", 64), ("n_ris_y", 64), ("n_target_x", 32), ("n_target_y", 32))]
        argv = ["kernel", "--scene", str(scene_file), *(a for s in sizes for a in ("--set", s))]
        peak, code = peak_traced_bytes(lambda: cli.main([*argv, "--output", str(tmp_path / "kernel.bin")]))
        assert code == 0
        quadrant = 16 * 16 * 64 * 64 * 16
        assert (tmp_path / "kernel.bin").stat().st_size > quadrant
        assert peak < quadrant // 2

    def test_failing_build_leaves_the_old_file(self, tmp_path, capsys):
        scene_path = tmp_path / "volume.cfg"
        scene_path.write_text(TestVolumeVerbs.VOLUME_SCENE)
        out = tmp_path / "kernel.bin"
        assert cli.main(["kernel", "--scene", str(scene_path), "--output", str(out)]) == 0
        old = out.read_bytes()
        argv = ["kernel", "--scene", str(scene_path), *TestBadInput.OVERFLOWING_VOLUME, "--output", str(out)]
        assert cli.main(argv) == 2
        assert "NonFiniteKernel" in capsys.readouterr().err
        assert out.read_bytes() == old
        assert not list(tmp_path.glob(".*.tmp"))


class TestMasksVerb:
    def test_exports_ideal_masks(self, scene_file, tmp_path):
        out = tmp_path / "masks.bin"
        assert cli.main(["masks", "--scene", str(scene_file), "-I", "128", "--output", str(out)]) == 0
        kind, vectors, _ = md.load_mask_vectors(out)
        assert kind == md.KIND_MASK2D
        assert vectors.shape == (128, 64)

    def test_a_full_disk_exits_2_and_keeps_the_old_file(self, scene_file, tmp_path, monkeypatch, capsys):
        out = tmp_path / "masks.bin"
        out.write_bytes(b"old")

        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(em_core.os, "posix_fallocate", full, raising=False)
        assert cli.main(["masks", "--scene", str(scene_file), "-I", "128", "--output", str(out)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_bytes() == b"old"
        assert list(tmp_path.glob(".*.tmp")) == []


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
        ms.records_to_csv(tmp_path / "expected.csv", ms.measure(fields, stored.kind, [20.0], [3]))
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
        assert formed == [(128, 64)]  # the 128 distinct rows that both counts read, once


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


    @pytest.mark.parametrize("volume", [False, True], ids=["plane", "volume"])
    def test_profiles_of_the_verb_are_those_save_profiles_writes(self, tmp_path, volume):
        # the verb's profiles are written by a reader of the pass that also takes its
        # realized masks; they hold the bytes of the export of the same set alone
        scene_path = tmp_path / "scene.cfg"
        scene_path.write_text(TestVolumeVerbs.VOLUME_SCENE if volume else SCENE_TEXT)
        count = 16 if volume else 128
        argv = ["synthesize", "--scene", str(scene_path), "-I", str(count), "--output", str(tmp_path / "s")]
        assert cli.main(argv) == 0
        scene = sc.validate_scene(sc.load_scene_config(scene_path))
        grids = sc.sample_grids(scene)
        inv = rs.tikhonov_inverse(em_core.assemble_kernel(scene, grids), rn.default_gamma(scene.config.target_distance))
        expected = tmp_path / "expected.bin"
        ideal = md.ideal_masks(scene, grids, count)
        rs.save_profiles(expected, inv, ideal, scene.config.amplification, scene.fingerprint)
        assert (tmp_path / "s" / "profiles.bin").read_bytes() == expected.read_bytes()


class TestVolumeVerbs:
    VOLUME_SCENE = SCENE_TEXT.replace("n_target_x = 8", "n_target_x = 2").replace(
        "n_target_y = 8", "n_target_y = 2"
    ) + "target_kind = volume3d\nn_target_z = 2\ntarget_depth = 0.0625\n"

    @staticmethod
    def volume_scene(tmp_path):
        path = tmp_path / "volume.cfg"
        path.write_text(TestVolumeVerbs.VOLUME_SCENE)
        scene = sc.validate_scene(sc.load_scene_config(path))
        return path, scene, sc.sample_grids(scene)

    @staticmethod
    def write_old_volume_file(path, scene, grids):
        """A volume kernel file holding every weighted row, as volume kernel files once did."""
        header = f"kind=Y_3d m={scene.n_target} n={scene.n_ris} fingerprint={scene.fingerprint}\n"
        path.parent.mkdir(parents=True, exist_ok=True)
        with em_core.complex_file_writer(path, header, (scene.n_target, scene.n_ris)) as write:
            write(em_core.assemble_kernel(scene, grids).entries)
        return header

    def test_old_volume_kernel_file_is_replaced(self, tmp_path, capsys):
        scene_path, scene, grids = self.volume_scene(tmp_path)
        out = tmp_path / "kernel.bin"
        header = self.write_old_volume_file(out, scene, grids)
        with pytest.raises(CacheMismatch, match="body holds"):
            em_core.load_kernel(out, scene, grids)
        assert cli.main(["kernel", "--scene", str(scene_path), "--output", str(out)]) == 0
        assert "assembled Y_3d 8x256 kernel" in capsys.readouterr().out
        # three tables' quadrant rows (one pixel of the 2 x 2 slice) in each of 2 slices
        assert out.stat().st_size == len(header) + len("tables=3 ") + 16 * 3 * 2 * scene.n_ris
        em_core.load_kernel(out, scene, grids)

    def test_exported_profiles_realize_the_exported_masks(self, tmp_path):
        # the kernel maps each exported profile onto its exported realized mask
        scene_path, scene, grids = self.volume_scene(tmp_path)
        argv = ["run", "--scene", str(scene_path), "-I", "16", "--keep-artifacts", "--output", str(tmp_path / "run")]
        assert cli.main(argv) == 0
        (profiles_path,) = (tmp_path / "run" / "artifacts").glob("profiles_*.bin")
        (masks_path,) = (tmp_path / "run" / "artifacts").glob("masks_realized_*.bin")
        _, profiles, _ = md.load_mask_vectors(profiles_path)
        _, masks, _ = md.load_mask_vectors(masks_path)
        assert profiles.shape == (16, scene.n_ris) and masks.shape == (16, scene.n_target)
        realized = em_core.assemble_kernel(scene, grids).entries @ profiles.T
        np.testing.assert_allclose(realized, masks.T, rtol=0, atol=1e-12 * np.abs(masks).max())

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
        for module, name in ((rc, "reconstruct_2d"), (rs, "profile_writer")):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        common = ["--scene", str(scene_file), "-I", "128"]
        assert cli.main(["run", *common, "--keep-artifacts", "--output", str(tmp_path / "run")]) == 0
        assert sorted(calls) == ["profile_writer", "reconstruct_2d"]
        calls.clear()
        assert cli.main(["synthesize", *common, "--output", str(tmp_path / "synth")]) == 0
        assert calls == ["profile_writer"]
        calls.clear()
        assert cli.main(["measure", *common, "--output", str(tmp_path / "records.csv")]) == 0
        masks = str(tmp_path / "synth" / "masks_realized.bin")
        argv = ["reconstruct", *common, "--records", str(tmp_path / "records.csv"), "--masks", masks]
        assert cli.main([*argv, "--output", str(tmp_path / "estimate.pgm")]) == 0
        assert calls == ["reconstruct_2d"]

    def test_measure_verb_takes_the_plan_noise_settings(self, scene_file, tmp_path, monkeypatch):
        # no flag sets the thermal noise density or bandwidth, so the plan is given them here
        step_plan = cli._step_plan

        def with_noise(args, synthesis=None):
            plan, scene = step_plan(args, synthesis)
            return dataclasses.replace(plan, n0_dbm_per_hz=-150.0, bandwidth_hz=2e6), scene

        monkeypatch.setattr(cli, "_step_plan", with_noise)
        records = tmp_path / "records.csv"
        noise = ["--snr-db", "20", "--noise-mode", "absolute", "--seed", "4"]
        argv = ["measure", "--scene", str(scene_file), "-I", "128", *noise, "--output", str(records)]
        assert cli.main(argv) == 0
        meas = ms.records_from_csv(records)
        assert meas.noise_variance == (ms.noise_power_watts(-150.0, 2e6),) and meas.seed == (4,)

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

    @pytest.mark.parametrize("count", ["4", "8"])
    @pytest.mark.parametrize("pixels, zero_row", [(1, 1), (2, 3)])
    def test_one_or_two_pixel_target_is_rejected_before_any_build(
        self, scene_file, tmp_path, capsys, count, pixels, zero_row
    ):
        # one point on Hadamard column 1 (two on columns 1 and 2) leaves a design row that
        # is zero at every point, whatever the mask count: no profile realizes it
        small = ["--scene", str(scene_file), "--set", f"n_target_x={pixels}", "--set", "n_target_y=1", "-I", count]
        message = (
            f"error: MalformedConfig: a target of {pixels} sample point{'s' if pixels > 1 else ''} cannot be "
            f"synthesized: design row {zero_row} is zero at every point, and no profile realizes it; "
            "use ideal masks or at least 3 target points\n"
        )
        for verb in ("run", "synthesize", "measure"):
            assert cli.main([verb, *small, "--output", str(tmp_path / verb)]) == 2
            assert capsys.readouterr().err == message
            assert not (tmp_path / verb).exists()
        # the ideal masks need no synthesis
        assert cli.main(["masks", *small, "--output", str(tmp_path / "masks.bin")]) == 0
        assert cli.main(["measure", *small, "--ideal-masks", "--output", str(tmp_path / "records.csv")]) == 0
        assert cli.main(["run", *small, "--ideal-masks", "--output", str(tmp_path / "ideal")]) == 0
        nmse = float(read_metrics(tmp_path / "ideal")[0]["nmse"])
        assert nmse == 0.0 if pixels == 1 else nmse < 1e-20

    def test_three_pixel_target_is_synthesized(self, scene_file, tmp_path):
        three = ["--scene", str(scene_file), "--set", "n_target_x=3", "--set", "n_target_y=1", "-I", "4"]
        assert cli.main(["run", *three, "--output", str(tmp_path / "run")]) == 0
        assert read_metrics(tmp_path / "run")[0]["nmse"] != ""


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

    @pytest.mark.parametrize(
        "single, listed",
        [(["--snr-db", "20"], ["--snr-sweep", "5"]), (["-I", "128"], ["--i-sweep", "256"])],
        ids=["snr", "count"],
    )
    def test_a_list_beside_the_value_it_replaces_exits_2(self, scene_file, tmp_path, capsys, single, listed):
        argv = ["sweep", "--scene", str(scene_file), *single, *listed, "--output", str(tmp_path / "s")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "MalformedConfig" in err and f"sweep {listed[0]} would ignore {single[0]}" in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "listed, column, expected",
        [(["--snr-sweep", "5,none"], "snr_db", ["5.0", ""]), (["--i-sweep", "128,256"], "I", ["128", "256"])],
        ids=["snr", "count"],
    )
    def test_each_list_alone_sets_its_axis(self, scene_file, tmp_path, listed, column, expected):
        out = tmp_path / "s"
        assert cli.main(["sweep", "--scene", str(scene_file), *listed, "--output", str(out)]) == 0
        assert [row[column] for row in read_metrics(out)] == expected


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

    @pytest.mark.parametrize("key", ["scene", "output_dir", "target"])
    def test_nul_byte_in_a_plan_value(self, scene_file, tmp_path, capsys, key):
        entries = {"scene": scene_file.name, "output_dir": str(tmp_path / "p"), "target": "block"}
        entries[key] = entries[key][:3] + "\x00" + entries[key][3:]
        plan_path = tmp_path / "plan.cfg"
        plan_path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        assert cli.main(["sweep", "--plan", str(plan_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedConfig: ") and f"{key!r} holds a NUL byte" in err
        assert "Traceback" not in err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["plan.cfg", "scene.cfg"]

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

    @pytest.mark.parametrize("n0", ["5000", "-5000"], ids=["overflow", "underflow"])
    def test_noise_power_out_of_range_in_plan_file(self, scene_file, tmp_path, capsys, n0):
        # N0 * B overflows (a traceback) or underflows to 0.0 (a noisy point measured without noise)
        plan_path = tmp_path / "plan.cfg"
        entries = f"noise_mode = absolute\nn0_dbm_per_hz = {n0}\nsnr_values = 20\n"
        plan_path.write_text(f"scene = {scene_file.name}\n{entries}output_dir = {tmp_path / 'p'}\n")
        assert cli.main(["sweep", "--plan", str(plan_path)]) == 2
        err = capsys.readouterr().err
        assert "MalformedConfig" in err and f"n0_dbm_per_hz {float(n0)!r} and bandwidth_hz 1000000.0" in err
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

    def test_non_finite_kernel_leaves_no_cache_file(self, tmp_path):
        # the kernel streams into the inverse, never to a file
        scene_path = tmp_path / "volume.cfg"
        scene_path.write_text(TestVolumeVerbs.VOLUME_SCENE)
        argv = ["run", "--scene", str(scene_path), *self.OVERFLOWING_VOLUME, "-I", "16", "--keep-artifacts"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--output", str(tmp_path / "r")]) == 1
        assert "NonFiniteKernel" in (tmp_path / "r" / "errors.log").read_text()
        assert not (tmp_path / "r" / "kernels").exists()

    def test_overflowing_wavenumber_fails_its_ideal_point(self, tmp_path):
        # ideal masks skip the kernel, so the Born field scale k**2 is the first to overflow
        scene_path = tmp_path / "volume.cfg"
        scene_path.write_text(TestVolumeVerbs.VOLUME_SCENE)
        argv = ["run", "--scene", str(scene_path), *self.OVERFLOWING_VOLUME, "-I", "16", "--ideal-masks"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--output", str(tmp_path / "r")]) == 1
        errors = (tmp_path / "r" / "errors.log").read_text().splitlines()
        assert len(errors) == 1 and "WavenumberOverflow" in errors[0] and "wavelength 1e-154 m" in errors[0]

    def test_overflowing_wavenumber_exits_two_in_the_step_verbs(self, tmp_path, capsys):
        scene_path = tmp_path / "volume.cfg"
        scene_path.write_text(TestVolumeVerbs.VOLUME_SCENE)
        common = ["--scene", str(scene_path), *self.OVERFLOWING_VOLUME, "-I", "16"]
        records = tmp_path / "records.csv"
        assert cli.main(["measure", *common, "--ideal-masks", "--output", str(records)]) == 2
        assert "WavenumberOverflow" in capsys.readouterr().err and not records.exists()
        # records of a finite field, reconstructed at the same wavelength
        ms.records_to_csv(records, ms.measure(np.full(16, 1.0 + 1.0j), md.KIND_MASK3D, [None], [0]))
        assert cli.main(["masks", *common, "--output", str(tmp_path / "masks.bin")]) == 0
        argv = ["reconstruct", *common, "--records", str(records), "--masks", str(tmp_path / "masks.bin")]
        assert cli.main([*argv, "--output", str(tmp_path / "estimate.pgm")]) == 2
        assert "WavenumberOverflow" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "damage",
        ["non-numeric cell", "short row", "header", "later row cut to 4 cells", "extra cell", "rows swapped"],
    )
    def test_malformed_records_file(self, scene_file, tmp_path, capsys, damage):
        common = ["--scene", str(scene_file), "-I", "128"]
        records, masks = tmp_path / "records.csv", tmp_path / "masks.bin"
        assert cli.main(["measure", *common, "--ideal-masks", "--output", str(records)]) == 0
        assert cli.main(["masks", *common, "--output", str(masks)]) == 0
        header, first, second, *rest = records.read_text().splitlines()
        cells = first.split(",")
        row = None  # the row the error names, when it names one
        if damage == "non-numeric cell":
            first = ",".join([cells[0], "abc", *cells[2:]])
        elif damage == "short row":
            first = ",".join(cells[:3])
        elif damage == "later row cut to 4 cells":
            second, row = ",".join(second.split(",")[:4]), 1
        elif damage == "extra cell":
            first, row = ",".join([*cells, "0.0", "0.0"]), 0
        elif damage == "rows swapped":
            first, second, row = second, first, 0
        else:
            header = header.replace("sigma2", "variance")
        records.write_text("\n".join([header, first, second, *rest]) + "\n")
        code = cli.main(
            ["reconstruct", *common, "--records", str(records), "--masks", str(masks), "--output", str(tmp_path / "e.pgm")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "MalformedRecords" in err and str(records) in err
        assert row is None or f"measurement row {row} " in err
        assert not (tmp_path / "e.pgm").exists()

    def test_records_with_a_stream_key_per_row_still_load(self, tmp_path):
        # files written before a set took one stream key hold seed ^ i in row i
        path = tmp_path / "records.csv"
        ms.records_to_csv(path, ms.measure(np.linspace(1.0, 2.0, 4) + 0.5j, md.KIND_MASK2D, [20.0], [6]))
        header, *rows = path.read_text().splitlines()
        rows = [",".join([*row.split(",")[:-1], str(6 ^ i)]) for i, row in enumerate(rows)]
        path.write_text("\r\n".join([header, *rows]) + "\r\n")
        assert ms.records_from_csv(path).seed == (6,)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("column", ["re_noiseless", "im_noiseless", "value_noisy_or_re", "im_if_3d", "sigma2"])
    def test_non_finite_records_are_malformed(self, tmp_path, capsys, column, text):
        # a volume's records fill every numeric column; sigma2 is read from the first row
        scene_path = tmp_path / "volume.cfg"
        scene_path.write_text(TestVolumeVerbs.VOLUME_SCENE)
        common = ["--scene", str(scene_path), "-I", "16"]
        records, masks = tmp_path / "records.csv", tmp_path / "masks.bin"
        assert cli.main(["measure", *common, "--ideal-masks", "--snr-db", "20", "--output", str(records)]) == 0
        assert cli.main(["masks", *common, "--output", str(masks)]) == 0
        with open(records, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[0][column] = text
        with open(records, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        argv = ["reconstruct", *common, "--records", str(records), "--masks", str(masks)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([*argv, "--output", str(tmp_path / "e.pgm")])
        assert code == 2
        err = capsys.readouterr().err
        assert "MalformedRecords" in err and f"row 0, column {column}" in err
        assert not list(tmp_path.glob("e*.pgm"))

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

    def test_profile_export_is_no_mask_set(self, scene_file, tmp_path, capsys):
        synth = tmp_path / "synth"
        common = ["--scene", str(scene_file), "-I", "128"]
        assert cli.main(["synthesize", *common, "--output", str(synth)]) == 0
        records = tmp_path / "records.csv"
        assert cli.main(["measure", *common, "--output", str(records)]) == 0
        argv = ["reconstruct", *common, "--records", str(records), "--masks", str(synth / "profiles.bin")]
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

    def test_mask_count_capped_by_its_distinct_rows_runs(self, scene_file, tmp_path):
        # 2^19 masks over the desk's 256 points: I x M is twice the entry cap, but the
        # set holds and realizes its R = 512 distinct rows, and I itself is below the cap
        desk = ["--set", "n_target_x=16", "--set", "n_target_y=16", "--set", "n_ris_x=32", "--set", "n_ris_y=32"]
        out = tmp_path / "many"
        argv = ["run", "--scene", str(scene_file), *desk, "-I", str(2**19), "--output", str(out)]
        assert cli.main(argv) == 0
        (row,) = read_metrics(out)
        assert row["I"] == str(2**19) and math.isfinite(float(row["nmse"]))

    DESK = ["--set", "n_target_x=16", "--set", "n_target_y=16", "--set", "n_ris_x=32", "--set", "n_ris_y=32"]

    @pytest.mark.parametrize(
        "verb, count",
        # 2^17 profiles of the desk's 1,024 aperture samples hold 2^27 entries, twice
        # the entry cap; so do 2^19 masks over its 256 target points
        [("run", 2**17), ("sweep", 2**17), ("synthesize", 2**17), ("masks", 2**19)],
    )
    def test_exports_above_the_entry_cap_exit_2_before_any_file(self, scene_file, tmp_path, capsys, verb, count):
        out = tmp_path / "exports"
        argv = [verb, "--scene", str(scene_file), *self.DESK, "-I", str(count), "--output", str(out / "file")]
        if verb in ("run", "sweep"):
            argv.append("--keep-artifacts")
        assert cli.main(argv) == 2
        assert "MaskSetSizeError" in capsys.readouterr().err
        assert not out.exists()

    def test_export_cap_is_checked_on_each_export_of_the_plan(self, scene_file):
        # the desk's 256 target points and 1,024 aperture samples: count x width at the cap passes
        scene = sc.load_scene_config(scene_file)
        desk = dataclasses.replace(scene, n_target_x=16, n_target_y=16, n_ris_x=32, n_ris_y=32)
        plan = rn.ExperimentPlan(scene=desk, i_values=(256, 2**16), keep_artifacts=True)
        plan.validate()
        md.check_export_size(em_core.ENTRY_CAP // 1024, 1024)
        with pytest.raises(MaskSetSizeError):
            md.check_export_size(em_core.ENTRY_CAP // 1024 + 1, 1024)
        with pytest.raises(MaskSetSizeError, match="131072 vectors of 1024 entries"):
            dataclasses.replace(plan, i_values=(256, 2**17)).validate()
        # without artifacts nothing is exported; ideal masks export no profiles, only count x M
        dataclasses.replace(plan, i_values=(2**17,), keep_artifacts=False).validate()
        dataclasses.replace(plan, i_values=(2**18,), ideal_masks=True).validate()
        with pytest.raises(MaskSetSizeError, match="524288 vectors of 256 entries"):
            dataclasses.replace(plan, i_values=(2**19,), ideal_masks=True).validate()

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


class TestSweepingAgain:
    """A sweep into the directory of an earlier one replaces every file with
    what a sweep into a fresh directory writes."""

    @staticmethod
    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file() and p.name != "timings.csv"}

    @pytest.mark.parametrize("volume", [False, True], ids=["desk", "volume"])
    def test_every_file_matches_one_fresh_sweep(self, tmp_path, volume):
        scene_path = tmp_path / "scene.cfg"
        scene_path.write_text(TestVolumeVerbs.VOLUME_SCENE if volume else SCENE_TEXT)
        run_dir = tmp_path / "run"
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_path),
            target="block",
            # above J = 16 (volume) or 128 (desk), the exports repeat their rows 4 or 2 times
            i_values=(16, 64) if volume else (128, 256),
            snr_values=(None, 20.0),
            z_values=(0.125, 0.15),
            keep_artifacts=True,
            output_dir=str(run_dir),
        )
        assert all(p.error is None for p in rn.run_plan(plan).points)
        fresh = self.files(run_dir)
        shutil.rmtree(run_dir)
        for _ in range(2):
            assert all(p.error is None for p in rn.run_plan(plan).points)
        assert self.files(run_dir) == fresh
        exports = [path for path in fresh if path.parts[0] == "artifacts" and path.suffix == ".bin"]
        assert len(exports) == 12
        for path in exports:  # each body as long as its header says
            md.load_mask_vectors(run_dir / path)
        assert not list(run_dir.rglob(".*.tmp"))

    def test_a_rerun_keeps_no_failure_record_or_image_of_an_earlier_run(self, scene_file, tmp_path):
        # z' = 30 m is beyond the desk's 25 m Rayleigh distance, so its points fail
        out = tmp_path / "run"
        common = ["sweep", "--scene", str(scene_file), "-I", "128", "--output", str(out)]
        assert cli.main([*common, "--snr-sweep", "none,20", "--z-sweep", "0.125,30,0.25"]) == 0
        log = (out / "errors.log").read_text().splitlines()
        assert [line.split(":")[0] for line in log] == ["point 2", "point 3"]
        assert cli.main(common) == 0
        assert len(read_metrics(out)) == 1 and not (out / "errors.log").exists()
        # points 0 and 1 now fail, and drop the images of the first sweep's points 0 and 1;
        # points 4 and 5 are beyond this sweep's points, so theirs stay
        assert cli.main([*common, "--snr-sweep", "none,20", "--z-sweep", "30,0.125"]) == 0
        names = sorted(p.name for p in out.glob("estimate_*"))
        assert names == [f"estimate_00{i}.pgm" for i in (2, 3, 4, 5)]

    def test_a_failed_point_removes_only_its_own_images(self, tmp_path):
        # index 100 fails in the rerun: estimate_100.pgm goes, estimate_1000.pgm stays
        plan = rn.ExperimentPlan(
            scene=small_config(), i_values=(128,), snr_values=(None,) * 50, output_dir=str(tmp_path / "run")
        )
        assert all(p.error is None for p in rn.run_plan(dataclasses.replace(plan, z_values=(0.125, 0.15, 0.2))).points)
        for name in ("estimate_1000.pgm", "estimate_1001.pgm", "estimate_100_other.pgm"):
            shutil.copy(tmp_path / "run" / "estimate_100.pgm", tmp_path / "run" / name)
        result = rn.run_plan(dataclasses.replace(plan, z_values=(0.125, 0.15, 30.0)))
        assert [p.index for p in result.points if p.error is not None] == list(range(100, 150))
        names = sorted(p.name for p in (tmp_path / "run").glob("estimate_*"))
        assert names == [f"estimate_{i:03d}.pgm" for i in range(100)] + [
            "estimate_1000.pgm", "estimate_1001.pgm", "estimate_100_other.pgm"
        ]

    def test_a_failed_volume_point_removes_its_slice_images(self, tmp_path):
        plan = rn.ExperimentPlan(scene=volume_config(), i_values=(16,), output_dir=str(tmp_path / "run"))
        assert all(p.error is None for p in rn.run_plan(dataclasses.replace(plan, z_values=(0.125, 0.15))).points)
        slices = [f"estimate_{i:03d}_slice{z}_{part}.pgm" for i in (0, 1) for z in (0, 1) for part in ("im", "re")]
        assert sorted(p.name for p in (tmp_path / "run").glob("estimate_*")) == slices
        result = rn.run_plan(dataclasses.replace(plan, z_values=(30.0, 0.15)))
        assert [p.error is None for p in result.points] == [False, True]
        assert sorted(p.name for p in (tmp_path / "run").glob("estimate_*")) == slices[4:]
        assert (tmp_path / "run" / "errors.log").read_text().startswith("point 0: NearFieldViolation: ")


class TestBlockSizeIsInert:
    """The block size of every row-block pass (``em_core.block_rows``) moves a
    run's outputs in their last bits at most: BLAS may sum a row in another
    order in a block of another size, so this checks a tolerance, not bytes."""

    def test_small_blocks_keep_metrics_and_exports(self, tmp_path, force_block_rows):
        def sweep(name):
            plan = rn.ExperimentPlan(
                scene=desk_config(),
                target="block",
                i_values=(256, 1024),
                snr_values=(None,),
                z_values=(0.125, 0.25),
                keep_artifacts=True,
                output_dir=str(tmp_path / name),
            )
            assert all(p.error is None for p in rn.run_plan(plan).points)
            return tmp_path / name

        default = sweep("default")
        force_block_rows(3, 256)  # three rows of the desk's 256 points, one kernel or profile row
        small = sweep("small")
        nmse = [[float(row["nmse"]) for row in read_metrics(run)] for run in (default, small)]
        np.testing.assert_allclose(nmse[1], nmse[0], rtol=1e-12, atol=0)
        exports = sorted(path.name for path in (default / "artifacts").glob("*.bin"))
        assert len(exports) == 12
        assert exports == sorted(path.name for path in (small / "artifacts").glob("*.bin"))
        for name in exports:
            kind, expected, _ = md.load_mask_vectors(default / "artifacts" / name)
            other, values, _ = md.load_mask_vectors(small / "artifacts" / name)
            assert kind == other and values.shape == expected.shape
            np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


class TestArtifactsOnlyObserve:
    """``keep_artifacts`` changes which files a run writes, never what it computes."""

    def test_metrics_and_estimates_do_not_depend_on_it(self, tmp_path):
        # each distance realizes one mask set for both counts, with or without exports
        for name, keep in (("plain", False), ("kept", True)):
            plan = rn.ExperimentPlan(
                scene=desk_config(),
                target="block",
                i_values=(256, 1024),
                snr_values=(None, 20.0),
                z_values=(0.125, 0.25),
                seed=7,
                keep_artifacts=keep,
                output_dir=str(tmp_path / name),
            )
            result = rn.run_plan(plan)
            assert all(p.error is None for p in result.points) and result.kernel_builds == 2
        names = sorted(p.name for p in (tmp_path / "plain").iterdir() if p.suffix in (".csv", ".pgm"))
        assert len(names) == 10 and "metrics.csv" in names
        for name in names:
            if name != "timings.csv":
                assert (tmp_path / "kept" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_each_distance_forms_one_set_of_aperture_factors(self, scene_file, tmp_path, monkeypatch):
        # two counts at two distances: each count's profile writer maps through the
        # factors of its distance's one pass, and the I = 128 export holds the bytes
        # that save_profiles writes for its set
        calls = []

        def counted(inv, _original=rs.aperture_factors):
            calls.append(inv.shape)
            return _original(inv)

        monkeypatch.setattr(rs, "aperture_factors", counted)
        cfg = sc.load_scene_config(scene_file)
        plan = rn.ExperimentPlan(
            scene=cfg,
            i_values=(64, 128),
            z_values=(0.125, 0.15),
            keep_artifacts=True,
            output_dir=str(tmp_path / "run"),
        )
        assert all(p.error is None for p in rn.run_plan(plan).points)
        assert len(calls) == 2
        for z_prime in plan.z_values:
            scene = sc.validate_scene(sc.with_target_distance(cfg, z_prime))
            grids = sc.sample_grids(scene)
            inv = rs.tikhonov_inverse(em_core.kernel_stream(scene, grids), rn.default_gamma(z_prime))
            expected = tmp_path / "profiles.bin"
            rs.save_profiles(expected, inv, md.ideal_masks(scene, grids, 128), cfg.amplification, scene.fingerprint)
            written = tmp_path / "run" / "artifacts" / f"profiles_{scene.fingerprint[:16]}_I128.bin"
            assert written.read_bytes() == expected.read_bytes()

    def test_a_corrupt_kernel_file_in_the_run_dir_is_ignored(self, scene_file, tmp_path):
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file),
            i_values=(128,),
            snr_values=(None, 20.0),
            keep_artifacts=True,
            output_dir=str(tmp_path / "clean"),
        )
        rn.run_plan(plan)
        scene = sc.validate_scene(plan.scene)
        # a kernel file of the scene, of the right length, with the sign of a middle entry flipped
        old = tmp_path / "used" / "kernels" / f"kernel_{scene.fingerprint[:16]}.bin"
        old.parent.mkdir(parents=True)
        em_core.save_kernel(old, em_core.assemble_kernel(scene, sc.sample_grids(scene)))
        data = bytearray(old.read_bytes())
        header = data.index(b"\n") + 1
        data[header + (len(data) - header) // 32 * 16 + 7] ^= 0x80
        old.write_bytes(bytes(data))

        result = rn.run_plan(dataclasses.replace(plan, output_dir=str(tmp_path / "used")))
        assert all(p.error is None for p in result.points) and result.kernel_builds == 1
        assert (tmp_path / "used" / "metrics.csv").read_bytes() == (tmp_path / "clean" / "metrics.csv").read_bytes()
        assert old.read_bytes() == bytes(data)
        assert [p.name for p in old.parent.iterdir()] == [old.name]

    def test_each_count_exports_the_leading_rows_of_the_shared_pass(self, scene_file, tmp_path):
        # 64 target points: I = 64 realizes 64 distinct rows, I = 128 and 256 the same 128
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file),
            i_values=(64, 128, 256),
            keep_artifacts=True,
            output_dir=str(tmp_path / "run"),
        )
        assert all(p.error is None for p in rn.run_plan(plan).points)
        artifacts = tmp_path / "run" / "artifacts"
        for stem in ("masks_realized", "profiles"):
            (largest,) = artifacts.glob(f"{stem}_*_I256.bin")
            body = largest.read_bytes().split(b"\n", 1)[1]
            for count in (64, 128):
                (export,) = artifacts.glob(f"{stem}_*_I{count}.bin")
                head, rows = export.read_bytes().split(b"\n", 1)
                assert f" count={count} ".encode() in head
                assert rows == body[: len(rows)] and len(rows) == len(body) * count // 256


class TestRunnerInternals:
    @pytest.mark.parametrize("keep_artifacts", [False, True], ids=["plain", "artifacts"])
    def test_scored_plane_set_holds_only_its_magnitudes(self, scene_file, tmp_path, monkeypatch, keep_artifacts):
        # the fields, the export and the summary read the realized masks in their
        # realization pass, so the set the points are reconstructed from holds no complex array
        scored = []

        def recorded(meas, masks, psf, _original=rc.reconstruct_2d):
            scored.append((meas.noisy.shape, masks))
            return _original(meas, masks, psf)

        monkeypatch.setattr(rc, "reconstruct_2d", recorded)
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file),
            i_values=(128,),
            snr_values=(None, 20.0),
            keep_artifacts=keep_artifacts,
            output_dir=str(tmp_path / "run"),
        )
        assert all(p.error is None for p in rn.run_plan(plan).points)
        # both SNR points are reconstructed in one pass, as a stack of their two sets
        ((shape, masks),) = scored
        assert shape == (2, 128)
        held = [v for v in vars(masks).values() if isinstance(v, np.ndarray)]
        held += list(masks.moments)
        assert masks.magnitudes_only and not any(np.iscomplexobj(v) for v in held)
        assert np.shares_memory(masks.moments[0], masks.stored)

    def test_counts_of_the_same_distinct_rows_compute_their_own_moments(self, tmp_path, monkeypatch):
        # 256 target points: I = 1,024 and 2,048 both repeat the same 512 realized
        # rows, and each count's set computes their moments once
        computed = []

        def counted_moments(masks, _original=md.MaskSet.moments.func):
            computed.append((masks.count, masks.distinct_rows))
            return _original(masks)

        counted = functools.cached_property(counted_moments)
        counted.__set_name__(md.MaskSet, "moments")
        monkeypatch.setattr(md.MaskSet, "moments", counted)
        plan = rn.ExperimentPlan(
            scene=desk_config(),
            i_values=(1024, 2048),
            snr_values=(None, 20.0),
            z_values=(0.125, 0.25),
            seed=5,
            output_dir=str(tmp_path / "run"),
        )
        assert all(p.error is None for p in rn.run_plan(plan).points)
        assert computed == [(1024, 512), (2048, 512)] * 2
        monkeypatch.undo()
        # the noiseless metrics of each count swept alone
        for count in plan.i_values:
            alone = dataclasses.replace(plan, i_values=(count,), output_dir=str(tmp_path / f"I{count}"))
            rn.run_plan(alone)
            runs = (read_metrics(tmp_path / "run"), read_metrics(tmp_path / f"I{count}"))
            together, apart = ([r["nmse"] for r in rows if r["I"] == str(count) and not r["snr_db"]] for rows in runs)
            assert len(together) == 2 and together == apart

    def test_moments_and_fields_once_per_mask_set(self, scene_file, tmp_path, monkeypatch):
        # two distances x two mask counts x three SNR points: four mask sets
        moments, fields = [], []

        def counted_moments(masks, _original=md.MaskSet.moments.func):
            moments.append(masks.count)
            return _original(masks)

        def counted_fields(receiver, _original=ms.ReceiverFields.fields):
            values = _original(receiver)
            fields.append(len(values))
            return values

        counted = functools.cached_property(counted_moments)
        counted.__set_name__(md.MaskSet, "moments")
        monkeypatch.setattr(md.MaskSet, "moments", counted)
        monkeypatch.setattr(ms.ReceiverFields, "fields", counted_fields)
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file),
            i_values=(64, 128),
            snr_values=(None, 10.0, 20.0),
            z_values=(0.125, 0.15),
            output_dir=str(tmp_path / "sweep"),
        )
        result = rn.run_plan(plan)
        assert all(p.error is None for p in result.points) and len(result.points) == 12
        assert moments == [64, 128, 64, 128]
        assert fields == [128, 128]  # one realized set per distance: I = 64 reads its first rows

    def test_rerun_plane_kernel_keeps_its_mirror_sectors(self, scene_file, tmp_path, monkeypatch):
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
        assert builds == [1, 1]  # a run into a used directory builds its kernel too
        assert sector_counts == [4, 4]

    @staticmethod
    def record_kernel_rows(monkeypatch):
        """Wrap ``em_core.kernel_stream`` so every stored row block it hands over is
        recorded by a weak reference; returns the list of those references."""
        drawn = []

        def streamed(*args, _original=em_core.kernel_stream, **kwargs):
            stream = _original(*args, **kwargs)

            def blocks():
                for block in stream.blocks:
                    drawn.append(weakref.ref(block))
                    yield block

            return dataclasses.replace(stream, blocks=blocks())

        monkeypatch.setattr(em_core, "kernel_stream", streamed)
        return drawn

    def test_previous_kernel_is_freed_before_the_next_build(self, scene_file, tmp_path, monkeypatch):
        # a sweep holds no row of one distance's kernel when it builds the next
        drawn = self.record_kernel_rows(monkeypatch)
        alive_at_build = []

        def recorded(*args, _original=em_core.kernel_stream, **kwargs):
            alive_at_build.append(sum(ref() is not None for ref in drawn))
            return _original(*args, **kwargs)

        monkeypatch.setattr(em_core, "kernel_stream", recorded)
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file),
            i_values=(128,),
            z_values=(0.125, 0.15, 0.2),
            output_dir=str(tmp_path / "sweep"),
        )
        assert all(p.error is None for p in rn.run_plan(plan).points)
        assert alive_at_build == [0, 0, 0] and drawn

    @classmethod
    def record_live_kernel_rows(cls, monkeypatch):
        """Record, at each realize_masks and profile_writer call, how many streamed kernel rows are alive."""
        drawn, alive = cls.record_kernel_rows(monkeypatch), []

        def recording(name, original):
            def call(*args, **kwargs):
                alive.append((name, sum(ref() is not None for ref in drawn)))
                return original(*args, **kwargs)

            return call

        for name in ("realize_masks", "profile_writer"):
            monkeypatch.setattr(rs, name, recording(name, getattr(rs, name)))
        return drawn, alive

    def test_kernel_is_freed_once_decomposed(self, scene_file, tmp_path, monkeypatch):
        # the inverse is decomposed from the stream of the kernel's rows and keeps its
        # sector blocks, so no kernel row outlives tikhonov_inverse; each count's profiles
        # are written once, in the one realization pass of its distance
        drawn, alive = self.record_live_kernel_rows(monkeypatch)
        plan = rn.ExperimentPlan(
            scene=sc.load_scene_config(scene_file),
            i_values=(64, 128),
            z_values=(0.125, 0.15),
            keep_artifacts=True,
            output_dir=str(tmp_path / "sweep"),
        )
        result = rn.run_plan(plan)
        assert all(p.error is None for p in result.points) and result.kernel_builds == 2
        assert drawn and alive == [("profile_writer", 0), ("profile_writer", 0), ("realize_masks", 0)] * 2
        assert len(list((tmp_path / "sweep" / "artifacts").glob("profiles_*.bin"))) == 4

    def test_synthesize_verb_frees_the_kernel_once_decomposed(self, scene_file, tmp_path, monkeypatch):
        drawn, alive = self.record_live_kernel_rows(monkeypatch)
        argv = ["synthesize", "--scene", str(scene_file), "-I", "128", "--output", str(tmp_path / "s")]
        assert cli.main(argv) == 0
        assert drawn and alive == [("profile_writer", 0), ("realize_masks", 0)]

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
        assert calls == {"ideal_masks": 2, "tikhonov_inverse": 2}  # I = 128 is a prefix of I = 256

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

    def test_keep_artifacts_exports_masks_and_profiles(self, scene_file, tmp_path):
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
        assert not (tmp_path / "keep" / "kernels").exists()

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
        assert len(inverses) == 2  # one realization per distance
        assert all(s.block is None for inv in inverses for s in inv.sectors)
        assert all(inv.shape == (64, 256) for inv in inverses)

    def test_one_realization_per_distance_for_unsorted_counts(self, scene_file, tmp_path, monkeypatch):
        # M = 64, so J = 128: I = 1,024 and I = 256 both repeat the same 128 rows
        realized = []

        def recorded(inv, masks, *args, _original=rs.realize_masks, **kwargs):
            realized.append((masks.count, masks.distinct_rows))
            return _original(inv, masks, *args, **kwargs)

        monkeypatch.setattr(rs, "realize_masks", recorded)
        cfg = sc.load_scene_config(scene_file)
        plan = rn.ExperimentPlan(
            scene=cfg,
            i_values=(1024, 256),
            snr_values=(None, 20.0),
            z_values=(0.125, 0.15),
            output_dir=str(tmp_path / "both"),
        )
        assert all(p.error is None for p in rn.run_plan(plan).points)
        assert realized == [(1024, 128), (1024, 128)]
        # each count scores, without noise, what a plan of that count alone scores
        # (a noisy point's seed follows its index in the plan)
        for count in (1024, 256):
            alone = dataclasses.replace(plan, i_values=(count,), output_dir=str(tmp_path / f"I{count}"))
            rn.run_plan(alone)
            rows, expected = (
                [(r["z_prime"], r["nmse"]) for r in read_metrics(tmp_path / run) if (r["snr_db"], r["I"]) == ("", str(count))]
                for run in (f"I{count}", "both")
            )
            assert len(rows) == 2 and rows == expected

    @pytest.mark.parametrize("keep_artifacts", [False, True], ids=["plain", "artifacts"])
    def test_zero_solution_fails_only_the_counts_that_reach_its_mask(
        self, scene_file, tmp_path, monkeypatch, keep_artifacts
    ):
        # mask 100 of the 128 distinct rows has no solution: I = 64 never reaches it
        realized = []

        def failing(inv, masks, *args, _original=rs.realize_masks, **kwargs):
            realized.append(masks.count)
            if masks.distinct_rows > 100:
                raise ZeroSolution("mask 100 lies outside the retained kernel range", 100)
            return _original(inv, masks, *args, **kwargs)

        monkeypatch.setattr(rs, "realize_masks", failing)
        cfg = sc.load_scene_config(scene_file)
        plan = rn.ExperimentPlan(
            scene=cfg,
            i_values=(256, 64, 128),
            snr_values=(None, 20.0),
            keep_artifacts=keep_artifacts,
            output_dir=str(tmp_path / "zero"),
        )
        result = rn.run_plan(plan)
        assert realized == [256, 64]
        if keep_artifacts:  # the failed pass leaves no export, only the designed sets
            names = sorted(p.name.split("_I")[-1] for p in (tmp_path / "zero" / "artifacts").iterdir())
            assert names == ["128.bin", "256.bin", "64.bin", "64.bin", "64.bin", "64.txt"]
            assert not list((tmp_path / "zero").rglob("*.tmp"))
        failed = {p.n_measurements for p in result.points if p.error is not None}
        assert failed == {256, 128}
        assert all(p.error.startswith("ZeroSolution: mask 100 ") for p in result.points if p.error)
        alone = dataclasses.replace(plan, i_values=(64,), snr_values=(None,), output_dir=str(tmp_path / "I64"))
        rn.run_plan(alone)
        (expected,) = (float(row["nmse"]) for row in read_metrics(tmp_path / "I64"))
        assert [p.nmse for p in result.points if p.n_measurements == 64 and p.snr_db is None] == [expected]

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


def scored_alone(plan, out_dir):
    """Each point of ``plan`` measured and scored alone, by one-row
    ``runner.measure_points`` and ``runner.score`` on the first rows of its
    distance's mask set (``runner.build_mask_set`` over the plan's counts),
    its images written to ``out_dir``: {index: nmse}."""
    out_dir.mkdir()
    scores = {}
    for z_prime in plan.resolved_z_values():
        points = [point for point in rn.plan_points(plan) if point.z_prime == z_prime]
        scene = sc.validate_scene(sc.with_target_distance(plan.scene, z_prime))
        grids = sc.sample_grids(scene)
        target = resolve_target(plan.target, scene)

        def inverse(scene=scene, grids=grids, gamma=points[0].gamma):
            return rn.regularized_inverse(plan, scene, grids, gamma).without_blocks()

        mask_set, fields = rn.build_mask_set(plan, scene, grids, target, list(plan.i_values), inverse, None)
        for point in points:
            masks = mask_set.first(point.n_measurements)
            meas = rn.measure_points(plan, [point], fields[: point.n_measurements], masks.kind)
            calibrated, errors = rn.score(scene, grids, meas, masks, plan.calibration, target.values)
            scores[point.index] = errors.tolist()[0]
            rn.write_estimate_images(out_dir / f"estimate_{point.index:03d}.pgm", calibrated[0], target.grid_shape)
    return scores


def estimate_files(run_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(run_dir).glob("estimate_*.pgm"))}


class TestGroupScoring:
    """The SNR points of one distance and mask count are reconstructed as one stack."""

    # 8 x 8 plane pixels and 2 x 2 x 2 voxels; the larger mask count folds 4 periods of
    # distinct rows, the smaller none
    PLANS = {
        "plane": dict(scene=small_config(), i_values=(64, 512)),
        "volume": dict(scene=volume_config(), i_values=(16, 64)),
    }

    @pytest.mark.parametrize("calibration", ["max1", "lsq", "none"])
    @pytest.mark.parametrize("kind", ["plane", "volume"])
    def test_every_point_scores_as_it_would_alone(self, tmp_path, kind, calibration):
        plan = rn.ExperimentPlan(
            **self.PLANS[kind],
            snr_values=(None, 0.0, 10.0, 20.0, 40.0),
            calibration=calibration,
            seed=5,
            output_dir=str(tmp_path / "run"),
        )
        reconstructed = []
        with pytest.MonkeyPatch.context() as patch:
            name = "reconstruct_3d" if kind == "volume" else "reconstruct_2d"

            def counted(*args, _original=getattr(rc, name)):
                reconstructed.append(args)
                return _original(*args)

            patch.setattr(rc, name, counted)
            result = rn.run_plan(plan)
        assert len(reconstructed) == 2  # one pass per mask count
        alone = scored_alone(plan, tmp_path / "alone")
        assert [p.error for p in result.points] == [None] * 10
        assert [p.nmse for p in result.points] == [alone[p.index] for p in result.points]
        assert estimate_files(tmp_path / "run") == estimate_files(tmp_path / "alone")
        assert len(estimate_files(tmp_path / "run")) == 10 * (1 if kind == "plane" else 4)

    def test_an_overflowing_score_fails_only_its_point(self, tmp_path):
        # uncalibrated, noise at -3070 dB scales that point's estimate until its squared error overflows
        plan = rn.ExperimentPlan(
            scene=small_config(),
            i_values=(128,),
            snr_values=(None, 20.0, -3070.0, 10.0),
            calibration="none",
            output_dir=str(tmp_path / "run"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = rn.run_plan(plan)
        errors = [p.error for p in result.points]
        assert errors[2].startswith("NonFiniteScore: ") and errors[:2] + errors[3:] == [None] * 3
        alone = scored_alone(dataclasses.replace(plan, snr_values=(None, 20.0, -3060.0, 10.0)), tmp_path / "alone")
        assert [result.points[i].nmse for i in (0, 1, 3)] == [alone[i] for i in (0, 1, 3)]
        assert sorted(estimate_files(tmp_path / "run")) == ["estimate_000.pgm", "estimate_001.pgm", "estimate_003.pgm"]
        assert (tmp_path / "run" / "errors.log").read_text() == f"point 2: {errors[2]}\n"

    def test_a_failed_measurement_fails_its_whole_group(self, tmp_path, monkeypatch):
        # the noise stream of the I = 128 group's 20 dB point fails while that group is measured
        plan = rn.ExperimentPlan(
            scene=small_config(), i_values=(64, 128), snr_values=(None, 20.0, 10.0), output_dir=str(tmp_path / "run")
        )
        alone = scored_alone(plan, tmp_path / "alone")

        def failing(variance, seed, count, out=None, _original=ms.complex_noise):
            if seed == plan.seed + 4:
                raise EmptySet("no records")
            return _original(variance, seed, count, out=out)

        monkeypatch.setattr(ms, "complex_noise", failing)
        result = rn.run_plan(plan)
        assert [p.error for p in result.points] == [None] * 3 + ["EmptySet: no records"] * 3
        assert all(p.nmse is None and p.retained_rank is None for p in result.points[3:])
        # the other mask count's group scores as it would alone
        assert [p.nmse for p in result.points[:3]] == [alone[i] for i in range(3)]
        assert estimate_files(tmp_path / "run") == {
            name: data for name, data in estimate_files(tmp_path / "alone").items() if name < "estimate_003"
        }
        assert (tmp_path / "run" / "errors.log").read_text() == "".join(
            f"point {i}: EmptySet: no records\n" for i in range(3, 6)
        )

    def test_a_failed_reconstruction_fails_its_whole_group(self, tmp_path, monkeypatch):
        def failing(meas, masks, psf):
            raise KindMismatch(f"{len(meas.noisy)} sets")

        monkeypatch.setattr(rc, "reconstruct_2d", failing)
        plan = rn.ExperimentPlan(
            scene=small_config(), i_values=(64, 128), snr_values=(None, 20.0, 10.0), output_dir=str(tmp_path / "run")
        )
        result = rn.run_plan(plan)
        assert [p.error for p in result.points] == ["KindMismatch: 3 sets"] * 6
        assert all(p.nmse is None and p.retained_rank is None for p in result.points)
        assert estimate_files(tmp_path / "run") == {}

    def test_each_point_books_its_own_work(self, tmp_path):
        plan = rn.ExperimentPlan(
            scene=small_config(), i_values=(128,), snr_values=(None, 20.0, 10.0), output_dir=str(tmp_path / "run")
        )
        started = time.perf_counter()
        result = rn.run_plan(plan)
        total_ms = (time.perf_counter() - started) * 1000.0
        walls = [p.wall_ms for p in result.points]
        # the first point also waited for the kernel, the inverse, the masks and the reconstruction
        assert all(wall > 0.0 for wall in walls) and walls[0] > max(walls[1:])
        assert sum(walls) <= total_ms


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


class TestReadme:
    README = Path(__file__).resolve().parent.parent / "README.md"

    def test_library_example_runs(self, tmp_path, monkeypatch, capsys):
        # the fenced Python block under "## Library", run on the desk scene of the verbs
        library = self.README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
        block = library.split("```python\n", 1)[1].split("\n```", 1)[0]
        (tmp_path / "scene.cfg").write_text(SCENE_TEXT)
        monkeypatch.chdir(tmp_path)
        exec(compile(block, str(self.README), "exec"), {"__name__": "readme_library"})
        printed = capsys.readouterr().out.split()
        assert len(printed) == 1 and math.isfinite(float(printed[0]))
        kind, profiles, _ = md.load_mask_vectors(tmp_path / "profiles.bin")
        assert kind == "profiles" and profiles.shape == (1024, 256)
