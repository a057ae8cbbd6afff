"""PGM images, volume files, and built-in target patterns."""

import numpy as np
import pytest

from risimage import scene as sc
from risimage import targets as tg
from risimage.errors import MalformedImage, MalformedVolume, SizeMismatch

from conftest import small_config


def write(path, text):
    path.write_text(text)
    return path


class TestReadPgm:
    def test_reads_pixels_and_maxval(self, tmp_path):
        path = write(tmp_path / "img.pgm", "P2\n# comment\n3 2\n255\n0 128 255\n10 20 30\n")
        image, maxval = tg.read_pgm(path)
        assert maxval == 255
        np.testing.assert_array_equal(image, [[0, 128, 255], [10, 20, 30]])

    @pytest.mark.parametrize(
        "text",
        [
            "P5\n2 2\n255\n0 0 0 0\n",  # binary magic
            "P2\n2 2\n255\n0 0 0\n",  # missing pixel
            "P2\n2 2\n255\n0 0 0 300\n",  # above maxval
            "P2\n2 2\n0\n0 0 0 0\n",  # bad maxval
            "P2\n2 2\nabc\n0 0 0 0\n",  # non-numeric
        ],
    )
    def test_malformed_rejected(self, tmp_path, text):
        with pytest.raises(MalformedImage):
            tg.read_pgm(write(tmp_path / "img.pgm", text))

    @pytest.mark.parametrize(
        "image", [[[0, 300], [-5, 12]], [[0, 256]], [[-1, 0]], np.zeros((0, 3)), [1, 2]]
    )
    def test_write_rejects_what_read_would_reject(self, tmp_path, image):
        path = tmp_path / "img.pgm"
        with pytest.raises(MalformedImage):
            tg.write_pgm(path, image)
        assert not path.exists()

    def test_write_read_round_trip(self, tmp_path):
        image = np.arange(12).reshape(3, 4) * 20
        path = tmp_path / "img.pgm"
        tg.write_pgm(path, image)
        loaded, maxval = tg.read_pgm(path)
        assert maxval == 255
        np.testing.assert_array_equal(loaded, image)


class TestLoadTarget2d:
    def test_all_white_is_full_coverage(self, tmp_path, small_scene):
        scene, _ = small_scene
        path = write(tmp_path / "img.pgm", "P2\n8 8\n255\n" + ("255 " * 64) + "\n")
        target = tg.load_target_2d(path, scene)
        np.testing.assert_array_equal(target.values, 1.0)

    def test_all_black_is_empty(self, tmp_path, small_scene):
        scene, _ = small_scene
        path = write(tmp_path / "img.pgm", "P2\n8 8\n255\n" + ("0 " * 64) + "\n")
        target = tg.load_target_2d(path, scene)
        np.testing.assert_array_equal(target.values, 0.0)

    def test_checkerboard_preserved_at_matching_size(self, tmp_path):
        scene = sc.validate_scene(small_config(n_target=2))
        rows = "P2\n2 2\n255\n255 0\n0 255\n"
        target = tg.load_target_2d(write(tmp_path / "img.pgm", rows), scene)
        # image row 0 is the top (y index 1): x-fastest flat order flips rows
        np.testing.assert_array_equal(target.values, [0.0, 1.0, 1.0, 0.0])

    def test_binarisation_threshold_is_half_maxval(self, tmp_path):
        scene = sc.validate_scene(small_config(n_target=2))
        rows = "P2\n2 2\n200\n99 100\n100 99\n"
        target = tg.load_target_2d(write(tmp_path / "img.pgm", rows), scene)
        np.testing.assert_array_equal(target.values, [1.0, 0.0, 0.0, 1.0])

    def test_nearest_neighbour_resampling(self, tmp_path, small_scene):
        scene, _ = small_scene  # 8x8 grid
        rows = "P2\n2 2\n255\n255 0\n0 255\n"
        target = tg.load_target_2d(write(tmp_path / "img.pgm", rows), scene)
        grid = target.values.reshape(8, 8)  # [iy, ix]
        assert grid[:4, 4:].sum() == 16  # bottom-right quadrant from image row 1
        assert grid[:4, :4].sum() == 0
        assert grid[4:, :4].sum() == 16  # top-left quadrant from image row 0

    def test_size_mismatch_without_resampling(self, tmp_path, small_scene):
        scene, _ = small_scene
        rows = "P2\n2 2\n255\n255 0\n0 255\n"
        with pytest.raises(SizeMismatch):
            tg.load_target_2d(write(tmp_path / "img.pgm", rows), scene, resample=False)


class TestLoadTarget3d:
    def volume_text(self, voxels):
        return "2 2 2\n" + "\n".join(f"{e} {s}" for e, s in voxels) + "\n"

    def test_air_has_zero_contrast(self, tmp_path, volume_scene):
        scene, _ = volume_scene
        path = write(tmp_path / "vol.txt", self.volume_text([(1.0, 0.0)] * 8))
        target = tg.load_target_3d(path, scene)
        np.testing.assert_array_equal(target.values, 0.0)

    def test_lossless_dielectric_contrast(self, tmp_path, volume_scene):
        scene, _ = volume_scene
        path = write(tmp_path / "vol.txt", self.volume_text([(2.0, 0.0)] * 8))
        target = tg.load_target_3d(path, scene)
        np.testing.assert_allclose(target.values, 1.0)

    def test_conductivity_sign_convention(self, tmp_path, volume_scene):
        # loss enters with a positive imaginary part, uniformly
        scene, _ = volume_scene
        path = write(tmp_path / "vol.txt", self.volume_text([(1.5, 0.02)] * 8))
        target = tg.load_target_3d(path, scene)
        assert np.all(target.values.imag > 0.0)
        assert np.unique(target.values.imag).size == 1

    @pytest.mark.parametrize(
        "text",
        [
            "2 2\n1 0\n",  # short header
            "2 2 2\n" + "1 0\n" * 7,  # missing voxel
            "2 2 2\n" + "0.5 0\n" * 8,  # permittivity below 1
            "2 2 2\n" + "1 -0.1\n" * 8,  # negative conductivity
            "2 2 2\n" + "abc 0\n" * 8,  # non-numeric
        ],
    )
    def test_malformed_rejected(self, tmp_path, volume_scene, text):
        scene, _ = volume_scene
        with pytest.raises(MalformedVolume):
            tg.load_target_3d(write(tmp_path / "vol.txt", text), scene)

    def test_wrong_grid_rejected(self, tmp_path, volume_scene):
        scene, _ = volume_scene
        text = "2 2 1\n" + "1 0\n" * 4
        with pytest.raises(SizeMismatch):
            tg.load_target_3d(write(tmp_path / "vol.txt", text), scene)


class TestBuiltins:
    def test_block_covers_centre(self, small_scene):
        scene, _ = small_scene
        target = tg.builtin_target("block", scene)
        grid = target.values.reshape(8, 8)
        assert grid[3, 3] == 1.0 and grid[0, 0] == 0.0
        assert target.values.sum() == 16  # central 4x4

    def test_checkerboard_alternates(self, small_scene):
        scene, _ = small_scene
        target = tg.builtin_target("checkerboard", scene)
        grid = target.values.reshape(8, 8)
        assert grid[0, 0] == 0.0 and grid[0, 1] == 1.0 and grid[1, 0] == 1.0

    def test_letters_deterministic_and_nonempty(self, desk_scene):
        scene, _ = desk_scene
        a = tg.builtin_target("letters-seu", scene)
        b = tg.builtin_target("letters-seu", scene)
        np.testing.assert_array_equal(a.values, b.values)
        assert 0.0 < a.values.mean() < 1.0

    def test_volume_builtin_extrudes_pattern(self, volume_scene):
        scene, _ = volume_scene
        target = tg.builtin_target("checkerboard", scene)
        assert target.kind == sc.VOLUME_3D
        slices = target.values.reshape(2, 4)
        np.testing.assert_array_equal(slices[0], slices[1])

    def test_unknown_name_rejected(self, small_scene):
        scene, _ = small_scene
        with pytest.raises(ValueError):
            tg.builtin_target("spiral", scene)


class TestGridImage:
    def test_round_trip_orientation(self, tmp_path, small_scene):
        scene, _ = small_scene
        grid = np.zeros((8, 8))
        grid[2, 5] = 1.0  # ix=2, iy=5
        tg.write_grid_image(tmp_path / "grid.pgm", grid)
        image, _ = tg.read_pgm(tmp_path / "grid.pgm")
        assert image[8 - 1 - 5, 2] == 255  # y flips into rows from the top


class TestWritePgm:
    @staticmethod
    def formatted_one_value_at_a_time(image, comment):
        """The P2 text with each pixel formatted on its own, by ``str``."""
        lines = ["P2", f"# {comment}", f"{image.shape[1]} {image.shape[0]}", str(tg.PGM_MAXVAL)]
        lines.extend(" ".join(str(v) for v in row) for row in image.tolist())
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "image",
        [
            np.random.default_rng(5).integers(0, 256, (16, 16)),
            np.random.default_rng(6).integers(0, 256, (7, 33)),
            np.random.default_rng(7).integers(0, 256, (1, 9)),
            np.random.default_rng(8).integers(0, 256, (9, 1)),
            np.zeros((4, 5), dtype=int),
            np.full((5, 4), 255),
        ],
        ids=["random", "random-wide", "one-row", "one-column", "all-0", "all-255"],
    )
    def test_bytes_match_formatting_each_value(self, image, tmp_path):
        tg.write_pgm(tmp_path / "img.pgm", image, comment="c")
        assert (tmp_path / "img.pgm").read_text() == self.formatted_one_value_at_a_time(image, "c")
