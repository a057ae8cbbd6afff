"""Scene validation, sampling grids, resolution bounds, config parsing."""

import math
from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from risimage import runner as rn
from risimage import scene as sc
from risimage.errors import (
    FarFieldViolation,
    MalformedConfig,
    NearFieldViolation,
    NonPositiveDimension,
)

from conftest import desk_config, published_config, volume_config


class TestValidateScene:
    def test_published_geometry_is_valid(self):
        scene = sc.validate_scene(published_config())
        assert scene.rayleigh_distance == pytest.approx(1600.0)

    def test_published_receiver_is_far_field(self):
        # (40, 40, -10) sits 58.3 m from the target centre, beyond the 50 m bound
        scene = sc.validate_scene(published_config())
        assert scene.receiver_far_field_bound == pytest.approx(50.0)
        assert scene.receiver_target_distance == pytest.approx(math.sqrt(3396.0))

    def test_published_volume_geometry_is_valid(self):
        cfg = published_config(
            target_kind=sc.VOLUME_3D,
            target_distance=2.0,
            target_depth=0.5,
            n_target_x=32,
            n_target_y=32,
            n_target_z=8,
            n_ris_x=128,
            n_ris_y=128,
        )
        scene = sc.validate_scene(cfg)
        assert scene.n_target == 8192 and scene.n_ris == 16384

    def test_rayleigh_boundary_rejected(self):
        # z' exactly at 2(a^2+b^2)/lambda is no longer near field
        with pytest.raises(NearFieldViolation):
            sc.validate_scene(published_config(target_distance=1600.0))

    def test_receiver_inside_far_field_bound_rejected(self):
        with pytest.raises(FarFieldViolation):
            sc.validate_scene(published_config(receiver_pos=(3.0, 3.0, -1.0)))

    @pytest.mark.parametrize(
        "field", ["wavelength", "ris_len_x", "ris_len_y", "target_len_x", "target_len_y", "target_distance", "amplification"]
    )
    def test_non_positive_dimensions_rejected(self, field):
        with pytest.raises(NonPositiveDimension):
            sc.validate_scene(published_config(**{field: 0.0}))
        with pytest.raises(NonPositiveDimension):
            sc.validate_scene(published_config(**{field: -1.0}))

    def test_volume_needs_positive_depth(self):
        with pytest.raises(NonPositiveDimension):
            sc.validate_scene(volume_config(target_depth=0.0))

    def test_volume_far_face_must_stay_near_field(self):
        cfg = volume_config(z_prime=24.9, target_depth=0.2)
        with pytest.raises(NearFieldViolation):
            sc.validate_scene(cfg)


class TestSampleGrids:
    def test_uniform_grid_matches_hand_values(self):
        # 4x4 over a 2 m square: spacing 0.5 m, centred on the origin
        cfg = published_config(n_ris_x=4, n_ris_y=4)
        grids = sc.sample_grids(sc.validate_scene(cfg))
        assert grids.ris_points.shape == (16, 3)
        xs = np.unique(grids.ris_points[:, 0])
        np.testing.assert_allclose(xs, [-0.75, -0.25, 0.25, 0.75])
        assert np.all(grids.ris_points[:, 2] == 0.0)
        np.testing.assert_allclose(grids.ris_points.sum(axis=0), 0.0, atol=1e-12)

    def test_voxel_grid_cell_volume(self):
        # 2x2x2 over a 0.5 m cube: dV = 0.25^3
        cfg = volume_config(
            n_xy=2,
            n_z=2,
            target_len_x=0.5,
            target_len_y=0.5,
            target_depth=0.5,
            z_prime=0.2,
            receiver_pos=(40.0, 40.0, -10.0),
        )
        scene = sc.validate_scene(cfg)
        grids = sc.sample_grids(scene)
        assert grids.target_points.shape == (8, 3)
        assert grids.target_cell_measure == pytest.approx(0.015625)
        # z spans [z', z' + depth], cell-centred
        np.testing.assert_allclose(np.unique(grids.target_points[:, 2]), [0.325, 0.575])

    def test_ordering_is_x_fastest(self):
        grids = sc.sample_grids(sc.validate_scene(desk_config()))
        nx = 16
        # consecutive flat indices advance x first
        assert grids.target_points[1, 0] > grids.target_points[0, 0]
        assert grids.target_points[1, 1] == grids.target_points[0, 1]
        assert grids.target_points[nx, 1] > grids.target_points[0, 1]

    def test_deterministic_across_calls(self):
        scene = sc.validate_scene(desk_config())
        a = sc.sample_grids(scene)
        b = sc.sample_grids(scene)
        assert a.ris_points.tobytes() == b.ris_points.tobytes()
        assert a.target_points.tobytes() == b.target_points.tobytes()

    def test_grids_are_read_only(self):
        grids = sc.sample_grids(sc.validate_scene(desk_config()))
        with pytest.raises(ValueError):
            grids.ris_points[0, 0] = 1.0


class TestResolution:
    def test_published_sine_values(self):
        # published sine endpoints with lambda = 0.01 m
        assert sc.resolution_from_sine(0.01, 0.7071) == pytest.approx(0.0071, abs=1e-4)
        assert sc.resolution_from_sine(0.01, 0.2425) == pytest.approx(0.0206, abs=1e-4)

    def test_maximal_aperture_angle(self):
        assert sc.resolution_from_sine(0.01, 1.0) == pytest.approx(0.005)

    def test_half_sine_formula(self):
        assert sc.aperture_half_sine(2.0, 4.0) == pytest.approx(2.0 / math.sqrt(4.0 + 64.0))

    @given(st.floats(min_value=0.05, max_value=20.0), st.floats(min_value=1.05, max_value=4.0))
    def test_monotone_in_distance(self, z_prime, factor):
        dx_near = sc.resolution_from_sine(0.01, sc.aperture_half_sine(0.25, z_prime))
        dx_far = sc.resolution_from_sine(0.01, sc.aperture_half_sine(0.25, z_prime * factor))
        assert dx_far > dx_near


class TestConfigFile:
    GOOD = """
# scene for tests
wavelength = 0.01
ris_len_x = 0.25
ris_len_y = 0.25
target_len_x = 0.125
target_len_y = 0.125
target_distance = 0.125
incident_elevation = 30  # degrees in the file
receiver_x = 5.0
receiver_y = 5.0
receiver_z = -1.25
n_ris_x = 32
n_ris_y = 32
n_target_x = 16
n_target_y = 16
reflection_coeff = -1
"""

    def test_round_trip_matches_builder(self):
        cfg = sc.parse_scene_config(self.GOOD)
        assert cfg == desk_config()

    def test_degrees_converted_to_radians(self):
        cfg = sc.parse_scene_config(self.GOOD)
        assert cfg.incident_elevation == pytest.approx(math.radians(30.0))

    def test_complex_reflection_coefficient(self):
        text = self.GOOD.replace("reflection_coeff = -1", "reflection_coeff = 0.5+0.25j")
        assert sc.parse_scene_config(text).reflection_coeff == 0.5 + 0.25j

    def test_missing_key_rejected(self):
        bad = "\n".join(l for l in self.GOOD.splitlines() if not l.startswith("wavelength"))
        with pytest.raises(MalformedConfig):
            sc.parse_scene_config(bad)

    def test_unknown_key_rejected(self):
        with pytest.raises(MalformedConfig):
            sc.parse_scene_config(self.GOOD + "\nris_len_z = 1.0")

    def test_duplicate_key_rejected(self):
        with pytest.raises(MalformedConfig):
            sc.parse_scene_config(self.GOOD + "\nwavelength = 0.02")


class TestFieldReader:
    """Scene and plan files are read through their dataclasses' field types."""

    SCENE = """
wavelength = 0.02
ris_len_x = 0.5
ris_len_y = 0.375
target_len_x = 0.25
target_len_y = 0.125
target_distance = 0.25
incident_elevation = 45
receiver_x = 1.5
receiver_y = -2.5
receiver_z = -3
n_ris_x = 12
n_ris_y = 10
n_target_x = 6
n_target_y = 5
n_target_z = 3
target_depth = 0.0625
target_kind = volume3d
incident_amplitude = 2.5
amplification = 0.75
reflection_coeff = 0.5 - 0.25j
"""

    PLAN = """
scene = scene.cfg
target = checkerboard
i_values = 128, 256
snr_values = 10, None, -5.5
z_values = 0.125,0.25
gamma = 1e-10
threshold_factor = 0.5
truncation_mode = sigma
seed = 42
output_dir = runs/elsewhere
calibration = lsq
noise_mode = absolute
phase_mode = exact
ideal_masks = yes
keep_artifacts = True
n0_dbm_per_hz = -170
bandwidth_hz = 2e6
"""

    @staticmethod
    def assert_no_defaults(value):
        for f in fields(value):
            if f.default is not MISSING:
                assert getattr(value, f.name) != f.default, f.name

    def test_scene_sets_every_field(self):
        cfg = sc.parse_scene_config(self.SCENE)
        assert cfg == sc.SceneConfig(
            wavelength=0.02,
            ris_len_x=0.5,
            ris_len_y=0.375,
            target_len_x=0.25,
            target_len_y=0.125,
            target_distance=0.25,
            incident_elevation=math.radians(45.0),
            receiver_pos=(1.5, -2.5, -3.0),
            n_ris_x=12,
            n_ris_y=10,
            n_target_x=6,
            n_target_y=5,
            n_target_z=3,
            target_depth=0.0625,
            target_kind=sc.VOLUME_3D,
            incident_amplitude=2.5,
            amplification=0.75,
            reflection_coeff=0.5 - 0.25j,
        )
        assert all(type(cfg.receiver_pos[i]) is float for i in range(3))
        assert type(cfg.n_ris_x) is int and type(cfg.reflection_coeff) is complex
        self.assert_no_defaults(cfg)

    def test_plan_sets_every_field(self, tmp_path):
        (tmp_path / "scene.cfg").write_text(self.SCENE)
        plan = rn.parse_plan(self.PLAN, base_dir=tmp_path)
        assert plan == rn.ExperimentPlan(
            scene=sc.parse_scene_config(self.SCENE),
            target="checkerboard",
            i_values=(128, 256),
            snr_values=(10.0, None, -5.5),
            z_values=(0.125, 0.25),
            gamma=1e-10,
            threshold_factor=0.5,
            truncation_mode="sigma",
            seed=42,
            output_dir="runs/elsewhere",
            calibration="lsq",
            noise_mode="absolute",
            phase_mode="exact",
            ideal_masks=True,
            keep_artifacts=True,
            n0_dbm_per_hz=-170.0,
            bandwidth_hz=2e6,
        )
        self.assert_no_defaults(plan)
        plan.validate()

    @pytest.mark.parametrize(
        "cls, file_only",
        [(sc.SceneConfig, {"receiver_pos"}), (rn.ExperimentPlan, {"scene"})],
        ids=["scene", "plan"],
    )
    def test_every_settable_field_has_a_readable_type(self, cls, file_only):
        # receiver_pos is read from receiver_x/_y/_z, and a plan's scene from its own file
        for f in fields(cls):
            if f.name not in file_only:
                assert f.type in sc._FIELD_PARSERS, f"{cls.__name__}.{f.name}: {f.type}"

    @pytest.mark.parametrize(
        "entry, named",
        [
            ("ideal_masks = maybe", "ideal_masks"),
            ("gamma = none", "gamma"),
            ("i_values = none", "i_values"),
            ("i_values = 64,", "i_values"),
            ("snr_values = 10,,20", "snr_values"),
            ("seed = 1.5", "seed"),
            ("workers = x", "workers"),
            ("workers = 2", "workers"),
            ("scene_file = other.cfg", "scene_file"),
        ],
    )
    def test_bad_plan_entry_names_its_key(self, tmp_path, entry, named):
        (tmp_path / "scene.cfg").write_text(self.SCENE)
        with pytest.raises(MalformedConfig, match=named):
            rn.parse_plan(f"scene = scene.cfg\n{entry}\n", base_dir=tmp_path)

    @pytest.mark.parametrize(
        "change, named",
        [
            (("receiver_y = -2.5", ""), "receiver_y"),
            (("n_ris_x = 12", ""), "n_ris_x"),
            (("receiver_z = -3", "receiver_pos = 1, 2, 3"), "receiver_"),
            (("target_kind = volume3d", "target_kind = volume3d\nn_target_w = 2"), "n_target_w"),
            (("n_ris_x = 12", "n_ris_x = 12.0"), "n_ris_x"),
            (("receiver_x = 1.5", "receiver_x = east"), "receiver"),
            (("reflection_coeff = 0.5 - 0.25j", "reflection_coeff = j0.5"), "reflection_coeff"),
        ],
    )
    def test_bad_scene_entry_names_its_key(self, change, named):
        with pytest.raises(MalformedConfig, match=named):
            sc.parse_scene_config(self.SCENE.replace(*change))


class TestFingerprint:
    def test_stable_and_sensitive(self):
        a = sc.fingerprint(desk_config())
        assert a == sc.fingerprint(desk_config())
        assert a != sc.fingerprint(desk_config(target_distance=0.25))
