"""Field quantities and kernels against independently coded scalar oracles."""

import cmath
import math

import numpy as np
import pytest

from risimage import em_core as em
from risimage import scene as sc
from risimage.errors import (
    CacheMismatch,
    CoincidentPoints,
    DimensionMismatch,
    KernelSizeError,
    KindMismatch,
    MalformedConfig,
)

from conftest import desk_config, small_config, volume_config

# Constants restated here so the oracles share nothing with the implementation.
MU = 4.0 * math.pi * 1e-7
EPS = 8.8541878128e-12
ETA = math.sqrt(MU / EPS)


def oracle_jx(cfg, y):
    k = 2.0 * math.pi / cfg.wavelength
    return (
        2.0
        * cfg.incident_amplitude
        / ETA
        * math.cos(cfg.incident_elevation)
        * cmath.exp(-1j * k * math.sin(cfg.incident_elevation) * y)
    )


def oracle_z_entry(cfg, target_pt, ris_pt, cell_area):
    k = 2.0 * math.pi / cfg.wavelength
    r = math.dist(target_pt, ris_pt)
    return (
        -(1.0 + 1j * k * r)
        / (4.0 * math.pi * r**3)
        * cell_area
        * cfg.target_distance
        * oracle_jx(cfg, ris_pt[1])
        * cmath.exp(-1j * k * r)
    )


def oracle_green_row(cfg, receiver, point):
    k = 2.0 * math.pi / cfg.wavelength
    rr = math.dist(receiver, point)
    rhat = [(receiver[i] - point[i]) / rr for i in range(3)]
    g = cmath.exp(-1j * k * rr) / (4.0 * math.pi * rr)
    radial = 3.0 / (k * rr) ** 2 + 3j / (k * rr) - 1.0
    transverse = 1.0 / (k * rr) ** 2 + 1j / (k * rr) - 1.0
    return [
        (radial * rhat[0] * rhat[a] - (transverse if a == 0 else 0.0)) * g for a in range(3)
    ]


def oracle_e_factors(cfg, target_pt, ris_pt):
    k = 2.0 * math.pi / cfg.wavelength
    r = math.dist(target_pt, ris_pt)
    kr = k * r
    dx = target_pt[0] - ris_pt[0]
    dy = target_pt[1] - ris_pt[1]
    near = (3.0 + 3j * kr - kr**2) / r**5
    t_xx = (-1.0 - 1j * kr + kr**2) / r**3 + near * dx**2
    t_xy = near * dy * dx
    t_xz = near * target_pt[2] * dx
    return t_xx, t_xy, t_xz


def oracle_e_field(cfg, ris_points, cell_area, p, target_pt):
    """Aperture E-field (x, y, z) at one target point, summed sample by sample."""
    k = 2.0 * math.pi / cfg.wavelength
    field = [0.0, 0.0, 0.0]
    for ris_pt, weight in zip(ris_points, p):
        common = (
            -1j * ETA / (4.0 * math.pi * k)
            * cell_area
            * oracle_jx(cfg, ris_pt[1])
            * weight
            * cmath.exp(-1j * k * math.dist(target_pt, ris_pt))
        )
        for a, factor in enumerate(oracle_e_factors(cfg, target_pt, ris_pt)):
            field[a] += common * factor
    return field


def oracle_y_entry(cfg, receiver, target_pt, ris_pt, cell_area):
    k = 2.0 * math.pi / cfg.wavelength
    r = math.dist(target_pt, ris_pt)
    g_row = oracle_green_row(cfg, receiver, target_pt)
    t_xx, t_xy, t_xz = oracle_e_factors(cfg, target_pt, ris_pt)
    return (
        -1j
        * ETA
        / (4.0 * math.pi * k)
        * cell_area
        * oracle_jx(cfg, ris_pt[1])
        * cmath.exp(-1j * k * r)
        * (g_row[0] * t_xx + g_row[1] * t_xy + g_row[2] * t_xz)
    )


class TestIncidentCurrent:
    def test_unit_phase_at_origin(self, small_scene):
        scene, _ = small_scene
        (value,) = em.incident_current(scene, [0.0])
        assert value == pytest.approx(2.0 * math.cos(math.radians(30.0)) / ETA)
        assert value.imag == 0.0

    def test_grazing_incidence_vanishes(self):
        # validation rejects grazing incidence, as it leaves no field to shape
        cfg = small_config(incident_elevation=math.pi / 2.0)
        with pytest.raises(MalformedConfig):
            sc.validate_scene(cfg)
        assert abs(em.incident_current(sc.ValidatedScene(cfg), [0.2])[0]) < 1e-15

    def test_quarter_wave_path_phase(self, small_scene):
        scene, _ = small_scene
        cfg = scene.config
        y = cfg.wavelength / (4.0 * math.sin(cfg.incident_elevation))
        (value,) = em.incident_current(scene, [y])
        assert cmath.phase(value) == pytest.approx(-math.pi / 2.0)


def assert_plane_entries_match_oracle(scene, grids, seed):
    kernel = em.kernel_2d(scene, grids)
    rng = np.random.default_rng(seed)
    for _ in range(100):
        m = int(rng.integers(grids.target_points.shape[0]))
        n = int(rng.integers(grids.ris_points.shape[0]))
        expected = oracle_z_entry(
            scene.config, grids.target_points[m], grids.ris_points[n], grids.ris_cell_area
        )
        assert kernel.entries[m, n] == pytest.approx(expected, rel=1e-12)


def assert_volume_entries_match_oracle(scene, grids, seed):
    kernel = em.kernel_3d(scene, grids)
    rng = np.random.default_rng(seed)
    receiver = scene.config.receiver_pos
    for _ in range(100):
        m = int(rng.integers(grids.target_points.shape[0]))
        n = int(rng.integers(grids.ris_points.shape[0]))
        expected = oracle_y_entry(
            scene.config, receiver, grids.target_points[m], grids.ris_points[n], grids.ris_cell_area
        )
        assert kernel.entries[m, n] == pytest.approx(expected, rel=1e-12)


def assert_two_path_consistency(scene, grids, seed):
    # contrast-weighted receiver sum equals the Green-row contraction of
    # the aperture field components, voxel by voxel
    kernel = em.kernel_3d(scene, grids)
    rng = np.random.default_rng(seed)
    cfg = scene.config
    k = scene.wavenumber
    chi = np.zeros(scene.n_target, dtype=complex)
    chi[[1, 6]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    for _ in range(5):
        p = rng.standard_normal(scene.n_ris) + 1j * rng.standard_normal(scene.n_ris)
        direct = k**2 * np.sum(chi * (kernel.entries @ p)) * grids.target_cell_measure
        contracted = 0.0
        for m in np.flatnonzero(chi):
            point = grids.target_points[m]
            g_row = oracle_green_row(cfg, cfg.receiver_pos, point)
            e_vec = oracle_e_field(cfg, grids.ris_points, grids.ris_cell_area, p, point)
            contracted += chi[m] * sum(g * e for g, e in zip(g_row, e_vec))
        contracted *= k**2 * grids.target_cell_measure
        assert abs(direct - contracted) / abs(direct) < 1e-10


# Target pitch 0.7x the aperture pitch (0.25 m over 16 samples): no two
# target-aperture offsets along an axis coincide, so the offset tables are as
# large as they get. The target grids are not square, so the x and y tables
# differ in size.
SKEWED_PITCH = 0.7 * 0.25 / 16


@pytest.fixture(scope="module")
def skewed_plane_scene():
    scene = sc.validate_scene(
        desk_config(
            n_ris_x=16,
            n_ris_y=16,
            n_target_x=8,
            n_target_y=5,
            target_len_x=8 * SKEWED_PITCH,
            target_len_y=5 * SKEWED_PITCH,
        )
    )
    return scene, sc.sample_grids(scene)


@pytest.fixture(scope="module")
def skewed_volume_scene():
    scene = sc.validate_scene(
        volume_config(n_xy=3, n_target_y=2, target_len_x=3 * SKEWED_PITCH, target_len_y=2 * SKEWED_PITCH)
    )
    return scene, sc.sample_grids(scene)


class TestKernel2d:
    def test_entries_match_scalar_oracle(self, small_scene):
        assert_plane_entries_match_oracle(*small_scene, seed=7)

    def test_entries_finite_and_nonzero(self, desk_scene):
        scene, grids = desk_scene
        kernel = em.kernel_2d(scene, grids)
        assert np.all(np.isfinite(kernel.entries))
        assert np.all(np.abs(kernel.entries) > 0.0)

    def test_x_mirror_symmetry(self):
        # |Z| depends only on the source-target distance, so the x-mirrored
        # pair of (target, aperture) points has equal magnitude
        scene = sc.validate_scene(small_config())
        grids = sc.sample_grids(scene)
        kernel = em.kernel_2d(scene, grids)
        x_t = grids.target_points[:, 0]
        x_r = grids.ris_points[:, 0]
        m_pos = int(np.argmax(x_t))
        n_pos = int(np.argmax(x_r))
        m_neg = int(np.argmin((grids.target_points[:, 0] + x_t[m_pos]) ** 2 + (grids.target_points[:, 1] - grids.target_points[m_pos, 1]) ** 2))
        n_neg = int(np.argmin((grids.ris_points[:, 0] + x_r[n_pos]) ** 2 + (grids.ris_points[:, 1] - grids.ris_points[n_pos, 1]) ** 2))
        assert abs(kernel.entries[m_pos, n_pos]) == pytest.approx(abs(kernel.entries[m_neg, n_neg]), rel=1e-12)

    def test_far_entry_magnitude_halves_when_distance_doubles(self):
        # on-axis, kR >> 1: |Z| ~ 1/z'
        near = sc.validate_scene(small_config(z_prime=0.2))
        far = sc.validate_scene(small_config(z_prime=0.4))
        g_near, g_far = sc.sample_grids(near), sc.sample_grids(far)
        centre_m = 8 * 4 + 4
        centre_n = 16 * 8 + 8
        z_near = oracle_z_entry(near.config, g_near.target_points[centre_m], g_near.ris_points[centre_n], g_near.ris_cell_area)
        z_far = oracle_z_entry(far.config, g_far.target_points[centre_m], g_far.ris_points[centre_n], g_far.ris_cell_area)
        assert em.kernel_2d(near, g_near).entries[centre_m, centre_n] == pytest.approx(z_near, rel=1e-12)
        assert abs(z_far) / abs(z_near) == pytest.approx(0.5, rel=0.05)

    def test_sizing_cap_raises_before_allocation(self, small_scene, monkeypatch):
        scene, grids = small_scene
        monkeypatch.setattr(em, "ENTRY_CAP", 100)
        with pytest.raises(KernelSizeError):
            em.kernel_2d(scene, grids)

    def test_kind_mismatch(self, volume_scene):
        scene, grids = volume_scene
        with pytest.raises(KindMismatch):
            em.kernel_2d(scene, grids)


class TestPsf:
    def test_modulus_identity(self, small_scene):
        scene, grids = small_scene
        point = grids.target_points[3]
        k = scene.wavenumber
        r = math.dist(point, scene.config.receiver_pos)
        assert abs(em.psf_vector(scene, point[None, :])[0]) == pytest.approx(k * ETA / (4.0 * math.pi * r))

    def test_phase_identity(self, small_scene):
        scene, grids = small_scene
        point = grids.target_points[11]
        k = scene.wavenumber
        r = math.dist(point, scene.config.receiver_pos)
        expected = (-math.pi / 2.0 - k * r) % (2.0 * math.pi)
        assert cmath.phase(em.psf_vector(scene, point[None, :])[0]) % (2.0 * math.pi) == pytest.approx(
            expected, abs=1e-9
        )

    def test_equidistant_points_equal_magnitude(self, small_scene):
        scene, _ = small_scene
        x_r, y_r, z_r = scene.config.receiver_pos
        values = em.psf_vector(scene, np.array([(x_r + 1.0, y_r, z_r), (x_r - 1.0, y_r, z_r)]))
        assert abs(values[0]) == pytest.approx(abs(values[1]), rel=1e-12)


class TestGreenTensor:
    K = 2.0 * math.pi / 0.01

    def test_symmetric_for_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            r_r = rng.uniform(-1.0, 1.0, 3)
            r_p = rng.uniform(-1.0, 1.0, 3)
            tensor = em.green_tensor(r_r, r_p[None, :], self.K)[0]
            np.testing.assert_array_equal(tensor, tensor.T)

    def test_far_field_limit(self):
        # kR = 1e4: tensor tends to (I - Rhat Rhat^T) g
        direction = np.array([2.0, -1.0, 2.0]) / 3.0
        r_r = direction * (1e4 / self.K)
        tensor = em.green_tensor(r_r, np.zeros((1, 3)), self.K)[0]
        rr = float(np.linalg.norm(r_r))
        g = cmath.exp(-1j * self.K * rr) / (4.0 * math.pi * rr)
        limit = (np.eye(3) - np.outer(direction, direction)) * g
        assert np.linalg.norm(tensor - limit) / np.linalg.norm(limit) < 1e-3

    def test_matches_finite_difference_operator(self):
        # central differences of (I + grad grad / k^2) g at step 1e-4 lambda
        rng = np.random.default_rng(5)
        step = 1e-4 * 0.01

        def g_scalar(r_r, r_p):
            rr = float(np.linalg.norm(r_r - r_p))
            return cmath.exp(-1j * self.K * rr) / (4.0 * math.pi * rr)

        for _ in range(20):
            r_p = rng.uniform(-0.3, 0.3, 3)
            r_r = r_p + rng.uniform(0.2, 1.0) * _random_direction(rng)
            tensor = em.green_tensor(r_r, r_p[None, :], self.K)[0]
            fd = np.empty((3, 3), dtype=complex)
            for a in range(3):
                for b in range(3):
                    ea = np.eye(3)[a] * step
                    eb = np.eye(3)[b] * step
                    if a == b:
                        second = (g_scalar(r_r + ea, r_p) - 2.0 * g_scalar(r_r, r_p) + g_scalar(r_r - ea, r_p)) / step**2
                    else:
                        second = (
                            g_scalar(r_r + ea + eb, r_p)
                            - g_scalar(r_r + ea - eb, r_p)
                            - g_scalar(r_r - ea + eb, r_p)
                            + g_scalar(r_r - ea - eb, r_p)
                        ) / (4.0 * step**2)
                    fd[a, b] = (g_scalar(r_r, r_p) if a == b else 0.0) + second / self.K**2
            assert np.abs(tensor - fd).max() / np.abs(tensor).max() < 1e-4

    def test_coincident_points_rejected(self):
        with pytest.raises(CoincidentPoints):
            em.green_tensor((1.0, 2.0, 3.0), [(0.0, 0.0, 1.0), (1.0, 2.0, 3.0)], self.K)


def _random_direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestKernel3d:
    def test_entries_match_scalar_oracle(self, volume_scene):
        assert_volume_entries_match_oracle(*volume_scene, seed=17)

    def test_zero_coefficients_zero_field(self, volume_scene):
        scene, grids = volume_scene
        kernel = em.kernel_3d(scene, grids)
        np.testing.assert_array_equal(kernel.entries @ np.zeros(scene.n_ris), 0.0)

    def test_two_path_consistency(self, volume_scene):
        assert_two_path_consistency(*volume_scene, seed=23)


class TestIncommensuratePitches:
    """Kernels whose target pitch is no integer multiple of the aperture pitch."""

    @pytest.mark.parametrize("fixture", ["skewed_plane_scene", "skewed_volume_scene"])
    def test_every_offset_is_distinct(self, request, fixture):
        scene, grids = request.getfixturevalue(fixture)
        for axis in (0, 1):
            offsets = np.unique(grids.target_points[:, axis])[:, None] - np.unique(grids.ris_points[:, axis])
            assert np.unique(offsets).size == offsets.size

    def test_plane_entries_match_scalar_oracle(self, skewed_plane_scene):
        assert_plane_entries_match_oracle(*skewed_plane_scene, seed=31)

    def test_volume_entries_match_scalar_oracle(self, skewed_volume_scene):
        assert_volume_entries_match_oracle(*skewed_volume_scene, seed=37)

    def test_volume_two_path_consistency(self, skewed_volume_scene):
        assert_two_path_consistency(*skewed_volume_scene, seed=41)


@pytest.mark.parametrize(
    "fixture", ["small_scene", "volume_scene", "skewed_plane_scene", "skewed_volume_scene"]
)
def test_kernel_independent_of_row_blocks(request, monkeypatch, fixture):
    # kernels are assembled in row blocks; one row per block gives the same bits
    scene, grids = request.getfixturevalue(fixture)
    whole = em.assemble_kernel(scene, grids).entries
    monkeypatch.setattr(em, "_CHUNK_ENTRIES", 1)
    np.testing.assert_array_equal(em.assemble_kernel(scene, grids).entries, whole)


class TestKernelCache:
    def test_round_trip(self, small_scene, tmp_path):
        scene, grids = small_scene
        kernel = em.kernel_2d(scene, grids)
        path = tmp_path / "kernel.bin"
        em.save_kernel(path, kernel)
        loaded = em.load_kernel(path, scene, grids)
        assert loaded.kind == kernel.kind
        np.testing.assert_array_equal(loaded.entries, kernel.entries)

    def test_fingerprint_mismatch_rejected(self, small_scene, tmp_path):
        scene, grids = small_scene
        path = tmp_path / "kernel.bin"
        em.save_kernel(path, em.kernel_2d(scene, grids))
        other = sc.validate_scene(small_config(z_prime=0.25))
        with pytest.raises(CacheMismatch):
            em.load_kernel(path, other, sc.sample_grids(other))

    def test_overlong_body_rejected(self, small_scene, tmp_path):
        scene, grids = small_scene
        path = tmp_path / "kernel.bin"
        em.save_kernel(path, em.kernel_2d(scene, grids))
        path.write_bytes(path.read_bytes() + bytes(16))
        with pytest.raises(CacheMismatch):
            em.load_kernel(path, scene, grids)

    def test_negative_sizes_in_header_rejected(self, small_scene, tmp_path):
        scene, grids = small_scene
        path = tmp_path / "kernel.bin"
        path.write_bytes(f"kind=Z_2d m=-1 n=-4 fingerprint={scene.fingerprint}\n".encode() + bytes(64))
        with pytest.raises(CacheMismatch):
            em.load_kernel(path, scene, grids)

    def test_loaded_entries_are_read_only(self, small_scene, tmp_path):
        scene, grids = small_scene
        path = tmp_path / "kernel.bin"
        em.save_kernel(path, em.kernel_2d(scene, grids))
        entries = em.load_kernel(path, scene, grids).entries
        assert entries.dtype == np.complex128 and not entries.flags.writeable

    @pytest.mark.parametrize("dtype", ["<c16", ">c16"])
    def test_non_contiguous_body_written_in_row_order(self, tmp_path, dtype):
        rng = np.random.default_rng(9)
        values = (rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))).astype(dtype).T
        assert not values.flags.c_contiguous
        header = "kind=t count=3 points=5 fingerprint=f\n"
        em.write_complex_file(tmp_path / "v.bin", header, values)
        body = (tmp_path / "v.bin").read_bytes()[len(header) :]
        assert body == np.ascontiguousarray(values, dtype="<c16").tobytes()
        kind, fingerprint, loaded = em.read_complex_file(tmp_path / "v.bin", ("count", "points"))
        assert (kind, fingerprint) == ("t", "f")
        np.testing.assert_array_equal(loaded, values)

    def test_truncated_body_rejected(self, small_scene, tmp_path):
        scene, grids = small_scene
        path = tmp_path / "kernel.bin"
        em.save_kernel(path, em.kernel_2d(scene, grids))
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CacheMismatch):
            em.load_kernel(path, scene, grids)
