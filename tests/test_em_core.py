"""Field quantities and kernels against independently coded scalar oracles."""

import cmath
import errno
import math
import os

import numpy as np
import pytest

from risimage import em_core as em
from risimage import scene as sc
from risimage.errors import (
    CacheMismatch,
    CoincidentPoints,
    DimensionMismatch,
    KernelSizeError,
    MalformedConfig,
    NonFiniteKernel,
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
    kernel = em.assemble_kernel(scene, grids)
    rng = np.random.default_rng(seed)
    for _ in range(100):
        m = int(rng.integers(grids.target_points.shape[0]))
        n = int(rng.integers(grids.ris_points.shape[0]))
        expected = oracle_z_entry(
            scene.config, grids.target_points[m], grids.ris_points[n], grids.ris_cell_area
        )
        assert kernel.entries[m, n] == pytest.approx(expected, rel=1e-12)


def assert_volume_entries_match_oracle(scene, grids, seed):
    kernel = em.assemble_kernel(scene, grids)
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
    kernel = em.assemble_kernel(scene, grids)
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
        kernel = em.assemble_kernel(scene, grids)
        assert np.all(np.isfinite(kernel.entries))
        assert np.all(np.abs(kernel.entries) > 0.0)

    def test_x_mirror_symmetry(self):
        # |Z| depends only on the source-target distance, so the x-mirrored
        # pair of (target, aperture) points has equal magnitude
        scene = sc.validate_scene(small_config())
        grids = sc.sample_grids(scene)
        kernel = em.assemble_kernel(scene, grids)
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
        assert em.assemble_kernel(near, g_near).entries[centre_m, centre_n] == pytest.approx(z_near, rel=1e-12)
        assert abs(z_far) / abs(z_near) == pytest.approx(0.5, rel=0.05)

    def test_sizing_cap_raises_before_allocation(self, small_scene, monkeypatch):
        scene, grids = small_scene
        monkeypatch.setattr(em, "ENTRY_CAP", 100)
        with pytest.raises(KernelSizeError):
            em.assemble_kernel(scene, grids)


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
        kernel = em.assemble_kernel(scene, grids)
        np.testing.assert_array_equal(kernel.entries @ np.zeros(scene.n_ris), 0.0)

    def test_two_path_consistency(self, volume_scene):
        assert_two_path_consistency(*volume_scene, seed=23)

    @pytest.mark.parametrize("fixture", ["volume_scene", "skewed_volume_scene"])
    def test_receiver_weights_evaluated_once(self, request, monkeypatch, fixture, force_block_rows):
        scene, grids = request.getfixturevalue(fixture)
        calls = []
        green_tensor = em.green_tensor

        def counted(observation, sources, k):
            calls.append(len(sources))
            return green_tensor(observation, sources, k)

        monkeypatch.setattr(em, "green_tensor", counted)
        force_block_rows(1, scene.n_ris)  # one row per block
        em.kernel_stream(scene, grids).collect()
        assert calls == [scene.n_target]

    @pytest.mark.parametrize("fixture", ["volume_scene", "skewed_volume_scene"])
    def test_stored_rows_match_per_row_weights(self, request, monkeypatch, fixture):
        # the weights of all rows at once are those of each row on its own, bit for bit
        scene, grids = request.getfixturevalue(fixture)
        whole = em.kernel_stream(scene, grids).collect().entries
        green_tensor = em.green_tensor

        def per_row(observation, sources, k):
            return np.concatenate([green_tensor(observation, sources[m : m + 1], k) for m in range(len(sources))])

        monkeypatch.setattr(em, "green_tensor", per_row)
        np.testing.assert_array_equal(em.kernel_stream(scene, grids).collect().entries, whole)


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
def test_kernel_independent_of_row_blocks(request, force_block_rows, fixture):
    # kernels are assembled in row blocks; one row per block gives the same bits
    scene, grids = request.getfixturevalue(fixture)
    whole = em.assemble_kernel(scene, grids).entries
    force_block_rows(1, scene.n_ris)
    np.testing.assert_array_equal(em.assemble_kernel(scene, grids).entries, whole)


def old_table_index(y_index, x_index, iy, ix):
    """The gather index as formed from (target line, aperture column) tables
    of each axis, gathered per pixel and added."""
    n_ris_x = x_index.shape[1]
    cols = np.arange(y_index.shape[1] * n_ris_x)
    col_x = x_index[:, cols % n_ris_x]
    col_y = y_index[:, cols // n_ris_x]
    return col_y[iy] + col_x[ix]


GATHER_CONFIGS = {
    "odd-plane": lambda: desk_config(n_target_x=15, n_target_y=15, n_ris_x=33, n_ris_y=33),
    "odd-volume": lambda: volume_config(n_xy=3, n_z=3, n_ris=15),
    "line-plane": lambda: desk_config(n_target_x=1, n_target_y=4, n_ris_x=1, n_ris_y=6),
    "line-volume": lambda: volume_config(n_xy=1, n_target_y=3, n_z=2, n_ris=6),
}


@pytest.mark.parametrize(
    "name", ["desk_scene", "volume_scene", "skewed_plane_scene", "skewed_volume_scene", *GATHER_CONFIGS]
)
def test_stored_rows_match_the_two_dimensional_gather_index(request, monkeypatch, name):
    # the broadcast index of each row block gathers the bits the per-axis tables did,
    # on commensurate, incommensurate, odd and one-line grids
    if name in GATHER_CONFIGS:
        scene = sc.validate_scene(GATHER_CONFIGS[name]())
        grids = sc.sample_grids(scene)
    else:
        scene, grids = request.getfixturevalue(name)
    kernel = em.assemble_kernel(scene, grids)
    stored = kernel.stored
    # every entry of the even table t_xx (a plane kernel's only table) is nonzero; the odd
    # tables t_xy and t_xz of a volume vanish where the x or y offset does, as on odd grids
    (ex, ey), tables = kernel.symmetry.quadrant_shape, kernel.symmetry.tables
    even = stored.reshape(kernel.symmetry.depth, len(tables), ex * ey, -1)[:, 0]
    assert np.all(np.isfinite(stored)) and np.count_nonzero(even) == even.size
    monkeypatch.setattr(em, "_table_index", old_table_index)
    np.testing.assert_array_equal(em.assemble_kernel(scene, grids).stored, stored)


def signed_offsets(dx, dy):
    """The expansion of tables evaluated on the signed offsets themselves: each
    offset its own entry, none negated."""
    unsigned = (np.zeros((1, dx.size), dtype=bool), np.zeros((dy.size, 1), dtype=bool))
    return dx, dy, np.arange(dx.size * dy.size), unsigned


@pytest.mark.parametrize(
    "name", ["desk_scene", "volume_scene", "skewed_plane_scene", "skewed_volume_scene", *GATHER_CONFIGS]
)
def test_tables_on_offset_magnitudes_keep_the_signed_bits(request, monkeypatch, name):
    # even tables read an offset through its square and odd ones through products with
    # it, so their parity signs expand the magnitudes' tables exactly, signed zeros too
    if name in GATHER_CONFIGS:
        scene = sc.validate_scene(GATHER_CONFIGS[name]())
        grids = sc.sample_grids(scene)
    else:
        scene, grids = request.getfixturevalue(name)
    stored = em.assemble_kernel(scene, grids).stored
    monkeypatch.setattr(em, "_magnitude_expansion", signed_offsets)
    assert em.assemble_kernel(scene, grids).stored.tobytes() == stored.tobytes()


def test_magnitude_expansion_negates_by_parity():
    dx, dy = np.array([-2.0, -0.0, 0.0, 2.0, 3.0]), np.array([-1.0, 1.0])
    x_magnitudes, y_magnitudes, expand, signs = em._magnitude_expansion(dx, dy)
    assert x_magnitudes.tolist() == [0.0, 2.0, 3.0] and y_magnitudes.tolist() == [1.0]
    table = (x_magnitudes[None, :] + 10.0 * y_magnitudes[:, None] + 1j).reshape(-1)
    # negated where dx is negative (-0.0 too) under an odd x parity, where dy is under an odd y parity
    x_negative, y_negative = np.array([[1, 1, 0, 0, 0]], dtype=bool), np.array([[1], [0]], dtype=bool)
    for px, py in ((0, 0), (1, 0), (0, 1), (1, 1)):
        signed = em._expand_table(table, expand, signs, (px, py)).reshape(2, 5)
        expected = np.broadcast_to(np.abs(dx)[None, :] + 10.0 + 1j, (2, 5)).copy()
        negated = (x_negative & bool(px)) ^ (y_negative & bool(py))
        expected[negated] = -expected[negated]
        assert signed.tobytes() == expected.tobytes()


def write_file(path, header, values):
    """A binary file whose body is the one array ``values``."""
    with em.complex_file_writer(path, header, values.shape) as write:
        write(values)


class TestKernelCache:
    def test_round_trip(self, small_scene, tmp_path):
        scene, grids = small_scene
        kernel = em.assemble_kernel(scene, grids)
        path = tmp_path / "kernel.bin"
        em.save_kernel(path, kernel)
        loaded = em.load_kernel(path, scene, grids)
        assert loaded.kind == kernel.kind
        np.testing.assert_array_equal(loaded.entries, kernel.entries)

    def test_fingerprint_mismatch_rejected(self, small_scene, tmp_path):
        scene, grids = small_scene
        path = tmp_path / "kernel.bin"
        em.save_kernel(path, em.assemble_kernel(scene, grids))
        other = sc.validate_scene(small_config(z_prime=0.25))
        with pytest.raises(CacheMismatch):
            em.load_kernel(path, other, sc.sample_grids(other))

    def test_overlong_body_rejected(self, small_scene, tmp_path):
        scene, grids = small_scene
        path = tmp_path / "kernel.bin"
        em.save_kernel(path, em.assemble_kernel(scene, grids))
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
        em.save_kernel(path, em.assemble_kernel(scene, grids))
        entries = em.load_kernel(path, scene, grids).entries
        assert entries.dtype == np.complex128 and not entries.flags.writeable

    @pytest.mark.parametrize("dtype", ["<c16", ">c16"])
    def test_non_contiguous_body_written_in_row_order(self, tmp_path, dtype):
        rng = np.random.default_rng(9)
        values = (rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))).astype(dtype).T
        assert not values.flags.c_contiguous
        header = "kind=t count=3 points=5 fingerprint=f\n"
        write_file(tmp_path / "v.bin", header, values)
        body = (tmp_path / "v.bin").read_bytes()[len(header) :]
        assert body == np.ascontiguousarray(values, dtype="<c16").tobytes()
        kind, fingerprint, loaded = em.read_complex_file(tmp_path / "v.bin", ("count", "points"))
        assert (kind, fingerprint) == ("t", "f")
        np.testing.assert_array_equal(loaded, values)

    def test_truncated_body_rejected(self, small_scene, tmp_path):
        scene, grids = small_scene
        path = tmp_path / "kernel.bin"
        em.save_kernel(path, em.assemble_kernel(scene, grids))
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CacheMismatch):
            em.load_kernel(path, scene, grids)

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "overlong", "other-scene", "unknown-kind", "unreadable-header"],
    )
    def test_damaged_kernel_file_is_rejected(self, small_scene, tmp_path, damage):
        scene, grids = small_scene
        path = tmp_path / "kernel.bin"
        em.save_kernel(path, em.assemble_kernel(scene, grids))
        assert em.load_kernel(path, scene, grids).kind == em.KIND_Z2D
        data = path.read_bytes()
        header, body = data.split(b"\n", 1)
        damaged = {
            "truncated": data[:-16],
            "overlong": data + bytes(16),
            "other-scene": header.replace(scene.fingerprint.encode(), b"0" * 64) + b"\n" + body,
            "unknown-kind": header.replace(b"Z_2d", b"Q_9d") + b"\n" + body,
            "unreadable-header": header.replace(b"m=", b"rows=") + b"\n" + body,
        }[damage]
        path.write_bytes(damaged)
        with pytest.raises(CacheMismatch):
            em.load_kernel(path, scene, grids)

    @pytest.mark.parametrize("streamed", [False, True], ids=["saved", "streamed"])
    def test_cache_is_not_preallocated_so_a_short_body_shows(self, small_scene, tmp_path, monkeypatch, streamed):
        # a preallocated file renamed before writeback can survive a crash at
        # full length with zeros for a body; the loader checks only the length
        scene, grids = small_scene
        path = tmp_path / "kernel.bin"
        calls = []
        monkeypatch.setattr(em.os, "posix_fallocate", lambda *args: calls.append(args), raising=False)
        if streamed:
            for _ in em.kernel_stream(scene, grids).saved_to(path).blocks:
                pass
        else:
            em.save_kernel(path, em.assemble_kernel(scene, grids))
        assert calls == []
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CacheMismatch):
            em.load_kernel(path, scene, grids)


class TestStreamedWrite:
    """``complex_file_writer`` takes row blocks and stays atomic."""

    HEADER = "kind=t count=6 points=3 fingerprint=f\n"

    @staticmethod
    def values():
        rng = np.random.default_rng(11)
        return rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))

    def old_file(self, tmp_path):
        path = tmp_path / "v.bin"
        write_file(path, self.HEADER, 2.0 * self.values())
        return path, path.read_bytes()

    @staticmethod
    def assert_untouched(path, old):
        assert path.read_bytes() == old
        assert list(path.parent.glob(".*.tmp")) == []

    def test_blocks_write_the_bytes_of_the_whole_array(self, tmp_path):
        values = self.values()
        buffer = np.empty((4, 3), dtype=complex)
        write_file(tmp_path / "a.bin", self.HEADER, values)
        with em.complex_file_writer(tmp_path / "b.bin", self.HEADER, (6, 3)) as write:
            for start in range(0, 6, 4):  # each block overwrites the last one's buffer
                rows = buffer[: len(values[start : start + 4])]
                rows[...] = values[start : start + 4]
                write(rows)
        assert (tmp_path / "b.bin").read_bytes() == (tmp_path / "a.bin").read_bytes()

    def test_failing_stream_leaves_the_old_file(self, tmp_path):
        path, old = self.old_file(tmp_path)
        with pytest.raises(ZeroDivisionError):
            with em.complex_file_writer(path, self.HEADER, (6, 3)) as write:
                write(self.values()[:2])
                raise ZeroDivisionError("block 1")
        self.assert_untouched(path, old)

    @pytest.mark.parametrize(
        "shapes",
        [[(2, 3), (2, 3)], [(4, 3), (4, 3)], [(2, 3), (1, 2)]],
        ids=["too-few-rows", "too-many-rows", "wrong-width"],
    )
    def test_blocks_that_miss_the_header_leave_the_old_file(self, tmp_path, shapes):
        path, old = self.old_file(tmp_path)
        with pytest.raises(DimensionMismatch):
            with em.complex_file_writer(path, self.HEADER, (6, 3)) as write:
                for rows, cols in shapes:
                    write(self.values()[:rows, :cols])
        self.assert_untouched(path, old)


    @pytest.mark.parametrize(
        "period, blocks",
        [(None, [(0, 1), (3, 4), (1, 3), (4, 6)]), (2, [(1, 2), (0, 1)])],
        ids=["pairs", "3-periods-reversed"],
    )
    def test_blocks_out_of_row_order_write_the_bytes_of_the_whole_array(self, tmp_path, period, blocks):
        # each block of rows and then its partner rows, as a realization pass hands them
        values = self.values()
        rows = 6 if period is None else period
        write_file(tmp_path / "a.bin", self.HEADER, np.tile(values[:rows], (6 // rows, 1)))
        with em.complex_file_writer(tmp_path / "b.bin", self.HEADER, (6, 3), period=period) as write:
            for start, stop in blocks:
                write(values[start:stop], start)
        assert (tmp_path / "b.bin").read_bytes() == (tmp_path / "a.bin").read_bytes()

    @pytest.mark.parametrize("second", [(3, 6), (-1, 2), (5, 7)], ids=["overlapping", "negative", "past-the-end"])
    def test_a_block_off_the_rows_still_to_write_leaves_the_old_file(self, tmp_path, second):
        path, old = self.old_file(tmp_path)
        with pytest.raises(DimensionMismatch):
            with em.complex_file_writer(path, self.HEADER, (6, 3)) as write:
                write(self.values()[:4], 0)
                start, stop = second
                write(self.values()[: stop - start], start)
        self.assert_untouched(path, old)

    @pytest.mark.parametrize("period", [None, 4, 2], ids=["plain", "2-periods", "4-periods"])
    def test_each_block_is_written_at_every_period(self, tmp_path, period):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        header = "kind=t count=8 points=3 fingerprint=f\n"
        rows = 8 if period is None else period
        path = tmp_path / "b.bin"
        write_file(path, header + "longer\n", np.tile(values, (2, 1)))  # an old file larger than the new one
        with em.complex_file_writer(path, header, (8, 3), period=period) as write:
            for start in range(rows):  # one row a block: each offset is its own
                write(values[start : start + 1])
        write_file(tmp_path / "a.bin", header, np.tile(values[:rows], (8 // rows, 1)))
        assert path.stat().st_size == len(header) + 16 * 8 * 3
        assert path.read_bytes() == (tmp_path / "a.bin").read_bytes()

    @pytest.mark.skipif(not hasattr(os, "posix_fallocate"), reason="the platform has no posix_fallocate")
    def test_the_temporary_file_has_its_final_size_before_any_block(self, tmp_path):
        path, _ = self.old_file(tmp_path)
        with em.complex_file_writer(path, self.HEADER, (6, 3), period=2, preallocate=True) as write:
            (tmp,) = tmp_path.glob(".v.bin.*.tmp")
            assert tmp.stat().st_size == len(self.HEADER) + 16 * 6 * 3
            write(self.values()[:2])

    @pytest.mark.parametrize("short", [0, 1], ids=["header", "block"])
    def test_a_short_write_leaves_the_old_file(self, tmp_path, monkeypatch, short):
        path, old = self.old_file(tmp_path)
        calls = []

        def pwrite(fd, data, offset, _original=os.pwrite):
            calls.append(offset)
            if len(calls) - 1 == short:  # this call writes one byte less
                data = data[:-1]
            return _original(fd, data, offset)

        monkeypatch.setattr(em.os, "pwrite", pwrite)
        with pytest.raises(OSError, match="wrote"):
            with em.complex_file_writer(path, self.HEADER, (6, 3)) as write:
                write(self.values())
        self.assert_untouched(path, old)

    def test_a_failing_allocation_leaves_the_old_file(self, tmp_path, monkeypatch):
        path, old = self.old_file(tmp_path)

        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(em.os, "posix_fallocate", full, raising=False)
        with pytest.raises(OSError, match="No space"):
            with em.complex_file_writer(path, self.HEADER, (6, 3), preallocate=True) as write:
                write(self.values())
        self.assert_untouched(path, old)

    @pytest.mark.parametrize("code", [errno.EINVAL, errno.EOPNOTSUPP], ids=["EINVAL", "EOPNOTSUPP"])
    @pytest.mark.parametrize("period", [None, 2], ids=["plain", "3-periods"])
    def test_a_file_system_that_cannot_preallocate_gets_the_same_bytes(self, tmp_path, monkeypatch, code, period):
        path, _ = self.old_file(tmp_path)
        rows = 6 if period is None else period
        write_file(tmp_path / "a.bin", self.HEADER, np.tile(self.values()[:rows], (6 // rows, 1)))

        def unsupported(fd, offset, length):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(em.os, "posix_fallocate", unsupported, raising=False)
        with em.complex_file_writer(path, self.HEADER, (6, 3), period=period, preallocate=True) as write:
            write(self.values()[:rows])
        assert path.read_bytes() == (tmp_path / "a.bin").read_bytes()
        assert list(tmp_path.glob(".*.tmp")) == []

    @pytest.mark.parametrize("period, rows", [(2, 6), (2, 1), (4, 4)], ids=["past-the-period", "short", "not-dividing"])
    def test_a_period_the_blocks_miss_leaves_the_old_file(self, tmp_path, period, rows):
        path, old = self.old_file(tmp_path)
        with pytest.raises(DimensionMismatch):
            with em.complex_file_writer(path, self.HEADER, (6, 3), period=period) as write:
                write(self.values()[:rows])
        self.assert_untouched(path, old)


class TestTextWriter:
    """``text_file_writer`` removes the old file and creates the new one in its place."""

    def test_a_shorter_text_leaves_exactly_its_bytes(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("a much longer old text\n" * 4)
        with em.text_file_writer(path) as fh:
            fh.write("new\n")
        assert path.read_bytes() == b"new\n"

    def test_newline_is_passed_to_open(self, tmp_path):
        path = tmp_path / "out.csv"
        with em.text_file_writer(path, newline="") as fh:
            fh.write("a,b\r\n")
        assert path.read_bytes() == b"a,b\r\n"

    def test_the_old_file_is_replaced_not_truncated(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with open(path) as old:
            with em.text_file_writer(path) as fh:
                fh.write("new\n")
            assert old.read() == "old\n"  # a reader of the old file keeps what it opened
        assert path.read_text() == "new\n"

    def test_a_failing_write_removes_the_part_written(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(ZeroDivisionError):
            with em.text_file_writer(path) as fh:
                fh.write("part")
                raise ZeroDivisionError
        assert not path.exists()


STREAM_SCENES = pytest.mark.parametrize(
    "cfg",
    [desk_config(), desk_config(n_target_x=15, n_target_y=15, n_ris_x=33, n_ris_y=33), volume_config()],
    ids=["desk", "odd-15-33", "volume"],
)


def stream_scene(cfg):
    scene = sc.validate_scene(cfg)
    return scene, sc.sample_grids(scene)


class TestKernelStream:
    """A kernel's stored rows, handed over a block at a time as they are assembled."""

    @STREAM_SCENES
    def test_blocks_are_the_stored_rows(self, cfg):
        scene, grids = stream_scene(cfg)
        kernel = em.assemble_kernel(scene, grids)
        stream = em.kernel_stream(scene, grids)
        assert (stream.kind, stream.fingerprint, stream.shape) == (kernel.kind, kernel.fingerprint, kernel.shape)
        assert (stream.symmetry is None) == (kernel.symmetry is None)
        blocks = list(stream.blocks)
        assert len(blocks) > 1 and all(block.shape[1] == scene.n_ris for block in blocks)
        assert np.concatenate(blocks).tobytes() == kernel.stored.tobytes()
        assert list(stream.blocks) == []  # drawn once

    def test_size_is_checked_before_any_row(self, small_scene, monkeypatch):
        scene, grids = small_scene
        monkeypatch.setattr(em, "ENTRY_CAP", scene.n_target * scene.n_ris - 1)
        with pytest.raises(KernelSizeError):
            em.kernel_stream(scene, grids)

    @pytest.mark.parametrize("fixture", ["small_scene", "volume_scene"])
    def test_a_waiting_stream_leaves_numpy_settings_alone(self, request, fixture):
        # blocks are formed with small ufunc buffers, restored before each is handed over
        default = np.getbufsize()
        stream = em.kernel_stream(*request.getfixturevalue(fixture))
        next(stream.blocks)
        assert np.getbufsize() == default
        list(stream.blocks)
        assert np.getbufsize() == default

    def test_non_finite_entries_raise_before_their_rows(self):
        # a valid scene whose offset tables overflow in kr**2
        scene, grids = stream_scene(volume_config(wavelength=1e-154, receiver_pos=(5.0, 5.0, -1e153)))
        stream = em.kernel_stream(scene, grids)
        with pytest.raises(NonFiniteKernel, match="wavelength 1e-154 m"):
            next(stream.blocks)

    @STREAM_SCENES
    def test_saved_stream_writes_the_kernel_file_once_drawn(self, cfg, tmp_path):
        scene, grids = stream_scene(cfg)
        em.save_kernel(tmp_path / "whole.bin", em.assemble_kernel(scene, grids))
        path = tmp_path / "streamed.bin"
        blocks = em.kernel_stream(scene, grids).saved_to(path).blocks
        next(blocks)
        assert not path.exists()  # replaced only once the last block is drawn
        for _ in blocks:
            pass
        assert path.read_bytes() == (tmp_path / "whole.bin").read_bytes()
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_stream_left_undrawn_keeps_the_old_file(self, small_scene, tmp_path):
        scene, grids = small_scene
        path = tmp_path / "kernel.bin"
        path.write_bytes(b"old")
        blocks = em.kernel_stream(scene, grids).saved_to(path).blocks
        next(blocks)
        blocks.close()
        assert path.read_bytes() == b"old"
        assert list(tmp_path.glob(".*.tmp")) == []


def oracle_plane_entries(scene, grids):
    """Every entry of a plane kernel from its closed form, vectorised over the full (M, N) grid."""
    cfg = scene.config
    k = 2.0 * math.pi / cfg.wavelength
    diff = grids.target_points[:, None, :] - grids.ris_points[None, :, :]
    r = np.sqrt(np.einsum("mni,mni->mn", diff, diff))
    jx = np.array([oracle_jx(cfg, y) for y in grids.ris_points[:, 1]])
    return -(1.0 + 1j * k * r) / (4.0 * math.pi * r**3) * grids.ris_cell_area * cfg.target_distance * jx * np.exp(
        -1j * k * r
    )


QUADRANT_GRIDS = pytest.mark.parametrize(
    "target, aperture",
    [((16, 16), (32, 32)), ((15, 15), (33, 33)), ((15, 16), (33, 32)), ((3, 4), (6, 7)), ((1, 4), (1, 6))],
    ids=["desk", "odd-15-33", "mixed-15x16-33x32", "mixed-small", "line"],
)


def quadrant_scene(target, aperture):
    cfg = desk_config(n_target_x=target[0], n_target_y=target[1], n_ris_x=aperture[0], n_ris_y=aperture[1])
    scene = sc.validate_scene(cfg)
    return scene, sc.sample_grids(scene)


VOLUME_GRIDS = pytest.mark.parametrize(
    "cfg",
    [
        volume_config(),
        volume_config(n_xy=3, n_target_y=5, n_z=2, n_ris_x=33, n_ris_y=31),
        volume_config(n_xy=1, n_target_y=3, n_z=2, n_ris=6),
        volume_config(incident_amplitude=-2.5),
    ],
    ids=["desk-volume", "odd-3x5x2-33x31", "line", "negative-amplitude"],
)


class TestStoredQuadrant:
    """A plane kernel stores the phase-free rows of its mirror quadrant; ``entries`` forms the rest."""

    @QUADRANT_GRIDS
    def test_stores_about_a_quarter_of_the_entries(self, target, aperture):
        scene, grids = quadrant_scene(target, aperture)
        kernel = em.assemble_kernel(scene, grids)
        (nx, ny), n = target, scene.n_ris
        quadrant_rows = (nx - nx // 2) * (ny - ny // 2)
        assert kernel.stored.shape == (quadrant_rows, n)
        assert kernel.stored.nbytes == 16 * quadrant_rows * n
        assert kernel.shape == kernel.entries.shape == (scene.n_target, n)
        if target == (16, 16):
            assert kernel.stored.nbytes * 4 == kernel.entries.nbytes
        assert not kernel.stored.flags.writeable and not kernel.entries.flags.writeable

    @QUADRANT_GRIDS
    def test_every_row_is_a_mirrored_quadrant_row_times_the_current(self, target, aperture):
        scene, grids = quadrant_scene(target, aperture)
        kernel = em.assemble_kernel(scene, grids)
        (nx, ny), (ax, ay) = target, aperture
        ex, ey = nx - nx // 2, ny - ny // 2
        current = em.incident_current(scene, grids.ris_points[:, 1]).reshape(ay, ax)
        rows = kernel.stored.reshape(ey, ex, ay, ax)
        entries = kernel.entries.reshape(ny, nx, ay, ax)
        for iy in range(ny):
            for ix in range(nx):
                row = rows[min(iy, ny - 1 - iy), min(ix, nx - 1 - ix)]
                if ix >= ex:
                    row = row[:, ::-1]  # the x-mirror reverses the aperture's x order
                if iy >= ey:
                    row = row[::-1, :]
                np.testing.assert_array_equal(entries[iy, ix], row * current)

    @QUADRANT_GRIDS
    def test_entries_match_the_closed_form(self, target, aperture):
        scene, grids = quadrant_scene(target, aperture)
        entries = em.assemble_kernel(scene, grids).entries
        expected = oracle_plane_entries(scene, grids)
        np.testing.assert_allclose(entries, expected, rtol=1e-12, atol=0)

    @QUADRANT_GRIDS
    def test_entries_match_every_row_evaluated(self, target, aperture, monkeypatch):
        # without its mirror structure the kernel evaluates and stores every row
        scene, grids = quadrant_scene(target, aperture)
        entries = em.assemble_kernel(scene, grids).entries
        monkeypatch.setattr(em, "_mirror_symmetry", lambda *_: None)
        evaluated = em.assemble_kernel(scene, grids).stored
        (nx, ny), (ax, ay) = target, aperture
        centres = (
            grids.target_points[:nx, 0],
            grids.target_points[: nx * ny : nx, 1],
            grids.ris_points[:ax, 0],
            grids.ris_points[::ax, 1],
        )
        if all(np.array_equal(c, -c[::-1]) for c in centres):
            # the desk grids' cell centres are exactly antisymmetric: the same bits
            np.testing.assert_array_equal(entries, evaluated)
        else:
            np.testing.assert_allclose(entries, evaluated, rtol=1e-13, atol=0)

    @QUADRANT_GRIDS
    def test_cache_round_trip_stores_the_quadrant(self, target, aperture, tmp_path):
        scene, grids = quadrant_scene(target, aperture)
        kernel = em.assemble_kernel(scene, grids)
        path = tmp_path / "kernel.bin"
        em.save_kernel(path, kernel)
        header = path.read_bytes().split(b"\n", 1)[0]
        assert header == f"kind=Z_2d m={scene.n_target} n={scene.n_ris} fingerprint={scene.fingerprint}".encode()
        assert path.stat().st_size == len(header) + 1 + kernel.stored.nbytes
        loaded = em.load_kernel(path, scene, grids)
        np.testing.assert_array_equal(loaded.stored, kernel.stored)
        np.testing.assert_array_equal(loaded.entries, kernel.entries)
        assert loaded.symmetry.target_shape == target

    def test_full_size_file_is_rejected(self, small_scene, tmp_path):
        # a file holding every row, as plane kernel files once did
        scene, grids = small_scene
        kernel = em.assemble_kernel(scene, grids)
        path = tmp_path / "kernel.bin"
        header = f"kind=Z_2d m={scene.n_target} n={scene.n_ris} fingerprint={scene.fingerprint}\n"
        write_file(path, header, kernel.entries)
        with pytest.raises(CacheMismatch, match="body holds"):
            em.load_kernel(path, scene, grids)

    @VOLUME_GRIDS
    def test_volume_kernel_stores_the_quadrant_rows_of_its_tables(self, cfg, tmp_path):
        scene = sc.validate_scene(cfg)
        grids = sc.sample_grids(scene)
        kernel = em.assemble_kernel(scene, grids)
        symmetry = kernel.symmetry
        assert symmetry.tables == em.TABLE_PARITIES and not symmetry.swap
        assert symmetry.weights.shape == (3, scene.n_target) and symmetry.depth == cfg.n_target_z
        (nx, ny), (ex, ey) = symmetry.target_shape, symmetry.quadrant_shape
        assert kernel.stored.shape == (3 * ex * ey * cfg.n_target_z, scene.n_ris)
        assert kernel.shape == kernel.entries.shape == (nx * ny * cfg.n_target_z, scene.n_ris)
        assert not kernel.stored.flags.writeable and not kernel.entries.flags.writeable
        path = tmp_path / "kernel.bin"
        em.save_kernel(path, kernel)
        header = path.read_bytes().split(b"\n", 1)[0]
        expected = f"kind=Y_3d m={scene.n_target} n={scene.n_ris} tables=3 fingerprint={scene.fingerprint}"
        assert header == expected.encode()
        assert path.stat().st_size == len(header) + 1 + kernel.stored.nbytes
        loaded = em.load_kernel(path, scene, grids)
        np.testing.assert_array_equal(loaded.stored, kernel.stored)
        np.testing.assert_array_equal(loaded.symmetry.weights, symmetry.weights)
        np.testing.assert_array_equal(loaded.entries, kernel.entries)

    @VOLUME_GRIDS
    def test_volume_entries_match_a_row_by_row_oracle(self, cfg):
        # each row from the Green tensor to the receiver and the closed-form E-field
        # factors at every aperture sample, with the current J_x
        scene = sc.validate_scene(cfg)
        grids = sc.sample_grids(scene)
        entries = em.assemble_kernel(scene, grids).entries
        k = 2.0 * math.pi / cfg.wavelength
        ris = grids.ris_points
        jx = np.array([oracle_jx(cfg, y) for y in ris[:, 1]])
        for m, point in enumerate(grids.target_points):
            weights = em.green_tensor(np.asarray(cfg.receiver_pos, dtype=float), point[None, :], k)[0, 0]
            diff = point - ris
            r = np.sqrt(np.einsum("ni,ni->n", diff, diff))
            kr = k * r
            near = (3.0 + 3j * kr - kr**2) / r**5
            t_xx = (-1.0 - 1j * kr + kr**2) / r**3 + near * diff[:, 0] ** 2
            factors = (t_xx, near * diff[:, 1] * diff[:, 0], near * point[2] * diff[:, 0])
            common = -1j * ETA / (4.0 * math.pi * k) * grids.ris_cell_area * jx * np.exp(-1j * kr)
            row = common * sum(w * factor for w, factor in zip(weights, factors))
            np.testing.assert_allclose(entries[m], row, rtol=0, atol=1e-12 * np.abs(row).max())

    @pytest.mark.parametrize(
        "cfg, reason",
        [(volume_config(), "body holds"), (volume_config(n_xy=4, n_target_y=3), "does not give tables=3")],
        ids=["longer", "as-long"],
    )
    def test_old_volume_file_is_rejected_before_its_body_is_read(self, cfg, reason, tmp_path, monkeypatch):
        # a file holding every weighted row, as volume kernel files once did; on a 4 x 3
        # target, 3 tables of a 2 x 2 quadrant are as many rows, so only the header tells
        scene = sc.validate_scene(cfg)
        grids = sc.sample_grids(scene)
        path = tmp_path / "kernel.bin"
        header = f"kind=Y_3d m={scene.n_target} n={scene.n_ris} fingerprint={scene.fingerprint}\n"
        write_file(path, header, em.assemble_kernel(scene, grids).entries)
        empty = np.empty

        def no_body(shape, dtype=float, *args, **kwargs):
            assert np.dtype(dtype) != np.dtype("<c16"), "the body was allocated to be read"
            return empty(shape, dtype, *args, **kwargs)

        monkeypatch.setattr(em.np, "empty", no_body)
        with pytest.raises(CacheMismatch, match=reason):
            em.load_kernel(path, scene, grids)
