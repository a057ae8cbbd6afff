"""Tikhonov inversion, power normalisation, and mask realization quality."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risimage import em_core as em
from risimage import mask_design as md
from risimage import ris_synthesis as rs
from risimage import scene as sc
from risimage.em_core import KernelMatrix
from risimage.errors import DimensionMismatch, KindMismatch, MalformedConfig, ZeroSolution

from conftest import desk_config, normalized_inner, peak_traced_bytes, volume_config


def random_kernel(rng, m, n, kind=em.KIND_Z2D):
    entries = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(n)
    entries.setflags(write=False)
    return KernelMatrix(entries=entries, kind=kind, fingerprint="test")


class TestTikhonovInverse:
    def test_unregularized_limit(self):
        kernel = KernelMatrix(entries=np.eye(3, dtype=complex), kind=em.KIND_Z2D, fingerprint="t")
        inv = rs.tikhonov_inverse(kernel, gamma=1e-30)
        np.testing.assert_allclose(inv.inv_sigma, 1.0, rtol=1e-15)

    def test_closed_form_weight(self):
        # sigma = 1e-3, gamma = 1e-6: sigma / (sigma^2 + gamma) = 500
        kernel = KernelMatrix(
            entries=np.diag([1e-3, 1e-3]).astype(complex), kind=em.KIND_Z2D, fingerprint="t"
        )
        inv = rs.tikhonov_inverse(kernel, gamma=1e-6, threshold_factor=0.0)
        np.testing.assert_allclose(inv.inv_sigma, 500.0, rtol=1e-12)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        kernel = random_kernel(rng, 8, 12)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        gamma = 1e-4
        inv = rs.tikhonov_inverse(kernel, gamma, threshold_factor=0.0)
        k = kernel.entries
        expected = np.linalg.solve(k.conj().T @ k + gamma * np.eye(12), k.conj().T @ y)
        np.testing.assert_allclose(inv.apply(y), expected, rtol=1e-8)

    def test_truncation_zeroes_small_modes(self):
        sigma = np.array([1.0, 1e-2, 1e-8])
        kernel = KernelMatrix(entries=np.diag(sigma).astype(complex), kind=em.KIND_Z2D, fingerprint="t")
        inv = rs.tikhonov_inverse(kernel, gamma=1e-6, threshold_factor=1e-5)
        # sigma^2 < 1e-5 * gamma = 1e-11 drops only the 1e-8 mode
        assert inv.retained_rank == 2
        assert inv.inv_sigma[2] == 0.0

    def test_literal_sigma_truncation_mode(self):
        sigma = np.array([1.0, 1e-2, 1e-8])
        kernel = KernelMatrix(entries=np.diag(sigma).astype(complex), kind=em.KIND_Z2D, fingerprint="t")
        inv = rs.tikhonov_inverse(kernel, gamma=1e-2, threshold_factor=1e-5, truncation_mode=rs.TRUNCATE_SIGMA)
        # sigma < 1e-5 * gamma = 1e-7 drops only the 1e-8 mode
        assert inv.retained_rank == 2

    def test_raising_threshold_never_raises_rank(self):
        rng = np.random.default_rng(2)
        kernel = random_kernel(rng, 10, 14)
        ranks = [
            rs.tikhonov_inverse(kernel, 1e-4, threshold_factor=f).retained_rank
            for f in (0.0, 1e-8, 1e-4, 1e-2, 1.0, 1e4)
        ]
        assert ranks == sorted(ranks, reverse=True)

    def test_gamma_must_be_positive(self):
        kernel = KernelMatrix(entries=np.eye(2, dtype=complex), kind=em.KIND_Z2D, fingerprint="t")
        with pytest.raises(ValueError):
            rs.tikhonov_inverse(kernel, gamma=0.0)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan, -1.0])
    def test_gamma_must_be_finite_and_positive(self, gamma):
        # an infinite gamma would retain no mode, so every mask would fail later
        kernel = KernelMatrix(entries=np.eye(3, dtype=complex), kind=em.KIND_Z2D, fingerprint="t")
        with pytest.raises(MalformedConfig):
            rs.tikhonov_inverse(kernel, gamma=gamma)

    @pytest.mark.parametrize("threshold_factor", [math.nan, math.inf, -1.0])
    def test_threshold_factor_is_checked(self, threshold_factor):
        kernel = KernelMatrix(entries=np.eye(3, dtype=complex), kind=em.KIND_Z2D, fingerprint="t")
        with pytest.raises(MalformedConfig):
            rs.tikhonov_inverse(kernel, gamma=1e-6, threshold_factor=threshold_factor)

    def test_unknown_truncation_mode(self):
        kernel = KernelMatrix(entries=np.eye(3, dtype=complex), kind=em.KIND_Z2D, fingerprint="t")
        with pytest.raises(MalformedConfig):
            rs.tikhonov_inverse(kernel, gamma=1e-6, truncation_mode="sigma_cubed")

    def test_minimizer_property(self):
        # perturbing the solution in random directions increases the objective
        rng = np.random.default_rng(3)
        kernel = random_kernel(rng, 6, 9)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        gamma = 1e-3
        inv = rs.tikhonov_inverse(kernel, gamma, threshold_factor=0.0)
        solution = inv.apply(y)

        def objective(p):
            return np.linalg.norm(kernel.entries @ p - y) ** 2 + gamma * np.linalg.norm(p) ** 2

        base = objective(solution)
        for _ in range(20):
            direction = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            direction /= np.linalg.norm(direction)
            assert objective(solution + 1e-3 * direction) > base


def profile(inv, mask, amplification):
    """Power-normalised coefficient vector realizing one plane mask."""
    masks = md.MaskSet(kind=md.KIND_MASK2D, vectors=np.asarray(mask)[None, :])
    return rs.synthesis_profiles(inv, masks, amplification)[0]


class TestSynthesize:
    def test_power_budget_exact(self):
        rng = np.random.default_rng(4)
        kernel = random_kernel(rng, 8, 12)
        inv = rs.tikhonov_inverse(kernel, 1e-6)
        mask = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        values = profile(inv, mask, amplification=1.5)
        assert np.linalg.norm(values) ** 2 == pytest.approx(12 * 1.5, rel=1e-12)

    def test_positive_rescale_invariance(self):
        rng = np.random.default_rng(5)
        kernel = random_kernel(rng, 8, 12)
        inv = rs.tikhonov_inverse(kernel, 1e-6)
        mask = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a = profile(inv, mask, 1.0)
        b = profile(inv, 3.7 * mask, 1.0)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_zero_solution_rejected(self):
        kernel = KernelMatrix(
            entries=np.diag([1.0, 0.0]).astype(complex), kind=em.KIND_Z2D, fingerprint="t"
        )
        inv = rs.tikhonov_inverse(kernel, 1e-6)
        with pytest.raises(ZeroSolution):
            profile(inv, np.array([0.0, 1.0 + 0.0j]), 1.0)

    def test_zero_solution_names_its_mask_past_the_first_block(self, monkeypatch):
        # blocks of two rows: mask 5 is the second row of the third block
        monkeypatch.setattr(rs, "_CHUNK_ENTRIES", 4)
        kernel = KernelMatrix(
            entries=np.diag([1.0, 0.0]).astype(complex), kind=em.KIND_Z2D, fingerprint="t"
        )
        inv = rs.tikhonov_inverse(kernel, 1e-6)
        vectors = np.tile(np.array([1.0, 1.0 + 0.0j]), (8, 1))
        vectors[5] = [0.0, 1.0]
        masks = md.MaskSet(kind=md.KIND_MASK2D, vectors=vectors)
        with pytest.raises(ZeroSolution, match="mask 5 "):
            rs.synthesis_profiles(inv, masks, 1.0)
        with pytest.raises(ZeroSolution, match="mask 5 "):
            rs.realize_masks(inv, masks, 1.0)

    def test_wrong_length_rejected(self):
        rng = np.random.default_rng(6)
        kernel = random_kernel(rng, 8, 12)
        inv = rs.tikhonov_inverse(kernel, 1e-6)
        with pytest.raises(DimensionMismatch):
            profile(inv, np.ones(9, dtype=complex), 1.0)


class TestRealizeMasks:
    def test_realized_count_and_profiles(self, small_scene):
        scene, grids = small_scene
        kernel = em.kernel_2d(scene, grids)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        masks = md.ideal_masks(scene, grids, 128)
        realized = rs.realize_masks(inv, masks, scene.config.amplification)
        assert realized.vectors.shape == (128, scene.n_target)
        profiles = rs.synthesis_profiles(inv, masks, scene.config.amplification)
        assert profiles.shape == (128, scene.n_ris)
        norms = np.linalg.norm(profiles, axis=1) ** 2
        np.testing.assert_allclose(norms, scene.n_ris * scene.config.amplification, rtol=1e-12)

    def test_well_conditioned_kernel_reproduces_masks(self):
        # identity-like square kernel, tiny gamma: realized = scaled ideal
        rng = np.random.default_rng(7)
        entries = (np.eye(16) + 1e-3 * rng.standard_normal((16, 16))).astype(complex)
        entries.setflags(write=False)
        kernel = KernelMatrix(entries=entries, kind=em.KIND_Z2D, fingerprint="t")
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        ideal = (rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16)))
        masks = md.MaskSet(kind=md.KIND_MASK2D, vectors=ideal)
        realized = rs.realize_masks(inv, masks, 1.0)
        scale = np.sqrt(16.0) / realized.solution_norms
        np.testing.assert_allclose(realized.vectors, scale[:, None] * ideal, rtol=1e-6)

    def test_kind_mismatch(self, small_scene):
        scene, grids = small_scene
        kernel = em.kernel_2d(scene, grids)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        masks = md.MaskSet(kind=md.KIND_MASK3D, vectors=np.ones((4, scene.n_target), dtype=complex))
        with pytest.raises(KindMismatch):
            rs.realize_masks(inv, masks, 1.0)

    def test_first_mask_realizes_well_at_nearest_distance(self):
        scene = sc.validate_scene(desk_config(z_prime=0.125))
        grids = sc.sample_grids(scene)
        kernel = em.kernel_2d(scene, grids)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        masks = md.ideal_masks(scene, grids, 1024)
        realized = rs.realize_masks(inv, masks, 1.0)
        corr = normalized_inner(np.abs(realized.vectors[0]), masks.amplitude_values()[0])
        assert corr > 0.9

    def test_realized_covariance_concentrates_within_resolution(self):
        # at the nearest desk distance the realized-mask covariance against the
        # central pixel stays below 0.2 of the peak beyond one resolution length
        scene = sc.validate_scene(desk_config(z_prime=0.125))
        grids = sc.sample_grids(scene)
        kernel = em.kernel_2d(scene, grids)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        masks = rs.realize_masks(inv, md.ideal_masks(scene, grids, 1024), 1.0)
        centre = 8 * 16 + 8
        cov = md.mask_covariance(masks, centre)
        dx, _ = sc.resolution(scene)
        offsets = grids.target_points[:, :2] - grids.target_points[centre, :2]
        far = np.linalg.norm(offsets, axis=1) > dx
        assert np.abs(cov[far]).max() / np.abs(cov[centre]) < 0.2

    def test_realization_quality_degrades_with_distance(self):
        correlations = []
        for z_prime in (0.125, 0.25, 0.5):
            scene = sc.validate_scene(desk_config(z_prime=z_prime))
            grids = sc.sample_grids(scene)
            kernel = em.kernel_2d(scene, grids)
            inv = rs.tikhonov_inverse(kernel, 1e-12)
            masks = md.ideal_masks(scene, grids, 256)
            realized = rs.realize_masks(inv, masks, 1.0)
            ideal_amp = masks.amplitude_values()
            per_mask = [
                normalized_inner(np.abs(realized.vectors[i]), ideal_amp[i]) for i in range(64)
            ]
            correlations.append(float(np.mean(per_mask)))
        assert correlations[0] > correlations[1] > correlations[2]


class TestSpectrum:
    def test_profile_export_and_summary(self, small_scene, tmp_path):
        scene, grids = small_scene
        kernel = em.kernel_2d(scene, grids)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        masks = md.ideal_masks(scene, grids, 128)
        realized = rs.realize_masks(inv, masks, 1.0)
        rs.save_profiles(tmp_path / "profiles.bin", inv, masks, 1.0, scene.fingerprint)
        kind, vectors, fp = md.load_mask_vectors(tmp_path / "profiles.bin")
        assert kind == "profiles"
        np.testing.assert_array_equal(vectors, rs.synthesis_profiles(inv, masks, 1.0))
        rs.write_synthesis_summary(tmp_path / "summary.txt", inv, masks, realized, 1.0)
        text = (tmp_path / "summary.txt").read_text()
        assert f"retained_rank = {inv.retained_rank}" in text
        assert "solution_norm[0]" in text

    def test_summary_lists_sector_sizes(self, small_scene, tmp_path):
        scene, grids = small_scene
        inv = rs.tikhonov_inverse(em.kernel_2d(scene, grids), 1e-12)
        masks = md.ideal_masks(scene, grids, 128)
        rs.write_synthesis_summary(tmp_path / "s.txt", inv, masks, rs.realize_masks(inv, masks, 1.0), 1.0)
        lines = [line for line in (tmp_path / "s.txt").read_text().splitlines() if line.startswith("sector[")]
        # an 8x8 target over a 16x16 aperture: four 4x4-pixel by 8x8-sample sectors
        assert lines == [f"sector[{k}] = 16x64 retained={s.retained}" for k, s in enumerate(inv.sectors)]
        assert sum(s.retained for s in inv.sectors) == inv.retained_rank

    def test_summary_reports_spectrum_and_fidelity(self, tmp_path):
        rng = np.random.default_rng(8)
        kernel = random_kernel(rng, 6, 10)
        inv = rs.tikhonov_inverse(kernel, 1e-6)
        ideal = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        masks = md.MaskSet(kind=md.KIND_MASK2D, vectors=ideal)
        realized = rs.realize_masks(inv, masks, 2.0)
        rs.write_synthesis_summary(tmp_path / "summary.txt", inv, masks, realized, 2.0)
        values = dict(
            line.split(" = ", 1) for line in (tmp_path / "summary.txt").read_text().splitlines()
        )
        assert float(values["sigma_max"]) == inv.sigma[0]
        assert float(values["sigma_min_retained"]) == inv.sigma[inv.retained_rank - 1]
        # a square random kernel with tiny gamma reproduces every mask closely
        assert 0.0 <= float(values["realized_rel_err_mean"]) <= float(values["realized_rel_err_max"])
        assert float(values["realized_rel_err_max"]) < 1e-3


# Kernel shapes on both sides of the wide/tall switch and on it.
kernel_shapes = st.one_of(
    st.tuples(st.integers(2, 8), st.integers(9, 24)),  # M < N: square triangular factor
    st.integers(2, 12).map(lambda m: (m, m)),  # M = N
    st.tuples(st.integers(9, 24), st.integers(2, 8)),  # M > N: SVD of K itself
)


class TestTwoPathSynthesis:
    """The U-only route against the full SVD and the explicit profiles."""

    @settings(max_examples=30, deadline=None)
    @given(shape=kernel_shapes, seed=st.integers(0, 2**16), gamma=st.sampled_from([1e-8, 1e-4, 1e-1]))
    def test_u_only_route_matches_full_svd(self, shape, seed, gamma):
        m, n = shape
        rng = np.random.default_rng(seed)
        kernel = random_kernel(rng, m, n)
        inv = rs.tikhonov_inverse(kernel, gamma)

        full_sigma = np.linalg.svd(kernel.entries, compute_uv=False)
        np.testing.assert_allclose(inv.sigma, full_sigma, rtol=0, atol=1e-12 * full_sigma[0])
        keep = full_sigma**2 >= rs.DEFAULT_THRESHOLD_FACTOR * gamma
        assert inv.retained_rank == int(np.count_nonzero(keep))

        ideal = rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m))
        masks = md.MaskSet(kind=md.KIND_MASK2D, vectors=ideal)
        realized = rs.realize_masks(inv, masks, 1.5)
        profiles = rs.synthesis_profiles(inv, masks, 1.5)
        explicit = (kernel.entries @ profiles.T).T
        np.testing.assert_allclose(
            realized.vectors, explicit, rtol=0, atol=1e-10 * np.abs(explicit).max()
        )
        direct_norms = np.linalg.norm(inv.apply(ideal.T), axis=0)
        np.testing.assert_allclose(realized.solution_norms, direct_norms, rtol=1e-12)

    def test_desk_profiles_meet_power_budget(self):
        scene = sc.validate_scene(desk_config(z_prime=0.125))
        grids = sc.sample_grids(scene)
        kernel = em.kernel_2d(scene, grids)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        masks = md.ideal_masks(scene, grids, 256)
        profiles = rs.synthesis_profiles(inv, masks, 1.0)
        norms = np.linalg.norm(profiles, axis=1) ** 2
        np.testing.assert_allclose(norms, scene.n_ris * 1.0, rtol=1e-12)

    def test_zero_singular_values_get_zero_weight(self):
        entries = np.zeros((3, 5), dtype=complex)
        entries[0, 0] = 2.0
        kernel = KernelMatrix(entries=entries, kind=em.KIND_Z2D, fingerprint="t")
        inv = rs.tikhonov_inverse(kernel, 1e-6, threshold_factor=0.0)
        assert inv.retained_rank == 1
        solution = inv.apply(np.array([1.0, 1.0, 1.0], dtype=complex))
        assert np.all(np.isfinite(solution))
        np.testing.assert_allclose(solution, [2.0 / (4.0 + 1e-6), 0, 0, 0, 0], atol=1e-15)


def dense_svd_solutions(kernel, masks, gamma):
    """Oracle: K^H U diag(lambda / sigma) U^H b from one full SVD of the entries."""
    u, sigma, _ = np.linalg.svd(kernel.entries, full_matrices=False)
    keep = sigma**2 >= rs.DEFAULT_THRESHOLD_FACTOR * gamma
    weights = np.where(keep, 1.0 / (sigma**2 + gamma), 0.0)
    return kernel.entries.conj().T @ (u @ (weights[:, None] * (u.conj().T @ masks.vectors.T)))


def record_svd_shapes(monkeypatch):
    """Route ``np.linalg.svd`` through a recorder; returns the list of input shapes it fills."""
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return shapes


def mirror_basis(n, parity):
    """Orthonormal even (0) or odd (1) basis of length n, one column per part index:
    (e_i +- e_{n-1-i}) / sqrt(2) per mirror pair, then e_centre for an odd length's even part."""
    h = n // 2
    basis = np.zeros((n, n - h if parity == 0 else h))
    for i in range(h):
        basis[i, i] = math.sqrt(0.5)
        basis[n - 1 - i, i] = math.sqrt(0.5) if parity == 0 else -math.sqrt(0.5)
    if parity == 0 and n % 2:
        basis[h, h] = 1.0
    return basis


class TestMirrorSectors:
    """A plane kernel's four mirror sectors against the same entries as one identity sector."""

    @pytest.mark.parametrize(
        "target, aperture",
        [((3, 4), (6, 7)), ((5, 5), (7, 7)), ((4, 4), (8, 8))],
        ids=["mixed", "odd", "even"],
    )
    @pytest.mark.parametrize("elevation_deg", [0.0, 30.0])
    def test_sectors_match_identity_sector(self, target, aperture, elevation_deg):
        cfg = desk_config(
            n_target_x=target[0],
            n_target_y=target[1],
            n_ris_x=aperture[0],
            n_ris_y=aperture[1],
            incident_elevation=math.radians(elevation_deg),
        )
        scene = sc.validate_scene(cfg)
        grids = sc.sample_grids(scene)
        kernel = em.kernel_2d(scene, grids)
        bare = KernelMatrix(entries=kernel.entries, kind=kernel.kind, fingerprint=kernel.fingerprint)
        sectors = rs.tikhonov_inverse(kernel, 1e-12)
        identity = rs.tikhonov_inverse(bare, 1e-12)
        assert (len(sectors.sectors), len(identity.sectors)) == (4, 1)
        assert sum(s.u.shape[0] for s in sectors.sectors) == scene.n_target
        assert sum(s.cols for s in sectors.sectors) == scene.n_ris

        sigma_max = identity.sigma[0]
        np.testing.assert_allclose(sectors.sigma, identity.sigma, rtol=0, atol=1e-12 * sigma_max)
        assert sectors.retained_rank == identity.retained_rank

        masks = md.ideal_masks(scene, grids, 64)
        folded = rs.realize_masks(sectors, masks, 1.0)
        dense = rs.realize_masks(identity, masks, 1.0)
        scale = np.abs(dense.vectors).max()
        np.testing.assert_allclose(folded.vectors, dense.vectors, rtol=0, atol=1e-10 * scale)
        np.testing.assert_allclose(folded.solution_norms, dense.solution_norms, rtol=1e-12)
        profiles = rs.synthesis_profiles(identity, masks, 1.0)
        np.testing.assert_allclose(
            rs.synthesis_profiles(sectors, masks, 1.0), profiles, rtol=0, atol=1e-12 * np.abs(profiles).max()
        )

    @pytest.mark.parametrize(
        "cfg",
        [
            desk_config(n_target_x=3, n_target_y=4, n_ris_x=6, n_ris_y=7),
            desk_config(n_target_x=5, n_target_y=5, n_ris_x=7, n_ris_y=7),
            desk_config(n_target_x=4, n_target_y=4, n_ris_x=8, n_ris_y=8),
            volume_config(),
        ],
        ids=["mixed", "odd", "even", "volume"],
    )
    def test_solutions_match_dense_svd_oracle(self, cfg):
        scene = sc.validate_scene(cfg)
        grids = sc.sample_grids(scene)
        kernel = em.assemble_kernel(scene, grids)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        masks = md.ideal_masks(scene, grids, 64)
        expected = dense_svd_solutions(kernel, masks, 1e-12)  # (N, I)
        solutions = inv.apply(masks.vectors.T)
        np.testing.assert_allclose(solutions, expected, rtol=0, atol=1e-10 * np.abs(expected).max())
        norms = np.linalg.norm(solutions, axis=0)
        realized = rs.realize_masks(inv, masks, 1.0)
        np.testing.assert_allclose(norms, realized.solution_norms, rtol=1e-12)

        expected = (np.sqrt(scene.n_ris) * expected / np.linalg.norm(expected, axis=0)).T
        profiles = rs.synthesis_profiles(inv, masks, 1.0)
        assert profiles.flags.c_contiguous
        np.testing.assert_allclose(profiles, expected, rtol=0, atol=1e-10 * np.abs(expected).max())

    @pytest.mark.parametrize(
        "cfg",
        [
            desk_config(n_target_x=4, n_target_y=4, n_ris_x=8, n_ris_y=8, target_len_y=0.1),
            desk_config(n_target_x=4, n_target_y=4, n_ris_x=8, n_ris_y=8, ris_len_y=0.2),
            desk_config(n_target_x=5, n_target_y=5, n_ris_x=7, n_ris_y=6),
        ],
        ids=["target-lengths-differ", "aperture-lengths-differ", "aperture-counts-differ"],
    )
    def test_grids_without_the_swap_keep_four_mirror_sectors(self, cfg, monkeypatch):
        scene = sc.validate_scene(cfg)
        grids = sc.sample_grids(scene)
        kernel = em.kernel_2d(scene, grids)
        assert not kernel.symmetry.swap
        factors = record_svd_shapes(monkeypatch)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        assert len(factors) == len(inv.sectors) == 4

        masks = md.ideal_masks(scene, grids, 64)
        expected = dense_svd_solutions(kernel, masks, 1e-12)
        np.testing.assert_allclose(
            inv.apply(masks.vectors.T), expected, rtol=0, atol=1e-10 * np.abs(expected).max()
        )
        sigma = np.linalg.svd(kernel.entries, compute_uv=False)
        np.testing.assert_allclose(inv.sigma, sigma, rtol=0, atol=1e-12 * sigma[0])

    @pytest.mark.parametrize("n, n_ris", [(4, 8), (5, 7)], ids=["even", "odd"])
    def test_square_scene_decomposes_the_five_d4_blocks(self, n, n_ris, monkeypatch):
        scene = sc.validate_scene(desk_config(n_target_x=n, n_target_y=n, n_ris_x=n_ris, n_ris_y=n_ris))
        kernel = em.kernel_2d(scene, sc.sample_grids(scene))
        assert kernel.symmetry.swap
        factors = record_svd_shapes(monkeypatch)
        inv = rs.tikhonov_inverse(kernel, 1e-12)

        even, odd = n - n // 2, n // 2
        sym, anti = even * (even + 1) // 2, even * (even - 1) // 2
        odd_sym, odd_anti = odd * (odd + 1) // 2, odd * (odd - 1) // 2
        # every block is wide, so each factor is square in the block's target rows:
        # even-even symmetric and antisymmetric, one of the two mixed sectors,
        # odd-odd symmetric and antisymmetric
        rows = [sym, anti, even * odd, odd_sym, odd_anti]
        assert factors == [(r, r) for r in rows]
        # the mirror sectors are put back together, one per parity pair
        assert [s.u.shape[0] for s in inv.sectors] == [even * even, odd * even, even * odd, odd * odd]
        for sector in inv.sectors:
            gram = sector.u.conj().T @ sector.u
            np.testing.assert_allclose(gram, np.eye(len(gram)), rtol=0, atol=1e-12)
            assert np.all(np.diff(sector.sigma) <= 0.0)

    @pytest.mark.parametrize(
        "cfg",
        [
            desk_config(z_prime=0.125),
            desk_config(z_prime=0.25),
            desk_config(n_ris_x=64, n_ris_y=64, n_target_x=32, n_target_y=32),
        ],
        ids=["desk-0.125", "desk-0.25", "plane-64"],
    )
    def test_retained_rank_matches_the_dense_oracle(self, cfg):
        scene = sc.validate_scene(cfg)
        kernel = em.kernel_2d(scene, sc.sample_grids(scene))
        assert kernel.symmetry.swap
        sigma = np.linalg.svd(kernel.entries, compute_uv=False)
        dense_rank = int(np.count_nonzero(sigma**2 >= rs.DEFAULT_THRESHOLD_FACTOR * 1e-12))
        assert rs.tikhonov_inverse(kernel, 1e-12).retained_rank == dense_rank

    def test_cached_kernel_regains_its_symmetry(self, small_scene, tmp_path):
        scene, grids = small_scene
        kernel = em.kernel_2d(scene, grids)
        em.save_kernel(tmp_path / "k.bin", kernel)
        restored = em.load_kernel(tmp_path / "k.bin", scene, grids)
        assert restored.symmetry.target_shape == kernel.symmetry.target_shape == (8, 8)
        assert restored.symmetry.aperture_shape == (16, 16)
        np.testing.assert_array_equal(restored.symmetry.phase, kernel.symmetry.phase)
        assert len(rs.tikhonov_inverse(restored, 1e-12).sectors) == 4

    @pytest.mark.parametrize(
        "target, aperture",
        [((3, 4), (6, 7)), ((5, 5), (7, 7)), ((4, 4), (8, 8)), ((1, 4), (1, 6))],
        ids=["mixed", "odd", "even", "line"],
    )
    def test_blocks_match_the_dense_even_odd_bases(self, target, aperture):
        scene = sc.validate_scene(
            desk_config(n_target_x=target[0], n_target_y=target[1], n_ris_x=aperture[0], n_ris_y=aperture[1])
        )
        kernel = em.kernel_2d(scene, sc.sample_grids(scene))
        blocks = rs._sector_blocks(kernel)
        weighted = kernel.entries * kernel.symmetry.phase.conj()
        for (px, py), block in zip(rs._PARITIES, blocks):
            # flat index ix + nx * iy, x fastest, on both sides
            q = np.kron(mirror_basis(target[1], py), mirror_basis(target[0], px))
            p = np.kron(mirror_basis(aperture[1], py), mirror_basis(aperture[0], px))
            expected = q.T @ weighted @ p
            assert block.shape == expected.shape
            np.testing.assert_allclose(block, expected, rtol=0, atol=1e-13 * np.abs(kernel.entries).max())

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_fold_twice_doubles_each_pair_and_keeps_the_centre(self, n, axis):
        rng = np.random.default_rng(n)
        shape = (3, n, 5) if axis == -2 else (3, 5, n)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        once, twice = np.empty_like(values), np.empty_like(values)
        rs._fold(values, axis, once)
        rs._fold(once, axis, twice)
        v, once, twice = (np.moveaxis(a, axis, 0) for a in (values, once, twice))
        h = n // 2
        # the folded layout: v_i + v_{n-1-i} in the head, v_i - v_{n-1-i} in the tail read backwards
        np.testing.assert_array_equal(once[rs._part(n, 0)][:h], v[:h] + v[::-1][:h])
        np.testing.assert_array_equal(once[rs._part(n, 0)][h:], v[h : n - h])
        np.testing.assert_array_equal(once[rs._part(n, 1)], v[:h] - v[::-1][:h])
        expected = 2.0 * v
        expected[h : n - h] = v[h : n - h]
        np.testing.assert_allclose(twice, expected, rtol=0, atol=1e-15 * np.abs(expected).max())

    def test_volume_kernel_is_one_identity_sector(self, tmp_path):
        scene = sc.validate_scene(volume_config())
        grids = sc.sample_grids(scene)
        kernel = em.kernel_3d(scene, grids)
        assert kernel.symmetry is None
        em.save_kernel(tmp_path / "k.bin", kernel)
        assert em.load_kernel(tmp_path / "k.bin", scene, grids).symmetry is None
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        assert len(inv.sectors) == 1
        assert inv.sectors[0].u.shape[0] == scene.n_target
        assert inv.sectors[0].cols == scene.n_ris


@pytest.fixture(scope="module")
def desk_synthesis(desk_scene):
    """The desk scene's inverse at gamma 1e-12 and 1,024 ideal masks."""
    scene, grids = desk_scene
    inv = rs.tikhonov_inverse(em.kernel_2d(scene, grids), 1e-12)
    return inv, md.ideal_masks(scene, grids, 1024)


def minimal_count(points):
    return 1 << max(2, (points - 1).bit_length())


class TestHadamardRoute:
    """Designed sets skip the mask stack; any other set is multiplied as stored. Both give the same masks."""

    @pytest.mark.parametrize(
        "cfg",
        [
            desk_config(n_target_x=3, n_target_y=4, n_ris_x=6, n_ris_y=7),
            desk_config(n_target_x=5, n_target_y=5, n_ris_x=7, n_ris_y=7),
            desk_config(n_target_x=4, n_target_y=4, n_ris_x=8, n_ris_y=8),
            desk_config(n_target_x=1, n_target_y=4, n_ris_x=1, n_ris_y=6),
            volume_config(),
        ],
        ids=["mixed", "odd", "even", "line", "volume"],
    )
    @pytest.mark.parametrize("count", ["minimal", 1024])
    def test_matches_fold_route(self, cfg, count):
        # the even grid and the volume have a power-of-two sample count, so
        # their minimal set wraps the last point onto the all-ones column
        scene = sc.validate_scene(cfg)
        grids = sc.sample_grids(scene)
        inv = rs.tikhonov_inverse(em.assemble_kernel(scene, grids), 1e-12)
        count = minimal_count(scene.n_target) if count == "minimal" else count
        designed = md.ideal_masks(scene, grids, count)
        folded = dataclasses.replace(designed, amplitudes=None)

        fast, slow = rs.realize_masks(inv, designed, 1.5), rs.realize_masks(inv, folded, 1.5)
        scale = np.abs(slow.vectors).max()
        np.testing.assert_allclose(fast.vectors, slow.vectors, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(fast.solution_norms, slow.solution_norms, rtol=1e-12)
        profiles = rs.synthesis_profiles(inv, folded, 1.5)
        np.testing.assert_allclose(
            rs.synthesis_profiles(inv, designed, 1.5), profiles, rtol=0, atol=1e-12 * np.abs(profiles).max()
        )

    def test_designed_sets_never_fold_the_mask_stack(self, desk_synthesis, monkeypatch):
        inv, masks = desk_synthesis
        symmetry = inv.kernel.symmetry
        folded_shapes = set()
        fold = rs._fold

        def recording_fold(values, axis, out):
            folded_shapes.add(values.shape)
            fold(values, axis, out)

        monkeypatch.setattr(rs, "_fold", recording_fold)
        rs.realize_masks(inv, masks, 1.0)
        rs.synthesis_profiles(inv, masks, 1.0)
        stored = dataclasses.replace(masks, amplitudes=None)
        rs.realize_masks(inv, stored, 1.0)
        rs.synthesis_profiles(inv, stored, 1.0)
        # only kernel rows, one (Ny, Nx) aperture grid at a time; never the target grid
        assert folded_shapes == {symmetry.aperture_shape[::-1]} != {symmetry.target_shape[::-1]}


class TestPeakMemory:
    """Temporaries of the coefficient loop stay a few MiB above the output."""

    SLACK = 8 << 20

    def test_profiles_need_little_beyond_their_output(self, desk_synthesis):
        inv, masks = desk_synthesis
        peak, profiles = peak_traced_bytes(lambda: rs.synthesis_profiles(inv, masks, 1.0))
        assert profiles.shape == (1024, 1024)
        assert peak <= profiles.nbytes + self.SLACK

    def test_realize_needs_little_beyond_its_output(self, desk_synthesis):
        inv, masks = desk_synthesis
        peak, realized = peak_traced_bytes(lambda: rs.realize_masks(inv, masks, 1.0))
        assert realized.vectors.shape == (1024, 256)
        assert peak <= realized.vectors.nbytes + self.SLACK

    def test_stored_set_needs_little_beyond_its_output(self, desk_synthesis):
        inv, masks = desk_synthesis
        stored = dataclasses.replace(masks, amplitudes=None)  # forms the (1024, 256) stack once
        peak, realized = peak_traced_bytes(lambda: rs.realize_masks(inv, stored, 1.0))
        assert realized.vectors.shape == (1024, 256)
        assert peak <= realized.vectors.nbytes + self.SLACK
        peak, profiles = peak_traced_bytes(lambda: rs.synthesis_profiles(inv, stored, 1.0))
        assert peak <= profiles.nbytes + self.SLACK

    @pytest.mark.parametrize(
        "cfg",
        [desk_config(), desk_config(n_target_x=15, n_target_y=15, n_ris_x=33, n_ris_y=33)],
        ids=["desk", "odd-15-33"],
    )
    def test_sector_blocks_need_no_split_temporaries(self, cfg):
        # beyond the blocks: one folded quadrant (about their size) and a block's weights
        scene = sc.validate_scene(cfg)
        kernel = em.kernel_2d(scene, sc.sample_grids(scene))
        peak, blocks = peak_traced_bytes(lambda: rs._sector_blocks(kernel))
        assert peak <= 2 * sum(block.nbytes for block in blocks) + (1 << 20)

    def test_designed_plane_set_holds_no_complex_stack(self, desk_scene):
        # the complex (I, M) stack alone would be 4 MiB at I = 1,024, M = 256
        peak, masks = peak_traced_bytes(lambda: md.ideal_masks(*desk_scene, 1024))
        assert masks.amplitudes.shape == (1024, 256)
        assert peak <= masks.amplitudes.nbytes + (1 << 20)
        assert (masks.count, masks.points) == (1024, 256)

    def test_many_masks_need_no_coefficient_stack(self, desk_synthesis, desk_scene):
        # at I = 4,096 an (I, sum r_s) coefficient array kept beside the
        # output would alone exceed the slack (16 MiB at sum r_s = 256)
        inv, _ = desk_synthesis
        masks = md.ideal_masks(*desk_scene, 4096)
        peak, realized = peak_traced_bytes(lambda: rs.realize_masks(inv, masks, 1.0))
        assert peak <= realized.vectors.nbytes + self.SLACK
        peak, profiles = peak_traced_bytes(lambda: rs.synthesis_profiles(inv, masks, 1.0))
        assert peak <= profiles.nbytes + self.SLACK
