"""Tikhonov inversion, power normalisation, and mask realization quality."""

import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risimage import em_core as em
from risimage import mask_design as md
from risimage import measurement as ms
from risimage import ris_synthesis as rs
from risimage import runner as rn
from risimage import scene as sc
from risimage.em_core import KernelMatrix
from risimage.errors import DimensionMismatch, KindMismatch, MalformedConfig, SvdFailure, ZeroSolution

from conftest import (
    desk_config,
    exported_profiles,
    normalized_inner,
    peak_traced_bytes,
    realize_with_values,
    volume_config,
)


def random_kernel(rng, m, n, kind=em.KIND_Z2D):
    entries = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(n)
    entries.setflags(write=False)
    return KernelMatrix(stored=entries, kind=kind, fingerprint="test")


class TestTikhonovInverse:
    def test_unregularized_limit(self):
        kernel = KernelMatrix(stored=np.eye(3, dtype=complex), kind=em.KIND_Z2D, fingerprint="t")
        inv = rs.tikhonov_inverse(kernel, gamma=1e-30)
        np.testing.assert_allclose(inv.inv_sigma, 1.0, rtol=1e-15)

    def test_closed_form_weight(self):
        # sigma = 1e-3, gamma = 1e-6: sigma / (sigma^2 + gamma) = 500
        kernel = KernelMatrix(
            stored=np.diag([1e-3, 1e-3]).astype(complex), kind=em.KIND_Z2D, fingerprint="t"
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
        kernel = KernelMatrix(stored=np.diag(sigma).astype(complex), kind=em.KIND_Z2D, fingerprint="t")
        inv = rs.tikhonov_inverse(kernel, gamma=1e-6, threshold_factor=1e-5)
        # sigma^2 < 1e-5 * gamma = 1e-11 drops only the 1e-8 mode
        assert inv.retained_rank == 2
        assert inv.inv_sigma[2] == 0.0

    def test_literal_sigma_truncation_mode(self):
        sigma = np.array([1.0, 1e-2, 1e-8])
        kernel = KernelMatrix(stored=np.diag(sigma).astype(complex), kind=em.KIND_Z2D, fingerprint="t")
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
        kernel = KernelMatrix(stored=np.eye(2, dtype=complex), kind=em.KIND_Z2D, fingerprint="t")
        with pytest.raises(ValueError):
            rs.tikhonov_inverse(kernel, gamma=0.0)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan, -1.0])
    def test_gamma_must_be_finite_and_positive(self, gamma):
        # an infinite gamma would retain no mode, so every mask would fail later
        kernel = KernelMatrix(stored=np.eye(3, dtype=complex), kind=em.KIND_Z2D, fingerprint="t")
        with pytest.raises(MalformedConfig):
            rs.tikhonov_inverse(kernel, gamma=gamma)

    @pytest.mark.parametrize("threshold_factor", [math.nan, math.inf, -1.0])
    def test_threshold_factor_is_checked(self, threshold_factor):
        kernel = KernelMatrix(stored=np.eye(3, dtype=complex), kind=em.KIND_Z2D, fingerprint="t")
        with pytest.raises(MalformedConfig):
            rs.tikhonov_inverse(kernel, gamma=1e-6, threshold_factor=threshold_factor)

    def test_unknown_truncation_mode(self):
        kernel = KernelMatrix(stored=np.eye(3, dtype=complex), kind=em.KIND_Z2D, fingerprint="t")
        with pytest.raises(MalformedConfig):
            rs.tikhonov_inverse(kernel, gamma=1e-6, truncation_mode="sigma_cubed")

    def test_singular_value_that_overflows_its_square_is_rejected(self):
        # sigma**2 overflows above sqrt(float max) ~ 1.34e154; 1e155 is a kernel
        # scaled by a huge incident amplitude
        sigma = np.array([1e155, 1.0])
        kernel = KernelMatrix(stored=np.diag(sigma).astype(complex), kind=em.KIND_Z2D, fingerprint="t")
        with pytest.raises(SvdFailure, match="incident_amplitude"):
            rs.tikhonov_inverse(kernel, gamma=1e-6)
        # just below the limit still squares to a finite weight
        kernel = KernelMatrix(stored=np.diag([1e154, 1.0]).astype(complex), kind=em.KIND_Z2D, fingerprint="t")
        assert rs.tikhonov_inverse(kernel, gamma=1e-6).retained_rank == 2

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


def profile(tmp_path, inv, mask, amplification):
    """Power-normalised coefficient vector realizing one plane mask, as exported."""
    masks = md.MaskSet(kind=md.KIND_MASK2D, stored=np.asarray(mask)[None, :])
    return exported_profiles(tmp_path, inv, masks, amplification)[0]


class TestSynthesize:
    def test_power_budget_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        kernel = random_kernel(rng, 8, 12)
        inv = rs.tikhonov_inverse(kernel, 1e-6)
        mask = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        values = profile(tmp_path, inv, mask, amplification=1.5)
        assert np.linalg.norm(values) ** 2 == pytest.approx(12 * 1.5, rel=1e-12)

    def test_positive_rescale_invariance(self, tmp_path):
        rng = np.random.default_rng(5)
        kernel = random_kernel(rng, 8, 12)
        inv = rs.tikhonov_inverse(kernel, 1e-6)
        mask = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a = profile(tmp_path, inv, mask, 1.0)
        b = profile(tmp_path, inv, 3.7 * mask, 1.0)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_zero_solution_rejected(self, tmp_path):
        kernel = KernelMatrix(
            stored=np.diag([1.0, 0.0]).astype(complex), kind=em.KIND_Z2D, fingerprint="t"
        )
        inv = rs.tikhonov_inverse(kernel, 1e-6)
        with pytest.raises(ZeroSolution):
            profile(tmp_path, inv, np.array([0.0, 1.0 + 0.0j]), 1.0)

    def test_zero_solution_names_its_mask_past_the_first_block(self, force_block_rows, tmp_path):
        # blocks of two rows: mask 5 is the second row of the third block
        force_block_rows(2, 2, 8 * 2)
        kernel = KernelMatrix(
            stored=np.diag([1.0, 0.0]).astype(complex), kind=em.KIND_Z2D, fingerprint="t"
        )
        inv = rs.tikhonov_inverse(kernel, 1e-6)
        vectors = np.tile(np.array([1.0, 1.0 + 0.0j]), (8, 1))
        vectors[5] = [0.0, 1.0]
        masks = md.MaskSet(kind=md.KIND_MASK2D, stored=vectors)
        with pytest.raises(ZeroSolution, match="mask 5 "):
            exported_profiles(tmp_path, inv, masks, 1.0)
        with pytest.raises(ZeroSolution, match="mask 5 "):
            rs.realize_masks(inv, masks, 1.0)

    def test_paired_pass_names_an_upper_row_before_any_reader(self, force_block_rows):
        # 8 masks over 4 points pair their rows: row i + 4 is row i with point 3
        # off. With only points 2 and 3 in range, rows 5 and 6 are zero there,
        # rows 0..4 are not; in blocks of one row the pass names row 5 before any
        # reader sees a block (gamma 1 keeps every value dyadic, so the zeros are exact)
        force_block_rows(1, 4, 8 * 4)
        kernel = KernelMatrix(stored=np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex), kind=em.KIND_Z2D, fingerprint="t")
        inv = rs.tikhonov_inverse(kernel, 1.0)
        masks = md.MaskSet(kind=md.KIND_MASK2D, design=(8, 4), phase=np.zeros(4))
        assert masks.paired and em.block_rows(masks.points, masks.distinct_rows * masks.points) == 1
        seen = []
        with pytest.raises(ZeroSolution, match="mask 5 ") as caught:
            rs.realize_masks(inv, masks, 1.0, [lambda rows, *_: seen.append(rows)])
        assert caught.value.mask == 5 and seen == []
        stored = md.MaskSet(kind=md.KIND_MASK2D, stored=masks.vectors)
        with pytest.raises(ZeroSolution, match="mask 5 "):
            rs.realize_masks(inv, stored, 1.0)

    def test_wrong_length_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        kernel = random_kernel(rng, 8, 12)
        inv = rs.tikhonov_inverse(kernel, 1e-6)
        with pytest.raises(DimensionMismatch):
            profile(tmp_path, inv, np.ones(9, dtype=complex), 1.0)


class TestRealizeMasks:
    def test_realized_count_and_profiles(self, small_scene, tmp_path):
        scene, grids = small_scene
        kernel = em.assemble_kernel(scene, grids)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        masks = md.ideal_masks(scene, grids, 128)
        realized = rs.realize_masks(inv, masks, scene.config.amplification)
        assert realized.vectors.shape == (128, scene.n_target)
        profiles = exported_profiles(tmp_path, inv, masks, scene.config.amplification)
        assert profiles.shape == (128, scene.n_ris)
        norms = np.linalg.norm(profiles, axis=1) ** 2
        np.testing.assert_allclose(norms, scene.n_ris * scene.config.amplification, rtol=1e-12)

    def test_well_conditioned_kernel_reproduces_masks(self):
        # identity-like square kernel, tiny gamma: realized = scaled ideal
        rng = np.random.default_rng(7)
        entries = (np.eye(16) + 1e-3 * rng.standard_normal((16, 16))).astype(complex)
        entries.setflags(write=False)
        kernel = KernelMatrix(stored=entries, kind=em.KIND_Z2D, fingerprint="t")
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        ideal = (rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16)))
        masks = md.MaskSet(kind=md.KIND_MASK2D, stored=ideal)
        realized, values = realize_with_values(inv, masks, 1.0)
        scale = np.sqrt(16.0) / realized.solution_norms
        np.testing.assert_allclose(values, scale[:, None] * ideal, rtol=1e-6)
        np.testing.assert_array_equal(realized.vectors, np.abs(values))

    def test_kind_mismatch(self, small_scene):
        scene, grids = small_scene
        kernel = em.assemble_kernel(scene, grids)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        masks = md.MaskSet(kind=md.KIND_MASK3D, stored=np.ones((4, scene.n_target), dtype=complex))
        with pytest.raises(KindMismatch):
            rs.realize_masks(inv, masks, 1.0)

    def test_first_mask_realizes_well_at_nearest_distance(self):
        scene = sc.validate_scene(desk_config(z_prime=0.125))
        grids = sc.sample_grids(scene)
        kernel = em.assemble_kernel(scene, grids)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        masks = md.ideal_masks(scene, grids, 1024)
        realized = rs.realize_masks(inv, masks, 1.0)
        corr = normalized_inner(np.abs(realized.vectors[0]), masks.moments[0][0])
        assert corr > 0.9

    def test_realized_covariance_concentrates_within_resolution(self):
        # at the nearest desk distance the realized-mask covariance against the
        # central pixel stays below 0.2 of the peak beyond one resolution length
        scene = sc.validate_scene(desk_config(z_prime=0.125))
        grids = sc.sample_grids(scene)
        kernel = em.assemble_kernel(scene, grids)
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
            kernel = em.assemble_kernel(scene, grids)
            inv = rs.tikhonov_inverse(kernel, 1e-12)
            masks = md.ideal_masks(scene, grids, 256)
            realized = rs.realize_masks(inv, masks, 1.0)
            ideal_amp = masks.moments[0]
            per_mask = [
                normalized_inner(np.abs(realized.vectors[i]), ideal_amp[i]) for i in range(64)
            ]
            correlations.append(float(np.mean(per_mask)))
        assert correlations[0] > correlations[1] > correlations[2]


class TestSpectrum:
    def test_profile_export_and_summary(self, small_scene, tmp_path):
        scene, grids = small_scene
        kernel = em.assemble_kernel(scene, grids)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        masks = md.ideal_masks(scene, grids, 128)
        misfit = rs.RealizedMisfit(masks)
        realized = rs.realize_masks(inv, masks, 1.0, [misfit.add])
        rs.save_profiles(tmp_path / "profiles.bin", inv, masks, 1.0, scene.fingerprint)
        kind, vectors, fp = md.load_mask_vectors(tmp_path / "profiles.bin")
        assert kind == "profiles" and fp == scene.fingerprint
        # each row is the regularized solution of its mask, scaled onto the power budget
        solutions = inv.apply(masks.vectors.T).T
        expected = np.sqrt(scene.n_ris) * solutions / np.linalg.norm(solutions, axis=1)[:, None]
        np.testing.assert_allclose(vectors, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
        rs.write_synthesis_summary(tmp_path / "summary.txt", inv, realized, misfit.values)
        text = (tmp_path / "summary.txt").read_text()
        assert f"retained_rank = {inv.retained_rank}" in text
        assert "solution_norm[0]" in text

    def test_summary_values_are_plain_numbers(self, small_scene, tmp_path):
        # every number reads back with float(), whatever the numpy version's scalar repr
        scene, grids = small_scene
        inv = rs.tikhonov_inverse(em.assemble_kernel(scene, grids), 1e-12)
        masks = md.ideal_masks(scene, grids, 128)
        misfit = rs.RealizedMisfit(masks)
        realized = rs.realize_masks(inv, masks, 1.0, [misfit.add])
        rs.write_synthesis_summary(tmp_path / "s.txt", inv, realized, misfit.values)
        values = dict(line.split(" = ", 1) for line in (tmp_path / "s.txt").read_text().splitlines())
        assert values.pop("truncation_mode") == inv.truncation_mode
        sectors = [key for key in values if key.startswith("sector[")]
        assert len(sectors) == len(inv.sectors) and all(values.pop(key).endswith("retained=16") for key in sectors)
        numbers = {key: float(value) for key, value in values.items()}
        norms = [numbers[f"solution_norm[{i}]"] for i in range(realized.count)]
        assert norms == realized.solution_norms.tolist() and len(numbers) == 7 + realized.count

    def test_summary_lists_sector_sizes(self, small_scene, tmp_path):
        scene, grids = small_scene
        inv = rs.tikhonov_inverse(em.assemble_kernel(scene, grids), 1e-12)
        masks = md.ideal_masks(scene, grids, 128)
        misfit = rs.RealizedMisfit(masks)
        realized = rs.realize_masks(inv, masks, 1.0, [misfit.add])
        rs.write_synthesis_summary(tmp_path / "s.txt", inv, realized, misfit.values)
        lines = [line for line in (tmp_path / "s.txt").read_text().splitlines() if line.startswith("sector[")]
        # an 8x8 target over a 16x16 aperture: four 4x4-pixel by 8x8-sample sectors
        assert lines == [f"sector[{k}] = 16x64 retained={s.retained}" for k, s in enumerate(inv.sectors)]
        assert sum(s.retained for s in inv.sectors) == inv.retained_rank

    def test_summary_reports_spectrum_and_fidelity(self, tmp_path):
        rng = np.random.default_rng(8)
        kernel = random_kernel(rng, 6, 10)
        inv = rs.tikhonov_inverse(kernel, 1e-6)
        ideal = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        masks = md.MaskSet(kind=md.KIND_MASK2D, stored=ideal)
        misfit = rs.RealizedMisfit(masks)
        realized = rs.realize_masks(inv, masks, 2.0, [misfit.add])
        rs.write_synthesis_summary(tmp_path / "summary.txt", inv, realized, misfit.values)
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
    def test_u_only_route_matches_full_svd(self, shape, seed, gamma, tmp_path_factory):
        m, n = shape
        rng = np.random.default_rng(seed)
        kernel = random_kernel(rng, m, n)
        inv = rs.tikhonov_inverse(kernel, gamma)

        full_sigma = np.linalg.svd(kernel.entries, compute_uv=False)
        np.testing.assert_allclose(inv.sigma, full_sigma, rtol=0, atol=1e-12 * full_sigma[0])
        keep = full_sigma**2 >= rs.DEFAULT_THRESHOLD_FACTOR * gamma
        assert inv.retained_rank == int(np.count_nonzero(keep))

        ideal = rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m))
        masks = md.MaskSet(kind=md.KIND_MASK2D, stored=ideal)
        realized, values = realize_with_values(inv, masks, 1.5)
        profiles = exported_profiles(tmp_path_factory.mktemp("u-only"), inv, masks, 1.5)
        explicit = (kernel.entries @ profiles.T).T
        np.testing.assert_allclose(values, explicit, rtol=0, atol=1e-10 * np.abs(explicit).max())
        direct_norms = np.linalg.norm(inv.apply(ideal.T), axis=0)
        np.testing.assert_allclose(realized.solution_norms, direct_norms, rtol=1e-12)

    def test_desk_profiles_meet_power_budget(self, tmp_path):
        scene = sc.validate_scene(desk_config(z_prime=0.125))
        grids = sc.sample_grids(scene)
        kernel = em.assemble_kernel(scene, grids)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        masks = md.ideal_masks(scene, grids, 256)
        profiles = exported_profiles(tmp_path, inv, masks, 1.0)
        norms = np.linalg.norm(profiles, axis=1) ** 2
        np.testing.assert_allclose(norms, scene.n_ris * 1.0, rtol=1e-12)

    def test_zero_singular_values_get_zero_weight(self):
        entries = np.zeros((3, 5), dtype=complex)
        entries[0, 0] = 2.0
        kernel = KernelMatrix(stored=entries, kind=em.KIND_Z2D, fingerprint="t")
        inv = rs.tikhonov_inverse(kernel, 1e-6, threshold_factor=0.0)
        assert inv.retained_rank == 1
        solution = inv.apply(np.array([1.0, 1.0, 1.0], dtype=complex))
        assert np.all(np.isfinite(solution))
        np.testing.assert_allclose(solution, [2.0 / (4.0 + 1e-6), 0, 0, 0, 0], atol=1e-15)


def dense_svd_oracle(kernel, masks, gamma):
    """Oracle: K^H U diag(lambda / sigma) U^H b from one full SVD of the entries."""
    u, sigma, _ = np.linalg.svd(kernel.entries, full_matrices=False)
    keep = sigma**2 >= rs.DEFAULT_THRESHOLD_FACTOR * gamma
    weights = np.where(keep, 1.0 / (sigma**2 + gamma), 0.0)
    return kernel.entries.conj().T @ (u @ (weights[:, None] * (u.conj().T @ masks.vectors.T)))


def record_qr_sizes(monkeypatch):
    """Route ``np.linalg.qr`` through a recorder; returns the list of input sizes it fills."""
    sizes = []
    qr = np.linalg.qr

    def spy(a, mode="reduced"):
        sizes.append(np.asarray(a).size)
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", spy)
    return sizes


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


def assert_blocks_match_the_dense_bases(kernel, target, aperture):
    """Each sector block of a plane kernel is Q_s^T K diag(conj phase) P_s in the
    dense even/odd bases of :func:`mirror_basis`."""
    weighted = kernel.entries * kernel.symmetry.phase.conj()
    for (px, py), block in zip(rs._PARITIES, rs._sector_blocks(kernel)):
        # flat index ix + nx * iy, x fastest, on both sides
        q = np.kron(mirror_basis(target[1], py), mirror_basis(target[0], px))
        p = np.kron(mirror_basis(aperture[1], py), mirror_basis(aperture[0], px))
        expected = q.T @ weighted @ p
        assert block.shape == expected.shape
        np.testing.assert_allclose(block, expected, rtol=0, atol=1e-13 * np.abs(kernel.entries).max())


def one_qr_factor(block):
    """The spectral factor from one QR of the whole block: the oracle of the pieced one."""
    m, n = block.shape
    return np.linalg.qr(block.T, mode="r").T if m < n else block


class TestPiecedFactor:
    """``_spectral_factor`` factors a block much wider than tall in aperture pieces."""

    @pytest.fixture(scope="class")
    def wide_kernel(self):
        """A 64 x 4,096 kernel without mirror structure whose singular values fall from 1 to 1e-4."""
        rng = np.random.default_rng(29)
        left, _ = np.linalg.qr(rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        right, _ = np.linalg.qr(rng.standard_normal((4096, 64)) + 1j * rng.standard_normal((4096, 64)))
        entries = (left * np.logspace(0.0, -4.0, 64)) @ right.conj().T
        entries.setflags(write=False)
        return KernelMatrix(stored=entries, kind=em.KIND_Z2D, fingerprint="wide")

    def test_matches_one_qr_on_a_64_by_4096_block(self, wide_kernel, monkeypatch):
        pieced = rs.tikhonov_inverse(wide_kernel, 1e-12)
        with monkeypatch.context() as patch:
            patch.setattr(rs, "_spectral_factor", one_qr_factor)
            whole = rs.tikhonov_inverse(wide_kernel, 1e-12)
        np.testing.assert_allclose(pieced.sigma, whole.sigma, rtol=0, atol=1e-13 * whole.sigma[0])
        assert pieced.retained_rank == whole.retained_rank
        rng = np.random.default_rng(31)
        vectors = rng.standard_normal((128, 64)) + 1j * rng.standard_normal((128, 64))
        masks = md.MaskSet(kind=md.KIND_MASK2D, stored=vectors)
        _, values = realize_with_values(pieced, masks, 1.0)
        _, expected = realize_with_values(whole, masks, 1.0)
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_no_qr_input_exceeds_a_chunk(self, wide_kernel, monkeypatch):
        # pieces of max(4 * 64, BLOCK_ENTRIES / 64) = 1,024 columns of the 64 rows
        sizes = record_qr_sizes(monkeypatch)
        rs.tikhonov_inverse(wide_kernel, 1e-12)
        assert sizes == [em.BLOCK_ENTRIES] * 4 + [4 * 64 * 64]

    def test_the_volume_zsweep_scene_is_never_pieced(self, monkeypatch):
        # its 64 x 4,096 kernel is factored as four 48 x 1,024 stacks and their
        # 64 x 192 product, each one QR
        scene = sc.validate_scene(volume_config(n_xy=4, n_z=4, n_ris=64))
        kernel = em.assemble_kernel(scene, sc.sample_grids(scene))
        sizes = record_qr_sizes(monkeypatch)
        rs.tikhonov_inverse(kernel, 1e-12)
        assert sizes == [48 * 1024] * 4 + [192 * 64]

    @pytest.mark.parametrize(
        "config",
        [
            desk_config(),
            desk_config(n_ris_x=64, n_ris_y=64, n_target_x=32, n_target_y=32),
            volume_config(n_xy=4, n_z=4, n_ris=32),
        ],
        ids=["desk", "plane-64", "desk-volume"],
    )
    def test_plane_sectors_and_desk_blocks_are_one_qr(self, config, monkeypatch):
        scene = sc.validate_scene(config)
        kernel = em.assemble_kernel(scene, sc.sample_grids(scene))
        factored = []
        spectral_factor = rs._spectral_factor

        def keep(block):
            factored.append((block, spectral_factor(block)))
            return factored[-1][1]

        monkeypatch.setattr(rs, "_spectral_factor", keep)
        rs.tikhonov_inverse(kernel, 1e-12)
        # the five D4 blocks, or a volume's four stacks and their product
        assert len(factored) == 5
        for block, factor in factored:
            assert block.shape[0] < block.shape[1]
            assert factor.tobytes() == one_qr_factor(block).tobytes()

    def test_uneven_pieces_keep_the_gram_matrix(self, force_block_rows):
        force_block_rows(32, 8)  # pieces of 32 columns of the 8 rows
        block = random_kernel(np.random.default_rng(3), 8, 1000).entries  # 31 pieces of 32 or 33 columns
        factor = rs._spectral_factor(block)
        assert factor.shape == (8, 8)
        gram = block @ block.conj().T
        np.testing.assert_allclose(factor @ factor.conj().T, gram, rtol=0, atol=1e-13 * np.abs(gram).max())
        np.testing.assert_allclose(
            np.linalg.svd(factor, compute_uv=False), np.linalg.svd(block, compute_uv=False), rtol=1e-13
        )

    @pytest.mark.parametrize("piece", [None, 4], ids=["default-pieces", "4-column-pieces"])
    def test_a_block_without_rows(self, piece, force_block_rows):
        if piece is not None:
            force_block_rows(piece, 1)
        factor = rs._spectral_factor(np.zeros((0, 16), dtype=complex))
        assert factor.shape == (0, 0)
        u, sigma = rs._left_svd(np.zeros((0, 16), dtype=complex))
        assert u.shape == (0, 0) and sigma.shape == (0,)


class TestMirrorSectors:
    """A plane kernel's four mirror sectors against the same entries as one identity sector."""

    @pytest.mark.parametrize(
        "target, aperture",
        [((3, 4), (6, 7)), ((5, 5), (7, 7)), ((4, 4), (8, 8))],
        ids=["mixed", "odd", "even"],
    )
    @pytest.mark.parametrize("elevation_deg", [0.0, 30.0])
    def test_sectors_match_identity_sector(self, target, aperture, elevation_deg, tmp_path):
        cfg = desk_config(
            n_target_x=target[0],
            n_target_y=target[1],
            n_ris_x=aperture[0],
            n_ris_y=aperture[1],
            incident_elevation=math.radians(elevation_deg),
        )
        scene = sc.validate_scene(cfg)
        grids = sc.sample_grids(scene)
        kernel = em.assemble_kernel(scene, grids)
        bare = KernelMatrix(stored=kernel.entries, kind=kernel.kind, fingerprint=kernel.fingerprint)
        sectors = rs.tikhonov_inverse(kernel, 1e-12)
        identity = rs.tikhonov_inverse(bare, 1e-12)
        assert (len(sectors.sectors), len(identity.sectors)) == (4, 1)
        assert sum(s.u.shape[0] for s in sectors.sectors) == scene.n_target
        assert sum(s.block.shape[1] for s in sectors.sectors) == scene.n_ris

        sigma_max = identity.sigma[0]
        np.testing.assert_allclose(sectors.sigma, identity.sigma, rtol=0, atol=1e-12 * sigma_max)
        assert sectors.retained_rank == identity.retained_rank

        masks = md.ideal_masks(scene, grids, 64)
        folded, folded_values = realize_with_values(sectors, masks, 1.0)
        dense, dense_values = realize_with_values(identity, masks, 1.0)
        scale = np.abs(dense_values).max()
        np.testing.assert_allclose(folded_values, dense_values, rtol=0, atol=1e-10 * scale)
        np.testing.assert_allclose(folded.solution_norms, dense.solution_norms, rtol=1e-12)
        profiles = exported_profiles(tmp_path, identity, masks, 1.0)
        np.testing.assert_allclose(
            exported_profiles(tmp_path, sectors, masks, 1.0), profiles, rtol=0, atol=1e-12 * np.abs(profiles).max()
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
    def test_apply_and_export_match_dense_svd_oracle(self, cfg, tmp_path):
        scene = sc.validate_scene(cfg)
        grids = sc.sample_grids(scene)
        kernel = em.assemble_kernel(scene, grids)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        masks = md.ideal_masks(scene, grids, 64)
        expected = dense_svd_oracle(kernel, masks, 1e-12)  # (N, I)
        solutions = inv.apply(masks.vectors.T)
        np.testing.assert_allclose(solutions, expected, rtol=0, atol=1e-10 * np.abs(expected).max())
        norms = np.linalg.norm(solutions, axis=0)
        realized = rs.realize_masks(inv, masks, 1.0)
        np.testing.assert_allclose(norms, realized.solution_norms, rtol=1e-12)

        expected = (np.sqrt(scene.n_ris) * expected / np.linalg.norm(expected, axis=0)).T
        profiles = exported_profiles(tmp_path, inv, masks, 1.0)
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
        kernel = em.assemble_kernel(scene, grids)
        assert not kernel.symmetry.swap
        factors = record_svd_shapes(monkeypatch)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        assert len(factors) == len(inv.sectors) == 4

        masks = md.ideal_masks(scene, grids, 64)
        expected = dense_svd_oracle(kernel, masks, 1e-12)
        np.testing.assert_allclose(
            inv.apply(masks.vectors.T), expected, rtol=0, atol=1e-10 * np.abs(expected).max()
        )
        sigma = np.linalg.svd(kernel.entries, compute_uv=False)
        np.testing.assert_allclose(inv.sigma, sigma, rtol=0, atol=1e-12 * sigma[0])

    @pytest.mark.parametrize("n, n_ris", [(4, 8), (5, 7)], ids=["even", "odd"])
    def test_square_scene_decomposes_the_five_d4_blocks(self, n, n_ris, monkeypatch):
        scene = sc.validate_scene(desk_config(n_target_x=n, n_target_y=n, n_ris_x=n_ris, n_ris_y=n_ris))
        kernel = em.assemble_kernel(scene, sc.sample_grids(scene))
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
        kernel = em.assemble_kernel(scene, sc.sample_grids(scene))
        assert kernel.symmetry.swap
        sigma = np.linalg.svd(kernel.entries, compute_uv=False)
        dense_rank = int(np.count_nonzero(sigma**2 >= rs.DEFAULT_THRESHOLD_FACTOR * 1e-12))
        assert rs.tikhonov_inverse(kernel, 1e-12).retained_rank == dense_rank

    def test_cached_kernel_regains_its_symmetry(self, small_scene, tmp_path):
        scene, grids = small_scene
        kernel = em.assemble_kernel(scene, grids)
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
        assert_blocks_match_the_dense_bases(em.assemble_kernel(scene, sc.sample_grids(scene)), target, aperture)

    @pytest.mark.parametrize(
        "target, aperture",
        [((3, 4), (6, 7)), ((5, 5), (7, 7)), ((4, 4), (8, 8))],
        ids=["mixed", "odd", "even"],
    )
    def test_a_negative_amplitude_keeps_its_sign(self, target, aperture, tmp_path):
        # J_x = a * phase with a < 0: the blocks carry a itself, so taking |J_x| for it
        # would flip every block and every exported profile
        scene = sc.validate_scene(
            desk_config(
                n_target_x=target[0],
                n_target_y=target[1],
                n_ris_x=aperture[0],
                n_ris_y=aperture[1],
                incident_amplitude=-2.5,
            )
        )
        grids = sc.sample_grids(scene)
        kernel = em.assemble_kernel(scene, grids)
        assert kernel.symmetry.amplitude < 0
        assert_blocks_match_the_dense_bases(kernel, target, aperture)

        inv = rs.tikhonov_inverse(kernel, 1e-12)
        masks = md.ideal_masks(scene, grids, minimal_count(scene.n_target))
        _, values = realize_with_values(inv, masks, 1.5)
        rs.save_profiles(tmp_path / "p.bin", inv, masks, 1.5, scene.fingerprint)
        _, profiles, _ = md.load_mask_vectors(tmp_path / "p.bin")
        np.testing.assert_allclose(kernel.entries @ profiles.T, values.T, rtol=0, atol=1e-10 * np.abs(values).max())

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_butterfly_twice_doubles_each_pair_and_keeps_the_centre(self, n, axis):
        rng = np.random.default_rng(n)
        shape = (3, n, 5) if axis == -2 else (3, 5, n)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        once, twice = np.empty_like(values), np.empty_like(values)

        def butterfly(v, out):  # the map on the parts a folded grid keeps (:func:`rs._part`)
            rs._butterfly(v[rs._along(axis, rs._part(n, 0))], v[rs._along(axis, rs._part(n, 1))], axis, out)

        butterfly(values, once)
        butterfly(once, twice)
        v, once, twice = (np.moveaxis(a, axis, 0) for a in (values, once, twice))
        h = n // 2
        # the folded layout: v_i + v_{n-1-i} in the head, v_i - v_{n-1-i} in the tail read backwards
        np.testing.assert_array_equal(once[rs._part(n, 0)][:h], v[:h] + v[::-1][:h])
        np.testing.assert_array_equal(once[rs._part(n, 0)][h:], v[h : n - h])
        np.testing.assert_array_equal(once[rs._part(n, 1)], v[:h] - v[::-1][:h])
        expected = 2.0 * v
        expected[h : n - h] = v[h : n - h]
        np.testing.assert_allclose(twice, expected, rtol=0, atol=1e-15 * np.abs(expected).max())

    def test_volume_kernel_is_one_target_sector_over_four_aperture_stacks(self, tmp_path, monkeypatch):
        scene = sc.validate_scene(volume_config())
        grids = sc.sample_grids(scene)
        kernel = em.assemble_kernel(scene, grids)
        assert kernel.symmetry.weights is not None and not kernel.symmetry.swap
        em.save_kernel(tmp_path / "k.bin", kernel)
        restored = em.load_kernel(tmp_path / "k.bin", scene, grids).symmetry
        np.testing.assert_array_equal(restored.weights, kernel.symmetry.weights)
        svd_shapes = record_svd_shapes(monkeypatch)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        (sector,) = inv.sectors
        assert sector.u.shape == (scene.n_target, scene.n_target)
        assert sector.block.shape == (len(kernel.stored), scene.n_ris) == (3 * 2, 256)
        assert svd_shapes == [(scene.n_target, scene.n_target)]  # one SVD, of L's square factor
        assert rs._target_shape(inv) is None  # masks are realized without a fold or an unfold


VOLUME_DECOMPOSITIONS = pytest.mark.parametrize(
    "cfg",
    [
        volume_config(n_xy=3, n_target_y=5, n_z=2, n_ris_x=33, n_ris_y=31),
        volume_config(n_xy=1, n_target_y=3, n_z=2),
        volume_config(incident_amplitude=-2.5),
        volume_config(0.4, n_xy=4, n_z=4, n_ris=32),
    ],
    ids=["odd-3x5x2-33x31", "one-column", "negative-amplitude", "desk-volume-0.4"],
)


class TestVolumeDecomposition:
    """A volume kernel decomposed through the mirror sectors of its three tables."""

    @VOLUME_DECOMPOSITIONS
    def test_matches_the_dense_svd(self, cfg):
        scene = sc.validate_scene(cfg)
        kernel = em.assemble_kernel(scene, sc.sample_grids(scene))
        u, sigma, _ = np.linalg.svd(kernel.entries, full_matrices=False)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        (sector,) = inv.sectors
        np.testing.assert_allclose(sector.sigma, sigma, rtol=0, atol=1e-13 * sigma[0])
        r = inv.retained_rank
        assert r == np.count_nonzero(sigma**2 >= rs.DEFAULT_THRESHOLD_FACTOR * 1e-12)
        retained = sector.u[:, :r] @ sector.u[:, :r].conj().T
        np.testing.assert_allclose(retained, u[:, :r] @ u[:, :r].conj().T, rtol=0, atol=1e-12)

    def test_a_kernel_too_large_to_square_still_fails(self):
        scene = sc.validate_scene(volume_config(incident_amplitude=1e200))
        kernel = em.kernel_stream(scene, sc.sample_grids(scene))
        with pytest.raises(SvdFailure, match="incident_amplitude"):
            rs.tikhonov_inverse(kernel, 1e-12)

    def test_never_holds_an_m_by_n_array(self):
        # the 64 x 4,096 volume-zsweep kernel is 4 MiB and its stacks 3 MiB: beyond the
        # stacks the decomposition holds what draining the stream holds, and a gathered
        # block of rows, never a kernel-sized array
        scene = sc.validate_scene(volume_config(0.1, n_xy=4, n_z=4, n_ris=64))
        grids = sc.sample_grids(scene)

        def drain():
            for _ in em.kernel_stream(scene, grids).blocks:
                pass

        stream, _ = peak_traced_bytes(drain)
        peak, inv = peak_traced_bytes(lambda: rs.tikhonov_inverse(em.kernel_stream(scene, grids), 1e-12))
        (sector,) = inv.sectors
        kernel_bytes = 16 * scene.n_target * scene.n_ris
        assert peak <= sector.block.nbytes + stream + (1 << 20) < sector.block.nbytes + kernel_bytes
        held = [sector.block, sector.u, sector.sigma, sector.inv_sigma]
        assert all(a.shape != inv.shape for a in held)


@pytest.fixture(scope="module")
def desk_synthesis(desk_scene):
    """The desk scene's inverse at gamma 1e-12 and 1,024 ideal masks."""
    scene, grids = desk_scene
    inv = rs.tikhonov_inverse(em.assemble_kernel(scene, grids), 1e-12)
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
    def test_matches_fold_route(self, cfg, count, tmp_path):
        # the even grid and the volume have a power-of-two sample count, so
        # their minimal set wraps the last point onto the all-ones column
        scene = sc.validate_scene(cfg)
        grids = sc.sample_grids(scene)
        inv = rs.tikhonov_inverse(em.assemble_kernel(scene, grids), 1e-12)
        count = minimal_count(scene.n_target) if count == "minimal" else count
        designed = md.ideal_masks(scene, grids, count)
        folded = dataclasses.replace(designed, stored=designed.vectors, design=None)

        (fast, fast_values), (slow, slow_values) = (realize_with_values(inv, s, 1.5) for s in (designed, folded))
        scale = np.abs(slow_values).max()
        np.testing.assert_allclose(fast_values, slow_values, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(fast.solution_norms, slow.solution_norms, rtol=1e-12)
        profiles = exported_profiles(tmp_path, inv, folded, 1.5)
        np.testing.assert_allclose(
            exported_profiles(tmp_path, inv, designed, 1.5), profiles, rtol=0, atol=1e-12 * np.abs(profiles).max()
        )

    def test_designed_sets_never_fold_the_mask_stack(self, desk_synthesis, monkeypatch, tmp_path):
        inv, masks = desk_synthesis
        folds = []

        def recording_stacks(kernel, _original=rs._table_stacks):
            folds.append(kernel.shape)
            return _original(kernel)

        monkeypatch.setattr(rs, "_table_stacks", recording_stacks)
        stored = dataclasses.replace(masks, stored=masks.vectors, design=None)
        for mask_set in (masks, stored):
            rs.realize_masks(inv, mask_set, 1.0)
            inv.apply(mask_set.vectors[:3].T)
            rs.save_profiles(tmp_path / "p.bin", inv, mask_set, 1.0, "f")
            with rs.profile_writer(tmp_path / "q.bin", inv, mask_set.count, "f", mask_set.distinct_rows) as profiles:
                rs.realize_masks(inv, mask_set, 1.0, [profiles])
        # the kernel was folded at decomposition; nothing is folded once masks are realized
        assert folds == []


STREAMED_SCENES_PLAIN = pytest.mark.parametrize(
    "cfg",
    [desk_config(), desk_config(n_target_x=15, n_target_y=15, n_ris_x=33, n_ris_y=33), volume_config()],
    ids=["desk", "odd-15-33", "volume"],
)


class TestSelfContainedInverse:
    """The inverse keeps its sector blocks, formed once, and never the kernel."""

    def test_plane_kernel_is_released_after_decomposition(self, desk_scene):
        scene, grids = desk_scene
        kernel = em.assemble_kernel(scene, grids)
        stored = weakref.ref(kernel.stored)
        inv = rs.tikhonov_inverse(kernel, 1e-12)
        del kernel
        gc.collect()
        assert stored() is None
        assert len(inv.sectors) == 4
        assert not any(s.block.flags.writeable for s in inv.sectors)
        assert inv.shape == (scene.n_target, scene.n_ris)

    @pytest.mark.parametrize(
        "cfg",
        [volume_config(), volume_config(n_xy=3, n_target_y=5, n_z=2, n_ris_x=7, n_ris_y=6)],
        ids=["desk-volume", "odd-3x5x2-7x6"],
    )
    def test_volume_inverse_keeps_its_folded_table_rows_as_its_block(self, cfg):
        # the stored rows in the orthonormal mirror basis of the aperture, sector after sector
        scene = sc.validate_scene(cfg)
        kernel = em.assemble_kernel(scene, sc.sample_grids(scene))
        (sector,) = rs.tikhonov_inverse(kernel, 1e-12).sectors
        assert not sector.block.flags.writeable and not np.shares_memory(sector.block, kernel.stored)
        ax, ay = kernel.symmetry.aperture_shape
        basis = np.concatenate(
            [np.kron(mirror_basis(ay, py), mirror_basis(ax, px)) for px, py in rs._PARITIES], axis=1
        )
        expected = kernel.stored @ basis
        np.testing.assert_allclose(sector.block, expected, rtol=0, atol=1e-14 * np.abs(expected).max())

    def test_writable_entries_stay_writable_to_their_owner(self):
        entries = np.eye(3, dtype=complex)
        inv = rs.tikhonov_inverse(KernelMatrix(stored=entries, kind=em.KIND_Z2D, fingerprint="t"), 1e-6)
        (sector,) = inv.sectors
        assert entries.flags.writeable and not sector.block.flags.writeable
        assert np.shares_memory(sector.block, entries)

    def test_blocks_are_formed_once_per_inverse(self, desk_scene, tmp_path, monkeypatch):
        # decomposed from the stream of the kernel's rows, the profiles exported in the
        # realization pass, and every reader that maps back to the aperture later on
        calls = []

        def counted(kernel, _original=rs._sector_blocks):
            calls.append((type(kernel), kernel.shape))
            return _original(kernel)

        monkeypatch.setattr(rs, "_sector_blocks", counted)
        scene, grids = desk_scene
        inv = rs.tikhonov_inverse(em.kernel_stream(scene, grids), 1e-12)
        masks = md.ideal_masks(scene, grids, 256)
        misfit = rs.RealizedMisfit(masks)
        with rs.profile_writer(tmp_path / "profiles.bin", inv, masks.count, "f") as profiles:
            realized = rs.realize_masks(inv, masks, 1.0, [misfit.add, profiles])
        rs.save_profiles(tmp_path / "saved.bin", inv, masks, 1.0, "f")
        inv.apply(masks.vectors[:3].T)
        rs.write_synthesis_summary(tmp_path / "synthesis.txt", inv, realized, misfit.values)
        assert calls == [(em.KernelStream, (scene.n_target, scene.n_ris))]

    @STREAMED_SCENES_PLAIN
    @pytest.mark.parametrize("rows_per_block", [1, 3, None], ids=["row", "three-rows", "default"])
    def test_streamed_kernel_decomposes_to_the_same_bits(self, cfg, rows_per_block, force_block_rows):
        # the quadrant rows arrive in blocks that need not hold whole target lines
        scene = sc.validate_scene(cfg)
        grids = sc.sample_grids(scene)
        stored = rs.tikhonov_inverse(em.assemble_kernel(scene, grids), 1e-12)
        if rows_per_block is not None:  # per slice the kernel walks its quadrant's rows
            force_block_rows(rows_per_block, scene.n_ris, math.prod(stored.symmetry.quadrant_shape) * scene.n_ris)
        streamed = rs.tikhonov_inverse(em.kernel_stream(scene, grids), 1e-12)
        assert len(streamed.sectors) == len(stored.sectors)
        for a, b in zip(stored.sectors, streamed.sectors):
            for name in ("block", "u", "sigma", "inv_sigma"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    @pytest.mark.parametrize("rows", [-1, 3], ids=["short", "long"])
    @pytest.mark.parametrize("scene_fixture", ["desk_scene", "volume_scene"], ids=["plane", "volume"])
    def test_stored_rows_that_miss_the_quadrant_are_rejected(self, request, scene_fixture, rows):
        kernel = em.assemble_kernel(*request.getfixturevalue(scene_fixture))
        stored = kernel.stored[:rows] if rows < 0 else np.concatenate([kernel.stored, kernel.stored[:rows]])
        message = f"{len(stored)} stored kernel rows for the {len(kernel.stored)} rows of the mirror quadrant"
        with pytest.raises(DimensionMismatch, match=message):
            rs.tikhonov_inverse(dataclasses.replace(kernel, stored=stored), 1e-12)

    @pytest.mark.parametrize(
        "cfg",
        [desk_config(), desk_config(n_target_x=15, n_target_y=15, n_ris_x=33, n_ris_y=33)],
        ids=["desk", "odd-15-33"],
    )
    def test_inverse_holds_only_its_blocks_and_u(self, cfg):
        # the desk kernel alone (4 MiB) is four times its blocks and exceeds the slack;
        # a block is a view, so each array it views is counted once, whole: an odd
        # target's blocks leave quadrant rows of that array out, which it still holds
        scene = sc.validate_scene(cfg)
        grids = sc.sample_grids(scene)
        tracemalloc.start()
        try:
            inv = rs.tikhonov_inverse(em.assemble_kernel(scene, grids), 1e-12)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        owners = {}
        for array in (a for s in inv.sectors for a in (s.block, s.u)):
            owner = array if array.base is None else array.base
            owners[id(owner)] = owner.nbytes
        assert held <= sum(owners.values()) + (1 << 20)


STREAMED_SCENES = pytest.mark.parametrize(
    "cfg",
    [
        desk_config(),
        desk_config(0.25),
        desk_config(n_target_x=15, n_target_y=15, n_ris_x=33, n_ris_y=33),
        desk_config(n_target_x=15, n_target_y=16, n_ris_x=33, n_ris_y=32),
        volume_config(),
    ],
    ids=["desk", "desk-0.25", "odd-15-33", "mixed-15x16-33x32", "volume"],
)


class TestStreamedExports:
    """Exports written a block of rows at a time hold the bytes of the whole-array route."""

    COUNT = 256

    @staticmethod
    def synthesis(cfg):
        scene = sc.validate_scene(cfg)
        grids = sc.sample_grids(scene)
        inv = rs.tikhonov_inverse(em.assemble_kernel(scene, grids), 1e-12)
        return scene, inv, md.ideal_masks(scene, grids, TestStreamedExports.COUNT)

    @staticmethod
    def header(kind, count, points):
        return f"kind={kind} count={count} points={points} fingerprint=f\n".encode()

    @STREAMED_SCENES
    def test_profiles_match_the_whole_array(self, cfg, force_block_rows, tmp_path):
        _, inv, masks = self.synthesis(cfg)
        # four rows per block, at least four blocks of the distinct rows the export repeats
        n = inv.shape[1]
        force_block_rows(4, n, masks.distinct_rows * n)
        assert masks.distinct_rows >= 4 * 4
        rs.save_profiles(tmp_path / "p.bin", inv, masks, 1.5, "f")
        # the whole (I, N) array of solutions, each scaled onto the power budget
        solutions = inv.apply(masks.vectors.T).T
        expected = np.sqrt(inv.shape[1] * 1.5) * solutions / np.linalg.norm(solutions, axis=1)[:, None]
        head, body = (tmp_path / "p.bin").read_bytes().split(b"\n", 1)
        assert head + b"\n" == self.header("profiles", *expected.shape)
        profiles = np.frombuffer(body, dtype="<c16").reshape(expected.shape)
        np.testing.assert_allclose(profiles, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @STREAMED_SCENES
    def test_ideal_export_matches_the_designed_stack(self, cfg, force_block_rows, tmp_path):
        _, _, masks = self.synthesis(cfg)
        force_block_rows(4, masks.points, masks.distinct_rows * masks.points)
        md.save_mask_vectors(tmp_path / "m.bin", masks, "f")
        stack = masks.vectors  # the whole stack, formed on read
        expected = self.header(masks.kind, *stack.shape) + stack.astype("<c16").tobytes()
        assert (tmp_path / "m.bin").read_bytes() == expected

    @STREAMED_SCENES
    def test_summary_matches_the_whole_array_formula(self, cfg, force_block_rows, tmp_path):
        _, inv, ideal = self.synthesis(cfg)
        force_block_rows(4, ideal.points, ideal.distinct_rows * ideal.points)
        misfit = rs.RealizedMisfit(ideal)
        unit = np.empty((ideal.distinct_rows, ideal.points), dtype=complex)

        def keep(rows, masks, *_):
            unit[rows] = masks

        realized = rs.realize_masks(inv, ideal, 1.5, [misfit.add, keep])
        rs.write_synthesis_summary(tmp_path / "s.txt", inv, realized, misfit.values)
        # the unit-budget masks the pass hands over, each row repeated as the set repeats it
        fitted = np.tile(unit, (realized.repeats, 1))
        rel_err = np.linalg.norm(fitted - ideal.vectors, axis=1) / np.linalg.norm(ideal.vectors, axis=1)
        lines = (tmp_path / "s.txt").read_text().splitlines()
        assert f"realized_rel_err_mean = {float(rel_err.mean())!r}" in lines
        assert f"realized_rel_err_max = {float(rel_err.max())!r}" in lines

    def test_zero_solution_mid_stream_leaves_the_old_file(self, force_block_rows, tmp_path):
        # blocks of two rows: mask 5, in the third block, has a zero norm, which
        # the pass finds before it writes any block
        force_block_rows(2, 2, 8 * 2)
        kernel = KernelMatrix(stored=np.diag([1.0, 0.0]).astype(complex), kind=em.KIND_Z2D, fingerprint="t")
        inv = rs.tikhonov_inverse(kernel, 1e-6)
        vectors = np.tile(np.array([1.0, 1.0 + 0.0j]), (8, 1))
        path = tmp_path / "profiles.bin"
        rs.save_profiles(path, inv, md.MaskSet(kind=md.KIND_MASK2D, stored=vectors), 1.0, "t")
        old = path.read_bytes()
        vectors[5] = [0.0, 1.0]
        with pytest.raises(ZeroSolution, match="mask 5 "):
            rs.save_profiles(path, inv, md.MaskSet(kind=md.KIND_MASK2D, stored=vectors), 1.0, "t")
        assert path.read_bytes() == old
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_zero_solution_mid_pass_leaves_the_old_realized_export(self, force_block_rows, tmp_path):
        # the realized masks are written by a reader of the realization pass: a mask
        # with a zero norm in the third block leaves the old file
        force_block_rows(2, 2, 8 * 2)
        kernel = KernelMatrix(stored=np.diag([1.0, 0.0]).astype(complex), kind=em.KIND_Z2D, fingerprint="t")
        inv = rs.tikhonov_inverse(kernel, 1e-6)
        vectors = np.tile(np.array([1.0, 1.0 + 0.0j]), (8, 1))
        rn.export_synthesis(tmp_path, [(8, "")], "t", inv, md.MaskSet(kind=md.KIND_MASK2D, stored=vectors), 1.0)
        old = (tmp_path / "masks_realized.bin").read_bytes()
        vectors[5] = [0.0, 1.0]
        with pytest.raises(ZeroSolution, match="mask 5 "):
            rn.export_synthesis(tmp_path, [(8, "")], "t", inv, md.MaskSet(kind=md.KIND_MASK2D, stored=vectors), 1.0)
        assert (tmp_path / "masks_realized.bin").read_bytes() == old
        assert list(tmp_path.glob(".*.tmp")) == []


class TestPairedWriters:
    """A pass hands each block of staged rows and then its partner rows, and the
    writers place every block at its own row offset."""

    def test_blocks_in_any_row_order_write_the_same_bytes(self, desk_synthesis, tmp_path):
        inv, masks = desk_synthesis  # 1,024 masks over 256 points: 512 distinct rows in pairs
        period = masks.distinct_rows
        blocks = []

        def record(rows, block, scales, c):
            blocks.append((rows, block.copy(), scales.copy(), c.copy()))

        rs.realize_masks(inv, masks, 1.5, [record])
        starts = [rows.start for rows, *_ in blocks]
        assert masks.paired and starts != sorted(starts) and starts[1] == period // 2
        factors = rs.aperture_factors(inv)
        orders = {"rows": sorted(blocks, key=lambda b: b[0].start), "reversed": blocks[::-1]}
        for name, order in orders.items():
            shape = (masks.count, masks.points)
            with md.mask_file_writer(tmp_path / f"m-{name}.bin", masks.kind, shape, "f", period) as write:
                with rs.profile_writer(tmp_path / f"p-{name}.bin", inv, masks.count, "f", period, factors) as add:
                    for rows, block, scales, c in order:
                        write(block, rows.start)
                        add(rows, block, scales, c)
        for stem in ("m", "p"):
            assert (tmp_path / f"{stem}-rows.bin").read_bytes() == (tmp_path / f"{stem}-reversed.bin").read_bytes()
        rs.save_profiles(tmp_path / "saved.bin", inv, masks, 1.5, "f")
        assert (tmp_path / "p-reversed.bin").read_bytes() == (tmp_path / "saved.bin").read_bytes()


class TestPeriodicSets:
    """A designed set of I >= 2J masks is realized over its J distinct rows,
    and every reader of all I rows sees them repeated."""

    def test_matches_a_realization_of_every_row(self, desk_synthesis, desk_scene):
        inv, _ = desk_synthesis
        designed = md.ideal_masks(*desk_scene, 2048)
        seen = []
        periodic = rs.realize_masks(inv, designed, 1.5, [lambda rows, *_: seen.append(rows)])
        assert seen[0].start == 0 and seen[-1].stop == designed.distinct_rows == 512
        assert periodic.stored.shape == (512, 256) and periodic.repeats == 4 and periodic.count == 2048
        every = rs.realize_masks(inv, md.MaskSet(kind=designed.kind, stored=designed.vectors), 1.5)
        assert every.stored.shape == (2048, 256) and every.repeats == 1
        scale = np.abs(every.stored).max()
        np.testing.assert_allclose(periodic.vectors, every.stored, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(periodic.solution_norms, every.solution_norms, rtol=1e-12)

    def test_exports_repeat_the_period_byte_for_byte(self, tmp_path):
        scene = sc.validate_scene(volume_config())
        grids = sc.sample_grids(scene)
        inv = rs.tikhonov_inverse(em.assemble_kernel(scene, grids), 1e-12)
        ideal = md.ideal_masks(scene, grids, 256)
        period = ideal.distinct_rows
        realized = rn.export_synthesis(tmp_path, [(256, "")], "f", inv, ideal, 1.5)
        assert period == 16 and realized.stored.shape == (period, scene.n_target)
        for name, columns in (("masks_realized", scene.n_target), ("profiles", scene.n_ris)):
            _, vectors, _ = md.load_mask_vectors(tmp_path / f"{name}.bin")
            assert vectors.shape == (256, columns)
            first = vectors[:period].tobytes()
            assert all(vectors[k : k + period].tobytes() == first for k in range(period, 256, period))
        _, masks, _ = md.load_mask_vectors(tmp_path / "masks_realized.bin")
        assert masks.tobytes() == realized.vectors.tobytes()
        rs.save_profiles(tmp_path / "saved.bin", inv, ideal, 1.5, "f")
        assert (tmp_path / "profiles.bin").read_bytes() == (tmp_path / "saved.bin").read_bytes()
        lines = (tmp_path / "synthesis.txt").read_text().splitlines()
        norms = [line for line in lines if line.startswith("solution_norm[")]
        assert len(norms) == 256 and norms[period].split(" = ")[1] == norms[0].split(" = ")[1]


LAYOUT_SCENES = pytest.mark.parametrize(
    "cfg, threshold_factor",
    [
        (desk_config(n_target_x=15, n_target_y=15, n_ris_x=33, n_ris_y=33), rs.DEFAULT_THRESHOLD_FACTOR),
        (desk_config(), 6e6),
        (volume_config(), rs.DEFAULT_THRESHOLD_FACTOR),
    ],
    ids=["odd-15-33", "low-rank", "volume"],
)


class TestOneArrayLayout:
    """A realization pass stages c at the tail of the array whose head takes the
    kept rows; every reader sees the bits that separate arrays give."""

    @LAYOUT_SCENES
    @pytest.mark.parametrize("small_blocks", [False, True], ids=["default-blocks", "small-blocks"])
    def test_readers_see_what_separate_arrays_give(
        self, cfg, threshold_factor, small_blocks, tmp_path, force_block_rows
    ):
        scene = sc.validate_scene(cfg)
        grids = sc.sample_grids(scene)
        inv = rs.tikhonov_inverse(em.assemble_kernel(scene, grids), 1e-12, threshold_factor)
        masks = md.ideal_masks(scene, grids, 256)
        count = masks.distinct_rows
        if small_blocks and scene.is_3d:  # the 8 staged rows of the volume's 16 in two blocks
            force_block_rows(4, scene.n_target, count * scene.n_target)
        elif small_blocks:  # many blocks, whose rows of profiles (5) and of masks (16) do not line up
            force_block_rows(5, scene.n_ris, count * scene.n_ris)
            assert em.block_rows(scene.n_target, count * scene.n_target) == 16
        if threshold_factor != rs.DEFAULT_THRESHOLD_FACTOR:
            assert 0 < 2 * inv.retained_rank < scene.n_target  # c is shorter than u
        # the coefficients staged alone, in an array of their own: one row per
        # distinct mask (16 of the volume's 256, which repeat them); the volume's
        # rows pair, so its first 8 are staged and row i + 8 has c_i - v
        fresh = np.empty((masks.distinct_rows, inv.retained_rank), dtype=complex)
        partner = rs._stage_coefficients(inv, rs._folded_factors(inv), masks, fresh)
        half = rs._staged_rows(masks)
        assert (partner is not None) == (cfg.target_kind == sc.VOLUME_3D) == (half < masks.distinct_rows)
        right = [(f.u * f.sigma).T for f in rs._folded_factors(inv)]
        shape = rs._target_shape(inv)
        unscaled = np.empty((masks.distinct_rows, scene.n_target), dtype=complex)
        if partner is not None:
            np.subtract(fresh[:half], partner, out=fresh[half:])
            partner_mask = np.empty((1, scene.n_target), dtype=complex)
            rs._map_rows(partner[None], right, shape, partner_mask)
        budget = np.sqrt(scene.n_ris * 1.5)
        seen = []

        def reader(rows, block, scales, c):
            seen.append((rows, block.copy(), scales.copy(), c.copy()))

        with rs.profile_writer(tmp_path / "p.bin", inv, masks.count, "f", masks.distinct_rows) as profiles:
            realized = rs.realize_masks(inv, masks, 1.5, [reader, profiles])
        assert seen[-1][0].stop == masks.distinct_rows and (not small_blocks or len(seen) >= 4)
        assert sorted(r for rows, *_ in seen for r in range(rows.start, rows.stop)) == list(range(len(fresh)))
        parts = fresh.view(np.float64)
        norms = np.sqrt(np.einsum("ik,ik->i", parts, parts))
        for rows, block, scales, c in seen:
            # the readers get the unscaled c and the unit-budget masks, and each row's budget scale
            assert scales.tobytes() == (budget / norms[rows]).tobytes()
            assert c.tobytes() == fresh[rows].tobytes()
            # the staged rows are mapped; a partner row is its row's mask minus the mapped v
            if rows.start < half:
                rs._map_rows(fresh[rows], right, shape, unscaled[rows])
            else:
                np.subtract(unscaled[rows.start - half : rows.stop - half], partner_mask, out=unscaled[rows])
            assert block.tobytes() == unscaled[rows].tobytes()
            # the set keeps the masks scaled onto the budget, or their magnitudes
            scaled = unscaled[rows] * scales[:, None]
            kept = scaled if masks.kind == md.KIND_MASK3D else np.abs(scaled)
            assert realized.stored[rows].tobytes() == kept.tobytes()
        assert realized.solution_norms.tobytes() == np.tile(norms, realized.repeats).tobytes()
        rs.save_profiles(tmp_path / "saved.bin", inv, masks, 1.5, "f")
        assert (tmp_path / "p.bin").read_bytes() == (tmp_path / "saved.bin").read_bytes()

    @LAYOUT_SCENES
    def test_kept_rows_share_the_staging_array(self, cfg, threshold_factor):
        scene = sc.validate_scene(cfg)
        grids = sc.sample_grids(scene)
        inv = rs.tikhonov_inverse(em.assemble_kernel(scene, grids), 1e-12, threshold_factor)
        masks = md.ideal_masks(scene, grids, 256)
        realized = rs.realize_masks(inv, masks, 1.0)
        held = realized.stored.base
        width = scene.n_target if realized.kind == md.KIND_MASK3D else -(-scene.n_target // 2)
        # c of the h staged rows, at the tail, beside the kept rows from h on
        half = rs._staged_rows(masks)
        assert half == (8 if realized.kind == md.KIND_MASK3D else realized.distinct_rows)
        size = (realized.distinct_rows - half) * width + half * max(inv.retained_rank, width)
        assert held.dtype == np.complex128 and held.size == size
        assert realized.stored.flags.c_contiguous and not realized.stored.flags.writeable


class TestInverseWithoutBlocks:
    """An inverse without its sector blocks realizes masks alike and maps nothing back to the aperture."""

    @STREAMED_SCENES
    def test_realizes_the_same_bits(self, cfg):
        _, inv, masks = TestStreamedExports.synthesis(cfg)
        bare = inv.without_blocks()
        assert all(s.block is None for s in bare.sectors)
        assert bare.shape == inv.shape and bare.retained_rank == inv.retained_rank
        (full, full_values), (light, light_values) = (realize_with_values(i, masks, 1.5) for i in (inv, bare))
        assert light_values.tobytes() == full_values.tobytes()
        assert light.vectors.tobytes() == full.vectors.tobytes()
        assert light.solution_norms.tobytes() == full.solution_norms.tobytes()

    def test_releases_the_blocks_and_copies_nothing_else(self, desk_scene):
        scene, grids = desk_scene
        inv = rs.tikhonov_inverse(em.assemble_kernel(scene, grids), 1e-12)
        blocks = [weakref.ref(s.block) for s in inv.sectors]
        factors = [(s.u, s.sigma, s.inv_sigma) for s in inv.sectors]
        inv = inv.without_blocks()
        gc.collect()
        assert all(ref() is None for ref in blocks)
        assert all(
            s.u is u and s.sigma is sigma and s.inv_sigma is inv_sigma
            for s, (u, sigma, inv_sigma) in zip(inv.sectors, factors)
        )

    def test_aperture_readers_raise(self, desk_synthesis, tmp_path):
        inv, masks = desk_synthesis
        bare = inv.without_blocks()
        misfit = rs.RealizedMisfit(masks)
        realized = rs.realize_masks(bare, masks, 1.0, [misfit.add])
        calls = (
            lambda: bare.apply(masks.vectors[0]),
            lambda: rs.save_profiles(tmp_path / "p.bin", bare, masks, 1.0, "f"),
            lambda: rs.write_synthesis_summary(tmp_path / "s.txt", bare, realized, misfit.values),
        )
        for call in calls:
            with pytest.raises(ValueError, match="without its sector blocks"):
                call()
        assert list(tmp_path.iterdir()) == []  # nothing was written


class TestPeakMemory:
    """Temporaries of the coefficient loop stay a few MiB above the output."""

    SLACK = 8 << 20

    def test_realize_needs_little_beyond_its_output(self, desk_synthesis):
        inv, masks = desk_synthesis
        peak, realized = peak_traced_bytes(lambda: rs.realize_masks(inv, masks, 1.0))
        assert realized.vectors.shape == (1024, 256)
        assert peak <= realized.vectors.nbytes + self.SLACK

    def test_stored_set_needs_little_beyond_its_output(self, desk_synthesis):
        inv, masks = desk_synthesis
        stored = dataclasses.replace(masks, stored=masks.vectors, design=None)  # forms the (1024, 256) stack once
        peak, realized = peak_traced_bytes(lambda: rs.realize_masks(inv, stored, 1.0))
        assert realized.vectors.shape == (1024, 256)
        assert peak <= realized.vectors.nbytes + self.SLACK

    def test_streamed_inverse_never_holds_the_quadrant(self):
        # at 64^2 x 32^2 the stored quadrant and the sector blocks are 16 MiB each;
        # decomposed from the stream of the kernel's rows, the inverse holds the
        # blocks, a few row blocks of assembly and the SVD's temporaries
        scene = sc.validate_scene(desk_config(n_target_x=32, n_target_y=32, n_ris_x=64, n_ris_y=64))
        grids = sc.sample_grids(scene)
        peak, inv = peak_traced_bytes(lambda: rs.tikhonov_inverse(em.kernel_stream(scene, grids), 1e-12))
        blocks = sum(s.block.nbytes for s in inv.sectors)
        quadrant = math.prod(inv.symmetry.quadrant_shape) * scene.n_ris * 16
        assert peak < blocks + quadrant

    @pytest.mark.parametrize(
        "cfg",
        [desk_config(), desk_config(n_target_x=15, n_target_y=15, n_ris_x=33, n_ris_y=33)],
        ids=["desk", "odd-15-33"],
    )
    def test_sector_blocks_need_no_split_temporaries(self, cfg):
        # beyond the blocks: two buffers of one folded line and that line's weights,
        # never a copy of the quadrant (about the blocks' size)
        scene = sc.validate_scene(cfg)
        kernel = em.assemble_kernel(scene, sc.sample_grids(scene))
        peak, blocks = peak_traced_bytes(lambda: rs._sector_blocks(kernel))
        assert peak <= sum(block.nbytes for block in blocks) + (1 << 20)

    def test_sector_blocks_stage_at_most_one_line(self):
        # at 64^2 x 32^2 the blocks are 16 MiB and a line of quadrant rows 1 MiB: each
        # line is folded along y into one buffer and from there straight into the blocks
        scene = sc.validate_scene(desk_config(n_target_x=32, n_target_y=32, n_ris_x=64, n_ris_y=64))
        kernel = em.assemble_kernel(scene, sc.sample_grids(scene))
        line = kernel.symmetry.quadrant_shape[0] * scene.n_ris * 16
        assert line == 1 << 20
        peak, blocks = peak_traced_bytes(lambda: rs._sector_blocks(kernel))
        assert peak <= sum(block.nbytes for block in blocks) + line + (256 << 10)

    @pytest.mark.parametrize(
        "cfg",
        [
            desk_config(n_target_x=5, n_target_y=4, n_ris_x=7, n_ris_y=6),
            volume_config(n_xy=3, n_target_y=5, n_z=2, n_ris_x=7, n_ris_y=6),
        ],
        ids=["odd-5x4-7x6", "odd-3x5x2-7x6"],
    )
    def test_small_kernels_stage_a_small_fold(self, cfg):
        # the fold's two buffers take the four images of a step of rows, 1.3 KiB a
        # row here, and a step never exceeds the stored rows: buffers sized from N
        # alone would stage about 1 MiB above these few KiB
        scene = sc.validate_scene(cfg)
        kernel = em.assemble_kernel(scene, sc.sample_grids(scene))
        peak, stacks = peak_traced_bytes(lambda: rs._table_stacks(kernel))
        assert stacks.shape == (kernel.symmetry.stored_rows, scene.n_ris)
        assert peak <= stacks.nbytes + len(stacks) * (4 << 10)

    def test_designed_plane_set_holds_no_complex_stack(self, desk_scene):
        # the {0,1} pattern alone would be 2 MiB at I = 1,024, M = 256, the complex stack 4 MiB
        peak, masks = peak_traced_bytes(lambda: md.ideal_masks(*desk_scene, 1024))
        assert peak <= 256 << 10
        assert masks.stored is None and masks.design == (1024, 256)
        assert (masks.count, masks.points) == (1024, 256)
        held = [v for v in vars(masks).values() if isinstance(v, np.ndarray)]
        assert [v.shape for v in held] == [(256,)]  # the phase profile only

    @pytest.mark.parametrize("case", ["designed", "stored", "designed-4096"])
    def test_profile_export_holds_one_block_beside_the_coefficients(self, case, desk_synthesis, desk_scene, tmp_path):
        # the whole (I, N) profile array alone is 16 MiB at I = N = 1,024 (64 MiB at
        # I = 4,096), and no set's export needs more than that array and the slack;
        # the designed I = 1,024 set holds, beyond the coefficients and the one reused
        # block, only the aperture factors (1 MiB here) and one block's unfold temporaries
        inv, masks = desk_synthesis
        if case == "stored":  # forms the (1024, 256) stack once
            masks = dataclasses.replace(masks, stored=masks.vectors, design=None)
        elif case == "designed-4096":
            masks = md.ideal_masks(*desk_scene, 4096)
        peak, _ = peak_traced_bytes(lambda: rs.save_profiles(tmp_path / "p.bin", inv, masks, 1.0, "f"))
        assert peak <= masks.count * inv.shape[1] * 16 + self.SLACK
        if case == "designed":
            coefficients = masks.count * inv.retained_rank * 16
            block = em.block_rows(inv.shape[1], masks.distinct_rows * inv.shape[1]) * inv.shape[1] * 16
            assert peak <= coefficients + block + (3 << 20)

    def test_designed_coefficients_hold_two_blocks_beside_their_output(self, desk_synthesis):
        # a block of columns is 1 MiB at I = 1,024: the transform's two products, while
        # the previous block's result is already freed
        inv, masks = desk_synthesis
        factors = rs._folded_factors(inv)

        def staged():
            c = np.empty((masks.count, inv.retained_rank), dtype=complex)
            rs._stage_coefficients(inv, factors, masks, c)
            return c

        peak, c = peak_traced_bytes(staged)
        assert peak <= c.nbytes + (5 << 19)

    def test_designed_export_forms_one_block_at_a_time(self, desk_synthesis, tmp_path):
        # the designed (I, M) stack alone is 4 MiB at I = 1,024, M = 256
        _, masks = desk_synthesis
        peak, _ = peak_traced_bytes(lambda: md.save_mask_vectors(tmp_path / "m.bin", masks, "f"))
        assert peak <= 1 << 20

    def test_summary_reads_the_designed_set_in_blocks(self, desk_synthesis, tmp_path):
        # the misfit reads the designed set a block at a time in the realization pass:
        # one designed stack (4 MiB) or one (I, M) temporary of the fidelity formula
        # exceeds its share; the summary itself then reads no mask at all
        inv, masks = desk_synthesis
        plain, _ = peak_traced_bytes(lambda: rs.realize_masks(inv, masks, 1.0))
        misfit = rs.RealizedMisfit(masks)
        peak, realized = peak_traced_bytes(lambda: rs.realize_masks(inv, masks, 1.0, [misfit.add]))
        assert peak <= plain + (1 << 20)
        summary = tmp_path / "s.txt"
        peak, _ = peak_traced_bytes(lambda: rs.write_synthesis_summary(summary, inv, realized, misfit.values))
        assert peak <= 1 << 18

    @pytest.mark.parametrize("z_prime", [0.5, 0.125])
    def test_realized_plane_set_never_holds_its_complex_stack(self, z_prime):
        # at desk scale and z' = 0.5 (sum r_s = 173 of M = 256) or 0.125 (all 256),
        # realizing a set with its fields and then reading its moments holds one
        # array of the staged coefficients, whose head then takes the magnitudes u,
        # and the staging's two column blocks: less than the complex (I, M) stack and
        # u (6 MiB) that a realized plane set once held
        scene = sc.validate_scene(desk_config(z_prime))
        grids = sc.sample_grids(scene)
        inv = rs.tikhonov_inverse(em.assemble_kernel(scene, grids), 1e-12)
        ideal = md.ideal_masks(scene, grids, 1024)
        target = ms.make_target_2d((np.arange(scene.n_target) % 3 == 0).astype(float), (16, 16))

        def realize_fields_and_moments():
            receiver = ms.ReceiverFields(scene, grids, ideal, target)
            realized = rs.realize_masks(inv, ideal, 1.0, [receiver.add])
            return realized, receiver.fields(), realized.moments

        peak, (realized, _, (u, _, _)) = peak_traced_bytes(realize_fields_and_moments)
        count, points = ideal.count, ideal.points
        magnitudes, stack = count * points * 8, count * points * 16
        coefficients = count * inv.retained_rank * 16
        # u is written over c, so the pass holds no more than staging c does
        # (test_designed_coefficients_hold_two_blocks_beside_their_output)
        assert peak <= coefficients + (5 << 19)
        assert u is realized.stored and not np.iscomplexobj(u)
        # the one array (1.5 MiB at z' = 0.125: R = 512 rows, h = 256 of them staged,
        # w = 128 complex entries of magnitudes a row), and beside it at most 1.75 MiB:
        # the folded factors, one block of the pass, and the staging's column blocks of
        # a sixteenth of the staged c, not 1 MiB blocks (3.78 MiB in all at z' = 0.125)
        half, width = rs._staged_rows(ideal), -(-points // 2)
        held = ((ideal.distinct_rows - half) * width + half * max(inv.retained_rank, width)) * 16
        assert peak <= held + (7 << 18) < stack + magnitudes

    def test_many_masks_need_no_coefficient_stack(self, desk_synthesis, desk_scene):
        # at I = 4,096 only R = 512 masks are distinct: a realized plane set stages
        # their coefficients (2 MiB at sum r_s = 256) in one array, writes their
        # magnitudes over them and transforms two column blocks; the coefficients
        # of all 4,096 masks (16 MiB) or a complex (I, M) stack (16 MiB) would
        # exceed that many times
        inv, _ = desk_synthesis
        masks = md.ideal_masks(*desk_scene, 4096)
        peak, realized = peak_traced_bytes(lambda: rs.realize_masks(inv, masks, 1.0))
        assert realized.stored.shape == (masks.distinct_rows, masks.points) == (512, 256)
        coefficients = masks.distinct_rows * inv.retained_rank * 16
        assert peak <= coefficients + (5 << 19) < masks.count * inv.retained_rank * 16
