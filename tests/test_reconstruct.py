"""Correlation reconstruction, NMSE, calibration, and their invariants."""

import dataclasses
import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risimage import em_core as em
from risimage import mask_design as md
from risimage import measurement as ms
from risimage import reconstruct as rc
from risimage import ris_synthesis as rs
from risimage import scene as sc
from risimage.errors import DimensionMismatch, EmptyMaskSet, KindMismatch, NonFiniteScore, ZeroTruth

from conftest import peak_traced_bytes, realize_with_values, small_config


def run_2d(scene, grids, masks, target, snr_db=None, seed=0):
    meas = ms.measure(ms.noiseless_fields(scene, grids, masks, target), masks.kind, [snr_db], [seed])
    psf = em.psf_vector(scene, grids.target_points)
    return meas, rc.reconstruct_2d(meas, masks, psf)


class TestEstimateC:
    def test_ideal_masks_give_quarter(self, small_scene):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128)
        np.testing.assert_array_equal(masks.moments[1], np.full(scene.n_target, 0.25))

    def test_constant_masks_flag_every_point(self):
        masks = md.MaskSet(kind=md.KIND_MASK2D, stored=np.full((16, 6), 0.75))
        _, c, power = masks.moments
        np.testing.assert_array_equal(c, 0.0)
        assert rc.zero_variance_flags(c, power).all()

    def test_scaling_masks_scales_c_quadratically(self, small_scene):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128)
        scaled = md.MaskSet(kind=md.KIND_MASK2D, stored=np.abs(3.0 * masks.vectors))
        np.testing.assert_allclose(scaled.moments[1], 9.0 * masks.moments[1], rtol=1e-12)


class TestMaskMoments:
    """A set computes its moments once, a block of rows at a time, with the bits of whole-array sums."""

    @staticmethod
    def whole_array_moments(u):
        square_mean = (u * u).mean(axis=0)
        c_values = square_mean - u.mean(axis=0) ** 2
        power = np.mean(np.abs(u) ** 2, axis=0) if np.iscomplexobj(u) else square_mean
        return c_values, power

    @pytest.mark.parametrize("rows", [None, 8, 3, 1], ids=["default", "8-rows", "3-rows", "row"])
    @pytest.mark.parametrize("kind", [md.KIND_MASK2D, md.KIND_MASK3D])
    def test_blocked_sums_keep_the_whole_array_bits(self, kind, rows, force_block_rows):
        if rows is None:  # one block of all 257 rows
            assert em.block_rows(37, 257 * 37) >= 257
        else:
            force_block_rows(rows, 37, 257 * 37)
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((257, 37)) + 1j * rng.standard_normal((257, 37))
        # a plane set keeps the magnitudes its reconstruction reads
        u = vectors if kind == md.KIND_MASK3D else np.abs(vectors)
        masks = md.MaskSet(kind=kind, stored=u)
        values, c_values, power = masks.moments
        expected_c, expected_power = self.whole_array_moments(u)
        assert values is u
        np.testing.assert_array_equal(c_values, expected_c)
        np.testing.assert_array_equal(power, expected_power)

    def test_realized_masks_keep_the_whole_array_bits(self, small_scene):
        # the realization pass keeps |realized| bit for bit, and the moments read it in place
        scene, grids = small_scene
        inv = rs.tikhonov_inverse(em.assemble_kernel(scene, grids), 1e-12)
        realized, values = realize_with_values(inv, md.ideal_masks(scene, grids, 1024), 1.0)
        u, c_values, power = realized.moments
        distinct = np.abs(values[: realized.distinct_rows])  # the 128 rows that 1,024 repeat
        np.testing.assert_array_equal(u, distinct)
        assert np.shares_memory(u, realized.stored)
        expected_c, expected_power = self.whole_array_moments(distinct)
        np.testing.assert_array_equal(c_values, expected_c)
        np.testing.assert_array_equal(power, expected_power)

    def test_computed_once_and_not_carried_by_a_copy(self):
        masks = md.MaskSet(kind=md.KIND_MASK2D, stored=np.arange(12.0).reshape(4, 3))
        first = masks.moments
        assert masks.moments is first
        scaled = dataclasses.replace(masks, stored=3.0 * masks.vectors)
        assert "moments" not in scaled.__dict__
        np.testing.assert_allclose(scaled.moments[1], 9.0 * first[1], rtol=1e-12)

    def test_sets_of_the_same_distinct_rows_compute_their_own(self, monkeypatch):
        computed = []

        def counted_moments(masks, _original=md.MaskSet.moments.func):
            computed.append(masks.count)
            return _original(masks)

        counted = functools.cached_property(counted_moments)
        counted.__set_name__(md.MaskSet, "moments")
        monkeypatch.setattr(md.MaskSet, "moments", counted)
        masks = md.MaskSet(kind=md.KIND_MASK2D, stored=np.arange(12.0).reshape(4, 3), repeats=4)
        sets = [masks.first(8), masks.first(4), masks.first(16), masks]
        for each in sets:  # computed on first read and kept by each set alone
            assert each.moments is each.moments
        assert computed == [8, 4, 16, 16]
        for each in sets[:-1]:  # the parent's distinct rows, so the parent's bits
            for value, parent in zip(each.moments, masks.moments):
                np.testing.assert_array_equal(value, parent)
        alone = md.MaskSet(kind=md.KIND_MASK2D, stored=masks.stored[:2])
        np.testing.assert_array_equal(masks.first(2).moments[1], alone.moments[1])
        designed = md.MaskSet(kind=md.KIND_MASK2D, design=(64, 3), phase=np.zeros(3))
        halves = designed.first(32)
        assert halves.moments is not designed.moments and computed[-2:] == [32, 64]
        for value, parent in zip(halves.moments, designed.moments):
            np.testing.assert_array_equal(value, parent)
        assert "moments" not in dataclasses.replace(sets[0], repeats=2).__dict__

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyMaskSet):
            md.MaskSet(kind=md.KIND_MASK2D, stored=np.zeros((0, 4), dtype=complex)).moments

    def test_complex_plane_values_are_not_read_as_magnitudes(self):
        masks = md.MaskSet(kind=md.KIND_MASK2D, stored=np.full((4, 3), 0.6 + 0.8j))
        with pytest.raises(KindMismatch, match="magnitudes"):
            masks.moments

    def test_plane_reconstruct_holds_only_the_magnitudes(self, desk_scene):
        # a realized plane set already is its magnitudes u (2 MiB at I = 1,024, M = 256):
        # the first reconstruct reads them in place and sums their squares in blocks,
        # and later ones reuse the moments
        scene, grids = desk_scene
        inv = rs.tikhonov_inverse(em.assemble_kernel(scene, grids), 1e-12)
        ideal = md.ideal_masks(scene, grids, 1024)
        values = np.zeros(scene.n_target)
        values[::3] = 1.0
        target = ms.make_target_2d(values, (16, 16))
        receiver = ms.ReceiverFields(scene, grids, ideal, target)
        realized = rs.realize_masks(inv, ideal, 1.0, [receiver.add])
        meas = ms.measure(receiver.fields(), realized.kind, [20.0], [0])
        psf = em.psf_vector(scene, grids.target_points)
        magnitudes = realized.count * realized.points * 8
        peak, first = peak_traced_bytes(lambda: rc.reconstruct_2d(meas, realized, psf))
        assert peak <= 3 << 19 < magnitudes
        peak, again = peak_traced_bytes(lambda: rc.reconstruct_2d(meas, realized, psf))
        assert peak <= 1 << 18
        np.testing.assert_array_equal(again.estimate, first.estimate)


class TestReconstruct2d:
    def test_single_pixel_recovery_exact(self):
        # ideal masks + exact phases + no noise: the estimate is the indicator
        # scaled by the pixel area and the known |1 - reflection| factor
        scene = sc.validate_scene(small_config(n_target=4))
        grids = sc.sample_grids(scene)
        masks = md.ideal_masks(scene, grids, 32, phase_mode=md.PHASE_EXACT)
        values = np.zeros(scene.n_target)
        values[9] = 1.0
        target = ms.make_target_2d(values, (4, 4))
        _, result = run_2d(scene, grids, masks, target)
        scale = grids.target_cell_measure * abs(1.0 - scene.config.reflection_coeff)
        np.testing.assert_allclose(result.estimate[0] / scale, values, atol=1e-10)

    def test_equal_measurements_give_zero_grid(self, small_scene):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128)
        meas = ms.Measurements(np.full(128, 1 + 0j), np.full((1, 128), 2.5), (0.0,), (0,))
        psf = em.psf_vector(scene, grids.target_points)
        result = rc.reconstruct_2d(meas, masks, psf)
        np.testing.assert_array_equal(result.estimate, 0.0)

    def test_affine_in_measurement_scale(self, small_scene):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128, phase_mode=md.PHASE_EXACT)
        values = (np.arange(scene.n_target) % 3 == 0).astype(float)
        target = ms.make_target_2d(values, (8, 8))
        meas, base = run_2d(scene, grids, masks, target)
        scaled_meas = dataclasses.replace(meas, noisy=4.0 * meas.noisy)
        psf = em.psf_vector(scene, grids.target_points)
        scaled = rc.reconstruct_2d(scaled_meas, masks, psf)
        np.testing.assert_allclose(scaled.estimate, 4.0 * base.estimate, rtol=1e-12)

    def test_mean_shift_invariance(self, small_scene):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128, phase_mode=md.PHASE_EXACT)
        values = (np.arange(scene.n_target) % 5 == 1).astype(float)
        target = ms.make_target_2d(values, (8, 8))
        meas, base = run_2d(scene, grids, masks, target)
        shifted_meas = dataclasses.replace(meas, noisy=meas.noisy + 11.0)
        psf = em.psf_vector(scene, grids.target_points)
        shifted = rc.reconstruct_2d(shifted_meas, masks, psf)
        np.testing.assert_allclose(shifted.estimate, base.estimate, atol=1e-12 * np.abs(base.estimate).max())

    def test_mask_rescaling_invariance(self, small_scene):
        # scaling all realized masks (and hence the measured fields) by a
        # positive factor cancels between the numerator and the variance
        scene, grids = small_scene
        kernel = em.assemble_kernel(scene, grids)
        from risimage import ris_synthesis as rs

        inv = rs.tikhonov_inverse(kernel, 1e-12)
        masks, realized = realize_with_values(inv, md.ideal_masks(scene, grids, 128), 1.0)
        # a plane set is measured from its complex masks and reconstructed from their magnitudes
        measured = md.MaskSet(kind=masks.kind, stored=realized)
        scaled = md.MaskSet(kind=masks.kind, stored=3.7 * realized)
        scaled_magnitudes = md.MaskSet(kind=masks.kind, stored=np.abs(scaled.vectors))
        values = (np.arange(scene.n_target) % 4 == 2).astype(float)
        target = ms.make_target_2d(values, (8, 8))
        psf = em.psf_vector(scene, grids.target_points)
        # relative to the estimate's peak, as criterion 9: a per-pixel rtol
        # fails on near-zero pixels for some seeds
        for seed in range(40):
            rec_a = ms.measure(ms.noiseless_fields(scene, grids, measured, target), masks.kind, [20.0], [seed])
            rec_b = ms.measure(ms.noiseless_fields(scene, grids, scaled, target), scaled.kind, [20.0], [seed])
            est_a = rc.reconstruct_2d(rec_a, masks, psf).estimate
            est_b = rc.reconstruct_2d(rec_b, scaled_magnitudes, psf).estimate
            np.testing.assert_allclose(est_b, est_a, rtol=0, atol=1e-12 * np.abs(est_a).max())

    def test_complex_records_rejected(self, small_scene):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128)
        fields = np.full(128, 1 + 1j)
        meas = ms.Measurements(fields, fields[None], (0.0,), (0,))
        with pytest.raises(KindMismatch):
            rc.reconstruct_2d(meas, masks, em.psf_vector(scene, grids.target_points))

    def test_record_count_mismatch(self, small_scene):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128)
        psf = em.psf_vector(scene, grids.target_points)
        with pytest.raises(DimensionMismatch):
            rc.reconstruct_2d(
                ms.Measurements(np.zeros(0, complex), np.zeros((1, 0)), (0.0,), (0,)),
                masks,
                psf,
            )


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_arbitrary_binary_targets_recovered_exactly(data):
    # brute-force oracle equivalence on small grids: ideal masks, exact
    # phases, no noise, max1 calibration reproduces any nonzero binary target
    n = data.draw(st.sampled_from([2, 4, 8]))
    scene = sc.validate_scene(small_config(n_target=n, n_ris=8))
    grids = sc.sample_grids(scene)
    count = max(4, 2 ** (2 * n.bit_length() - 1))
    while count < n * n + 1:
        count *= 2
    masks = md.ideal_masks(scene, grids, count, phase_mode=md.PHASE_EXACT)
    bits = data.draw(
        st.lists(st.booleans(), min_size=n * n, max_size=n * n).filter(lambda b: any(b))
    )
    values = np.array(bits, dtype=float)
    target = ms.make_target_2d(values, (n, n))
    meas = ms.measure(ms.noiseless_fields(scene, grids, masks, target), masks.kind, [None], [0])
    psf = em.psf_vector(scene, grids.target_points)
    result = rc.reconstruct_2d(meas, masks, psf)
    calibrated = rc.calibrate_estimate(result.estimate[0], rc.CALIBRATE_MAX1)
    assert rc.nmse(values, calibrated) < 1e-6


class TestReconstruct3d:
    def test_single_voxel_scaled_indicator(self, volume_scene):
        scene, grids = volume_scene
        masks = md.ideal_masks(scene, grids, 16)
        chi = np.zeros(scene.n_target, dtype=complex)
        chi[5] = 1.0
        target = ms.make_target_3d(chi, (2, 2, 2))
        meas = ms.measure(ms.noiseless_fields(scene, grids, masks, target), masks.kind, [None], [0])
        result = rc.reconstruct_3d(scene, meas, masks)
        np.testing.assert_allclose(
            result.estimate[0] / grids.target_cell_measure, chi, atol=1e-10
        )

    def test_zero_contrast_recovers_zero(self, volume_scene):
        scene, grids = volume_scene
        masks = md.ideal_masks(scene, grids, 16)
        target = ms.make_target_3d(np.zeros(scene.n_target, dtype=complex), (2, 2, 2))
        meas = ms.measure(ms.noiseless_fields(scene, grids, masks, target), masks.kind, [None], [0])
        result = rc.reconstruct_3d(scene, meas, masks)
        np.testing.assert_allclose(result.estimate, 0.0, atol=1e-20)

    def test_distorted_masks_self_compensate_at_the_occupied_voxel(self, volume_scene):
        # the plain-product variance exactly cancels any linear realization
        # distortion at the voxel itself; only cross-voxel leakage remains
        scene, grids = volume_scene
        masks = md.ideal_masks(scene, grids, 16)
        rng = np.random.default_rng(9)
        mixing = np.eye(scene.n_target) + 0.3 * (
            rng.standard_normal((scene.n_target, scene.n_target))
            + 1j * rng.standard_normal((scene.n_target, scene.n_target))
        )
        distorted = md.MaskSet(kind=masks.kind, stored=masks.vectors @ mixing.T)
        voxel = 5
        chi = np.zeros(scene.n_target, dtype=complex)
        chi[voxel] = 1.3 - 0.4j
        target = ms.make_target_3d(chi, (2, 2, 2))
        meas = ms.measure(ms.noiseless_fields(scene, grids, distorted, target), distorted.kind, [None], [0])
        result = rc.reconstruct_3d(scene, meas, distorted)
        recovered = result.estimate[0] / grids.target_cell_measure
        assert recovered[voxel] == pytest.approx(chi[voxel], rel=1e-10)

    def test_field_offset_invariance(self, volume_scene):
        scene, grids = volume_scene
        masks = md.ideal_masks(scene, grids, 16)
        chi = np.zeros(scene.n_target, dtype=complex)
        chi[[1, 6]] = [0.8, 0.3 - 0.2j]
        target = ms.make_target_3d(chi, (2, 2, 2))
        meas = ms.measure(ms.noiseless_fields(scene, grids, masks, target), masks.kind, [None], [0])
        shifted = dataclasses.replace(meas, noisy=meas.noisy + (2.0 - 1.0j))
        base = rc.reconstruct_3d(scene, meas, masks)
        moved = rc.reconstruct_3d(scene, shifted, masks)
        np.testing.assert_allclose(moved.estimate, base.estimate, atol=1e-12 * np.abs(base.estimate).max())

    def test_real_records_rejected(self, volume_scene):
        scene, grids = volume_scene
        masks = md.ideal_masks(scene, grids, 16)
        meas = ms.Measurements(np.ones(16, complex), np.ones((1, 16)), (0.0,), (0,))
        with pytest.raises(KindMismatch):
            rc.reconstruct_3d(scene, meas, masks)

    def test_masks_of_another_voxel_count_rejected(self, volume_scene):
        scene, grids = volume_scene
        masks = md.ideal_masks(scene, grids, 16)
        target = ms.make_target_3d(np.ones(scene.n_target, dtype=complex), (2, 2, 2))
        meas = ms.measure(ms.noiseless_fields(scene, grids, masks, target), masks.kind, [None], [0])
        wider = md.MaskSet(kind=masks.kind, stored=np.ones((16, 2 * scene.n_target), dtype=complex))
        with pytest.raises(DimensionMismatch):
            rc.reconstruct_3d(scene, meas, wider)


class TestFoldedCorrelation:
    """A set that repeats its rows correlates over one period of them, after
    folding the measurements onto it, as the whole tiled set would."""

    @pytest.mark.parametrize("kind", [md.KIND_MASK2D, md.KIND_MASK3D])
    @pytest.mark.parametrize("repeats", [1, 2, 8])
    def test_matches_the_tiled_set(self, kind, repeats):
        rng = np.random.default_rng(repeats)
        rows = rng.uniform(0.1, 1.0, (32, 12))
        if kind == md.KIND_MASK3D:
            rows = rows * np.exp(1j * rng.uniform(0, 1, rows.shape))
        periodic = md.MaskSet(kind=kind, stored=rows, repeats=repeats)
        tiled = md.MaskSet(kind=kind, stored=np.tile(rows, (repeats, 1)))
        noisy = rng.standard_normal(32 * repeats) + 5.0
        if kind == md.KIND_MASK3D:
            noisy = noisy + 1j * rng.standard_normal(32 * repeats)
        values = (periodic.moments[0], tiled.moments[0])
        assert values[0] is rows and len(values[1]) == 32 * repeats
        scale = np.linspace(1.0, 2.0, 12)
        folded, whole = (rc._correlate(noisy, masks, kind, scale) for masks in (periodic, tiled))
        np.testing.assert_allclose(folded.estimate, whole.estimate, rtol=1e-12, atol=0)
        np.testing.assert_allclose(folded.c_values, whole.c_values, rtol=1e-13)
        assert np.array_equal(folded.flagged, whole.flagged)

    def test_count_must_match_every_row(self):
        periodic = md.MaskSet(kind=md.KIND_MASK2D, stored=np.ones((4, 3)), repeats=2)
        with pytest.raises(DimensionMismatch, match="4 measurements for 8 masks"):
            rc._correlate(np.ones(4), periodic, md.KIND_MASK2D, 1.0)


class TestStackedCorrelation:
    """A (P, I) stack of measurement sets estimates each row with the bits of that set alone."""

    @pytest.mark.parametrize("kind", [md.KIND_MASK2D, md.KIND_MASK3D])
    @pytest.mark.parametrize("repeats", [1, 2, 8])
    def test_rows_keep_the_bits_of_sets_alone(self, kind, repeats):
        rng = np.random.default_rng(repeats)
        rows = rng.uniform(0.1, 1.0, (32, 12))
        noisy = rng.standard_normal((5, 32 * repeats)) + 5.0
        if kind == md.KIND_MASK3D:
            rows = rows * np.exp(1j * rng.uniform(0, 1, rows.shape))
            noisy = noisy + 1j * rng.standard_normal(noisy.shape)
        rows[:, 3] = 0.5  # a flagged point
        masks = md.MaskSet(kind=kind, stored=rows, repeats=repeats)
        scale = np.linspace(1.0, 2.0, 12)
        stacked = rc._correlate(noisy, masks, kind, scale)
        assert stacked.estimate.shape == (5, 12) and stacked.flagged.tolist() == [False] * 3 + [True] + [False] * 8
        for row, values in zip(stacked.estimate, noisy):
            alone = rc._correlate(values, masks, kind, scale)
            assert alone.estimate.tobytes() == row.tobytes()
            assert np.array_equal(alone.flagged, stacked.flagged)

    def test_a_stack_of_measurements_reconstructs_per_set(self, small_scene):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128)
        target = ms.make_target_2d(np.eye(8).reshape(-1), (8, 8))
        fields = ms.noiseless_fields(scene, grids, masks, target)
        sets = [ms.measure(fields, masks.kind, [snr_db], [seed]) for seed, snr_db in enumerate((None, 0.0, 20.0))]
        psf = em.psf_vector(scene, grids.target_points)
        stack = ms.measure(fields, masks.kind, [None, 0.0, 20.0], [0, 1, 2])
        assert stack.noisy.shape == (3, 128) and len(stack) == 128 and stack.seed == (0, 1, 2)
        stacked = rc.reconstruct_2d(stack, masks, psf).estimate
        for row, meas in zip(stacked, sets):
            assert row.tobytes() == rc.reconstruct_2d(meas, masks, psf).estimate[0].tobytes()

    def test_count_must_match_every_set(self):
        masks = md.MaskSet(kind=md.KIND_MASK2D, stored=np.ones((4, 3)), repeats=2)
        with pytest.raises(DimensionMismatch, match="4 measurements for 8 masks"):
            rc._correlate(np.ones((3, 4)), masks, md.KIND_MASK2D, 1.0)


class TestNmse:
    def test_perfect_estimate(self):
        t = np.array([1.0, 0.0, 2.0])
        assert rc.nmse(t, t) == 0.0

    def test_zero_estimate(self):
        t = np.array([1.0, 0.0, 2.0])
        assert rc.nmse(t, np.zeros(3)) == 1.0

    def test_doubled_estimate(self):
        t = np.array([1.0, 0.0, 2.0])
        assert rc.nmse(t, 2.0 * t) == pytest.approx(1.0)

    def test_complex_aware(self):
        # conjugation flips the imaginary part: ||2j||^2 / ||1+j||^2 = 2
        t = np.array([1.0 + 1.0j, 0.0])
        assert rc.nmse(t, np.conj(t)) == pytest.approx(2.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(ZeroTruth):
            rc.nmse(np.zeros(3), np.ones(3))

    def test_diagnostic_mode_excludes_flagged_points(self):
        # flagged points are not left out: each one scores as a zero estimate
        truth = np.array([1.0, 1.0, 1.0])
        estimate = np.array([1.0, 0.0, 1.0])  # middle point unreconstructable
        assert rc.nmse(truth, estimate) == pytest.approx(1.0 / 3.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            rc.nmse(np.ones(3), np.ones(4))

    @pytest.mark.parametrize("scale", [2e153, 1e160, np.inf], ids=["sum-overflows", "square-overflows", "inf"])
    def test_non_finite_nmse_is_a_typed_error(self, scale):
        estimate = scale * np.linspace(1.0, 2.0, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteScore):
                rc.nmse(np.ones(64), estimate)

    def test_largest_finite_nmse_keeps_its_formula(self):
        truth, estimate = np.ones(64), 1e152 * np.linspace(1.0, 2.0, 64)
        assert rc.nmse(truth, estimate) == float(np.sum(np.abs(truth - estimate) ** 2) / 64.0)


class TestStackedScoring:
    """A (P, M) stack of estimates is calibrated and scored row by row, each row
    with the bits of that row alone."""

    @pytest.mark.parametrize("mode", [rc.CALIBRATE_NONE, rc.CALIBRATE_MAX1, rc.CALIBRATE_LSQ])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_each_row_scores_as_it_would_alone(self, mode, kind):
        rng = np.random.default_rng(12)
        shape = (5, 1000)  # long enough for numpy's pairwise sums to split
        stack = rng.standard_normal(shape)
        truth = (rng.random(1000) < 0.3).astype(float)
        if kind == "complex":
            stack = stack + 1j * rng.standard_normal(shape)
            truth = truth * (1.0 - 0.5j)
        stack[1] = 0.0  # no peak and no power: left as it is
        stack[2] = -np.abs(stack[2])  # a real row's peak is not positive
        calibrated = rc.calibrate_estimate(stack, mode, truth)
        errors = rc.nmse(truth, calibrated)
        assert calibrated.shape == shape and errors.shape == (5,)
        for row, scaled, error in zip(stack, calibrated, errors):
            alone = rc.calibrate_estimate(row, mode, truth)
            assert scaled.tobytes() == alone.tobytes()
            assert error == rc.nmse(truth, alone)

    def test_a_row_that_overflows_is_left_to_its_point(self):
        truth = np.ones(64)
        stack = np.vstack([np.linspace(1.0, 2.0, 64), 1e160 * np.linspace(1.0, 2.0, 64)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors = rc.nmse(truth, stack)
        assert errors[0] == rc.nmse(truth, stack[0]) and errors[1] == np.inf
        with pytest.raises(NonFiniteScore):
            rc.finite_score(float(errors[1]))
        with pytest.raises(NonFiniteScore, match="truth power"):
            rc.nmse(np.full(4, 1e160), np.ones((2, 4)))


class TestCalibrate:
    def test_none_is_identity(self):
        grid = np.array([0.2, -0.1, 0.9])
        np.testing.assert_array_equal(rc.calibrate_estimate(grid, rc.CALIBRATE_NONE), grid)

    def test_max1_peaks_at_one(self):
        grid = np.array([0.2, 0.1, 0.5])
        assert rc.calibrate_estimate(grid, rc.CALIBRATE_MAX1).max() == 1.0

    def test_max1_on_zero_grid(self):
        grid = np.zeros(4)
        np.testing.assert_array_equal(rc.calibrate_estimate(grid, rc.CALIBRATE_MAX1), grid)

    def test_lsq_recovers_exact_scale(self):
        rng = np.random.default_rng(8)
        estimate = rng.standard_normal(12)
        truth = 2.75 * estimate
        np.testing.assert_allclose(
            rc.calibrate_estimate(estimate, rc.CALIBRATE_LSQ, truth), truth, rtol=1e-12
        )

    def test_lsq_requires_truth(self):
        with pytest.raises(ValueError):
            rc.calibrate_estimate(np.ones(3), rc.CALIBRATE_LSQ)

    def test_lsq_truth_of_another_size_rejected(self):
        with pytest.raises(DimensionMismatch):
            rc.calibrate_estimate(np.ones(8), rc.CALIBRATE_LSQ, np.ones(16))
