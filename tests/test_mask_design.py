"""Hadamard amplitude patterns, phase profiles, and mask covariance."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risimage import em_core as em
from risimage import mask_design as md
from risimage import scene as sc
from risimage.errors import (
    EmptyMaskSet,
    InsufficientMeasurements,
    KindMismatch,
    MaskSetSizeError,
    UnsupportedOrder,
)

from conftest import peak_traced_bytes, small_config


class TestHadamard:
    def test_sylvester_base(self):
        np.testing.assert_array_equal(md.hadamard(2), [[1, 1], [1, -1]])

    @pytest.mark.parametrize("order", [2, 4, 8, 64])
    def test_defining_property(self, order):
        h = md.hadamard(order).astype(np.int64)
        np.testing.assert_array_equal(h.T @ h, order * np.eye(order, dtype=np.int64))

    @pytest.mark.parametrize("order", [4, 16, 256])
    def test_first_column_all_ones(self, order):
        assert np.all(md.hadamard(order)[:, 0] == 1)

    @pytest.mark.parametrize("order", [0, 1, 3, 12, 20, -8])
    def test_unsupported_orders(self, order):
        with pytest.raises(UnsupportedOrder):
            md.hadamard(order)


class TestHadamardTransform:
    """The Kronecker-factored transform against the dense Sylvester matrix."""

    @pytest.mark.parametrize("order", [2] + [4 << k for k in range(11)])
    def test_matches_dense_product(self, order):
        # integer-valued input keeps every sum exact, so both must agree bit for bit
        rng = np.random.default_rng(order)
        z = rng.integers(-9, 10, (order, 3)) + 1j * rng.integers(-9, 10, (order, 3))
        h = md.hadamard(order)
        dense = np.concatenate([h[rows : rows + 256].astype(np.float64) @ z for rows in range(0, order, 256)])
        np.testing.assert_array_equal(md.hadamard_transform(z), dense)
        np.testing.assert_array_equal(md.hadamard_transform(z.real), dense.real)
        np.testing.assert_array_equal(md.hadamard_transform(z[:, 1]), dense[:, 1])

    def test_column_block_read_in_place(self):
        rng = np.random.default_rng(1)
        wide = rng.standard_normal((64, 9)) + 1j * rng.standard_normal((64, 9))
        block = wide[:, 2:6]
        np.testing.assert_allclose(
            md.hadamard_transform(block), md.hadamard(64) @ block, rtol=0, atol=1e-12 * np.abs(block).sum()
        )
        np.testing.assert_array_equal(
            md.hadamard_transform(np.asfortranarray(block)), md.hadamard_transform(block)
        )

    def test_strided_input_is_copied_only_for_the_first_product(self):
        # a (1024, 64) complex block is 1 MiB: the two products need two such arrays, not three
        rng = np.random.default_rng(2)
        wide = rng.standard_normal((1024, 256)) + 1j * rng.standard_normal((1024, 256))
        peak, result = peak_traced_bytes(lambda: md.hadamard_transform(wide[:, ::4]))
        assert peak <= 2 * result.nbytes + (1 << 18)

    @pytest.mark.parametrize("order", [1, 12])
    def test_unsupported_orders(self, order):
        with pytest.raises(UnsupportedOrder):
            md.hadamard_transform(np.ones((order, 2)))


class TestDesignAmplitudes:
    @pytest.mark.parametrize("count,points", [(8, 4), (8, 8), (2048, 1024), (256, 256)])
    def test_matches_the_column_formula(self, count, points):
        # point m takes column (m + 1) mod I, the last one wrapping when I = M
        h = md.hadamard(count).astype(np.float64)
        columns = [(m + 1) % count for m in range(points)]
        amplitudes = md.design_amplitudes(count, points)
        np.testing.assert_array_equal(amplitudes, (1.0 + h[:, columns]) / 2.0)
        assert amplitudes.flags.c_contiguous  # BLAS sums in an order that depends on the layout
        np.testing.assert_array_equal(np.arange(count)[md.hadamard_columns(count, points)], columns)

    def test_rows_need_no_numpy_2_call(self, monkeypatch):
        # the package supports numpy 1.x, which has no ``bitwise_count``
        whole = md.design_amplitudes(2048, 1024)
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        rows = md.design_amplitudes(2048, 1024, slice(100, 900))
        np.testing.assert_array_equal(rows, whole[100:900])
        assert rows.flags.c_contiguous and rows.dtype == np.float64

    def test_values_are_binary(self):
        q = md.design_amplitudes(16, 9)
        assert set(np.unique(q)) == {0.0, 1.0}

    def test_columns_two_to_m_plus_one(self):
        # I=8, M=4 consumes Hadamard columns 2..5
        q = md.design_amplitudes(8, 4)
        h = md.hadamard(8).astype(float)
        np.testing.assert_array_equal(q, (1.0 + h[:, 1:5]) / 2.0)

    @pytest.mark.parametrize("count,points", [(8, 7), (64, 63), (64, 17)])
    def test_covariance_is_quarter_delta_exactly(self, count, points):
        q = md.design_amplitudes(count, points)
        cov = (q.T @ q) / count - np.outer(q.mean(axis=0), q.mean(axis=0))
        np.testing.assert_array_equal(cov, np.eye(points) / 4.0)

    def test_column_means_are_half(self):
        q = md.design_amplitudes(32, 20)
        np.testing.assert_array_equal(q.mean(axis=0), np.full(20, 0.5))

    def test_orthogonality_in_integer_arithmetic(self):
        q = md.design_amplitudes(64, 63)
        signed = (2.0 * q - 1.0).astype(np.int64)
        np.testing.assert_array_equal(signed.T @ signed, 64 * np.eye(63, dtype=np.int64))
        np.testing.assert_array_equal(signed.sum(axis=0), np.zeros(63, dtype=np.int64))

    def test_equal_count_wraps_last_point_onto_ones_column(self):
        q = md.design_amplitudes(8, 8)
        assert np.all(q[:, -1] == 1.0)  # rides the all-ones column: flagged downstream
        cov = (q.T @ q) / 8 - np.outer(q.mean(axis=0), q.mean(axis=0))
        np.testing.assert_array_equal(np.diag(cov)[:-1], np.full(7, 0.25))
        assert cov[-1, -1] == 0.0

    def test_too_few_measurements(self):
        with pytest.raises(InsufficientMeasurements):
            md.design_amplitudes(8, 9)

    def test_non_power_of_two_count(self):
        with pytest.raises(UnsupportedOrder):
            md.design_amplitudes(12, 4)

    def test_mask_count_above_the_entry_cap(self):
        md.check_measurement_count(em.ENTRY_CAP // 64, 64)  # exactly at the cap
        for count, points in ((em.ENTRY_CAP // 32, 64), (2**40, 16), (2**30, 64)):
            with pytest.raises(MaskSetSizeError, match="above the cap"):
                md.check_measurement_count(count, points)


class TestDistinctRows:
    """A design of I masks over M points has min(I, J) distinct rows, J the
    smallest power of two above M: its rows are a prefix or a period of them."""

    @pytest.mark.parametrize("points", [64, 200, 255, 256, 1024])
    def test_rows_are_a_prefix_or_a_period_of_one_sequence(self, points):
        period = 1 << points.bit_length()
        sequence = md.design_amplitudes(period, points)
        count = max(4, 1 << (points - 1).bit_length())  # the smallest usable count
        while count <= 8 * period:
            distinct = md.distinct_row_count(count, points)
            assert distinct == min(count, period)
            for start in range(0, count, period):  # one period at a time, never the whole design
                rows = md.design_amplitudes(count, points, slice(start, start + period))
                assert np.array_equal(rows, sequence[: len(rows)])
            count *= 2

    def test_a_stored_set_repeats_its_rows(self):
        rows = np.arange(12.0).reshape(4, 3) + 1j
        masks = md.MaskSet(kind=md.KIND_MASK3D, stored=rows, repeats=3)
        assert (masks.count, masks.points, masks.distinct_rows) == (12, 3, 4)
        whole = np.tile(rows, (3, 1))
        assert np.array_equal(masks.vectors, whole) and not masks.vectors.flags.writeable
        assert np.array_equal(masks.block(slice(3, 9)), whole[3:9])
        assert [(r, b.tolist()) for r, b in masks.row_blocks()] == [(slice(0, 4), rows.tolist())]
        assert masks.moments[0] is rows  # the moments read the stored rows in place
        np.testing.assert_allclose(masks.moments[1], md.MaskSet(kind=masks.kind, stored=whole).moments[1], rtol=1e-15)

    def test_first_masks_are_a_prefix_or_the_period(self):
        rows = np.arange(12.0).reshape(4, 3)
        masks = md.MaskSet(kind=md.KIND_MASK2D, stored=rows, solution_norms=np.arange(8.0), repeats=2)
        prefix, repeated = masks.first(2), masks.first(8)
        assert np.shares_memory(prefix.stored, rows) and prefix.count == 2 and prefix.repeats == 1
        assert prefix.solution_norms.tolist() == [0.0, 1.0]
        assert repeated.stored is rows and repeated.count == 8 and repeated.solution_norms.tolist() == list(range(8))
        designed = md.MaskSet(kind=md.KIND_MASK3D, design=(1024, 8)).first(64)
        assert designed.design == (64, 8) and designed.distinct_rows == 16

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_a_set_repeats_its_rows_a_whole_number_of_times(self, repeats):
        with pytest.raises(ValueError, match="repeats"):
            md.MaskSet(kind=md.KIND_MASK2D, stored=np.ones((4, 3)), repeats=repeats)
        with pytest.raises(ValueError, match="repeats"):
            md.MaskSet(kind=md.KIND_MASK2D, design=(8, 3), repeats=2)

    def test_designed_export_forms_its_distinct_rows_once(self, tmp_path, monkeypatch):
        masks = md.MaskSet(kind=md.KIND_MASK3D, design=(1024, 8))
        formed = []
        form = md.MaskSet._designed

        def recording(masks, rows=slice(None)):
            stack = form(masks, rows)
            formed.append(len(stack))
            return stack

        monkeypatch.setattr(md.MaskSet, "_designed", recording)
        md.save_mask_vectors(tmp_path / "m.bin", masks, "f")
        assert formed == [16]
        kind, vectors, _ = md.load_mask_vectors(tmp_path / "m.bin")
        assert vectors.shape == (1024, 8) and vectors.tobytes() == form(masks).tobytes()


class TestDesignPhases2d:
    def test_centre_value(self):
        # odd grid puts a sample exactly at the expansion point (0, 0, z')
        scene = sc.validate_scene(small_config(n_target=5))
        grids = sc.sample_grids(scene)
        phases = md.design_phases_2d(scene, grids)
        receiver = np.asarray(scene.config.receiver_pos)
        r0 = np.linalg.norm(receiver - [0.0, 0.0, scene.config.target_distance])
        centre = 5 * 2 + 2
        assert grids.target_points[centre, 0] == 0.0 and grids.target_points[centre, 1] == 0.0
        assert phases[centre] == pytest.approx(math.pi / 2.0 + scene.wavenumber * r0)

    def test_affine_in_target_coordinates(self, small_scene):
        scene, grids = small_scene
        nx = scene.config.n_target_x
        grid = md.design_phases_2d(scene, grids).reshape(-1, nx)
        # second differences vanish along both axes
        np.testing.assert_allclose(np.diff(grid, n=2, axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(np.diff(grid, n=2, axis=1), 0.0, atol=1e-9)

    def test_exact_mode_cancels_psf_phase_per_point(self, small_scene):
        scene, grids = small_scene
        phases = md.design_phases_2d(scene, grids, mode=md.PHASE_EXACT)
        psf = em.psf_vector(scene, grids.target_points)
        residual = np.angle(psf * np.exp(1j * phases))
        np.testing.assert_allclose(residual, 0.0, atol=1e-9)

    def test_taylor_drift_bounded_by_quadratic_term(self, small_scene):
        scene, grids = small_scene
        cfg = scene.config
        taylor = md.design_phases_2d(scene, grids, mode=md.PHASE_TAYLOR)
        exact = md.design_phases_2d(scene, grids, mode=md.PHASE_EXACT)
        receiver = np.asarray(cfg.receiver_pos)
        r0 = np.linalg.norm(receiver - [0.0, 0.0, cfg.target_distance])
        bound = scene.wavenumber * (cfg.target_len_x**2 + cfg.target_len_y**2) / (2.0 * r0)
        drift = np.abs(taylor - exact)
        assert drift.max() < bound
        assert drift.min() < drift.max()  # drifts grow away from the expansion point

    def test_independent_of_measurement_count(self, small_scene):
        scene, grids = small_scene
        masks_64 = md.ideal_masks(scene, grids, 128)
        masks_256 = md.ideal_masks(scene, grids, 256)
        np.testing.assert_array_equal(masks_64.phase, masks_256.phase)

    def test_rejected_for_volumes(self, volume_scene):
        scene, grids = volume_scene
        with pytest.raises(KindMismatch):
            md.design_phases_2d(scene, grids)


class TestIdealMasks:
    def test_plane_amplitudes_match_patterns(self, small_scene):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128)
        q = md.design_amplitudes(128, scene.n_target)
        np.testing.assert_allclose(np.abs(masks.vectors), q, atol=1e-15)

    def test_volume_masks_are_binary_real(self, volume_scene):
        scene, grids = volume_scene
        masks = md.ideal_masks(scene, grids, 16)
        assert masks.kind == md.KIND_MASK3D
        assert masks.phase is None and masks.stored is None  # formed on read
        assert masks.design == (16, scene.n_target)
        np.testing.assert_array_equal(masks.vectors.imag, 0.0)
        assert set(np.unique(masks.vectors.real)) == {0.0, 1.0}

    def test_deterministic(self, small_scene):
        scene, grids = small_scene
        a = md.ideal_masks(scene, grids, 128)
        b = md.ideal_masks(scene, grids, 128)
        assert a.vectors.tobytes() == b.vectors.tobytes()


class TestProject:
    """``project`` forms vectors @ [F_1 ... F_k] for every kind of set."""

    @staticmethod
    def factors(points, ranks, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal((points, r)) + 1j * rng.standard_normal((points, r)) for r in ranks]

    @staticmethod
    def projected(masks, count, factors, extra=3):
        # the trailing columns past sum r_k must come back untouched, and so must
        # the rows from R/2 on of a set whose rows pair, whose row i + R/2 is row i - v
        width = sum(f.shape[1] for f in factors)
        out = np.full((count, width + extra), 7.0 + 7.0j)
        partner = md.project(masks, factors, out)
        np.testing.assert_array_equal(out[:, width:], 7.0 + 7.0j)
        if partner is not None:
            half = masks.distinct_rows // 2
            np.testing.assert_array_equal(out[half:], 7.0 + 7.0j)
            out[half:, :width] = out[:half, :width] - partner
        return out[:, :width]

    @pytest.mark.parametrize(
        "fixture, count",
        [("small_scene", 128), ("small_scene", 64), ("volume_scene", 16), ("volume_scene", 8)],
        ids=["plane", "plane-wrap", "volume", "volume-wrap"],
    )
    @pytest.mark.parametrize("chunk", [1 << 16, 64])
    def test_matches_the_formed_stack(self, fixture, count, chunk, request, monkeypatch):
        # with I = M the last point wraps onto the all-ones column 0; the
        # small chunk splits both the row and the column blocks
        monkeypatch.setattr(md, "_CHUNK_ENTRIES", chunk)
        scene, grids = request.getfixturevalue(fixture)
        masks = md.ideal_masks(scene, grids, count)
        assert (masks.phase is None) == scene.is_3d
        factors = self.factors(masks.points, [5, 0, 3, 9])
        expected = masks.vectors @ np.concatenate(factors, axis=1)
        stored = masks.vectors.copy()
        for source in (masks, md.MaskSet(kind=masks.kind, stored=stored), stored):
            np.testing.assert_allclose(
                self.projected(source, count, factors), expected, rtol=0, atol=1e-12 * np.abs(expected).max()
            )

    @pytest.mark.parametrize("fixture", ["small_scene", "volume_scene"])
    def test_designed_sets_never_form_their_stack(self, fixture, request, monkeypatch):
        scene, grids = request.getfixturevalue(fixture)
        masks = md.ideal_masks(scene, grids, 128)
        factors = self.factors(masks.points, [4, 2])
        expected = masks.vectors @ np.concatenate(factors, axis=1)

        def refuse(*_):
            raise AssertionError("a designed set formed its (I, M) stack")

        monkeypatch.setattr(md.MaskSet, "_designed", refuse)
        monkeypatch.setattr(md, "design_amplitudes", refuse)
        distinct = masks.distinct_rows  # 16 of the volume's 128 rows: the rest repeat them
        out = self.projected(masks, distinct, factors)
        np.testing.assert_allclose(out, expected[:distinct], rtol=0, atol=1e-12 * np.abs(expected).max())


    @pytest.mark.parametrize("fixture", ["small_scene", "volume_scene"])
    @pytest.mark.parametrize("designed", [True, False], ids=["designed", "stored"])
    def test_each_factor_is_used_up_before_the_next_is_drawn(self, fixture, designed, request):
        scene, grids = request.getfixturevalue(fixture)
        masks = md.ideal_masks(scene, grids, 128)
        if not designed:
            masks = md.MaskSet(kind=masks.kind, stored=masks.vectors)
        factors = self.factors(masks.points, [4, 2, 3])
        drawn, alive_at_draw = [], []

        def one_at_a_time():
            for factor in factors:
                alive_at_draw.append(sum(ref() is not None for ref in drawn))
                copy = factor.copy()  # owned by the generator and the caller only
                drawn.append(weakref.ref(copy))
                yield copy
                del copy

        out = np.empty((masks.distinct_rows, 9), dtype=complex)
        partner = md.project(masks, one_at_a_time(), out)
        assert alive_at_draw == [0, 0, 0]
        assert (partner is not None) == designed  # 128 masks over 64 or 8 points pair their rows
        if partner is not None:
            half = masks.distinct_rows // 2
            out[half:] = out[:half] - partner
        expected = masks.vectors[: masks.distinct_rows] @ np.concatenate(factors, axis=1)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


class TestMaskCovariance:
    def test_ideal_plane_masks_give_quarter_indicator(self, small_scene):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128)
        for ref in (0, 17, scene.n_target - 1):
            cov = md.mask_covariance(masks, ref)
            expected = np.zeros(scene.n_target)
            expected[ref] = 0.25
            np.testing.assert_array_equal(cov, expected)

    def test_constant_masks_give_zero(self):
        masks = md.MaskSet(kind=md.KIND_MASK2D, stored=np.full((16, 5), 0.75))
        np.testing.assert_array_equal(md.mask_covariance(masks, 2), np.zeros(5))

    def test_empty_set_rejected(self):
        masks = md.MaskSet(kind=md.KIND_MASK2D, stored=np.empty((0, 4), dtype=complex))
        with pytest.raises(EmptyMaskSet):
            md.mask_covariance(masks, 0)


@settings(max_examples=20, deadline=None)
@given(
    order_exp=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_covariance_quarter_delta_property(order_exp, data):
    count = 2**order_exp
    points = data.draw(st.integers(min_value=1, max_value=count - 1))
    ref = data.draw(st.integers(min_value=0, max_value=points - 1))
    q = md.design_amplitudes(count, points)
    cov = (q * q[:, ref : ref + 1]).mean(axis=0) - q.mean(axis=0) * q[:, ref].mean()
    expected = np.zeros(points)
    expected[ref] = 0.25
    np.testing.assert_array_equal(cov, expected)


class TestMaskExport:
    def test_round_trip(self, small_scene, tmp_path):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128)
        path = tmp_path / "masks.bin"
        md.save_mask_vectors(path, masks, scene.fingerprint)
        kind, vectors, fp = md.load_mask_vectors(path)
        assert kind == md.KIND_MASK2D
        assert fp == scene.fingerprint
        np.testing.assert_array_equal(vectors, masks.vectors)

    def test_designed_export_is_the_formed_stack(self, desk_scene, tmp_path):
        # a designed plane set stores no stack; its export is amplitudes * e^{j phase}
        scene, grids = desk_scene
        masks = md.ideal_masks(scene, grids, 1024)
        md.save_mask_vectors(tmp_path / "masks.bin", masks, scene.fingerprint)
        stack = md.design_amplitudes(1024, scene.n_target) * np.exp(1j * md.design_phases_2d(scene, grids))[None, :]
        header = f"kind=mask2d count=1024 points={scene.n_target} fingerprint={scene.fingerprint}\n"
        assert (tmp_path / "masks.bin").read_bytes() == header.encode() + stack.astype("<c16").tobytes()
