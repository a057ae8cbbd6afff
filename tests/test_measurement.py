"""Scattering chain, receiver fields, noise model, and measurement records."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from risimage import em_core as em
from risimage import mask_design as md
from risimage import measurement as ms
from risimage import ris_synthesis as rs
from risimage import scene as sc
from risimage.errors import DimensionMismatch, EmptySet, KindMismatch, MalformedConfig

from conftest import realize_with_values


def checker_target(scene):
    nx, ny = scene.config.n_target_x, scene.config.n_target_y
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    values = ((ix + iy) % 2).astype(float).reshape(-1, order="F")
    return ms.make_target_2d(values, (nx, ny), scene.config.reflection_coeff)


def plane_fields(scene, grids, masks, target):
    """Noiseless receiver field of each plane mask row (an (M,) vector is one row)."""
    vectors = np.atleast_2d(np.asarray(masks, dtype=complex))
    return ms.noiseless_fields(scene, grids, md.MaskSet(kind=md.KIND_MASK2D, stored=vectors), target)


class TestTargetCurrent2d:
    def test_pec_doubles_the_field(self, small_scene):
        scene, grids = small_scene
        mask = np.arange(scene.n_target, dtype=complex)
        pec = ms.make_target_2d(np.ones(scene.n_target), (8, 8), reflection_coeff=-1.0)
        bare = ms.make_target_2d(np.ones(scene.n_target), (8, 8), reflection_coeff=0.0)
        np.testing.assert_array_equal(
            plane_fields(scene, grids, mask, pec), 2.0 * plane_fields(scene, grids, mask, bare)
        )

    def test_unit_reflection_transmits_nothing(self, small_scene):
        scene, grids = small_scene
        mask = np.ones(scene.n_target, dtype=complex)
        target = ms.make_target_2d(np.ones(scene.n_target), (8, 8), reflection_coeff=1.0)
        np.testing.assert_array_equal(plane_fields(scene, grids, mask, target), 0.0)

    def test_linear_in_the_mask(self, small_scene):
        scene, grids = small_scene
        rng = np.random.default_rng(0)
        m1 = rng.standard_normal(scene.n_target) + 1j * rng.standard_normal(scene.n_target)
        m2 = rng.standard_normal(scene.n_target) + 1j * rng.standard_normal(scene.n_target)
        target = ms.make_target_2d(np.ones(scene.n_target), (8, 8), reflection_coeff=-0.5 + 0.2j)
        np.testing.assert_allclose(
            plane_fields(scene, grids, m1 + 2.0 * m2, target),
            plane_fields(scene, grids, m1, target) + 2.0 * plane_fields(scene, grids, m2, target),
            rtol=1e-12,
        )

    def test_volume_target_rejected(self, small_scene):
        scene, grids = small_scene
        target = ms.make_target_3d(np.zeros(8, dtype=complex), (2, 2, 2))
        with pytest.raises(KindMismatch):
            plane_fields(scene, grids, np.ones(8, dtype=complex), target)


class TestReceiverField2d:
    def test_empty_target_gives_zero(self, small_scene):
        scene, grids = small_scene
        target = ms.make_target_2d(np.zeros(scene.n_target), (8, 8))
        mask = np.ones(scene.n_target, dtype=complex)
        assert plane_fields(scene, grids, mask, target)[0] == 0.0

    def test_single_pixel_single_term(self, small_scene):
        scene, grids = small_scene
        values = np.zeros(scene.n_target)
        values[13] = 1.0
        # zero reflection: the induced current equals the mask
        target = ms.make_target_2d(values, (8, 8), reflection_coeff=0.0)
        current = np.zeros(scene.n_target, dtype=complex)
        current[13] = 2.0 - 1.0j
        psf = em.psf_vector(scene, grids.target_points[13:14])[0]
        expected = psf * current[13] * grids.target_cell_measure
        assert plane_fields(scene, grids, current, target)[0] == pytest.approx(expected)

    def test_exact_phase_condition_gives_constant_phase_sum(self, small_scene):
        # with the per-point exact phase profile the summands are all
        # non-negative reals times a fixed (1 - reflection) factor
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128, phase_mode=md.PHASE_EXACT)
        target = ms.make_target_2d(np.ones(scene.n_target), (8, 8), reflection_coeff=-1.0)
        psf = em.psf_vector(scene, grids.target_points)
        fields = ms.noiseless_fields(scene, grids, masks, target)
        for i in (0, 3, 17):
            current = 2.0 * masks.vectors[i]
            magnitude_sum = float(
                np.sum(np.abs(psf) * np.abs(current)) * grids.target_cell_measure
            )
            assert abs(fields[i]) == pytest.approx(magnitude_sum, rel=1e-9)

    def test_full_target_dominates_subtargets(self, small_scene):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128, phase_mode=md.PHASE_EXACT)
        full = ms.make_target_2d(np.ones(scene.n_target), (8, 8))
        rng = np.random.default_rng(1)
        mask = masks.vectors[5]
        full_field = abs(plane_fields(scene, grids, mask, full)[0])
        for _ in range(5):
            values = (rng.random(scene.n_target) < 0.5).astype(float)
            sub = ms.make_target_2d(values, (8, 8))
            assert abs(plane_fields(scene, grids, mask, sub)[0]) <= full_field + 1e-15


class TestReceiverField3d:
    @staticmethod
    def field(scene, grids, kernel, p, target):
        """Born field of the one volume mask that coefficients ``p`` produce."""
        masks = md.MaskSet(kind=md.KIND_MASK3D, stored=(kernel.entries @ p)[None, :])
        return ms.noiseless_fields(scene, grids, masks, target)[0]

    def test_air_scatters_nothing(self, volume_scene):
        scene, grids = volume_scene
        kernel = em.assemble_kernel(scene, grids)
        target = ms.make_target_3d(np.zeros(scene.n_target, dtype=complex), (2, 2, 2))
        p = np.ones(scene.n_ris, dtype=complex)
        assert self.field(scene, grids, kernel, p, target) == 0.0

    def test_linear_in_contrast(self, volume_scene):
        scene, grids = volume_scene
        kernel = em.assemble_kernel(scene, grids)
        rng = np.random.default_rng(2)
        chi = rng.standard_normal(scene.n_target) + 1j * rng.standard_normal(scene.n_target)
        p = rng.standard_normal(scene.n_ris) + 1j * rng.standard_normal(scene.n_ris)
        base = self.field(scene, grids, kernel, p, ms.make_target_3d(chi, (2, 2, 2)))
        scaled = self.field(scene, grids, kernel, p, ms.make_target_3d(2.5 * chi, (2, 2, 2)))
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)


class TestFieldsInRowBlocks:
    """Every set's fields are formed a block of mask rows at a time, bit for
    bit the whole-stack product; a designed set never forms its stack."""

    @pytest.mark.parametrize("fixture", ["desk_scene", "volume_scene"])
    @pytest.mark.parametrize("designed", [True, False], ids=["designed", "stored"])
    def test_fields_match_the_whole_stack(self, fixture, designed, request, monkeypatch, force_block_rows):
        scene, grids = request.getfixturevalue(fixture)
        masks = md.ideal_masks(scene, grids, 1024)
        force_block_rows(4, scene.n_target, masks.distinct_rows * scene.n_target)  # four rows per block
        stack = masks.vectors
        if not designed:
            masks = md.MaskSet(kind=masks.kind, stored=stack * np.exp(0.3j))
            stack = masks.vectors
        if scene.is_3d:
            rng = np.random.default_rng(4)
            target = ms.make_target_3d(rng.standard_normal(scene.n_target) + 0.1j, (2, 2, 2))
            expected = scene.wavenumber**2 * scene.target_cell_measure * (stack @ target.values)
        else:
            target = checker_target(scene)
            weights = em.psf_vector(scene, grids.target_points) * target.values * grids.target_cell_measure
            expected = (1.0 - target.reflection_coeff) * (stack @ weights)
        formed = []
        form = md.MaskSet._designed

        def recording(masks, rows=slice(None)):
            stack = form(masks, rows)
            formed.append(len(stack))
            return stack

        monkeypatch.setattr(md.MaskSet, "_designed", recording)
        fields = ms.noiseless_fields(scene, grids, masks, target)
        assert fields.tobytes() == expected.tobytes()
        if designed:  # several blocks of the distinct rows, which the fields repeat
            assert sum(formed) == masks.distinct_rows and max(formed) == 4 < masks.distinct_rows
        else:
            assert formed == []


class TestFieldsOfRealizedSets:
    """A realized plane set keeps only magnitudes: its fields come from its realization pass."""

    @pytest.mark.parametrize("fixture", ["small_scene", "volume_scene"])
    def test_pass_fields_match_the_realized_stack(self, fixture, request):
        scene, grids = request.getfixturevalue(fixture)
        inv = rs.tikhonov_inverse(em.assemble_kernel(scene, grids), 1e-12)
        ideal = md.ideal_masks(scene, grids, 128)
        if scene.is_3d:
            target = ms.make_target_3d(np.linspace(0.5, 1.0, scene.n_target) + 0.2j, (2, 2, 2))
        else:
            target = checker_target(scene)
        receiver = ms.ReceiverFields(scene, grids, ideal, target)
        unit = np.empty((ideal.distinct_rows, scene.n_target), dtype=complex)
        scales = np.empty(ideal.distinct_rows)

        def keep(rows, block, block_scales, _coefficients):
            unit[rows], scales[rows] = block, block_scales

        realized, values = realize_with_values(inv, ideal, 1.0, [receiver.add, keep])
        # each field is the unit-budget mask's, times its budget scale
        expected = receiver.factor * ((unit @ receiver.weights) * scales)
        assert receiver.fields().tobytes() == np.tile(expected, realized.repeats).tobytes()
        # and within the rounding of the scaling, that of the realized mask
        whole = ms.noiseless_fields(scene, grids, md.MaskSet(kind=ideal.kind, stored=values), target)
        np.testing.assert_allclose(receiver.fields(), whole, rtol=0, atol=1e-13 * np.abs(whole).max())
        assert realized.magnitudes_only != scene.is_3d

    def test_magnitudes_give_no_fields(self, small_scene):
        scene, grids = small_scene
        magnitudes = md.MaskSet(kind=md.KIND_MASK2D, stored=np.abs(md.ideal_masks(scene, grids, 128).vectors))
        with pytest.raises(KindMismatch, match="only the magnitudes"):
            ms.noiseless_fields(scene, grids, magnitudes, checker_target(scene))


class TestNoiseModel:
    def test_variance_from_snr(self):
        fields = np.array([1.0 + 0j, 0.0 + 1j, -1.0 + 0j, 0.0 - 1j])
        assert ms.noise_variance(fields, 10.0) == pytest.approx(0.1)

    def test_infinite_snr_limit(self):
        assert ms.noise_variance(np.array([1.0 + 0j]), 500.0) == pytest.approx(0.0, abs=1e-50)

    def test_zero_signals_give_zero_variance(self):
        assert ms.noise_variance(np.zeros(4, dtype=complex), 20.0) == 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            ms.noise_variance(np.array([]), 20.0)

    def test_thermal_noise_power_dbm(self):
        # N0 = -174 dBm/Hz over 1 MHz is exactly -114 dBm
        assert ms.noise_power_dbm(-174.0, 1.0e6) == -114.0

    def test_empirical_snr_matches_request(self):
        signal_power = 4.0
        variance = ms.noise_variance(np.full(1, 2.0 + 0j), 17.0)
        draws = ms.complex_noise(variance, 123, 10_000)
        empirical_db = 10.0 * math.log10(signal_power / np.mean(np.abs(draws) ** 2))
        assert empirical_db == pytest.approx(17.0, abs=0.1)

    def test_noise_scale_homogeneity(self):
        # doubling the amplitude doubles the draw exactly (same unit normals)
        a = ms.complex_noise(1.0, 9, 4)
        b = ms.complex_noise(4.0, 9, 4)
        assert b.tolist() == (2.0 * a).tolist()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=ms.SEED_LIMIT - 2048), offset=st.integers(1, 2047))
    @example(seed=0, offset=1)
    def test_distinct_seeds_share_no_draws(self, seed, offset):
        # nearby seeds are the risky case: keys derived as seed XOR index
        # would make seeds 0..I-1 permute one shared pool of I draws
        a = ms.complex_noise(1.0, seed, 1024)
        b = ms.complex_noise(1.0, seed + offset, 1024)
        assert not set(a.tolist()) & set(b.tolist())

    def test_shorter_set_is_a_prefix(self):
        long = ms.complex_noise(2.5, 77, 1024)
        short = ms.complex_noise(2.5, 77, 256)
        assert short.tolist() == long[:256].tolist()

    def test_one_generator_per_measurement_set(self, small_scene, monkeypatch):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 1024)
        built = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            built.append((args, kwargs))
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        fields = ms.noiseless_fields(scene, grids, masks, checker_target(scene))
        meas = ms.measure(fields, masks.kind, [20.0], [4])
        assert len(meas) == 1024
        assert built == [((), {"key": 4})]

    def test_noise_power_must_be_a_finite_normal_double(self):
        ms.check_noise_settings(ms.DEFAULT_N0_DBM_PER_HZ, ms.DEFAULT_BANDWIDTH_HZ)
        # 10^497 W overflows; 10^-503 W underflows to 0.0, and 10^-300 W * 1e-10 Hz is subnormal
        for n0, bandwidth in ((5000.0, 1e6), (-5000.0, 1e6), (-2970.0, 1e-10)):
            with pytest.raises(MalformedConfig, match=rf"{n0!r}.*{bandwidth!r}"):
                ms.check_noise_settings(n0, bandwidth)

    def test_every_stream_key_must_fit_128_bits(self):
        ms.check_seed(ms.SEED_LIMIT - 3, streams=3)
        for seed, streams in ((-1, 1), (ms.SEED_LIMIT, 1), (ms.SEED_LIMIT - 2, 3)):
            with pytest.raises(MalformedConfig):
                ms.check_seed(seed, streams)


class TestMeasure:
    def test_deterministic_under_fixed_seed(self, small_scene):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128)
        target = checker_target(scene)
        a = ms.measure(ms.noiseless_fields(scene, grids, masks, target), masks.kind, [20.0], [5])
        b = ms.measure(ms.noiseless_fields(scene, grids, masks, target), masks.kind, [20.0], [5])
        assert a.noisy.tolist() == b.noisy.tolist()
        assert a.noiseless.tolist() == b.noiseless.tolist()

    def test_huge_snr_approaches_noiseless(self, small_scene):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128)
        target = checker_target(scene)
        meas = ms.measure(ms.noiseless_fields(scene, grids, masks, target), masks.kind, [300.0], [0])
        for noisy, noiseless in zip(meas.noisy[0].tolist(), meas.noiseless.tolist()):
            assert noisy == pytest.approx(abs(noiseless), rel=1e-10)

    def test_noiseless_mode(self, small_scene):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128)
        target = checker_target(scene)
        meas = ms.measure(ms.noiseless_fields(scene, grids, masks, target), masks.kind, [None], [0])
        assert meas.noise_variance == (0.0,)
        # Python's abs of a complex is the detector reference, bit for bit
        pairs = zip(meas.noisy[0].tolist(), meas.noiseless.tolist())
        assert all(noisy == abs(noiseless) for noisy, noiseless in pairs)

    def test_magnitudes_invariant_under_global_phase(self, small_scene):
        # rotating every mask by a fixed phase leaves detected magnitudes alone
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128)
        rotated = md.MaskSet(kind=masks.kind, stored=masks.vectors * np.exp(0.7j))
        target = checker_target(scene)
        a = ms.measure(ms.noiseless_fields(scene, grids, masks, target), masks.kind, [None], [0])
        b = ms.measure(ms.noiseless_fields(scene, grids, rotated, target), rotated.kind, [None], [0])
        np.testing.assert_allclose(a.noisy, b.noisy, rtol=1e-12)

    def test_volume_records_are_complex(self, volume_scene):
        scene, grids = volume_scene
        masks = md.ideal_masks(scene, grids, 16)
        chi = np.zeros(scene.n_target, dtype=complex)
        chi[3] = 1.0
        target = ms.make_target_3d(chi, (2, 2, 2))
        meas = ms.measure(ms.noiseless_fields(scene, grids, masks, target), masks.kind, [20.0], [1])
        assert all(isinstance(noisy, complex) for noisy in meas.noisy[0].tolist())

    def test_absolute_noise_mode_uses_thermal_power(self, small_scene):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128)
        target = checker_target(scene)
        fields = ms.noiseless_fields(scene, grids, masks, target)
        meas = ms.measure(fields, masks.kind, [20.0], [0], noise_mode=ms.NOISE_ABSOLUTE)
        assert meas.noise_variance[0] == pytest.approx(ms.noise_power_watts())


class TestStackedMeasure:
    """A stack of sets measured in one call holds in each row the bits of its set measured in a stack of one."""

    @pytest.mark.parametrize("kind", [md.KIND_MASK2D, md.KIND_MASK3D])
    @pytest.mark.parametrize("noise_mode", [ms.NOISE_RELATIVE, ms.NOISE_ABSOLUTE])
    def test_each_row_is_its_set_measured_alone(self, kind, noise_mode, tmp_path):
        rng = np.random.default_rng(6)
        fields = 1e-6 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        # thermal noise of -150 dBm/Hz over 2 MHz, 2e-12 W, is about the fields' power
        options = dict(noise_mode=noise_mode, n0_dbm_per_hz=-150.0, bandwidth_hz=2e6)
        snr_values, seeds = [None, 0.0, 20.0, 40.0], [7, 8, 9, ms.SEED_LIMIT - 1]
        stack = ms.measure(fields, kind, snr_values, seeds, **options)
        assert stack.noisy.shape == (4, 64) and len(stack) == 64
        assert stack.seed == tuple(seeds) and stack.noiseless is fields
        for row, variance, snr_db, seed in zip(stack.noisy, stack.noise_variance, snr_values, seeds):
            alone = ms.measure(fields, kind, [snr_db], [seed], **options)
            assert row.tobytes() == alone.noisy[0].tobytes() and (variance,) == alone.noise_variance
            one = ms.Measurements(fields, row[None], (variance,), (seed,))
            ms.records_to_csv(tmp_path / "row.csv", one)
            ms.records_to_csv(tmp_path / "alone.csv", alone)
            assert (tmp_path / "row.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()
        # the noiseless row detects the fields themselves, the others their own noise
        assert stack.noise_variance[0] == 0.0
        expected = np.hypot(fields.real, fields.imag) if kind == md.KIND_MASK2D else fields
        assert stack.noisy[0].tobytes() == (expected + 0.0).tobytes()
        if noise_mode == ms.NOISE_ABSOLUTE:
            assert stack.noise_variance[1:] == (ms.noise_power_watts(-150.0, 2e6),) * 3
        assert len({row.tobytes() for row in stack.noisy}) == 4

    def test_signal_power_and_streams_once_per_stack(self, monkeypatch):
        fields = np.linspace(1.0, 2.0, 32) * (1.0 + 0.5j)
        powers, keys = [], []
        signal_power, philox = ms.signal_power, np.random.Philox

        def counted_power(values):
            powers.append(values)
            return signal_power(values)

        def counted_philox(*args, **kwargs):
            keys.append(kwargs["key"])
            return philox(*args, **kwargs)

        monkeypatch.setattr(ms, "signal_power", counted_power)
        monkeypatch.setattr(np.random, "Philox", counted_philox)
        ms.measure(fields, md.KIND_MASK2D, [None, 10.0, 20.0, 30.0], [4, 5, 6, 7])
        assert len(powers) == 1 and powers[0] is fields
        assert keys == [5, 6, 7]  # a noiseless set draws nothing

    def test_empty_fields_fail_when_any_set_is_noisy(self):
        empty = np.zeros(0, dtype=complex)
        with pytest.raises(EmptySet):
            ms.measure(empty, md.KIND_MASK2D, [None, 10.0], [1, 2])
        stack = ms.measure(empty, md.KIND_MASK2D, [None, None], [1, 2])
        assert stack.noisy.shape == (2, 0) and stack.seed == (1, 2) and stack.noise_variance == (0.0, 0.0)


class TestMeasurementCsv:
    def test_round_trip_2d(self, small_scene, tmp_path):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128)
        target = checker_target(scene)
        meas = ms.measure(ms.noiseless_fields(scene, grids, masks, target), masks.kind, [15.0], [2])
        path = tmp_path / "records.csv"
        ms.records_to_csv(path, meas)
        loaded = ms.records_from_csv(path)
        assert loaded.noisy.tolist() == meas.noisy.tolist()
        assert loaded.noiseless.tolist() == meas.noiseless.tolist()
        assert loaded.seed == meas.seed == (2,)
        assert loaded.noise_variance == meas.noise_variance

    def test_round_trip_3d(self, volume_scene, tmp_path):
        scene, grids = volume_scene
        masks = md.ideal_masks(scene, grids, 16)
        chi = np.zeros(scene.n_target, dtype=complex)
        chi[2] = 0.5 + 0.1j
        target = ms.make_target_3d(chi, (2, 2, 2))
        meas = ms.measure(ms.noiseless_fields(scene, grids, masks, target), masks.kind, [10.0], [3])
        path = tmp_path / "records.csv"
        ms.records_to_csv(path, meas)
        loaded = ms.records_from_csv(path)
        assert loaded.noisy.tolist() == meas.noisy.tolist()

    @pytest.mark.parametrize("kind", [md.KIND_MASK2D, md.KIND_MASK3D])
    def test_a_stack_of_sets_is_rejected_before_writing(self, tmp_path, kind):
        # one row per mask carries one set's noisy value, variance and seed
        fields = np.linspace(1.0, 2.0, 8) * (1.0 + 1.0j)
        sets = ms.measure(fields, kind, [10.0, 10.0], [4, 5])
        path = tmp_path / "records.csv"
        path.write_text("old")
        with pytest.raises(DimensionMismatch, match="stack of 2"):
            ms.records_to_csv(path, sets)
        assert path.read_text() == "old"

    def test_rfc4180_line_endings(self, small_scene, tmp_path):
        scene, grids = small_scene
        masks = md.ideal_masks(scene, grids, 128)
        fields = ms.noiseless_fields(scene, grids, masks, checker_target(scene))
        meas = ms.measure(fields, masks.kind, [None], [0])
        path = tmp_path / "records.csv"
        ms.records_to_csv(path, meas)
        assert b"\r\n" in path.read_bytes()
