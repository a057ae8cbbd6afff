"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Desk scale throughout: N = 32x32 = 1024 aperture samples, M = 16x16 = 256
target samples (8x8x4 voxel variants for volume checks), I in {256, 1024},
wavelength 0.01 m, 0.25 m square aperture, target distances 0.125/0.25/0.5 m
(aperture half-sines 0.7071/0.4472/0.2425, inside the published range).

Two target sizes are used deliberately: trend and covariance experiments run
with the pixel pitch comparable to the cross-range resolution (0.125 m
target), matching the published pitch-to-resolution ratio; singular-spectrum
experiments run with the target shrunk proportionally to the aperture
(0.0625 m target).
"""

import cmath
import csv
import math

import numpy as np
import pytest

from risimage import cli
from risimage import em_core as em
from risimage import mask_design as md
from risimage import measurement as ms
from risimage import reconstruct as rc
from risimage import ris_synthesis as rs
from risimage import runner as rn
from risimage import scene as sc
from risimage import targets as tg

from conftest import (
    DESK_Z_VALUES,
    desk_config,
    desk_proportional_config,
    realize_with_values,
    small_config,
    volume_config,
)
from test_em_core import oracle_e_field, oracle_green_row, oracle_y_entry, oracle_z_entry

DESK_GAMMA = 1e-12
TREND_SEEDS = range(5)


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


# --- shared desk-scale pipeline products -------------------------------------------


class DeskPipeline:
    """Caches kernels, inverses, and synthesized mask sets per (z', I): the
    realized set, which keeps only the magnitudes a plane reconstruction
    reads, and the complex realized masks its realization pass gave, which
    are measured."""

    def __init__(self):
        self.scenes = {}
        self.kernels = {}
        self.inverses = {}
        self.realized = {}

    def scene(self, z_prime):
        if z_prime not in self.scenes:
            scene = sc.validate_scene(desk_config(z_prime))
            self.scenes[z_prime] = (scene, sc.sample_grids(scene))
        return self.scenes[z_prime]

    def inverse(self, z_prime):
        if z_prime not in self.inverses:
            scene, grids = self.scene(z_prime)
            kernel = em.assemble_kernel(scene, grids)
            self.kernels[z_prime] = kernel
            self.inverses[z_prime] = rs.tikhonov_inverse(kernel, DESK_GAMMA)
        return self.kernels[z_prime], self.inverses[z_prime]

    def synthesized(self, z_prime, count):
        key = (z_prime, count)
        if key not in self.realized:
            scene, grids = self.scene(z_prime)
            kernel, inverse = self.inverse(z_prime)
            masks = md.ideal_masks(scene, grids, count)
            self.realized[key] = realize_with_values(inverse, masks, 1.0)
        return self.realized[key]

    def nmse(self, z_prime, count, snr_db, seed, target_name="block"):
        scene, grids = self.scene(z_prime)
        masks, values = self.synthesized(z_prime, count)
        target = tg.builtin_target(target_name, scene)
        fields = ms.noiseless_fields(scene, grids, md.MaskSet(kind=masks.kind, stored=values), target)
        meas = ms.measure(fields, masks.kind, [snr_db], [seed])
        psf = em.psf_vector(scene, grids.target_points)
        result = rc.reconstruct_2d(meas, masks, psf)
        calibrated = rc.calibrate_estimate(
            result.estimate[0] / grids.target_cell_measure, rc.CALIBRATE_LSQ, target.values
        )
        return rc.nmse(target.values, calibrated)

    def seed_averaged_nmse(self, z_prime, count, snr_db, target_name="block"):
        return float(
            np.mean([self.nmse(z_prime, count, snr_db, seed, target_name) for seed in TREND_SEEDS])
        )


@pytest.fixture(scope="module")
def desk():
    return DeskPipeline()


# --- criteria -----------------------------------------------------------------------


def test_c01_hadamard_orthogonality_exact():
    ok = True
    for count in (8, 64, 1024):
        points = count - 1
        q = md.design_amplitudes(count, points)
        signed = 2.0 * q - 1.0
        gram = signed.T @ signed  # integer-valued in float64, exact
        ok &= np.array_equal(gram, count * np.eye(points))
        ok &= np.array_equal(signed.sum(axis=0), np.zeros(points))
        covariance = (q.T @ q) / count - np.outer(q.mean(axis=0), q.mean(axis=0))
        ok &= np.array_equal(covariance, np.eye(points) / 4.0)
    scene = sc.validate_scene(desk_config())
    grids = sc.sample_grids(scene)
    masks = md.ideal_masks(scene, grids, 1024)
    for ref in (0, 100, 255):
        expected = np.zeros(scene.n_target)
        expected[ref] = 0.25
        ok &= np.array_equal(md.mask_covariance(masks, ref), expected)
    report("criterion 1: Hadamard orthogonality and quarter-delta covariance, exact", ok)


def test_c02_tikhonov_matches_normal_equations():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(4, 17))
        n = int(rng.integers(4, 33))
        entries = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / math.sqrt(n)
        entries.setflags(write=False)
        kernel = em.KernelMatrix(stored=entries, kind=em.KIND_Z2D, fingerprint="oracle")
        rhs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for gamma in (1e-2, 1e-6):
            inverse = rs.tikhonov_inverse(kernel, gamma, threshold_factor=0.0)
            solution = inverse.apply(rhs)
            normal = entries.conj().T @ entries + gamma * np.eye(n)
            projected = entries.conj().T @ rhs
            reference = np.linalg.solve(normal, projected)
            reference += np.linalg.solve(normal, projected - normal @ reference)
            worst = max(worst, np.linalg.norm(solution - reference) / np.linalg.norm(reference))
    report(
        "criterion 2: Tikhonov solution matches normal equations (50 kernels, rel <= 1e-8)",
        worst <= 1e-8,
        f"worst rel err {worst:.2e}",
    )


def test_c03_kernel_single_point_oracles():
    plane = sc.validate_scene(small_config())
    plane_grids = sc.sample_grids(plane)
    z_kernel = em.assemble_kernel(plane, plane_grids)
    volume = sc.validate_scene(volume_config(n_xy=4, n_z=2))
    volume_grids = sc.sample_grids(volume)
    y_kernel = em.assemble_kernel(volume, volume_grids)

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(z_kernel.shape[0]))
        n = int(rng.integers(z_kernel.shape[1]))
        expected = oracle_z_entry(
            plane.config, plane_grids.target_points[m], plane_grids.ris_points[n], plane_grids.ris_cell_area
        )
        worst = max(worst, abs(z_kernel.entries[m, n] - expected) / abs(expected))
    for _ in range(100):
        m = int(rng.integers(y_kernel.shape[0]))
        n = int(rng.integers(y_kernel.shape[1]))
        expected = oracle_y_entry(
            volume.config,
            volume.config.receiver_pos,
            volume_grids.target_points[m],
            volume_grids.ris_points[n],
            volume_grids.ris_cell_area,
        )
        worst = max(worst, abs(y_kernel.entries[m, n] - expected) / abs(expected))
    kernel_ok = worst <= 1e-12

    k = plane.wavenumber
    step = 1e-4 * plane.config.wavelength

    def g_scalar(r_r, r_p):
        distance = float(np.linalg.norm(r_r - r_p))
        return cmath.exp(-1j * k * distance) / (4.0 * math.pi * distance)

    fd_worst = 0.0
    for _ in range(20):
        r_p = rng.uniform(-0.3, 0.3, 3)
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        r_r = r_p + rng.uniform(0.2, 1.0) * direction
        tensor = em.green_tensor(r_r, r_p[None, :], k)[0]  # the tensor assemble_kernel uses
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
                fd[a, b] = (g_scalar(r_r, r_p) if a == b else 0.0) + second / k**2
        fd_worst = max(fd_worst, float(np.abs(tensor - fd).max() / np.abs(tensor).max()))
    green_ok = fd_worst <= 1e-4
    report(
        "criterion 3: kernel entries vs scalar oracles (1e-12), Green tensor vs finite differences (1e-4)",
        kernel_ok and green_ok,
        f"kernel {worst:.2e}, green {fd_worst:.2e}",
    )


def test_c04_two_path_volume_consistency():
    # full desk-scale voxel grid: 8x8x4 = 256 voxels against 1024 samples
    scene = sc.validate_scene(volume_config(n_xy=8, n_z=4, n_ris=32))
    grids = sc.sample_grids(scene)
    kernel = em.assemble_kernel(scene, grids)
    cfg = scene.config
    k = scene.wavenumber
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        chi = np.zeros(scene.n_target, dtype=complex)
        voxels = rng.choice(scene.n_target, size=2, replace=False)
        chi[voxels] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        p = rng.standard_normal(scene.n_ris) + 1j * rng.standard_normal(scene.n_ris)
        direct = k**2 * np.sum(chi * (kernel.entries @ p)) * grids.target_cell_measure
        contracted = 0.0
        for m in voxels:
            # second path: scalar oracles only, sharing no code with assemble_kernel
            point = grids.target_points[m]
            g_row = oracle_green_row(cfg, cfg.receiver_pos, point)
            e_vec = oracle_e_field(cfg, grids.ris_points, grids.ris_cell_area, p, point)
            contracted += chi[m] * sum(g * e for g, e in zip(g_row, e_vec))
        contracted *= k**2 * grids.target_cell_measure
        worst = max(worst, abs(direct - contracted) / abs(direct))
    report(
        "criterion 4: Lippmann-Schwinger contraction equals kernel route (1e-10)",
        worst <= 1e-10,
        f"worst rel err {worst:.2e}",
    )


def test_c05_ideal_mask_exact_recovery(tmp_path):
    worst_2d = 0.0
    for n in (2, 4, 8):
        scene = sc.validate_scene(small_config(n_target=n, n_ris=8))
        grids = sc.sample_grids(scene)
        count = 4
        while count < n * n + 1:
            count *= 2
        masks = md.ideal_masks(scene, grids, count, phase_mode=md.PHASE_EXACT)
        psf = em.psf_vector(scene, grids.target_points)
        rng = np.random.default_rng(n)
        patterns = [np.eye(n * n)[j] for j in range(n * n)]
        patterns.append(np.ones(n * n))
        patterns.extend((rng.random(n * n) < 0.5).astype(float) for _ in range(20))
        for values in patterns:
            if not values.any():
                continue
            target = ms.make_target_2d(values, (n, n))
            meas = ms.measure(ms.noiseless_fields(scene, grids, masks, target), masks.kind, [None], [0])
            result = rc.reconstruct_2d(meas, masks, psf)
            calibrated = rc.calibrate_estimate(result.estimate[0], rc.CALIBRATE_MAX1)
            worst_2d = max(worst_2d, rc.nmse(values, calibrated))

    # the same bypass through the CLI flag itself
    scene_path = tmp_path / "scene.cfg"
    scene_path.write_text(
        "wavelength = 0.01\nris_len_x = 0.25\nris_len_y = 0.25\n"
        "target_len_x = 0.125\ntarget_len_y = 0.125\ntarget_distance = 0.125\n"
        "incident_elevation = 30\nreceiver_x = 5.0\nreceiver_y = 5.0\nreceiver_z = -1.25\n"
        "n_ris_x = 16\nn_ris_y = 16\nn_target_x = 8\nn_target_y = 8\n"
    )
    run_dir = tmp_path / "bypass"
    code = cli.main(
        [
            "run",
            "--scene",
            str(scene_path),
            "--target",
            "checkerboard",
            "-I",
            "128",
            "--ideal-masks",
            "--phase-mode",
            "exact",
            "--calibration",
            "max1",
            "--output",
            str(run_dir),
        ]
    )
    with open(run_dir / "metrics.csv", newline="") as fh:
        cli_nmse = float(list(csv.DictReader(fh))[0]["nmse"])

    worst_3d = 0.0
    scene3 = sc.validate_scene(volume_config())
    grids3 = sc.sample_grids(scene3)
    masks3 = md.ideal_masks(scene3, grids3, 16)
    single = np.zeros(scene3.n_target, dtype=complex)
    single[5] = 1.0
    double = np.zeros(scene3.n_target, dtype=complex)
    double[[2, 7]] = [1.5 - 0.5j, 0.75 + 0.25j]
    for chi in (single, double):
        target = ms.make_target_3d(chi, (2, 2, 2))
        meas = ms.measure(ms.noiseless_fields(scene3, grids3, masks3, target), masks3.kind, [None], [0])
        result = rc.reconstruct_3d(scene3, meas, masks3)
        worst_3d = max(worst_3d, rc.nmse(chi, result.estimate[0] / grids3.target_cell_measure))

    ok = worst_2d < 1e-6 and code == 0 and cli_nmse < 1e-6 and worst_3d < 1e-6
    report(
        "criterion 5: ideal-mask bypass recovers binary and voxel targets exactly (< 1e-6)",
        ok,
        f"2d {worst_2d:.2e}, cli {cli_nmse:.2e}, 3d {worst_3d:.2e}",
    )


def test_c06_resolution_and_noise_figures():
    res_near = sc.resolution_from_sine(0.01, 0.7071)
    res_far = sc.resolution_from_sine(0.01, 0.2425)
    noise_dbm = ms.noise_power_dbm(-174.0, 1.0e6)
    ok = abs(res_near - 0.0071) <= 1e-4 and abs(res_far - 0.0206) <= 1e-4 and noise_dbm == -114.0
    report(
        "criterion 6: published resolution values within 1e-4 m; thermal noise exactly -114 dBm",
        ok,
        f"delta {res_near:.6f} / {res_far:.6f} m, noise {noise_dbm} dBm",
    )


def test_c07_trend_reproduction(desk):
    near, far = DESK_Z_VALUES[0], DESK_Z_VALUES[-1]
    nmse_i_small = desk.seed_averaged_nmse(near, 256, 20.0)
    nmse_i_large = desk.seed_averaged_nmse(near, 1024, 20.0)
    a_ok = nmse_i_large < nmse_i_small

    series = {snr: desk.seed_averaged_nmse(near, 1024, snr) for snr in (0.0, 10.0, 20.0, 30.0, 40.0)}
    b_monotone = series[0.0] >= series[10.0] >= series[20.0] >= series[30.0]
    b_floor = abs(series[30.0] - series[40.0]) < 0.05 * series[30.0]

    nmse_far = desk.seed_averaged_nmse(far, 1024, 20.0)
    c_ok = nmse_i_large < nmse_far

    ok = a_ok and b_monotone and b_floor and c_ok
    detail = (
        f"(a) I=4M {nmse_i_large:.3f} < I=M {nmse_i_small:.3f}; "
        f"(b) {series[0.0]:.3f} >= {series[10.0]:.3f} >= {series[20.0]:.3f} >= {series[30.0]:.3f}, "
        f"floor gap {abs(series[30.0] - series[40.0]):.2e}; "
        f"(c) near {nmse_i_large:.3f} < far {nmse_far:.3f}"
    )
    report("criterion 7: seed-averaged NMSE trends over I, SNR, and distance", ok, detail)


def test_c08_singular_spectrum_staircase():
    ranks = []
    decay_mid = None
    for z_prime in DESK_Z_VALUES:
        scene = sc.validate_scene(desk_proportional_config(z_prime))
        grids = sc.sample_grids(scene)
        spectrum = np.linalg.svd(em.assemble_kernel(scene, grids).entries, compute_uv=False)
        ranks.append(int(np.count_nonzero(spectrum > 1e-3 * spectrum[0])))
        if z_prime == DESK_Z_VALUES[1]:
            decay_mid = spectrum[0] / spectrum[199]
    ok = ranks[0] > ranks[1] > ranks[2] and decay_mid > 1e6
    report(
        "criterion 8: retained rank strictly decreases with distance; mid-distance decay > 1e6 over 200 modes",
        ok,
        f"ranks {ranks}, decay {decay_mid:.2e}",
    )


def test_c09_mask_scaling_invariance(desk):
    z_prime = DESK_Z_VALUES[0]
    scene, grids = desk.scene(z_prime)
    masks, values = desk.synthesized(z_prime, 256)
    # a plane set is measured from its complex masks and reconstructed from their magnitudes
    measured = md.MaskSet(kind=masks.kind, stored=values)
    scaled = md.MaskSet(kind=masks.kind, stored=3.7 * values)
    target = tg.builtin_target("block", scene)
    psf = em.psf_vector(scene, grids.target_points)
    records_base = ms.measure(ms.noiseless_fields(scene, grids, measured, target), masks.kind, [20.0], [0])
    records_scaled = ms.measure(ms.noiseless_fields(scene, grids, scaled, target), scaled.kind, [20.0], [0])
    estimate_base = rc.reconstruct_2d(records_base, masks, psf).estimate
    scaled_magnitudes = md.MaskSet(kind=masks.kind, stored=np.abs(scaled.vectors))
    estimate_scaled = rc.reconstruct_2d(records_scaled, scaled_magnitudes, psf).estimate
    worst = float(np.max(np.abs(estimate_scaled - estimate_base) / np.abs(estimate_base).max()))
    report(
        "criterion 9: reconstruction invariant under mask rescaling by 3.7 (1e-12)",
        worst <= 1e-12,
        f"worst rel dev {worst:.2e}",
    )


def test_c10_run_determinism(tmp_path):
    plan_kwargs = dict(
        scene=small_config(),
        target="block",
        i_values=(128,),
        snr_values=(20.0,),
        calibration="lsq",
        seed=7,
    )
    first = rn.run_plan(rn.ExperimentPlan(**plan_kwargs, output_dir=str(tmp_path / "a")))
    second = rn.run_plan(rn.ExperimentPlan(**plan_kwargs, output_dir=str(tmp_path / "b")))
    bytes_a = (first.run_dir / "metrics.csv").read_bytes()
    bytes_b = (second.run_dir / "metrics.csv").read_bytes()
    report(
        "criterion 10: repeated runs produce byte-identical metrics CSV",
        bytes_a == bytes_b,
        f"{len(bytes_a)} bytes",
    )
