"""Benchmark workloads: each turns a seed into a scene file and a plan file.

The seed picks the plan's noise seed and the order of the SNR axis, so it
changes only the noise each point draws. The set of (I, snr_db, z_prime)
points, their gamma, retained rank and noiseless NMSE are the same for every
seed, and one stored reference ``metrics.csv`` per workload checks the output
of any seed. The I and z' axes keep their order: it sets the order in which
kernels and mask sets are built, which moves the peak memory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DESK_SCENE = {
    "wavelength": 0.01,
    "ris_len_x": 0.25,
    "ris_len_y": 0.25,
    "target_len_x": 0.125,
    "target_len_y": 0.125,
    "target_distance": 0.125,
    "incident_elevation": 30.0,
    "receiver_x": 5.0,
    "receiver_y": 5.0,
    "receiver_z": -1.25,
    "n_ris_x": 32,
    "n_ris_y": 32,
    "n_target_x": 16,
    "n_target_y": 16,
}


@dataclass(frozen=True)
class Workload:
    """One named sweep: scene keys, sweep axes and the reason it exists."""

    name: str
    why: str
    scene: dict
    i_values: tuple[int, ...]
    snr_values: tuple[float | None, ...]  # None: noiseless point
    z_values: tuple[float, ...]
    keep_artifacts: bool = False

    @property
    def points(self) -> int:
        return len(self.i_values) * len(self.snr_values) * len(self.z_values)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-snr-dense",
            why="32 points share one kernel and SVD, so per-point measure, reconstruct and image writing dominate",
            scene=DESK_SCENE,
            i_values=(256, 1024),
            snr_values=(None,) + tuple(float(s) for s in range(0, 43, 3)),
            z_values=(0.125,),
        ),
        Workload(
            name="plane-64",
            why="64x64 aperture, 32x32 target, I=2048: the SVD and mask realization dominate time and memory",
            scene={**DESK_SCENE, "n_ris_x": 64, "n_ris_y": 64, "n_target_x": 32, "n_target_y": 32},
            i_values=(2048,),
            snr_values=(None, 20.0),
            z_values=(0.125,),
        ),
        Workload(
            name="volume-zsweep",
            why="3-D volume at eight distances: every point builds a new kernel, on the only Born/reconstruct_3d path",
            scene={
                **DESK_SCENE,
                "n_ris_x": 64,
                "n_ris_y": 64,
                "n_target_x": 4,
                "n_target_y": 4,
                "n_target_z": 4,
                "target_depth": 0.0625,
                "target_kind": "volume3d",
            },
            i_values=(128,),
            snr_values=(20.0,),
            z_values=(0.1, 0.125, 0.15, 0.175, 0.2, 0.25, 0.3, 0.4),
        ),
        Workload(
            name="desk-artifacts",
            why="keep_artifacts with a reused output dir: kernels come from the disk cache and masks/profiles are rewritten",
            scene=DESK_SCENE,
            i_values=(1024,),
            snr_values=(20.0,),
            z_values=(0.125, 0.25),
            keep_artifacts=True,
        ),
    )
}


def _axis(values) -> str:
    return ",".join("none" if v is None else repr(v) for v in values)


def write_inputs(
    workload: Workload, seed: int, directory: Path, output_dir: Path
) -> tuple[Path, int]:
    """Write ``scene.txt`` and ``plan.txt`` for one seed.

    Returns the plan path and the plan's noise seed, which is non-negative as
    the plan requires whatever the workload seed is.
    """
    rng = random.Random(seed)
    noise_seed = rng.randrange(2**31)
    snr_values = list(workload.snr_values)
    rng.shuffle(snr_values)

    directory.mkdir(parents=True, exist_ok=True)
    scene_lines = [f"{key} = {value}" for key, value in workload.scene.items()]
    (directory / "scene.txt").write_text("\n".join(scene_lines) + "\n")
    plan_lines = [
        "scene = scene.txt",
        "target = block",
        f"i_values = {_axis(workload.i_values)}",
        f"snr_values = {_axis(snr_values)}",
        f"z_values = {_axis(workload.z_values)}",
        f"seed = {noise_seed}",
        f"output_dir = {output_dir}",
        f"keep_artifacts = {str(workload.keep_artifacts).lower()}",
        "workers = 1",
    ]
    plan = directory / "plan.txt"
    plan.write_text("\n".join(plan_lines) + "\n")
    return plan, noise_seed
