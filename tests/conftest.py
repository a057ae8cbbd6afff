"""Shared scene builders for the test suite.

Two desk-scale 2D geometries are used throughout (N = 32x32, M = 16x16,
lambda = 0.01 m, a = b = 0.25 m, aperture-angle sines within 0.2425..0.7071):

* ``desk_config`` - pixel pitch comparable to the cross-range resolution,
  used for synthesis quality, covariance, and trend experiments;
* ``desk_proportional_config`` - target shrunk by the same factor as the
  aperture, used for singular-spectrum experiments.

Smaller variants of the same scenes keep unit tests fast.
"""

import math
import tracemalloc

import numpy as np
import pytest

from risimage import ris_synthesis as rs
from risimage import scene as sc

DESK_RECEIVER = (5.0, 5.0, -1.25)
DESK_Z_VALUES = (0.125, 0.25, 0.5)  # aperture half-sines 0.7071, 0.4472, 0.2425


def desk_config(z_prime=0.125, **overrides):
    base = dict(
        wavelength=0.01,
        ris_len_x=0.25,
        ris_len_y=0.25,
        target_len_x=0.125,
        target_len_y=0.125,
        target_distance=z_prime,
        incident_elevation=math.radians(30.0),
        receiver_pos=DESK_RECEIVER,
        n_ris_x=32,
        n_ris_y=32,
        n_target_x=16,
        n_target_y=16,
    )
    base.update(overrides)
    return sc.SceneConfig(**base)


def desk_proportional_config(z_prime=0.125, **overrides):
    return desk_config(z_prime, target_len_x=0.0625, target_len_y=0.0625, **overrides)


def small_config(z_prime=0.125, n_target=8, n_ris=16, **overrides):
    return desk_config(
        z_prime,
        n_ris_x=n_ris,
        n_ris_y=n_ris,
        n_target_x=n_target,
        n_target_y=n_target,
        **overrides,
    )


def volume_config(z_prime=0.125, n_xy=2, n_z=2, n_ris=16, **overrides):
    base = dict(
        target_kind=sc.VOLUME_3D,
        n_ris_x=n_ris,
        n_ris_y=n_ris,
        n_target_x=n_xy,
        n_target_y=n_xy,
        n_target_z=n_z,
        target_depth=0.0625,
    )
    base.update(overrides)
    return desk_config(z_prime, **base)


@pytest.fixture(scope="session")
def desk_scene():
    scene = sc.validate_scene(desk_config())
    return scene, sc.sample_grids(scene)


@pytest.fixture(scope="session")
def small_scene():
    scene = sc.validate_scene(small_config())
    return scene, sc.sample_grids(scene)


@pytest.fixture(scope="session")
def volume_scene():
    scene = sc.validate_scene(volume_config())
    return scene, sc.sample_grids(scene)


def published_config(**overrides):
    """The published experiment geometry (only used for validation checks)."""
    base = dict(
        wavelength=0.01,
        ris_len_x=2.0,
        ris_len_y=2.0,
        target_len_x=0.5,
        target_len_y=0.5,
        target_distance=4.0,
        incident_elevation=math.radians(30.0),
        receiver_pos=(40.0, 40.0, -10.0),
        n_ris_x=8,
        n_ris_y=8,
        n_target_x=4,
        n_target_y=4,
    )
    base.update(overrides)
    return sc.SceneConfig(**base)


def normalized_correlation(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    return float((a @ b) / np.sqrt((a @ a) * (b @ b)))


def normalized_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float((a @ b) / np.sqrt((a @ a) * (b @ b)))


def peak_traced_bytes(fn):
    """Run ``fn()``; return the peak bytes traced by ``tracemalloc`` meanwhile, and its result.

    numpy reports its array buffers to ``tracemalloc``, so the peak counts
    every temporary and the result itself.
    """
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


def realize_with_values(inv, masks, amplification, readers=()):
    """``realize_masks`` of ``masks`` with ``readers``, and the complex realized
    masks its pass hands to every reader, copied block by block into one
    (I, M) array.

    A realized plane set keeps only the magnitudes of its masks, so tests that
    compare the complex masks read them here, as the fields and the export do.
    The pass hands over the set's distinct rows, which the array repeats.
    """
    values = np.empty((masks.count, masks.points), dtype=complex)

    def keep(rows, block, *_):
        values[rows] = block

    realized = rs.realize_masks(inv, masks, amplification, [*readers, keep])
    distinct = realized.distinct_rows
    values.reshape(-1, distinct, masks.points)[1:] = values[:distinct]
    return realized, values
