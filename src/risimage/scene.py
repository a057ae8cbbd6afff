"""Experiment geometry: configuration, validation, sampling grids, resolution bounds.

All lengths are metres, angles radians (degrees only in config files), fields V/m.
The reflecting aperture is a rectangle centred at the origin of the z = 0 plane;
the target plane (or the near face of the target volume) lies parallel to it at
``target_distance`` on the +z side.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import (
    FarFieldViolation,
    MalformedConfig,
    MissingFile,
    NearFieldViolation,
    NonPositiveDimension,
    WavenumberOverflow,
)

PLANE_2D = "plane2d"
VOLUME_3D = "volume3d"


@dataclass(frozen=True)
class SceneConfig:
    """Geometry, sampling, and power description of one experiment.

    ``n_ris_x * n_ris_y`` reflecting samples cover the aperture;
    ``n_target_x * n_target_y`` pixels (times ``n_target_z`` slices over
    ``target_depth`` for volume targets) cover the target region.
    ``reflection_coeff`` is the surface reflection coefficient of a 2D
    target (-1 for a perfect conductor) and is ignored for volumes. A scene
    file sets each field by its declared type (:func:`read_fields`).
    """

    wavelength: float
    ris_len_x: float
    ris_len_y: float
    target_len_x: float
    target_len_y: float
    target_distance: float
    incident_elevation: float
    receiver_pos: tuple[float, float, float]
    n_ris_x: int
    n_ris_y: int
    n_target_x: int
    n_target_y: int
    n_target_z: int = 1
    target_depth: float = 0.0
    target_kind: str = PLANE_2D
    incident_amplitude: float = 1.0
    amplification: float = 1.0
    reflection_coeff: complex = -1.0 + 0.0j

    @property
    def n_target(self) -> int:
        """Target sample count: pixels, times slices for a volume."""
        n = self.n_target_x * self.n_target_y
        return n * self.n_target_z if self.target_kind == VOLUME_3D else n


@dataclass(frozen=True)
class ValidatedScene:
    """A :class:`SceneConfig` that passed :func:`validate_scene`; immutable."""

    config: SceneConfig

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.config.wavelength

    @property
    def wavenumber_squared(self) -> float:
        """k^2, the Born field scale; :class:`WavenumberOverflow` when a tiny
        wavelength makes it too large for a float."""
        try:
            return self.wavenumber**2
        except OverflowError as exc:
            raise WavenumberOverflow(
                f"the squared wavenumber at wavelength {self.config.wavelength!r} m is too large for a float"
            ) from exc

    @property
    def angular_frequency(self) -> float:
        return 2.0 * math.pi * SPEED_OF_LIGHT / self.config.wavelength

    @property
    def n_ris(self) -> int:
        return self.config.n_ris_x * self.config.n_ris_y

    @property
    def n_target(self) -> int:
        return self.config.n_target

    @property
    def is_3d(self) -> bool:
        return self.config.target_kind == VOLUME_3D

    @property
    def rayleigh_distance(self) -> float:
        cfg = self.config
        return 2.0 * (cfg.ris_len_x**2 + cfg.ris_len_y**2) / cfg.wavelength

    @property
    def receiver_far_field_bound(self) -> float:
        """Far-field distance of the target aperture, 2 D^2 / lambda with D its
        larger side (50 m for a 0.5 m square at 0.01 m wavelength)."""
        cfg = self.config
        return 2.0 * max(cfg.target_len_x, cfg.target_len_y) ** 2 / cfg.wavelength

    @property
    def receiver_target_distance(self) -> float:
        """Distance from the receiver to the target-region centre."""
        cfg = self.config
        centre_z = cfg.target_distance
        if cfg.target_kind == VOLUME_3D:
            centre_z += cfg.target_depth / 2.0
        x_r, y_r, z_r = cfg.receiver_pos
        return math.sqrt(x_r**2 + y_r**2 + (z_r - centre_z) ** 2)

    @property
    def ris_cell_area(self) -> float:
        cfg = self.config
        return (cfg.ris_len_x / cfg.n_ris_x) * (cfg.ris_len_y / cfg.n_ris_y)

    @property
    def target_cell_measure(self) -> float:
        """Pixel area for plane targets, voxel volume for volume targets."""
        cfg = self.config
        area = (cfg.target_len_x / cfg.n_target_x) * (cfg.target_len_y / cfg.n_target_y)
        if cfg.target_kind == VOLUME_3D:
            return area * (cfg.target_depth / cfg.n_target_z)
        return area

    @property
    def fingerprint(self) -> str:
        return fingerprint(self.config)


@dataclass(frozen=True)
class SampleGrids:
    """Deterministic cell-centred sample points for one validated scene.

    Point ordering is x-fastest, then y, then z: flat index
    ``m = ix + nx * (iy + ny * iz)``. Arrays are read-only.
    """

    ris_points: np.ndarray  # (N, 3)
    target_points: np.ndarray  # (M, 3)
    ris_cell_area: float
    target_cell_measure: float


# The kernels divide by R^3 (plane) and R^5 (volume), with R >= z'. Below this
# distance z'^5 is not a normal double, and those terms overflow.
MIN_TARGET_DISTANCE = sys.float_info.min**0.2


def _finite(compute) -> float:
    """``compute()``, or inf where Python's float ``**`` raises OverflowError
    instead of returning inf."""
    try:
        return compute()
    except OverflowError:
        return math.inf


def check_scene_dimensions(cfg: SceneConfig) -> None:
    """The checks of :func:`validate_scene` that hold at every target distance.

    Raises :class:`NonPositiveDimension` for a length other than
    ``target_distance``, wavelength, power ratio or volume depth that is not
    a finite number > 0, a sample count that is not a positive integer, or a
    derived Rayleigh distance, far-field bound or cell size that is not a
    finite number > 0 (a cell too small for a double is zero), and
    :class:`MalformedConfig` for an unknown ``target_kind``, a receiver
    coordinate or the receiver's distance from the aperture centre that is
    not finite, a ``reflection_coeff`` that is not a number of magnitude at
    most 1, an ``incident_amplitude`` that is not finite and nonzero, or an
    ``incident_elevation`` not strictly between -90 and 90 degrees.
    """
    positive_lengths = {
        "wavelength": cfg.wavelength,
        "ris_len_x": cfg.ris_len_x,
        "ris_len_y": cfg.ris_len_y,
        "target_len_x": cfg.target_len_x,
        "target_len_y": cfg.target_len_y,
        "amplification": cfg.amplification,
    }
    for name, value in positive_lengths.items():
        if not 0.0 < value < math.inf:
            raise NonPositiveDimension(f"{name} must be a finite number > 0, got {value!r}")
    counts = {
        "n_ris_x": cfg.n_ris_x,
        "n_ris_y": cfg.n_ris_y,
        "n_target_x": cfg.n_target_x,
        "n_target_y": cfg.n_target_y,
    }
    if cfg.target_kind == VOLUME_3D:
        counts["n_target_z"] = cfg.n_target_z
        if not 0.0 < cfg.target_depth < math.inf:
            raise NonPositiveDimension(
                f"target_depth must be a finite number > 0 for {VOLUME_3D}, got {cfg.target_depth!r}"
            )
    for name, value in counts.items():
        if not (isinstance(value, int) and value > 0):
            raise NonPositiveDimension(f"{name} must be a positive integer, got {value!r}")
    if cfg.target_kind not in (PLANE_2D, VOLUME_3D):
        raise MalformedConfig(f"unknown target_kind {cfg.target_kind!r}")
    if not all(map(math.isfinite, cfg.receiver_pos)):
        raise MalformedConfig(f"receiver coordinates must be finite, got {cfg.receiver_pos!r}")
    # a zero amplitude or a grazing incidence leaves no incident field to shape
    if not (math.isfinite(cfg.incident_amplitude) and cfg.incident_amplitude != 0.0):
        raise MalformedConfig(f"incident_amplitude must be finite and nonzero, got {cfg.incident_amplitude!r}")
    if not abs(cfg.incident_elevation) < math.pi / 2:
        raise MalformedConfig(
            f"incident_elevation must lie strictly between -90 and 90 degrees, "
            f"got {math.degrees(cfg.incident_elevation)!r}"
        )
    # a passive surface reflects no more than reaches it (the paper's conductors have -1)
    if not abs(cfg.reflection_coeff) <= 1.0:
        raise MalformedConfig(f"reflection_coeff must have magnitude at most 1, got {cfg.reflection_coeff!r}")
    scene = ValidatedScene(cfg)
    for name in ("rayleigh_distance", "receiver_far_field_bound", "ris_cell_area", "target_cell_measure"):
        value = _finite(lambda: getattr(scene, name))
        if not 0.0 < value < math.inf:
            raise NonPositiveDimension(f"the derived {name} must be a finite number > 0, got {value!r}")
    if not _finite(lambda: math.sqrt(sum(c**2 for c in cfg.receiver_pos))) < math.inf:
        raise MalformedConfig(
            f"the receiver's distance from the aperture centre must be finite, got {cfg.receiver_pos!r}"
        )


def check_target_distance(z_prime) -> None:
    """A target distance must be a finite number of at least
    :data:`MIN_TARGET_DISTANCE` (NaN and None are not)."""
    if z_prime is None or not 0.0 < z_prime < math.inf:
        raise NonPositiveDimension(f"target_distance must be a finite number > 0, got {z_prime!r}")
    if z_prime < MIN_TARGET_DISTANCE:
        raise NonPositiveDimension(
            f"target_distance must be at least {MIN_TARGET_DISTANCE!r} m for finite kernel entries, got {z_prime!r}"
        )


def validate_scene(cfg: SceneConfig) -> ValidatedScene:
    """Check all geometric invariants and wrap the config.

    Runs :func:`check_scene_dimensions` and :func:`check_target_distance`,
    then the bounds that depend on the target distance.

    Raises
    ------
    NonPositiveDimension
        For any length, wavelength, sample count, or power ratio that is not
        a finite number > 0.
    MalformedConfig
        For a bad receiver, incidence or reflection value
        (:func:`check_scene_dimensions`).
    NearFieldViolation
        If the target is not strictly inside the aperture Rayleigh distance.
    FarFieldViolation
        If the receiver is not strictly beyond the target far-field bound.
    """
    check_scene_dimensions(cfg)
    check_target_distance(cfg.target_distance)

    scene = ValidatedScene(cfg)
    far_face = cfg.target_distance + (cfg.target_depth if cfg.target_kind == VOLUME_3D else 0.0)
    if not far_face < scene.rayleigh_distance:
        raise NearFieldViolation(
            f"target at {far_face} m is not inside the Rayleigh "
            f"distance {scene.rayleigh_distance} m"
        )
    if not _finite(lambda: scene.receiver_target_distance) < math.inf:
        raise MalformedConfig("the receiver's distance from the target centre must be finite")
    if not scene.receiver_target_distance > scene.receiver_far_field_bound:
        raise FarFieldViolation(
            f"receiver at {scene.receiver_target_distance} m from the target centre "
            f"is not beyond the far-field bound {scene.receiver_far_field_bound} m"
        )
    return scene


def _cell_centres(length: float, count: int) -> np.ndarray:
    # Cell-centred samples keep the quadrature weights exactly length/count.
    step = length / count
    return (np.arange(count) + 0.5) * step - length / 2.0


def sample_grids(scene: ValidatedScene) -> SampleGrids:
    """Uniform cell-centred grids over the aperture and the target region.

    Pure function of the configuration: byte-identical output across calls.
    """
    cfg = scene.config
    rx = _cell_centres(cfg.ris_len_x, cfg.n_ris_x)
    ry = _cell_centres(cfg.ris_len_y, cfg.n_ris_y)
    ris = np.column_stack(
        [
            np.tile(rx, cfg.n_ris_y),
            np.repeat(ry, cfg.n_ris_x),
            np.zeros(cfg.n_ris_x * cfg.n_ris_y),
        ]
    )

    tx = _cell_centres(cfg.target_len_x, cfg.n_target_x)
    ty = _cell_centres(cfg.target_len_y, cfg.n_target_y)
    if cfg.target_kind == VOLUME_3D:
        tz = cfg.target_distance + (np.arange(cfg.n_target_z) + 0.5) * (
            cfg.target_depth / cfg.n_target_z
        )
    else:
        tz = np.array([cfg.target_distance])
    nz = tz.size
    nxy = cfg.n_target_x * cfg.n_target_y
    target = np.column_stack(
        [
            np.tile(tx, cfg.n_target_y * nz),
            np.tile(np.repeat(ty, cfg.n_target_x), nz),
            np.repeat(tz, nxy),
        ]
    )

    ris.setflags(write=False)
    target.setflags(write=False)
    return SampleGrids(
        ris_points=ris,
        target_points=target,
        ris_cell_area=scene.ris_cell_area,
        target_cell_measure=scene.target_cell_measure,
    )


def aperture_half_sine(aperture: float, distance: float) -> float:
    """sin of half the angle the aperture subtends at the target centre."""
    return aperture / math.sqrt(aperture**2 + 4.0 * distance**2)


def resolution_from_sine(wavelength: float, half_sine: float) -> float:
    """Cross-range resolution from the subtended-angle sine: lambda / (2 sin)."""
    return wavelength / (2.0 * half_sine)


def resolution(scene: ValidatedScene) -> tuple[float, float]:
    """Cross-range resolution (dx, dy) of the mask spatial spectrum.

    Monotonically coarser as ``target_distance`` grows for a fixed aperture.
    """
    cfg = scene.config
    return (
        resolution_from_sine(cfg.wavelength, aperture_half_sine(cfg.ris_len_x, cfg.target_distance)),
        resolution_from_sine(cfg.wavelength, aperture_half_sine(cfg.ris_len_y, cfg.target_distance)),
    )


def fingerprint(cfg: SceneConfig) -> str:
    """Stable hex digest of every field that shapes kernels and grids."""
    parts = [f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg)]
    blob = ";".join(parts).encode()
    return hashlib.sha256(blob).hexdigest()


# --- declarative config file -------------------------------------------------
#
# Flat "key = value" lines, '#' comments. Keys are the field names of the
# dataclass a file describes, each value read by the field's declared type.


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _comma_list(parse):
    return lambda text: tuple(parse(item) for item in text.split(","))


# The parser of each field type a file can set, keyed by the annotation string
# that a dataclass records under ``from __future__ import annotations``.
_FIELD_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "float | None": float,  # None is the default, so a file never writes it
    "complex": lambda text: complex(text.replace(" ", "")),
    "bool": _parse_bool,
    "tuple[int, ...]": _comma_list(int),
    "tuple[float, ...]": _comma_list(float),
    # an SNR list, where "none" is a noiseless point
    "tuple[float | None, ...]": _comma_list(lambda item: None if item.strip().lower() == "none" else float(item)),
}


def parse_key_values(text: str) -> dict[str, str]:
    """Parse the flat key-value format shared by scene and plan files."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedConfig(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise MalformedConfig(f"line {lineno}: empty key or value in {raw!r}")
        if key in values:
            raise MalformedConfig(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def read_fields(cls, values: dict[str, str], what: str) -> dict:
    """Keyword arguments for dataclass ``cls`` from ``key = value`` texts.

    Each key names a field of ``cls``, and its text is parsed by the field's
    declared type. Raises :class:`MalformedConfig` naming the keys that no
    field of a readable type has, or the first text that does not parse;
    ``what`` names the source in the message.
    """
    parsers = {f.name: _FIELD_PARSERS[f.type] for f in fields(cls) if f.type in _FIELD_PARSERS}
    unknown = values.keys() - parsers.keys()
    if unknown:
        raise MalformedConfig(f"unknown {what} keys: {sorted(unknown)}")
    kwargs = {}
    for key, text in values.items():
        try:
            kwargs[key] = parsers[key](text)
        except ValueError as exc:
            raise MalformedConfig(f"bad {what} value for {key}: {exc}") from exc
    return kwargs


_RECEIVER_KEYS = ("receiver_x", "receiver_y", "receiver_z")


def parse_scene_config(text: str) -> SceneConfig:
    """Build a :class:`SceneConfig` from the declarative key-value format, where
    the receiver is given as receiver_x/_y/_z and incident_elevation in degrees."""
    values = parse_key_values(text)
    required = {f.name for f in fields(SceneConfig) if f.default is MISSING} - {"receiver_pos"}
    missing = required.union(_RECEIVER_KEYS) - values.keys()
    if missing:
        raise MalformedConfig(f"missing scene keys: {sorted(missing)}")
    try:
        receiver_pos = tuple(float(values.pop(key)) for key in _RECEIVER_KEYS)
    except ValueError as exc:
        raise MalformedConfig(f"bad scene value for the receiver: {exc}") from exc
    kwargs = read_fields(SceneConfig, values, "scene")
    kwargs["incident_elevation"] = math.radians(kwargs["incident_elevation"])
    return SceneConfig(receiver_pos=receiver_pos, **kwargs)


def read_config_text(path: str | Path) -> str:
    """Text of a scene or plan file; a missing file raises :class:`MissingFile`."""
    try:
        return Path(path).read_text()
    except FileNotFoundError as exc:
        raise MissingFile(f"no such config file: {path}") from exc


def load_scene_config(path: str | Path) -> SceneConfig:
    return parse_scene_config(read_config_text(path))


def with_target_distance(cfg: SceneConfig, z_prime: float) -> SceneConfig:
    """Copy of the config at a different target distance (sweep helper)."""
    return replace(cfg, target_distance=z_prime)
