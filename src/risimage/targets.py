"""Target sources: ASCII PGM images, volume text files, and built-in patterns.

Grid convention: flat target vectors are x-fastest then y (then z), with y
increasing upward, while image row 0 is the top of the picture; loaders and
writers flip rows accordingly so pictures look the way they were drawn.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .em_core import text_file_writer
from .errors import MalformedImage, MalformedVolume, MissingFile, SizeMismatch
from .measurement import TargetModel, contrast_from_materials, make_target_2d, make_target_3d
from .scene import ValidatedScene

BUILTIN_NAMES = ("block", "checkerboard", "letters-seu")

# Grey levels of every image this package writes.
PGM_MAXVAL = 255
# The text of each grey level and the separator after it, indexed by the
# level: a space within a row, then (from PGM_MAXVAL + 1 on) a newline that
# ends the row.
_LEVELS = np.array(
    [f"{level} " for level in range(PGM_MAXVAL + 1)] + [f"{level}\n" for level in range(PGM_MAXVAL + 1)],
    dtype=object,
)

_SEU_ROWS = (
    ".####.#####.#...#",
    "#.....#.....#...#",
    "#.....#.....#...#",
    ".###..####..#...#",
    "....#.#.....#...#",
    "....#.#.....#...#",
    "####..#####..###.",
)


# --- ASCII PGM (P2) ---------------------------------------------------------------


def read_pgm(path: str | Path) -> tuple[np.ndarray, int]:
    """Read an ASCII PGM (P2) image into ((rows, cols) int array, maxval)."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise MalformedImage(f"{path}: not an ASCII image") from exc
    tokens: list[str] = []
    for line in text.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    if not tokens or tokens[0] != "P2":
        raise MalformedImage(f"{path}: expected magic 'P2', got {tokens[:1]!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
        pixels = np.array([int(t) for t in tokens[4:]], dtype=np.int64)
    except (ValueError, IndexError) as exc:
        raise MalformedImage(f"{path}: unreadable header or pixels") from exc
    if width <= 0 or height <= 0 or maxval <= 0:
        raise MalformedImage(f"{path}: non-positive dimensions or maxval")
    if pixels.size != width * height:
        raise MalformedImage(f"{path}: {pixels.size} pixels for {width}x{height} image")
    if pixels.min() < 0 or pixels.max() > maxval:
        raise MalformedImage(f"{path}: pixel values outside 0..{maxval}")
    return pixels.reshape(height, width), maxval


def write_pgm(path: str | Path, image: np.ndarray, comment: str | None = None) -> None:
    """Write an (rows, cols) integer array in 0..PGM_MAXVAL as ASCII PGM (P2):
    the header lines, then a line of space-separated levels per row, taken
    from their precomputed text in one join, written anew
    (``em_core.text_file_writer``)."""
    image = np.asarray(image, dtype=np.int64)
    if image.ndim != 2 or image.size == 0:
        raise MalformedImage(f"expected a nonempty 2D image, got shape {image.shape}")
    if image.min() < 0 or image.max() > PGM_MAXVAL:  # read_pgm would reject the file
        raise MalformedImage(f"pixel values outside 0..{PGM_MAXVAL}")
    rows, cols = image.shape
    levels = image.copy()
    levels[:, -1] += PGM_MAXVAL + 1  # the last level of a row ends it
    header = f"P2\n# {comment}\n" if comment else "P2\n"
    with text_file_writer(path) as fh:
        fh.write(f"{header}{cols} {rows}\n{PGM_MAXVAL}\n" + "".join(_LEVELS[levels].ravel().tolist()))


def write_grid_image(path: str | Path, grid: np.ndarray) -> None:
    """Map a real-valued (nx, ny) target grid linearly onto 0..PGM_MAXVAL grey levels.

    The min/max of the mapping are recorded in a comment so values stay
    recoverable; the y axis is flipped into image rows.
    """
    grid = np.asarray(grid, dtype=float)
    low, high = float(grid.min()), float(grid.max())
    span = high - low
    scaled = np.zeros_like(grid) if span == 0.0 else (grid - low) / span * PGM_MAXVAL
    image = np.rint(scaled.T[::-1, :]).astype(np.int64)  # (ny, nx), row 0 = top
    write_pgm(path, image, comment=f"min={low!r} max={high!r}")


def _nearest_resample(image: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    rows, cols = image.shape
    out_cols, out_rows = shape  # shape is (nx, ny)
    row_index = ((np.arange(out_rows) + 0.5) * rows / out_rows).astype(int).clip(0, rows - 1)
    col_index = ((np.arange(out_cols) + 0.5) * cols / out_cols).astype(int).clip(0, cols - 1)
    return image[np.ix_(row_index, col_index)]


def load_target_2d(path: str | Path, scene: ValidatedScene, resample: bool = True) -> TargetModel:
    """Plane target from an ASCII PGM: binarise at half maxval, fit to the grid.

    Pixels at or above 0.5 * maxval become 1. With ``resample`` disabled the
    image must match the grid exactly. The reflection coefficient is the scene's.
    """
    image, maxval = read_pgm(path)
    shape = (scene.config.n_target_x, scene.config.n_target_y)
    if image.shape != (shape[1], shape[0]):
        if not resample:
            raise SizeMismatch(
                f"{path}: image is {image.shape[1]}x{image.shape[0]}, grid needs {shape[0]}x{shape[1]}"
            )
        image = _nearest_resample(image, shape)
    binary = (image >= 0.5 * maxval).astype(float)
    values = binary[::-1, :].reshape(-1)  # rows flipped to y-up, x-fastest
    return make_target_2d(values, shape, scene.config.reflection_coeff)


def load_target_3d(path: str | Path, scene: ValidatedScene) -> TargetModel:
    """Volume target from a text file: 'nx ny nz' then per-voxel 'eps_r sigma' pairs.

    Voxels are listed x-fastest, then y, then z. The contrast uses the angular
    frequency implied by the scene wavelength.
    """
    try:
        tokens = Path(path).read_text().split()
    except UnicodeDecodeError as exc:
        raise MalformedVolume(f"{path}: not a text volume file") from exc
    if len(tokens) < 3:
        raise MalformedVolume(f"{path}: missing 'nx ny nz' header")
    try:
        nx, ny, nz = (int(t) for t in tokens[:3])
        values = np.array([float(t) for t in tokens[3:]], dtype=float)
    except ValueError as exc:
        raise MalformedVolume(f"{path}: non-numeric content") from exc
    if nx <= 0 or ny <= 0 or nz <= 0:
        raise MalformedVolume(f"{path}: non-positive voxel counts {nx} {ny} {nz}")
    expected = 2 * nx * ny * nz
    if values.size != expected:
        raise MalformedVolume(f"{path}: {values.size} values, expected {expected}")
    cfg = scene.config
    if (nx, ny, nz) != (cfg.n_target_x, cfg.n_target_y, cfg.n_target_z):
        raise SizeMismatch(
            f"{path}: volume is {nx}x{ny}x{nz}, scene grid is "
            f"{cfg.n_target_x}x{cfg.n_target_y}x{cfg.n_target_z}"
        )
    eps_r = values[0::2]
    sigma = values[1::2]
    if np.any(eps_r < 1.0):
        raise MalformedVolume(f"{path}: relative permittivity below 1")
    if np.any(sigma < 0.0):
        raise MalformedVolume(f"{path}: negative conductivity")
    contrast = contrast_from_materials(eps_r, sigma, scene.angular_frequency)
    return make_target_3d(contrast, (nx, ny, nz))


# --- built-in patterns ------------------------------------------------------------


def _pattern_2d(name: str, nx: int, ny: int) -> np.ndarray:
    grid = np.zeros((nx, ny))
    if name == "block":
        x0, x1 = nx // 4, nx - nx // 4
        y0, y1 = ny // 4, ny - ny // 4
        grid[x0:x1, y0:y1] = 1.0
    elif name == "checkerboard":
        ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        grid = ((ix + iy) % 2).astype(float)
    elif name == "letters-seu":
        bitmap = np.array(
            [[1.0 if ch == "#" else 0.0 for ch in row] for row in _SEU_ROWS]
        )  # (rows, cols), row 0 = top
        resampled = _nearest_resample(bitmap, (nx, ny))
        grid = resampled[::-1, :].T  # y-up, (nx, ny)
    else:
        raise ValueError(f"unknown built-in target {name!r}; choose from {BUILTIN_NAMES}")
    return grid


def builtin_target(name: str, scene: ValidatedScene) -> TargetModel:
    """Deterministic built-in pattern fitted to the scene's target grid.

    For volume scenes the pattern is extruded along z with relative
    permittivity 2 and zero conductivity inside the pattern (contrast 1).
    """
    cfg = scene.config
    grid = _pattern_2d(name, cfg.n_target_x, cfg.n_target_y)
    if not scene.is_3d:
        return make_target_2d(
            grid.reshape(-1, order="F"), (cfg.n_target_x, cfg.n_target_y), cfg.reflection_coeff
        )
    slice_values = grid.reshape(-1, order="F")
    contrast = np.tile(slice_values, cfg.n_target_z).astype(np.complex128)
    return make_target_3d(contrast, (cfg.n_target_x, cfg.n_target_y, cfg.n_target_z))


def check_target_spec(spec: str) -> None:
    """Raise :class:`MissingFile` unless ``spec`` is a built-in name or a file."""
    if spec not in BUILTIN_NAMES and not Path(spec).is_file():
        raise MissingFile(f"target {spec!r} is neither a built-in name {BUILTIN_NAMES} nor a file")


def resolve_target(spec: str, scene: ValidatedScene) -> TargetModel:
    """Target from a built-in name or a file path: a volume text file for a
    volume scene, whatever its name, and a PGM image for a plane scene."""
    if spec in BUILTIN_NAMES:
        return builtin_target(spec, scene)
    check_target_spec(spec)
    if scene.is_3d:
        return load_target_3d(Path(spec), scene)
    return load_target_2d(Path(spec), scene)
