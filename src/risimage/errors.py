"""Exception types shared across the imaging pipeline."""


class ImagingError(Exception):
    """Base class for every error raised by this package."""


class MalformedConfig(ImagingError, ValueError):
    """A scene or plan file could not be parsed."""


class MissingFile(ImagingError, FileNotFoundError):
    """An input file named by the user does not exist."""


class NonPositiveDimension(ImagingError, ValueError):
    """A length, wavelength, or power ratio that must be a finite number > 0 is not."""


class NearFieldViolation(ImagingError, ValueError):
    """Target distance is at or beyond the aperture Rayleigh distance."""


class FarFieldViolation(ImagingError, ValueError):
    """Receiver sits inside the far-field bound of the target aperture."""


class DimensionMismatch(ImagingError, ValueError):
    """Array shapes do not match the scene sampling."""


class CoincidentPoints(ImagingError, ValueError):
    """Field evaluation requested at zero source/observation separation."""


class NonFiniteKernel(ImagingError, ArithmeticError):
    """Kernel entries overflow: the wavelength and distances give no finite kernel."""


class WavenumberOverflow(ImagingError, ArithmeticError):
    """The wavenumber's square overflows: the wavelength gives no finite Born field scale."""


class KernelSizeError(ImagingError, MemoryError):
    """Kernel would exceed the configured entry cap; raised before allocation."""


class MaskSetSizeError(ImagingError, MemoryError):
    """A mask set would exceed the entry cap; raised before allocation."""


class CacheMismatch(ImagingError, ValueError):
    """A binary export is unreadable, truncated, or not of the requested scene."""


class UnsupportedOrder(ImagingError, ValueError):
    """Requested Hadamard order is outside the Sylvester family (powers of two)."""


class InsufficientMeasurements(ImagingError, ValueError):
    """Fewer measurements than sample points to encode."""


class EmptyMaskSet(ImagingError, ValueError):
    """A mask operation needs at least one mask vector."""


class SvdFailure(ImagingError, RuntimeError):
    """Singular value decomposition of the kernel did not converge."""


class ZeroSolution(ImagingError, ValueError):
    """Regularized inversion produced an identically zero coefficient vector,
    first for the row ``mask`` of a mask set."""

    def __init__(self, message: str, mask: int):
        super().__init__(message)
        self.mask = mask


class KindMismatch(ImagingError, ValueError):
    """2D/3D kinds of kernel, masks, and target do not agree."""


class EmptySet(ImagingError, ValueError):
    """A statistic was requested over an empty measurement set."""


class ZeroTruth(ImagingError, ValueError):
    """NMSE is undefined against an all-zero reference grid."""


class NonFiniteScore(ImagingError, ArithmeticError):
    """An NMSE overflowed: the estimate's error power is not a finite number."""


class MalformedRecords(ImagingError, ValueError):
    """A measurement CSV file does not follow the records layout."""


class MalformedImage(ImagingError, ValueError):
    """A target image file is not valid ASCII PGM (P2)."""


class SizeMismatch(ImagingError, ValueError):
    """Image size differs from the target grid and resampling is disabled."""


class MalformedVolume(ImagingError, ValueError):
    """A volume target file violates the (nx, ny, nz) + per-voxel layout."""
