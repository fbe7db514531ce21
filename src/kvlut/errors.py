"""Exception hierarchy shared by all kvlut modules.

Each error class carries a distinct CLI exit code so batch scripts can
dispatch on failure cause without parsing stderr.
"""

import numpy as np


class KvlutError(Exception):
    """Base class for all kvlut errors."""

    exit_code = 1


class IoError(KvlutError):
    """A required file is missing or unreadable."""

    exit_code = 3


class FormatError(KvlutError):
    """A binary artifact has the wrong length, magic, or version."""

    exit_code = 4


class CorruptRomError(FormatError):
    """Codebook ROM content violates its ordering invariants."""

    exit_code = 5


class CorruptCacheError(FormatError):
    """A quantized cache record holds an out-of-range index."""

    exit_code = 6


class InvalidDimensionError(KvlutError):
    """Vector length is not a power of two or does not match its peers."""

    exit_code = 7


class InvalidInputError(KvlutError):
    """Input data contains NaN/Inf or is otherwise unusable."""

    exit_code = 8


class NonConvergenceError(KvlutError):
    """The codebook solver failed to reach the requested residual."""

    exit_code = 9

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConfigConflictError(KvlutError):
    """Loaded artifacts disagree on (d, b) or other shared parameters."""

    exit_code = 10


class EmptyCalibrationError(KvlutError):
    """A calibration set contains no usable (nonzero) rows."""

    exit_code = 11


# -- input rules shared by every module ----------------------------------

def _check_power_of_two(d: int, what: str = "d") -> None:
    if d < 2 or d & (d - 1):
        raise InvalidDimensionError(f"{what} must be a power of 2 >= 2, got {d}")


def _check_shape(arr: np.ndarray, d: int | None, ndims: tuple[int, ...] = (2,),
                 what: str = "input") -> None:
    """arr has one of the allowed ndims and, when d is given, last axis d."""
    if arr.ndim not in ndims or (d is not None and arr.shape[-1] != d):
        width = "any" if d is None else d
        raise InvalidDimensionError(
            f"{what} needs ndim in {ndims} and width {width}, got shape {arr.shape}")


def _finite_array(x, d: int | None, ndims: tuple[int, ...] = (2,),
                  what: str = "input") -> np.ndarray:
    """x as float64, checked by _check_shape and then for non-finite values."""
    arr = np.asarray(x, dtype=np.float64)
    _check_shape(arr, d, ndims, what)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"non-finite values in {what}")
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of arr; arr's own flags are left alone (no copy)."""
    view = arr.view()
    view.setflags(write=False)
    return view


def _check_norms(norms: np.ndarray, what: str = "key norm") -> None:
    """Stored norms are neither NaN nor negative (+inf marks an overflow)."""
    norms = np.ravel(norms)
    bad = norms[~(norms >= 0)]
    if bad.size:
        raise InvalidInputError(f"{what} must be non-negative, got {bad}")


def _check_same_d(*named: tuple[str, int]) -> int:
    """The (name, d) pairs agree on d, which is returned."""
    if len({d for _, d in named}) > 1:
        raise InvalidDimensionError(
            "dimension mismatch: " + ", ".join(f"{n} d={d}" for n, d in named))
    return named[0][1]


def _layer_items(layers) -> list:
    """A mapping or iterable of (layer_id, CalibrationSet) as a non-empty list."""
    items = list(layers.items()) if hasattr(layers, "items") else list(layers)
    if not items:
        raise EmptyCalibrationError("no calibration layers supplied")
    return items
