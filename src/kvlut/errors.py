"""Exception hierarchy shared by all kvlut modules.

Each error class carries a distinct CLI exit code so batch scripts can
dispatch on failure cause without parsing stderr.
"""

from numbers import Real

import numpy as np

__all__ = [
    "KvlutError",
    "IoError",
    "FormatError",
    "CorruptRomError",
    "CorruptCacheError",
    "InvalidDimensionError",
    "InvalidInputError",
    "NonConvergenceError",
    "ConfigConflictError",
    "EmptyCalibrationError",
]


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

# The most float64 values (1 GiB) one call draws from sizes it was given:
# all the layers of a synthetic spec, or the Jensen probe's noise.
# bench-mults holds its zero query and keys, (T + 1) * d values, to it too.
_MAX_DRAWN_VALUES = 1 << 27


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


def _float64(x, what: str) -> np.ndarray:
    """x as a float64 array, else InvalidInputError naming `what`: numpy must
    read x as real numbers (dtype kind biuf, load_key_matrix's rule, or object
    of numbers.Real, as Python ints past int64 give; not strings, which numpy
    would parse, nor complex), and none past the float64 range (10**400)."""
    raw = np.asarray(x)
    kind = raw.dtype.kind
    if not (kind in "biuf" or kind == "O" and all(isinstance(v, Real) for v in raw.flat)):
        raise InvalidInputError(f"{what} holds dtype {raw.dtype}, not real numbers")
    try:
        return np.asarray(raw, dtype=np.float64)
    except OverflowError as exc:
        raise InvalidInputError(f"{what}: a value past the float64 range") from exc


def _finite_array(x, d: int | None, ndims: tuple[int, ...] = (2,),
                  what: str = "input") -> np.ndarray:
    """x as float64 (_float64), checked by _check_shape and then for non-finite values."""
    arr = _float64(x, what)
    _check_shape(arr, d, ndims, what)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"non-finite values in {what}")
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of arr; arr's own flags are left alone (no copy)."""
    view = arr.view()
    view.setflags(write=False)
    return view


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
