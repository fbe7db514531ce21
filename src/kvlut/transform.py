"""Randomized Hadamard transform shared by the write and read paths.

The rotation is R = H_d diag(s) / sqrt(d): a per-coordinate sign flip followed
by a fast Walsh-Hadamard butterfly network.  It is orthonormal, so dot
products and norms survive it, while individual coordinates are mixed toward
N(0, 1/d) regardless of the input's coordinate structure.  Sign vectors come
from a documented splitmix64 generator so any implementation can reproduce
them from (d, seed).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (CorruptRomError, FormatError, InvalidDimensionError,
                     InvalidInputError, _check_power_of_two, _check_same_d,
                     _check_shape, _read_only)
from .opcount import OpCounter

__all__ = [
    "SignVector",
    "RotationSpec",
    "fwht",
    "rotate",
    "inverse_rotate",
    "splitmix64_stream",
    "random_signs",
    "serialize_signs",
    "deserialize_signs",
    "pack_sign_rom",
    "unpack_sign_rom",
    "write_sign_rom",
    "read_sign_rom",
]

_MASK64 = (1 << 64) - 1


def _check_positive_d(d: int) -> None:
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")


@dataclass(frozen=True)
class SignVector:
    """A {-1, +1} diagonal for one layer's rotation."""

    d: int
    signs: np.ndarray
    layer_id: int = 0

    def __post_init__(self) -> None:
        signs = np.asarray(self.signs, dtype=np.int8)
        _check_positive_d(self.d)
        _check_shape(signs, self.d, (1,), "sign vector")
        if not np.all(np.abs(signs) == 1):
            raise FormatError("sign entries must be exactly -1 or +1")
        if self.layer_id < 0:
            raise FormatError(f"layer_id must be non-negative, got {self.layer_id}")
        object.__setattr__(self, "signs", _read_only(signs))


@dataclass(frozen=True)
class RotationSpec:
    """Binds a sign vector to the d-point Hadamard butterfly it feeds."""

    d: int
    sign: SignVector

    def __post_init__(self) -> None:
        _check_power_of_two(self.d, "rotation dimension")
        _check_same_d(("rotation", self.d), ("sign vector", self.sign.d))


def _butterflies(y: np.ndarray, diff: np.ndarray) -> None:
    """The unscaled butterfly network, in place on a C-ordered (d, N) block.

    Column j of y is one vector.  Each of the log2(d) stages adds and
    subtracts whole contiguous blocks of N values; diff is scratch space of
    (d/2) * N elements, so a caller looping over many blocks allocates none.
    """
    d, n = y.shape
    h = 1
    while h < d:
        pairs = y.reshape(-1, 2, h, n)
        lo, hi = pairs[:, 0], pairs[:, 1]
        delta = np.subtract(lo, hi, out=diff.reshape(lo.shape))
        lo += hi
        hi[...] = delta
        h *= 2


def fwht(x: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """Orthonormal fast Walsh-Hadamard transform, H_d x / sqrt(d).

    Accepts a vector or a matrix of row vectors; the transform runs along the
    last axis as log2(d) butterfly stages of d/2 add/sub pairs each.  Each
    transformed vector records d*log2(d) additions and zero multiplications:
    the 1/sqrt(d) scaling is applied numerically here but costs nothing in the
    fixed-function datapath, where it folds into the design-time quantizer
    boundaries.

    The butterflies run in place on a transposed (d, N) copy, so every stage
    adds and subtracts whole contiguous blocks of N values; each output keeps
    the add order of the row-wise network and comes back C-contiguous.
    """
    arr = np.asarray(x, dtype=np.float64)
    _check_shape(arr, None, (1, 2))
    d = arr.shape[-1]
    _check_power_of_two(d, "transform length")

    rows = arr.reshape(-1, d)
    n = rows.shape[0]
    if n == 0:
        return arr.copy()
    stages = d.bit_length() - 1
    y = np.array(rows.T, order="C")
    _butterflies(y, np.empty((d // 2) * n))
    out = np.ascontiguousarray(y.T)
    out /= math.sqrt(d)

    if counter is not None:
        counter.add("transform", adds=n * d * stages)
    return out.reshape(arr.shape)


def rotate(spec: RotationSpec, x: np.ndarray,
           counter: OpCounter | None = None) -> np.ndarray:
    """Apply R = H_d diag(s) / sqrt(d) to a vector or to rows of a matrix.

    The sign flip is free in the counter model (a wiring choice on the adder
    network inputs), so the recorded cost is the butterfly's alone.
    """
    arr = np.asarray(x, dtype=np.float64)
    _check_shape(arr, spec.d, (1, 2))
    return fwht(arr * spec.sign.signs, counter)


def inverse_rotate(spec: RotationSpec, y: np.ndarray,
                   counter: OpCounter | None = None) -> np.ndarray:
    """Undo rotate(): R^-1 = R^T = diag(s) H_d / sqrt(d)."""
    arr = np.asarray(y, dtype=np.float64)
    _check_shape(arr, spec.d, (1, 2))
    return fwht(arr, counter) * spec.sign.signs


# -- sign generation ------------------------------------------------------

def splitmix64_stream(seed: int, n: int) -> list[int]:
    """First n outputs of the splitmix64 generator for a 64-bit seed."""
    state = seed & _MASK64
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out

def random_signs(d: int, seed: int, layer_id: int = 0) -> SignVector:
    """Deterministic sign vector from (d, seed) via splitmix64.

    One 64-bit draw covers 64 signs; bit j of draw w (bit 0 = LSB) gives sign
    64*w + j, with a set bit mapping to -1.  The convention matches the ROM
    encoding, so a generated vector serializes to the raw little-endian draw
    bytes truncated to d bits.
    """
    _check_positive_d(d)
    words = splitmix64_stream(seed, (d + 63) // 64)
    raw = b"".join(struct.pack("<Q", w) for w in words)
    return deserialize_signs(raw[:(d + 7) // 8], d, layer_id)


# -- serialization --------------------------------------------------------

def serialize_signs(s: SignVector) -> bytes:
    """Pack a sign vector as d bits, little-endian bit order, 0 -> +1."""
    bits = (s.signs < 0).astype(np.uint8)
    return np.packbits(bits, bitorder="little").tobytes()


def deserialize_signs(data: bytes, d: int, layer_id: int = 0) -> SignVector:
    """Inverse of serialize_signs; wrong byte count is a format error."""
    expected = (d + 7) // 8
    if len(data) != expected:
        raise FormatError(
            f"sign record for d={d} must be {expected} bytes, got {len(data)}")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                         bitorder="little")[:d]
    signs = (1 - 2 * bits.astype(np.int8)).astype(np.int8)
    return SignVector(d=d, signs=signs, layer_id=layer_id)


# -- multi-layer sign ROM -------------------------------------------------
#
# Container layout: 8-byte header (magic "SG", version 1, reserved 0, d as
# u16, layer count as u16, little-endian), then one packed sign record per
# layer in layer order.  At d=128 each record is 16 bytes.

_ROM_MAGIC = b"SG"
_ROM_VERSION = 1
_ROM_HEADER = struct.Struct("<2sBBHH")


def pack_sign_rom(signs: list[SignVector]) -> bytes:
    """Concatenate per-layer sign records under the .sgnrom header."""
    if not signs:
        raise FormatError("sign ROM needs at least one layer")
    d = _check_same_d(*((f"layer {i}", s.d) for i, s in enumerate(signs)))
    if max(d, len(signs)) > 0xFFFF:
        raise FormatError(f"sign ROM header holds d and the layer count as u16, "
                          f"got d={d} and {len(signs)} layers")
    header = _ROM_HEADER.pack(_ROM_MAGIC, _ROM_VERSION, 0, d, len(signs))
    return header + b"".join(serialize_signs(s) for s in signs)


class _SignRom(NamedTuple):
    """A .sgnrom image whose header and length are checked; records decode lazily."""

    data: bytes
    d: int
    count: int

    def layer(self, layer: int) -> SignVector:
        """Decode one layer's record; layer_id is its record position."""
        if not 0 <= layer < self.count:
            raise InvalidInputError(
                f"sign ROM holds layers 0..{self.count - 1}, requested {layer}")
        record = (self.d + 7) // 8
        start = _ROM_HEADER.size + layer * record
        return deserialize_signs(self.data[start:start + record], self.d, layer_id=layer)


def _parse_sign_rom(data: bytes) -> _SignRom:
    """Check a .sgnrom image's header and length, decoding no record."""
    if len(data) < _ROM_HEADER.size:
        raise FormatError(f"sign ROM truncated: {len(data)} bytes")
    magic, version, _, d, count = _ROM_HEADER.unpack_from(data)
    if magic != _ROM_MAGIC:
        raise CorruptRomError(f"bad sign ROM magic {magic!r}")
    if version != _ROM_VERSION:
        raise CorruptRomError(f"unsupported sign ROM version {version}")
    expected = _ROM_HEADER.size + count * ((d + 7) // 8)
    if len(data) != expected:
        raise FormatError(
            f"sign ROM for d={d} x {count} layers must be {expected} bytes, "
            f"got {len(data)}")
    if not count:
        raise FormatError("sign ROM needs at least one layer")
    _check_positive_d(d)
    return _SignRom(data, d, count)


def unpack_sign_rom(data: bytes) -> list[SignVector]:
    """Parse a .sgnrom image; layer_id is assigned from record position."""
    rom = _parse_sign_rom(data)
    return [rom.layer(i) for i in range(rom.count)]


def write_sign_rom(path, signs: list[SignVector]) -> None:
    data = pack_sign_rom(signs)
    with open(path, "wb") as fh:
        fh.write(data)


def read_sign_rom(path) -> list[SignVector]:
    with open(path, "rb") as fh:
        return unpack_sign_rom(fh.read())


def _open_sign_rom(path) -> _SignRom:
    """read_sign_rom's checks, decoding no record until one is asked for."""
    with open(path, "rb") as fh:
        return _parse_sign_rom(fh.read())
