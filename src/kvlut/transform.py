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
import operator
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (CorruptRomError, FormatError, InvalidInputError,
                     _check_power_of_two, _check_same_d, _check_shape, _float64,
                     _read_only)
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


@dataclass(frozen=True)
class SignVector:
    """A {-1, +1} diagonal for one layer's rotation; d is the rotation's, a power of 2."""

    d: int
    signs: np.ndarray
    layer_id: int = 0

    def __post_init__(self) -> None:
        raw = np.asarray(self.signs)
        _check_power_of_two(self.d, "sign vector d")
        _check_shape(raw, self.d, (1,), "sign vector")
        # Checked before the int8 cast, which would truncate 1.5 and wrap 257.
        if not np.all((raw == 1) | (raw == -1)):
            raise FormatError("sign entries must be exactly -1 or +1")
        if self.layer_id < 0:
            raise FormatError(f"layer_id must be non-negative, got {self.layer_id}")
        object.__setattr__(self, "signs", _read_only(np.asarray(raw, dtype=np.int8)))


@dataclass(frozen=True)
class RotationSpec:
    """Binds a sign vector to the d-point Hadamard butterfly it feeds; SignVector checks d."""

    d: int
    sign: SignVector

    def __post_init__(self) -> None:
        _check_same_d(("rotation", self.d), ("sign vector", self.sign.d))


# Bytes per row tile of the batched kernels, counted over each caller's
# widest per-row temporary (8*d for a float64 row).  A 4,096 x 128 float64
# temporary (4 MiB) is handed back to the kernel when freed and page-faulted
# in again on the next call; 256 KiB tiles are reused from the heap instead.
# At 512 KiB a fresh process still faults on every double query, as the heap
# trims at a lower mark there.  Every kernel step is row-independent, so the
# tile size changes no bit.  This module owns the tiling: the transform, the
# write and read paths, the record codec and the oracle run over _row_tiles.
_TILE_BYTES = 1 << 18


def _row_tiles(n: int, row_bytes: int):
    """Row slices covering range(n), each at most max(1, _TILE_BYTES // row_bytes) rows.

    row_bytes is the size of the caller's widest per-row temporary.  n = 0
    gives one empty slice, so a loop over the tiles runs once on no rows.
    """
    step = max(1, _TILE_BYTES // row_bytes)
    for start in range(0, max(n, 1), step):
        yield slice(start, min(start + step, n))


def _butterflies(y: np.ndarray, scratch: np.ndarray) -> None:
    """The unscaled butterfly network, in place on a C-ordered (d, N) block.

    Column j of y is one vector.  Each of the log2(d) stages adds and
    subtracts whole contiguous blocks of N values in place: it copies hi into
    scratch, (d/2) * N elements, writes lo - hi over hi, then adds the copy
    into lo.  Each output is the same IEEE a + b or a - b as a separate sum
    and difference would give.  With both halves updated in place, the
    subtract reads and writes two arrays rather than three, which numpy runs
    faster on row tiles.  A caller looping over many blocks reuses one
    scratch.
    """
    d, n = y.shape
    h = 1
    while h < d:
        pairs = y.reshape(-1, 2, h, n)
        lo, hi = pairs[:, 0], pairs[:, 1]
        saved = scratch.reshape(hi.shape)
        saved[...] = hi
        np.subtract(lo, hi, out=hi)
        lo += saved
        h *= 2


def _rotate_block(src_t: np.ndarray, signs: np.ndarray | None, out: np.ndarray,
                  y: np.ndarray, scratch: np.ndarray) -> None:
    """Write H_d diag(signs) v / sqrt(d) into out for each column v of src_t.

    The rotation's only kernel: fwht and rotate run it on each row tile
    (_rotate_rows), the sign search on each candidate.  src_t is a (d, m)
    view and out the (m, d) result; signs None is the plain transform.  The
    flipped copy and the butterflies run in the (d, m) buffer y, with scratch
    as the butterflies' scratch.

    numpy's buffered ufunc loop copies an operand through its buffer (8,192
    elements by default) when its contiguous run is shorter than half the
    buffer; the flip runs in runs of m values and butterfly stage h in runs
    of h * m (at m = 512 the flip and stages 1, 2 and 4 would be copied).
    So both run under a buffer of 16 * (m // 16) (numpy takes only
    multiples of 16: 2.4.6 rejects 100), left alone below 16 or at or above
    the current size, and restored in a finally.
    Elementwise ufuncs give the same bits at any buffer size, but a casting
    reduction does not, so no reduction may run in that scope.
    """
    d, m = y.shape
    size, old = 16 * (m // 16), np.getbufsize()
    scoped = 16 <= size < old
    if scoped:
        np.setbufsize(size)
    try:
        if signs is None:
            np.copyto(y, src_t)
        else:
            np.multiply(src_t, signs[:, None], out=y)
        _butterflies(y, scratch)
    finally:
        if scoped:
            np.setbufsize(old)
    np.divide(y.T, math.sqrt(d), out=out)


def _rotate_rows(arr: np.ndarray, signs: np.ndarray | None,
                 counter: OpCounter | None) -> np.ndarray:
    """arr's rows through _rotate_block, one row tile (_row_tiles) at a time.

    The tile buffer and the butterflies' scratch are allocated once and
    reused.  Rows are independent and keep the row-wise network's add order,
    so the tiling changes no bit.
    """
    d = arr.shape[-1]
    rows = arr.reshape(-1, d)
    n = rows.shape[0]
    if n == 0:
        return arr.copy()
    widest = next(_row_tiles(n, 8 * d)).stop
    buf, scratch = np.empty(d * widest), np.empty((d // 2) * widest)
    out = np.empty((n, d))
    for tile in _row_tiles(n, 8 * d):
        m = tile.stop - tile.start
        _rotate_block(rows[tile].T, signs, out[tile], buf[:d * m].reshape(d, m),
                      scratch[:(d // 2) * m])
    if counter is not None:
        counter.add("transform", adds=n * d * (d.bit_length() - 1))
    return out.reshape(arr.shape)


def fwht(x: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """Orthonormal fast Walsh-Hadamard transform, H_d x / sqrt(d).

    Accepts a vector or a matrix of row vectors; the transform runs along the
    last axis as log2(d) butterfly stages of d/2 add/sub pairs each.  Each
    transformed vector records d*log2(d) additions and zero multiplications:
    the 1/sqrt(d) scaling is applied numerically here but costs nothing in the
    fixed-function datapath, where it folds into the design-time quantizer
    boundaries.
    """
    arr = _float64(x, "transform input")
    _check_shape(arr, None, (1, 2))
    _check_power_of_two(arr.shape[-1], "transform length")
    return _rotate_rows(arr, None, counter)


def rotate(spec: RotationSpec, x: np.ndarray,
           counter: OpCounter | None = None) -> np.ndarray:
    """Apply R = H_d diag(s) / sqrt(d) to a vector or to rows of a matrix.

    The sign flip is free in the counter model (a wiring choice on the adder
    network inputs), so the recorded cost is the butterfly's alone.  Each
    row tile is flipped as it is copied into the butterflies' buffer, so no
    flipped copy of the whole block is made.
    """
    arr = _float64(x, "rotation input")
    _check_shape(arr, spec.d, (1, 2))
    return _rotate_rows(arr, spec.sign.signs, counter)


def inverse_rotate(spec: RotationSpec, y: np.ndarray,
                   counter: OpCounter | None = None) -> np.ndarray:
    """Undo rotate(): R^-1 = R^T = diag(s) H_d / sqrt(d)."""
    arr = _float64(y, "rotated input")
    _check_shape(arr, spec.d, (1, 2))
    out = fwht(arr, counter)
    out *= spec.sign.signs
    return out


# -- sign generation ------------------------------------------------------

def _seed64(seed: int) -> int:
    """The 64-bit seed an integer names: every kvlut seed is read modulo 2^64.

    So -1 and 2^64 - 1 are one seed, for the sign stream and for numpy's
    generators alike, and no seed is rejected.
    """
    return operator.index(seed) & _MASK64


def splitmix64_stream(seed: int, n: int) -> list[int]:
    """First n outputs of the splitmix64 generator for a 64-bit seed."""
    state = _seed64(seed)
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
    _check_power_of_two(d, "sign vector d")
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
    _check_power_of_two(d, "sign vector d")
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


def _check_rom_header(d: int, count: int) -> None:
    """A .sgnrom header: at least one layer, then SignVector's d rule, then both u16."""
    if count < 1:
        raise FormatError("sign ROM needs at least one layer")
    _check_power_of_two(d, "sign ROM d")
    if max(d, count) > 0xFFFF:
        raise FormatError(f"sign ROM header holds d and the layer count as u16, "
                          f"got d={d} and {count} layers")


def pack_sign_rom(signs: list[SignVector]) -> bytes:
    """Concatenate per-layer sign records under the .sgnrom header."""
    named = [(f"layer {i}", s.d) for i, s in enumerate(signs)]
    d = _check_same_d(*named) if named else 0
    _check_rom_header(d, len(signs))
    header = _ROM_HEADER.pack(_ROM_MAGIC, _ROM_VERSION, 0, d, len(signs))
    return header + b"".join(serialize_signs(s) for s in signs)


class _SignRom(Sequence):
    """A checked .sgnrom image as a read-only sequence of SignVectors.

    len is the layer count, also held as count (which takes the place of
    Sequence.count).  rom[i], iteration and layer(i) decode only the records
    asked for, each with layer_id = its record position.
    """

    __slots__ = ("_data", "d", "count")

    def __init__(self, data: bytes, d: int, count: int) -> None:
        self._data, self.d, self.count = data, d, count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int) -> SignVector:
        return self.layer(range(self.count)[operator.index(i)])

    def layer(self, layer: int) -> SignVector:
        """Decode one layer's record; layer_id is its record position."""
        if not 0 <= layer < self.count:
            raise InvalidInputError(
                f"sign ROM holds layers 0..{self.count - 1}, requested {layer}")
        record = (self.d + 7) // 8
        start = _ROM_HEADER.size + layer * record
        return deserialize_signs(self._data[start:start + record], self.d, layer_id=layer)


def unpack_sign_rom(data: bytes) -> Sequence[SignVector]:
    """A .sgnrom image with its header and length checked, whose records decode
    only when asked for (_SignRom): each per-layer CLI call needs one layer, and
    one of a 36-layer d=128 ROM took about 18 us against 390 us for all of them
    (min of 2,000, 2-vCPU VM)."""
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
    _check_rom_header(d, count)
    return _SignRom(bytes(data), d, count)


def write_sign_rom(path, signs: list[SignVector]) -> None:
    data = pack_sign_rom(signs)
    with open(path, "wb") as fh:
        fh.write(data)


def read_sign_rom(path) -> Sequence[SignVector]:
    """unpack_sign_rom of the file at path."""
    with open(path, "rb") as fh:
        return unpack_sign_rom(fh.read())
