"""Write datapath: norm extraction, rotation, comparator quantization, packing.

A key k is stored as (indices, half(norm)): the unit-normalized key is
rotated, each rotated coordinate is mapped to its quantizer cell by a
comparator bank against the fixed boundaries, and the Euclidean norm is kept
as a 2-byte half float.  At d=128, b=3 a key packs to 48 + 2 = 50 bytes.  The
transform and comparator stages record zero multiplications; the norm
extractor's multiplies live in their own counter category.
"""

from __future__ import annotations

import operator
import struct
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, _validate_design_point
from .errors import (CorruptCacheError, FormatError, InvalidDimensionError,
                     InvalidInputError, _check_norms, _check_same_d,
                     _check_shape, _finite_array, _read_only)
from .opcount import OpCounter
from .transform import RotationSpec, inverse_rotate, rotate

__all__ = [
    "QuantizedKey",
    "KVCache",
    "quantize_key",
    "quantize_batch",
    "pack",
    "unpack",
    "packed_size",
    "dequantize_key",
    "write_kvq",
    "read_kvq",
    "load_key_matrix",
]


@dataclass(frozen=True)
class QuantizedKey:
    """One stored key: per-coordinate cell indices plus a half-precision norm."""

    indices: np.ndarray
    norm: np.float16

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices",
                           _read_only(np.asarray(self.indices, dtype=np.uint8)))
        object.__setattr__(self, "norm", np.float16(self.norm))
        _check_norms(self.norm)


@dataclass(frozen=True, eq=False)
class KVCache(Sequence):
    """A stored cache in columns: indices (T, d) uint8 and half norms (T,).

    Both arrays are read-only copies, checked once here; the read and write
    paths take them as they are.  As a Sequence it behaves like a list of
    QuantizedKey: cache[i] is one key, a slice is a KVCache.
    """

    indices: np.ndarray
    norms: np.ndarray

    def __post_init__(self) -> None:
        idx = np.array(self.indices, dtype=np.uint8)
        _check_shape(idx, None, (2,), "cache indices")
        norms = np.array(self.norms, dtype=np.float16)
        if norms.shape != idx.shape[:1]:
            raise InvalidDimensionError(
                f"cache holds {idx.shape[0]} index rows but norms of shape {norms.shape}")
        _check_norms(norms, "key norms")
        for arr in (idx, norms):
            arr.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "norms", norms)

    def __len__(self) -> int:
        return self.indices.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return KVCache(self.indices[i], self.norms[i])
        i = operator.index(i)
        return QuantizedKey(indices=self.indices[i], norm=self.norms[i])


# Elements per row tile of the batched kernels.  A 4,096 x 128 temporary
# (4 MiB) is handed back to the kernel when freed and page-faulted in again
# on the next call; tiles of 2^15 elements (256 KiB as float64) are reused
# from the heap instead.  At 2^16 a fresh process still faults on every
# double query, as the heap trims at a lower mark there.  Every kernel step
# is row-independent, so the tile size changes no bit.
_TILE_ELEMS = 1 << 15


def _row_tiles(n: int, d: int):
    """Row slices covering range(n), each at most max(1, _TILE_ELEMS // d) rows.

    n = 0 gives one empty slice, so a kernel still checks its mode on no rows.
    """
    step = max(1, _TILE_ELEMS // d)
    for start in range(0, max(n, 1), step):
        yield slice(start, min(start + step, n))


def _count_norm_ops(counter: OpCounter | None, d: int, n_keys: int = 1) -> None:
    # d squares + (d-1)-term sum for ||k||^2, then d multiplies by 1/n to
    # normalize; all charged to the norm extractor, never to the transform.
    if counter is not None:
        counter.add("norm", mults=n_keys * 2 * d, adds=n_keys * (d - 1))


def _comparator_indices(y: np.ndarray, cb: Codebook, mode: str,
                        counter: OpCounter | None, n_keys: int) -> np.ndarray:
    """Map rotated coordinates to cells; ties go to the upper cell.

    "flat" compares every coordinate against all 2^b - 1 boundaries, the
    hardware-faithful bank, as one boundary count per coordinate; "binary"
    uses a b-step bisection.  The two are independent routes that must agree.
    """
    d = cb.d
    if mode == "flat":
        idx = np.zeros(np.shape(y), dtype=np.uint8)
        for t in cb.boundaries:
            idx += y >= t
        if counter is not None:
            counter.add("quantize", comps=n_keys * d * (cb.levels - 1))
    elif mode == "binary":
        idx = np.searchsorted(cb.boundaries, y, side="right").astype(np.uint8)
        if counter is not None:
            counter.add("quantize", comps=n_keys * d * cb.b)
    else:
        raise InvalidInputError(f"unknown comparator mode {mode!r}")
    return idx


def quantize_key(k: np.ndarray, spec: RotationSpec, cb: Codebook,
                 counter: OpCounter | None = None, *,
                 comparator: str = "flat") -> QuantizedKey:
    """Quantize one key through the write datapath: a one-row quantize_batch.

    Zero-norm keys store norm 0 with the center-cell indices; the read path
    then scores them as exactly 0.
    """
    idx, norms = quantize_batch(np.asarray(k, dtype=np.float64)[None], spec, cb,
                                counter, comparator=comparator)
    return QuantizedKey(indices=idx[0], norm=np.float16(norms[0]))


def quantize_batch(keys: np.ndarray, spec: RotationSpec, cb: Codebook,
                   counter: OpCounter | None = None, *,
                   comparator: str = "binary") -> tuple[np.ndarray, np.ndarray]:
    """Vectorized write path over N keys: (N, d) -> (indices (N, d), norms (N,)).

    Keys run through norm, normalize, rotate and comparator one row tile at
    a time (_row_tiles), each tile writing into the preallocated outputs, so
    no temporary outgrows a tile.  Counter deltas are N times those of one key.
    """
    _check_same_d(("codebook", cb.d), ("rotation", spec.d))
    keys = _finite_array(keys, cb.d, what="key matrix")

    n = keys.shape[0]
    idx = np.empty((n, cb.d), dtype=np.uint8)
    norms = np.empty(n)
    _count_norm_ops(counter, cb.d, n)
    for rows in _row_tiles(n, cb.d):
        tile = keys[rows]
        nrm = norms[rows] = np.linalg.norm(tile, axis=1)
        unit = np.where(nrm[:, None] > 0.0, tile / np.where(nrm == 0.0, 1.0, nrm)[:, None], tile)
        y = rotate(spec, unit, counter)
        idx[rows] = _comparator_indices(y, cb, comparator, counter, y.shape[0])
    return idx, norms


def dequantize_key(qk: QuantizedKey, spec: RotationSpec, cb: Codebook,
                   counter: OpCounter | None = None) -> np.ndarray:
    """Reference reconstruction: inverse-rotate the centroids, rescale by norm.

    The read path never runs this; it exists as the conventional-decoder
    oracle that table lookups are checked against.  The counter charges the
    inverse transform's additions and the d norm-scaling multiplies.
    """
    idx, norms = _cache_rows([qk], cb.d)
    return _dequantize_rows(idx, norms, spec, cb, counter)[0]


def _dequantize_rows(idx: np.ndarray, norms: np.ndarray, spec: RotationSpec,
                     cb: Codebook, counter: OpCounter | None) -> np.ndarray:
    """dequantize_key, bit for bit, over (T, d) rows with one inverse rotation."""
    _check_same_d(("codebook", cb.d), ("rotation", spec.d))
    if counter is not None:
        counter.add("norm", mults=idx.shape[0] * cb.d)
    return (inverse_rotate(spec, cb.centroids[idx], counter)
            * norms.astype(np.float64)[:, None])


# -- packed record --------------------------------------------------------

def packed_size(d: int, b: int) -> int:
    """Bytes per stored key: ceil(d*b/8) index bytes + 2 norm bytes."""
    return (d * b + 7) // 8 + 2


def _cache_rows(keys: Sequence[QuantizedKey], d: int) -> tuple[np.ndarray, np.ndarray]:
    """A cache as (indices (T, d) uint8, norms (T,) float16), checked to width d.

    A KVCache gives its own arrays, uncopied; any other sequence of keys,
    such as a list from a public caller, is stacked once.
    """
    if isinstance(keys, KVCache):
        _check_shape(keys.indices, d, (2,), "cache indices")
        return keys.indices, keys.norms
    bad = next((qk.indices.size for qk in keys if qk.indices.size != d), None)
    if bad is not None:
        raise InvalidDimensionError(f"key has {bad} indices, expected {d}")
    idx = np.array([qk.indices for qk in keys], dtype=np.uint8).reshape(len(keys), d)
    return idx, np.array([qk.norm for qk in keys], dtype=np.float16)


def _pack_rows(idx: np.ndarray, norms: np.ndarray, b: int) -> np.ndarray:
    """Pack (T, d) indices at b bits each, little-endian bit order, then half(norm).

    Index i of a row sits at bits [b*i, b*i + b) of its record; the rows
    come back as a (T, packed_size(d, b)) byte matrix.
    """
    if np.any(idx >= (1 << b)):
        raise FormatError(f"index out of range for b={b}")
    t, d = idx.shape
    bits = np.unpackbits(idx[:, :, None], axis=2, count=b, bitorder="little")
    payload = np.packbits(bits.reshape(t, d * b), axis=1, bitorder="little")
    return np.hstack([payload, norms.astype("<f2").view(np.uint8).reshape(t, 2)])


def _unpack_rows(rows: np.ndarray, d: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of _pack_rows: (T, record) bytes -> (indices (T, d), norms (T,))."""
    t = rows.shape[0]
    bits = np.unpackbits(rows[:, :-2], axis=1, count=d * b,
                         bitorder="little").reshape(t, d, b)
    idx = np.zeros((t, d), dtype=np.uint8)
    for j in range(b):
        idx |= bits[:, :, j] << j
    norms = np.ascontiguousarray(rows[:, -2:]).view("<f2")[:, 0].astype(np.float16)
    return idx, norms


def pack(qk: QuantizedKey, b: int) -> bytes:
    """Pack indices at b bits each, little-endian bit order, then half(norm)."""
    return _pack_rows(qk.indices[None], np.array([qk.norm]), b).tobytes()


def unpack(data: bytes, d: int, b: int) -> QuantizedKey:
    """Inverse of pack for a d-coordinate, b-bit record."""
    expected = packed_size(d, b)
    if len(data) != expected:
        raise FormatError(
            f"packed key for d={d}, b={b} must be {expected} bytes, got {len(data)}")
    idx, norms = _unpack_rows(np.frombuffer(data, dtype=np.uint8)[None], d, b)
    return QuantizedKey(indices=idx[0], norm=norms[0])


# -- KV-cache container ---------------------------------------------------
#
# Layout: 18-byte header (magic "KVQC", version u8, b u8, d u32, T u32,
# layer_id u32, little-endian) then T packed records.  (d, b) must be a
# codebook design point: d a power of two >= 2, b in 1..8.

_KVQ_MAGIC = b"KVQC"
_KVQ_VERSION = 1
_KVQ_HEADER = struct.Struct("<4sBBIII")


def write_kvq(path, keys: Sequence[QuantizedKey], d: int, b: int,
              layer_id: int = 0) -> None:
    _validate_design_point(d, b)
    idx, norms = _cache_rows(keys, d)
    records = _pack_rows(idx, norms, b)
    header = _KVQ_HEADER.pack(_KVQ_MAGIC, _KVQ_VERSION, b, d, idx.shape[0], layer_id)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(records.tobytes())


def read_kvq(path) -> tuple[KVCache, int, int, int]:
    """Read a .kvq cache; returns (cache, d, b, layer_id)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _KVQ_HEADER.size:
        raise FormatError(f"cache file truncated: {len(data)} bytes")
    magic, version, b, d, count, layer_id = _KVQ_HEADER.unpack_from(data)
    if magic != _KVQ_MAGIC:
        raise CorruptCacheError(f"bad cache magic {magic!r}")
    if version != _KVQ_VERSION:
        raise CorruptCacheError(f"unsupported cache version {version}")
    try:
        _validate_design_point(d, b)
    except InvalidDimensionError as exc:
        raise CorruptCacheError(f"bad cache header: {exc}") from exc
    record = packed_size(d, b)
    expected = _KVQ_HEADER.size + count * record
    if len(data) != expected:
        raise FormatError(
            f"cache for d={d}, b={b}, T={count} must be {expected} bytes, "
            f"got {len(data)}")
    rows = np.frombuffer(data, dtype=np.uint8)[_KVQ_HEADER.size:].reshape(count, record)
    try:
        cache = KVCache(*_unpack_rows(rows, d, b))
    except InvalidInputError as exc:
        raise CorruptCacheError(str(exc)) from exc
    return cache, d, b, layer_id


# -- key-matrix import ----------------------------------------------------

def load_key_matrix(path, d: int | None = None) -> np.ndarray:
    """Load an (N, d) key matrix from .npy, whitespace text, or raw doubles.

    Raw files are row-major float64 and need d to recover the shape.  A
    file that does not parse, or a text file with no values, raises FormatError.
    """
    name = str(path)
    if name.endswith((".npy", ".txt", ".csv")):
        try:
            if name.endswith(".npy"):
                mat = np.load(path)
            else:
                with warnings.catch_warnings():  # loadtxt only warns on no values
                    warnings.simplefilter("error", UserWarning)
                    mat = np.loadtxt(path, delimiter="," if name.endswith(".csv") else None,
                                     ndmin=2)
        except (ValueError, EOFError, UserWarning) as exc:
            raise FormatError(f"cannot parse key matrix {name}: {exc}") from exc
    else:
        if d is None:
            raise FormatError("raw key matrices need the dimension to recover rows")
        flat = np.fromfile(path, dtype="<f8")
        if flat.size == 0 or flat.size % d:
            raise FormatError(
                f"raw key file holds {flat.size} doubles, not a multiple of d={d}")
        mat = flat.reshape(-1, d)
    return _finite_array(np.atleast_2d(mat), d, what="key matrix")
