"""Write datapath: norm extraction, rotation, comparator quantization, packing.

A key k is stored as (indices, half(norm)): the unit-normalized key is
rotated, each rotated coordinate is mapped to its quantizer cell by one
comparator bank against the 2^b - 1 fixed boundaries (2^b - 1 comparisons
per coordinate), and the Euclidean norm is kept as a 2-byte half float.  At
d=128, b=3 a key packs to 48 + 2 = 50 bytes.  The transform and comparator
stages record zero multiplications; the norm extractor's multiplies live in
their own counter category.

It holds the write datapath, the cache types and the record format, and
reconstructs no key: the conventional decoder lives only in the oracle
module, reference.
"""

from __future__ import annotations

import math
import operator
import struct
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, _validate_design_point
from .errors import (CorruptCacheError, FormatError, InvalidDimensionError,
                     InvalidInputError, _check_same_d, _check_shape, _finite_array,
                     _float64, _read_only)
from .opcount import OpCounter
from .transform import RotationSpec, _row_tiles, rotate

__all__ = [
    "QuantizedKey",
    "KVCache",
    "quantize_batch",
    "packed_size",
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
        idx = np.asarray(self.indices, dtype=np.uint8)
        _check_shape(idx, None, (1,), "key indices")
        object.__setattr__(self, "indices", _read_only(idx))
        norm = _half_norms(self.norm)
        _check_shape(norm, None, (0,), "key norm")
        object.__setattr__(self, "norm", norm[()])


@dataclass(frozen=True, eq=False)
class KVCache(Sequence):
    """A stored cache in columns: indices (T, d) uint8 and half norms (T,).

    Both arrays are read-only C-contiguous copies, checked once here; the
    read and write paths take them as they are.  As a Sequence it behaves
    like a list of QuantizedKey: cache[i] is one key, built without checking
    its norm again, and a slice is a KVCache.

    The cache also owns the query-independent half of scoring: the read
    path keeps, per bit-width b, the flat gather offsets of its index rows
    in a private dict (not a field, so equality, repr and the Sequence
    behaviour ignore it).  The offsets are built by the first query at b,
    after its range check passes, and every later query at b reuses them;
    a slice is a new cache with its own dict.
    """

    indices: np.ndarray
    norms: np.ndarray

    def __post_init__(self) -> None:
        idx = np.array(self.indices, dtype=np.uint8)
        _check_shape(idx, None, (2,), "cache indices")
        norms = np.asarray(self.norms)
        if norms.shape != idx.shape[:1]:
            raise InvalidDimensionError(
                f"cache holds {idx.shape[0]} index rows but norms of shape {norms.shape}")
        norms = _half_norms(norms, "key norms")
        for arr in (idx, norms):
            arr.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "norms", norms)
        object.__setattr__(self, "_gathers", {})

    def __len__(self) -> int:
        return self.indices.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return KVCache(self.indices[i], self.norms[i])
        i = operator.index(i)
        return _checked(QuantizedKey, indices=self.indices[i], norm=self.norms[i])


def _half_norms(norms, what: str = "key norm") -> np.ndarray:
    """The one norm rule: a half copy of norms, none NaN or negative (+inf marks overflow)."""
    try:
        half = np.array(norms, dtype=np.float16)
    except OverflowError as exc:  # a Python int past the float64 range
        raise InvalidInputError(f"{what}: a value past the float64 range") from exc
    bad = half[~(half >= 0)]
    if bad.size:
        raise InvalidInputError(f"{what} must be non-negative, got {bad}")
    return half


def _key_norms(keys: np.ndarray, what: str) -> np.ndarray:
    """The one key-norm rule: the float64 norms of (N, d) rows, one row tile
    at a time (transform._row_tiles).

    A row whose norm is not finite, from a NaN or infinite entry or from a
    sum of squares past the float64 range (entries of 1e200, say), raises
    InvalidInputError naming the first such row of `what`; no overflow
    warning escapes.
    """
    n, d = keys.shape
    norms = np.empty(n)
    with np.errstate(over="ignore"):
        for rows in _row_tiles(n, 8 * d):
            norms[rows] = np.linalg.norm(keys[rows], axis=1)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise InvalidInputError(f"row {bad[0]} of {what} has a non-finite norm (a NaN or "
                                "infinite entry, or a sum of squares past the float64 range)")
    return norms


def _checked(cls, **fields):
    """A frozen dataclass cls built from fields that already pass its checks."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _cell_indices(y: np.ndarray, cb: Codebook, out: np.ndarray | None = None,
                  mask: np.ndarray | None = None) -> np.ndarray:
    """The comparator bank: each coordinate's uint8 cell index, written to out.

    A coordinate is compared against all 2^b - 1 boundaries and its cell is
    the number of boundaries it reaches, so a tie goes to the upper cell.
    Each comparison writes into one bool mask of y's shape and its uint8
    view is added in place, so no boundary allocates a temporary or casts
    one.  out (uint8) and mask (bool) are scratch a caller looping over
    same-shaped blocks may pass; what they hold on entry does not matter.
    """
    if out is None:
        out = np.empty(np.shape(y), dtype=np.uint8)
    if mask is None:
        mask = np.empty(np.shape(y), dtype=np.bool_)
    out.fill(0)
    reached = mask.view(np.uint8)
    for t in cb.boundaries:
        np.greater_equal(y, t, out=mask)
        out += reached
    return out


def quantize_batch(keys: np.ndarray, spec: RotationSpec, cb: Codebook,
                   counter: OpCounter | None = None, *,
                   comparator: str = "flat") -> tuple[np.ndarray, np.ndarray]:
    """Vectorized write path over N keys: (N, d) -> (indices (N, d), norms (N,)).

    Keys run through norm, normalize, rotate and the comparator bank one row
    tile at a time (transform._row_tiles), each tile writing into the
    preallocated outputs, so no temporary outgrows a tile.  A pre-pass takes
    every key's norm (_key_norms) before the counter is touched, so a key
    whose norm is not finite raises InvalidInputError first.  A zero-norm
    key is divided by 1.0, so it stays as it is (-0.0 and subnormals
    included): it stores norm 0, and the read path scores it exactly 0.
    Counter deltas are N times those of one key.

    comparator accepts only "flat", the one bank; any other value raises
    InvalidInputError.  The keyword is kept only because the benchmark's
    adapter passes it, and it goes in the next change to the benchmark.
    """
    _check_same_d(("codebook", cb.d), ("rotation", spec.d))
    keys = _float64(keys, "key matrix")
    _check_shape(keys, cb.d, (2,), "key matrix")
    n, d = keys.shape
    norms = _key_norms(keys, "the key matrix")
    if comparator != "flat":
        raise InvalidInputError(f"unknown comparator mode {comparator!r}")

    if counter is not None:
        # d squares + (d-1)-term sum for ||k||^2, then d multiplies by 1/n to
        # normalize, all charged to the norm extractor; rotate() charges the
        # transform.
        counter.add("norm", mults=n * 2 * d, adds=n * (d - 1))
        counter.add("quantize", comps=n * d * (cb.levels - 1))
    idx = np.empty((n, d), dtype=np.uint8)
    for rows in _row_tiles(n, 8 * d):
        nrm = norms[rows]
        unit = keys[rows] / np.where(nrm == 0.0, 1.0, nrm)[:, None]
        _cell_indices(rotate(spec, unit, counter), cb, out=idx[rows])
    return idx, norms


# -- packed record --------------------------------------------------------

def packed_size(d: int, b: int) -> int:
    """Bytes per stored key: _record_groups' G*n = ceil(d*b/8) index bytes + 2 norm bytes."""
    _, n, groups, _ = _record_groups(d, b)
    return groups * n + 2


def _cache_rows(keys: Sequence[QuantizedKey], d: int) -> KVCache:
    """A cache as a KVCache, checked to width d.

    A KVCache passes through, with the gather offsets it holds; any other
    sequence of keys, such as a list from a public caller, is stacked once
    into a new one.  Each QuantizedKey checked its own norm, so the stacked
    norms are not checked again.
    """
    if isinstance(keys, KVCache):
        _check_shape(keys.indices, d, (2,), "cache indices")
        return keys
    bad = next((qk.indices.size for qk in keys if qk.indices.size != d), None)
    if bad is not None:
        raise InvalidDimensionError(f"key has {bad} indices, expected {d}")
    idx = np.array([qk.indices for qk in keys], dtype=np.uint8).reshape(len(keys), d)
    norms = np.array([qk.norm for qk in keys], dtype=np.float16)
    for arr in (idx, norms):
        arr.setflags(write=False)
    return _checked(KVCache, indices=idx, norms=norms, _gathers={})


def _record_groups(d: int, b: int) -> tuple[int, int, int, np.dtype]:
    """(g, n, G, word) of the shift-or codec at design point (d, b).

    g = 8 / gcd(8, b) indices fill n = g*b/8 whole bytes, or, when d < g (d =
    2 or 4), the row is one group of g = d indices in n = ceil(d*b/8) <= 4
    bytes; either way the ceil(d*b/8) index bytes are G = d/g whole groups.
    Group k is the low n bytes of one little-endian word holding index g*k + j
    at bits [b*j, b*j + b); the word is the narrowest of <u1, <u4 and <u8
    that holds n bytes.
    """
    _validate_design_point(d, b)
    g = min(d, 8 // math.gcd(8, b))
    n = -(-g * b // 8)
    return g, n, d // g, np.dtype("<u%d" % (1 if n == 1 else 4 if n <= 4 else 8))


def _check_indices(idx: np.ndarray, b: int) -> None:
    """Raise CorruptCacheError unless every cell index is below 2^b: the one index rule."""
    if idx.size and idx.max() >= (1 << b):
        raise CorruptCacheError(f"cache index exceeds 2^{b} - 1")


def _pack_rows(idx: np.ndarray, norms: np.ndarray, b: int) -> np.ndarray:
    """Pack (T, d) indices at b bits each, little-endian bit order, then half(norm).

    Index i of a row sits at bits [b*i, b*i + b) of its record; the rows
    come back as a (T, packed_size(d, b)) byte matrix.  Each group of g
    indices (_record_groups) is shifted and ORed into one word, whose low
    n bytes are the group's record bytes.  Rows run in tiles
    (transform._row_tiles) of 8*G bytes a row: each word counts as the
    widest word's 8 bytes.  Counting a word at its own itemsize would make
    the <u1 and <u4 tiles 2-8x larger, and a fresh process then
    page-faults their word temporaries on each call (T=4096, d=128, b in
    {2, 3, 4, 6, 8}).
    """
    t, d = idx.shape
    g, n, groups, word = _record_groups(d, b)
    _check_indices(idx, b)
    size = groups * n
    out = np.empty((t, size + 2), dtype=np.uint8)
    for rows in _row_tiles(t, 8 * groups):
        m = rows.stop - rows.start
        cols = idx[rows].reshape(m, groups, g)
        words = cols[:, :, 0].astype(word)
        for j in range(1, g):
            words |= cols[:, :, j].astype(word) << word.type(b * j)
        payload = words.view(np.uint8).reshape(m, groups, word.itemsize)[:, :, :n]
        out[rows, :size] = payload.reshape(m, size)
    out[:, size:] = norms.astype("<f2").view(np.uint8).reshape(t, 2)
    return out


def _unpack_rows(rows: np.ndarray, d: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of _pack_rows: (T, record) bytes -> (indices (T, d), unchecked <f2 norms).

    Each group's n record bytes are widened into one word, from which its g
    indices come back by shift and mask, tile by tile as _pack_rows packs.
    """
    t = rows.shape[0]
    g, n, groups, word = _record_groups(d, b)
    mask = word.type((1 << b) - 1)
    idx = np.empty((t, d), dtype=np.uint8)
    for tile in _row_tiles(t, 8 * groups):
        m = tile.stop - tile.start
        cols = idx[tile].reshape(m, groups, g)
        raw = np.zeros((m, groups, word.itemsize), dtype=np.uint8)
        raw[:, :, :n] = rows[tile, :groups * n].reshape(m, groups, n)
        words = raw.view(word)[:, :, 0]
        for j in range(g):
            np.bitwise_and(words >> word.type(b * j), mask, out=cols[:, :, j], casting="unsafe")
    return idx, np.ascontiguousarray(rows[:, -2:]).view("<f2")[:, 0]


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
    """Write a .kvq cache; a layer_id outside the header's u32 is a FormatError."""
    if not 0 <= layer_id <= 0xFFFFFFFF:
        raise FormatError(f"cache header holds the layer id as u32, got {layer_id}")
    cache = _cache_rows(keys, d)
    records = _pack_rows(cache.indices, cache.norms, b)
    header = _KVQ_HEADER.pack(_KVQ_MAGIC, _KVQ_VERSION, b, d, len(cache), layer_id)
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
        record = packed_size(d, b)
    except InvalidDimensionError as exc:
        raise CorruptCacheError(f"bad cache header: {exc}") from exc
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

# Suffixes of the key-matrix files that carry their own row width; any other
# file is raw float64 rows, whose width comes from the caller.
_TYPED_KEY_SUFFIXES = (".npy", ".txt", ".csv")


def load_key_matrix(path, d: int | None = None) -> np.ndarray:
    """Load an (N, d) key matrix from .npy, whitespace text, or raw doubles.

    Raw files are row-major float64 and need d to recover the shape.  A
    file that does not parse, a text file with no values, or a .npy whose
    dtype is not bool, integer or real floating raises FormatError; a d
    below 1 raises InvalidDimensionError.
    """
    if d is not None and d < 1:
        raise InvalidDimensionError(f"key matrix d must be >= 1, got {d}")
    name = str(path)
    if name.endswith(_TYPED_KEY_SUFFIXES):
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
    if mat.dtype.kind not in "biuf":
        raise FormatError(f"key matrix {name} holds dtype {mat.dtype}, not real numbers")
    return _finite_array(np.atleast_2d(mat), d, what="key matrix")
