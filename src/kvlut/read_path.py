"""Read datapath: per-query table precomputation and lookup-accumulate scoring.

Scores come out of stored keys without ever reconstructing them.  Because the
rotation is shared by queries and keys, <q, k> = <Rq, Rk>, and with each
rotated key coordinate replaced by a centroid the inner product collapses to
d table lookups, an adder tree, and one norm multiply:

    score = (sum_i P[i][idx_i]) * ||k||,   P[i][j] = q_rot[i] * c_j.

Per query that is d*2^b multiplications once, then one per key, against T*d
for dequantize-and-dot.  The conventional path lives in the reference module
and is used only as a test oracle; nothing here touches inverse rotation.

The op tallies charge the hardware model: d lookups, d-1 additions and one
multiply per key.  How the host emulates them (gathering coordinates one at
a time or in pairs, see _score_rows) changes no tally and no score bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .codebook import Codebook, _validate_design_point
from .errors import (InvalidDimensionError, InvalidInputError, _check_same_d,
                     _finite_array, _read_only)
from .opcount import OpCounter
from .transform import _TILE_BYTES, RotationSpec, _row_tiles, rotate
from .write_path import KVCache, QuantizedKey, _cache_rows, _check_indices

__all__ = [
    "PrecomputedTable",
    "Fp16Score",
    "precompute_table",
    "score_key",
    "score_key_fp16",
    "score_sequence",
]


@dataclass(frozen=True)
class PrecomputedTable:
    """Per-query table at a design point (d, b): entries[i, j] = q_rot[i] * centroid[j]."""

    d: int
    b: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        _validate_design_point(self.d, self.b)
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.shape != (self.d, 1 << self.b):
            raise InvalidDimensionError(
                f"table must be {self.d} x {1 << self.b}, got {entries.shape}")
        object.__setattr__(self, "entries", _read_only(entries))


class Fp16Score(NamedTuple):
    """Half-precision score plus a saturation flag (overflow to half inf)."""

    value: np.float16
    saturated: bool


def precompute_table(q: np.ndarray, spec: RotationSpec, cb: Codebook,
                     counter: OpCounter | None = None) -> PrecomputedTable:
    """Rotate the query and form the d x 2^b product table, once per query."""
    _check_same_d(("codebook", cb.d), ("rotation", spec.d))
    q = _finite_array(q, cb.d, (1,), "query")
    q_rot = rotate(spec, q, counter)
    entries = q_rot[:, None] * cb.centroids[None, :]
    if counter is not None:
        counter.add("table", mults=cb.d * cb.levels)
    return PrecomputedTable(d=cb.d, b=cb.b, entries=entries)


def _round_half(s: np.ndarray, scale: bool = True) -> None:
    """Round float32 s in place to half precision, as a float16 cast would.

    Precondition: every value is a multiple of 2^-24 (the half subnormal
    step), +-inf, or the NaN 0xFFC00000.  Then a value below the half normal
    range is already a half subnormal, and rounding to nearest even at
    mantissa bit 13 of the float32 bits rounds every other value.  Scaling
    by 2^112 overflows exactly the results of magnitude >= 2^16, which half
    rounds to inf; scaling back by 2^-112 is exact for all the rest.  When
    no value can round to 2^16 (_tree_needs_scale says when), the scale and
    scale-back are the identity, and scale=False skips them.
    """
    u = s.view(np.uint32)
    t = u >> 13
    t &= 1
    t += 0xFFF
    u += t
    u &= 0xFFFFE000
    if scale:
        s *= np.float32(2.0 ** 112)
        s *= np.float32(2.0 ** -112)


def _tree_needs_scale(half: np.ndarray) -> bool:
    """False when no adder-tree partial over the (d, 2^b) half table can be inf.

    Let S = sum_i max_j |half[i, j]| and u = 2^-11, the half unit roundoff.
    A level-k partial is the rounded sum of two level-(k-1) partials, and
    rounding to nearest grows a magnitude below 65520 by at most a factor
    1+u, so by induction every level-k partial of any key is at most
    S*(1+u)^k, and the exact sum it rounds is at most S*(1+u)^(k-1) (the
    standard bound for recursive summation, Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., ch. 4).  Half rounds a sum to inf only
    from 65520 up, so S*(1+u)^(log2(d)-1) < 65520 means no level of the
    log2(d) overflows.  The test below uses exponent log2(d): the extra 1+u
    covers the float64 rounding of S, which is at most d*2^-53 relative.
    A table holding +-inf or NaN gives S = inf or NaN and keeps the scale.
    """
    s = np.abs(half).max(axis=1).sum(dtype=np.float64)
    return not s * (1 + 2.0 ** -11) ** (half.shape[0].bit_length() - 1) < 65520


def _pair_layout(d: int, b: int, n: int) -> tuple[int, int, int] | None:
    """(G, L, K) of the (G, L, K, L) pair table for n keys of width d, or None.

    L = 2^b, K = 256 >> b and G = ceil((d/2) / K).  None, for the single
    gather, when the table would outgrow one tile's gather or n keys would
    not repay its build.  Both bounds count rows of a float64 tile,
    _TILE_BYTES // 8d (256 at d=128).
    """
    rows = _TILE_BYTES // (8 * d)
    if 4 ** b > rows or n < max(rows, 4 ** (b + 1)):
        return None
    levels, k = 1 << b, 256 >> b
    return -(-d // (2 * k)), levels, k


def _pair_table(cols: np.ndarray, layout: tuple[int, int, int], mode: str,
                scale: bool = True) -> np.ndarray:
    """The pair table of a (d, L) column table, built straight into its layout.

    Entry [g, c, k, a] belongs to pair i = g*K + k, coordinates (2i, 2i+1) at
    cells (a, c).  "double" stores the 16-byte record (cols[2i, a],
    cols[2i+1, c]) as one complex128; "fp16" stores their sum rounded to
    half (_round_half with the given scale), the adder tree's first level.
    Pairs past d/2 (K > d/2) stay zero.
    """
    g, levels, k = layout
    h = cols.shape[0] // (2 * g)
    even = cols[0::2].reshape(g, 1, h, levels)
    odd = cols[1::2].reshape(g, h, levels).transpose(0, 2, 1)[..., None]
    if mode == "double":
        table = np.zeros((g, levels, k, levels), np.complex128)
        table.real[:, :, :h] = even
        table.imag[:, :, :h] = odd
    else:
        table = np.zeros((g, levels, k, levels), np.float32)
        np.add(even, odd, out=table[:, :, :h])
        _round_half(table, scale)
    return table


def _gather_offsets(cache: KVCache, b: int) -> tuple[tuple[int, int, int] | None, np.ndarray]:
    """(layout, offsets) of the cache's gather into a b-bit table, built once per b.

    The first call at b checks the indices (write_path._check_indices: a
    corrupt cache raises CorruptCacheError on every query and stores
    nothing), picks the gather with _pair_layout and builds the flat intp
    offsets of every row into that gather's table.  The cache keeps both;
    later calls at b return them.
    """
    memo = cache._gathers.get(b)
    if memo is None:
        idx = cache.indices
        _check_indices(idx, b)
        n, d = idx.shape
        layout = _pair_layout(d, b, n)
        if layout is None:
            base = np.arange(0, d << b, 1 << b, dtype=np.intp)
        else:
            _, levels, k = layout
            i = np.arange(d // 2, dtype=np.intp)
            base = i % k * levels + i // k * (levels << 8)
            idx = idx.view("<u2")
        memo = cache._gathers[b] = (layout, idx + base)
    return memo


def _score_rows(tbl: PrecomputedTable, cache: KVCache, mode: str,
                counter: OpCounter | None) -> np.ndarray:
    """Score the T keys of a cache, (T, d) indices and (T,) half norms, tile by tile.

    The cache comes from _cache_rows, which checks its width against the
    table; its rows are C-contiguous.  The gather offsets depend on the
    cache and b only, so the cache owns them (_gather_offsets): the first
    query at b lays them out, and every query then only builds its table.
    Each row tile (transform._row_tiles) gathers its table entries with
    one take of its rows' offsets, sums them and writes its scores into the
    preallocated (T,) output, so no temporary outgrows a tile.  A tile is
    sized by its gathered row's bytes, offsets per row times the table's
    itemsize: 8*d in "double" on either gather, 4*d in "fp16" on the single
    gather and 2*d on the pair gather, whose float32 rows are narrowest.
    Every step is row by row, so the tiling changes no bit.

    Single gather: entry (i, idx) sits at offset idx + i*2^b of the (d, 2^b)
    table, d offsets per row.  Pair gather, when _pair_layout admits the
    input: a row viewed as little-endian uint16 holds a | c << 8 for each
    coordinate pair (a, c) = (idx[2i], idx[2i+1]), so with L = 2^b and K =
    256 >> b, pair i's entry sits at offset (a | c << 8) + (i % K)*L +
    (i // K)*(L << 8) of the interleaved table that _pair_table builds once
    per query: d/2 offsets per row.  In "double" the gathered complex
    records viewed as float64 are exactly the single gather's (rows, d)
    block, so the sum runs in the same order on the same values.  In
    "fp16" each pair entry is the tree's first level, computed as the tree
    computes it, and the remaining levels run as before.  The gate (see
    _pair_layout) keeps the table within one tile's gather.

    "fp16" rounds as score_key_fp16 describes, on a float32 copy of the
    half-rounded table: a float32 sum of two halves rounded to half is the
    correctly rounded half sum (24 >= 2*11 + 2 bits), and the only NaN the
    tree makes, inf + -inf, has one payload, so every level matches half
    arithmetic bit for bit.  Each level rounds its partial sums with
    _round_half on their float32 bits, not through a float16 cast: every
    partial is a sum of two halves, so a multiple of 2^-24, which is the
    precondition under which that rounding is exact.  The levels skip the
    overflow scale when _tree_needs_scale proves no partial can reach inf
    for this query's table.

    Both modes run under one np.errstate: a +inf norm marks an overflowed
    key, which scores inf (NaN when its gathered sum is 0) without a warning.
    """
    layout, offsets = _gather_offsets(cache, tbl.b)
    n, norms = len(cache), cache.norms
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "double":
            table = tbl.entries if layout is None else _pair_table(tbl.entries, layout, mode)
            scores = np.empty(n)
            for rows in _row_tiles(n, offsets.shape[1] * table.itemsize):
                acc = table.take(offsets[rows]).view(np.float64)
                scores[rows] = acc.sum(axis=1) * norms[rows].astype(np.float64)
        elif mode == "fp16":
            scores = np.empty(n, dtype=np.float16)
            table = tbl.entries.astype(np.float16).astype(np.float32)
            scale = _tree_needs_scale(table)
            if layout is not None:
                table = _pair_table(table, layout, mode, scale)
            for rows in _row_tiles(n, offsets.shape[1] * table.itemsize):
                acc = table.take(offsets[rows])
                while acc.shape[1] > 1:
                    acc = acc[:, 0::2] + acc[:, 1::2]
                    _round_half(acc, scale)
                scores[rows] = acc[:, 0].astype(np.float16) * norms[rows]
        else:
            raise InvalidInputError(f"unknown scoring mode {mode!r}")
    if counter is not None:
        counter.add("score", mults=n, adds=n * (tbl.d - 1), lookups=n * tbl.d)
    return scores


def score_key(tbl: PrecomputedTable, qk: QuantizedKey,
              counter: OpCounter | None = None) -> float:
    """Score one stored key: d lookups, d-1 additions, 1 norm multiply."""
    return float(_score_rows(tbl, _cache_rows([qk], tbl.d), "double", counter)[0])


def score_key_fp16(tbl: PrecomputedTable, qk: QuantizedKey,
                   counter: OpCounter | None = None) -> Fp16Score:
    """Bit-accurate half-precision scoring.

    Table reads, every partial sum of the balanced adder tree (leaf order =
    coordinate order), and the final norm product each round to half
    precision, round-to-nearest-even.  Overflow beyond half range propagates
    to a non-finite result, reported via the saturation flag.
    """
    value = _score_rows(tbl, _cache_rows([qk], tbl.d), "fp16", counter)[0]
    return Fp16Score(value=value, saturated=not math.isfinite(float(value)))


def score_sequence(q: np.ndarray, cache: Sequence[QuantizedKey], spec: RotationSpec,
                   cb: Codebook, mode: str = "double") -> tuple[np.ndarray, OpCounter]:
    """Score a query against a whole cache: one table, then T lookup passes.

    The returned counter's multiplications in {table, score} total exactly
    d*2^b + T.  In "fp16" mode scores are half precision and saturated
    entries surface as non-finite values.
    """
    counter = OpCounter()
    tbl = precompute_table(q, spec, cb, counter)
    return _score_rows(tbl, _cache_rows(cache, tbl.d), mode, counter), counter
