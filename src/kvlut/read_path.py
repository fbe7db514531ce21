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

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, _validate_design_point
from .errors import (InvalidDimensionError, InvalidInputError, _check_same_d,
                     _finite_array, _float64, _read_only)
from .opcount import OpCounter
from .transform import _TILE_BYTES, RotationSpec, _row_tiles, rotate
from .write_path import KVCache, QuantizedKey, _cache_rows, _check_indices

__all__ = [
    "PrecomputedTable",
    "precompute_table",
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
        entries = _float64(self.entries, "table entries")
        if entries.shape != (self.d, 1 << self.b):
            raise InvalidDimensionError(
                f"table must be {self.d} x {1 << self.b}, got {entries.shape}")
        object.__setattr__(self, "entries", _read_only(entries))


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


def _round_half(s: np.ndarray) -> None:
    """Round float32 s in place to half precision, held at the 2^112 bias.

    Precondition: every value is a multiple of 2^88 (the half subnormal step
    2^-24 at the bias), +-inf, or the NaN 0xFFC00000.  A value below 2^98
    (half's normal range at the bias) then has at most 10 significant bits
    and is already a biased half subnormal, so rounding to nearest even at
    mantissa bit 13 of the float32 bits rounds every value as casting it,
    unbiased, to half would.  A value in [65520 * 2^112, 2^128), which half
    rounds to inf, carries into float32's +inf bits; the rest stay finite.
    """
    u = s.view(np.uint32)
    t = u >> 13
    t &= 1
    t += 0xFFF
    u += t
    u &= 0xFFFFE000


def _folds(d: int, b: int, n: int) -> int:
    """Adder-tree levels folded into the table for n keys of width d: 0 or 1.

    1 when the folded table fits one float64 tile's gather (4^b entries a
    pair, at most _TILE_BYTES // 8d, the rows of a float64 tile: 256 at
    d=128) and n keys repay its build (n >= max(rows, 4^(b+1))); else 0.
    """
    rows = _TILE_BYTES // (8 * d)
    return int(4 ** b <= rows and n >= max(rows, 4 ** (b + 1)))


def _fold(cols: np.ndarray) -> np.ndarray:
    """Fold the adder tree's first level into a (d, W) table, W = 2^b.

    Entry [i, a + c*W] of the (d/2, W^2) result is cols[2i, a] +
    cols[2i+1, c], in cols' dtype, and rounded by _round_half when that is
    float32 (the biased halves of the fp16 table _score_rows builds).
    """
    d, w = cols.shape
    table = np.add(cols[0::2, None, :], cols[1::2, :, None])
    if table.dtype == np.float32:
        _round_half(table)
    return table.reshape(d // 2, w * w)


def _gather_offsets(cache: KVCache, b: int) -> tuple[int, list]:
    """(folds, tiles) of the cache's gather into a b-bit table, built once per b.

    The first call at b checks the indices (write_path._check_indices: a
    corrupt cache raises CorruptCacheError on every query and stores
    nothing), takes folds from _folds and keeps, per row tile of
    _row_tiles(n, 4*P) (_TILE_BYTES of the fp16 tree's float32 partials),
    one C-contiguous (P, m) intp block.  P = d >> folds slots a key, and
    slot s of a key holds its cell in table row s: idx[s] on the (d, 2^b)
    table, or a | c << b for the pair (a, c) = (idx[2s], idx[2s+1]) on the
    folded (d/2, 4^b) one, from the row's little-endian uint16 view
    v = a | c << 8 as v & 0xFF or'd in place with (v >> 8) << b.  Column j
    of a block holds key j's offsets, and row p the offset of slot rev(p),
    the log2(P)-bit reversal of p: the tile's cells in one strided copy of
    the rows viewed as (m, 2, ..., 2) with the bit axes reversed, plus the
    base rev(p) times the table's row width, one rule for both gathers.
    Later calls at b return what the cache keeps.  The same tiles serve
    double mode, whose float64 partials take twice the bytes.  The blocks
    hold T*d*8 / 2^folds bytes, 4 or 8 times the (T, d) uint8 indices.
    """
    memo = cache._gathers.get(b)
    if memo is None:
        idx = cache.indices
        _check_indices(idx, b)
        n, d = idx.shape
        folds = _folds(d, b, n)
        p = d >> folds
        bits = (2,) * (p.bit_length() - 1)
        axes = tuple(range(len(bits), -1, -1))
        base = (np.arange(p, dtype=np.intp) << (b << folds)).reshape((1,) + bits)
        base = base.transpose(axes)
        tiles = []
        for rows in _row_tiles(n, 4 * p):
            cells = idx[rows]
            if folds:
                v = cells.view("<u2")
                cells = v & 0xFF
                cells |= (v >> 8) << b
            cols = cells.reshape((rows.stop - rows.start,) + bits).transpose(axes)
            tiles.append((rows, np.add(cols, base, order="C").reshape(p, -1)))
        memo = cache._gathers[b] = (folds, tiles)
    return memo


def _score_rows(tbl: PrecomputedTable, cache: KVCache, mode: str,
                counter: OpCounter | None) -> np.ndarray:
    """Score the T keys of a cache, (T, d) indices and (T,) half norms, tile by tile.

    Both modes run one loop over the tiles the cache keeps (_gather_offsets):
    take the keys' table entries, sum them in the balanced adder tree,
    multiply by the norms.  The table is the (d, 2^b) one, or, when the
    cache's gather folds a level (_folds), the (d/2, 4^b) table _fold
    builds per query, whose entries are the tree's first level (rounded to
    half in fp16).  Either way slot s's entry sits at flat offset cell +
    s * (row width), with cell idx[s] or, folded, a | c << b.

    Each tile takes its entries into one buffer per query, a (P, m) block
    whose row p holds slot rev(p) of its m keys (mode="clip" skips numpy's
    bounds-checked copy; the offsets come from checked indices), so slots
    rev(p) and rev(p + P/2) = rev(p) + 1 are a tree pair.  Each level adds
    the block's second half into its first in place, one contiguous add
    that allocates nothing, and its sums stay in bit-reversed order, so
    every key sums ((x0 + x1) + (x2 + x3)) + ... in the hardware's order,
    whatever the gather and the tiling.  "double" adds in float64; "fp16"
    differs only in rounding, as score_sequence describes, on a float32
    copy of the half-rounded table held at a fixed 2^112 bias, so that
    every biased partial is a multiple of 2^88, +-inf, or the NaN
    0xFFC00000 (inf + -inf, the tree's only NaN).  Under that precondition
    a float32 sum of two biased halves rounded by _round_half is the
    correctly rounded half sum at the bias (24 >= 2*11 + 2 bits), and a
    sum half rounds to inf is one at or past 65520 * 2^112: _round_half
    carries it into float32's +inf, or the float32 add already overflowed
    (from 2^128 - 2^103).  So every level matches half arithmetic bit for
    bit.  Each tile's root is multiplied by 2^-112 in place, exactly (a
    half subnormal becomes a float32 one, a multiple of 2^-24), so its
    float32 product with a norm is the product of two halves, 22
    significant bits between 2^-48 and 2^32, and exact: writing it into the
    float16 output rounds once.

    Both modes run under one np.errstate: a +inf norm marks an overflowed
    key, which scores inf (NaN when its gathered sum is 0) without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "double":
            table, scores = tbl.entries, np.empty(len(cache))
        elif mode == "fp16":
            table = tbl.entries.astype(np.float16).astype(np.float32) * np.float32(2.0 ** 112)
            scores = np.empty(len(cache), np.float16)
        else:
            raise InvalidInputError(f"unknown scoring mode {mode!r}")
        folds, tiles = _gather_offsets(cache, tbl.b)
        if folds:
            table = _fold(table)
        buf = np.empty(tiles[0][1].size, table.dtype)
        for rows, block in tiles:
            acc = table.take(block, out=buf[:block.size].reshape(block.shape), mode="clip")
            while len(acc) > 1:
                h = len(acc) // 2
                acc = np.add(acc[:h], acc[h:], out=acc[:h])
                if mode == "fp16":
                    _round_half(acc)
            if mode == "fp16":
                np.multiply(acc[0], np.float32(2.0 ** -112), out=acc[0])
            np.multiply(acc[0], cache.norms[rows], out=scores[rows])
    if counter is not None:
        n = len(scores)
        counter.add("score", mults=n, adds=n * (tbl.d - 1), lookups=n * tbl.d)
    return scores


def score_sequence(q: np.ndarray, cache: Sequence[QuantizedKey], spec: RotationSpec,
                   cb: Codebook, mode: str = "double") -> tuple[np.ndarray, OpCounter]:
    """Score a query against a whole cache: one table, then T lookup passes.

    The returned counter's multiplications in {table, score} total exactly
    d*2^b + T.  In "fp16" mode the table reads, every partial sum of the
    balanced adder tree (leaf order = coordinate order) and the norm product
    each round to half precision, to nearest even, and a score that
    overflows half range surfaces as a non-finite value.
    """
    counter = OpCounter()
    tbl = precompute_table(q, spec, cb, counter)
    return _score_rows(tbl, _cache_rows(cache, tbl.d), mode, counter), counter
