"""Read datapath: per-query table precomputation and lookup-accumulate scoring.

Scores come out of stored keys without ever reconstructing them.  Because the
rotation is shared by queries and keys, <q, k> = <Rq, Rk>, and with each
rotated key coordinate replaced by a centroid the inner product collapses to
d table lookups, an adder tree, and one norm multiply:

    score = (sum_i P[i][idx_i]) * ||k||,   P[i][j] = q_rot[i] * c_j.

Per query that is d*2^b multiplications once, then one per key, against T*d
for dequantize-and-dot.  The conventional path lives in the reference module
and is used only as a test oracle; nothing here touches inverse rotation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .codebook import Codebook
from .errors import (CorruptCacheError, InvalidDimensionError, InvalidInputError,
                     _check_same_d, _finite_array, _read_only)
from .opcount import OpCounter
from .transform import RotationSpec, rotate
from .write_path import QuantizedKey, _cache_rows, _row_tiles

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
    """Per-query lookup table: entries[i, j] = q_rot[i] * centroid[j]."""

    d: int
    b: int
    entries: np.ndarray

    def __post_init__(self) -> None:
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


def _round_half(s: np.ndarray) -> None:
    """Round float32 s in place to half precision, as a float16 cast would.

    Precondition: every value is a multiple of 2^-24 (the half subnormal
    step), +-inf, or the NaN 0xFFC00000.  Then a value below the half normal
    range is already a half subnormal, and rounding to nearest even at
    mantissa bit 13 of the float32 bits rounds every other value.  Scaling
    by 2^112 overflows exactly the results of magnitude >= 2^16, which half
    rounds to inf; scaling back by 2^-112 is exact for all the rest.
    """
    u = s.view(np.uint32)
    u += 0xFFF + ((u >> 13) & 1)
    u &= 0xFFFFE000
    s *= np.float32(2.0 ** 112)
    s *= np.float32(2.0 ** -112)


def _score_rows(tbl: PrecomputedTable, idx: np.ndarray, norms: np.ndarray,
                mode: str, counter: OpCounter | None) -> np.ndarray:
    """Score T stored keys, (T, d) indices and (T,) half norms, tile by tile.

    Rows come from _cache_rows, which checks their width against the table.
    Entry (i, idx) sits at flat offset idx + i*2^b of the table; each row
    tile (write_path._row_tiles) gathers its entries with one take, sums
    them and writes its scores into the preallocated (T,) output, so no
    temporary outgrows a tile.  Every step is row by row, so the tiling
    changes no bit.  "fp16" rounds as score_key_fp16 describes, on a float32
    copy of the half-rounded table: a float32 sum of two halves rounded to
    half is the correctly rounded half sum (24 >= 2*11 + 2 bits), and the
    only NaN the tree makes, inf + -inf, has one payload, so every level
    matches half arithmetic bit for bit.  Each level rounds its partial
    sums with _round_half on their float32 bits, not through a float16
    cast: every partial is a sum of two halves, so a multiple of 2^-24,
    which is the precondition under which that rounding is exact.
    """
    if idx.size and idx.max() >= (1 << tbl.b):
        raise CorruptCacheError(f"cache index exceeds 2^{tbl.b} - 1")
    base = np.arange(0, tbl.d << tbl.b, 1 << tbl.b, dtype=np.intp)
    n = idx.shape[0]
    if mode == "double":
        table = tbl.entries.ravel()
        scores = np.empty(n)
        for rows in _row_tiles(n, tbl.d):
            scores[rows] = table.take(idx[rows] + base).sum(axis=1) * norms[rows].astype(np.float64)
    elif mode == "fp16":
        scores = np.empty(n, dtype=np.float16)
        with np.errstate(over="ignore", invalid="ignore"):
            table = tbl.entries.astype(np.float16).astype(np.float32).ravel()
            for rows in _row_tiles(n, tbl.d):
                acc = table.take(idx[rows] + base)
                while acc.shape[1] > 1:
                    acc = acc[:, 0::2] + acc[:, 1::2]
                    _round_half(acc)
                scores[rows] = acc[:, 0].astype(np.float16) * norms[rows]
    else:
        raise InvalidInputError(f"unknown scoring mode {mode!r}")
    if counter is not None:
        counter.add("score", mults=n, adds=n * (tbl.d - 1), lookups=n * tbl.d)
    return scores


def score_key(tbl: PrecomputedTable, qk: QuantizedKey,
              counter: OpCounter | None = None) -> float:
    """Score one stored key: d lookups, d-1 additions, 1 norm multiply."""
    idx, norms = _cache_rows([qk], tbl.d)
    return float(_score_rows(tbl, idx, norms, "double", counter)[0])


def score_key_fp16(tbl: PrecomputedTable, qk: QuantizedKey,
                   counter: OpCounter | None = None) -> Fp16Score:
    """Bit-accurate half-precision scoring.

    Table reads, every partial sum of the balanced adder tree (leaf order =
    coordinate order), and the final norm product each round to half
    precision, round-to-nearest-even.  Overflow beyond half range propagates
    to a non-finite result, reported via the saturation flag.
    """
    idx, norms = _cache_rows([qk], tbl.d)
    value = _score_rows(tbl, idx, norms, "fp16", counter)[0]
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
    idx, norms = _cache_rows(cache, tbl.d)
    return _score_rows(tbl, idx, norms, mode, counter), counter
