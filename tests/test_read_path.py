"""Read datapath: query tables, lookup scoring, fp16 rounding semantics."""

import functools
import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kvlut import read_path
from kvlut.codebook import solve_codebook
from kvlut.errors import (CorruptCacheError, InvalidDimensionError,
                          InvalidInputError)
from kvlut.opcount import OpCounter
from kvlut.read_path import (PrecomputedTable, _fold, _folds, _round_half, _score_rows,
                             precompute_table, score_sequence)
from kvlut.reference import score_sequence_reference
from kvlut.transform import (_TILE_BYTES, RotationSpec, _row_tiles, inverse_rotate,
                             random_signs, rotate)
from kvlut.write_path import KVCache, QuantizedKey, _cache_rows, quantize_batch

D, B = 128, 3
CB = solve_codebook(D, B)
SPEC = RotationSpec(d=D, sign=random_signs(D, 4))


def _tree_double(entries, indices, norms):
    # Per-key double datapath in plain Python floats, independent of numpy's
    # reductions: gather, a balanced tree pairing (2i, 2i+1) level by level,
    # then the norm.  (T, d) indices and (T,) norms give (T,) scores, and
    # (d,) indices with a scalar norm one.  Each level is a list of columns,
    # one float per key, so every key's tree runs the same Python additions.
    idx = np.asarray(indices)
    rows = idx.reshape(-1, idx.shape[-1])
    level = entries[np.arange(entries.shape[0]), rows].T.tolist()
    while len(level) > 1:
        level = [[x + y for x, y in zip(a, c)] for a, c in zip(level[0::2], level[1::2])]
    norms = np.ravel(norms).astype(np.float64).tolist()
    return np.array([s * n for s, n in zip(level[0], norms)]).reshape(idx.shape[:-1])


def make_cache(n, seed=0):
    keys = np.random.default_rng(seed).normal(size=(n, D))
    idx, norms = quantize_batch(keys, SPEC, CB)
    return [QuantizedKey(indices=idx[i], norm=np.float16(norms[i]))
            for i in range(n)]


def test_table_is_outer_product_of_rotated_query_and_centroids():
    q = np.random.default_rng(1).normal(size=D)
    tbl = precompute_table(q, SPEC, CB)
    q_rot = rotate(SPEC, q)
    np.testing.assert_array_equal(tbl.entries, q_rot[:, None] * CB.centroids)
    assert tbl.entries.shape == (D, 2**B)


def test_table_counter_charges_d_times_levels():
    ctr = OpCounter()
    precompute_table(np.ones(D), SPEC, CB, ctr)
    assert ctr.multiplications["table"] == D * 2**B == 1024
    assert ctr.to_dict()["multiplications"]["total"] == 1024


def _score_one(tbl, qk, mode="double", counter=None):
    # _score_rows on a one-key cache: the read path's route for T = 1.
    return _score_rows(tbl, KVCache(qk.indices[None], [qk.norm]), mode, counter)[0]


def test_score_key_equals_manual_gather_sum():
    q = np.random.default_rng(2).normal(size=D)
    tbl = precompute_table(q, SPEC, CB)
    (qk,) = make_cache(1, seed=7)
    got = _score_one(tbl, qk)
    want = float(_tree_double(tbl.entries, qk.indices, qk.norm))
    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


@pytest.mark.parametrize("T", [8, 300])
@pytest.mark.parametrize("mode", ["double", "fp16"])
def test_an_overflowed_norm_scores_non_finite_without_a_warning(mode, T):
    # +inf is the cache's marker for a norm past half range.  Under a zero
    # query its key scores 0 * inf = NaN, under a nonzero one inf or NaN;
    # every other key stays finite, on the single gather (T=8) and the pair
    # gather (T=300), and no warning escapes either mode or the oracle.
    idx, norms = quantize_batch(np.random.default_rng(T).normal(size=(T, D)), SPEC, CB)
    norms = norms.astype(np.float16)
    norms[3] = np.inf
    cache = KVCache(idx, norms)
    for q in (np.zeros(D), np.random.default_rng(7).normal(size=D)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores, _ = score_sequence(q, cache, SPEC, CB, mode)
            oracle, _ = score_sequence_reference(q, cache, SPEC, CB)
        for got in (scores, oracle):
            finite = np.isfinite(got)
            assert not finite[3] and finite.sum() == T - 1


def test_score_counter_per_key():
    q = np.ones(D)
    tbl = precompute_table(q, SPEC, CB)
    (qk,) = make_cache(1)
    ctr = OpCounter()
    _score_one(tbl, qk, counter=ctr)
    assert ctr.multiplications["score"] == 1
    assert ctr.additions["score"] == D - 1
    assert ctr.lookups["score"] == D


def test_score_sequence_totals():
    cache = make_cache(40, seed=9)
    q = np.random.default_rng(3).normal(size=D)
    scores, ctr = score_sequence(q, cache, SPEC, CB)
    assert scores.shape == (40,)
    assert ctr.mults_in("table", "score") == D * 2**B + 40
    assert ctr.lookups["score"] == 40 * D
    with pytest.raises(InvalidInputError):
        score_sequence(q, cache, SPEC, CB, mode="half")


def test_score_sequence_matches_reference_oracle():
    cache = make_cache(64, seed=10)
    q = np.random.default_rng(4).normal(size=D)
    scores, _ = score_sequence(q, cache, SPEC, CB)
    ref, _ = score_sequence_reference(q, cache, SPEC, CB)
    np.testing.assert_allclose(scores, ref, rtol=0.0,
                               atol=1e-12 * np.abs(ref).max())


def test_reference_counter_is_d_mults_per_key():
    cache = make_cache(16)
    q = np.ones(D)
    _, ctr = score_sequence_reference(q, cache, SPEC, CB)
    assert ctr.mults_in("score") == 16 * D
    assert ctr.multiplications["table"] == 0


def test_fp16_exact_on_representable_values():
    # Entries and all partial sums exactly representable in half precision.
    entries = np.full((D, 2**B), 0.25)
    tbl = PrecomputedTable(d=D, b=B, entries=entries)
    qk = QuantizedKey(indices=np.zeros(D, dtype=np.uint8), norm=np.float16(2.0))
    res = _score_one(tbl, qk, "fp16")
    assert isinstance(res, np.float16)
    assert np.isfinite(res)
    assert float(res) == D * 0.25 * 2.0


def test_fp16_tracks_double_within_quarter_percent():
    cache = make_cache(100, seed=12)
    q = np.random.default_rng(5).normal(size=D)
    exact, _ = score_sequence(q, cache, SPEC, CB)
    half, _ = score_sequence(q, cache, SPEC, CB, mode="fp16")
    assert half.dtype == np.float16
    scale = np.abs(exact).max()
    assert np.all(np.abs(half.astype(np.float64) - exact) < 2**-8 * scale)


def test_fp16_typical_relative_error_over_many_keys():
    # Per-key relative disagreement between the half and double datapaths,
    # for unit-norm keys.  Relative error is unbounded only where the true
    # score crosses zero, so the regression pin is on quantiles, not the max.
    rng = np.random.default_rng(4242)
    keys = rng.normal(size=(10_000, D))
    keys /= np.linalg.norm(keys, axis=1, keepdims=True)
    idx, norms = quantize_batch(keys, SPEC, CB)
    cache = [QuantizedKey(indices=idx[i], norm=np.float16(norms[i]))
             for i in range(len(keys))]
    q = rng.normal(size=D)
    exact, _ = score_sequence(q, cache, SPEC, CB)
    half, _ = score_sequence(q, cache, SPEC, CB, mode="fp16")
    rel = np.abs(half.astype(np.float64) - exact) / np.maximum(
        np.abs(exact), np.finfo(np.float64).tiny)
    assert np.median(rel) < 2**-8
    assert np.quantile(rel, 0.9) < 2**-7


def test_fp16_saturation_flag_and_nonfinite_scores():
    entries = np.full((D, 2**B), 100.0)
    tbl = PrecomputedTable(d=D, b=B, entries=entries)
    qk = QuantizedKey(indices=np.zeros(D, dtype=np.uint8),
                      norm=np.float16(30000.0))
    res = _score_one(tbl, qk, "fp16")
    assert not np.isfinite(float(res))
    # The tree itself can overflow before the norm multiply: 128 * 1000 > 65504.
    entries = np.full((D, 2**B), 1000.0)
    tbl = PrecomputedTable(d=D, b=B, entries=entries)
    res = _score_one(tbl, QuantizedKey(indices=np.zeros(D, dtype=np.uint8),
                                       norm=np.float16(1.0)), "fp16")
    assert not np.isfinite(float(res))


def test_fp16_rounding_is_per_operation():
    # 2048 + 1 rounds to 2048 in half precision; a double-accumulate tree
    # would keep the 1. Order: ((a+b)+(c+d)).
    entries = np.zeros((4, 2))
    entries[:, 0] = [2048.0, 1.0, 0.0, 0.0]
    tbl = PrecomputedTable(d=4, b=1, entries=entries)
    qk = QuantizedKey(indices=np.zeros(4, dtype=np.uint8), norm=np.float16(1.0))
    res = _score_one(tbl, qk, "fp16")
    assert float(res) == 2048.0


def test_corrupt_indices_raise():
    q = np.ones(D)
    tbl = precompute_table(q, SPEC, CB)
    bad = QuantizedKey(indices=np.full(D, 9, dtype=np.uint8),
                       norm=np.float16(1.0))
    for mode in ("double", "fp16"):
        with pytest.raises(CorruptCacheError):
            _score_one(tbl, bad, mode)
    short = QuantizedKey(indices=np.zeros(64, dtype=np.uint8),
                         norm=np.float16(1.0))
    with pytest.raises(InvalidDimensionError):
        score_sequence(q, [short], SPEC, CB)
    with pytest.raises(InvalidDimensionError):
        score_sequence(q, make_cache(2) + [short], SPEC, CB)


def test_table_validation():
    with pytest.raises(InvalidDimensionError):
        PrecomputedTable(d=4, b=1, entries=np.zeros((4, 3)))
    for d in (1, 3):
        with pytest.raises(InvalidDimensionError):
            PrecomputedTable(d=d, b=1, entries=np.zeros((d, 2)))
    with pytest.raises(InvalidDimensionError):
        precompute_table(np.ones(64), SPEC, CB)


def test_zero_norm_key_scores_zero():
    q = np.random.default_rng(6).normal(size=D)
    idx, norms = quantize_batch(np.zeros((1, D)), SPEC, CB)
    qk = QuantizedKey(indices=idx[0], norm=norms[0])
    tbl = precompute_table(q, SPEC, CB)
    assert _score_one(tbl, qk) == 0.0
    assert float(_score_one(tbl, qk, "fp16")) == 0.0


def _tree_fp16(entries, indices, norm):
    # Per-key half-precision datapath: round the reads, pairwise tree, norm.
    # Every step is elementwise, so (T, d) indices and (T,) norms score T
    # keys exactly as T calls would.
    acc = entries[np.arange(entries.shape[0]), indices].astype(np.float16)
    while acc.shape[-1] > 1:
        acc = acc[..., 0::2] + acc[..., 1::2]
    return acc[..., 0] * norm


# The per-key equivalence tests run on every pair of these.
GRID = list(itertools.product([1, 3, 8], [2, 128, 256]))


@functools.cache
def _design(d, b):
    return solve_codebook(d, b), RotationSpec(d=d, sign=random_signs(d, d + b))


def test_fp16_sequence_matches_per_key_adder_tree():
    for b, d in GRID:
        cb, spec = _design(d, b)
        rng = np.random.default_rng(31 + d + b)
        n = max(1, d // 8)

        def keys(count, norm):
            return [QuantizedKey(indices=rng.integers(0, 2**b, size=d, dtype=np.uint8),
                                 norm=np.float16(norm)) for _ in range(count)]

        # A random query (its table rows all differ), scaled so the tree over
        # its largest entries reaches 1.5x the half maximum.  Then two whose
        # rotated coordinates are all equal, so every table row peaks at
        # `peak`: first every tree stays in half range, then n entries overflow.
        q = rng.normal(size=d)
        q *= 1.5 * 65504 / precompute_table(q, spec, cb).entries.max(axis=1).sum()
        queries = [("random", q)] + [
            (peak, inverse_rotate(spec, np.full(d, peak / cb.centroids[-1])))
            for peak in (0.9 * 65504 / d, 2 * 65504 / n)]
        base = keys(40, 0.5) + keys(10, 3e4)
        for kind, q in queries:
            tbl = precompute_table(q, spec, cb)
            hi, lo = (np.argmax(tbl.entries, axis=1).astype(np.uint8),
                      np.argmin(tbl.entries, axis=1).astype(np.uint8))
            # Keys aligned with the query: the adder tree itself overflows.
            cache = base + [QuantizedKey(indices=cells, norm=np.float16(norm))
                            for cells, norm in ((hi, 1.0), (lo, 0.25), (hi, 0.0))]
            # Coordinates [0, n) sum high and [n, 2n) low: at the overflowing
            # peak that is +inf beside -inf, a NaN mid-tree.
            mixed = rng.integers(0, 2**b, size=d, dtype=np.uint8)
            mixed[:n], mixed[n:2 * n] = hi[:n], lo[n:2 * n]
            cache.append(QuantizedKey(indices=mixed, norm=np.float16(1.0)))
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.array([_tree_fp16(tbl.entries, qk.indices, qk.norm)
                                 for qk in cache], dtype=np.float16)
                sums = np.array([_tree_fp16(tbl.entries, qk.indices, np.float16(1.0))
                                 for qk in cache], dtype=np.float16)
                got, _ = score_sequence(q, cache, spec, cb, mode="fp16")
            where = f"d={d}, b={b}, query={kind}"
            np.testing.assert_array_equal(got.view(np.uint16), want.view(np.uint16), where)
            tree_over = ~np.isfinite(sums)
            norm_over = np.isfinite(sums) & ~np.isfinite(want)
            if kind == "random":
                # At d=2, b=1 a random key often is the aligned one, so fewer
                # than 30 of the 50 random keys stay finite there.
                assert tree_over.sum() >= 3 and norm_over.sum() >= 5, where
                assert np.isfinite(want).sum() >= 20, where
            elif kind < 65504 / d:
                assert not tree_over.any() and norm_over.sum() >= 5, where
                assert np.isfinite(want).sum() >= 30, where
            else:
                assert (sums[-4] == np.inf and sums[-3] == -np.inf
                        and np.isnan(want[-2]) and np.isnan(sums[-1])), where


BIAS, UNBIAS = np.float32(2.0 ** 112), np.float32(2.0 ** -112)


def _assert_rounds_as_cast(bits):
    # _round_half on float32 bit patterns held at the 2^112 bias, against
    # numpy's f32 -> f16 -> f32.  Values from 2^16 up overflow to inf when
    # biased, as a biased partial past 2^128 does in the tree.
    x = np.asarray(bits, dtype=np.uint32).view(np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        want = x.astype(np.float16).astype(np.float32)
        got = x * BIAS
        _round_half(got)
        got *= UNBIAS
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
    return got


def _multiples_of_2_to_minus_24(bits):
    x = bits.view(np.float32).astype(np.float64) * 2.0**24
    return bits[np.floor(x) == x]


def test_round_half_ties_and_near_ties_in_every_binade():
    # Binades 2^-24 .. 2^16, both signs, all 1,024 kept-mantissa patterns,
    # and the 13 dropped bits just below, at and just above the halfway point.
    exps = np.arange(127 - 24, 127 + 17, dtype=np.uint32)
    upper = np.arange(1024, dtype=np.uint32)
    low = np.array([0x0FFF, 0x1000, 0x1001], dtype=np.uint32)
    bits = ((exps[:, None, None] << 23) | (upper[None, :, None] << 13)
            | low[None, None, :]).ravel()
    bits = _multiples_of_2_to_minus_24(np.concatenate([bits, bits | 0x80000000]))
    # Near-ties are multiples of 2^-24 from binade 2^-1 up, ties from 2^-13.
    assert bits.size == 2 * 1024 * (2 * 18 + 30)
    _assert_rounds_as_cast(bits)


def test_round_half_overflow_edge_and_specials():
    # Every float32 in [2^15, 2^17), 2^21 at a time.
    for lo in range(0x47000000, 0x48000000, 1 << 21):
        _assert_rounds_as_cast(np.arange(lo, lo + (1 << 21), dtype=np.uint32))
    edge = np.array([65504, 65520, 131008], dtype=np.float32)
    np.testing.assert_array_equal(_assert_rounds_as_cast(edge.view(np.uint32)),
                                  [65504, np.inf, np.inf])
    # Every multiple of 2^-24 below 2^-14 (the half subnormals), both signs
    # and so +-0, then +-inf and the two quiet NaNs, which pass unchanged.
    sub = (np.arange(1024) * 2.0**-24).astype(np.float32).view(np.uint32)
    _assert_rounds_as_cast(np.concatenate([sub, sub | 0x80000000]))
    specials = np.array([0x7F800000, 0xFF800000, 0xFFC00000, 0x7FC00000], dtype=np.uint32)
    got = _assert_rounds_as_cast(specials)
    np.testing.assert_array_equal(got.view(np.uint32), specials)


def test_double_sequence_matches_per_key_gather_sum():
    for b, d in GRID:
        cb, spec = _design(d, b)
        rng = np.random.default_rng(14 + d + b)
        idx, norms = quantize_batch(rng.normal(size=(300, d)), spec, cb)
        cache = [QuantizedKey(indices=idx[i], norm=np.float16(norms[i]))
                 for i in range(300)]
        q = rng.normal(size=d)
        got, _ = score_sequence(q, cache, spec, cb)
        tbl = precompute_table(q, spec, cb)
        want = np.array([_tree_double(tbl.entries, qk.indices, qk.norm) for qk in cache])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64),
                                      f"d={d}, b={b}")


def _score_closed_form(d, b, T):
    ctr = OpCounter()
    ctr.add("transform", adds=d * (d.bit_length() - 1))
    ctr.add("table", mults=d * 2**b)
    ctr.add("score", mults=T, adds=T * (d - 1), lookups=T * d)
    return ctr.to_dict()


@pytest.mark.parametrize("d, b", [*itertools.product([2, 128, 1024], [1, 2, 3, 4]), (2, 7)])
def test_pair_and_single_gathers_match_per_key_route_at_the_gate(d, b):
    # The pair gather runs from T = max(rows, 4^(b+1)) when the folded table
    # fits a tile (4^b <= rows); T - 1 and a one-row-past-a-tile T run the
    # single gather there.  d=1024 at b >= 3 never pairs; d=2, b=7 is the
    # widest fold, 14-bit cells, from T = 65,536.
    cb, spec = _design(d, b)
    rows = _TILE_BYTES // (8 * d)
    gate = max(rows, 4 ** (b + 1))
    fits = 4 ** b <= rows
    assert _folds(d, b, gate - 1) == 0
    assert _folds(d, b, gate) == fits
    rng = np.random.default_rng(7 * d + b)
    top = cb.centroids[-1]
    # A random query scaled so its trees overflow; "peak", whose table rows
    # all peak at 0.75x the half maximum, so two peaks sum past it inside the
    # pair table; "over", whose peaks and troughs are half +-inf, so a pair
    # table entry is inf + -inf; and a zero query.
    q = rng.normal(size=d)
    q *= 1.5 * 65504 / precompute_table(q, spec, cb).entries.max(axis=1).sum()
    queries = [("random", q),
               ("peak", inverse_rotate(spec, np.full(d, 0.75 * 65504 / top))),
               ("over", inverse_rotate(spec, np.full(d, 1.5 * 65504 / top))),
               ("zero", np.zeros(d))]
    n = max(1, d // 8)
    for T in (gate - 1, gate, rows + 1):
        folds = _folds(d, b, T)
        for kind, q in queries:
            tbl = precompute_table(q, spec, cb)
            hi, lo = (np.argmax(tbl.entries, axis=1).astype(np.uint8),
                      np.argmin(tbl.entries, axis=1).astype(np.uint8))
            alt, mixed = hi.copy(), hi.copy()
            alt[1::2] = lo[1::2]
            mixed[n:2 * n] = lo[n:2 * n]
            idx = rng.integers(0, 2 ** b, size=(T + 2, d), dtype=np.uint8)
            norms = rng.uniform(0.1, 2.0, size=T + 2).astype(np.float16)
            # Rows 1-6 of the slice below: keys aligned with and against the
            # query, pairs of one peak and one trough, a block of peaks
            # beside a block of troughs, and norms +inf, 0 and 3e4.
            special = [(hi, np.inf), (lo, 1.0), (alt, 1.0), (mixed, 1.0), (hi, 0.0), (lo, 3e4)]
            for r, (cells, norm) in enumerate(special, start=2):
                idx[r], norms[r] = cells, norm
            cache = KVCache(idx, norms)[1:T + 1]
            # A plain list of keys is stacked into fresh contiguous rows.
            keys = list(cache) if T == gate else cache
            where = f"d={d}, b={b}, T={T}, query={kind}"
            if folds and kind in ("peak", "over"):
                with np.errstate(over="ignore", invalid="ignore"):
                    half = tbl.entries.astype(np.float16).astype(np.float32)
                    pairs = _fold(half * BIAS) * UNBIAS
                assert np.isposinf(pairs).any(), where
                assert np.isnan(pairs).any() == (kind == "over"), where
            got16 = score_sequence(q, cache, spec, cb, mode="fp16")[0]
            listed16 = score_sequence(q, keys, spec, cb, mode="fp16")[0]
            with np.errstate(over="ignore", invalid="ignore"):
                got = score_sequence(q, cache, spec, cb)[0]
                listed = score_sequence(q, keys, spec, cb)[0]
                want = _tree_double(tbl.entries, cache.indices, cache.norms)
                want16 = _tree_fp16(tbl.entries, cache.indices, cache.norms)
            for other in (listed, want):
                np.testing.assert_array_equal(got.view(np.uint64), other.view(np.uint64), where)
            for other in (listed16, want16):
                np.testing.assert_array_equal(got16.view(np.uint16), other.view(np.uint16),
                                              where)
            if kind == "over":
                assert np.isnan(got16[3]) and np.isnan(got16[4]), where


def _recorded_tiles(monkeypatch):
    # The (n, row_bytes) of each _row_tiles call _score_rows makes, with the
    # row counts of the tiles it yields.
    calls = []
    row_tiles = read_path._row_tiles

    def recording(n, row_bytes):
        tiles = list(row_tiles(n, row_bytes))
        calls.append((n, row_bytes, [t.stop - t.start for t in tiles]))
        return iter(tiles)

    monkeypatch.setattr(read_path, "_row_tiles", recording)
    return calls


def _check_route_across_row_tiles(monkeypatch, d, b, seed):
    # A scoring tile holds _TILE_BYTES of the fp16 tree's float32 partials:
    # 4*P bytes a key, with P = d/2 offsets on the pair gather (b <= 3 here)
    # and d on the single one (b=8), so T spans two whole tiles and one row.
    # Both modes score one cache over the same tiles, laid out once.
    cb, spec = _design(d, b)
    paired = b <= 3
    p = d // 2 if paired else d
    rows = _TILE_BYTES // (4 * p)
    T = 2 * rows + 1
    assert _folds(d, b, T) == paired
    tiles = list(_row_tiles(T, 4 * p))
    assert [t.stop - t.start for t in tiles] == [rows, rows, 1]
    rng = np.random.default_rng(seed)
    n = max(1, d // 8)
    top = cb.centroids[-1]
    q = rng.normal(size=d)
    q *= 1.5 * 65504 / precompute_table(q, spec, cb).entries.max(axis=1).sum()
    # A random query scaled so its trees overflow; one whose table rows all
    # peak at 2*65504/n, so n aligned coordinates sum past the half range
    # (at d=2 one peak is half inf); and a zero query, whose entries are
    # +-0.0 (0 * c).
    queries = [("random", q),
               ("peak", inverse_rotate(spec, np.full(d, 2 * 65504 / n / top))),
               ("zero", np.zeros(d))]
    idx = rng.integers(0, 2 ** b, size=(T, d), dtype=np.uint8)
    norms = rng.uniform(0.1, 2.0, size=T).astype(np.float16)
    hi, lo = np.full(d, 2 ** b - 1, np.uint8), np.zeros(d, np.uint8)
    mixed = idx[0].copy()
    mixed[:n], mixed[n:2 * n] = hi[:n], lo[n:2 * n]
    aligned = np.argmax(precompute_table(q, spec, cb).entries, axis=1).astype(np.uint8)
    negzero = np.argmax(np.signbit(precompute_table(np.zeros(d), spec, cb).entries), axis=1)
    # Each tile opens on these keys and closes on them in reverse; the
    # one-row last tile holds only the first.  They are a key aligned with
    # the random query at norm +inf, one that takes the zero query's -0.0
    # entries, the highest cells at norm 1, the lowest at norm 1 and +inf,
    # the highest at norm 0, a key whose half tree sums +inf beside -inf,
    # and a norm of 3e4.
    special = [(aligned, np.inf), (negzero, 1.0), (hi, 1.0), (lo, 1.0), (lo, np.inf),
               (hi, 0.0), (mixed, 1.0), (idx[1], 3e4)]
    edges = []
    for t in tiles:
        for r, (cells, norm) in [*zip(range(t.start, t.stop), special),
                                 *zip(range(t.stop - 1, t.start - 1, -1), special)]:
            idx[r], norms[r] = cells, norm
            edges.append(r)
    # Row k of the special keys in each whole tile, from either edge.
    at = {k: [r for t in tiles[:2] for r in (t.start + k, t.stop - 1 - k)]
          for k in range(len(special))}
    firsts = [t.start for t in tiles]
    cache = KVCache(idx, norms)
    calls = _recorded_tiles(monkeypatch)
    for kind, q in queries:
        tbl = precompute_table(q, spec, cb)
        where = f"d={d}, b={b}, query={kind}"
        got, ctr = score_sequence(q, cache, spec, cb)
        got16, ctr16 = score_sequence(q, cache, spec, cb, mode="fp16")
        with np.errstate(over="ignore", invalid="ignore"):
            want = _tree_double(tbl.entries, cache.indices, cache.norms)
            want16 = _tree_fp16(tbl.entries, cache.indices, cache.norms)
        # Each edge key also scores alone, as a one-key cache: the T = 1 route.
        singles = np.array([score_sequence(q, cache[r:r + 1], spec, cb)[0][0]
                            for r in edges])
        singles16 = np.array([score_sequence(q, cache[r:r + 1], spec, cb, "fp16")[0][0]
                              for r in edges])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), where)
        np.testing.assert_array_equal(singles.view(np.uint64), want[edges].view(np.uint64),
                                      where)
        np.testing.assert_array_equal(got16.view(np.uint16), want16.view(np.uint16), where)
        np.testing.assert_array_equal(singles16.view(np.uint16),
                                      want16[edges].view(np.uint16), where)
        assert ctr.to_dict() == ctr16.to_dict() == _score_closed_form(d, b, T), where
        for t in (0, 1):
            assert score_sequence(q, cache[:t], spec, cb)[1].to_dict() == \
                _score_closed_form(d, b, t), where
        if kind == "random":
            assert np.all(got[firsts] == np.inf) and np.all(got16[firsts] == np.inf), where
        elif kind == "peak":
            assert np.all(got16[at[2]] == np.inf), where
            assert np.all(got16[at[3] + at[4]] == -np.inf), where
            assert np.all(np.isnan(got16[at[5] + at[6]])), where
        else:
            assert np.all(np.isnan(got[firsts])) and np.all(np.isnan(got16[firsts])), where
            for scores in (got, got16):
                lows = scores[at[1]]
                assert np.all(lows == 0) and np.all(np.signbit(lows)), where
    # The first query laid the tiles out, once for both modes and every query
    # (the one-key caches and the slices lay out their own).
    assert [c for c in calls if c[0] == T] == [(T, 4 * p, [rows, rows, 1])]
    assert [r for r, _ in cache._gathers[b][1]] == tiles


# The two tests run the one check above over the union of their points; at
# the four points they share they draw different keys and queries.
@pytest.mark.parametrize("d, b", [(128, 1), (128, 3), (128, 8), (256, 1), (256, 3), (256, 8)])
def test_sequence_matches_per_key_route_across_row_tiles(monkeypatch, d, b):
    _check_route_across_row_tiles(monkeypatch, d, b, seed=5 * d + b)


@pytest.mark.parametrize("d, b", [(2, 1), (2, 8), (128, 3), (128, 8), (256, 3), (256, 8)])
def test_fp16_tree_matches_per_key_route_across_its_own_row_tiles(monkeypatch, d, b):
    _check_route_across_row_tiles(monkeypatch, d, b, seed=11 * d + b)


def _bit_reversal(p):
    # rev[j] is the log2(p)-bit reversal of j, by string reversal.
    k = p.bit_length() - 1
    return [int(format(j, f"0{k}b")[::-1], 2) if k else 0 for j in range(p)]


@pytest.mark.parametrize("d, b, T, paired", [(128, 3, 4096, True), (128, 8, 4096, False),
                                             (2, 1, 1 << 15, True), (2, 8, 1 << 15, False)])
def test_each_tile_holds_256_kib_of_gathered_rows(monkeypatch, d, b, T, paired):
    # One tile rule serves both modes, _row_tiles(T, 4*P) with P offsets a
    # key (d/2 paired, d single): a whole tile holds _TILE_BYTES of the fp16
    # tree's float32 partials, and twice that of double's float64 partials
    # and of its intp offsets.  A tile's offsets are one C-contiguous (P, m)
    # block: column j is the tile's key j, row p the offset of its slot
    # rev(p), the log2(P)-bit reversal of p, so the tree's halves pair slots
    # (2i, 2i+1).  Slot s's offset is its cell plus s times the table's row
    # width: idx[s] + s*2^b single, (idx[2s] | idx[2s+1] << b) + s*4^b paired.
    assert _folds(d, b, T) == paired
    cb, spec = _design(d, b)
    idx = np.random.default_rng(d + b).integers(0, 2 ** b, size=(T, d), dtype=np.uint8)
    cache = KVCache(idx, np.ones(T, np.float16))
    calls = _recorded_tiles(monkeypatch)
    for mode in ("double", "fp16"):
        score_sequence(np.ones(d), cache, spec, cb, mode)
    p = d // 2 if paired else d
    ((n, row_bytes, heights),) = calls
    assert (n, row_bytes) == (T, 4 * p)
    # 1,024 pair rows or 512 single rows a tile at d=128; at d=2 one tile,
    # half of a pair tile's 65,536 rows or a whole single tile.
    assert heights == {(128, 3): [1024] * 4, (128, 8): [512] * 8,
                       (2, 1): [T], (2, 8): [T]}[d, b]
    folds, tiles = cache._gathers[b]
    assert folds == paired
    keys, rev = idx.tolist(), _bit_reversal(p)
    if paired:
        slots = [[(key[2 * s] | key[2 * s + 1] << b) + s * 4 ** b for key in keys]
                 for s in rev]
    else:
        slots = [[key[s] + s * 2 ** b for key in keys] for s in rev]
    for (rows, block), m in zip(tiles, heights):
        assert block.dtype == np.intp and block.flags.c_contiguous
        assert block.shape == (p, m) and 4 * block.size <= _TILE_BYTES
        want = np.array([row[rows] for row in slots])
        np.testing.assert_array_equal(block, want)


# Scores 21 queries at T=4096, d=128 in a fresh interpreter and prints the
# minor page faults per query after the first, which lays out the offsets.
# The cache is drawn straight as uint8 cells and half norms, with no float64
# key matrix to quantize.
_FAULT_PROBE = """
import resource, sys
import numpy as np
from kvlut.codebook import solve_codebook
from kvlut.read_path import score_sequence
from kvlut.transform import RotationSpec, random_signs
from kvlut.write_path import KVCache
b, mode = int(sys.argv[1]), sys.argv[2]
cb, spec = solve_codebook(128, b), RotationSpec(d=128, sign=random_signs(128, 1))
rng = np.random.default_rng(b)
cells = rng.integers(0, 2 ** b, (4096, 128), dtype=np.uint8)
cache = KVCache(cells, rng.uniform(0.1, 2.0, 4096).astype(np.float16))
queries = rng.normal(size=(21, 128))
score_sequence(queries[0], cache, spec, cb, mode)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for q in queries[1:]:
    score_sequence(q, cache, spec, cb, mode)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.parametrize("mode", ["double", "fp16"])
@pytest.mark.parametrize("b", [3, 4, 5])
def test_decode_queries_take_no_page_faults_in_a_fresh_process(b, mode):
    # b=3 and b=4 (the widest folded table at d=128) run the pair gather and
    # b=5 the single one.  Every tile temporary is at most 512 KiB (double's
    # float64 partials), so after the warm-up query the allocator serves
    # them from the heap instead of mapping and faulting them in again.
    # glibc's mmap threshold is fixed at 768 KiB and heap trimming is off.
    # Its default threshold rises to the largest block freed so far, so any
    # temporary faults in once, on the second query, as the heap grows: a
    # 512 KiB tile about 100 times, a whole-cache one a few hundred, and a
    # per-query average cannot tell them apart.  Fixed, a tile comes from
    # the heap and a temporary past 768 KiB is mapped and faulted in on
    # every query.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src),
           "MALLOC_MMAP_THRESHOLD_": str(3 * _TILE_BYTES),
           "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE, str(b), mode],
                          env=env, capture_output=True, text=True, check=True)
    assert float(done.stdout.split()[-1]) < 1, done.stdout


def test_pair_gate_counts_float64_tile_rows():
    # At d=128 a float64 tile is 256 rows: b <= 4 pairs from T = max(256,
    # 4^(b+1)), and b >= 5 (4^b > 256) never pairs.
    for b, gate in ((1, 256), (2, 256), (3, 256), (4, 1024)):
        assert _folds(128, b, gate - 1) == 0, b
        assert _folds(128, b, gate) == 1, b
    for b in range(5, 9):
        assert _folds(128, b, 1 << 40) == 0, b


@pytest.mark.parametrize("d", [1 << k for k in range(1, 17)])
def test_pair_table_fits_one_tile(d):
    # Every admitted design point's folded table is (d/2, 4^b), with no
    # padding, so it holds at most _TILE_BYTES // 16 entries: half a float64
    # tile's gather.  Entry [i, a + c*2^b] is cols[2i, a] + cols[2i+1, c]:
    # the Python float sum in double mode and the float16 sum, in its uint16
    # view, in fp16 mode.  Row 0 holds +inf in cell 0 and row 1 -inf in
    # every cell, so pair 0's entries [0, c*2^b] sum inf + -inf; the last
    # row holds -inf in cell 1, and entries past 65504 round to half inf.
    rng = np.random.default_rng(d)
    for b in range(1, 9):
        w = 2 ** b
        folds = _folds(d, b, 1 << 40)
        assert folds == (4 ** b <= _TILE_BYTES // (8 * d)), (d, b)
        if not folds:
            continue
        cols = rng.normal(size=(d, w)) * 3e4
        cols[0, 0], cols[1], cols[-1, 1] = np.inf, -np.inf, -np.inf
        rows = cols.tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            half = cols.astype(np.float16)
            halves = [[np.float16(x) for x in row] for row in half.astype(np.float64).tolist()]
            table = _fold(cols)
            table16 = _fold(half.astype(np.float32) * BIAS) * UNBIAS
            want = [[rows[2 * i][a] + rows[2 * i + 1][c] for c in range(w) for a in range(w)]
                    for i in range(d // 2)]
            want16 = [[halves[2 * i][a] + halves[2 * i + 1][c]
                       for c in range(w) for a in range(w)] for i in range(d // 2)]
        assert table.shape == table16.shape == (d // 2, 4 ** b), (d, b)
        assert table.size <= _TILE_BYTES // 16, (d, b)
        assert table.dtype == np.float64 and table16.dtype == np.float32, (d, b)
        assert np.isnan(table[0, ::w]).all() and np.isnan(table16[0, ::w]).all(), (d, b)
        np.testing.assert_array_equal(table.view(np.uint64),
                                      np.array(want).view(np.uint64), f"d={d}, b={b}")
        np.testing.assert_array_equal(table16.astype(np.float16).view(np.uint16),
                                      np.array(want16, np.float16).view(np.uint16),
                                      f"d={d}, b={b}")


@pytest.mark.parametrize("mode, dtype", [("double", np.float64), ("fp16", np.float16)])
def test_empty_cache_scores(mode, dtype):
    scores, ctr = score_sequence(np.ones(D), [], SPEC, CB, mode=mode)
    assert scores.shape == (0,) and scores.dtype == dtype
    assert ctr.mults_in("table", "score") == D * 2**B
    assert ctr.lookups["score"] == 0


def _assert_scores_per_key(tbl, cache):
    # _score_rows on a cache, in both modes, against a fresh cache of the
    # same arrays and the gather-sum and half-tree oracles.  The fp16 kernel
    # runs outside errstate.
    fresh = KVCache(cache.indices, cache.norms)
    got = {mode: _score_rows(tbl, cache, mode, None) for mode in ("double", "fp16")}
    for mode, view in (("double", np.uint64), ("fp16", np.uint16)):
        again = _score_rows(tbl, fresh, mode, None)
        np.testing.assert_array_equal(got[mode].view(view), again.view(view), mode)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _tree_double(tbl.entries, cache.indices, cache.norms)
        want16 = _tree_fp16(tbl.entries, cache.indices, cache.norms)
    np.testing.assert_array_equal(got["double"].view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(got["fp16"].view(np.uint16), want16.view(np.uint16))
    return got


@pytest.mark.parametrize("T", [255, 256, 1024])
def test_cache_keeps_its_gather_offsets_per_bit_width(T):
    # b=3 pairs from T=256 and b=4 from T=1024 (at d=128), so each T runs
    # one b on each side of _folds' gate or both on one side.
    rng = np.random.default_rng(T)
    idx = rng.integers(0, 8, size=(T, D), dtype=np.uint8)
    norms = rng.uniform(0.1, 2.0, size=T).astype(np.float16)
    norms[:3] = np.inf, 0.0, 3e4
    cache = KVCache(idx, norms)
    assert cache._gathers == {} and repr(cache) == repr(KVCache(idx, norms))
    tables = {b: [PrecomputedTable(d=D, b=b, entries=rng.normal(size=(D, 2 ** b)) * s)
                  for s in (1.0, 300.0)] for b in (3, 4)}
    for b in (3, 4):
        for k, tbl in enumerate(tables[b]):
            # The second query at b finds the tiles the first one laid out.
            _assert_scores_per_key(tbl, cache)
            if k:
                assert cache._gathers[b] is memo
            memo = cache._gathers[b]
            folds, tiles = memo
            assert folds == _folds(D, b, T)
            p = D >> folds
            assert [rows for rows, _ in tiles] == list(_row_tiles(T, 4 * p))
            for rows, block in tiles:
                assert block.dtype == np.intp and block.flags.c_contiguous
                assert block.shape == (p, rows.stop - rows.start)
    assert set(cache._gathers) == {3, 4}
    # A slice is a new cache with its own offsets; a list is stacked into one.
    part = cache[1:T - 1]
    assert part._gathers == {}
    whole = _score_rows(tables[3][1], cache, "fp16", None)
    got = _assert_scores_per_key(tables[3][1], part)
    np.testing.assert_array_equal(got["fp16"].view(np.uint16), whole[1:T - 1].view(np.uint16))
    assert set(part._gathers) == {3}
    keys = list(cache)
    for mode, view in (("double", np.uint64), ("fp16", np.uint16)):
        listed = _score_rows(tables[4][0], _cache_rows(keys, D), mode, None)
        held = _score_rows(tables[4][0], cache, mode, None)
        np.testing.assert_array_equal(listed.view(view), held.view(view))


@pytest.mark.parametrize("d", [2, 128, 256])
def test_double_tree_sums_signed_zeros_and_infinities_as_python_floats(d):
    # Row 0 of the table holds +inf, row d-1 -inf and every row -0.0 in
    # cell 1, so the tree meets inf + -inf at its last level (its only one
    # at d=2) and an all-ones key sums -0.0, which numpy's sum turns into
    # +0.0.  T = gate - 1 runs the single gather and T = gate the pair one.
    rng = np.random.default_rng(d)
    entries = np.zeros((d, 2))
    entries[:, 0], entries[:, 1] = rng.normal(size=d), -0.0
    entries[0, 0], entries[-1, 0] = np.inf, -np.inf
    tbl = PrecomputedTable(d=d, b=1, entries=entries)
    gate = max(_TILE_BYTES // (8 * d), 16)
    ones, zeros, first = np.ones(d, np.uint8), np.zeros(d, np.uint8), np.ones(d, np.uint8)
    first[0] = 0
    special = [(zeros, 1.0), (first, 1.0), (ones, 1.0), (ones, 2.0), (first, 0.0),
               (ones, np.inf)]
    for T in (gate - 1, gate):
        idx = rng.integers(0, 2, size=(T, d), dtype=np.uint8)
        norms = rng.uniform(0.1, 2.0, size=T).astype(np.float16)
        for r, (cells, norm) in [*enumerate(special), *zip(range(T - 1, 0, -1), special)]:
            idx[r], norms[r] = cells, norm
        cache = KVCache(idx, norms)
        got = _assert_scores_per_key(tbl, cache)["double"]
        assert _folds(d, 1, T) == (T >= gate), T
        for r in (0, T - 1):
            assert np.isnan(got[r]) and got[1 if r == 0 else T - 2] == np.inf, (d, T)
        for r in (2, 3, T - 3, T - 4):
            assert got[r] == 0 and np.signbit(got[r]), (d, T, r)
        assert np.isnan(got[[4, 5, T - 5, T - 6]]).all(), (d, T)


def test_corrupt_cache_raises_on_every_query_and_keeps_no_offsets():
    idx = np.random.default_rng(8).integers(0, 8, size=(300, D), dtype=np.uint8)
    idx[150, 7] = 8
    cache = KVCache(idx, np.ones(300))
    tbl = PrecomputedTable(d=D, b=3, entries=np.ones((D, 8)))
    for mode in ("double", "fp16", "double"):
        with pytest.raises(CorruptCacheError):
            _score_rows(tbl, cache, mode, None)
        assert cache._gathers == {}
    # At b=4 the same rows are a valid cache.
    _assert_scores_per_key(PrecomputedTable(d=D, b=4, entries=np.ones((D, 16))), cache)
    assert set(cache._gathers) == {4}


def _threshold_table(row_max, b=B, seed=0):
    # A (len(row_max), 2^b) table of halves: row i holds +row_max[i] and
    # -row_max[i] in cells 0 and 1 and smaller halves elsewhere, so
    # sum_i max_j |h| is exactly sum(row_max).
    row_max = np.asarray(row_max, dtype=np.float64)
    rng = np.random.default_rng(seed)
    entries = rng.uniform(-1, 1, size=(row_max.size, 2 ** b)) * row_max[:, None] * 0.99
    entries[:, 0], entries[:, 1] = row_max, -row_max
    with np.errstate(over="ignore"):
        half = entries.astype(np.float16)
    return PrecomputedTable(d=row_max.size, b=b, entries=half.astype(np.float64))


def _recorded_biases(monkeypatch):
    # One flag per _round_half call: every finite value it was handed is a
    # multiple of 2^88, the half subnormal step at the 2^112 bias.
    biased = []

    def recording(s):
        v = s[np.isfinite(s)].astype(np.float64) * 2.0 ** -88
        biased.append(bool(np.all(v == np.floor(v))))
        _round_half(s)

    monkeypatch.setattr(read_path, "_round_half", recording)
    return biased


@pytest.mark.parametrize("T", [255, 256])
def test_fp16_tree_skips_the_overflow_scale_only_under_the_bound(monkeypatch, T):
    # The fp16 tree once skipped its 2^112 overflow scale when a Higham
    # bound proved a query's tree stays below half inf: with S = sum_i
    # max_j |h[i, j]| over the half table, every partial at level k is at
    # most S * (1 + 2^-11)^k, so S * (1 + 2^-11)^log2(d) < 65520 sufficed.
    # Every partial is now held at the bias, so no table skips it.  Five
    # tables at d = 2, 128 and 256: S just under that bound and just over
    # it, a tree reaching exactly 65504, one whose last level sums 65520 (a
    # tie that rounds to inf), and a row holding half +inf.  T is the key
    # count at d=128, one below the pair gate (255, the single gather) or
    # at it (256, the pair gather); each d runs the same side of its gate.
    for d in (2, 128, 256):
        bound = 65520 / (1 + 2.0 ** -11) ** (d.bit_length() - 1)
        base = float(np.float16(bound / d * 0.99))
        last = np.float16(bound - (d - 1) * base)
        while (d - 1) * base + float(last) >= bound:
            last = np.nextafter(last, np.float16(0))
        cases = {
            "just-below": [base] * (d - 1) + [float(last)],
            "just-above": [base] * (d - 1) + [float(np.nextafter(last, np.float16(np.inf)))],
            "reaches-65504": [65504 / d] * d,
            "reaches-65520": [65504 / d] * (d // 2) + [65536 / d] * (d // 2),
            "half-inf": [1.0] * (d - 1) + [1e5],
        }
        assert sum(cases["just-below"]) < bound <= sum(cases["just-above"])
        n = max(_TILE_BYTES // (8 * d), 4 ** (B + 1)) - 256 + T
        assert _folds(d, B, n) == (T == 256)
        rng = np.random.default_rng(n)
        for kind, row_max in cases.items():
            tbl = _threshold_table(row_max, seed=n)
            # Keys aligned with every row's peak, against it, alternating,
            # aligned twice more, and random, with norms 1, 0.5 on the
            # second aligned key (a tree tying at 65520 is inf before the
            # norm halves it), +inf, and the least half subnormal on the
            # third.
            idx = rng.integers(0, 2 ** B, size=(n, d), dtype=np.uint8)
            idx[0], idx[1], idx[2], idx[3], idx[5] = 0, 1, np.arange(d) % 2, 0, 0
            norms = np.ones(n, dtype=np.float16)
            norms[3], norms[4], norms[5] = 0.5, np.inf, 2.0 ** -24
            biased = _recorded_biases(monkeypatch)
            got = _assert_scores_per_key(tbl, KVCache(idx, norms))["fp16"]
            monkeypatch.undo()
            where = f"d={d}, T={n}, table={kind}"
            assert biased and set(biased) == {True}, where
            peak = {"reaches-65504": 65504.0, "reaches-65520": np.inf, "half-inf": np.inf}
            if kind in peak:
                assert got[0] == peak[kind] and got[1] == -peak[kind], where
                assert got[3] == peak[kind] / 2, where
            else:
                assert np.isfinite(got[:2]).all() and got[0] > 65000, where
                assert got[5] == np.float16(float(got[0]) * 2.0 ** -24), where


def test_fp16_root_times_each_half_norm_is_the_exact_product():
    # Each tile's root leaves the bias in float32 before it meets the
    # float16 norms.  Scaling a float16 array by the float32 scalar 2^-112
    # instead would, under numpy 1.x's value-based casting, cast the scalar
    # to half 0 and score every finite key 0.  The root here is 2.0, times
    # norms from the least half subnormal to the half maximum.
    tbl = PrecomputedTable(d=2, b=1, entries=np.array([[1.0, 0.5], [1.0, 0.25]]))
    norms = np.array([1.0, 2.0 ** -24, 2.0 ** -14, 0.5, 60000.0, 65504.0], np.float16)
    got = _score_rows(tbl, KVCache(np.zeros((6, 2), np.uint8), norms), "fp16", None)
    with np.errstate(over="ignore"):
        want = (np.float32(2.0) * norms.astype(np.float32)).astype(np.float16)
    np.testing.assert_array_equal(got.view(np.uint16), want.view(np.uint16))
    assert got.dtype == np.float16 and (got != 0).all()
