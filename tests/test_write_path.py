"""Write datapath: comparator quantization, op accounting, record packing."""

import ast
import itertools
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kvlut.read_path as read_path
import kvlut.write_path as write_path
from kvlut.codebook import solve_codebook
from kvlut.errors import (CorruptCacheError, FormatError,
                          InvalidDimensionError, InvalidInputError)
from kvlut.opcount import OpCounter
from kvlut.reference import dequantize_key
from kvlut.transform import _TILE_BYTES, RotationSpec, _row_tiles, random_signs, rotate
from kvlut.write_path import (KVCache, QuantizedKey, _cell_indices, _pack_rows,
                              _unpack_rows, load_key_matrix, pack, packed_size,
                              quantize_batch, read_kvq, unpack, write_kvq)

D, B = 128, 3
CB = solve_codebook(D, B)
SPEC = RotationSpec(d=D, sign=random_signs(D, 11))


def random_keys(n, d=D, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


def one_key(k, cb=CB):
    # One key through quantize_batch, as the QuantizedKey a cache stores.
    idx, norms = quantize_batch(k[None], SPEC, cb)
    return QuantizedKey(indices=idx[0], norm=norms[0])


def test_indices_match_direct_cell_assignment():
    k = random_keys(1)[0]
    qk = one_key(k)
    y = rotate(SPEC, k / np.linalg.norm(k))
    want = np.searchsorted(CB.boundaries, y, side="right")
    np.testing.assert_array_equal(qk.indices, want.astype(np.uint8))
    assert float(qk.norm) == np.float16(np.linalg.norm(k))


def test_flat_bank_is_the_only_comparator():
    # "flat" names the one bank and gives the default's indices, norms and
    # ledger; the binary-search route is gone, and any other name is
    # rejected before the counter is touched, on no keys as on some.
    keys = random_keys(50, seed=3)
    ctr, flat_ctr = OpCounter(), OpCounter()
    idx, norms = quantize_batch(keys, SPEC, CB, ctr)
    flat_idx, flat_norms = quantize_batch(keys, SPEC, CB, flat_ctr, comparator="flat")
    np.testing.assert_array_equal(flat_idx, idx)
    np.testing.assert_array_equal(flat_norms.view(np.uint64), norms.view(np.uint64))
    assert flat_ctr.to_dict() == ctr.to_dict()
    for bad, n in itertools.product(("binary", "bogus"), (2, 0)):
        ctr = OpCounter()
        with pytest.raises(InvalidInputError):
            quantize_batch(np.ones((n, D)), SPEC, CB, ctr, comparator=bad)
        assert ctr.to_dict() == OpCounter().to_dict()


def test_boundary_tie_goes_to_upper_cell():
    # Rotated-domain values sitting exactly on the boundaries, then values
    # below, on and above the middle boundary (0.0 by symmetry).
    y = np.concatenate([CB.boundaries, [-1.0, 0.0, 1.0]])[None, :]
    idx = _cell_indices(y, CB)
    assert idx.dtype == np.uint8 and idx.shape == y.shape
    # A value equal to boundary t_i belongs to cell i+1.
    np.testing.assert_array_equal(idx[0, :CB.boundaries.size],
                                  np.arange(1, CB.levels))
    np.testing.assert_array_equal(idx[0, CB.boundaries.size:],
                                  [0, CB.levels // 2, CB.levels - 1])


@pytest.mark.parametrize("b", range(1, 9))
def test_flat_comparator_counts_boundaries_like_searchsorted(b):
    cb = solve_codebook(64, b)
    t = cb.boundaries
    rng = np.random.default_rng(b)
    edge = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                           [0.0, -0.0, np.inf, -np.inf]])
    y = np.concatenate([edge, rng.normal(scale=2 * cb.sigma, size=256)])
    # Whole rows of d=64 coordinates, the tail filled by repeating the start.
    y = np.resize(y, (y.size // 64 + 1, 64))
    got = _cell_indices(y, cb)
    want = np.searchsorted(t, y, side="right")
    assert got.dtype == np.uint8 and got.shape == y.shape
    np.testing.assert_array_equal(got, want)
    # Scratch reused from an earlier call: whatever out and the mask hold
    # on entry, the second call writes the same cells into out.
    out = np.full(y.shape, 255, dtype=np.uint8)
    mask = rng.integers(0, 2, size=y.shape).astype(np.bool_)
    for _ in range(2):
        assert _cell_indices(y, cb, out, mask) is out
        np.testing.assert_array_equal(out, want)
        mask[...] = ~mask


def test_counter_charges():
    ctr = OpCounter()
    quantize_batch(random_keys(1), SPEC, CB, ctr)
    assert ctr.multiplications["norm"] == 2 * D
    assert ctr.additions["norm"] == D - 1
    assert ctr.additions["transform"] == D * 7
    assert ctr.comparisons["quantize"] == D * (2**B - 1)
    assert ctr.total_multiplications == 2 * D
    assert ctr.total_comparisons == D * (2**B - 1)


@pytest.mark.parametrize("b", [1, 3, 8])
def test_key_and_one_row_batch_charge_equal_ledgers(b):
    # The one bank runs with its default arguments, so a key costs
    # D * (2^b - 1) comparisons whether it is a one-row batch or a row of a
    # larger one.
    cb = solve_codebook(D, b)
    keys = random_keys(5, seed=b)
    key_ctr, batch_ctr = OpCounter(), OpCounter()
    one, _ = quantize_batch(keys[:1], SPEC, cb, key_ctr)
    idx, _ = quantize_batch(keys, SPEC, cb, batch_ctr)
    np.testing.assert_array_equal(idx[0], one[0])
    assert key_ctr.to_dict() == _quantize_closed_form(D, b, 1)
    assert batch_ctr.to_dict() == _quantize_closed_form(D, b, 5)
    assert key_ctr.comparisons["quantize"] == D * (2**b - 1)


def test_batch_matches_per_key_results_and_counts():
    keys = random_keys(7, seed=5)
    batch_ctr = OpCounter()
    idx, norms = quantize_batch(keys, SPEC, CB, batch_ctr)
    single_ctr = OpCounter()
    for i, k in enumerate(keys):
        one, norm = quantize_batch(k[None], SPEC, CB, single_ctr)
        np.testing.assert_array_equal(idx[i], one[0])
        assert norms[i].view(np.uint64) == norm[0].view(np.uint64)
    assert batch_ctr.to_dict() == single_ctr.to_dict()


def _quantize_closed_form(d, b, T):
    ctr = OpCounter()
    ctr.add("norm", mults=2 * d * T, adds=(d - 1) * T)
    ctr.add("transform", adds=T * d * (d.bit_length() - 1))
    ctr.add("quantize", comps=T * d * (2**b - 1))
    return ctr.to_dict()


@pytest.mark.parametrize("b", [1, 3, 8])
@pytest.mark.parametrize("d", [128, 256])
def test_batch_matches_per_key_route_across_row_tiles(d, b):
    cb = solve_codebook(d, b)
    spec = RotationSpec(d=d, sign=random_signs(d, b))
    T = 2 * (_TILE_BYTES // (8 * d)) + 1
    tiles = list(_row_tiles(T, 8 * d))
    assert [t.stop - t.start for t in tiles] == [T // 2, T // 2, 1]
    keys = random_keys(T, d, seed=d + b) * np.random.default_rng(b).uniform(1e-3, 1e3, (T, 1))
    # Zero keys open and close every tile.
    keys[[t.start for t in tiles] + [t.stop - 1 for t in tiles]] = 0.0
    ctr = OpCounter()
    idx, norms = quantize_batch(keys, spec, cb, ctr)
    assert ctr.to_dict() == _quantize_closed_form(d, b, T)
    for t in (0, 1):
        ctr = OpCounter()
        quantize_batch(keys[:t], spec, cb, ctr)
        assert ctr.to_dict() == _quantize_closed_form(d, b, t)
    # Cells and float64 norms, against one-row batches.
    singles = [quantize_batch(k[None], spec, cb) for k in keys]
    np.testing.assert_array_equal(idx, np.concatenate([i for i, _ in singles]))
    row_norms = np.concatenate([n for _, n in singles])
    np.testing.assert_array_equal(norms.view(np.uint64), row_norms.view(np.uint64))
    assert not norms[[t.start for t in tiles]].any()


def test_zero_key_quantizes_to_zero_norm():
    qk = one_key(np.zeros(D))
    assert float(qk.norm) == 0.0
    rec = dequantize_key(qk, SPEC, CB)
    np.testing.assert_array_equal(rec, np.zeros(D))


def test_input_validation():
    with pytest.raises(InvalidDimensionError):
        quantize_batch(np.ones((1, 64)), SPEC, CB)
    with pytest.raises(InvalidInputError):
        quantize_batch(np.full((1, D), np.nan), SPEC, CB)
    with pytest.raises(InvalidDimensionError):
        quantize_batch(np.ones((2, 64)), SPEC, CB)
    other = RotationSpec(d=64, sign=random_signs(64, 1))
    with pytest.raises(InvalidDimensionError):
        quantize_batch(np.ones((1, 64)), other, CB)


def test_dequantize_inverts_up_to_quantization_noise():
    k = random_keys(1, seed=8)[0]
    qk = one_key(k)
    rec = dequantize_key(qk, SPEC, CB)
    # 3-bit quantization of a unit vector: coordinate MSE near the design
    # distortion, so reconstruction lands close in relative terms.
    rel = np.linalg.norm(rec - k) / np.linalg.norm(k)
    assert rel < 0.25
    ctr = OpCounter()
    dequantize_key(qk, SPEC, CB, ctr)
    assert ctr.multiplications["norm"] == D
    assert ctr.additions["transform"] == D * 7


def test_dequantize_high_bit_reconstruction():
    cb8 = solve_codebook(D, 8)
    k = random_keys(1, seed=4242)[0]
    k /= np.linalg.norm(k)
    rec = dequantize_key(one_key(k, cb8), SPEC, cb8)
    assert np.linalg.norm(rec - k) < 0.05


def test_packed_record_is_50_bytes():
    assert packed_size(D, B) == 50
    # The codec's group layout sizes the record: ceil(d*b/8) index bytes
    # plus the norm at every design point, and no size anywhere else.
    for d in (1 << k for k in range(1, 17)):
        for b in range(1, 9):
            assert packed_size(d, b) == -(-d * b // 8) + 2, (d, b)
    for d, b in ((12, 2), (16, 0), (16, 9), (0, 3), (3, 3)):
        with pytest.raises(InvalidDimensionError):
            packed_size(d, b)
    qk = one_key(random_keys(1)[0])
    assert len(pack(qk, B)) == 50


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 8), st.integers(0, 2**32))
def test_pack_round_trip(b, seed):
    rng = np.random.default_rng(seed)
    qk = QuantizedKey(indices=rng.integers(0, 2**b, size=D, dtype=np.uint8),
                      norm=np.float16(rng.uniform(0, 30)))
    back = unpack(pack(qk, b), D, b)
    np.testing.assert_array_equal(back.indices, qk.indices)
    assert back.norm == qk.norm


def test_pack_bit_layout():
    # Index i sits at bits [b*i, b*i + b), LSB first within the byte stream.
    qk = QuantizedKey(indices=np.array([1, 2, 3, 4], dtype=np.uint8),
                      norm=np.float16(1.0))
    blob = pack(qk, 3)
    word = int.from_bytes(blob[:-2], "little")
    for i, v in enumerate([1, 2, 3, 4]):
        assert (word >> (3 * i)) & 0b111 == v


def test_pack_rejects_out_of_range_index():
    qk = QuantizedKey(indices=np.full(D, 8, dtype=np.uint8),
                      norm=np.float16(1.0))
    with pytest.raises(FormatError):
        pack(qk, 3)
    with pytest.raises(FormatError):
        unpack(b"\x00" * 10, D, B)


def test_kvq_round_trip(tmp_path):
    keys = random_keys(17, seed=21)
    idx, norms = quantize_batch(keys, SPEC, CB)
    qks = [QuantizedKey(indices=idx[i], norm=np.float16(norms[i]))
           for i in range(17)]
    path = tmp_path / "cache.kvq"
    write_kvq(path, qks, D, B, layer_id=12)
    back, d, b, layer_id = read_kvq(path)
    assert (d, b, layer_id, len(back)) == (D, B, 12, 17)
    for got, want in zip(back, qks):
        np.testing.assert_array_equal(got.indices, want.indices)
        assert got.norm == want.norm
    assert path.stat().st_size == 18 + 17 * 50


def test_kvq_empty_cache(tmp_path):
    path = tmp_path / "empty.kvq"
    write_kvq(path, [], D, B)
    assert path.stat().st_size == 18
    back, d, b, layer_id = read_kvq(path)
    assert len(back) == 0 and (d, b) == (D, B)


@pytest.mark.parametrize("layer_id", [-1, 2**32])
def test_kvq_rejects_a_layer_id_outside_the_header_u32(tmp_path, layer_id):
    path = tmp_path / "cache.kvq"
    with pytest.raises(FormatError, match="u32"):
        write_kvq(path, [], D, B, layer_id=layer_id)
    assert not path.exists()
    write_kvq(path, [], D, B, layer_id=layer_id % 2**32)
    assert read_kvq(path)[3] == layer_id % 2**32


def _reference_record(qk, b):
    # Per-key packer: bit j of index i at stream bit b*i + j, then half(norm).
    bits = ((qk.indices[:, None] >> np.arange(b)) & 1).astype(np.uint8).ravel()
    return (np.packbits(bits, bitorder="little").tobytes()
            + struct.pack("<e", float(qk.norm)))


@pytest.mark.parametrize("d", [2, 4, 128])
@pytest.mark.parametrize("b", range(1, 9))
def test_kvq_records_match_per_key_packing(tmp_path, d, b):
    rng = np.random.default_rng(10 * d + b)
    norms = [0.0, np.inf, *rng.uniform(0, 30, size=4)]
    qks = [QuantizedKey(indices=rng.integers(0, 2**b, size=d, dtype=np.uint8),
                        norm=np.float16(n)) for n in norms]
    path = tmp_path / "cache.kvq"
    write_kvq(path, qks, d, b, layer_id=5)
    body = path.read_bytes()[18:]
    assert body == b"".join(pack(qk, b) for qk in qks)
    assert body == b"".join(_reference_record(qk, b) for qk in qks)
    back, d_back, b_back, layer_id = read_kvq(path)
    assert (d_back, b_back, layer_id, len(back)) == (d, b, 5, len(qks))
    for got, want in zip(back, qks):
        np.testing.assert_array_equal(got.indices, want.indices)
        assert got.norm.view(np.uint16) == want.norm.view(np.uint16)


@pytest.mark.parametrize("d, b", [(128, 0), (128, 9), (0, 3), (3, 3)])
def test_kvq_rejects_off_design_headers(tmp_path, d, b):
    # The file length matches the header (ceil(d*b/8) + 2 bytes a record,
    # counted here: packed_size has no size off the design points), so only
    # the (d, b) rule can reject it.
    path = tmp_path / "cache.kvq"
    path.write_bytes(struct.pack("<4sBBIII", b"KVQC", 1, b, d, 1, 0)
                     + b"\x00" * ((d * b + 7) // 8 + 2))
    with pytest.raises(CorruptCacheError):
        read_kvq(path)
    qk = QuantizedKey(indices=np.zeros(d, dtype=np.uint8), norm=np.float16(1.0))
    with pytest.raises(InvalidDimensionError):
        write_kvq(tmp_path / "out.kvq", [qk], d, b)


def test_kvq_rejects_corruption(tmp_path):
    path = tmp_path / "cache.kvq"
    write_kvq(path, [one_key(random_keys(1)[0])], D, B)
    blob = path.read_bytes()
    bad = tmp_path / "bad.kvq"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CorruptCacheError):
        read_kvq(bad)
    bad.write_bytes(blob[:4] + b"\x09" + blob[5:])
    with pytest.raises(CorruptCacheError):
        read_kvq(bad)
    bad.write_bytes(blob[:-3])
    with pytest.raises(FormatError):
        read_kvq(bad)
    bad.write_bytes(blob[:10])
    with pytest.raises(FormatError):
        read_kvq(bad)
    # Half norms: NaN and negative ones are corrupt; -0 and +inf load.
    for norm in (np.nan, -1.0, -np.inf):
        bad.write_bytes(blob[:-2] + np.float16(norm).tobytes())
        with pytest.raises(CorruptCacheError):
            read_kvq(bad)
    for norm in (-0.0, np.inf):
        bad.write_bytes(blob[:-2] + np.float16(norm).tobytes())
        (qk,), _, _, _ = read_kvq(bad)
        assert qk.norm.view(np.uint16) == np.float16(norm).view(np.uint16)


def test_load_key_matrix_formats(tmp_path):
    mat = random_keys(5, d=16, seed=2)
    npy = tmp_path / "k.npy"
    np.save(npy, mat)
    np.testing.assert_array_equal(load_key_matrix(npy), mat)
    txt = tmp_path / "k.txt"
    np.savetxt(txt, mat)
    np.testing.assert_allclose(load_key_matrix(txt), mat, rtol=1e-15)
    csv = tmp_path / "k.csv"
    np.savetxt(csv, mat, delimiter=",")
    np.testing.assert_allclose(load_key_matrix(csv), mat, rtol=1e-15)
    raw = tmp_path / "k.bin"
    raw.write_bytes(mat.astype("<f8").tobytes())
    np.testing.assert_array_equal(load_key_matrix(raw, 16), mat)
    with pytest.raises(FormatError):
        load_key_matrix(raw)
    with pytest.raises(FormatError):
        load_key_matrix(raw, 24)
    with pytest.raises(InvalidDimensionError):
        load_key_matrix(npy, 32)
    nan = tmp_path / "nan.npy"
    np.save(nan, np.full((2, 16), np.nan))
    with pytest.raises(InvalidInputError):
        load_key_matrix(nan)
    cube = tmp_path / "cube.npy"
    np.save(cube, np.ones((2, 3, 16)))
    with pytest.raises(InvalidDimensionError):
        load_key_matrix(cube)
    for name in ("empty.txt", "empty.csv", "comments.txt"):
        (tmp_path / name).write_text("# no values\n" if "comments" in name else "")
        with pytest.raises(FormatError):
            load_key_matrix(tmp_path / name)
    empty = tmp_path / "empty.npy"
    np.save(empty, np.ones((0, 16)))
    assert load_key_matrix(empty).shape == (0, 16)
    # One value per line is one column; one line is one row.
    for name, text, shape in (("col.txt", "1\n2\n3\n4\n", (4, 1)),
                              ("col.csv", "1\n2\n3\n", (3, 1)),
                              ("row.txt", "1 2 3 4\n", (1, 4)),
                              ("row.csv", "1,2,3,4\n", (1, 4))):
        (tmp_path / name).write_text(text)
        assert load_key_matrix(tmp_path / name).shape == shape


def test_quantized_key_validation():
    with pytest.raises(InvalidInputError):
        QuantizedKey(indices=np.zeros(4, dtype=np.uint8),
                     norm=np.float16(-1.0))
    with pytest.raises(InvalidInputError):
        QuantizedKey(indices=np.zeros(4, dtype=np.uint8), norm=np.nan)


def _bit_tensor_pack(idx, norms, b):
    # The record codec as it was before the group shift-or: a (T, d, b) bit
    # tensor from np.unpackbits, packed back with np.packbits.
    t, d = idx.shape
    bits = np.unpackbits(idx[:, :, None], axis=2, count=b, bitorder="little")
    payload = np.packbits(bits.reshape(t, d * b), axis=1, bitorder="little")
    return np.hstack([payload, norms.astype("<f2").view(np.uint8).reshape(t, 2)])


def _bit_tensor_unpack(rows, d, b):
    t = rows.shape[0]
    bits = np.unpackbits(rows[:, :-2], axis=1, count=d * b,
                         bitorder="little").reshape(t, d, b)
    idx = np.zeros((t, d), dtype=np.uint8)
    for j in range(b):
        idx |= bits[:, :, j] << j
    norms = np.ascontiguousarray(rows[:, -2:]).view("<f2")[:, 0].astype(np.float16)
    return idx, norms


@pytest.mark.parametrize("d", [2, 4, 8, 16, 128, 256])
@pytest.mark.parametrize("b", range(1, 9))
def test_shift_or_codec_matches_the_bit_tensor_codec(monkeypatch, d, b):
    # Groups of g = 8 / gcd(8, b) indices outgrow d = 2 and 4 for odd b (and
    # d = 2 for b = 2, 6), so there the whole row is one group.  The codec
    # tiles its rows at 8 bytes a group whatever its word's width (2,048
    # rows at d=128, b=1); the last T spans two whole tiles and one more row.
    rng = np.random.default_rng(100 * d + b)
    groups = -(-d // (8 // math.gcd(8, b)))
    row_bytes = []
    monkeypatch.setattr(write_path, "_row_tiles",
                        lambda n, rb: row_bytes.append(rb) or _row_tiles(n, rb))
    for t in (0, 1, 37, 257, 2 * (_TILE_BYTES // (8 * groups)) + 1):
        idx = rng.integers(0, 1 << b, size=(t, d), dtype=np.uint8)
        norms = rng.integers(0, 1 << 16, size=t, dtype=np.uint16).view(np.float16)
        rows = _pack_rows(idx, norms, b)
        want = _bit_tensor_pack(idx, norms, b)
        assert rows.shape == want.shape == (t, packed_size(d, b))
        np.testing.assert_array_equal(rows, want)
        # Any record bytes, padding bits included, unpack as before.
        for data in (rows, rng.integers(0, 256, size=rows.shape, dtype=np.uint8)):
            got_idx, got_norms = _unpack_rows(data, d, b)
            want_idx, want_norms = _bit_tensor_unpack(data, d, b)
            assert got_idx.dtype == np.uint8 and got_idx.shape == (t, d)
            np.testing.assert_array_equal(got_idx, want_idx)
            np.testing.assert_array_equal(got_norms.view(np.uint16),
                                          want_norms.view(np.uint16))
    assert set(row_bytes) == {8 * groups}


def test_codec_rejects_a_width_no_uint8_index_fills():
    qk = QuantizedKey(indices=np.zeros(D, dtype=np.uint8), norm=np.float16(1.0))
    for b in (0, 9):
        with pytest.raises(InvalidDimensionError):
            pack(qk, b)
        with pytest.raises(InvalidDimensionError):
            unpack(bytes((D * b + 7) // 8 + 2), D, b)


def _is_range(node):
    # 1 << x, alone or inside arithmetic such as (1 << b) - 1.
    if not isinstance(node, ast.BinOp):
        return False
    return ((isinstance(node.op, ast.LShift) and isinstance(node.left, ast.Constant)
             and node.left.value == 1)
            or _is_range(node.left) or _is_range(node.right))


def _index_rule_faults(module, source):
    """Comparisons against 1 << x outside write_path._check_indices, by line."""
    tree = ast.parse(source)
    owner = {id(n) for f in ast.walk(tree)
             if module == "write_path" and isinstance(f, ast.FunctionDef)
             and f.name == "_check_indices"
             for n in ast.walk(f)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and id(node) not in owner
            and any(_is_range(op) for op in [node.left, *node.comparators])]


def test_only_check_indices_tests_an_index_against_2_to_the_b():
    # The index rule "every index < 2^b" has one owner, which the codec, the
    # read path's lookup and the oracle all call.
    paths = sorted(Path(write_path.__file__).parent.glob("*.py"))
    assert {"write_path.py", "read_path.py", "reference.py"} <= {p.name for p in paths}
    for path in paths:
        assert _index_rule_faults(path.stem, path.read_text()) == [], path.name
    assert "def _check_indices(" in Path(write_path.__file__).read_text()


@pytest.mark.parametrize("line", [
    "if idx.size and idx.max() >= (1 << b): raise CorruptCacheError(b)",
    "if np.any(idx >= 1 << cb.b): raise IndexError",
    "bad = idx.max() > (1 << b) - 1",
    "bad = (1 << b) <= idx.max()",
])
def test_index_rule_check_catches_an_inline_range_test(line):
    path = Path(read_path.__file__)
    assert _index_rule_faults("read_path", path.read_text() + "\n" + line + "\n")


# Where write_path may name np.float16: the one norm rule, the stacking of
# norms that are already half, and the QuantizedKey.norm annotation.
_HALF_SCOPES = {"_half_norms", "_cache_rows", "QuantizedKey.norm"}


def _half_cast_faults(source):
    """(scope, line) of each np.float16 outside _HALF_SCOPES.

    The scope is the innermost function or class, or "Class.field" for a
    class-body annotation.
    """
    faults = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child.name
            elif isinstance(node, ast.ClassDef) and isinstance(child, ast.AnnAssign):
                inner = f"{node.name}.{child.target.id}"
            elif (isinstance(child, ast.Attribute) and child.attr == "float16"
                  and scope not in _HALF_SCOPES):
                faults.append((scope, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return faults


def test_only_half_norms_rounds_a_norm_to_half():
    # The norm rule "round to half, then no NaN or negative" has one owner,
    # which QuantizedKey and KVCache both call.
    source = Path(write_path.__file__).read_text()
    assert _half_cast_faults(source) == []
    assert "def _half_norms(" in source


def test_half_cast_check_catches_a_second_rounding():
    source = Path(write_path.__file__).read_text()
    rounded = "_half_norms(self.norm)"
    assert source.count(rounded) == 1
    faults = _half_cast_faults(source.replace(rounded, "np.float16(self.norm)"))
    assert [scope for scope, _ in faults] == ["__post_init__"]


def _norm_verdicts(norm, tmp_path):
    """Each norm entry point's verdict on one norm: its stored uint16 bits, or
    the class of the error it raised."""
    record = bytes(packed_size(D, B) - 2) + struct.pack("<e", norm)
    path = tmp_path / "norm.kvq"
    path.write_bytes(struct.pack("<4sBBIII", b"KVQC", 1, B, D, 1, 0) + record)
    entries = {
        "QuantizedKey": lambda: QuantizedKey(np.zeros(D, np.uint8), norm).norm,
        "KVCache": lambda: KVCache(np.zeros((1, D), np.uint8), [norm]).norms[0],
        "unpack": lambda: unpack(record, D, B).norm,
        "read_kvq": lambda: read_kvq(path)[0].norms[0],
    }
    verdicts = {}
    for name, call in entries.items():
        try:
            verdicts[name] = int(np.asarray(call()).view(np.uint16))
        except (InvalidInputError, CorruptCacheError) as exc:
            verdicts[name] = type(exc)
    return verdicts


@pytest.mark.parametrize("norm", [0.0, -0.0, 2.0 ** -24, 1.0, 65504.0, np.inf,
                                  np.nan, -1.0], ids=repr)
def test_every_norm_entry_point_gives_one_verdict(norm, tmp_path):
    # Built from a float, unpacked from a record or read from a .kvq, a norm
    # is accepted with the same half bits everywhere, or rejected everywhere
    # (as CorruptCacheError from a file).  +inf, an overflow, is accepted.
    verdicts = _norm_verdicts(norm, tmp_path)
    if np.isnan(norm) or norm < 0:
        assert verdicts == {"QuantizedKey": InvalidInputError, "KVCache": InvalidInputError,
                            "unpack": InvalidInputError, "read_kvq": CorruptCacheError}
    else:
        assert set(verdicts.values()) == {int(np.float16(norm).view(np.uint16))}


def _old_unit_rows(keys):
    # quantize_batch's normalization before its outer np.where was dropped.
    nrm = np.linalg.norm(keys, axis=1)
    return np.where(nrm[:, None] > 0.0,
                    keys / np.where(nrm == 0.0, 1.0, nrm)[:, None], keys)


def test_quantize_batch_normalizes_zero_and_underflowing_rows_as_before(monkeypatch):
    # A zero row, a -0.0 row and a row whose norm underflows to 0 are rotated
    # as they are, bit for bit as the old two-np.where normalization did.
    tile = _TILE_BYTES // (8 * D)
    T = 2 * tile + 1
    keys = random_keys(T, seed=8)
    keys[3] = 0.0
    keys[tile] = -0.0
    keys[T - 1] = 1e-170
    keys[T - 1, ::3] = -1e-170
    rotated = []

    def spy(spec, x, counter=None):
        rotated.append(np.array(x))
        return rotate(spec, x, counter)

    monkeypatch.setattr(write_path, "rotate", spy)
    idx, norms = quantize_batch(keys, SPEC, CB)
    assert not norms[[3, tile, T - 1]].any()
    unit = np.concatenate(rotated)
    np.testing.assert_array_equal(unit.view(np.uint64), _old_unit_rows(keys).view(np.uint64))
    assert np.signbit(unit[tile]).all()
    np.testing.assert_array_equal(
        idx, np.searchsorted(CB.boundaries, rotate(SPEC, _old_unit_rows(keys)), side="right"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200, 1e308])
def test_non_finite_key_in_the_last_tile_leaves_the_counter_alone(bad, monkeypatch):
    # A NaN or infinite entry, or one whose square passes the float64 range:
    # the key's norm is not finite, and the error names its row.
    T = 2 * (_TILE_BYTES // (8 * D)) + 1
    keys = random_keys(T, seed=9)
    keys[T - 1, D - 1] = bad
    monkeypatch.setattr(write_path, "rotate", None)  # no tile reaches the kernel
    ctr = OpCounter()
    ctr.add("score", mults=5)
    before = ctr.to_dict()
    with pytest.raises(InvalidInputError, match=f"row {T - 1} "):
        quantize_batch(keys, SPEC, CB, ctr)
    assert ctr.to_dict() == before
