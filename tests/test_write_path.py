"""Write datapath: comparator quantization, op accounting, record packing."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvlut.codebook import solve_codebook
from kvlut.errors import (CorruptCacheError, FormatError,
                          InvalidDimensionError, InvalidInputError)
from kvlut.opcount import OpCounter
from kvlut.transform import RotationSpec, random_signs, rotate
from kvlut.write_path import (QuantizedKey, dequantize_key, load_key_matrix,
                              pack, packed_size, quantize_batch, quantize_key,
                              read_kvq, unpack, write_kvq)

D, B = 128, 3
CB = solve_codebook(D, B)
SPEC = RotationSpec(d=D, sign=random_signs(D, 11))


def random_keys(n, d=D, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


def test_indices_match_direct_cell_assignment():
    k = random_keys(1)[0]
    qk = quantize_key(k, SPEC, CB)
    y = rotate(SPEC, k / np.linalg.norm(k))
    want = np.searchsorted(CB.boundaries, y, side="right")
    np.testing.assert_array_equal(qk.indices, want.astype(np.uint8))
    assert float(qk.norm) == np.float16(np.linalg.norm(k))


def test_comparator_modes_agree():
    keys = random_keys(50, seed=3)
    flat_idx, _ = quantize_batch(keys, SPEC, CB, comparator="flat")
    bin_idx, _ = quantize_batch(keys, SPEC, CB, comparator="binary")
    np.testing.assert_array_equal(flat_idx, bin_idx)


def test_boundary_tie_goes_to_upper_cell():
    # Feed rotated-domain values sitting exactly on boundaries through the
    # comparator by crafting a codebook whose boundary is hit exactly.
    from kvlut.write_path import _comparator_indices
    y = np.concatenate([CB.boundaries, [-1.0, 0.0, 1.0]])[None, :]
    idx_flat = _comparator_indices(y, CB, "flat", None, 1)
    idx_bin = _comparator_indices(y, CB, "binary", None, 1)
    np.testing.assert_array_equal(idx_flat, idx_bin)
    # A value equal to boundary t_i belongs to cell i+1.
    np.testing.assert_array_equal(idx_flat[0, :CB.boundaries.size],
                                  np.arange(1, CB.levels))


@pytest.mark.parametrize("b", range(1, 9))
def test_flat_comparator_counts_boundaries_like_searchsorted(b):
    from kvlut.write_path import _comparator_indices
    cb = solve_codebook(64, b)
    t = cb.boundaries
    rng = np.random.default_rng(b)
    edge = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                           [0.0, -0.0, np.inf, -np.inf]])
    y = np.concatenate([edge, rng.normal(scale=2 * cb.sigma, size=256)])
    # Whole rows of d=64 coordinates, the tail filled by repeating the start.
    y = np.resize(y, (y.size // 64 + 1, 64))
    ctr = OpCounter()
    got = _comparator_indices(y, cb, "flat", ctr, y.shape[0])
    assert got.dtype == np.uint8 and got.shape == y.shape
    np.testing.assert_array_equal(got, np.searchsorted(t, y, side="right"))
    assert ctr.comparisons["quantize"] == y.size * (2**b - 1)


def test_counter_charges():
    ctr = OpCounter()
    quantize_key(random_keys(1)[0], SPEC, CB, ctr, comparator="flat")
    assert ctr.multiplications["norm"] == 2 * D
    assert ctr.additions["norm"] == D - 1
    assert ctr.additions["transform"] == D * 7
    assert ctr.comparisons["quantize"] == D * (2**B - 1)
    assert ctr.total_multiplications == 2 * D
    ctr = OpCounter()
    quantize_key(random_keys(1)[0], SPEC, CB, ctr, comparator="binary")
    assert ctr.comparisons["quantize"] == D * B


def test_batch_matches_per_key_results_and_counts():
    keys = random_keys(7, seed=5)
    batch_ctr = OpCounter()
    idx, norms = quantize_batch(keys, SPEC, CB, batch_ctr, comparator="flat")
    single_ctr = OpCounter()
    for i, k in enumerate(keys):
        qk = quantize_key(k, SPEC, CB, single_ctr, comparator="flat")
        np.testing.assert_array_equal(idx[i], qk.indices)
        assert np.float16(norms[i]) == qk.norm
    assert batch_ctr.to_dict() == single_ctr.to_dict()


def test_zero_key_quantizes_to_zero_norm():
    qk = quantize_key(np.zeros(D), SPEC, CB)
    assert float(qk.norm) == 0.0
    rec = dequantize_key(qk, SPEC, CB)
    np.testing.assert_array_equal(rec, np.zeros(D))


def test_input_validation():
    with pytest.raises(InvalidDimensionError):
        quantize_key(np.ones(64), SPEC, CB)
    with pytest.raises(InvalidInputError):
        quantize_key(np.full(D, np.nan), SPEC, CB)
    with pytest.raises(InvalidDimensionError):
        quantize_batch(np.ones((2, 64)), SPEC, CB)
    with pytest.raises(InvalidInputError):
        quantize_batch(np.ones((2, D)), SPEC, CB, comparator="bogus")
    other = RotationSpec(d=64, sign=random_signs(64, 1))
    with pytest.raises(InvalidDimensionError):
        quantize_key(np.ones(64), other, CB)


def test_dequantize_inverts_up_to_quantization_noise():
    k = random_keys(1, seed=8)[0]
    qk = quantize_key(k, SPEC, CB)
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
    rec = dequantize_key(quantize_key(k, SPEC, cb8), SPEC, cb8)
    assert np.linalg.norm(rec - k) < 0.05


def test_packed_record_is_50_bytes():
    assert packed_size(D, B) == 50
    qk = quantize_key(random_keys(1)[0], SPEC, CB)
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
    assert back == [] and (d, b) == (D, B)


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
    # The file length matches the header, so only the (d, b) rule can reject it.
    path = tmp_path / "cache.kvq"
    path.write_bytes(struct.pack("<4sBBIII", b"KVQC", 1, b, d, 1, 0)
                     + b"\x00" * packed_size(d, b))
    with pytest.raises(CorruptCacheError):
        read_kvq(path)
    qk = QuantizedKey(indices=np.zeros(d, dtype=np.uint8), norm=np.float16(1.0))
    with pytest.raises(InvalidDimensionError):
        write_kvq(tmp_path / "out.kvq", [qk], d, b)


def test_kvq_rejects_corruption(tmp_path):
    path = tmp_path / "cache.kvq"
    write_kvq(path, [quantize_key(random_keys(1)[0], SPEC, CB)], D, B)
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


def test_quantized_key_validation():
    with pytest.raises(InvalidInputError):
        QuantizedKey(indices=np.zeros(4, dtype=np.uint8),
                     norm=np.float16(-1.0))
