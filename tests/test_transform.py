"""Signed Hadamard rotation, sign generation, and the sign ROM format."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvlut.errors import (CorruptRomError, FormatError, InvalidDimensionError)
from kvlut.opcount import OpCounter
from kvlut.transform import (RotationSpec, SignVector, deserialize_signs,
                             fwht, inverse_rotate, pack_sign_rom,
                             random_signs, rotate, serialize_signs,
                             splitmix64_stream, unpack_sign_rom)

# Frozen reference outputs for seed 1234567; any compliant generator must
# reproduce these exactly.
SPLITMIX_GOLDEN = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def hadamard(d):
    h = np.array([[1.0]])
    while h.shape[0] < d:
        h = np.block([[h, h], [h, -h]])
    return h


def test_splitmix64_golden_values():
    assert splitmix64_stream(1234567, 5) == SPLITMIX_GOLDEN


def test_splitmix64_is_a_stream():
    # Prefix property: asking for fewer values gives a prefix.
    assert splitmix64_stream(42, 3) == splitmix64_stream(42, 8)[:3]
    assert splitmix64_stream(2**64 - 1, 2) == splitmix64_stream(-1, 2)


def test_fwht_matches_dense_hadamard():
    rng = np.random.default_rng(0)
    for d in (2, 8, 64):
        x = rng.normal(size=d)
        want = hadamard(d) @ x / np.sqrt(d)
        np.testing.assert_allclose(fwht(x), want, rtol=0.0, atol=1e-12)


def test_fwht_is_an_involution():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 32))
    np.testing.assert_allclose(fwht(fwht(x)), x, rtol=0.0, atol=1e-12)


def test_fwht_counts_additions_only():
    ctr = OpCounter()
    fwht(np.ones(128), ctr)
    assert ctr.additions["transform"] == 128 * 7
    assert ctr.total_multiplications == 0
    ctr = OpCounter()
    fwht(np.ones((10, 16)), ctr)
    assert ctr.additions["transform"] == 10 * 16 * 4


def concat_butterfly(x):
    """Row-wise butterfly network with one np.concatenate per stage: the
    add order the contiguous in-place kernel must reproduce bit for bit."""
    arr = np.asarray(x, dtype=np.float64)
    d = arr.shape[-1]
    rows = arr.reshape(-1, d)
    if rows.shape[0] == 0:
        return arr.copy()
    y, h = rows, 1
    while h < d:
        y = y.reshape(rows.shape[0], -1, 2, h)
        y = np.concatenate((y[:, :, 0, :] + y[:, :, 1, :],
                            y[:, :, 0, :] - y[:, :, 1, :]), axis=2)
        h *= 2
    return (y.reshape(rows.shape[0], d) / np.sqrt(d)).reshape(arr.shape)


@pytest.mark.parametrize("d", [2 ** e for e in range(1, 9)])
def test_fwht_bit_identical_to_row_butterfly(d):
    rng = np.random.default_rng(d)
    for n in (0, 1, 3, 512):
        x = rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0, size=(n, 1))
        ctr = OpCounter()
        got = fwht(x, ctr)
        assert got.shape == (n, d) and got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.uint64),
                                      concat_butterfly(x).view(np.uint64))
        assert ctr.additions["transform"] == n * d * (d.bit_length() - 1)
        assert ctr.total_multiplications == 0
    v = rng.normal(size=d)
    got = fwht(v)
    assert got.shape == (d,)
    np.testing.assert_array_equal(got.view(np.uint64),
                                  concat_butterfly(v).view(np.uint64))
    # The input is never written.
    before = x.copy()
    fwht(x)
    np.testing.assert_array_equal(x, before)


def test_fwht_rejects_bad_shapes():
    with pytest.raises(InvalidDimensionError):
        fwht(np.ones(12))
    with pytest.raises(InvalidDimensionError):
        fwht(np.ones((2, 2, 2)))
    with pytest.raises(InvalidDimensionError):
        fwht(np.ones(1))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32), st.sampled_from([4, 16, 128]))
def test_rotation_preserves_norms_and_dots(seed, d):
    spec = RotationSpec(d=d, sign=random_signs(d, seed))
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=d), rng.normal(size=d)
    rx, ry = rotate(spec, x), rotate(spec, y)
    assert abs(np.linalg.norm(rx) - np.linalg.norm(x)) < 1e-10
    assert abs(rx @ ry - x @ y) < 1e-9
    np.testing.assert_allclose(inverse_rotate(spec, rx), x,
                               rtol=0.0, atol=1e-10)


def test_rotate_matrix_rows_match_vector_calls():
    spec = RotationSpec(d=16, sign=random_signs(16, 9))
    rng = np.random.default_rng(2)
    mat = rng.normal(size=(4, 16))
    rows = rotate(spec, mat)
    for i in range(4):
        np.testing.assert_array_equal(rows[i], rotate(spec, mat[i]))


def test_inverse_rotate_counts_like_forward():
    spec = RotationSpec(d=64, sign=random_signs(64, 3))
    fwd, inv = OpCounter(), OpCounter()
    y = rotate(spec, np.ones(64), fwd)
    inverse_rotate(spec, y, inv)
    assert inv.additions["transform"] == fwd.additions["transform"] == 64 * 6


def test_random_signs_deterministic_and_pm_one():
    a = random_signs(128, 77)
    b = random_signs(128, 77)
    np.testing.assert_array_equal(a.signs, b.signs)
    assert set(np.unique(a.signs)) <= {-1, 1}
    assert not np.array_equal(a.signs, random_signs(128, 78).signs)


def test_random_signs_match_raw_draw_bits():
    # Serialized signs are the raw little-endian splitmix64 bytes, truncated.
    for d, seed in ((64, 5), (128, 1234567), (100, 9)):
        s = random_signs(d, seed)
        words = splitmix64_stream(seed, (d + 63) // 64)
        raw = b"".join(struct.pack("<Q", w) for w in words)
        packed = serialize_signs(s)
        bits_all = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                                 bitorder="little")
        bits_pkd = np.unpackbits(np.frombuffer(packed, dtype=np.uint8),
                                 bitorder="little")
        np.testing.assert_array_equal(bits_pkd[:d], bits_all[:d])


def test_sign_vector_validation():
    with pytest.raises(FormatError):
        SignVector(d=4, signs=np.array([1, 0, 1, -1]))
    with pytest.raises(InvalidDimensionError):
        SignVector(d=4, signs=np.ones(3, dtype=np.int8))
    with pytest.raises(FormatError):
        SignVector(d=2, signs=np.array([1, -1]), layer_id=-1)
    # The rotation itself needs a power-of-2 dimension; bare signs do not.
    twelve = SignVector(d=12, signs=np.ones(12, dtype=np.int8))
    with pytest.raises(InvalidDimensionError):
        RotationSpec(d=12, sign=twelve)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32), st.sampled_from([8, 100, 128]))
def test_sign_serialization_round_trip(seed, d):
    s = random_signs(d, seed)
    back = deserialize_signs(serialize_signs(s), d)
    np.testing.assert_array_equal(back.signs, s.signs)


def test_sign_rom_layout():
    signs = [random_signs(128, 10 + i, layer_id=i) for i in range(36)]
    blob = pack_sign_rom(signs)
    assert len(blob) == 8 + 36 * 16
    assert blob[:2] == b"SG"
    assert blob[2] == 1
    d, count = struct.unpack_from("<HH", blob, 4)
    assert (d, count) == (128, 36)
    back = unpack_sign_rom(blob)
    assert [s.layer_id for s in back] == list(range(36))
    for got, want in zip(back, signs):
        np.testing.assert_array_equal(got.signs, want.signs)


def test_sign_rom_rejects_corruption():
    blob = pack_sign_rom([random_signs(64, 1)])
    with pytest.raises(CorruptRomError):
        unpack_sign_rom(b"XX" + blob[2:])
    with pytest.raises(CorruptRomError):
        unpack_sign_rom(blob[:2] + b"\x02" + blob[3:])
    with pytest.raises(FormatError):
        unpack_sign_rom(blob[:-1])
    with pytest.raises(FormatError):
        unpack_sign_rom(blob[:4])
    # No layers, and one layer of zero coordinates.
    with pytest.raises(FormatError, match="at least one layer"):
        unpack_sign_rom(blob[:6] + b"\x00\x00")
    with pytest.raises(InvalidDimensionError):
        unpack_sign_rom(blob[:4] + b"\x00\x00\x01\x00")
    with pytest.raises(FormatError):
        pack_sign_rom([])
    with pytest.raises(InvalidDimensionError):
        pack_sign_rom([random_signs(64, 1), random_signs(128, 1)])
    # The header holds the layer count as u16.
    with pytest.raises(FormatError, match="65536 layers"):
        pack_sign_rom([random_signs(2, 1)] * 65536)


def test_deserialize_signs_length_check():
    with pytest.raises(FormatError):
        deserialize_signs(b"\x00" * 15, 128)
