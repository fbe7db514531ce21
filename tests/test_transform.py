"""Signed Hadamard rotation, sign generation, and the sign ROM format."""

import ast
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kvlut.transform as transform
from kvlut.errors import (CorruptRomError, FormatError, InvalidDimensionError)
from kvlut.opcount import OpCounter
from kvlut.transform import (_TILE_BYTES, RotationSpec, SignVector, _row_tiles,
                             deserialize_signs, fwht, inverse_rotate,
                             pack_sign_rom, random_signs, rotate,
                             serialize_signs, splitmix64_stream,
                             unpack_sign_rom)

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


@pytest.mark.parametrize("n, row_bytes, rows", [
    (0, 8, [0]), (1025, 256, [1024, 1]), (513, 1024, [256, 256, 1]),
    (3, 1 << 18, [1, 1, 1]), (2, 1 << 19, [1, 1]), (5, 1, [5])])
def test_row_tiles_hold_at_most_256_kib_of_rows(n, row_bytes, rows):
    # The budget is 2^18 bytes of the caller's widest per-row temporary,
    # and a row wider than the budget still gets a tile of its own.
    assert _TILE_BYTES == 1 << 18
    tiles = list(_row_tiles(n, row_bytes))
    assert [t.stop - t.start for t in tiles] == rows
    assert [t.start for t in tiles] == [sum(rows[:i]) for i in range(len(rows))]


@pytest.mark.parametrize("d", [2, 128, 1024, 2 ** 16])
def test_fwht_and_rotations_across_row_tiles_match_the_whole_block(d):
    # fwht runs tile by tile (_row_tiles); two whole tiles and one more row
    # must give the whole-block network's bits, with the tiles' counts summed.
    # A float64 row is 8*d bytes; at d = 2^16 a tile is one row.
    T = 2 * max(1, _TILE_BYTES // (8 * d)) + 1
    tiles = list(_row_tiles(T, 8 * d))
    assert len(tiles) == 3 and tiles[-1].stop - tiles[-1].start == 1
    rng = np.random.default_rng(d)
    x = rng.normal(size=(T, d)) * 10.0 ** rng.integers(-200, 201, size=(T, 1))
    x[tiles[1].start] = -0.0
    signs = random_signs(d, 11)
    spec = RotationSpec(d=d, sign=signs)
    ctr = OpCounter()
    got = fwht(x, ctr)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got.view(np.uint64), concat_butterfly(x).view(np.uint64))
    assert ctr.additions["transform"] == T * d * (d.bit_length() - 1)
    np.testing.assert_array_equal(rotate(spec, x).view(np.uint64),
                                  concat_butterfly(x * signs.signs).view(np.uint64))
    np.testing.assert_array_equal(inverse_rotate(spec, x).view(np.uint64),
                                  (concat_butterfly(x) * signs.signs).view(np.uint64))
    # A row's bits do not depend on the rows tiled beside it.
    for row in (0, tiles[1].start, T - 1):
        np.testing.assert_array_equal(fwht(x[row]).view(np.uint64), got[row].view(np.uint64))


# The ufunc buffer each tile's butterflies must see, by tile rows: 16 * (rows
# // 16), or numpy's default when that is below 16 or not below the default.
ROW_BUFFER = {15: 8192, 16: 16, 17: 16, 255: 240, 256: 256, 4095: 4080,
              4096: 4096, 2 ** 14: 8192}


@pytest.mark.parametrize("d, n", [(d, n) for d in (8, 128)
                                  for n in (15, 16, 17, 255, 256, 4095, 4096)]
                         + [(2, 2 ** 14)])
def test_fwht_runs_each_tile_under_a_row_length_buffer(monkeypatch, d, n):
    assert np.getbufsize() == 8192
    seen = []
    butterflies = transform._butterflies

    def recording(y, diff):
        seen.append((y.shape[1], np.getbufsize()))
        butterflies(y, diff)

    monkeypatch.setattr(transform, "_butterflies", recording)
    rng = np.random.default_rng([d, n])
    x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-100, 101, size=(n, 1))
    got = fwht(x)
    np.testing.assert_array_equal(got.view(np.uint64), concat_butterfly(x).view(np.uint64))
    assert [rows for rows, _ in seen] == [t.stop - t.start for t in _row_tiles(n, 8 * d)]
    assert all(size == ROW_BUFFER[rows] for rows, size in seen)
    assert np.getbufsize() == 8192


def test_overflow_in_the_scoped_butterflies_still_raises():
    x = np.full((512, 8), 1e308)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            fwht(x)
        assert np.getbufsize() == 8192
    assert np.getbufsize() == 8192


def test_rotate_makes_no_whole_block_copy():
    # Each tile is flipped as it is copied into the butterflies' buffer, so
    # a rotation holds its output and one tile's buffers, not a flipped copy
    # of the whole block.
    x = np.random.default_rng(0).normal(size=(4096, 128))
    spec = RotationSpec(d=128, sign=random_signs(128, 1))
    tracemalloc.start()
    try:
        rotate(spec, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * x.nbytes


def _uses(tree, names):
    """(enclosing top-level function or None, name) for each reference to names."""
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            ident = (node.id if isinstance(node, ast.Name) else
                     node.attr if isinstance(node, ast.Attribute) else
                     node.name if isinstance(node, ast.alias) else None)
            if ident in names:
                found.append((owner, ident))
    return found


def test_only_the_rotation_kernel_runs_the_butterflies_or_sizes_numpys_buffer():
    # fwht, rotate and the sign search share transform._rotate_block; a
    # module that calls the butterflies or sets numpy's ufunc buffer itself
    # is a second copy of the rotation.
    names = {"_butterflies", "setbufsize", "getbufsize"}
    for path in sorted(Path(transform.__file__).parent.glob("*.py")):
        uses = _uses(ast.parse(path.read_text()), names)
        if path.name == "transform.py":
            assert uses and {owner for owner, _ in uses} == {"_rotate_block"}
        else:
            assert not uses, f"{path.name} references {uses}"


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
    for d, seed in ((64, 5), (128, 1234567), (4, 9)):
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
    # Signs take the rotation's dimension rule: a power of 2 >= 2.
    with pytest.raises(InvalidDimensionError):
        SignVector(d=12, signs=np.ones(12, dtype=np.int8))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32), st.sampled_from([2, 4, 8, 128]))
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
