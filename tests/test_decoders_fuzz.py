"""Every binary decoder takes any byte string and either returns a valid
object or raises a KvlutError."""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kvlut.codebook import deserialize_rom, rom_size
from kvlut.errors import KvlutError
from kvlut.transform import unpack_sign_rom
from kvlut.write_path import read_kvq


def _parses_or_kvlut_error(decode, data):
    try:
        return decode(data)
    except KvlutError:
        return None


@st.composite
def sign_rom_images(draw):
    # A well-formed header half the time, so decoding reaches the records.
    d = draw(st.integers(0, 130))
    count = draw(st.integers(0, 4))
    version = draw(st.sampled_from([1, 1, 2]))
    header = struct.pack("<2sBBHH", b"SG", version, 0, d, count)
    size = draw(st.sampled_from([count * ((d + 7) // 8), draw(st.integers(0, 40))]))
    return header + draw(st.binary(min_size=size, max_size=size))


@given(st.one_of(st.binary(max_size=64), sign_rom_images()))
@settings(max_examples=300, deadline=None)
def test_unpack_sign_rom_parses_or_raises(data):
    out = _parses_or_kvlut_error(unpack_sign_rom, data)
    if out is not None:
        d, count = struct.unpack_from("<HH", data, 4)
        assert len(out) == count >= 1
        for i, s in enumerate(out):
            assert s.layer_id == i and s.signs.shape == (d,)
            assert np.all(np.abs(s.signs) == 1)


@given(st.sampled_from([2, 64, 128, 96]), st.integers(0, 9), st.data())
@settings(max_examples=300, deadline=None)
def test_deserialize_rom_parses_or_raises(d, b, data):
    size = rom_size(b) if 1 <= b <= 8 else 30
    blob = data.draw(st.one_of(st.binary(min_size=size, max_size=size),
                               st.binary(max_size=2 * size + 2)))
    cb = _parses_or_kvlut_error(lambda x: deserialize_rom(x, d, b), blob)
    if cb is not None:
        values = np.concatenate([cb.centroids, cb.boundaries])
        assert np.all(np.isfinite(values))
        assert np.all(np.diff(cb.centroids) > 0)
        assert np.all(cb.boundaries > cb.centroids[:-1])
        assert np.all(cb.boundaries < cb.centroids[1:])


# Half-precision norm bytes: NaN, -0, -1, +inf, -inf and 1.0.
_NORMS = [struct.pack("<e", v) for v in
          (float("nan"), -0.0, -1.0, float("inf"), float("-inf"), 1.0)]


@st.composite
def kvq_images(draw):
    d = draw(st.sampled_from([0, 2, 3, 4, 8, 2 ** 31]))
    b = draw(st.integers(0, 9))
    count = draw(st.integers(0, 3))
    version = draw(st.sampled_from([1, 1, 2]))
    header = struct.pack("<4sBBIII", b"KVQC", version, b, d, count,
                         draw(st.integers(0, 2 ** 32 - 1)))
    # Records are sized here, not by packed_size, which has no size for an
    # off-design (d, b).
    record = (d * b + 7) // 8 + 2
    if d <= 8 and draw(st.booleans()):
        # Well-formed records whose norm is one of the edge values.
        body = b"".join(
            draw(st.binary(min_size=record - 2, max_size=record - 2))
            + draw(st.sampled_from(_NORMS)) for _ in range(count))
        return header + body
    exact = count * record if d <= 8 else 0
    size = draw(st.sampled_from([exact, draw(st.integers(0, 40))]))
    return header + draw(st.binary(min_size=size, max_size=size))


@given(st.one_of(st.binary(max_size=64), kvq_images()))
@settings(max_examples=300, deadline=None)
def test_read_kvq_parses_or_raises(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.kvq"
    path.write_bytes(data)
    out = _parses_or_kvlut_error(read_kvq, path)
    if out is not None:
        keys, d, b, _ = out
        for qk in keys:
            assert qk.indices.shape == (d,) and qk.indices.dtype == np.uint8
            assert np.all(qk.indices < (1 << b))
            assert qk.norm >= 0
