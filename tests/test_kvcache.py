"""The columnar cache: its contract, and equality with the list form."""

import numpy as np
import pytest

from kvlut import write_path
from kvlut.cli import main
from kvlut.codebook import deserialize_rom, solve_codebook
from kvlut.errors import InvalidDimensionError, InvalidInputError
from kvlut.read_path import score_sequence
from kvlut.reference import score_sequence_reference
from kvlut.transform import RotationSpec, random_signs, read_sign_rom
from kvlut.write_path import (KVCache, QuantizedKey, quantize_batch, read_kvq,
                              write_kvq)

D, B = 128, 3
CB = solve_codebook(D, B)
SPEC = RotationSpec(d=D, sign=random_signs(D, 6))


def _rows(T, seed):
    rng = np.random.default_rng(seed)
    idx, norms = quantize_batch(rng.normal(size=(T, D)) * 3.0, SPEC, CB)
    norms = norms.astype(np.float16)
    norms[0::5] = 0.0        # zero-norm keys
    norms[3::5] = np.inf     # keys whose half norm overflowed
    return idx, norms


def test_arrays_are_read_only():
    idx, norms = _rows(6, seed=1)
    cache = KVCache(idx, norms)
    assert not cache.indices.flags.writeable and not cache.norms.flags.writeable
    with pytest.raises(ValueError):
        cache.indices[0, 0] = 1
    with pytest.raises(ValueError):
        cache.norms[0] = 1.0
    # The caller's arrays stay writable, and writing them leaves the cache,
    # checked at construction, as it was.
    before = cache.indices.copy()
    idx += 1
    norms[1] = np.nan
    np.testing.assert_array_equal(cache.indices, before)
    assert not np.isnan(cache.norms).any()


def test_sequence_of_keys():
    idx, norms = _rows(6, seed=2)
    cache = KVCache(idx, norms)
    assert len(cache) == 6 and cache.indices.dtype == np.uint8
    assert cache.norms.dtype == np.float16
    for i in (0, 4, -1):
        key = cache[i]
        assert isinstance(key, QuantizedKey)
        np.testing.assert_array_equal(key.indices, idx[i])
        assert key.norm.view(np.uint16) == norms[i].view(np.uint16)
    part = cache[1:4]
    assert isinstance(part, KVCache) and len(part) == 3
    np.testing.assert_array_equal(part.indices, idx[1:4])
    assert [k.norm for k in cache] == list(norms)
    with pytest.raises(IndexError):
        cache[6]


def test_construction_is_validated():
    idx = np.zeros((2, 4), dtype=np.uint8)
    for bad in (np.nan, -1.0, -np.inf):
        with pytest.raises(InvalidInputError):
            KVCache(idx, np.array([1.0, bad]))
    with pytest.raises(InvalidDimensionError):
        KVCache(np.zeros(4, dtype=np.uint8), np.ones(1))
    with pytest.raises(InvalidDimensionError):
        KVCache(idx, np.ones(3))
    assert len(KVCache(np.zeros((0, 4), dtype=np.uint8), np.zeros(0))) == 0


def test_keys_of_a_checked_cache_are_not_checked_again(monkeypatch):
    idx, norms = _rows(10, seed=4)
    cache = KVCache(idx, norms)
    assert np.isinf(cache.norms).any() and (cache.norms == 0).any()

    def refuse(*args, **kwargs):
        raise AssertionError("norm checked again")

    # Keys of the cache, and a list of them stacked back into one, reuse the
    # checks the cache and each key already passed.
    monkeypatch.setattr(write_path, "_half_norms", refuse)
    keys = list(cache)
    assert all(isinstance(k, QuantizedKey) and not k.indices.flags.writeable for k in keys)
    assert [k.norm.view(np.uint16) for k in keys] == list(norms.view(np.uint16))
    stacked = write_path._cache_rows(keys, D)
    assert isinstance(stacked, KVCache) and not stacked.indices.flags.writeable
    np.testing.assert_array_equal(stacked.indices, idx)
    np.testing.assert_array_equal(stacked.norms.view(np.uint16), norms.view(np.uint16))
    monkeypatch.undo()
    # The public constructors keep every check.
    for bad in (np.nan, -1.0):
        with pytest.raises(InvalidInputError):
            QuantizedKey(indices=idx[0], norm=bad)
        with pytest.raises(InvalidInputError):
            KVCache(idx[:1], [bad])
    assert QuantizedKey(indices=idx[0], norm=np.inf).norm == np.inf


def test_read_kvq_returns_a_kvcache(tmp_path):
    idx, norms = _rows(7, seed=3)
    write_kvq(tmp_path / "c.kvq", KVCache(idx, norms), D, B, layer_id=2)
    cache, d, b, layer = read_kvq(tmp_path / "c.kvq")
    assert isinstance(cache, KVCache) and (d, b, layer) == (D, B, 2)
    np.testing.assert_array_equal(cache.indices, idx)
    np.testing.assert_array_equal(cache.norms.view(np.uint16), norms.view(np.uint16))


@pytest.mark.parametrize("T", [0, 1, 7, 1024])
def test_kvcache_and_list_give_identical_results(tmp_path, T):
    idx, norms = _rows(T, seed=T)
    cache = KVCache(idx, norms)
    keys = [QuantizedKey(indices=idx[i], norm=norms[i]) for i in range(T)]
    q = np.random.default_rng(200 + T).normal(size=D)
    with np.errstate(invalid="ignore"):
        for mode, view in (("double", np.uint64), ("fp16", np.uint16)):
            got, got_ctr = score_sequence(q, cache, SPEC, CB, mode)
            want, want_ctr = score_sequence(q, keys, SPEC, CB, mode)
            np.testing.assert_array_equal(got.view(view), want.view(view))
            assert got_ctr.to_dict() == want_ctr.to_dict()
        got, got_ctr = score_sequence_reference(q, cache, SPEC, CB)
        want, want_ctr = score_sequence_reference(q, keys, SPEC, CB)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got_ctr.to_dict() == want_ctr.to_dict()
    write_kvq(tmp_path / "a.kvq", cache, D, B)
    write_kvq(tmp_path / "b.kvq", keys, D, B)
    assert (tmp_path / "a.kvq").read_bytes() == (tmp_path / "b.kvq").read_bytes()


def test_cli_quantize_matches_per_key_route(tmp_path):
    # Norms on half-rounding midpoints (ties go to even), including the
    # subnormal range; all stay below the half maximum, 65504.
    ulp = 2.0**-10
    mids = [1 + ulp / 2, 1 + 3 * ulp / 2, 2048 + 1, 3 * 2.0**-25, 2.0**-25,
            32768 + 16, 0.0]
    rng = np.random.default_rng(9)
    keys = np.zeros((len(mids), D))
    keys[np.arange(len(mids)), np.arange(len(mids))] = mids
    keys = np.vstack([keys, rng.normal(size=(20, D)) * 5.0])
    np.save(tmp_path / "k.npy", keys)
    roms = ["--signs", str(tmp_path / "s.sgnrom"), "--codebook", str(tmp_path / "cb.cbrom")]
    assert main(["solve-codebook", "--d", str(D), "--b", str(B),
                 "--out", str(tmp_path / "cb.cbrom")]) == 0
    assert main(["gen-signs", "--d", str(D), "--layers", "2",
                 "--out", str(tmp_path / "s.sgnrom")]) == 0
    assert main(["quantize", "--keys", str(tmp_path / "k.npy"), *roms, "--layer", "1",
                 "--out", str(tmp_path / "cli.kvq")]) == 0

    cb = deserialize_rom((tmp_path / "cb.cbrom").read_bytes(), D, B)
    spec = RotationSpec(d=D, sign=read_sign_rom(tmp_path / "s.sgnrom")[1])
    idx, norms = quantize_batch(keys, spec, cb)
    assert set(norms[:len(mids)]) == set(mids)
    per_key = [QuantizedKey(idx[i], np.float16(norms[i])) for i in range(len(keys))]
    write_kvq(tmp_path / "ref.kvq", per_key, D, B, layer_id=1)
    assert (tmp_path / "cli.kvq").read_bytes() == (tmp_path / "ref.kvq").read_bytes()
