"""Each public entry point raises the same exception class for the same bad
input: wrong length, wrong ndim, a non-power-of-two d, NaN, inf, a key whose
sum of squares passes the float64 range, a codebook/rotation d mismatch, a
cell index past 2^b and a key file that does not hold real numbers.
Dimension checks run before finiteness.
Constructors store read-only views and leave the caller's arrays writeable."""

import struct

import numpy as np
import pytest

from kvlut.codebook import solve_codebook
from kvlut.errors import (CorruptCacheError, EmptyCalibrationError, FormatError,
                          InvalidDimensionError, InvalidInputError)
from kvlut.evalkit import LayerProfile, SyntheticSpec
from kvlut.opcount import OpCounter
from kvlut.read_path import PrecomputedTable, precompute_table, score_sequence
from kvlut.reference import dequantize_key, score_sequence_reference
from kvlut.signopt import (CalibrationSet, candidate_mse,
                           norm_ratio_diagnostic, select_signs_all_layers)
from kvlut.transform import (RotationSpec, SignVector, deserialize_signs, fwht,
                             inverse_rotate, random_signs, rotate, unpack_sign_rom)
from kvlut.write_path import (QuantizedKey, load_key_matrix, pack, packed_size,
                              quantize_batch, unpack, write_kvq)

D, B = 16, 2
CB = solve_codebook(D, B)
CB8 = solve_codebook(8, B)
SPEC = RotationSpec(d=D, sign=random_signs(D, 1))
KEY = QuantizedKey(indices=np.zeros(D, np.uint8), norm=1.0)
SHORT_KEY = QuantizedKey(indices=np.zeros(D // 2, np.uint8), norm=1.0)
# Index 7 at b = 2: past 2^b, so no b-bit record holds it.
PAST_KEY = QuantizedKey(indices=np.where(np.arange(D) == 3, 7, 0), norm=1.0)
KEY12 = QuantizedKey(indices=np.zeros(12, np.uint8), norm=1.0)
# A .sgnrom image whose header and length are consistent for one d=12 layer.
SGNROM12 = struct.pack("<2sBBHH", b"SG", 1, 0, 12, 1) + bytes(2)
ROWS = np.ones((3, D))


def _with(value, shape=(D,)):
    x = np.ones(shape)
    x.flat[1] = value
    return x


def _npy(tmp_path, arr, d=None):
    path = tmp_path / "keys.npy"
    np.save(path, arr)
    return load_key_matrix(path, d)


DIM, BAD, CORRUPT = InvalidDimensionError, InvalidInputError, CorruptCacheError

CASES = {
    # name: (call taking tmp_path, expected class)
    "solve_codebook-non-pow2": (lambda _: solve_codebook(12, B), DIM),
    "solve_codebook-d1": (lambda _: solve_codebook(1, B), DIM),
    "RotationSpec-non-pow2": (
        lambda _: RotationSpec(d=12, sign=random_signs(12, 1)), DIM),
    "RotationSpec-signs-length": (
        lambda _: RotationSpec(d=D, sign=random_signs(8, 1)), DIM),
    "fwht-non-pow2": (lambda _: fwht(np.ones((2, 12))), DIM),
    "fwht-ndim": (lambda _: fwht(np.ones((2, 2, D))), DIM),
    "rotate-length": (lambda _: rotate(SPEC, np.ones(D // 2)), DIM),
    "rotate-ndim": (lambda _: rotate(SPEC, np.ones((1, 1, D))), DIM),
    "inverse_rotate-length": (lambda _: inverse_rotate(SPEC, np.ones((2, 8))), DIM),
    "inverse_rotate-ndim": (lambda _: inverse_rotate(SPEC, np.ones((1, 1, D))), DIM),
    "quantize_batch-length": (lambda _: quantize_batch(np.ones((3, 8)), SPEC, CB), DIM),
    "quantize_batch-ndim": (lambda _: quantize_batch(np.ones(D), SPEC, CB), DIM),
    "quantize_batch-nan": (lambda _: quantize_batch(_with(np.nan, (3, D)), SPEC, CB), BAD),
    "quantize_batch-inf": (lambda _: quantize_batch(_with(np.inf, (3, D)), SPEC, CB), BAD),
    # Finite entries whose sum of squares passes the float64 range.
    "quantize_batch-norm-overflow-1e200": (
        lambda _: quantize_batch(_with(1e200, (3, D)), SPEC, CB), BAD),
    "quantize_batch-norm-overflow-1e308": (
        lambda _: quantize_batch(np.full((3, D), 1e308), SPEC, CB), BAD),
    "quantize_batch-one-row-norm-overflow-1e308": (
        lambda _: quantize_batch(_with(1e308)[None], SPEC, CB), BAD),
    "quantize_batch-nan-and-length": (
        lambda _: quantize_batch(_with(np.nan, (3, 8)), SPEC, CB), DIM),
    "quantize_batch-cb-rotation": (lambda _: quantize_batch(ROWS, SPEC, CB8), DIM),
    "quantize_batch-ndim-3": (lambda _: quantize_batch(np.ones((1, 1, D)), SPEC, CB), DIM),
    "quantize_batch-minus-inf": (
        lambda _: quantize_batch(_with(-np.inf, (1, D)), SPEC, CB), BAD),
    "quantize_batch-one-row-length": (
        lambda _: quantize_batch(np.ones((1, 8)), SPEC, CB), DIM),
    "quantize_batch-one-row-nan": (
        lambda _: quantize_batch(_with(np.nan, (1, D)), SPEC, CB), BAD),
    "quantize_batch-one-row-cb-rotation": (
        lambda _: quantize_batch(np.ones((1, D)), SPEC, CB8), DIM),
    "dequantize_key-length": (lambda _: dequantize_key(SHORT_KEY, SPEC, CB), DIM),
    "dequantize_key-cb-rotation": (lambda _: dequantize_key(KEY, SPEC, CB8), DIM),
    "precompute_table-length": (lambda _: precompute_table(np.ones(8), SPEC, CB), DIM),
    "precompute_table-ndim": (lambda _: precompute_table(np.ones((1, D)), SPEC, CB), DIM),
    "precompute_table-nan": (lambda _: precompute_table(_with(np.nan), SPEC, CB), BAD),
    "precompute_table-inf": (lambda _: precompute_table(_with(np.inf), SPEC, CB), BAD),
    "precompute_table-nan-and-length": (
        lambda _: precompute_table(_with(np.nan, (8,)), SPEC, CB), DIM),
    "precompute_table-cb-rotation": (
        lambda _: precompute_table(np.ones(8), SPEC, CB8), DIM),
    "score_sequence-length": (lambda _: score_sequence(np.ones(8), [KEY], SPEC, CB), DIM),
    "score_sequence-ndim": (
        lambda _: score_sequence(np.ones((1, D)), [KEY], SPEC, CB), DIM),
    "score_sequence-nan": (lambda _: score_sequence(_with(np.nan), [KEY], SPEC, CB), BAD),
    "score_sequence-inf": (lambda _: score_sequence(_with(np.inf), [KEY], SPEC, CB), BAD),
    "score_sequence-key-length": (
        lambda _: score_sequence(np.ones(D), [KEY, SHORT_KEY], SPEC, CB), DIM),
    "score_sequence-cb-rotation": (
        lambda _: score_sequence(np.ones(8), [], SPEC, CB8), DIM),
    "score_sequence_reference-length": (
        lambda _: score_sequence_reference(np.ones(8), [KEY], SPEC, CB), DIM),
    "score_sequence_reference-ndim": (
        lambda _: score_sequence_reference(np.ones((1, D)), [KEY], SPEC, CB), DIM),
    "score_sequence_reference-nan": (
        lambda _: score_sequence_reference(_with(np.nan), [KEY], SPEC, CB), BAD),
    "score_sequence_reference-inf": (
        lambda _: score_sequence_reference(_with(np.inf), [KEY], SPEC, CB), BAD),
    "score_sequence_reference-nan-and-length": (
        lambda _: score_sequence_reference(_with(np.nan, (8,)), [KEY], SPEC, CB), DIM),
    "score_sequence_reference-key-length": (
        lambda _: score_sequence_reference(np.ones(D), [KEY, SHORT_KEY], SPEC, CB), DIM),
    "score_sequence_reference-cb-rotation": (
        lambda _: score_sequence_reference(
            np.ones(8), [QuantizedKey(np.zeros(8, np.uint8), 1.0)], SPEC, CB8), DIM),
    # The record rules, through every entry point that packs, scores or
    # reconstructs a key: (d, b) is a design point, every index is below 2^b.
    "pack-non-pow2": (lambda _: pack(KEY12, B), DIM),
    "unpack-non-pow2": (lambda _: unpack(bytes((12 * B + 7) // 8 + 2), 12, B), DIM),
    # The design point is checked before the record's length.
    "unpack-empty-non-pow2": (lambda _: unpack(b"", 12, B), DIM),
    "packed_size-non-pow2": (lambda _: packed_size(12, B), DIM),
    "QuantizedKey-indices-2d": (
        lambda _: QuantizedKey(indices=np.zeros((2, D), np.uint8), norm=1.0), DIM),
    "QuantizedKey-indices-0d": (lambda _: QuantizedKey(indices=0, norm=1.0), DIM),
    # One key holds one norm; a vector of them has no record to pack into.
    "QuantizedKey-norm-1d": (
        lambda _: QuantizedKey(indices=np.zeros(D, np.uint8), norm=[1.0, 2.0]), DIM),
    "PrecomputedTable-b0": (
        lambda _: PrecomputedTable(d=D, b=0, entries=np.ones((D, 1))), DIM),
    "PrecomputedTable-b9": (
        lambda _: PrecomputedTable(d=D, b=9, entries=np.ones((D, 1 << 9))), DIM),
    "pack-index-past-2^b": (lambda _: pack(PAST_KEY, B), CORRUPT),
    "write_kvq-index-past-2^b": (
        lambda tmp: write_kvq(tmp / "c.kvq", [PAST_KEY], D, B), CORRUPT),
    "score_sequence-index-past-2^b": (
        lambda _: score_sequence(np.ones(D), [KEY, PAST_KEY], SPEC, CB), CORRUPT),
    "score_sequence-one-key-index-past-2^b": (
        lambda _: score_sequence(np.ones(D), [PAST_KEY], SPEC, CB), CORRUPT),
    "score_sequence-fp16-index-past-2^b": (
        lambda _: score_sequence(np.ones(D), [PAST_KEY], SPEC, CB, "fp16"), CORRUPT),
    "dequantize_key-index-past-2^b": (lambda _: dequantize_key(PAST_KEY, SPEC, CB), CORRUPT),
    "score_sequence_reference-index-past-2^b": (
        lambda _: score_sequence_reference(np.ones(D), [KEY, PAST_KEY], SPEC, CB), CORRUPT),
    "load_key_matrix-length": (lambda tmp: _npy(tmp, np.ones((3, 8)), D), DIM),
    "load_key_matrix-nan": (lambda tmp: _npy(tmp, _with(np.nan, (3, D))), BAD),
    "load_key_matrix-inf": (lambda tmp: _npy(tmp, _with(np.inf, (3, D)), D), BAD),
    "load_key_matrix-nan-and-length": (
        lambda tmp: _npy(tmp, _with(np.nan, (3, 8)), D), DIM),
    "load_key_matrix-strings": (lambda tmp: _npy(tmp, np.full((3, D), "1.0")), FormatError),
    "load_key_matrix-structured": (
        lambda tmp: _npy(tmp, np.zeros((3, D), dtype=[("x", "f8"), ("y", "i4")])), FormatError),
    "load_key_matrix-complex": (lambda tmp: _npy(tmp, np.ones((3, D), complex)), FormatError),
    "CalibrationSet-ndim": (lambda _: CalibrationSet(keys=np.ones((2, 3, D))), DIM),
    "CalibrationSet-no-rows": (lambda _: CalibrationSet(keys=np.ones((0, D))), DIM),
    "CalibrationSet-nan": (lambda _: CalibrationSet(keys=_with(np.nan, (3, D))), BAD),
    "CalibrationSet-inf": (lambda _: CalibrationSet(keys=_with(np.inf, (3, D))), BAD),
    "candidate_mse-keys-length": (
        lambda _: candidate_mse(CalibrationSet(keys=np.ones((3, 8))),
                                random_signs(D, 1), CB), DIM),
    "candidate_mse-signs-length": (
        lambda _: candidate_mse(CalibrationSet(keys=ROWS), random_signs(8, 1), CB), DIM),
    "select_signs_all_layers-layer-length": (
        lambda _: select_signs_all_layers(
            {0: CalibrationSet(keys=ROWS), 1: CalibrationSet(keys=np.ones((3, 8)))},
            C=2, b=B), DIM),
    "candidate_mse-norm-overflow-1e200": (
        lambda _: candidate_mse(CalibrationSet(keys=_with(1e200, (3, D))),
                                random_signs(D, 1), CB), BAD),
    "select_signs_all_layers-norm-overflow-1e308": (
        lambda _: select_signs_all_layers(
            {0: CalibrationSet(keys=ROWS), 1: CalibrationSet(keys=np.full((3, D), 1e308))},
            C=2, b=B), BAD),
    "norm_ratio_diagnostic-norm-overflow-1e200": (
        lambda _: norm_ratio_diagnostic(
            {0: CalibrationSet(keys=ROWS), 1: CalibrationSet(keys=_with(1e200, (3, D)))}),
        BAD),
    "select_signs_all_layers-no-layers": (
        lambda _: select_signs_all_layers({}, C=2, b=B), EmptyCalibrationError),
    "norm_ratio_diagnostic-no-layers": (
        lambda _: norm_ratio_diagnostic([]), EmptyCalibrationError),
    "SyntheticSpec-non-pow2": (lambda _: SyntheticSpec(d=12, N=4), DIM),
    "SyntheticSpec-gain-length": (
        lambda _: SyntheticSpec(d=D, N=4, profiles=(LayerProfile(gain=np.ones(8)),)),
        DIM),
    "SignVector-length": (lambda _: SignVector(d=D, signs=np.ones(8)), DIM),
    # A sign vector, its record and the .sgnrom take the rotation's d rule.
    "SignVector-non-pow2": (lambda _: SignVector(d=12, signs=np.ones(12)), DIM),
    "random_signs-non-pow2": (lambda _: random_signs(12, 1), DIM),
    "deserialize_signs-non-pow2": (lambda _: deserialize_signs(b"\0\0", 12), DIM),
    "unpack_sign_rom-non-pow2": (lambda _: unpack_sign_rom(SGNROM12), DIM),
    # Values are checked before the int8 cast, which truncates, wraps or overflows them.
    "SignVector-fractional": (lambda _: SignVector(d=2, signs=[1.5, -1.7]), FormatError),
    "SignVector-wraps-int8": (
        lambda _: SignVector(d=2, signs=np.array([257, -1])), FormatError),
    "SignVector-past-int8": (lambda _: SignVector(d=2, signs=[257, -1]), FormatError),
    # A tally goes to one of the five datapath categories and only grows.
    "OpCounter-unknown-category": (lambda _: OpCounter().add("dot", mults=1), ValueError),
    "OpCounter-negative-tally": (lambda _: OpCounter().add("score", adds=-1), ValueError),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_input_raises_its_class(name, tmp_path):
    call, expected = CASES[name]
    with pytest.raises(expected) as info:
        call(tmp_path)
    assert type(info.value) is expected


# (constructor, caller's array already in the stored dtype, stored attribute)
FROZEN_FIELDS = {
    "CalibrationSet": (lambda a: CalibrationSet(keys=a), np.ones((4, D)), "keys"),
    "SignVector": (lambda a: SignVector(d=D, signs=a), np.ones(D, np.int8), "signs"),
    "QuantizedKey": (lambda a: QuantizedKey(indices=a, norm=1.0),
                     np.zeros(D, np.uint8), "indices"),
    "PrecomputedTable": (lambda a: PrecomputedTable(d=D, b=B, entries=a),
                         np.ones((D, 1 << B)), "entries"),
    "LayerProfile": (lambda a: LayerProfile(gain=a), np.ones(D), "gain"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_FIELDS))
def test_constructor_leaves_callers_array_writeable(name):
    make, arr, attr = FROZEN_FIELDS[name]
    stored = getattr(make(arr), attr)
    assert arr.flags.writeable
    assert not stored.flags.writeable
    assert np.shares_memory(stored, arr)
    with pytest.raises(ValueError):
        stored[...] = 0
