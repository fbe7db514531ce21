"""Each public entry point raises the same exception class for the same bad
input: wrong length, wrong ndim, a non-power-of-two d, NaN, inf, and a
codebook/rotation d mismatch.  Dimension checks run before finiteness.
Constructors store read-only views and leave the caller's arrays writeable."""

import numpy as np
import pytest

from kvlut.codebook import solve_codebook
from kvlut.errors import (EmptyCalibrationError, InvalidDimensionError,
                          InvalidInputError)
from kvlut.evalkit import LayerProfile, SyntheticSpec
from kvlut.read_path import PrecomputedTable, precompute_table, score_sequence
from kvlut.reference import score_sequence_reference
from kvlut.signopt import (CalibrationSet, candidate_mse,
                           norm_ratio_diagnostic, select_signs_all_layers)
from kvlut.transform import (RotationSpec, SignVector, fwht, inverse_rotate,
                             random_signs, rotate)
from kvlut.write_path import (QuantizedKey, dequantize_key, load_key_matrix,
                              quantize_batch, quantize_key)

D, B = 16, 2
CB = solve_codebook(D, B)
CB8 = solve_codebook(8, B)
SPEC = RotationSpec(d=D, sign=random_signs(D, 1))
KEY = QuantizedKey(indices=np.zeros(D, np.uint8), norm=1.0)
SHORT_KEY = QuantizedKey(indices=np.zeros(D // 2, np.uint8), norm=1.0)
ROWS = np.ones((3, D))


def _with(value, shape=(D,)):
    x = np.ones(shape)
    x.flat[1] = value
    return x


def _npy(tmp_path, arr, d=None):
    path = tmp_path / "keys.npy"
    np.save(path, arr)
    return load_key_matrix(path, d)


DIM, BAD = InvalidDimensionError, InvalidInputError

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
    "quantize_batch-nan-and-length": (
        lambda _: quantize_batch(_with(np.nan, (3, 8)), SPEC, CB), DIM),
    "quantize_batch-cb-rotation": (lambda _: quantize_batch(ROWS, SPEC, CB8), DIM),
    "quantize_key-length": (lambda _: quantize_key(np.ones(8), SPEC, CB), DIM),
    "quantize_key-ndim": (lambda _: quantize_key(np.ones((1, D)), SPEC, CB), DIM),
    "quantize_key-nan": (lambda _: quantize_key(_with(np.nan), SPEC, CB), BAD),
    "quantize_key-inf": (lambda _: quantize_key(_with(-np.inf), SPEC, CB), BAD),
    "quantize_key-cb-rotation": (lambda _: quantize_key(np.ones(D), SPEC, CB8), DIM),
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
    "load_key_matrix-length": (lambda tmp: _npy(tmp, np.ones((3, 8)), D), DIM),
    "load_key_matrix-nan": (lambda tmp: _npy(tmp, _with(np.nan, (3, D))), BAD),
    "load_key_matrix-inf": (lambda tmp: _npy(tmp, _with(np.inf, (3, D)), D), BAD),
    "load_key_matrix-nan-and-length": (
        lambda tmp: _npy(tmp, _with(np.nan, (3, 8)), D), DIM),
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
    "select_signs_all_layers-no-layers": (
        lambda _: select_signs_all_layers({}, C=2, b=B), EmptyCalibrationError),
    "norm_ratio_diagnostic-no-layers": (
        lambda _: norm_ratio_diagnostic([]), EmptyCalibrationError),
    "SyntheticSpec-non-pow2": (lambda _: SyntheticSpec(d=12, N=4), DIM),
    "SyntheticSpec-gain-length": (
        lambda _: SyntheticSpec(d=D, N=4, profiles=(LayerProfile(gain=np.ones(8)),)),
        DIM),
    "SignVector-length": (lambda _: SignVector(d=D, signs=np.ones(8)), DIM),
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
