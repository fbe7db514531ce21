"""Synthetic ensembles, bias probe and sweeps, plus whole-pipeline quality:
rotated MSE against the design distortion, and lookup-score error by bit-width."""

import math

import numpy as np
import pytest

from kvlut.codebook import analytic_distortion, solve_codebook
from kvlut.errors import (InvalidDimensionError, InvalidInputError)
from kvlut.evalkit import (LayerProfile, SyntheticSpec, _check_jensen_args,
                           generate_keys, jensen_bias_probe, sensitivity_sweep)
from kvlut.read_path import score_sequence
from kvlut.signopt import (RECOMMEND_OPTIMIZE, CalibrationSet, candidate_mse,
                           norm_ratio_diagnostic)
from kvlut.transform import RotationSpec, random_signs
from kvlut.write_path import KVCache, quantize_batch


def test_generate_keys_shapes_and_determinism():
    spec = SyntheticSpec(d=64, N=50,
                         profiles=(LayerProfile(), LayerProfile(scale=4.0)),
                         seed=3)
    a = generate_keys(spec)
    b = generate_keys(spec)
    assert set(a) == {0, 1}
    for layer in a:
        assert a[layer].keys.shape == (50, 64)
        assert a[layer].layer_id == layer
        np.testing.assert_array_equal(a[layer].keys, b[layer].keys)
    # Layers draw from independent streams.
    assert not np.array_equal(a[0].keys, a[1].keys)


def test_generate_keys_scale_sets_mean_norm():
    # Rows are scale/sqrt(d) * N(0, I_d); mean norm concentrates near scale.
    spec = SyntheticSpec(d=128, N=400, profiles=(LayerProfile(scale=22.0),),
                         seed=1)
    norms = np.linalg.norm(generate_keys(spec)[0].keys, axis=1)
    assert abs(norms.mean() - 22.0) / 22.0 < 0.02


def test_direction_gain_sets_rms_norm_multiplier():
    g = 7.8
    spec = SyntheticSpec(d=128, N=2000,
                         profiles=(LayerProfile(),
                                   LayerProfile(direction_gain=g)),
                         seed=5)
    keys = generate_keys(spec)
    rms = [math.sqrt(np.mean(np.linalg.norm(keys[i].keys, axis=1) ** 2))
           for i in (0, 1)]
    assert rms[1] / rms[0] == pytest.approx(g, rel=0.1)


def test_per_coordinate_gain():
    gain = np.ones(64)
    gain[7] = 50.0
    spec = SyntheticSpec(d=64, N=3000,
                         profiles=(LayerProfile(gain=gain),), seed=2)
    rows = generate_keys(spec)[0].keys
    stds = rows.std(axis=0)
    assert stds[7] / np.median(stds) == pytest.approx(50.0, rel=0.1)


def test_spec_validation():
    with pytest.raises(InvalidDimensionError):
        SyntheticSpec(d=96, N=10)
    with pytest.raises(InvalidInputError):
        SyntheticSpec(d=64, N=0)
    with pytest.raises(InvalidInputError):
        LayerProfile(scale=-1.0)
    # generate_keys squares the direction gain, so the square must be finite.
    for bad_gain in (0.5, 1e200, float("inf")):
        with pytest.raises(InvalidInputError):
            LayerProfile(direction_gain=bad_gain)
    LayerProfile(direction_gain=1e154)
    with pytest.raises(InvalidInputError):
        LayerProfile(gain=np.array([1.0, -2.0]))
    with pytest.raises(InvalidDimensionError):
        SyntheticSpec(d=64, N=4, profiles=(LayerProfile(gain=np.ones(32)),))
    # N * d * profiles is capped at 2^27 values before any key is drawn.
    SyntheticSpec(d=1024, N=2 ** 17)
    for N, count in ((2 ** 17 + 1, 1), (2 ** 16, 3), (10 ** 12, 1)):
        with pytest.raises(InvalidInputError, match="2\\^27"):
            SyntheticSpec(d=1024, N=N, profiles=(LayerProfile(),) * count)


def test_evaluate_pipeline_report():
    # The rotated-domain MSE of Gaussian keys sits near the codebook's design
    # distortion.
    d, b = 128, 3
    cb = solve_codebook(d, b)
    keys = np.random.default_rng(4).normal(size=(200, d))
    mse = candidate_mse(CalibrationSet(keys=keys), random_signs(d, 8), cb)
    assert mse == pytest.approx(analytic_distortion(cb), rel=0.06)



def test_evaluate_pipeline_error_shrinks_with_bits():
    # Lookup scores close on the exact dot products as b grows: the error,
    # scaled by ||q|| ||k|| per pair, falls at every step and is below 1% at
    # 8 bits.
    d = 64
    spec = RotationSpec(d=d, sign=random_signs(d, 9))
    rng = np.random.default_rng(5)
    keys = rng.normal(size=(100, d))
    queries = rng.normal(size=(8, d))
    exact = np.multiply(queries[:, None, :], keys[None, :, :]).sum(axis=2)
    scale = np.sqrt(np.outer(np.sum(queries * queries, axis=1), np.sum(keys * keys, axis=1)))
    means = []
    for b in (1, 3, 5, 8):
        cb = solve_codebook(d, b)
        cache = KVCache(*quantize_batch(keys, spec, cb))
        approx = np.array([score_sequence(q, cache, spec, cb)[0] for q in queries])
        means.append(float(np.mean(np.abs(approx - exact) / scale)))
    assert all(hi > lo for hi, lo in zip(means, means[1:]))
    assert means[-1] < 0.01



def test_jensen_probe_matches_lognormal_oracle():
    scores = np.random.default_rng(6).normal(size=32)
    for std in (0.1, 0.5, 1.0):
        report = jensen_bias_probe(scores, std, trials=40_000, seed=1)
        want = math.exp(std**2 / 2.0)
        assert report.oracle_ratio == want
        assert abs(report.aggregate_ratio - want) / want < 0.02
        assert report.per_score_ratio.shape == (32,)
        assert report.max_softmax_shift >= 0.0


def test_jensen_probe_exact_unity_at_zero_noise():
    scores = np.random.default_rng(7).normal(size=16)
    report = jensen_bias_probe(scores, 0.0, trials=100, seed=0)
    assert report.aggregate_ratio == 1.0
    assert np.all(report.per_score_ratio == 1.0)
    assert report.oracle_ratio == 1.0
    # The shift diagnostic compares two separately evaluated softmaxes, so
    # it only reaches zero up to rounding.
    assert report.max_softmax_shift < 1e-14


def test_jensen_probe_determinism_and_validation():
    scores = np.arange(4.0)
    a = jensen_bias_probe(scores, 0.3, trials=5000, seed=9)
    b = jensen_bias_probe(scores, 0.3, trials=5000, seed=9)
    assert a.aggregate_ratio == b.aggregate_ratio
    assert a.to_dict() == b.to_dict()
    # 38 and 1e200 put the oracle ratio exp(std^2 / 2) past the float64 range.
    for bad_std in (-0.1, float("nan"), float("inf"), 38.0, 1e200):
        with pytest.raises(InvalidInputError):
            jensen_bias_probe(scores, bad_std, trials=100)
    with pytest.raises(InvalidInputError):
        jensen_bias_probe(scores, 0.1, trials=0)
    with pytest.raises(InvalidInputError):
        jensen_bias_probe(np.empty(0), 0.1, trials=100)
    # The noise it would draw, trials x scores, is capped at 2^27 values
    # before any is drawn; the cap itself passes.
    with pytest.raises(InvalidInputError, match="2\\^27"):
        jensen_bias_probe(np.zeros(64), 0.1, trials=2 ** 21 + 1)
    _check_jensen_args([0.0, 0.5, 37.5], 2 ** 21, 64)


def test_sensitivity_sweep_matrix_and_spreads():
    cs = CalibrationSet(keys=np.random.default_rng(8).normal(size=(60, 64)))
    sweep = sensitivity_sweep(cs, seeds=(1, 2, 3), bs=(2, 3))
    assert sweep.mses.shape == (3, 2)
    assert np.all(sweep.mses > 0)
    # More bits, less MSE, for every seed.
    assert np.all(sweep.mses[:, 0] > sweep.mses[:, 1])
    for b in (2, 3):
        col = sweep.mses[:, (2, 3).index(b)]
        assert sweep.spread_maxmin[b] == pytest.approx(col.max() / col.min())
        assert sweep.spread_stdmean[b] == pytest.approx(col.std() / col.mean())
    payload = sweep.to_dict()
    assert payload["seeds"] == [1, 2, 3]
    assert set(payload["spread_maxmin"]) == {"2", "3"}
    with pytest.raises(InvalidInputError):
        sensitivity_sweep(cs, seeds=(), bs=(2,))


def test_sensitivity_sweep_equals_per_pair_candidate_mse():
    rng = np.random.default_rng(17)
    rows = rng.normal(size=(50, 64))
    rows[7] = 0.0  # dropped by both routes
    cs = CalibrationSet(keys=rows)
    seeds, bs = (9, 2, 6, 5), (1, 3, 8)
    sweep = sensitivity_sweep(cs, seeds, bs)
    want = np.array([[candidate_mse(cs, random_signs(64, sd), solve_codebook(64, b))
                      for b in bs] for sd in seeds])
    assert sweep.mses.tobytes() == want.tobytes()
    for j, b in enumerate(bs):
        col = want[:, j]
        assert sweep.spread_maxmin[b] == float(col.max() / col.min())
        assert sweep.spread_stdmean[b] == float(col.std() / col.mean())


def test_norm_pair_reproduces_through_generator():
    # The motivating heterogeneity case: one layer at mean norm ~172, one at
    # ~22, lands the diagnostic at ~7.8x and past the optimize threshold.
    spec = SyntheticSpec(d=128, N=64,
                         profiles=(LayerProfile(scale=172.0),
                                   LayerProfile(scale=22.0)),
                         seed=21)
    diag = norm_ratio_diagnostic(generate_keys(spec))
    assert diag.mean_norms[0] == pytest.approx(172.0, rel=0.05)
    assert diag.mean_norms[1] == pytest.approx(22.0, rel=0.05)
    assert diag.ratio == pytest.approx(7.8, rel=0.05)
    assert diag.recommendation == RECOMMEND_OPTIMIZE
    solo = norm_ratio_diagnostic({0: generate_keys(spec)[0]})
    assert solo.ratio == 1.0


def test_identical_keys_produce_identical_scores():
    rng = np.random.default_rng(9)
    keys = np.tile(rng.normal(size=64), (12, 1))
    q = rng.normal(size=64)
    cb = solve_codebook(64, 3)
    spec = RotationSpec(d=64, sign=random_signs(64, 2))
    cache = KVCache(*quantize_batch(keys, spec, cb))
    for mode in ("double", "fp16"):
        scores, _ = score_sequence(q, cache, spec, cb, mode)
        assert len({s.tobytes() for s in scores}) == 1, mode



def test_jensen_ratio_monotone_in_noise():
    scores = np.random.default_rng(88).normal(size=64)
    ratios = [jensen_bias_probe(scores, std, 100_000, seed=3).aggregate_ratio
              for std in (0.0, 0.1, 0.2, 0.5, 1.0)]
    assert ratios[0] == 1.0
    assert all(lo < hi for lo, hi in zip(ratios, ratios[1:]))


def test_homogeneous_spread_is_narrow():
    keys = generate_keys(SyntheticSpec(d=128, N=1024, seed=13))[0]
    sweep = sensitivity_sweep(keys, seeds=range(1, 11), bs=(3,))
    assert sweep.spread_maxmin[3] < 1.05
    single = sensitivity_sweep(keys, seeds=(5,), bs=(3,))
    assert single.mses.shape == (1, 1)
    assert single.spread_maxmin[3] == 1.0
    assert single.spread_stdmean[3] == 0.0


def test_heterogeneous_spread_exceeds_homogeneous_at_every_bit_width():
    hom = generate_keys(SyntheticSpec(
        d=128, N=256, profiles=(LayerProfile(scale=22.0),), seed=600))[0]
    het = generate_keys(SyntheticSpec(
        d=128, N=256, profiles=(LayerProfile(scale=22.0, direction_gain=7.8),),
        seed=600))[0]
    sweep_hom = sensitivity_sweep(hom, seeds=range(1, 11), bs=(2, 3, 4))
    sweep_het = sensitivity_sweep(het, seeds=range(1, 11), bs=(2, 3, 4))
    for b in (2, 3, 4):
        assert sweep_hom.spread_maxmin[b] < 1.05
        assert sweep_het.spread_maxmin[b] > 1.05 * sweep_hom.spread_maxmin[b]
