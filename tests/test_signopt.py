"""Calibration-based sign selection and the norm heterogeneity diagnostic."""

import numpy as np
import pytest

from kvlut.codebook import solve_codebook
from kvlut.errors import (EmptyCalibrationError, InvalidDimensionError,
                          InvalidInputError)
from kvlut.evalkit import LayerProfile, SyntheticSpec, generate_keys
from kvlut.signopt import (RECOMMEND_INDETERMINATE, RECOMMEND_OPTIMIZE,
                           RECOMMEND_SAFE, CalibrationSet, _candidate_mses,
                           _normalized_rows, candidate_mse,
                           norm_ratio_diagnostic, select_signs,
                           select_signs_all_layers)
from kvlut.transform import (RotationSpec, inverse_rotate, pack_sign_rom,
                             random_signs, rotate, serialize_signs,
                             unpack_sign_rom)
from kvlut.write_path import _comparator_indices

D = 128


def cal_set(n=64, d=D, seed=0, scale=1.0, layer_id=0):
    rng = np.random.default_rng(seed)
    return CalibrationSet(keys=rng.normal(size=(n, d)) * scale,
                          layer_id=layer_id)


def test_candidate_mse_floor_for_centroid_valued_rotation():
    # Integer-composed rotated vector whose coordinates are exact centroids
    # and whose norm is 1 + 2.8e-6: after mandatory normalization the
    # coordinates stay in their cells, so the only error is that tiny radial
    # rescale. This is the practical zero of the selection metric.
    cb = solve_codebook(D, 3)
    counts = (27, 82, 3, 16)
    y0 = np.concatenate([np.full(n, m)
                         for n, m in zip(counts, cb.centroids[4:])])
    assert y0.size == D
    assert abs(np.linalg.norm(y0) - 1.0) < 5e-6
    sign = random_signs(D, 11)
    x = inverse_rotate(RotationSpec(d=D, sign=sign), y0)
    keys = CalibrationSet(keys=x[None, :] * 5.0)
    assert candidate_mse(keys, sign, cb) < 1e-12


def test_candidate_mse_scale_invariance():
    cb = solve_codebook(D, 3)
    s = random_signs(D, 2)
    a = cal_set(seed=1)
    b = CalibrationSet(keys=a.keys * 37.5)
    assert candidate_mse(a, s, cb) == candidate_mse(b, s, cb)


def test_candidate_mse_near_design_distortion_for_gaussian_keys():
    # Unit Gaussian directions rotate to near-N(0, 1/d) coordinates, so the
    # selection metric should sit near the codebook's design distortion, and
    # not just for one lucky candidate: every sign draw concentrates.
    from kvlut.codebook import analytic_distortion
    cb = solve_codebook(D, 3)
    keys = cal_set(n=400, seed=3)
    ref = analytic_distortion(cb)
    for seed in range(1, 9):
        mse = candidate_mse(keys, random_signs(D, seed), cb)
        assert 0.9 < mse / ref < 1.1


def test_single_unit_row_is_near_lossless_at_high_bits():
    rng = np.random.default_rng(4242)
    v = rng.normal(size=D)
    v /= np.linalg.norm(v)
    cb8 = solve_codebook(D, 8)
    mse = candidate_mse(CalibrationSet(keys=v[None]), random_signs(D, 7), cb8)
    assert mse < 1e-4


def test_select_signs_returns_argmin_bit_exactly():
    keys = cal_set(seed=5)
    report = select_signs(keys, C=20, b=3, base_seed=100)
    assert report.candidate_count == 20
    assert report.base_seed == 100
    assert report.mses.shape == (20,)
    pick = int(np.argmin(report.mses))
    assert report.selected_seed == 100 + pick + 1
    cb = solve_codebook(D, 3)
    re_eval = candidate_mse(keys, random_signs(D, report.selected_seed), cb)
    assert re_eval == report.mses[pick]
    assert report.best_mse == report.mses.min()
    assert report.worst_mse == report.mses.max()
    assert report.spread == report.worst_mse / report.best_mse
    np.testing.assert_array_equal(report.selected.signs,
                                  random_signs(D, report.selected_seed).signs)


def searchsorted_qdq_mse(unit_rows, sign, cb):
    """Rotated-domain quantize-dequantize MSE with a bisection quantizer, an
    independent route to the per-candidate metric."""
    y = rotate(RotationSpec(d=cb.d, sign=sign), unit_rows)
    err = y - cb.centroids[np.searchsorted(cb.boundaries, y, side="right")]
    return float(np.sum(err * err) / err.size)


def rotate_qdq_mse(unit_rows, sign, cb):
    """The per-candidate metric as separate steps: rotate(), the flat
    comparator, a centroid gather, then the squared error summed over the
    row-major (N, d) array."""
    y = rotate(RotationSpec(d=cb.d, sign=sign), unit_rows)
    err = y - cb.centroids[_comparator_indices(y, cb, "flat", None, y.shape[0])]
    return np.sum(err * err) / err.size


@pytest.mark.parametrize("b", [1, 3, 8])
@pytest.mark.parametrize("n", [1, 3, 512])
@pytest.mark.parametrize("d", [2, 4, 128, 256])
def test_candidate_loop_is_bit_identical_to_rotate_oracle(d, n, b):
    rng = np.random.default_rng([d, n, b])
    rows = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
    keys = CalibrationSet(keys=rows)
    C, base = 6, 40
    report = select_signs(keys, C=C, b=b, base_seed=base)
    cb = solve_codebook(d, b)
    unit, _ = _normalized_rows(keys)
    signs = [random_signs(d, base + c) for c in range(1, C + 1)]
    want = np.array([rotate_qdq_mse(unit, s, cb) for s in signs])
    np.testing.assert_array_equal(report.mses.view(np.uint64), want.view(np.uint64))
    # The buffers reused across candidates carry nothing from one to the next.
    backwards = _candidate_mses(unit, signs[::-1], cb)
    np.testing.assert_array_equal(backwards.view(np.uint64),
                                  report.mses[::-1].view(np.uint64))
    for i, s in enumerate(signs):
        assert candidate_mse(keys, s, cb) == report.mses[i]


@pytest.mark.parametrize("b", [1, 3, 8])
def test_select_signs_mses_match_searchsorted_quantizer(b):
    keys = generate_keys(SyntheticSpec(
        d=D, N=96, profiles=(LayerProfile(scale=5.0, direction_gain=6.0),),
        seed=b))[0]
    report = select_signs(keys, C=12, b=b, base_seed=7)
    cb = solve_codebook(D, b)
    unit = keys.keys / np.linalg.norm(keys.keys, axis=1, keepdims=True)
    want = [searchsorted_qdq_mse(unit, random_signs(D, 7 + c), cb)
            for c in range(1, 13)]
    np.testing.assert_array_equal(report.mses, want)


def test_select_signs_seed_window_and_determinism():
    keys = cal_set(seed=6)
    a = select_signs(keys, C=10, b=2, base_seed=0)
    b_ = select_signs(keys, C=10, b=2, base_seed=0)
    np.testing.assert_array_equal(a.mses, b_.mses)
    assert a.selected_seed == b_.selected_seed
    assert 1 <= a.selected_seed <= 10
    with pytest.raises(InvalidInputError):
        select_signs(keys, C=0, b=3)


def test_select_signs_single_candidate():
    report = select_signs(cal_set(seed=3), C=1, b=3, base_seed=5)
    assert report.selected_seed == 6
    assert report.spread == 1.0
    assert report.mses.shape == (1,)


def test_shared_direction_outlier_widens_candidate_spread():
    # Homogeneous Gaussian keys make the sign choice nearly inert; keys with
    # a strong shared-direction component (7.8x rms norm multiplier) spread
    # the candidates far apart, which is what makes selection worth running.
    hom = generate_keys(SyntheticSpec(
        d=D, N=256, profiles=(LayerProfile(scale=22.0),), seed=600))[0]
    het = generate_keys(SyntheticSpec(
        d=D, N=256, profiles=(LayerProfile(scale=22.0, direction_gain=7.8),),
        seed=600))[0]
    r_hom = select_signs(hom, C=200, b=3)
    r_het = select_signs(het, C=200, b=3)
    assert r_hom.spread < 1.10
    assert r_het.spread > 1.5
    assert r_het.spread > 1.25 * r_hom.spread


def test_direction_gain_monotonically_widens_spread():
    spreads = []
    for gain in (1.0, 3.0, 7.8):
        keys = generate_keys(SyntheticSpec(
            d=D, N=256, profiles=(LayerProfile(scale=22.0, direction_gain=gain),),
            seed=600))[0]
        spreads.append(select_signs(keys, C=60, b=3).spread)
    assert spreads[0] < spreads[1] < spreads[2]


def test_tiny_calibration_generalizes_to_held_out_keys():
    # 8 calibration rows are enough to pick signs that score at or below the
    # candidate median on a disjoint 128-row draw from the same ensemble.
    cb = solve_codebook(D, 3)
    wins = 0
    for rep in range(10):
        pool = generate_keys(SyntheticSpec(
            d=D, N=136,
            profiles=(LayerProfile(scale=22.0, direction_gain=7.8),),
            seed=40_000 + rep))[0]
        cal = CalibrationSet(keys=pool.keys[:8])
        held = CalibrationSet(keys=pool.keys[8:])
        base = rep * 100
        report = select_signs(cal, C=50, b=3, base_seed=base)
        held_mses = np.array([
            candidate_mse(held, random_signs(D, base + c), cb)
            for c in range(1, 51)])
        if held_mses[report.selected_seed - base - 1] <= np.median(held_mses):
            wins += 1
    assert wins >= 9


def test_select_signs_drops_zero_rows():
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(10, D))
    mat[3] = 0.0
    mat[8] = 0.0
    report = select_signs(CalibrationSet(keys=mat), C=4, b=2)
    assert report.dropped_rows == 2
    with pytest.raises(EmptyCalibrationError):
        select_signs(CalibrationSet(keys=np.zeros((4, D))), C=4, b=2)


def test_candidate_mse_dimension_checks():
    cb = solve_codebook(64, 3)
    with pytest.raises(InvalidDimensionError):
        candidate_mse(cal_set(d=128), random_signs(128, 1), cb)
    with pytest.raises(InvalidDimensionError):
        candidate_mse(cal_set(d=64), random_signs(128, 1), cb)


def test_report_to_dict_round_trips_signs():
    report = select_signs(cal_set(seed=9, layer_id=4), C=5, b=3)
    payload = report.to_dict()
    assert payload["layer_id"] == 4
    assert bytes.fromhex(payload["selected_signs_hex"]) == \
        serialize_signs(report.selected)
    assert len(payload["candidate_mses"]) == 5


def test_select_all_layers_packs_rom_in_order():
    layers = {0: cal_set(seed=10), 1: cal_set(seed=11, scale=8.0)}
    reports, rom = select_signs_all_layers(layers, C=6, b=3, base_seed=50)
    assert [r.selected.layer_id for r in reports] == [0, 1]
    assert len(rom) == 8 + 2 * 16
    back = unpack_sign_rom(rom)
    for rec, rep in zip(back, reports):
        np.testing.assert_array_equal(rec.signs, rep.selected.signs)
    # Each layer's search is independent: layer 0 alone gives the same pick.
    solo = select_signs(cal_set(seed=10), C=6, b=3, base_seed=50)
    assert solo.selected_seed == reports[0].selected_seed
    with pytest.raises(EmptyCalibrationError):
        select_signs_all_layers({}, C=4, b=3)
    with pytest.raises(InvalidDimensionError):
        select_signs_all_layers({0: cal_set(), 1: cal_set(d=64)}, C=4, b=3)


def test_all_layers_solves_the_codebook_once(monkeypatch):
    import kvlut.signopt as signopt
    layers = {i: cal_set(seed=40 + i, scale=1.0 + i) for i in range(3)}
    solo = [select_signs(CalibrationSet(keys=cs.keys, layer_id=i), C=5, b=3,
                         base_seed=2) for i, cs in layers.items()]
    calls = []

    def counting_solve(d, b):
        calls.append((d, b))
        return solve_codebook(d, b)

    monkeypatch.setattr(signopt, "solve_codebook", counting_solve)
    reports, rom = select_signs_all_layers(layers, C=5, b=3, base_seed=2)
    assert calls == [(D, 3)]
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in solo]
    assert rom == pack_sign_rom([r.selected for r in solo])


def test_layer_permutation_permutes_records_not_contents():
    sets = {i: cal_set(seed=30 + i) for i in range(3)}
    order = [2, 0, 1]
    fwd, rom_fwd = select_signs_all_layers(sets, C=4, b=3, base_seed=9)
    bwd, rom_bwd = select_signs_all_layers(
        {i: sets[i] for i in order}, C=4, b=3, base_seed=9)
    assert [r.selected.layer_id for r in bwd] == order
    picked = {r.selected.layer_id: r.selected_seed for r in fwd}
    for r in bwd:
        assert r.selected_seed == picked[r.selected.layer_id]
    recs_fwd = unpack_sign_rom(rom_fwd)
    recs_bwd = unpack_sign_rom(rom_bwd)
    for j, layer in enumerate(order):
        np.testing.assert_array_equal(recs_bwd[j].signs, recs_fwd[layer].signs)


def test_36_layer_rom_payload_is_576_bytes():
    layers = {i: cal_set(n=8, seed=20 + i) for i in range(36)}
    _, rom = select_signs_all_layers(layers, C=2, b=2)
    assert len(rom) == 8 + 576


def test_norm_diagnostic_thresholds():
    # Mirrors the published motivating pair: mean norms 172 vs 22 across
    # layers is a 7.8x ratio, well past the optimize threshold.
    lo = CalibrationSet(keys=np.eye(D)[:8] * 22.0, layer_id=0)
    hi = CalibrationSet(keys=np.eye(D)[:8] * 172.0, layer_id=1)
    diag = norm_ratio_diagnostic({0: lo, 1: hi})
    assert diag.mean_norms[0] == pytest.approx(22.0)
    assert diag.mean_norms[1] == pytest.approx(172.0)
    assert diag.ratio == pytest.approx(172.0 / 22.0)
    assert diag.recommendation == RECOMMEND_OPTIMIZE

    mid = CalibrationSet(keys=np.eye(D)[:8] * 70.0, layer_id=1)
    assert norm_ratio_diagnostic({0: lo, 1: mid}).recommendation == \
        RECOMMEND_INDETERMINATE
    same = CalibrationSet(keys=np.eye(D)[:8] * 23.0, layer_id=1)
    assert norm_ratio_diagnostic({0: lo, 1: same}).recommendation == \
        RECOMMEND_SAFE
    mild = CalibrationSet(keys=np.eye(D)[:8] * 33.0, layer_id=1)
    mild_diag = norm_ratio_diagnostic({0: lo, 1: mild})
    assert mild_diag.ratio == pytest.approx(1.5)
    assert mild_diag.recommendation == RECOMMEND_SAFE
    single = norm_ratio_diagnostic({0: lo})
    assert single.ratio == 1.0
    assert single.recommendation == RECOMMEND_SAFE
    zero = CalibrationSet(keys=np.zeros((4, D)), layer_id=1)
    with pytest.raises(EmptyCalibrationError):
        norm_ratio_diagnostic({0: lo, 1: zero})
    with pytest.raises(EmptyCalibrationError):
        norm_ratio_diagnostic({})


def test_diagnostic_to_dict():
    diag = norm_ratio_diagnostic({0: cal_set(seed=1), 1: cal_set(seed=2)})
    payload = diag.to_dict()
    assert set(payload) == {"mean_norms", "ratio", "recommendation"}
    assert set(payload["mean_norms"]) == {"0", "1"}


def test_calibration_set_validation():
    with pytest.raises(InvalidInputError):
        CalibrationSet(keys=np.array([[np.inf] * 4]))
    cs = CalibrationSet(keys=np.ones(8))
    assert cs.keys.shape == (1, 8)
    assert cs.d == 8
