"""Calibration-based sign selection and the norm heterogeneity diagnostic."""

import math
import os
import threading

import numpy as np
import pytest

import kvlut.signopt as signopt
import kvlut.transform as transform
from kvlut.codebook import solve_codebook
from kvlut.errors import (EmptyCalibrationError, InvalidDimensionError,
                          InvalidInputError)
from kvlut.evalkit import (LayerProfile, SyntheticSpec, generate_keys,
                           sensitivity_sweep)
from kvlut.signopt import (RECOMMEND_INDETERMINATE, RECOMMEND_OPTIMIZE,
                           RECOMMEND_SAFE, CalibrationSet, SignSearchReport,
                           _candidate_mses, _normalized_rows, candidate_mse,
                           norm_ratio_diagnostic, select_signs,
                           select_signs_all_layers)
from kvlut.transform import (RotationSpec, inverse_rotate, pack_sign_rom,
                             random_signs, rotate, serialize_signs,
                             unpack_sign_rom)
from kvlut.write_path import _cell_indices, quantize_batch

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
    # Scaling by a power of two scales every norm exactly, so the unit rows,
    # and the MSE, keep every bit at every b.  Any other scale rounds the
    # unit rows differently (37.5 moves 3,634 of these 8,192 entries by an
    # ulp), and a coordinate on a boundary can change cell, so the MSE only
    # stays within a few ulps.
    s = random_signs(D, 2)
    a = cal_set(seed=1)
    for b in range(1, 9):
        cb = solve_codebook(D, b)
        mse = candidate_mse(a, s, cb)
        for scale in (2.0 ** -20, 2.0, 2.0 ** 30):
            assert candidate_mse(CalibrationSet(keys=a.keys * scale), s, cb) == mse, (b, scale)
        scaled = candidate_mse(CalibrationSet(keys=a.keys * 37.5), s, cb)
        assert abs(scaled - mse) <= 8 * np.spacing(mse), b


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


@pytest.mark.parametrize("d, b", [(128, 3), (16, 2), (64, 4)])
def test_equal_mses_pick_the_lowest_seed(d, b):
    # One key on e_0 rotates to coordinates of +-1/sqrt(d), and the codebook
    # is odd-symmetric, so every candidate's MSE is the same: the tie goes
    # to the lowest seed, base_seed + 1.
    e0 = np.zeros((1, d))
    e0[0, 0] = 1.0
    keys = CalibrationSet(keys=e0)
    solo = select_signs(keys, C=20, b=b, base_seed=40)
    reports, _ = select_signs_all_layers({0: keys, 1: CalibrationSet(keys=3 * e0)},
                                         C=20, b=b, base_seed=40)
    for report in (solo, *reports):
        assert report.selected_seed == 41
        assert len({m.tobytes() for m in report.mses}) == 1


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
    err = y - cb.centroids[_cell_indices(y, cb)]
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
    backwards = _candidate_mses(unit, signs[::-1], [cb])[:, 0]
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


def test_spread_when_the_best_mse_is_zero():
    # Candidates that all fit exactly are inert (spread 1); an exact fit
    # beside an inexact one is an unbounded spread.
    def report(mses):
        return SignSearchReport(candidate_count=len(mses), base_seed=0,
                                mses=np.array(mses), selected_seed=1,
                                selected=random_signs(D, 1), dropped_rows=0)
    assert report([0.0, 0.0]).spread == 1.0
    assert report([0.0, 0.5]).spread == math.inf
    assert report([0.0, 0.5]).to_dict()["spread"] == math.inf


def test_search_draws_each_candidate_once_tagged_with_the_mapping_layer_id(monkeypatch):
    # C draws per layer, no second draw for the winner, and the winner
    # carries the id the layer has in the mapping, not the set's own.
    draws = []

    def counting(d, seed, layer_id=0):
        draws.append((seed, layer_id))
        return random_signs(d, seed, layer_id)

    monkeypatch.setattr(signopt, "random_signs", counting)
    layers = {7: cal_set(seed=1), 9: cal_set(seed=2, scale=4.0)}
    reports, _ = select_signs_all_layers(layers, C=5, b=3, base_seed=20)
    assert draws == [(20 + c, lid) for lid in (7, 9) for c in range(1, 6)]
    for lid, rep in zip((7, 9), reports):
        want = random_signs(D, rep.selected_seed, layer_id=lid)
        assert rep.selected.layer_id == lid
        np.testing.assert_array_equal(rep.selected.signs, want.signs)


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


def test_norm_diagnostic_ratio_past_float64_range():
    # Finite mean norms about 1.1e151 and 1.1e-159 whose ratio overflows.
    hi = CalibrationSet(keys=np.full((2, D), 1e150), layer_id=3)
    lo = CalibrationSet(keys=np.full((2, D), 1e-160), layer_id=5)
    with pytest.raises(InvalidInputError, match="layers 3 .* and 5 "):
        norm_ratio_diagnostic({3: hi, 5: lo})
    near = CalibrationSet(keys=np.full((2, D), 1e-150), layer_id=5)
    assert norm_ratio_diagnostic({3: hi, 5: near}).ratio == pytest.approx(1e300)


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


# -- candidates on threads ---------------------------------------------------

WORKER_COUNTS = {"1": lambda C, elems: 1, "2": lambda C, elems: 2,
                 "3": lambda C, elems: 3, "C+2": lambda C, elems: C + 2}


@pytest.mark.parametrize("n, C", [(64, 1), (1, 7), (512, 9)],
                         ids=["one-candidate", "one-row", "512-rows"])
@pytest.mark.parametrize("count", list(WORKER_COUNTS))
def test_results_are_bit_identical_for_every_worker_count(monkeypatch, n, C, count):
    keys = cal_set(n=n, seed=n + C, scale=2.0)
    layers = {0: keys, 1: cal_set(n=n, seed=n + C + 1, scale=9.0)}
    unit, _ = _normalized_rows(keys)
    signs = [random_signs(D, 60 + c) for c in range(C)]
    cb = solve_codebook(D, 3)

    def everything():
        reports, rom = select_signs_all_layers(layers, C=C, b=3, base_seed=60)
        sweep = sensitivity_sweep(keys, seeds=range(60, 60 + C), bs=(1, 3))
        return _candidate_mses(unit, signs, [cb]), reports, rom, sweep.mses

    monkeypatch.setattr(signopt, "_workers", lambda C, elems: 1)
    serial = everything()
    monkeypatch.setattr(signopt, "_workers", WORKER_COUNTS[count])
    mses, reports, rom, sweep = everything()
    np.testing.assert_array_equal(mses.view(np.uint64), serial[0].view(np.uint64))
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in serial[1]]
    assert rom == serial[2]
    np.testing.assert_array_equal(sweep.view(np.uint64), serial[3].view(np.uint64))


def test_worker_count_is_bounded_by_cpus_candidates_and_block_size():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    big = signopt._THREAD_MIN_ELEMS + 1
    for C in (1, 2, 3, 200):
        assert signopt._workers(C, big) == min(cpus, C)
        assert signopt._workers(C, signopt._THREAD_MIN_ELEMS) == 1


def recording_cell_indices(calls, fail_at=None, error=None):
    """_cell_indices that records (thread, np.geterr()) for every call and
    raises `error` on the fail_at-th call made off the calling thread."""
    caller = threading.get_ident()

    def cell_indices(y, cb, *scratch):
        calls.append((threading.get_ident(), np.geterr()))
        off_caller = [ident for ident, _ in calls if ident != caller]
        if calls[-1][0] != caller and len(off_caller) == fail_at:
            raise error
        return _cell_indices(y, cb, *scratch)
    return cell_indices


@pytest.mark.parametrize("n", [8, 512])
def test_a_search_runs_on_at_most_one_thread_per_cpu(monkeypatch, n):
    baseline = threading.active_count()
    calls = []
    monkeypatch.setattr(signopt, "_cell_indices", recording_cell_indices(calls))
    select_signs(cal_set(n=n), C=5, b=3)
    threads = {ident for ident, _ in calls}
    assert len(calls) == 5
    assert len(threads) == signopt._workers(5, n * D) <= 5
    assert threading.active_count() == baseline


@pytest.mark.parametrize("k", [1, 2])
def test_worker_error_is_raised_and_every_thread_joined(monkeypatch, k):
    baseline = threading.active_count()
    boom = InvalidInputError("comparator fault")
    calls = []
    monkeypatch.setattr(signopt, "_workers", lambda C, elems: min(3, C))
    monkeypatch.setattr(signopt, "_cell_indices", recording_cell_indices(calls, k, boom))
    with pytest.raises(InvalidInputError) as raised:
        select_signs(cal_set(n=32), C=8, b=3)
    assert raised.value is boom
    assert threading.active_count() == baseline
    assert np.getbufsize() == 8192


def test_caller_error_joins_the_workers(monkeypatch):
    baseline = threading.active_count()
    caller = threading.get_ident()

    def cell_indices(y, cb, *scratch):
        if threading.get_ident() == caller:
            raise InvalidInputError("caller fault")
        return _cell_indices(y, cb, *scratch)

    monkeypatch.setattr(signopt, "_workers", lambda C, elems: 2)
    monkeypatch.setattr(signopt, "_cell_indices", cell_indices)
    with pytest.raises(InvalidInputError, match="caller fault"):
        select_signs(cal_set(n=32), C=6, b=3)
    assert threading.active_count() == baseline
    assert np.getbufsize() == 8192


def test_callers_errstate_holds_on_the_workers(monkeypatch):
    calls = []
    monkeypatch.setattr(signopt, "_workers", lambda C, elems: 2)
    monkeypatch.setattr(signopt, "_cell_indices", recording_cell_indices(calls))
    with np.errstate(all="raise"):
        select_signs(cal_set(n=32), C=4, b=3)
    caller = threading.get_ident()
    on_workers = [err for ident, err in calls if ident != caller]
    assert on_workers and len(calls) == 4
    raising = dict.fromkeys(("divide", "over", "under", "invalid"), "raise")
    assert all(err == raising for _, err in calls)


# -- the sign flip and butterflies under a row-length ufunc buffer -----------

def around_butterflies(hook):
    """transform._butterflies that first calls hook(y) on its (d, N) block."""
    butterflies = transform._butterflies

    def wrapped(y, diff):
        hook(y)
        butterflies(y, diff)
    return wrapped


def test_candidates_rotate_under_a_row_length_buffer_and_restore_it(monkeypatch):
    seen = []
    recording = around_butterflies(lambda y: seen.append((y.shape[1], np.getbufsize())))
    monkeypatch.setattr(transform, "_butterflies", recording)
    select_signs(cal_set(n=512), C=4, b=3)
    assert seen == [(512, 512)] * 4 and np.getbufsize() == 8192
    seen.clear()
    sensitivity_sweep(cal_set(n=40), seeds=range(3), bs=(1, 3))
    assert seen == [(40, 32)] * 3 and np.getbufsize() == 8192
    seen.clear()
    quantize_batch(cal_set(n=300).keys, RotationSpec(d=D, sign=random_signs(D, 1)),
                   solve_codebook(D, 3))
    assert seen == [(256, 256), (44, 32)] and np.getbufsize() == 8192


@pytest.mark.parametrize("workers", [1, 2])
def test_error_inside_the_scope_restores_the_buffer(monkeypatch, workers):
    caller = threading.get_ident()

    def fail_on_caller(y):
        if threading.get_ident() == caller:
            raise InvalidInputError("butterfly fault")

    monkeypatch.setattr(signopt, "_workers", lambda C, elems: workers)
    monkeypatch.setattr(transform, "_butterflies", around_butterflies(fail_on_caller))
    with pytest.raises(InvalidInputError, match="butterfly fault"):
        select_signs(cal_set(n=512), C=4, b=3)
    assert np.getbufsize() == 8192


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_rotates_each_seed_once_and_matches_per_bit_width_calls(
        monkeypatch, workers):
    rotations = []
    monkeypatch.setattr(signopt, "_workers", lambda C, elems: workers)
    monkeypatch.setattr(transform, "_butterflies", around_butterflies(rotations.append))
    keys = cal_set(n=512, seed=5, scale=3.0)
    seeds, bs = range(70, 75), (1, 3, 8)
    sweep = sensitivity_sweep(keys, seeds, bs)
    assert len(rotations) == len(seeds)
    unit, _ = _normalized_rows(keys)
    signs = [random_signs(D, sd) for sd in seeds]
    for j, b in enumerate(bs):
        per_b = _candidate_mses(unit, signs, [solve_codebook(D, b)])[:, 0]
        np.testing.assert_array_equal(sweep.mses[:, j].view(np.uint64),
                                      per_b.view(np.uint64))
        want = np.array([rotate_qdq_mse(unit, s, solve_codebook(D, b)) for s in signs])
        np.testing.assert_array_equal(per_b.view(np.uint64), want.view(np.uint64))
