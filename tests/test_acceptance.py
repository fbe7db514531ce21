"""Acceptance gate: nine go/no-go criteria with pinned tolerances.

Each criterion is one test that prints a single PASS/FAIL line (visible
under pytest -s; under plain pytest the per-test verdict carries the same
information).  Tolerances and budgets here are contractual: do not loosen.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from kvlut.cli import main as cli_main
from kvlut.codebook import (analytic_distortion, lloyd_residual, max_residual,
                            serialize_rom, solve_codebook)
from kvlut.evalkit import (LayerProfile, SyntheticSpec, generate_keys,
                           jensen_bias_probe, sensitivity_sweep)
from kvlut.read_path import score_sequence
from kvlut.reference import score_sequence_reference
from kvlut.signopt import CalibrationSet, candidate_mse, select_signs, \
    select_signs_all_layers
from kvlut.transform import RotationSpec, random_signs, rotate
from kvlut.write_path import QuantizedKey, packed_size, quantize_batch, pack

cached_codebook = functools.cache(solve_codebook)


def verdict(n, label, ok, detail):
    line = f"CRITERION {n} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def make_cache(rng, n, d, spec, cb):
    keys = rng.normal(size=(n, d))
    idx, norms = quantize_batch(keys, spec, cb)
    return [QuantizedKey(indices=idx[i], norm=np.float16(norms[i]))
            for i in range(n)]


def test_criterion_1_codebook_optimality(tmp_path):
    t0 = time.perf_counter()
    rom = tmp_path / "cb.cbrom"
    code = cli_main(["solve-codebook", "--d", "128", "--b", "3",
                     "--out", str(rom), "--report", str(tmp_path / "r.json")])
    cb = cached_codebook(128, 3)
    res_lloyd = lloyd_residual(cb.centroids, cb.boundaries)
    res_max = max_residual(cb.sigma, cb.centroids, cb.boundaries)
    rom_bytes = rom.stat().st_size
    cb1 = cached_codebook(128, 1)
    level = math.sqrt(2.0 / math.pi) / math.sqrt(128.0)
    closed_err = float(np.max(np.abs(cb1.centroids - [-level, level])))
    elapsed = time.perf_counter() - t0
    ok = (code == 0 and res_lloyd < 1e-11 and res_max < 1e-11
          and rom_bytes == 30 and closed_err < 1e-10 and elapsed < 5.0)
    verdict(1, "codebook optimality", ok,
            f"residuals {res_lloyd:.2e}/{res_max:.2e}, rom {rom_bytes} B, "
            f"b=1 closed-form err {closed_err:.2e}, {elapsed:.2f} s")


def test_criterion_2_multiplication_identity(tmp_path):
    t0 = time.perf_counter()
    d, b, T = 128, 3, 4096
    report = tmp_path / "bench.json"
    code = cli_main(["bench-mults", "--d", str(d), "--b", str(b),
                     "--T", str(T), "--report", str(report)])
    bench = json.loads(report.read_text())

    # Instrumented simulate-attention over a real T=4096 cache.
    rng = np.random.default_rng(2)
    np.save(tmp_path / "keys.npy", rng.normal(size=(T, d)))
    np.save(tmp_path / "q.npy", rng.normal(size=(1, d)))
    for argv in (
        ["solve-codebook", "--d", str(d), "--b", str(b),
         "--out", str(tmp_path / "cb.cbrom")],
        ["gen-signs", "--d", str(d), "--layers", "1",
         "--out", str(tmp_path / "s.sgnrom")],
        ["quantize", "--keys", str(tmp_path / "keys.npy"),
         "--signs", str(tmp_path / "s.sgnrom"),
         "--codebook", str(tmp_path / "cb.cbrom"),
         "--out", str(tmp_path / "c.kvq")],
        ["simulate-attention", "--query", str(tmp_path / "q.npy"),
         "--cache", str(tmp_path / "c.kvq"),
         "--signs", str(tmp_path / "s.sgnrom"),
         "--codebook", str(tmp_path / "cb.cbrom"), "--reference",
         "--report", str(tmp_path / "sim.json")],
    ):
        assert cli_main(argv) == 0
    sim = json.loads((tmp_path / "sim.json").read_text())
    mcat = sim["ops"]["multiplications"]["by_category"]
    sim_lut = mcat["table"] + mcat["score"]
    rcat = sim["reference_ops"]["multiplications"]["by_category"]
    sim_ref = rcat["score"]
    elapsed = time.perf_counter() - t0
    ok = (code == 0
          and bench["lookup_mults"] == 5120 and sim_lut == 5120
          and bench["reference_mults"] == 524288 and sim_ref == 524288
          and bench["ratio"] == 102.4 and elapsed < 10.0)
    verdict(2, "multiplication identity", ok,
            f"{bench['lookup_mults']}/{sim_lut} vs "
            f"{bench['reference_mults']}/{sim_ref}, ratio {bench['ratio']}, "
            f"{elapsed:.2f} s")


def test_criterion_3_asymmetric_path_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    instances = 0
    for d in (16, 64, 128):
        for b in (1, 2, 3, 4):
            cb = cached_codebook(d, b)
            for i in range(100):
                rng = np.random.default_rng([d, b, i])
                spec = RotationSpec(d=d, sign=random_signs(d, int(rng.integers(2**32))))
                cache = make_cache(rng, 12, d, spec, cb)
                q = rng.normal(size=d)
                lut, _ = score_sequence(q, cache, spec, cb)
                ref, _ = score_sequence_reference(q, cache, spec, cb)
                scale = max(float(np.abs(ref).max()), np.finfo(float).tiny)
                worst = max(worst, float(np.abs(lut - ref).max()) / scale)
                instances += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and instances == 1200 and elapsed < 60.0
    verdict(3, "asymmetric-path equivalence", ok,
            f"{instances} instances, max rel err {worst:.2e}, {elapsed:.1f} s")


def test_criterion_4_concentration_closure():
    t0 = time.perf_counter()
    d = 128
    cb = cached_codebook(d, 3)
    rng = np.random.default_rng(44)
    keys = rng.normal(size=(10_000, d))
    unit = keys / np.linalg.norm(keys, axis=1, keepdims=True)
    spec = RotationSpec(d=d, sign=random_signs(d, 7))
    y = rotate(spec, unit)
    var_scaled = float(np.var(y) * d)
    idx = np.searchsorted(cb.boundaries, y, side="right")
    err = y - cb.centroids[idx]
    mse = float(np.mean(err * err))
    ratio = mse / analytic_distortion(cb)
    elapsed = time.perf_counter() - t0
    ok = (0.95 <= var_scaled <= 1.05 and abs(ratio - 1.0) <= 0.05
          and elapsed < 60.0)
    verdict(4, "concentration closure", ok,
            f"pooled var x d = {var_scaled:.4f}, MSE/analytic = {ratio:.4f}, "
            f"{elapsed:.1f} s")


def test_criterion_5_compression_accounting():
    d, b = 128, 3
    cb = cached_codebook(d, b)
    spec = RotationSpec(d=d, sign=random_signs(d, 1))
    rng = np.random.default_rng(5)
    cache = make_cache(rng, 8, d, spec, cb)
    sizes = {len(pack(qk, b)) for qk in cache}
    declared = packed_size(d, b)
    ratio = (2.0 * d) / declared
    ok = sizes == {50} and declared == 50 and ratio == 5.12
    verdict(5, "compression accounting", ok,
            f"record bytes {sorted(sizes)}, declared {declared}, "
            f"ratio {ratio}")


def test_criterion_6_sensitivity_mechanism():
    t0 = time.perf_counter()
    d, N, reps = 128, 256, 20
    bs = (2, 3, 4)
    hom_profile = LayerProfile(scale=22.0)
    het_profile = LayerProfile(scale=22.0, direction_gain=7.8)
    successes = 0
    margins = []
    for rep in range(reps):
        keysets = generate_keys(SyntheticSpec(
            d=d, N=N, profiles=(hom_profile, het_profile), seed=90_000 + rep))
        seeds = tuple(1000 * rep + c for c in range(1, 11))
        hom = sensitivity_sweep(keysets[0], seeds, bs)
        het = sensitivity_sweep(keysets[1], seeds, bs)
        wins = [het.spread_maxmin[b] > hom.spread_maxmin[b] for b in bs]
        margins.append(min(het.spread_maxmin[b] / hom.spread_maxmin[b]
                           for b in bs))
        successes += all(wins)
    elapsed = time.perf_counter() - t0
    ok = successes >= 19
    verdict(6, "sensitivity mechanism", ok,
            f"het spread > hom spread at all b in {successes}/{reps} reps "
            f"(min margin {min(margins):.3f}), {elapsed:.1f} s")


def test_criterion_7_sign_selection():
    t0 = time.perf_counter()
    d, b, C = 128, 3, 200
    profile = LayerProfile(scale=22.0, direction_gain=7.8)
    cb = cached_codebook(d, b)

    # Argmin is reported bit-exactly and re-evaluation reproduces it.
    keys = generate_keys(SyntheticSpec(d=d, N=128, profiles=(profile,),
                                       seed=777))[0]
    report = select_signs(keys, C=C, b=b, base_seed=0)
    re_eval = candidate_mse(keys, random_signs(d, report.selected_seed), cb)
    argmin_exact = (re_eval == report.best_mse
                    and report.best_mse == float(report.mses.min()))

    # Held-out generalization over 20 repetitions.
    held_wins = 0
    reps = 20
    for rep in range(reps):
        pool = generate_keys(SyntheticSpec(d=d, N=64 + 256,
                                           profiles=(profile,),
                                           seed=30_000 + rep))[0]
        cal = CalibrationSet(keys=pool.keys[:64])
        held = CalibrationSet(keys=pool.keys[64:])
        rep_report = select_signs(cal, C=C, b=b, base_seed=1000 * rep)
        held_mses = np.array([
            candidate_mse(held, random_signs(d, 1000 * rep + c), cb)
            for c in range(1, C + 1)])
        selected_held = held_mses[rep_report.selected_seed - 1000 * rep - 1]
        held_wins += selected_held <= float(np.median(held_mses))

    # 36-layer run at N=512 emits a 576-byte sign payload.
    layers = generate_keys(SyntheticSpec(
        d=d, N=512, profiles=tuple([profile] * 36), seed=55))
    _, rom = select_signs_all_layers(layers, C=C, b=b)
    payload = len(rom) - 8
    elapsed = time.perf_counter() - t0
    ok = (argmin_exact and held_wins >= 18 and payload == 576
          and elapsed < 300.0)
    verdict(7, "sign selection", ok,
            f"argmin bit-exact={argmin_exact}, held-out wins {held_wins}/{reps}, "
            f"payload {payload} B, {elapsed:.1f} s")


def test_criterion_8_jensen_bias_probe():
    t0 = time.perf_counter()
    scores = np.random.default_rng(88).normal(size=64)
    rel_errs = {}
    for std in (0.1, 0.5, 1.0):
        rep = jensen_bias_probe(scores, std, trials=100_000, seed=3)
        oracle = math.exp(std**2 / 2.0)
        rel_errs[std] = abs(rep.aggregate_ratio - oracle) / oracle
    zero = jensen_bias_probe(scores, 0.0, trials=100_000, seed=3)
    elapsed = time.perf_counter() - t0
    ok = (max(rel_errs.values()) < 0.02 and zero.aggregate_ratio == 1.0
          and elapsed < 30.0)
    verdict(8, "Jensen bias probe", ok,
            "rel err " + ", ".join(f"s={s}: {e:.2%}" for s, e in rel_errs.items())
            + f"; s=0 ratio {zero.aggregate_ratio}, {elapsed:.1f} s")


def test_criterion_9_bit_exact_determinism(tmp_path):
    rng = np.random.default_rng(9)
    np.save(tmp_path / "keys.npy", rng.normal(size=(24, 128)))
    np.save(tmp_path / "q.npy", rng.normal(size=(1, 128)))
    np.save(tmp_path / "cal0.npy", rng.normal(size=(32, 128)))
    np.save(tmp_path / "cal1.npy", rng.normal(size=(32, 128)) * 6.0)
    (tmp_path / "synth.json").write_text(json.dumps(
        {"d": 64, "N": 32, "seed": 4,
         "profiles": [{"scale": 1.0}, {"scale": 5.0, "direction_gain": 3.0}]}))

    def run_all(out):
        out.mkdir()
        jobs = [
            ["solve-codebook", "--d", "128", "--b", "3",
             "--out", str(out / "cb.cbrom"), "--report", str(out / "cb.json")],
            ["gen-signs", "--d", "128", "--layers", "2",
             "--out", str(out / "s.sgnrom"), "--report", str(out / "s.json")],
            ["quantize", "--keys", str(tmp_path / "keys.npy"),
             "--signs", str(out / "s.sgnrom"),
             "--codebook", str(out / "cb.cbrom"),
             "--out", str(out / "c.kvq"), "--report", str(out / "q.json")],
            ["simulate-attention", "--query", str(tmp_path / "q.npy"),
             "--cache", str(out / "c.kvq"), "--signs", str(out / "s.sgnrom"),
             "--codebook", str(out / "cb.cbrom"),
             "--report", str(out / "sim.json")],
            ["simulate-attention", "--query", str(tmp_path / "q.npy"),
             "--cache", str(out / "c.kvq"), "--signs", str(out / "s.sgnrom"),
             "--codebook", str(out / "cb.cbrom"), "--mode", "fp16",
             "--report", str(out / "sim16.json")],
            ["bench-mults", "--d", "128", "--b", "3", "--T", "512",
             "--report", str(out / "bench.json")],
            ["eval", "--synthetic", str(tmp_path / "synth.json"),
             "--b-list", "2,3", "--seeds", "1,2,3",
             "--jensen-std", "0,0.5", "--jensen-trials", "5000",
             "--report", str(out / "eval.json"), "--csv", str(out / "eval.csv")],
            ["diagnose-norms", "--keys", str(tmp_path / "cal0.npy"),
             str(tmp_path / "cal1.npy"), "--report", str(out / "diag.json")],
            ["optimize-signs", "--keys", str(tmp_path / "cal0.npy"),
             str(tmp_path / "cal1.npy"), "--b", "3", "--candidates", "8",
             "--out", str(out / "opt.sgnrom"),
             "--report", str(out / "opt.json")],
        ]
        for argv in jobs:
            assert cli_main(argv) == 0

    run_all(tmp_path / "run1")
    run_all(tmp_path / "run2")
    names = sorted(p.name for p in (tmp_path / "run1").iterdir())
    mismatched = [n for n in names
                  if (tmp_path / "run1" / n).read_bytes()
                  != (tmp_path / "run2" / n).read_bytes()]
    # 15 artifacts: 6 binary/CSV outputs + 8 JSON reports + the ROM sidecar.
    ok = not mismatched and len(names) == 15
    verdict(9, "bit-exact determinism", ok,
            f"{len(names)} artifacts from 8 subcommands, "
            f"mismatched: {mismatched or 'none'}")
