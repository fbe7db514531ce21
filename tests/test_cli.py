"""Subcommand behavior, artifact formats, and exit-code classes."""

import io
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kvlut.cli as cli
import kvlut.signopt as signopt
from kvlut.cli import _build_parser, main
from kvlut.errors import (ConfigConflictError, FormatError, InvalidDimensionError,
                          InvalidInputError)
from kvlut.read_path import score_sequence
from kvlut.transform import RotationSpec, read_sign_rom
from kvlut.write_path import read_kvq

D = 128


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(100)
    np.save(tmp_path / "keys.npy", rng.normal(size=(30, D)))
    np.save(tmp_path / "query.npy", rng.normal(size=(1, D)))
    np.save(tmp_path / "empty.npy", np.empty((0, D)))
    np.save(tmp_path / "cal0.npy", rng.normal(size=(40, D)))
    np.save(tmp_path / "cal1.npy", rng.normal(size=(40, D)) * 9.0)
    (tmp_path / "synth.json").write_text(json.dumps(
        {"d": 64, "N": 40, "seed": 2,
         "profiles": [{"scale": 1.0}, {"scale": 3.0, "direction_gain": 4.0}]}))
    return tmp_path


def run(ws, *argv):
    return main([str(a) for a in argv])


def _subparsers():
    return _build_parser()._subparsers._group_actions[0].choices


def test_solve_codebook_artifacts(workspace):
    rom = workspace / "cb.cbrom"
    report = workspace / "cb.json"
    assert run(workspace, "solve-codebook", "--d", 128, "--b", 3,
               "--out", rom, "--report", report) == 0
    assert rom.stat().st_size == 30
    sidecar = json.loads((workspace / "cb.cbrom.json").read_text())
    assert sidecar == {"b": 3, "d": 128}
    payload = json.loads(report.read_text())
    assert payload["rom_bytes"] == 30
    assert payload["lloyd_residual"] < 1e-11
    assert payload["max_residual"] < 1e-11
    assert len(payload["centroids"]) == 8
    assert len(payload["boundaries"]) == 7
    assert payload["distortion"] > 0


def test_gen_signs_explicit_seeds(workspace):
    rom = workspace / "signs.sgnrom"
    assert run(workspace, "gen-signs", "--d", 128, "--seeds", "5,9",
               "--out", rom) == 0
    signs = read_sign_rom(rom)
    assert [s.layer_id for s in signs] == [0, 1]
    from kvlut.transform import random_signs
    np.testing.assert_array_equal(signs[0].signs, random_signs(128, 5).signs)
    np.testing.assert_array_equal(signs[1].signs, random_signs(128, 9).signs)


@pytest.mark.parametrize("d", [-4, 0, 1, 3, 96])
def test_gen_signs_rejects_a_dimension_no_rotation_accepts(workspace, capsys, d):
    # A .sgnrom is only usable by a RotationSpec, which needs a power of two
    # >= 2; gen-signs used to write one for d=1, 3 or 96 and exit 0.
    rom = workspace / "bad.sgnrom"
    assert run(workspace, "gen-signs", "--d", d, "--out", rom) == \
        InvalidDimensionError.exit_code
    assert capsys.readouterr().out.splitlines()[-1].startswith("error: ")
    assert not rom.exists()


@pytest.mark.parametrize("flags", [("--d", 65536), ("--d", 2 ** 31), ("--layers", 65536),
                                   ("--layers", 0), ("--seeds", "")],
                         ids=["d-65536", "d-2^31", "layers-65536", "layers-0", "no-seeds"])
def test_gen_signs_checks_the_rom_header_before_building_a_sign(
        workspace, capsys, monkeypatch, flags):
    # The sign ROM header holds d and the layer count as u16 and needs a
    # layer; a --d past it used to build every vector first (2^31 signs).
    def refuse(*args, **kwargs):
        raise AssertionError("a sign vector was built")

    monkeypatch.setattr(cli, "random_signs", refuse)
    rom = workspace / "bad.sgnrom"
    assert run(workspace, "gen-signs", "--d", 128, *flags, "--out", rom) == \
        FormatError.exit_code
    assert capsys.readouterr().out.splitlines()[-1].startswith("error: ")
    assert not rom.exists()


def _refuse(*args, **kwargs):
    raise AssertionError("drawn before the count was checked")


@pytest.mark.parametrize("count", [0, 65537, 2 ** 32])
def test_optimize_signs_caps_the_candidate_count_before_drawing_a_sign(
        workspace, capsys, monkeypatch, count):
    monkeypatch.setattr(signopt, "random_signs", _refuse)
    assert run(workspace, "optimize-signs", "--keys", workspace / "cal0.npy", "--b", 3,
               "--candidates", count, "--out", workspace / "x.sgnrom") == \
        InvalidInputError.exit_code
    assert capsys.readouterr().out.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("count", [0, 65537, 2 ** 32])
def test_eval_caps_the_jensen_score_count_before_drawing_a_score(
        workspace, capsys, monkeypatch, count):
    # With --keys, nothing but the score draw calls numpy's generator.
    monkeypatch.setattr(np.random, "default_rng", _refuse)
    assert run(workspace, "eval", "--keys", workspace / "cal0.npy", "--seeds", "1",
               "--jensen-std", "0.1", "--jensen-scores", count) == \
        InvalidInputError.exit_code
    assert capsys.readouterr().out.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("flags", [
    ("--jensen-trials", 0), ("--jensen-trials", 2 ** 21 + 1), ("--jensen-std", "0.1,-0.5")],
    ids=["trials-0", "trials-past-draw-cap", "std-negative"])
def test_eval_checks_the_jensen_probe_before_reading_a_key(
        workspace, capsys, monkeypatch, flags):
    # No key file is read, no sweep runs and no score is drawn before the
    # probe's arguments pass; 2^21 + 1 trials of 64 scores draw past 2^27.
    monkeypatch.setattr(np.random, "default_rng", _refuse)
    monkeypatch.setattr(cli, "load_key_matrix", _refuse)
    monkeypatch.setattr(cli, "sensitivity_sweep", _refuse)
    assert run(workspace, "eval", "--keys", workspace / "cal0.npy", "--seeds", "1",
               "--jensen-std", "0.1", *flags) == InvalidInputError.exit_code
    assert capsys.readouterr().out.splitlines()[-1].startswith("error: ")


def _build_pipeline(ws):
    run(ws, "solve-codebook", "--d", 128, "--b", 3, "--out", ws / "cb.cbrom")
    run(ws, "gen-signs", "--d", 128, "--layers", 1, "--out", ws / "s.sgnrom")
    run(ws, "quantize", "--keys", ws / "keys.npy", "--signs", ws / "s.sgnrom",
        "--codebook", ws / "cb.cbrom", "--out", ws / "c.kvq",
        "--report", ws / "q.json")


def test_quantize_and_simulate_round_trip(workspace):
    _build_pipeline(workspace)
    cache = workspace / "c.kvq"
    keys, d, b, layer_id = read_kvq(cache)
    assert (d, b, layer_id, len(keys)) == (128, 3, 0, 30)
    assert cache.stat().st_size == 18 + 30 * 50
    qrep = json.loads((workspace / "q.json").read_text())
    assert qrep["ops"]["multiplications"]["by_category"]["transform"] == 0

    sim = workspace / "sim.json"
    assert run(workspace, "simulate-attention", "--query", workspace / "query.npy",
               "--cache", cache, "--signs", workspace / "s.sgnrom",
               "--codebook", workspace / "cb.cbrom", "--reference",
               "--report", sim) == 0
    payload = json.loads(sim.read_text())
    assert len(payload["scores"]) == 30
    # The CLI's scores equal a direct library run against the serialized
    # (half-precision) codebook artifact, not the double-precision solve.
    from kvlut.codebook import deserialize_rom
    cb = deserialize_rom((workspace / "cb.cbrom").read_bytes(), 128, 3)
    spec = RotationSpec(d=128, sign=read_sign_rom(workspace / "s.sgnrom")[0])
    q = np.load(workspace / "query.npy")[0]
    want, _ = score_sequence(q, keys, spec, cb)
    np.testing.assert_array_equal(payload["scores"], want)
    np.testing.assert_allclose(payload["reference_scores"], want,
                               rtol=0.0, atol=1e-11)
    total = payload["ops"]["multiplications"]["by_category"]
    assert total["table"] + total["score"] == 128 * 8 + 30


def test_quantize_has_no_comparator_flag(workspace, capsys):
    # The comparator bank is the only quantizer: --comparator is an unknown
    # argument (argparse's exit 2 and usage line), no file is written, and
    # the report still names the bank.
    _build_pipeline(workspace)
    out = workspace / "x.kvq"
    with pytest.raises(SystemExit) as exc:
        run(workspace, "quantize", "--keys", workspace / "keys.npy",
            "--signs", workspace / "s.sgnrom", "--codebook", workspace / "cb.cbrom",
            "--comparator", "flat", "--out", out)
    assert exc.value.code == 2
    assert "unrecognized arguments: --comparator flat" in capsys.readouterr().err
    assert not out.exists()
    assert "--comparator" not in _subparsers()["quantize"].format_help()
    assert json.loads((workspace / "q.json").read_text())["comparator"] == "flat"


def test_simulate_fp16_mode(workspace, capsys):
    _build_pipeline(workspace)
    sim = workspace / "sim16.json"
    capsys.readouterr()
    assert run(workspace, "simulate-attention", "--query", workspace / "query.npy",
               "--cache", workspace / "c.kvq", "--signs", workspace / "s.sgnrom",
               "--codebook", workspace / "cb.cbrom", "--mode", "fp16",
               "--report", sim) == 0
    payload = json.loads(sim.read_text())
    assert payload["mode"] == "fp16"
    assert payload["saturated"] == 0
    assert capsys.readouterr().err == ""


def test_simulate_names_its_first_saturated_key(workspace, capsys):
    # Keys 0-4 have norms near 11 and the rest near 1e4, so under a query of
    # norm about 1e3 only the later keys' half scores pass 65504.
    _build_pipeline(workspace)
    rng = np.random.default_rng(6)
    keys = rng.normal(size=(30, D))
    keys[5:] *= 1e3
    np.save(workspace / "big.npy", keys)
    np.save(workspace / "bigq.npy", rng.normal(size=(1, D)) * 100)
    roms = ["--signs", workspace / "s.sgnrom", "--codebook", workspace / "cb.cbrom"]
    assert run(workspace, "quantize", "--keys", workspace / "big.npy", *roms,
               "--out", workspace / "big.kvq") == 0
    sim = ["simulate-attention", "--query", workspace / "bigq.npy",
           "--cache", workspace / "big.kvq", *roms]
    for mode in ("fp16", "double"):
        capsys.readouterr()
        report = workspace / f"{mode}.json"
        assert run(workspace, *sim, "--mode", mode, "--report", report) == 0
        payload = json.loads(report.read_text())
        bad = [i for i, s in enumerate(payload["scores"]) if not np.isfinite(s)]
        assert payload["saturated"] == len(bad)
        err = capsys.readouterr().err
        if mode == "double":
            assert not bad and err == ""
        else:
            assert len(bad) >= 10 and bad[0] >= 5
            assert err == (f"warning: {len(bad)} of 30 fp16 scores are not finite; "
                           f"the first is key {bad[0]}\n")


def test_quantize_names_its_first_overflowed_norm(workspace, capsys):
    # Norms of 1e4-entry keys (1.13e5) round to half +inf: one stderr line
    # gives their count and the first key, and no numpy cast warning escapes.
    _build_pipeline(workspace)
    keys = np.random.default_rng(3).normal(size=(5, D))
    keys[[2, 4]] = 1e4
    np.save(workspace / "over.npy", keys)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(workspace, "quantize", "--keys", workspace / "over.npy",
                   "--signs", workspace / "s.sgnrom", "--codebook", workspace / "cb.cbrom",
                   "--out", workspace / "over.kvq", "--report", workspace / "over.json") == 0
    assert capsys.readouterr().err == (
        "warning: 2 of 5 key norms overflow half precision and are stored as +inf; "
        "the first is key 2\n")
    cache, _, _, _ = read_kvq(workspace / "over.kvq")
    assert np.isinf(cache.norms).tolist() == [False, False, True, False, True]
    assert "warning" not in (workspace / "over.json").read_text()


def test_solve_codebook_writes_nothing_for_a_rom_it_cannot_hold(workspace, capsys):
    # At d = 2^35, b = 8 half rounding collapses adjacent values, so the
    # image would fail deserialize_rom: exit 5 before --out, its sidecar or
    # the report is written.
    rom, report = workspace / "big.cbrom", workspace / "big.json"
    assert run(workspace, "solve-codebook", "--d", 2 ** 35, "--b", 8,
               "--out", rom, "--report", report) == 5
    assert capsys.readouterr().out.startswith("error: half rounding at d=34359738368, b=8")
    assert not rom.exists() and not report.exists()
    assert not (workspace / "big.cbrom.json").exists()


def test_quantize_empty_keys(workspace):
    _build_pipeline(workspace)
    out = workspace / "empty.kvq"
    assert run(workspace, "quantize", "--keys", workspace / "empty.npy",
               "--signs", workspace / "s.sgnrom",
               "--codebook", workspace / "cb.cbrom", "--out", out) == 0
    assert out.stat().st_size == 18
    keys, d, b, _ = read_kvq(out)
    assert len(keys) == 0 and (d, b) == (128, 3)


def test_one_column_text_file_holds_one_coordinate_per_key(workspace):
    # Four 1-d keys, not one 4-d key: d=1 conflicts with the 4-d sign ROM.
    ws = workspace
    run(ws, "solve-codebook", "--d", 4, "--b", 2, "--out", ws / "cb4.cbrom")
    run(ws, "gen-signs", "--d", 4, "--out", ws / "s4.sgnrom")
    (ws / "col.txt").write_text("1\n2\n3\n4\n")
    assert run(ws, "quantize", "--keys", ws / "col.txt", "--signs", ws / "s4.sgnrom",
               "--codebook", ws / "cb4.cbrom", "--out", ws / "col.kvq") \
        == ConfigConflictError.exit_code
    assert not (ws / "col.kvq").exists()


def test_repeated_main_calls_write_identical_reports(workspace):
    ws = workspace
    _build_pipeline(ws)
    roms = ["--signs", ws / "s.sgnrom", "--codebook", ws / "cb.cbrom"]
    sim = ["simulate-attention", "--query", ws / "query.npy", "--cache", ws / "c.kvq", *roms]
    calls = {
        "quantize": ["quantize", "--keys", ws / "keys.npy", *roms, "--out", ws / "r.kvq"],
        "reference": [*sim, "--reference"],
        "fp16": [*sim, "--mode", "fp16"],
        # eval --synthetic reads the --keys default list; eval --keys in
        # between must leave that list empty.
        "eval-synthetic": ["eval", "--synthetic", ws / "synth.json", "--seeds", "1,2",
                           "--jensen-std", "0.5", "--jensen-trials", 1000],
        "eval-keys": ["eval", "--keys", ws / "cal0.npy", ws / "cal1.npy", "--seeds", "1,2"],
        "diagnose": ["diagnose-norms", "--synthetic", ws / "synth.json"],
    }
    rounds = []
    for _ in range(2):
        outputs = {}
        for name, argv in calls.items():
            assert run(ws, *argv, "--report", ws / f"{name}.json") == 0
            outputs[name] = (ws / f"{name}.json").read_bytes()
        outputs["kvq"] = (ws / "r.kvq").read_bytes()
        rounds.append(outputs)
    assert rounds[0] == rounds[1]
    assert _build_parser() is _build_parser()


def _every_subcommand(ws):
    roms = ["--signs", ws / "s.sgnrom", "--codebook", ws / "cb.cbrom"]
    return {
        "solve-codebook": ["solve-codebook", "--d", 128, "--b", 3, "--out", ws / "cb.cbrom"],
        "gen-signs": ["gen-signs", "--d", 128, "--out", ws / "s.sgnrom"],
        "optimize-signs": ["optimize-signs", "--keys", ws / "cal0.npy", "--b", 3,
                           "--candidates", 3, "--out", ws / "o.sgnrom"],
        "quantize": ["quantize", "--keys", ws / "keys.npy", *roms, "--out", ws / "c.kvq"],
        "simulate-attention": ["simulate-attention", "--query", ws / "query.npy",
                               "--cache", ws / "c.kvq", *roms, "--reference"],
        "bench-mults": ["bench-mults", "--d", 64, "--b", 2, "--T", 10],
        "eval": ["eval", "--synthetic", ws / "synth.json", "--seeds", "1,2",
                 "--jensen-std", "0.5", "--jensen-trials", 100],
        "diagnose-norms": ["diagnose-norms", "--synthetic", ws / "synth.json"],
    }


def test_stdout_without_report_is_the_report(workspace, capsys):
    # main writes every report: to --report, followed on stdout by the
    # summary, or else to stdout alone, so a pipe gets one JSON document.
    calls = _every_subcommand(workspace)
    assert set(calls) == set(_subparsers())
    for name, argv in calls.items():
        capsys.readouterr()
        assert run(workspace, *argv) == 0, name
        stdout = capsys.readouterr().out
        report = workspace / f"{name}.json"
        assert run(workspace, *argv, "--report", report) == 0, name
        summary = capsys.readouterr().out
        assert stdout == report.read_text(), name
        json.loads(stdout)
        assert summary.endswith("\n") and not summary.startswith("{"), name


@pytest.mark.parametrize("command,flag", [
    ("quantize", "--d"), ("quantize", "--b"), ("simulate-attention", "--d"),
    ("simulate-attention", "--b"), ("bench-mults", "--seed"), ("solve-codebook", "--tol")])
def test_options_the_artifacts_answer_are_gone(workspace, capsys, command, flag):
    # d is in the sign ROM, the cache header and the sidecar, b in the
    # codebook ROM's length, bench-mults draws nothing, and the solver's
    # tolerance is the constant codebook.DEFAULT_TOL, so these flags are
    # unknown arguments (argparse's exit 2).
    _build_pipeline(workspace)
    argv = {"quantize": ["quantize", "--keys", workspace / "keys.npy",
                         "--out", workspace / "x.kvq"],
            "simulate-attention": ["simulate-attention", "--query", workspace / "query.npy",
                                   "--cache", workspace / "c.kvq"],
            "bench-mults": ["bench-mults", "--d", 128, "--b", 3, "--T", 4],
            "solve-codebook": ["solve-codebook", "--d", 128, "--b", 3,
                               "--out", workspace / "x.kvq"]}[command]
    if command in ("quantize", "simulate-attention"):
        argv += ["--signs", workspace / "s.sgnrom", "--codebook", workspace / "cb.cbrom"]
    with pytest.raises(SystemExit) as exc:
        run(workspace, *argv, flag, 3)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
    assert not (workspace / "x.kvq").exists()
    assert flag not in _subparsers()[command]._option_string_actions


def test_bench_mults_report(workspace):
    report = workspace / "bench.json"
    assert run(workspace, "bench-mults", "--d", 128, "--b", 3, "--T", 4096,
               "--report", report) == 0
    payload = json.loads(report.read_text())
    assert payload["lookup_mults"] == 5120
    assert payload["reference_mults"] == 524288
    assert payload["ratio"] == 102.4
    assert run(workspace, "bench-mults", "--d", 128, "--b", 3, "--T", 0,
               "--report", report) == 0
    payload = json.loads(report.read_text())
    assert (payload["lookup_mults"], payload["reference_mults"]) == (1024, 0)


def test_bench_mults_scores_a_zero_cache_it_never_draws(workspace, monkeypatch):
    # Every tally bench-mults reports is a closed form of (d, b, T), so it
    # draws no sign, key or query and quantizes nothing: it scores T zero
    # keys against a zero query.
    seen = []

    def recording(q, cache, *rest):
        seen.append((q, cache))
        return score_sequence(q, cache, *rest)

    for name in ("random_signs", "quantize_batch"):
        monkeypatch.setattr(cli, name, _refuse)
    monkeypatch.setattr(np.random, "default_rng", _refuse)
    monkeypatch.setattr(cli, "score_sequence", recording)
    assert run(workspace, "bench-mults", "--d", 64, "--b", 4, "--T", 1500,
               "--report", workspace / "bench.json") == 0
    (q, cache), = seen
    assert q.shape == (64,) and not q.any()
    assert cache.indices.shape == (1500, 64) and not cache.indices.any()
    assert cache.norms.shape == (1500,) and not cache.norms.any()


def test_eval_and_diagnose(workspace):
    report = workspace / "eval.json"
    csv = workspace / "eval.csv"
    assert run(workspace, "eval", "--synthetic", workspace / "synth.json",
               "--b-list", "2,3", "--seeds", "1,2,3", "--jensen-std", "0,0.5",
               "--jensen-trials", 10000, "--report", report, "--csv", csv) == 0
    payload = json.loads(report.read_text())
    assert set(payload["layers"]) == {"0", "1"}
    assert payload["layers"]["0"]["mses"] and payload["norm_diagnostic"]
    assert payload["jensen"][0]["aggregate_ratio"] == 1.0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "layer,seed,b,mse"
    assert len(lines) == 1 + 2 * 3 * 2

    diag = workspace / "diag.json"
    assert run(workspace, "diagnose-norms", "--keys", workspace / "cal0.npy",
               workspace / "cal1.npy", "--report", diag) == 0
    d = json.loads(diag.read_text())
    assert d["ratio"] == pytest.approx(9.0, rel=0.05)
    assert d["recommendation"] == "optimization recommended"


def test_eval_requires_exactly_one_source(workspace):
    assert run(workspace, "eval", "--b-list", "3") == 8
    assert run(workspace, "eval", "--synthetic", workspace / "synth.json",
               "--keys", workspace / "cal0.npy") == 8


def test_optimize_signs_artifact(workspace):
    rom = workspace / "opt.sgnrom"
    report = workspace / "opt.json"
    assert run(workspace, "optimize-signs", "--keys", workspace / "cal0.npy",
               workspace / "cal1.npy", "--b", 3, "--candidates", 6,
               "--base-seed", 40, "--out", rom, "--report", report) == 0
    signs = read_sign_rom(rom)
    assert len(signs) == 2
    payload = json.loads(report.read_text())
    assert [l["layer_id"] for l in payload["layers"]] == [0, 1]
    for layer in payload["layers"]:
        assert 41 <= layer["selected_seed"] <= 46
        assert len(layer["candidate_mses"]) == 6


def test_exit_codes(workspace):
    _build_pipeline(workspace)
    ws = workspace
    # Missing input file.
    assert run(ws, "quantize", "--keys", ws / "nope.npy", "--signs",
               ws / "s.sgnrom", "--codebook", ws / "cb.cbrom",
               "--out", ws / "x.kvq") == 3
    # Invalid design point.
    assert run(ws, "solve-codebook", "--d", 96, "--b", 3) == 7
    # A key matrix whose width conflicts with the artifacts' d.
    np.save(ws / "keys64.npy", np.ones((3, 64)))
    assert run(ws, "quantize", "--keys", ws / "keys64.npy", "--signs",
               ws / "s.sgnrom", "--codebook", ws / "cb.cbrom",
               "--out", ws / "x.kvq") == 10
    # Truncated codebook image has no matching bit-width.
    (ws / "bad.cbrom").write_bytes((ws / "cb.cbrom").read_bytes()[:29])
    assert run(ws, "quantize", "--keys", ws / "keys.npy", "--signs",
               ws / "s.sgnrom", "--codebook", ws / "bad.cbrom",
               "--out", ws / "x.kvq") == 4
    # Corrupt codebook values.
    blob = bytearray((ws / "cb.cbrom").read_bytes())
    blob[0:2], blob[2:4] = blob[2:4], blob[0:2]
    (ws / "corrupt.cbrom").write_bytes(bytes(blob))
    (ws / "corrupt.cbrom.json").write_text(json.dumps({"d": 128, "b": 3}))
    assert run(ws, "quantize", "--keys", ws / "keys.npy", "--signs",
               ws / "s.sgnrom", "--codebook", ws / "corrupt.cbrom",
               "--out", ws / "x.kvq") == 5
    # Multi-row query is invalid input.
    assert run(ws, "simulate-attention", "--query", ws / "keys.npy",
               "--cache", ws / "c.kvq", "--signs", ws / "s.sgnrom",
               "--codebook", ws / "cb.cbrom") == 8


def _quantize_with_sidecar(ws, sidecar_text):
    _build_pipeline(ws)
    (ws / "cb.cbrom.json").write_text(sidecar_text)
    return run(ws, "quantize", "--keys", ws / "keys.npy", "--signs",
               ws / "s.sgnrom", "--codebook", ws / "cb.cbrom",
               "--out", ws / "x.kvq")


def _diagnose_synthetic(ws, spec_text, command="diagnose-norms"):
    (ws / "bad.json").write_text(spec_text)
    return run(ws, command, "--synthetic", ws / "bad.json")


def _diagnose_keys(ws, name, content, *flags):
    (ws / name).write_bytes(content)
    return run(ws, "diagnose-norms", "--keys", ws / name, *flags)


def _huge_keys(ws, command, value):
    # Two keys whose entries are finite but whose sum of squares passes the
    # float64 range.
    keys = ws / "huge.npy"
    np.save(keys, np.full((2, D), value))
    if command == "quantize":
        _build_pipeline(ws)
        return run(ws, "quantize", "--keys", keys, "--signs", ws / "s.sgnrom",
                   "--codebook", ws / "cb.cbrom", "--out", ws / "x.kvq")
    if command == "optimize-signs":
        return run(ws, "optimize-signs", "--keys", ws / "cal0.npy", keys, "--b", 3,
                   "--candidates", 2, "--out", ws / "x.sgnrom")
    return run(ws, "diagnose-norms", "--keys", ws / "cal0.npy", keys)


def _norm_ratio_past_range(ws):
    # Two layers whose mean norms are finite but whose ratio overflows.
    np.save(ws / "big.npy", np.full((2, D), 1e150))
    np.save(ws / "tiny.npy", np.full((2, D), 1e-160))
    return run(ws, "diagnose-norms", "--keys", ws / "big.npy", ws / "tiny.npy",
               "--report", ws / "diag.json")


def _npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def _with_zero_layer_rom(ws, command):
    # A well-formed 8-byte header for d=128 whose record count is 0.
    _build_pipeline(ws)
    (ws / "none.sgnrom").write_bytes(struct.pack("<2sBBHH", b"SG", 1, 0, 128, 0))
    if command == "quantize":
        return run(ws, "quantize", "--keys", ws / "keys.npy", "--signs", ws / "none.sgnrom",
                   "--codebook", ws / "cb.cbrom", "--out", ws / "x.kvq")
    return run(ws, "simulate-attention", "--query", ws / "query.npy", "--cache", ws / "c.kvq",
               "--signs", ws / "none.sgnrom", "--codebook", ws / "cb.cbrom")


@pytest.mark.parametrize("invoke,code", [
    # --synthetic spec missing a required field, or with a bad value.
    (lambda ws: _diagnose_synthetic(ws, json.dumps({"d": 64})), 8),
    (lambda ws: _diagnose_synthetic(ws, json.dumps({"d": 64, "N": "many"})), 8),
    (lambda ws: _diagnose_synthetic(ws, json.dumps([64, 40])), 8),
    (lambda ws: _diagnose_synthetic(ws, '{"d": 64, "N": '), 4),
    # A direction gain whose square, which the generator takes, overflows.
    (lambda ws: _diagnose_synthetic(
        ws, json.dumps({"d": 64, "N": 4, "profiles": [{"direction_gain": 1e200}]})), 8),
    (lambda ws: _diagnose_synthetic(
        ws, json.dumps({"d": 64, "N": 4, "profiles": [{"direction_gain": 1e200}]}),
        "eval"), 8),
    # Key files that do not parse as numbers.
    (lambda ws: _diagnose_keys(ws, "bad.txt", b"1.0 2.0\n3.0 abc\n"), 4),
    (lambda ws: _diagnose_keys(ws, "bad.npy", b"not an npy file"), 4),
    # .npy key files whose dtype is not bool, integer or real floating.
    (lambda ws: _diagnose_keys(ws, "s.npy", _npy_bytes(np.full((2, 4), "1.0"))), 4),
    (lambda ws: _diagnose_keys(
        ws, "r.npy", _npy_bytes(np.zeros((2, 4), dtype=[("x", "f8"), ("y", "i4")]))), 4),
    (lambda ws: _diagnose_keys(ws, "c.npy", _npy_bytes(np.ones((2, 4), complex))), 4),
    # A key file with no values, and a layer whose keys all have zero norm.
    (lambda ws: _diagnose_keys(ws, "empty.txt", b""), 4),
    (lambda ws: _diagnose_keys(ws, "zeros.txt", b"0 0\n0 0\n"), 11),
    # Codebook sidecar that is not JSON, or that holds no integer d.
    (lambda ws: _quantize_with_sidecar(ws, '{"d": 128, "b"'), 4),
    (lambda ws: _quantize_with_sidecar(ws, json.dumps({"d": "128", "b": 3})), 8),
    (lambda ws: _quantize_with_sidecar(ws, json.dumps([128, 3])), 4),
    # A sign ROM that holds no layer.
    (lambda ws: _with_zero_layer_rom(ws, "quantize"), 4),
    (lambda ws: _with_zero_layer_rom(ws, "simulate-attention"), 4),
    # d past the sign ROM header's u16 field.
    (lambda ws: run(ws, "gen-signs", "--d", 65536, "--out", ws / "big.sgnrom"), 4),
    # A negative key count; an empty or negative score count and a
    # non-finite noise level for the Jensen probe.
    (lambda ws: run(ws, "bench-mults", "--d", 128, "--b", 3, "--T", -1), 8),
    (lambda ws: run(ws, "bench-mults", "--d", 96, "--b", 3, "--T", 4), 7),
    (lambda ws: run(ws, "eval", "--synthetic", ws / "synth.json", "--seeds", "1",
                    "--jensen-std", "0.1", "--jensen-scores", 0), 8),
    (lambda ws: run(ws, "eval", "--synthetic", ws / "synth.json", "--seeds", "1",
                    "--jensen-std", "0.1", "--jensen-scores", -1), 8),
    (lambda ws: run(ws, "eval", "--synthetic", ws / "synth.json", "--seeds", "1",
                    "--jensen-std", "nan"), 8),
    (lambda ws: run(ws, "eval", "--synthetic", ws / "synth.json", "--seeds", "1",
                    "--jensen-std", "inf"), 8),
    # A list flag with an item that is not a number of its kind.
    (lambda ws: run(ws, "eval", "--synthetic", ws / "synth.json", "--seeds", "1,x"), 8),
    (lambda ws: run(ws, "eval", "--synthetic", ws / "synth.json", "--seeds", "1",
                    "--b-list", "3,x"), 8),
    (lambda ws: run(ws, "eval", "--synthetic", ws / "synth.json", "--seeds", "1",
                    "--jensen-std", "0.1,x"), 8),
    # A synthetic spec with no layers, for each command that reads one.
    (lambda ws: _diagnose_synthetic(ws, json.dumps({"d": 64, "N": 4, "profiles": []})), 11),
    (lambda ws: _diagnose_synthetic(ws, json.dumps({"d": 64, "N": 4, "profiles": []}),
                                    "eval"), 11),
    # A raw key file read with a d below 1, which cannot shape its rows.
    (lambda ws: _diagnose_keys(ws, "raw16.bin", np.arange(16.0).astype("<f8").tobytes(),
                               "--d", 0), 7),
    (lambda ws: _diagnose_keys(ws, "raw16.bin", np.arange(16.0).astype("<f8").tobytes(),
                               "--d", -4), 7),
    # Key rows whose float64 norm overflows, for each command that takes one.
    (lambda ws: _huge_keys(ws, "quantize", 1e200), 8),
    (lambda ws: _huge_keys(ws, "quantize", 1e308), 8),
    (lambda ws: _huge_keys(ws, "optimize-signs", 1e200), 8),
    (lambda ws: _huge_keys(ws, "optimize-signs", 1e308), 8),
    (lambda ws: _huge_keys(ws, "diagnose-norms", 1e200), 8),
    (lambda ws: _huge_keys(ws, "diagnose-norms", 1e308), 8),
    # A synthetic spec past the 2^27-value draw cap, for each command that
    # reads one, and layers whose mean-norm ratio passes the float64 range.
    (lambda ws: _diagnose_synthetic(ws, json.dumps({"d": 64, "N": 10 ** 12})), 8),
    (lambda ws: _diagnose_synthetic(ws, json.dumps({"d": 64, "N": 10 ** 12}), "eval"), 8),
    (_norm_ratio_past_range, 8),
], ids=["synthetic-missing-N", "synthetic-bad-N", "synthetic-not-object",
        "synthetic-not-json", "direction-gain-square-overflow-diagnose",
        "direction-gain-square-overflow-eval", "txt-non-numeric", "npy-corrupt",
        "npy-strings", "npy-structured", "npy-complex",
        "txt-empty", "zero-norm-layer",
        "sidecar-not-json", "sidecar-string-d", "sidecar-not-object",
        "sign-rom-no-layers-quantize", "sign-rom-no-layers-simulate",
        "sign-rom-d-65536",
        "bench-mults-negative-T", "bench-mults-d-not-power-of-two",
        "jensen-no-scores", "jensen-negative-scores",
        "jensen-std-nan", "jensen-std-inf", "seeds-not-int", "b-list-not-int",
        "jensen-std-not-float", "diagnose-no-profiles", "eval-no-profiles",
        "raw-keys-d-zero", "raw-keys-d-negative",
        "norm-overflow-quantize-1e200", "norm-overflow-quantize-1e308",
        "norm-overflow-optimize-signs-1e200", "norm-overflow-optimize-signs-1e308",
        "norm-overflow-diagnose-norms-1e200", "norm-overflow-diagnose-norms-1e308",
        "synthetic-past-draw-cap-diagnose", "synthetic-past-draw-cap-eval",
        "norm-ratio-past-float64-range"])
def test_malformed_inputs_exit_without_traceback(workspace, capsys, invoke, code):
    assert invoke(workspace) == code
    assert capsys.readouterr().out.splitlines()[-1].startswith("error: ")


# Runs each argv through main in one interpreter, its address space capped
# at 2 GiB, and prints its exit code, its stdout and its wall time.
_TIMED_PROBE = """
import contextlib, io, json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import kvlut.cli
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = kvlut.cli.main(argv)
    print(json.dumps([code, out.getvalue(), time.perf_counter() - t0]))
"""


def _timed(argvs):
    # A missing check fails in the child (MemoryError, or the timeout)
    # instead of hanging the suite or filling the machine's memory.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _TIMED_PROBE,
                           json.dumps([[str(a) for a in argv] for argv in argvs])],
                          env=env, capture_output=True, text=True, check=True, timeout=60)
    return [json.loads(line) for line in done.stdout.splitlines()]


def _rejected_at_once(results):
    for code, out, seconds in results:
        assert code == 8 and out.startswith("error: ") and seconds < 1, (out, seconds)


def test_bench_mults_checks_sizes_before_drawing_keys():
    # d = 2^36 would build 2^36 signs, and T = 2^31 at d=128 a 256 GiB
    # cache: both are rejected first.  d = 65536, past the sign ROM header's
    # u16 but writing no ROM, still runs.
    results = _timed([["bench-mults", "--d", 2 ** 36, "--b", 3, "--T", 0],
                      ["bench-mults", "--d", 128, "--b", 3, "--T", 2 ** 31],
                      ["bench-mults", "--d", 65536, "--b", 3, "--T", 0]])
    _rejected_at_once(results[:2])
    code, out, _ = results[2]
    report = json.loads(out)
    assert code == 0
    assert (report["lookup_mults"], report["reference_mults"], report["ratio"]) == \
        (524288, 0, 0.0)


def test_eval_checks_the_jensen_arguments_before_any_work(workspace):
    # 10^12 trials would draw noise until killed; a count of 0 or a negative
    # noise level used to exit 8 only after the sweeps had run, and a noise
    # level whose oracle ratio overflows ended in a traceback after them.
    eval_ = ["eval", "--synthetic", workspace / "synth.json", "--seeds", 1]
    _rejected_at_once(_timed([
        [*eval_, "--jensen-std", 0.1, "--jensen-trials", 10 ** 12],
        [*eval_, "--jensen-std", 0.1, "--jensen-trials", 2 ** 21 + 1, "--jensen-scores", 64],
        [*eval_, "--jensen-std", 0.1, "--jensen-trials", 0],
        [*eval_, "--jensen-std", "0.1,-0.5"],
        # exp(std^2 / 2) past the float64 range: from std of about 37.7.
        [*eval_, "--jensen-std", 40],
        [*eval_, "--jensen-std", "0.1,32768"],
        [*eval_, "--jensen-std", 1e200]]))


def _seeded(ws, where, seed):
    # One command with its seed given as a flag or as the synthetic spec's field.
    spec = ws / f"seed{seed}.json"
    spec.write_text(json.dumps({"d": 16, "N": 8, "seed": seed if where == "spec" else 2}))
    report = ws / f"{where}{seed}.json"
    argv = ["eval", "--synthetic", spec, "--seeds", 1]
    if where == "eval":
        argv += ["--seed", seed, "--jensen-std", 0.1, "--jensen-trials", 1000]
    assert run(ws, *argv, "--report", report) == 0
    return report.read_bytes()


@pytest.mark.parametrize("where", ["eval", "spec"])
def test_seeds_are_read_modulo_2_to_the_64(workspace, where):
    # A negative seed names the 64-bit seed it is congruent to, as gen-signs
    # has always read it, instead of ending in numpy's ValueError.
    assert _seeded(workspace, where, -1) == _seeded(workspace, where, 2**64 - 1)
    assert _seeded(workspace, where, -2) != _seeded(workspace, where, -1)


def test_sign_rom_layer_is_checked_after_dimensions(workspace, capsys):
    _build_pipeline(workspace)
    ws = workspace
    quantize = ["quantize", "--keys", ws / "keys.npy", "--codebook", ws / "cb.cbrom"]
    assert run(ws, *quantize, "--signs", ws / "s.sgnrom", "--out", ws / "x.kvq",
               "--layer", 3) == 8
    assert capsys.readouterr().out.splitlines()[-1] == \
        "error: sign ROM holds layers 0..0, requested 3"
    # A dimension conflict is reported before the missing layer.
    np.save(ws / "keys64.npy", np.ones((3, 64)))
    assert run(ws, "quantize", "--keys", ws / "keys64.npy", "--codebook", ws / "cb.cbrom",
               "--signs", ws / "s.sgnrom", "--out", ws / "x.kvq", "--layer", 3) == 10
    # simulate-attention asks for the cache's layer.
    run(ws, "gen-signs", "--d", 128, "--layers", 2, "--out", ws / "s2.sgnrom")
    assert run(ws, *quantize, "--signs", ws / "s2.sgnrom", "--out", ws / "l1.kvq",
               "--layer", 1) == 0
    assert run(ws, "simulate-attention", "--query", ws / "query.npy", "--cache", ws / "l1.kvq",
               "--signs", ws / "s.sgnrom", "--codebook", ws / "cb.cbrom") == 8
    assert capsys.readouterr().out.splitlines()[-1] == \
        "error: sign ROM holds layers 0..0, requested 1"


def test_raw_key_and_query_files_take_d_from_the_artifacts(workspace):
    # Raw files are little-endian doubles with no header: a raw key file
    # takes d from the sign ROM, even beside a codebook with no sidecar, and
    # a raw query file from the cache, so each gives the .npy route's bytes.
    ws = workspace
    _build_pipeline(ws)
    bare = ws / "bare.cbrom"
    bare.write_bytes((ws / "cb.cbrom").read_bytes())
    for name in ("keys", "query"):
        (ws / f"{name}.bin").write_bytes(np.load(ws / f"{name}.npy").astype("<f8").tobytes())
    assert run(ws, "quantize", "--keys", ws / "keys.bin", "--signs", ws / "s.sgnrom",
               "--codebook", bare, "--out", ws / "x.kvq", "--report", ws / "x.json") == 0
    assert (ws / "x.kvq").read_bytes() == (ws / "c.kvq").read_bytes()
    assert (ws / "x.json").read_bytes() == (ws / "q.json").read_bytes()
    reports = []
    for query in ("query.npy", "query.bin"):
        assert run(ws, "simulate-attention", "--query", ws / query, "--cache", ws / "c.kvq",
                   "--signs", ws / "s.sgnrom", "--codebook", ws / "cb.cbrom",
                   "--reference", "--report", ws / "sim.json") == 0
        reports.append((ws / "sim.json").read_bytes())
    assert reports[0] == reports[1]


# Runs the artifact-producing subcommands in one interpreter, then prints
# every scipy module that got imported along the way.
_SCIPY_PROBE = """
import sys
import kvlut.cli
ws = sys.argv[1]
for argv in (
    ["solve-codebook", "--d", "128", "--b", "3", "--out", f"{ws}/cb.cbrom"],
    ["gen-signs", "--d", "128", "--out", f"{ws}/s.sgnrom"],
    ["quantize", "--keys", f"{ws}/keys.npy", "--signs", f"{ws}/s.sgnrom",
     "--codebook", f"{ws}/cb.cbrom", "--out", f"{ws}/c.kvq"],
    ["simulate-attention", "--query", f"{ws}/query.npy", "--cache", f"{ws}/c.kvq",
     "--signs", f"{ws}/s.sgnrom", "--codebook", f"{ws}/cb.cbrom", "--reference"],
    ["optimize-signs", "--keys", f"{ws}/cal0.npy", "--b", "3", "--candidates", "4",
     "--out", f"{ws}/o.sgnrom"],
):
    assert kvlut.cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_runtime_imports_no_scipy(workspace):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(workspace)],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_import_pulls_in_no_executor_or_logging():
    # concurrent.futures imports logging, about 10 ms on every CLI start;
    # sign selection runs its threads on plain threading instead.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = ("import sys, kvlut, kvlut.cli; print(sorted(m for m in sys.modules"
             " if m.split('.')[0] in ('concurrent', 'logging')))")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_report_json_is_stable(workspace):
    a, b = workspace / "a.json", workspace / "b.json"
    run(workspace, "solve-codebook", "--d", 64, "--b", 2, "--report", a)
    run(workspace, "solve-codebook", "--d", 64, "--b", 2, "--report", b)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.endswith("\n")
    json.loads(text)


@pytest.mark.parametrize("payload", [
    {"a": {"b": [1.5, 2.5], "c": {}, "e": {"f": [[1.0], [2.0, 3.0]]}}, "d": [], "z": 0},
    {"x": [-0.0, 5e-324, 1e16, 1e-05, 0.1, -2.5e-310, 1.7976931348623157e308]},
    {"x": [1.0, float("inf")], "y": [-float("inf"), 2.0], "z": [float("nan")],
     "ratio": float("inf")},
    {"x": [1, 2.0], "y": [np.float64(0.1), np.float64(-0.0)], "z": [1.0, np.float64(2.5)],
     "w": np.float64(1e16), "v": [True, 1.0]},
    {"t": True, "f": False, "n": None, "s": 'naïve "q" \\ \n\t ☃ \U0001d11e',
     "l": [True, None, "é"], "é": [0.5]},
    {"rows": [{"x": [1.0, 2.0]}, {}], "k": {2: [1.0], 1: [0.5]}, "m": {"x": [0.25]}},
], ids=["nested", "float-edges", "non-finite", "mixed-types", "scalars-and-strings",
        "lists-of-dicts-and-int-keys"])
def test_write_json_is_json_dumps_byte_for_byte(tmp_path, capsys, payload):
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    cli._write_json(str(tmp_path / "r.json"), payload)
    assert (tmp_path / "r.json").read_bytes() == expected.encode()
    cli._write_json(None, payload)
    assert capsys.readouterr().out == expected
