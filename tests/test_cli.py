"""Subcommand behavior, artifact formats, and exit-code classes."""

import json

import numpy as np
import pytest

from kvlut.cli import main
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


def test_simulate_fp16_mode(workspace):
    _build_pipeline(workspace)
    sim = workspace / "sim16.json"
    assert run(workspace, "simulate-attention", "--query", workspace / "query.npy",
               "--cache", workspace / "c.kvq", "--signs", workspace / "s.sgnrom",
               "--codebook", workspace / "cb.cbrom", "--mode", "fp16",
               "--report", sim) == 0
    payload = json.loads(sim.read_text())
    assert payload["mode"] == "fp16"
    assert payload["saturated"] == 0


def test_quantize_empty_keys(workspace):
    _build_pipeline(workspace)
    out = workspace / "empty.kvq"
    assert run(workspace, "quantize", "--keys", workspace / "empty.npy",
               "--signs", workspace / "s.sgnrom",
               "--codebook", workspace / "cb.cbrom", "--out", out) == 0
    assert out.stat().st_size == 18
    keys, d, b, _ = read_kvq(out)
    assert keys == [] and (d, b) == (128, 3)


def test_bench_mults_report(workspace):
    report = workspace / "bench.json"
    assert run(workspace, "bench-mults", "--d", 128, "--b", 3, "--T", 4096,
               "--report", report) == 0
    payload = json.loads(report.read_text())
    assert payload["lookup_mults"] == 5120
    assert payload["reference_mults"] == 524288
    assert payload["ratio"] == 102.4


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
    # Flag conflicting with artifact dimensions.
    assert run(ws, "quantize", "--keys", ws / "keys.npy", "--signs",
               ws / "s.sgnrom", "--codebook", ws / "cb.cbrom", "--d", 64,
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


def _diagnose_synthetic(ws, spec_text):
    (ws / "bad.json").write_text(spec_text)
    return run(ws, "diagnose-norms", "--synthetic", ws / "bad.json")


def _diagnose_keys(ws, name, content):
    (ws / name).write_bytes(content)
    return run(ws, "diagnose-norms", "--keys", ws / name)


@pytest.mark.parametrize("invoke,code", [
    # --synthetic spec missing a required field, or with a bad value.
    (lambda ws: _diagnose_synthetic(ws, json.dumps({"d": 64})), 8),
    (lambda ws: _diagnose_synthetic(ws, json.dumps({"d": 64, "N": "many"})), 8),
    (lambda ws: _diagnose_synthetic(ws, json.dumps([64, 40])), 8),
    (lambda ws: _diagnose_synthetic(ws, '{"d": 64, "N": '), 4),
    # Key files that do not parse as numbers.
    (lambda ws: _diagnose_keys(ws, "bad.txt", b"1.0 2.0\n3.0 abc\n"), 4),
    (lambda ws: _diagnose_keys(ws, "bad.npy", b"not an npy file"), 4),
    # Codebook sidecar that is not JSON, or that holds no integer d.
    (lambda ws: _quantize_with_sidecar(ws, '{"d": 128, "b"'), 4),
    (lambda ws: _quantize_with_sidecar(ws, json.dumps({"d": "128", "b": 3})), 8),
    (lambda ws: _quantize_with_sidecar(ws, json.dumps([128, 3])), 4),
], ids=["synthetic-missing-N", "synthetic-bad-N", "synthetic-not-object",
        "synthetic-not-json", "txt-non-numeric", "npy-corrupt",
        "sidecar-not-json", "sidecar-string-d", "sidecar-not-object"])
def test_malformed_inputs_exit_without_traceback(workspace, capsys, invoke, code):
    assert invoke(workspace) == code
    assert capsys.readouterr().out.splitlines()[-1].startswith("error: ")


def test_codebook_without_sidecar_needs_d(workspace):
    _build_pipeline(workspace)
    bare = workspace / "bare.cbrom"
    bare.write_bytes((workspace / "cb.cbrom").read_bytes())
    # Underdetermined: quantizing raw bytes with no d anywhere.
    raw = workspace / "k.bin"
    raw.write_bytes(np.load(workspace / "keys.npy").astype("<f8").tobytes())
    assert run(workspace, "quantize", "--keys", raw, "--signs",
               workspace / "s.sgnrom", "--codebook", bare,
               "--out", workspace / "x.kvq", "--d", 128) == 0
    # Raw files are little-endian doubles: the same cache as from the .npy.
    assert (workspace / "x.kvq").read_bytes() == (workspace / "c.kvq").read_bytes()
    assert run(workspace, "quantize", "--keys", raw, "--signs",
               workspace / "s.sgnrom", "--codebook", bare,
               "--out", workspace / "x.kvq") == 4


def test_report_json_is_stable(workspace):
    a, b = workspace / "a.json", workspace / "b.json"
    run(workspace, "solve-codebook", "--d", 64, "--b", 2, "--report", a)
    run(workspace, "solve-codebook", "--d", 64, "--b", 2, "--report", b)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.endswith("\n")
    json.loads(text)
