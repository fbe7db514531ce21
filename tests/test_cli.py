"""Subcommand behavior, artifact formats, and exit-code classes."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kvlut.cli import _build_parser, main
from kvlut.errors import ConfigConflictError
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
    # Key files that do not parse as numbers.
    (lambda ws: _diagnose_keys(ws, "bad.txt", b"1.0 2.0\n3.0 abc\n"), 4),
    (lambda ws: _diagnose_keys(ws, "bad.npy", b"not an npy file"), 4),
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
    # A solver tolerance that is not a finite number > 0.
    (lambda ws: run(ws, "solve-codebook", "--d", 128, "--b", 3, "--tol", 0), 8),
    (lambda ws: run(ws, "solve-codebook", "--d", 128, "--b", 3, "--tol", -1), 8),
    (lambda ws: run(ws, "solve-codebook", "--d", 128, "--b", 3, "--tol", "nan"), 8),
    (lambda ws: run(ws, "solve-codebook", "--d", 128, "--b", 3, "--tol", "inf"), 8),
    # d past the sign ROM header's u16 field.
    (lambda ws: run(ws, "gen-signs", "--d", 65536, "--out", ws / "big.sgnrom"), 4),
    # A negative key count, and an empty score vector for the Jensen probe.
    (lambda ws: run(ws, "bench-mults", "--d", 128, "--b", 3, "--T", -1), 8),
    (lambda ws: run(ws, "eval", "--synthetic", ws / "synth.json", "--seeds", "1",
                    "--jensen-std", "0.1", "--jensen-scores", 0), 8),
], ids=["synthetic-missing-N", "synthetic-bad-N", "synthetic-not-object",
        "synthetic-not-json", "txt-non-numeric", "npy-corrupt",
        "txt-empty", "zero-norm-layer",
        "sidecar-not-json", "sidecar-string-d", "sidecar-not-object",
        "sign-rom-no-layers-quantize", "sign-rom-no-layers-simulate",
        "tol-zero", "tol-negative", "tol-nan", "tol-inf", "sign-rom-d-65536",
        "bench-mults-negative-T", "jensen-no-scores"])
def test_malformed_inputs_exit_without_traceback(workspace, capsys, invoke, code):
    assert invoke(workspace) == code
    assert capsys.readouterr().out.splitlines()[-1].startswith("error: ")


def test_sign_rom_layer_is_checked_after_dimensions(workspace, capsys):
    _build_pipeline(workspace)
    ws = workspace
    quantize = ["quantize", "--keys", ws / "keys.npy", "--codebook", ws / "cb.cbrom"]
    assert run(ws, *quantize, "--signs", ws / "s.sgnrom", "--out", ws / "x.kvq",
               "--layer", 3) == 8
    assert capsys.readouterr().out.splitlines()[-1] == \
        "error: sign ROM holds layers 0..0, requested 3"
    # A dimension conflict is reported before the missing layer.
    assert run(ws, *quantize, "--signs", ws / "s.sgnrom", "--out", ws / "x.kvq",
               "--layer", 3, "--d", 64) == 10
    # simulate-attention asks for the cache's layer.
    run(ws, "gen-signs", "--d", 128, "--layers", 2, "--out", ws / "s2.sgnrom")
    assert run(ws, *quantize, "--signs", ws / "s2.sgnrom", "--out", ws / "l1.kvq",
               "--layer", 1) == 0
    assert run(ws, "simulate-attention", "--query", ws / "query.npy", "--cache", ws / "l1.kvq",
               "--signs", ws / "s.sgnrom", "--codebook", ws / "cb.cbrom") == 8
    assert capsys.readouterr().out.splitlines()[-1] == \
        "error: sign ROM holds layers 0..0, requested 1"


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


def test_report_json_is_stable(workspace):
    a, b = workspace / "a.json", workspace / "b.json"
    run(workspace, "solve-codebook", "--d", 64, "--b", 2, "--report", a)
    run(workspace, "solve-codebook", "--d", 64, "--b", 2, "--report", b)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.endswith("\n")
    json.loads(text)
