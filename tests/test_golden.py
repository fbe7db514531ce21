"""Golden digests of one CLI pipeline layer's artifacts.

kvlut's outputs are numbers that must repeat to the byte: a change that
moves one byte of the .kvq or of a report fails here, not only in the
benchmark's digests.  The layer runs at d=128, b=3 over T=300 keys, which
spans two row tiles (transform._row_tiles), with a zero key and keys of
norms from about 1e-2 to 1e4.  The digests were recorded from the tree
before the pipeline's kernels were tiled and the record codec became a
group shift-or.  The bench-mults and eval --synthetic reports, whose
quantizer calls once had a binary-search route beside the comparator bank,
were recorded from the tree that still held both routes.  ref.json and
eval.json were recorded again when the oracle's dot products and the
codebook's Newton step stopped calling BLAS and LAPACK: the reference
scores and the solved centroids moved in their last bits.  BENCH_REPORTS
were recorded from the tree whose bench-mults still drew and quantized
random keys; it now scores a zero cache, and its tallies must not notice.
"""

import hashlib
import json

import numpy as np

from kvlut.cli import main

GOLDEN = {
    "c.kvq":
        "46ce7382aa01b82ef9b072bcff83709de7a92ffe4033df5d5de157332d9d9fda",
    "q.json":
        "7081ec243faf3672191c710d3f386452b325ba91f171502ed993cfcf01e47ced",
    "ref.json":
        "051366174e7e5cd0acec2b141b302e5c68096d7b9f6fa8e4eca655f7d86f5870",
    "fp16.json":
        "c502123d74cbb39d77c7132851a925e281eb338dbb24218f90077a2b00ff2892",
}


def test_pipeline_layer_artifacts_match_golden_digests(tmp_path):
    rng = np.random.default_rng(20260418)
    keys = rng.normal(size=(300, 128)) * 10.0 ** rng.uniform(-3, 3, size=(300, 1))
    keys[17] = 0.0
    np.save(tmp_path / "keys.npy", keys)
    np.save(tmp_path / "query.npy", rng.normal(size=(1, 128)))

    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    roms = ["--signs", tmp_path / "s.sgnrom", "--codebook", tmp_path / "cb.cbrom"]
    sim = ["simulate-attention", "--query", tmp_path / "query.npy",
           "--cache", tmp_path / "c.kvq", *roms]
    run("solve-codebook", "--d", 128, "--b", 3, "--out", tmp_path / "cb.cbrom")
    run("gen-signs", "--d", 128, "--seeds", 7, "--out", tmp_path / "s.sgnrom")
    run("quantize", "--keys", tmp_path / "keys.npy", *roms,
        "--out", tmp_path / "c.kvq", "--report", tmp_path / "q.json")
    run(*sim, "--reference", "--report", tmp_path / "ref.json")
    run(*sim, "--mode", "fp16", "--report", tmp_path / "fp16.json")

    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN}
    assert got == GOLDEN


REPORTS = {
    "bench.json":
        "64c52c65abe03041a99917bb0939180fb5bd0e9be841afa086a6a3c7a7ff3f4b",
    "eval.json":
        "eb37901b0c14c93eec2b2584244a9ffc2d2c3489708bc886c02bf33dedf176c8",
}


def test_bench_mults_and_eval_reports_match_golden_digests(tmp_path):
    (tmp_path / "synth.json").write_text(json.dumps(
        {"d": 128, "N": 300, "seed": 11,
         "profiles": [{"scale": 1.0}, {"scale": 40.0, "direction_gain": 6.0}]}))

    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    run("bench-mults", "--d", 128, "--b", 3, "--T", 300, "--report", tmp_path / "bench.json")
    run("eval", "--synthetic", tmp_path / "synth.json", "--b-list", "1,3,4",
        "--seeds", "1,2,3", "--jensen-std", "0,0.5", "--jensen-trials", 1000,
        "--report", tmp_path / "eval.json")

    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in REPORTS}
    assert got == REPORTS


# bench-mults' report at (d, b, T), from d=2 to 1024, b=1 to 8 and T=0 up.
BENCH_REPORTS = {
    (128, 3, 4096):
        "4de0a0f3cad1e25ef45db2a1de7dbece04e14c07c6f959f86b72bea6c4bfa2c7",
    (128, 3, 300):
        "64c52c65abe03041a99917bb0939180fb5bd0e9be841afa086a6a3c7a7ff3f4b",
    (2, 1, 5):
        "6a42c5f2cf2e5850cbdce849ffb10393c3e3acad92b2d4debf6a7c42d379cf7a",
    (2, 3, 0):
        "f569ceb95879cb7b075e9df5e840688a0cf5652893814fc3115953b984603b33",
    (128, 3, 0):
        "ee042909c728f14af1518d0275865cd7eb9522a75aa1ca0c027e77382ac4f35f",
    (64, 5, 1000):
        "a8f45d5083ee220f2d2404563dc820413d21c0c05cd8e8c1bc63d3ae983aa99f",
    (256, 8, 777):
        "37bbc8ed874496943b21f5623080bed9b1cf916ff3e0abdf6f64584eedf29a0e",
    (16, 4, 1):
        "28e466784e0a829e9a610e17b0f7a1ca518370f100cfe1caa5d5ac5d19dd3b92",
    (1024, 2, 513):
        "f3bc491f319c6f4c90a523ede4d312b676db631d96b302fb0242d369a6aed1d2",
}


def test_bench_mults_reports_match_golden_digests(tmp_path):
    report = tmp_path / "bench.json"
    got = {}
    for d, b, T in BENCH_REPORTS:
        assert main(["bench-mults", "--d", str(d), "--b", str(b), "--T", str(T),
                     "--report", str(report)]) == 0
        got[d, b, T] = hashlib.sha256(report.read_bytes()).hexdigest()
    assert got == BENCH_REPORTS
