"""Golden digests of one CLI pipeline layer's artifacts.

kvlut's outputs are numbers that must repeat to the byte: a change that
moves one byte of the .kvq or of a report fails here, not only in the
benchmark's digests.  The layer runs at d=128, b=3 over T=300 keys, which
spans two row tiles (transform._row_tiles), with a zero key and keys of
norms from about 1e-2 to 1e4.  The digests were recorded from the tree
before the pipeline's kernels were tiled and the record codec became a
group shift-or.  The bench-mults and eval --synthetic reports, whose
quantizer calls once had a binary-search route beside the comparator bank,
were recorded from the tree that still held both routes.
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
        "653ad4b5d6e3c7630343f316426ddb54b54e274a3ad7e00393c6b5b947d86866",
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
        "e21a07ff2c0d0cffceeb1f45179930af371cf942ec299d20885278f95b15531a",
}


def test_bench_mults_and_eval_reports_match_golden_digests(tmp_path):
    (tmp_path / "synth.json").write_text(json.dumps(
        {"d": 128, "N": 300, "seed": 11,
         "profiles": [{"scale": 1.0}, {"scale": 40.0, "direction_gain": 6.0}]}))

    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    run("bench-mults", "--d", 128, "--b", 3, "--T", 300, "--seed", 5,
        "--report", tmp_path / "bench.json")
    run("eval", "--synthetic", tmp_path / "synth.json", "--b-list", "1,3,4",
        "--seeds", "1,2,3", "--jensen-std", "0,0.5", "--jensen-trials", 1000,
        "--report", tmp_path / "eval.json")

    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in REPORTS}
    assert got == REPORTS
