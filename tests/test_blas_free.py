"""No BLAS or LAPACK call in src/kvlut, and the same artifacts under every
OpenBLAS kernel.

numpy's BLAS and LAPACK may pick their kernels by CPU at start-up, so a
matrix product, a 1-D norm or a linear solve can give other bits on another
x86 CPU.  So every reported number rests on numpy's elementwise ufuncs and
reductions alone: an ast scan fails on any BLAS or LAPACK call in
src/kvlut, and there is no allow-list.  An axis-wise np.linalg.norm is a
numpy reduction, not BLAS, and is not counted.  A subprocess test then runs
the CLI under three OpenBLAS kernels and compares every file it writes.
"""

import ast
import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import kvlut
import kvlut.read_path as read_path

# (module, innermost function, call) -> count: no call is exempt.
ALLOWED = Counter()

# numpy functions that call BLAS whatever their arguments' shapes.
BLAS_FUNCTIONS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def _dotted(node):
    # "np.linalg.norm" for the expression np.linalg.norm, else None.
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _kind(node):
    # The BLAS or LAPACK call node makes, or None.
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Call):
        name = _dotted(node.func) or ""
        head, _, tail = name.partition(".")
        if head in ("np", "numpy") and tail.startswith("linalg."):
            axis_norm = tail == "linalg.norm" and any(k.arg == "axis" for k in node.keywords)
            return None if axis_norm else name
        if head in ("np", "numpy") and tail in BLAS_FUNCTIONS:
            return name
        if isinstance(node.func, ast.Attribute) and node.func.attr == "dot":
            return ".dot"
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
        names = {a.name for a in node.names}
        if node.module == "numpy.linalg" or names & (BLAS_FUNCTIONS | {"linalg"}):
            return f"from {node.module} import"
    if isinstance(node, ast.Import) and any(a.name == "numpy.linalg" for a in node.names):
        return "import numpy.linalg"
    return None


def _blas_calls(module, source):
    """(module, innermost function, call) counts for each BLAS or LAPACK use."""
    found = Counter()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        kind = _kind(node)
        if kind is not None:
            found[(module, func, kind)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return found


def test_src_makes_only_the_allowed_blas_and_lapack_calls():
    found = Counter()
    for path in sorted(Path(kvlut.__file__).parent.glob("*.py")):
        found += _blas_calls(path.stem, path.read_text())
    assert found == ALLOWED


@pytest.mark.parametrize("line", [
    "x = a @ b",
    "a @= b",
    "x = np.dot(a, b)",
    "x = np.matmul(a, b)",
    "x = np.einsum('i,i', a, b)",
    "x = numpy.inner(a, b)",
    "x = np.linalg.norm(v)",
    "x = np.linalg.norm(v, ord=2)",
    "x = np.linalg.qr(a)",
    "x = a.dot(b)",
    "from numpy.linalg import solve",
    "from numpy import einsum",
    "import numpy.linalg",
])
def test_blas_scan_catches_a_call_added_to_the_read_path(line):
    source = Path(read_path.__file__).read_text() + "\n" + line + "\n"
    assert sum(_blas_calls("read_path", source).values()) == 1, line


def test_blas_scan_passes_an_axis_wise_norm():
    source = "def f(v):\n    return np.linalg.norm(v, axis=1)\n"
    assert _blas_calls("read_path", source) == Counter()


# Runs in a child process: the golden pipeline layer (tests/test_golden.py)
# and every other report-writing command, in process through kvlut.cli.main,
# into the directory argv[1].  Prints the hash of one BLAS dot product whose
# summation order depends on the kernel, the control that the kernel changed.
_KERNEL_RUN = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
import numpy as np
from kvlut.cli import main

out = Path(sys.argv[1])
rng = np.random.default_rng(20260418)
keys = rng.normal(size=(300, 128)) * 10.0 ** rng.uniform(-3, 3, size=(300, 1))
keys[17] = 0.0
np.save(out / "keys.npy", keys)
np.save(out / "query.npy", rng.normal(size=(1, 128)))
(out / "synth.json").write_text(json.dumps(
    {"d": 128, "N": 300, "seed": 11,
     "profiles": [{"scale": 1.0}, {"scale": 40.0, "direction_gain": 6.0}]}))
roms = ["--signs", out / "s.sgnrom", "--codebook", out / "cb.cbrom"]
sim = ["simulate-attention", "--query", out / "query.npy", "--cache", out / "c.kvq", *roms]
for argv in [
        ["solve-codebook", "--d", 128, "--b", 8, "--out", out / "cb8.cbrom",
         "--report", out / "cb8.json"],
        ["solve-codebook", "--d", 128, "--b", 3, "--out", out / "cb.cbrom",
         "--report", out / "cb.json"],
        ["gen-signs", "--d", 128, "--seeds", 7, "--out", out / "s.sgnrom",
         "--report", out / "signs.json"],
        ["quantize", "--keys", out / "keys.npy", *roms, "--out", out / "c.kvq",
         "--report", out / "q.json"],
        [*sim, "--reference", "--report", out / "ref.json"],
        [*sim, "--mode", "fp16", "--report", out / "fp16.json"],
        ["optimize-signs", "--keys", out / "keys.npy", "--b", 3, "--candidates", 8,
         "--out", out / "opt.sgnrom", "--report", out / "opt.json"],
        ["eval", "--synthetic", out / "synth.json", "--b-list", "1,3,4", "--seeds", "1,2,3",
         "--jensen-std", "0,0.5", "--jensen-trials", 1000, "--report", out / "eval.json"],
        ["bench-mults", "--d", 128, "--b", 3, "--T", 300, "--seed", 5,
         "--report", out / "bench.json"],
        ["diagnose-norms", "--synthetic", out / "synth.json", "--report", out / "diag.json"]]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == 0, argv
x = np.random.default_rng(1).normal(size=(2, 1000)) * 10.0 ** (np.arange(1000) % 17)
print(hashlib.sha256(np.dot(x[0], x[1]).tobytes()).hexdigest())
"""


def _blas_config():
    # numpy's description of the BLAS it links, or "" where numpy gives none.
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        return ""


def test_artifacts_are_byte_identical_under_every_openblas_kernel(tmp_path):
    if "DYNAMIC_ARCH" not in _blas_config():
        pytest.skip("numpy's BLAS is not OpenBLAS built with DYNAMIC_ARCH")
    cpuinfo = Path("/proc/cpuinfo")
    if not (cpuinfo.exists() and "avx2" in cpuinfo.read_text()):
        pytest.skip("the CPU lacks AVX2, so the Haswell kernel cannot run")
    src = Path(kvlut.__file__).resolve().parent.parent
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    runs = {}
    for kernel in ("default", "Haswell", "Nehalem"):
        env = {**base, "PYTHONPATH": str(src)}
        if kernel != "default":
            env["OPENBLAS_CORETYPE"] = kernel
        out = tmp_path / kernel
        out.mkdir()
        done = subprocess.run([sys.executable, "-c", _KERNEL_RUN, str(out)], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        runs[kernel] = (done.stdout.split()[-1],
                        {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in out.iterdir()})
    if len({probe for probe, _ in runs.values()}) == 1:
        pytest.skip("kernel not switched: the BLAS dot probe gave one hash")
    files = runs["default"][1]
    assert len(files) == 20
    for kernel, (_, got) in runs.items():
        assert got.keys() == files.keys()
        assert [name for name in sorted(files) if got[name] != files[name]] == [], kernel
