"""Mutation probe for the rule and bit-identity tests.

Each row of MUTANTS seeds one one-line change into a fresh copy of src/ and
tests/, with pyproject.toml for pytest's settings, and runs `pytest -x -q`
on the row's owning test files.  A mutant is "killed" when a test fails,
and the probe prints the first failing test id; otherwise it "survived",
and its README contract has no test that reads the rule.  A survivor is
either an equivalent mutant (say why in its row) or a missing test.

The probe is stdlib only and is not part of the test suite.  Run it from
any directory on a tree whose tests pass, with pytest, hypothesis, scipy
and numpy importable:

    python3 tools/mutants.py              # every row
    python3 tools/mutants.py tie-rule     # the rows named

It exits 1 when a change does not apply, a mutant survives, or pytest
ends other than by passing or failing (an "error" row).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A killed mutant's tests take seconds; a mutant that hangs its tests ends here.
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    """old must occur exactly once in path; old and new differ in one line,
    and any other lines of old are context that makes the match unique."""

    name: str
    path: str
    old: str
    new: str
    contract: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("round-half", "src/kvlut/read_path.py",
           "    t += 0xFFF\n", "    t += 0x1000\n",
           "fp16 rounds to nearest even", ("tests/test_read_path.py",)),
    Mutant("tie-upper-cell", "src/kvlut/write_path.py",
           "np.greater_equal(y, t, out=mask)", "np.greater(y, t, out=mask)",
           "a tie goes to the upper cell", ("tests/test_write_path.py",)),
    Mutant("fold-gate", "src/kvlut/read_path.py",
           "and n >= max(rows, 4 ** (b + 1)))", "and n > max(rows, 4 ** (b + 1)))",
           "the fold gate (read_path._folds)", ("tests/test_read_path.py",)),
    Mutant("nan-norm", "src/kvlut/write_path.py",
           "bad = half[~(half >= 0)]", "bad = half[half < 0]",
           "a NaN norm is rejected", ("tests/test_write_path.py", "tests/test_kvcache.py")),
    Mutant("rom-interleave", "src/kvlut/codebook.py",
           "np.any(boundaries <= centroids[:-1])", "np.any(boundaries < centroids[:-1])",
           "ROM values interleave strictly", ("tests/test_codebook.py",)),
    Mutant("tie-rule", "src/kvlut/signopt.py",
           "    pick = int(np.argmin(mses))\n",
           "    pick = len(mses) - 1 - int(np.argmin(mses[::-1]))\n",
           "equal MSEs go to the lowest seed", ("tests/test_signopt.py",)),
    Mutant("index-rule", "src/kvlut/write_path.py",
           "idx.max() >= (1 << b)", "idx.max() > (1 << b)",
           "an index at or past 2^b is CorruptCacheError",
           ("tests/test_write_path.py", "tests/test_read_path.py")),
    Mutant("kvq-version", "src/kvlut/write_path.py",
           "    if version != _KVQ_VERSION:\n", "    if version > _KVQ_VERSION:\n",
           "a .kvq header holds version 1", ("tests/test_write_path.py",)),
    Mutant("sign-rom-length", "src/kvlut/transform.py",
           '    if len(data) != expected:\n        raise FormatError(\n            f"sign ROM for',
           '    if len(data) < expected:\n        raise FormatError(\n            f"sign ROM for',
           "a .sgnrom image is exactly its header's length", ("tests/test_transform.py",)),
    Mutant("float64-kind", "src/kvlut/errors.py",
           'if not (kind in "biuf" or', 'if not (kind in "biufcU" or',
           "float64 doors take only real numbers", ("tests/test_validation.py",)),
    Mutant("float64-object", "src/kvlut/errors.py",
           "all(isinstance(v, Real) for v in raw.flat)",
           "all(isinstance(v, (Real, str)) for v in raw.flat)",
           "float64 doors take only real numbers", ("tests/test_validation.py",)),
)


def _mutated(m: Mutant, text: str) -> str:
    count = text.count(m.old)
    changed = [(a, b) for a, b in zip(m.old.split("\n"), m.new.split("\n")) if a != b]
    if count != 1 or len(changed) != 1 or m.old.count("\n") != m.new.count("\n"):
        raise ValueError(f"{m.name}: the change must be one line matching exactly once in "
                         f"{m.path} (matched {count} times)")
    return text.replace(m.old, m.new)


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return "(no test id: see pytest's output)"


def run(m: Mutant) -> tuple[str, str, float]:
    """(verdict, first failing test id or a note, seconds) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="kvlut-mutant-") as tmp:
        work = Path(tmp)
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, work / sub,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", work)
        target = work / m.path
        target.write_text(_mutated(m, target.read_text()))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *m.tests], cwd=work, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", f"(timed out after {TIMEOUT_S} s)", time.perf_counter() - start
        seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "survived", "", seconds
    if proc.returncode != 1:  # an interrupted run, an internal error or no tests collected
        return "error", f"(pytest exited {proc.returncode})", seconds
    return "killed", _first_failure(proc.stdout), seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="rows to run (default: every row)")
    args = parser.parse_args(argv)
    rows = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in rows]
    if unknown:
        parser.error(f"unknown mutants {unknown}; rows are {sorted(rows)}")
    chosen = [rows[n] for n in args.names] if args.names else list(MUTANTS)
    try:  # every change applies to the tree as it is, before any run
        for m in chosen:
            _mutated(m, (ROOT / m.path).read_text())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = 0
    for m in chosen:
        verdict, test_id, seconds = run(m)
        failed += verdict != "killed"
        print(f"{m.name:16} {verdict:8} {seconds:6.1f} s  {m.contract}"
              + (f"  [{test_id}]" if test_id else ""), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
