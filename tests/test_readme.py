"""README's blocks and tables against the code they describe."""

import argparse
import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np

import kvlut.errors as errors
from kvlut.cli import _build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ```lang block after the README heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_block("Library quick start", "python"), "README.md", "exec"), {})
    assert out.getvalue() == "5120\n"


def _subclasses(cls):
    return [cls] + [c for sub in cls.__subclasses__() for c in _subclasses(sub)]


def test_readme_exit_codes_are_the_codes_main_returns():
    # main returns 0, argparse exits 2, and every KvlutError subclass
    # (KvlutError itself included) names its own code.
    table = README.split("\nExit codes:", 1)[1].split("\n\n", 1)[0]
    listed = [int(code) for code in re.findall(r"`(\d+)`", table)]
    assert len(listed) == len(set(listed))
    want = {0, 2} | {cls.exit_code for cls in _subclasses(errors.KvlutError)}
    assert set(listed) == want


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _cli_quick_start() -> list[list[str]]:
    commands = _block("CLI quick start", "sh").replace("\\\n", " ").splitlines()
    assert commands
    return [shlex.split(line) for line in commands]


def test_readme_cli_quick_start_names_only_real_subcommands_and_flags():
    subparsers = _subparsers(_build_parser())
    for prog, sub, *rest in _cli_quick_start():
        assert prog == "kvlut" and sub in subparsers, sub
        known = subparsers[sub]._option_string_actions
        for flag in (w for w in rest if w.startswith("--")):
            assert flag in known, (sub, flag)


def test_readme_cli_quick_start_runs(tmp_path, monkeypatch):
    # The block's inputs, small: every command must exit 0 on them, in order.
    rng = np.random.default_rng(0)
    for name, rows in (("keys", 64), ("q", 1), ("layer0", 32), ("layer1", 32)):
        np.save(tmp_path / f"{name}.npy", rng.normal(size=(rows, 128)) * (1 + rows % 5))
    (tmp_path / "ensemble.json").write_text(json.dumps(
        {"d": 64, "N": 32, "seed": 1, "profiles": [{"scale": 1.0}, {"scale": 4.0}]}))
    monkeypatch.chdir(tmp_path)
    for _, *argv in _cli_quick_start():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
