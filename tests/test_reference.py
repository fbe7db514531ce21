"""The row-batched dequantize-and-dot oracle against its per-key original,
and the package layout that keeps the oracle out of the datapath."""

import ast
from pathlib import Path

import numpy as np
import pytest

import kvlut.reference as reference
import kvlut.write_path as write_path
from kvlut.codebook import solve_codebook
from kvlut.opcount import OpCounter
from kvlut.reference import _dequantize_rows, dequantize_key, score_sequence_reference
from kvlut.transform import (_TILE_BYTES, RotationSpec, _row_tiles, inverse_rotate,
                             random_signs)
from kvlut.write_path import QuantizedKey, _cache_rows, quantize_batch

D, B = 128, 3
CB = solve_codebook(D, B)
SPEC = RotationSpec(d=D, sign=random_signs(D, 5))


def _per_key_reference(q, cache, spec, cb):
    # The oracle as it was before it was row-batched: one key at a time.
    counter = OpCounter()
    scores = np.empty(len(cache))
    for t, qk in enumerate(cache):
        counter.add("norm", mults=cb.d)
        rec = inverse_rotate(spec, cb.centroids[qk.indices], counter) * float(qk.norm)
        scores[t] = q @ rec
        counter.add("score", mults=cb.d, adds=cb.d - 1)
    return scores, counter


def _cache(T, seed):
    rng = np.random.default_rng(seed)
    idx, norms = quantize_batch(rng.normal(size=(T, D)) * 3.0, SPEC, CB)
    norms = norms.astype(np.float16)
    norms[0::5] = 0.0        # zero-norm keys
    norms[3::5] = np.inf     # keys whose half norm overflowed
    return [QuantizedKey(indices=i, norm=n) for i, n in zip(idx, norms)]


@pytest.mark.parametrize("T", [0, 1, 7, 1024])
def test_oracle_matches_per_key_loop(T):
    cache = _cache(T, seed=T)
    q = np.random.default_rng(100 + T).normal(size=D)
    with np.errstate(invalid="ignore"):
        got, got_ctr = score_sequence_reference(q, cache, SPEC, CB)
        want, want_ctr = _per_key_reference(q, cache, SPEC, CB)
    assert got.dtype == np.float64 and got.shape == (T,)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got_ctr.to_dict() == want_ctr.to_dict()
    assert got_ctr.mults_in("score") == T * D


@pytest.mark.parametrize("d", [2, 128, 1024])
def test_oracle_dot_products_match_per_key_loop_at_extreme_magnitudes(d, monkeypatch):
    # The oracle's one stacked matmul against one q @ row per key, on rows
    # and queries from 1e-300 to 1e300, so products also over- and underflow.
    # The mock returns the rows of the tile it is given: key t is stored
    # with norm t, which names its row.  At d=1024 the 64 keys span 2 tiles.
    rng = np.random.default_rng(d)
    T = 64
    recon = rng.normal(size=(T, d)) * 10.0 ** rng.integers(-300, 301, size=(T, 1))
    monkeypatch.setattr(reference, "_dequantize_rows",
                        lambda idx, norms, *args: recon[norms.astype(int)])
    cb = solve_codebook(d, 1)
    spec = RotationSpec(d=d, sign=random_signs(d, 1))
    cache = [QuantizedKey(indices=np.zeros(d, dtype=np.uint8), norm=np.float16(t))
             for t in range(T)]
    for scale in (1e-300, 1e-8, 1.0, 1e8, 1e300):
        # A strided query as well as a contiguous one.
        for q in (rng.normal(size=d) * scale, (rng.normal(size=2 * d) * scale)[::2]):
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                got, _ = score_sequence_reference(q, cache, spec, cb)
                want = np.array([q @ row for row in recon])
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_dequantize_key_is_a_row_of_the_block():
    cache = _cache(7, seed=3)
    rows = _cache_rows(cache, D)
    with np.errstate(invalid="ignore"):
        block = _dequantize_rows(rows.indices, rows.norms, SPEC, CB, None)
        for t, qk in enumerate(cache):
            row = dequantize_key(qk, SPEC, CB)
            np.testing.assert_array_equal(row.view(np.uint64), block[t].view(np.uint64))


def test_oracle_inverse_rotates_each_row_tile_once(monkeypatch):
    # A cache of 2 whole tiles and one more key: one inverse rotation per
    # row tile, whose row counts sum to T, and no per-key dequantize.
    shapes = []

    def counting(spec, y, counter=None):
        shapes.append(np.shape(y))
        return inverse_rotate(spec, y, counter)

    monkeypatch.setattr(reference, "inverse_rotate", counting)
    monkeypatch.setattr(reference, "dequantize_key", None)
    T = 2 * (_TILE_BYTES // (8 * D)) + 1
    with np.errstate(invalid="ignore"):
        score_sequence_reference(np.ones(D), _cache(T + 1, seed=1)[1:], SPEC, CB)
    assert shapes == [(tile.stop - tile.start, D) for tile in _row_tiles(T, 8 * D)]
    assert len(shapes) == 3 and sum(rows for rows, _ in shapes) == T


# The conventional decoder: inverse_rotate is defined in transform and only
# the oracle calls it; dequantize_key is defined in the oracle.
DECODER_NAMES = {"inverse_rotate", "dequantize_key"}


def _layout_faults(module, source):
    """How a src/kvlut module reaches the oracle where the layout forbids it.

    Only cli (for --reference) and the package root may import reference;
    only transform, reference and the package root may name the decoder,
    whether as a name, an attribute, an imported alias or an __all__ entry.
    """
    faults = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            targets = [base] + [f"{base}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        else:
            targets = []
        if (module not in ("cli", "__init__")
                and any("reference" in t.split(".") for t in targets)):
            faults.append(f"imports reference (line {node.lineno})")
        ident = (node.id if isinstance(node, ast.Name) else
                 node.attr if isinstance(node, ast.Attribute) else
                 node.name if isinstance(node, ast.alias) else
                 node.value if isinstance(node, ast.Constant) else None)
        if (module not in ("transform", "reference", "__init__")
                and isinstance(ident, str) and ident in DECODER_NAMES):
            faults.append(f"names {ident}")
    return faults


def test_only_the_oracle_dequantizes():
    paths = sorted(Path(reference.__file__).parent.glob("*.py"))
    assert {"write_path.py", "read_path.py", "reference.py"} <= {p.name for p in paths}
    for path in paths:
        assert _layout_faults(path.stem, path.read_text()) == [], path.name


@pytest.mark.parametrize("line", [
    "from .transform import RotationSpec, inverse_rotate",
    "from .reference import dequantize_key",
    "from . import reference",
    "import kvlut.reference as oracle",
    "__all__ = ['dequantize_key']",
    "y = transform.inverse_rotate(spec, x)",
])
def test_layout_check_catches_the_decoder_back_in_the_write_path(line):
    path = Path(write_path.__file__)
    assert _layout_faults("write_path", path.read_text() + "\n" + line + "\n")
