"""Conventional dequantize-and-dot scoring, kept as a test oracle only.

This is the path the lookup read path replaces: reconstruct each stored key
(inverse rotation, norm rescale) and take a dense dot product with the raw
query.  The conventional decoder, dequantize_key, lives here and nowhere
else.  Production code must never import from here (only the CLI's
--reference and the package root do); the module exists so equivalence and
operation-count comparisons run against an independently structured route.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .codebook import Codebook
from .errors import _check_same_d, _finite_array
from .opcount import OpCounter
from .transform import RotationSpec, _row_tiles, inverse_rotate
from .write_path import QuantizedKey, _cache_rows, _check_indices

# The package root exports the decoder; the oracle scorer stays importable
# from here only.
__all__ = ["dequantize_key"]


def dequantize_key(qk: QuantizedKey, spec: RotationSpec, cb: Codebook,
                   counter: OpCounter | None = None) -> np.ndarray:
    """Reference reconstruction: inverse-rotate the centroids, rescale by norm.

    The read path never runs this; it exists as the conventional-decoder
    oracle that table lookups are checked against.  The counter charges the
    inverse transform's additions and the d norm-scaling multiplies.
    """
    cache = _cache_rows([qk], cb.d)
    return _dequantize_rows(cache.indices, cache.norms, spec, cb, counter)[0]


def _dequantize_rows(idx: np.ndarray, norms: np.ndarray, spec: RotationSpec,
                     cb: Codebook, counter: OpCounter | None) -> np.ndarray:
    """dequantize_key, bit for bit, over (T, d) rows with one inverse rotation.

    An index past 2^b raises CorruptCacheError (write_path._check_indices).
    """
    _check_same_d(("codebook", cb.d), ("rotation", spec.d))
    _check_indices(idx, cb.b)
    if counter is not None:
        counter.add("norm", mults=idx.shape[0] * cb.d)
    recon = inverse_rotate(spec, cb.centroids[idx], counter)
    recon *= norms.astype(np.float64)[:, None]
    return recon


def score_sequence_reference(q: np.ndarray, cache: Sequence[QuantizedKey],
                             spec: RotationSpec, cb: Codebook
                             ) -> tuple[np.ndarray, OpCounter]:
    """Score by reconstructing every key: T*d score multiplications.

    Per key the counter picks up the inverse transform's additions, the d
    reconstruction rescales (norm category), and a d-multiply dot product
    (score category); the score-category multiplication total is exactly T*d.
    Each key's dot product is the elementwise product row * q summed by
    numpy's own reduction, never a BLAS dot, whose kernel numpy may pick by
    CPU, so the scores are the same bits on every CPU.  One call per row tile
    (transform._row_tiles) reconstructs, multiplies in place and sums each
    row into the preallocated (T,) output, so no temporary outgrows a tile.
    """
    q = _finite_array(q, cb.d, (1,), "query")
    counter = OpCounter()
    cache = _cache_rows(cache, cb.d)
    t = len(cache)
    scores = np.empty(t)
    # A +inf norm (an overflowed key) scores inf or NaN silently, as on the read path.
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_tiles(t, 8 * cb.d):
            recon = _dequantize_rows(cache.indices[rows], cache.norms[rows], spec, cb, counter)
            scores[rows] = np.multiply(recon, q, out=recon).sum(axis=1)
    counter.add("score", mults=t * cb.d, adds=t * (cb.d - 1))
    return scores, counter
