"""Conventional dequantize-and-dot scoring, kept as a test oracle only.

This is the path the lookup read path replaces: reconstruct each stored key
(inverse rotation, norm rescale) and take a dense dot product with the raw
query.  Production scoring must never import from here; the module exists so
equivalence and operation-count comparisons run against an independently
structured route.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .codebook import Codebook
from .errors import _finite_array
from .opcount import OpCounter
from .transform import RotationSpec, _row_tiles
from .write_path import QuantizedKey, _cache_rows, _dequantize_rows

__all__ = ["score_sequence_reference"]


def score_sequence_reference(q: np.ndarray, cache: Sequence[QuantizedKey],
                             spec: RotationSpec, cb: Codebook
                             ) -> tuple[np.ndarray, OpCounter]:
    """Score by reconstructing every key: T*d score multiplications.

    Per key the counter picks up the inverse transform's additions, the d
    reconstruction rescales (norm category), and a d-multiply dot product
    (score category); the score-category multiplication total is exactly T*d.
    Each key's dot product is its own q @ row, as with one key at a time; a
    matrix-vector product would sum in another order.  The stacked (1, d) @
    (d, 1) matmul below runs those same vector dot products (numpy's dot
    kernel, as 1-D q @ row does) in one call per row tile
    (transform._row_tiles): each tile is reconstructed, scored and written
    into the preallocated (T,) output, so no temporary outgrows a tile.
    """
    q = _finite_array(q, cb.d, (1,), "query")
    counter = OpCounter()
    cache = _cache_rows(cache, cb.d)
    t = len(cache)
    scores = np.empty(t)
    for rows in _row_tiles(t, cb.d):
        recon = _dequantize_rows(cache.indices[rows], cache.norms[rows], spec, cb, counter)
        scores[rows] = (recon[:, None, :] @ q[:, None])[:, 0, 0]
    counter.add("score", mults=t * cb.d, adds=t * (cb.d - 1))
    return scores, counter
