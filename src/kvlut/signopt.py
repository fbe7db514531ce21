"""Gradient-free sign-pattern selection from calibration keys.

Per layer, C candidate sign vectors are drawn from documented seeds and each
is scored by the rotated-domain quantization error it induces on row-
normalized calibration keys; the argmin candidate wins.  No gradients, no
learned rotations: the search space is just the seed, which is why a selected
pattern costs 16 bytes of ROM per layer.  The per-candidate MSE spread is
itself a diagnostic: near-isotropic key statistics make all candidates look
alike, while a dominant coordinate direction separates them.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, solve_codebook
from .errors import (EmptyCalibrationError, InvalidDimensionError, InvalidInputError,
                     _check_same_d, _finite_array, _layer_items, _read_only)
from .transform import (SignVector, _rotate_block, pack_sign_rom, random_signs,
                        serialize_signs)
from .write_path import _cell_indices, _key_norms

__all__ = [
    "CalibrationSet",
    "SignSearchReport",
    "NormDiagnostic",
    "candidate_mse",
    "select_signs",
    "select_signs_all_layers",
    "norm_ratio_diagnostic",
    "RECOMMEND_SAFE",
    "RECOMMEND_OPTIMIZE",
    "RECOMMEND_INDETERMINATE",
]

RECOMMEND_SAFE = "calibration-free safe"
RECOMMEND_OPTIMIZE = "optimization recommended"
RECOMMEND_INDETERMINATE = "indeterminate - validate per-model"


@dataclass(frozen=True)
class CalibrationSet:
    """Raw (unnormalized) key rows harvested for one layer."""

    keys: np.ndarray
    layer_id: int = 0

    def __post_init__(self) -> None:
        keys = _finite_array(np.atleast_2d(self.keys), None, what="calibration keys")
        if keys.shape[0] < 1:
            raise InvalidDimensionError(f"calibration keys hold no rows: {keys.shape}")
        object.__setattr__(self, "keys", _read_only(keys))

    @property
    def d(self) -> int:
        return self.keys.shape[1]


@dataclass(frozen=True)
class SignSearchReport:
    """Outcome of one per-layer candidate search."""

    candidate_count: int
    base_seed: int
    mses: np.ndarray
    selected_seed: int
    selected: SignVector
    dropped_rows: int

    @property
    def best_mse(self) -> float:
        return float(self.mses.min())

    @property
    def worst_mse(self) -> float:
        return float(self.mses.max())

    @property
    def spread(self) -> float:
        """worst/best candidate MSE; 1 means the choice of signs is inert."""
        best = self.best_mse
        if best == 0.0:
            return 1.0 if self.worst_mse == 0.0 else float("inf")
        return self.worst_mse / best

    def to_dict(self) -> dict:
        return {
            "layer_id": self.selected.layer_id,
            "candidate_count": self.candidate_count,
            "base_seed": self.base_seed,
            "selected_seed": self.selected_seed,
            "selected_signs_hex": serialize_signs(self.selected).hex(),
            "best_mse": self.best_mse,
            "worst_mse": self.worst_mse,
            "spread": self.spread,
            "dropped_rows": self.dropped_rows,
            "candidate_mses": [float(m) for m in self.mses],
        }


def _row_norms(keys: CalibrationSet) -> np.ndarray:
    """Row norms of one layer's keys by the write path's rule
    (write_path._key_norms, InvalidInputError if one is not finite); a layer
    with no nonzero row is an error."""
    norms = _key_norms(keys.keys, f"layer {keys.layer_id}'s calibration keys")
    if not norms.any():
        raise EmptyCalibrationError(
            f"all {norms.size} calibration rows of layer {keys.layer_id} have zero norm")
    return norms


def _normalized_rows(keys: CalibrationSet) -> tuple[np.ndarray, int]:
    """Drop zero-norm rows and unit-normalize the rest."""
    norms = _row_norms(keys)
    kept = norms > 0.0
    return keys.keys[kept] / norms[kept, None], int(np.count_nonzero(~kept))


# Threads pay off only when each ufunc call of a candidate is long enough to
# hide the interpreter-lock handoffs around it: on a 2-CPU VM two threads
# took 1.05-1.9x the serial time at N x d <= 2^14 values per candidate, about
# 1x at 2^15 and 0.6-0.8x from 1.5 x 2^15 up.
_THREAD_MIN_ELEMS = 1 << 15


def _workers(C: int, elems: int) -> int:
    """Threads for C candidates of `elems` values each: one per CPU this
    process may use (os.sched_getaffinity where it exists, else
    os.cpu_count()), at most C, and one at or below _THREAD_MIN_ELEMS."""
    if elems <= _THREAD_MIN_ELEMS:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, C))


def _candidate_mses(unit_rows: np.ndarray, signs, cbs) -> np.ndarray:
    """Rotated-domain quantize-dequantize MSE of each sign candidate under
    each codebook: a (C, len(cbs)) array.

    The selection metric measures codebook fit, so there is no inverse
    rotation and no norm rescale.  Each candidate is rotated once and then
    quantized under every codebook in turn, so a sweep over bit-widths
    repeats no rotation.  The C candidates run on W threads:
    W = min(CPUs this process may use, C), or 1 when an (N, d) block holds
    at most _THREAD_MIN_ELEMS values (_workers).  The calling thread takes
    candidates 0, W, 2W, ... and worker w takes w, w + W, ...; numpy
    releases the interpreter lock inside each ufunc, so the threads overlap.

    Each thread allocates one set of (N, d)-sized buffers and reuses it for
    all of its candidates: blocks of that size sit above the allocator's
    mmap and trim marks, and a fresh set per candidate is mapped,
    page-faulted in and handed back each time.  The set is the transposed
    block, which the error reuses once the scaled copy is taken, the
    butterflies' scratch, the scaled copy, and the comparator bank's uint8
    cells and bool mask: 2.5 N d doubles plus 2 N d bytes (about 1.4 MiB
    at 512 x 128) per extra thread.

    Each candidate is rotated by rotate()'s own kernel
    (transform._rotate_block) on the whole block, so each MSE equals
    rotate(), quantize, subtract, square and sum bit for bit, and the MSEs,
    picks and sign ROMs are identical for every W.

    Workers run in a copy of the caller's context, so its np.errstate holds
    on them.  Every worker is joined before the call returns or raises; the
    first exception raised on any thread stops the others at their next
    candidate and is re-raised here.
    """
    n, d = unit_rows.shape
    unit_t = np.array(unit_rows.T, order="C")
    mses = np.empty((len(signs), len(cbs)))
    workers = _workers(len(signs), unit_rows.size)
    errors: list[BaseException] = []

    def score(first: int) -> None:
        try:
            yt, scratch, y = np.empty((d, n)), np.empty((d // 2) * n), np.empty((n, d))
            err = yt.reshape(n, d)
            cells = np.empty((n, d), dtype=np.uint8)
            mask = np.empty((n, d), dtype=np.bool_)
            for c in range(first, len(signs), workers):
                if errors:
                    return
                _rotate_block(unit_t, signs[c].signs, y, yt, scratch)
                for j, cb in enumerate(cbs):
                    idx = _cell_indices(y, cb, cells, mask)
                    # Cell indices are below 2^b by construction; "clip"
                    # lets take() write straight into err, where "raise"
                    # buffers a full copy.
                    np.take(cb.centroids, idx, out=err, mode="clip")
                    np.subtract(y, err, out=err)
                    np.multiply(err, err, out=err)
                    mses[c, j] = np.sum(err) / err.size
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)

    threads = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(score, w))
            thread.start()
            threads.append(thread)
        score(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return mses


def candidate_mse(keys: CalibrationSet, s: SignVector, cb: Codebook) -> float:
    """Rotated-domain quantization MSE of one sign candidate on one layer."""
    _check_same_d(("keys", keys.d), ("signs", s.d), ("codebook", cb.d))
    unit, _ = _normalized_rows(keys)
    return float(_candidate_mses(unit, [s], [cb])[0, 0])


# The paper picks among 200 candidates a layer.  The cap is checked before
# the first sign is drawn, so a mistyped count fails at once instead of
# drawing billions of sign vectors.
MAX_CANDIDATES = 1 << 16


def _check_candidate_count(C: int) -> None:
    if not 1 <= C <= MAX_CANDIDATES:
        raise InvalidInputError(f"candidate count must be in 1..{MAX_CANDIDATES}, got {C}")


def _search_layer(keys: CalibrationSet, C: int, cb: Codebook, base_seed: int,
                  layer_id: int) -> SignSearchReport:
    """One layer's candidate search under an already solved codebook; each
    candidate is drawn once, tagged with layer_id, and the winner kept as drawn."""
    unit, dropped = _normalized_rows(keys)
    signs = [random_signs(keys.d, base_seed + c, layer_id) for c in range(1, C + 1)]
    mses = _candidate_mses(unit, signs, [cb])[:, 0]
    pick = int(np.argmin(mses))
    return SignSearchReport(
        candidate_count=C,
        base_seed=base_seed,
        mses=mses,
        selected_seed=base_seed + pick + 1,
        selected=signs[pick],
        dropped_rows=dropped,
    )


def select_signs(keys: CalibrationSet, C: int, b: int,
                 base_seed: int = 0) -> SignSearchReport:
    """Evaluate C candidates (seeds base_seed+1 .. base_seed+C), keep the argmin.

    Ties break toward the lowest seed so the result is deterministic.
    """
    _check_candidate_count(C)
    return _search_layer(keys, C, solve_codebook(keys.d, b), base_seed, keys.layer_id)


def select_signs_all_layers(layers, C: int, b: int, base_seed: int = 0
                            ) -> tuple[list[SignSearchReport], bytes]:
    """Independent per-layer selection; returns reports plus the sign ROM image.

    `layers` is a mapping or iterable of (layer_id, CalibrationSet); ROM
    records follow the given order.  The codebook is solved once for all
    layers.  36 layers at d=128 pack to 576 payload bytes after the 8-byte
    header.
    """
    items = _layer_items(layers)
    d = _check_same_d(*((f"layer {layer_id}", cs.d) for layer_id, cs in items))
    _check_candidate_count(C)
    cb = solve_codebook(d, b)
    reports = [_search_layer(cs, C, cb, base_seed, layer_id) for layer_id, cs in items]
    rom = pack_sign_rom([r.selected for r in reports])
    return reports, rom


@dataclass(frozen=True)
class NormDiagnostic:
    """Cross-layer key-norm heterogeneity summary and the resulting advice."""

    mean_norms: dict[int, float]
    ratio: float
    recommendation: str

    def to_dict(self) -> dict:
        return {
            "mean_norms": {str(k): v for k, v in self.mean_norms.items()},
            "ratio": self.ratio,
            "recommendation": self.recommendation,
        }


def norm_ratio_diagnostic(layers) -> NormDiagnostic:
    """Mean key norm per layer and the max/min ratio across layers.

    Below 2x the default (calibration-free) signs are safe; above 5x the
    selection step is worth running; between, measure on the actual model.
    A layer whose keys all have zero norm is an empty calibration layer, and
    a ratio past the float64 range (means spanning more than about 308
    decades) is invalid input: a report could not hold it as a JSON number.
    """
    means = {layer_id: float(_row_norms(cs).mean())
             for layer_id, cs in _layer_items(layers)}
    lo_id, hi_id = min(means, key=means.get), max(means, key=means.get)
    lo, hi = means[lo_id], means[hi_id]
    ratio = hi / lo
    if math.isinf(ratio):
        raise InvalidInputError(
            f"the mean key norms of layers {hi_id} ({hi!r}) and {lo_id} ({lo!r}) "
            f"have a ratio past the float64 range")
    if ratio < 2.0:
        advice = RECOMMEND_SAFE
    elif ratio > 5.0:
        advice = RECOMMEND_OPTIMIZE
    else:
        advice = RECOMMEND_INDETERMINATE
    return NormDiagnostic(mean_norms=means, ratio=ratio, recommendation=advice)
