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

import math
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, solve_codebook
from .errors import (EmptyCalibrationError, InvalidDimensionError, InvalidInputError,
                     _check_same_d, _finite_array, _layer_items, _read_only)
from .transform import (SignVector, _butterflies, pack_sign_rom, random_signs,
                        serialize_signs)
from .write_path import _cell_indices

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
    source: str = ""

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
    """Row norms of one layer's keys; a layer with no nonzero row is an error."""
    norms = np.linalg.norm(keys.keys, axis=1)
    if not norms.any():
        raise EmptyCalibrationError(
            f"all {norms.size} calibration rows of layer {keys.layer_id} have zero norm")
    return norms


def _normalized_rows(keys: CalibrationSet) -> tuple[np.ndarray, int]:
    """Drop zero-norm rows and unit-normalize the rest."""
    norms = _row_norms(keys)
    kept = norms > 0.0
    return keys.keys[kept] / norms[kept, None], int(np.count_nonzero(~kept))


def _candidate_mses(unit_rows: np.ndarray, signs, cb: Codebook) -> np.ndarray:
    """Rotated-domain quantize-dequantize MSE of each sign candidate.

    The selection metric measures codebook fit, so there is no inverse
    rotation and no norm rescale.  One set of (N, d)-sized buffers serves
    every candidate: blocks of that size sit above the allocator's mmap and
    trim marks, and a fresh set per candidate is mapped, page-faulted in and
    handed back each time.  Every step does rotate()'s arithmetic in its
    order, and the sum runs over a C-ordered (N, d) error array, so each MSE
    equals rotate(), quantize, subtract, square and sum bit for bit.
    """
    n, d = unit_rows.shape
    unit_t = np.array(unit_rows.T, order="C")
    yt, diff = np.empty((d, n)), np.empty((d // 2) * n)
    y, err = np.empty((n, d)), np.empty((n, d))
    mses = np.empty(len(signs))
    for c, s in enumerate(signs):
        np.multiply(unit_t, s.signs[:, None], out=yt)
        _butterflies(yt, diff)
        np.divide(yt.T, math.sqrt(d), out=y)
        idx = _cell_indices(y, cb)
        # Cell indices are below 2^b by construction; "clip" lets take()
        # write straight into err, where "raise" buffers a full copy.
        np.take(cb.centroids, idx, out=err, mode="clip")
        np.subtract(y, err, out=err)
        np.multiply(err, err, out=err)
        mses[c] = np.sum(err) / err.size
    return mses


def candidate_mse(keys: CalibrationSet, s: SignVector, cb: Codebook) -> float:
    """Rotated-domain quantization MSE of one sign candidate on one layer."""
    _check_same_d(("keys", keys.d), ("signs", s.d), ("codebook", cb.d))
    unit, _ = _normalized_rows(keys)
    return float(_candidate_mses(unit, [s], cb)[0])


def _check_candidate_count(C: int) -> None:
    if C < 1:
        raise InvalidInputError(f"candidate count must be >= 1, got {C}")


def _search_layer(keys: CalibrationSet, C: int, cb: Codebook,
                  base_seed: int) -> SignSearchReport:
    """One layer's candidate search under an already solved codebook."""
    d = keys.d
    unit, dropped = _normalized_rows(keys)
    mses = _candidate_mses(
        unit, [random_signs(d, base_seed + c) for c in range(1, C + 1)], cb)
    pick = int(np.argmin(mses))
    seed = base_seed + pick + 1
    return SignSearchReport(
        candidate_count=C,
        base_seed=base_seed,
        mses=mses,
        selected_seed=seed,
        selected=random_signs(d, seed, layer_id=keys.layer_id),
        dropped_rows=dropped,
    )


def select_signs(keys: CalibrationSet, C: int, b: int,
                 base_seed: int = 0) -> SignSearchReport:
    """Evaluate C candidates (seeds base_seed+1 .. base_seed+C), keep the argmin.

    Ties break toward the lowest seed so the result is deterministic.
    """
    _check_candidate_count(C)
    return _search_layer(keys, C, solve_codebook(keys.d, b), base_seed)


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
    reports = []
    for layer_id, cs in items:
        tagged = CalibrationSet(keys=cs.keys, layer_id=layer_id, source=cs.source)
        reports.append(_search_layer(tagged, C, cb, base_seed))
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
    A layer whose keys all have zero norm is an empty calibration layer.
    """
    means = {layer_id: float(_row_norms(cs).mean())
             for layer_id, cs in _layer_items(layers)}
    lo, hi = min(means.values()), max(means.values())
    ratio = hi / lo
    if ratio < 2.0:
        advice = RECOMMEND_SAFE
    elif ratio > 5.0:
        advice = RECOMMEND_OPTIMIZE
    else:
        advice = RECOMMEND_INDETERMINATE
    return NormDiagnostic(mean_norms=means, ratio=ratio, recommendation=advice)
