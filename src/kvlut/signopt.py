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

from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, solve_codebook
from .errors import EmptyCalibrationError, InvalidDimensionError, InvalidInputError
from .transform import (RotationSpec, SignVector, pack_sign_rom, random_signs,
                        rotate, serialize_signs)
from .write_path import _comparator_indices

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
        keys = np.atleast_2d(np.asarray(self.keys, dtype=np.float64))
        if keys.ndim != 2 or keys.shape[0] < 1:
            raise InvalidDimensionError(
                f"calibration keys must be a non-empty N x d matrix, got {keys.shape}")
        if not np.all(np.isfinite(keys)):
            raise InvalidInputError("calibration keys contain non-finite values")
        keys.setflags(write=False)
        object.__setattr__(self, "keys", keys)

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


def _normalized_rows(keys: CalibrationSet) -> tuple[np.ndarray, int]:
    """Drop zero-norm rows, unit-normalize the rest; empty result is an error."""
    norms = np.linalg.norm(keys.keys, axis=1)
    kept = norms > 0.0
    dropped = int(np.count_nonzero(~kept))
    if not kept.any():
        raise EmptyCalibrationError(
            f"all {norms.size} calibration rows have zero norm")
    return keys.keys[kept] / norms[kept, None], dropped


def _qdq_mse(unit_rows: np.ndarray, sign: SignVector, cb: Codebook) -> float:
    # Quantize-dequantize entirely in the rotated domain: the selection metric
    # measures codebook fit, so no inverse rotation and no norm rescale.
    spec = RotationSpec(d=cb.d, sign=sign)
    y = rotate(spec, unit_rows)
    idx = _comparator_indices(y, cb, "flat", None, unit_rows.shape[0])
    err = y - cb.centroids[idx]
    return float(np.sum(err * err) / err.size)


def candidate_mse(keys: CalibrationSet, s: SignVector, cb: Codebook) -> float:
    """Rotated-domain quantization MSE of one sign candidate on one layer."""
    if keys.d != cb.d or s.d != cb.d:
        raise InvalidDimensionError(
            f"dimension mismatch: keys d={keys.d}, signs d={s.d}, codebook d={cb.d}")
    unit, _ = _normalized_rows(keys)
    return _qdq_mse(unit, s, cb)


def _check_candidate_count(C: int) -> None:
    if C < 1:
        raise InvalidInputError(f"candidate count must be >= 1, got {C}")


def _search_layer(keys: CalibrationSet, C: int, cb: Codebook,
                  base_seed: int) -> SignSearchReport:
    """One layer's candidate search under an already solved codebook."""
    d = keys.d
    unit, dropped = _normalized_rows(keys)
    mses = np.empty(C)
    for c in range(1, C + 1):
        mses[c - 1] = _qdq_mse(unit, random_signs(d, base_seed + c), cb)
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
    items = list(layers.items()) if hasattr(layers, "items") else list(layers)
    if not items:
        raise EmptyCalibrationError("no calibration layers supplied")
    dims = {cs.d for _, cs in items}
    if len(dims) != 1:
        raise InvalidDimensionError(
            f"calibration layers disagree on dimension: {sorted(dims)}")
    _check_candidate_count(C)
    cb = solve_codebook(dims.pop(), b)
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
    """
    items = list(layers.items()) if hasattr(layers, "items") else list(layers)
    if not items:
        raise EmptyCalibrationError("no calibration layers supplied")
    means: dict[int, float] = {}
    for layer_id, cs in items:
        norms = np.linalg.norm(cs.keys, axis=1)
        means[layer_id] = float(norms.mean())
    lo, hi = min(means.values()), max(means.values())
    ratio = float("inf") if lo == 0.0 else hi / lo
    if ratio < 2.0:
        advice = RECOMMEND_SAFE
    elif ratio > 5.0:
        advice = RECOMMEND_OPTIMIZE
    else:
        advice = RECOMMEND_INDETERMINATE
    return NormDiagnostic(mean_norms=means, ratio=ratio, recommendation=advice)
