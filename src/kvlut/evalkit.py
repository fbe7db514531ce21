"""Synthetic key generation, pipeline quality metrics, and bias probes.

Perplexity is out of scope here; the desk-scale proxies are rotated-domain
quantization MSE and normalized score error, which is also what the sign
search itself optimizes.  The synthetic generator models layer-norm
heterogeneity two ways: a per-layer mean-norm scale (pure scale washes out
under per-key normalization, but drives the norm-ratio diagnostic), and a
token-varying shared-direction component that actually carries a high norm
the way massive activations do.  Only the latter creates cross-coordinate
correlation, which is what makes sign candidates genuinely differ: for i.i.d.
coordinates with any per-coordinate gains, rotated marginals are identical
for every sign pattern, so rotated-domain MSE cannot depend on the signs
beyond finite-sample noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codebook import Codebook, solve_codebook
from .errors import (InvalidInputError, _check_power_of_two, _check_same_d,
                     _check_shape, _read_only)
from .signopt import (CalibrationSet, _candidate_mses, _normalized_rows,
                      candidate_mse)
from .read_path import score_sequence
from .transform import RotationSpec, random_signs
from .write_path import KVCache, packed_size, quantize_batch

__all__ = [
    "LayerProfile",
    "SyntheticSpec",
    "ErrorReport",
    "JensenReport",
    "SweepResult",
    "generate_keys",
    "evaluate_pipeline",
    "jensen_bias_probe",
    "sensitivity_sweep",
]


@dataclass(frozen=True)
class LayerProfile:
    """One layer's key statistics.

    scale sets the layer's norm level.  gain optionally rescales individual
    coordinates.  direction_gain > 1 adds a token-varying component along a
    fixed random direction, sized so the layer's rms norm is direction_gain
    times the plain-Gaussian level; this is the component that induces sign-
    pattern sensitivity.
    """

    scale: float = 1.0
    gain: np.ndarray | None = None
    direction_gain: float = 1.0

    def __post_init__(self) -> None:
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise InvalidInputError(f"profile scale must be positive, got {self.scale}")
        if not (self.direction_gain >= 1.0 and math.isfinite(self.direction_gain)):
            raise InvalidInputError(
                f"direction_gain must be >= 1, got {self.direction_gain}")
        if self.gain is not None:
            gain = np.asarray(self.gain, dtype=np.float64)
            if not (np.all(np.isfinite(gain)) and np.all(gain > 0)):
                raise InvalidInputError("gain entries must be finite and positive")
            object.__setattr__(self, "gain", _read_only(gain))


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic multi-layer synthetic key ensemble."""

    d: int
    N: int
    profiles: tuple[LayerProfile, ...] = (LayerProfile(),)
    seed: int = 0

    def __post_init__(self) -> None:
        _check_power_of_two(self.d, "dimension")
        if self.N < 1:
            raise InvalidInputError(f"need at least one key per layer, got N={self.N}")
        object.__setattr__(self, "profiles", tuple(self.profiles))
        for p in self.profiles:
            if p.gain is not None:
                _check_shape(p.gain, self.d, (1,), "gain vector")


def generate_keys(spec: SyntheticSpec) -> dict[int, CalibrationSet]:
    """Draw each layer's N x d key matrix; deterministic in (seed, layer)."""
    out: dict[int, CalibrationSet] = {}
    for layer, prof in enumerate(spec.profiles):
        rng = np.random.default_rng([spec.seed, layer])
        rows = rng.normal(size=(spec.N, spec.d))
        if prof.gain is not None:
            rows = rows * prof.gain
        if prof.direction_gain > 1.0:
            v = rng.normal(size=spec.d)
            v /= np.linalg.norm(v)
            # rms-norm multiplier g: the component's variance alpha^2 solves
            # d + alpha^2 = g^2 d.
            alpha = math.sqrt((prof.direction_gain**2 - 1.0) * spec.d)
            rows = rows + rng.normal(0.0, alpha, size=spec.N)[:, None] * v[None, :]
        rows *= prof.scale / math.sqrt(spec.d)
        out[layer] = CalibrationSet(keys=rows, layer_id=layer,
                                    source=f"synthetic seed={spec.seed}")
    return out


@dataclass(frozen=True)
class ErrorReport:
    """Quality summary of the full quantize-then-score pipeline."""

    rotated_mse: float
    ip_err_mean: float
    ip_err_p95: float
    ip_err_max: float
    score_cosine: float
    bytes_per_vector: int
    compression_ratio: float

    def to_dict(self) -> dict:
        return {
            "rotated_mse": self.rotated_mse,
            "ip_err_mean": self.ip_err_mean,
            "ip_err_p95": self.ip_err_p95,
            "ip_err_max": self.ip_err_max,
            "score_cosine": self.score_cosine,
            "bytes_per_vector": self.bytes_per_vector,
            "compression_ratio": self.compression_ratio,
        }


def evaluate_pipeline(keys: np.ndarray, queries: np.ndarray, spec: RotationSpec,
                      cb: Codebook) -> ErrorReport:
    """Quantize keys, score queries through the lookup path, compare to exact.

    Inner-product errors are normalized by ||q|| ||k|| per pair, so the
    statistics are scale-free and stay finite for near-orthogonal pairs.
    Compression is the packed record size against 2d bytes of half-precision
    storage.
    """
    keys = np.atleast_2d(np.asarray(keys, dtype=np.float64))
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if keys.shape[0] == 0 or queries.shape[0] == 0:
        raise InvalidInputError(
            f"need at least one key and one query, got {keys.shape[0]} and {queries.shape[0]}")

    idx, norms = quantize_batch(keys, spec, cb)
    cache = KVCache(idx, norms)
    record = packed_size(cb.d, cb.b)

    rotated_mse = (candidate_mse(CalibrationSet(keys=keys), spec.sign, cb)
                   if np.any(norms > 0) else 0.0)
    approx = np.array([score_sequence(q, cache, spec, cb)[0] for q in queries])
    exact = queries @ keys.T

    qn = np.linalg.norm(queries, axis=1)
    denom = np.maximum(qn[:, None] * norms[None, :], np.finfo(np.float64).tiny)
    rel = np.abs(approx - exact) / denom
    flat = rel.ravel()

    cosines = []
    for a, e in zip(approx, exact):
        na, ne = np.linalg.norm(a), np.linalg.norm(e)
        cosines.append(float(a @ e / (na * ne)) if na > 0 and ne > 0 else 1.0)

    return ErrorReport(
        rotated_mse=rotated_mse,
        ip_err_mean=float(flat.mean()),
        ip_err_p95=float(np.percentile(flat, 95)),
        ip_err_max=float(flat.max()),
        score_cosine=float(np.mean(cosines)),
        bytes_per_vector=record,
        compression_ratio=(2.0 * cb.d) / record,
    )


@dataclass(frozen=True)
class JensenReport:
    """Outcome of the exponential-bias probe at one noise level."""

    noise_std: float
    trials: int
    seed: int
    per_score_ratio: np.ndarray
    aggregate_ratio: float
    oracle_ratio: float
    max_softmax_shift: float

    def to_dict(self) -> dict:
        return {
            "noise_std": self.noise_std,
            "trials": self.trials,
            "seed": self.seed,
            "aggregate_ratio": self.aggregate_ratio,
            "oracle_ratio": self.oracle_ratio,
            "max_softmax_shift": self.max_softmax_shift,
            "per_score_ratio": [float(r) for r in self.per_score_ratio],
        }


def _softmax(x: np.ndarray) -> np.ndarray:
    z = np.exp(x - x.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def jensen_bias_probe(true_scores: np.ndarray, noise_std: float, trials: int,
                      seed: int = 0) -> JensenReport:
    """Measure E[exp(score + noise)] / exp(score) against the lognormal mean.

    Zero-mean Gaussian score noise inflates exponentiated scores by
    exp(noise_std^2 / 2): unbiased scores still give biased attention
    weights.  At noise_std = 0 the ratio is exactly 1.  Also reports how far
    the trial-averaged softmax weights drift from the noiseless softmax.
    """
    if noise_std < 0:
        raise InvalidInputError(f"noise_std must be >= 0, got {noise_std}")
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    s = np.atleast_1d(np.asarray(true_scores, dtype=np.float64))
    if not s.size:
        raise InvalidInputError("true_scores must hold at least one score")
    rng = np.random.default_rng(seed)
    base_weights = _softmax(s)

    exp_sum = np.zeros_like(s)
    weight_sum = np.zeros_like(s)
    done = 0
    block = max(1, min(trials, 4_000_000 // max(1, s.size)))
    while done < trials:
        n = min(block, trials - done)
        noisy = s[None, :] + rng.normal(0.0, noise_std, size=(n, s.size))
        exp_sum += np.exp(noisy - s[None, :]).sum(axis=0)
        weight_sum += _softmax(noisy).sum(axis=0)
        done += n
    per_ratio = exp_sum / trials
    shift = np.abs(weight_sum / trials - base_weights)

    return JensenReport(
        noise_std=float(noise_std),
        trials=int(trials),
        seed=int(seed),
        per_score_ratio=per_ratio,
        aggregate_ratio=float(per_ratio.mean()),
        oracle_ratio=math.exp(0.5 * noise_std**2),
        max_softmax_shift=float(shift.max()),
    )


@dataclass(frozen=True)
class SweepResult:
    """Candidate-MSE matrix across (sign seed, bit-width) plus spread stats."""

    seeds: tuple[int, ...]
    bs: tuple[int, ...]
    mses: np.ndarray
    spread_maxmin: dict[int, float] = field(repr=False)
    spread_stdmean: dict[int, float] = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "seeds": list(self.seeds),
            "bs": list(self.bs),
            "mses": [[float(x) for x in row] for row in self.mses],
            "spread_maxmin": {str(b): v for b, v in self.spread_maxmin.items()},
            "spread_stdmean": {str(b): v for b, v in self.spread_stdmean.items()},
        }


def sensitivity_sweep(keys: CalibrationSet, seeds, bs,
                      solver=solve_codebook) -> SweepResult:
    """Rotated-domain QDQ MSE for every (sign seed, bit-width) pair.

    The per-bit-width max/min spread is the desk-scale sensitivity measure:
    near 1 means the sign choice is inert for these keys.
    """
    seeds = tuple(int(x) for x in seeds)
    bs = tuple(int(x) for x in bs)
    if not seeds or not bs:
        raise InvalidInputError("need at least one seed and one bit-width")
    unit, _ = _normalized_rows(keys)
    signs = [random_signs(keys.d, sd) for sd in seeds]
    mses = np.empty((len(seeds), len(bs)))
    for j, b in enumerate(bs):
        cb = solver(keys.d, b)
        _check_same_d(("keys", keys.d), ("codebook", cb.d))
        mses[:, j] = _candidate_mses(unit, signs, cb)
    maxmin = {b: float(mses[:, j].max() / mses[:, j].min()) for j, b in enumerate(bs)}
    stdmean = {b: float(mses[:, j].std() / mses[:, j].mean()) for j, b in enumerate(bs)}
    return SweepResult(seeds=seeds, bs=bs, mses=mses,
                       spread_maxmin=maxmin, spread_stdmean=stdmean)
