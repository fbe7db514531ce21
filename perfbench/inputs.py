"""Seeded workload inputs, drawn here so the program never shapes its own load.

Keys follow the heterogeneous recipe: per layer, Gaussian rows plus a
token-varying component along one random direction (direction gain g sets
the rms norm to g times the plain-Gaussian level), scaled to the layer's norm
level.  Layer profiles are fixed by layer index; the seed only picks the
random draws, so every seed gives a workload of the same size and shape.
"""

from __future__ import annotations

import math

import numpy as np

D = 128
B = 3
N_LAYERS = 36
MAX_SCALE = 22.0
MAX_DIRECTION_GAIN = 7.8

# Stream tags keep keys, queries and layers independent under one seed.
_KEYS, _QUERIES = 1, 2


def layer_profile(layer: int) -> tuple[float, float]:
    """(scale, direction gain) of one model layer: scale is log-spaced from 1
    to 22 over the 36 layers, the gain is spread over 1..7.8 in a permuted
    order so scale and gain are not correlated."""
    scale = MAX_SCALE ** (layer / (N_LAYERS - 1))
    gain = 1.0 + (MAX_DIRECTION_GAIN - 1.0) * ((7 * layer) % N_LAYERS) / (N_LAYERS - 1)
    return scale, gain


def keys(seed: int, layer: int, n: int,
         profile: tuple[float, float] | None = None) -> np.ndarray:
    """An (n, D) float64 key matrix for one layer."""
    scale, gain = layer_profile(layer) if profile is None else profile
    rng = np.random.default_rng([seed, _KEYS, layer])
    rows = rng.normal(size=(n, D))
    if gain > 1.0:
        v = rng.normal(size=D)
        v /= np.linalg.norm(v)
        alpha = math.sqrt((gain * gain - 1.0) * D)
        rows += rng.normal(0.0, alpha, size=n)[:, None] * v[None, :]
    rows *= scale / math.sqrt(D)
    return rows


def queries(seed: int, n: int, stream: int = 0) -> np.ndarray:
    """An (n, D) float64 matrix of standard-normal queries."""
    return np.random.default_rng([seed, _QUERIES, stream]).normal(size=(n, D))
