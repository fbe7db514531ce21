"""Design-time fixed scalar quantizer for the N(0, 1/d) coordinate distribution.

After an orthonormal sign-randomized Hadamard rotation, each coordinate of a
unit-norm vector is approximately N(0, 1/d), so the minimum-MSE scalar
quantizer depends only on the dimension d and the bit-width b.  This module
solves that quantizer once at design time and serializes it into the compact
ROM image shared by the write and read datapaths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import (CorruptRomError, FormatError, InvalidDimensionError,
                     NonConvergenceError, _check_power_of_two)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)

MAX_BITS = 8
DEFAULT_TOL = 1e-12


def _phi(z: np.ndarray) -> np.ndarray:
    """Standard normal density, with phi(+-inf) = 0."""
    out = np.zeros_like(z)
    finite = np.isfinite(z)
    out[finite] = np.exp(-0.5 * z[finite] ** 2) / _SQRT_2PI
    return out


def _ndtr(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a 1-D array, 0.5 * erfc(-z / sqrt(2)) per element.

    The solver evaluates at most 2^b + 1 edges, so math.erfc elementwise is
    cheap, and it keeps full relative precision in the left tail.
    """
    return np.array([0.5 * math.erfc(-x / _SQRT_2) for x in z.tolist()])


@dataclass
class Codebook:
    """Solved quantizer for one (d, b) design point.

    ``centroids`` holds the 2^b reconstruction levels in ascending order and
    ``boundaries`` the 2^b - 1 decision thresholds between them.  Both are
    symmetric about zero.  Values are double precision out of the solver;
    half rounding happens only at serialization.
    """

    d: int
    b: int
    centroids: np.ndarray
    boundaries: np.ndarray

    @property
    def levels(self) -> int:
        return 1 << self.b

    @property
    def sigma(self) -> float:
        return 1.0 / math.sqrt(self.d)


def _validate_design_point(d: int, b: int) -> None:
    _check_power_of_two(d)
    if not 1 <= b <= MAX_BITS:
        raise InvalidDimensionError(f"b must be in 1..{MAX_BITS}, got {b}")


def _pdf_drop(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """phi(lo) - phi(hi) per cell, with infinite outer edges.

    Interior differences use phi(lo) * -expm1((lo-hi)(lo+hi)/2) instead of
    direct subtraction: adjacent-cell pdf values nearly cancel for large level
    counts, and the lost relative accuracy is amplified by the near-singular
    optimality system, so the naive form caps how tight a residual the solver
    can certify.
    """
    out = np.empty(lo.shape)
    out[0] = -_phi(hi[:1])[0]
    out[-1] = _phi(lo[-1:])[0]
    if lo.size > 2:
        a, c = lo[1:-1], hi[1:-1]
        out[1:-1] = _phi(a) * -np.expm1(-0.5 * (c - a) * (c + a))
    return out


def _cell_mass(edges: np.ndarray) -> np.ndarray:
    """PHI(hi) - PHI(lo) per cell, from the standardized edge vector.

    Cells entirely in the right tail evaluate through the survival side,
    PHI(-lo) - PHI(-hi): there both terms are small and keep full relative
    precision, while the direct form differences two values near 1.0 and
    leaves the outermost cells with only absolute 1-ulp accuracy.
    """
    cdf, sf = _ndtr(edges), _ndtr(-edges)
    return np.where(edges[:-1] >= 0.0, sf[:-1] - sf[1:], cdf[1:] - cdf[:-1])


def _cell_means(sigma: float, boundaries: np.ndarray) -> np.ndarray:
    """Conditional mean of N(0, sigma^2) over each quantizer cell.

    For the cell [a, c] the mean is sigma * (phi(a/s) - phi(c/s)) / (PHI(c/s)
    - PHI(a/s)); the outermost cells use infinite edges.
    """
    edges = np.concatenate(([-np.inf], boundaries, [np.inf])) / sigma
    return sigma * _pdf_drop(edges[:-1], edges[1:]) / _cell_mass(edges)


def _solve_tridiagonal(lower: list, diag: list, upper: list, rhs: list) -> list:
    """x with lower[i-1] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i].

    The Thomas algorithm, forward elimination then back substitution, in
    plain Python floats, for n >= 2 unknowns.  It does not pivot, so the
    system must be diagonally dominant, as the Newton step's Jacobian is.
    """
    up, x = [upper[0] / diag[0]], [rhs[0] / diag[0]]
    for a, b, c, r in zip(lower, diag[1:], [*upper[1:], 0.0], rhs[1:]):
        pivot = b - a * up[-1]
        up.append(c / pivot)
        x.append((r - a * x[-1]) / pivot)
    for i in range(len(x) - 2, -1, -1):
        x[i] -= up[i] * x[i + 1]
    return x


def _newton_refine(sigma: float, centroids: np.ndarray) -> np.ndarray:
    """Newton iteration on G(c) = c - cellmeans(midpoints(c)).

    A zero of G is a Lloyd-Max fixed point: every centroid is the mean of its
    cell and every boundary the midpoint of its neighbours.  The Jacobian is
    tridiagonal with closed-form entries from truncated-normal moment
    derivatives, and each step solves it directly from its three diagonals
    (_solve_tridiagonal), so no BLAS or LAPACK kernel, which numpy may pick
    by CPU, touches the centroids.  From the quantile start's cell means the
    iteration contracts quadratically.  It stops once a step drops below
    DEFAULT_TOL/10, or once a step fails to halve the previous one (the
    floating-point floor), and after at most 50 steps; the caller's residual
    check decides whether DEFAULT_TOL was reached.
    """
    c = centroids.copy()
    prev_step = np.inf
    for _ in range(50):
        t = 0.5 * (c[:-1] + c[1:])
        edges = np.concatenate(([-np.inf], t, [np.inf])) / sigma
        pdf = _phi(edges)
        mass = _cell_mass(edges)
        m = sigma * _pdf_drop(edges[:-1], edges[1:]) / mass

        # dm/d(edge): phi(edge) * (m - edge) / (sigma * mass), zero at +-inf.
        lo_edge = np.concatenate(([0.0], t))      # placeholder at -inf, masked by pdf=0
        hi_edge = np.concatenate((t, [0.0]))
        dm_dlow = pdf[:-1] * (m - lo_edge) / (sigma * mass)
        dm_dhigh = pdf[1:] * (hi_edge - m) / (sigma * mass)

        delta = np.array(_solve_tridiagonal(
            (-0.5 * dm_dlow[1:]).tolist(), (1.0 - 0.5 * (dm_dlow + dm_dhigh)).tolist(),
            (-0.5 * dm_dhigh[:-1]).tolist(), (m - c).tolist()))
        c = c + delta
        step = float(np.max(np.abs(delta)))
        if step < DEFAULT_TOL / 10.0 or step >= 0.5 * prev_step:
            break
        prev_step = step
    return c


def solve_lloyd_max(sigma: float, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve the minimum-MSE b-bit quantizer for N(0, sigma^2).

    Starts from quantile-spaced boundaries, sigma * PHI^-1(k / 2^b), with
    PHI^-1 from statistics.NormalDist.inv_cdf, takes their cell means, and
    solves the Lloyd-Max optimality conditions from there by Newton's method
    (_newton_refine).  The boundaries are the midpoints of the solved
    centroids.  The result is antisymmetrized (the exact solution is
    odd-symmetric) and then checked against both optimality conditions.

    Returns:
        ``(centroids, boundaries)`` as float64 arrays.

    Raises:
        NonConvergenceError: the solved point fails the optimality residual
            check at DEFAULT_TOL.
    """
    levels = 1 << b
    inv_cdf = NormalDist().inv_cdf
    boundaries = sigma * np.array([inv_cdf(k / levels) for k in range(1, levels)])
    centroids = _newton_refine(sigma, _cell_means(sigma, boundaries))
    boundaries = 0.5 * (centroids[:-1] + centroids[1:])

    # Project onto the odd-symmetric subspace; the fixed point lies there and
    # this pins the middle boundary to exactly 0.0.
    centroids = 0.5 * (centroids - centroids[::-1])
    boundaries = 0.5 * (boundaries - boundaries[::-1])

    # The residual check is the authority: Newton's stopping rule only
    # decides when to stop iterating.
    residual = max(lloyd_residual(centroids, boundaries),
                   max_residual(sigma, centroids, boundaries))
    if residual >= DEFAULT_TOL:
        raise NonConvergenceError(
            f"Lloyd-Max for b={b} stalled at optimality residual "
            f"{residual:.3e} >= tol {DEFAULT_TOL:.3e}",
            residual=float(residual),
        )
    return centroids, boundaries


def lloyd_residual(centroids: np.ndarray, boundaries: np.ndarray) -> float:
    """Largest deviation of a boundary from its adjacent-centroid midpoint."""
    mid = 0.5 * (centroids[:-1] + centroids[1:])
    return float(np.max(np.abs(boundaries - mid)))


def max_residual(sigma: float, centroids: np.ndarray, boundaries: np.ndarray) -> float:
    """Largest deviation of a centroid from its cell's conditional mean."""
    return float(np.max(np.abs(centroids - _cell_means(sigma, boundaries))))


def solve_codebook(d: int, b: int) -> Codebook:
    """Solve the fixed codebook for the N(0, 1/d) coordinate distribution."""
    _validate_design_point(d, b)
    sigma = 1.0 / math.sqrt(d)
    centroids, boundaries = solve_lloyd_max(sigma, b)
    return Codebook(d=d, b=b, centroids=centroids, boundaries=boundaries)


def analytic_distortion(cb: Codebook) -> float:
    """Exact per-coordinate MSE of the codebook under N(0, sigma^2).

    Closed form from truncated-normal moments: for a cell [a, c] with centroid
    m (all standardized by sigma),

        integral (x - m)^2 phi(x) dx
            = (1 + m^2)(PHI(c) - PHI(a)) + a phi(a) - c phi(c) - 2m(phi(a) - phi(c)).
    """
    sigma = cb.sigma
    edges = np.concatenate(([-np.inf], cb.boundaries, [np.inf])) / sigma
    m = cb.centroids / sigma
    pdf = _phi(edges)
    # x * phi(x) -> 0 at infinite edges.
    xpdf = np.where(np.isfinite(edges), edges, 0.0) * pdf
    lo, hi = slice(None, -1), slice(1, None)
    cell = ((1.0 + m**2) * _cell_mass(edges)
            + xpdf[lo] - xpdf[hi]
            - 2.0 * m * (pdf[lo] - pdf[hi]))
    return float(sigma**2 * np.sum(cell))


# -- ROM image ------------------------------------------------------------
#
# Layout: 2^b centroids then 2^b - 1 boundaries, each IEEE-754 half precision
# (round-to-nearest-even), little-endian.  For b=3 that is 15 values = 30
# bytes.  The image is headerless; b is recoverable from the length and d
# lives in the CLI sidecar.

def rom_size(b: int) -> int:
    return ((1 << (b + 1)) - 1) * 2


def infer_b(nbytes: int) -> int:
    """Recover b from a ROM byte length; FormatError if no b matches."""
    for b in range(1, MAX_BITS + 1):
        if rom_size(b) == nbytes:
            return b
    raise FormatError(f"no bit-width has a {nbytes}-byte ROM image")


def _check_rom_values(values: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The one ROM rule: (centroids, boundaries) of a ROM's float64 values.

    The values must be finite, the centroids and the boundaries each
    strictly ascending, and every boundary strictly between its two
    centroids; otherwise CorruptRomError.
    """
    levels = 1 << b
    centroids, boundaries = values[:levels], values[levels:]
    if not np.all(np.isfinite(values)):
        raise CorruptRomError("ROM holds a NaN or infinite value")
    if np.any(np.diff(centroids) <= 0) or (boundaries.size and np.any(np.diff(boundaries) <= 0)):
        raise CorruptRomError("ROM centroids/boundaries are not strictly ascending")
    if np.any(boundaries <= centroids[:-1]) or np.any(boundaries >= centroids[1:]):
        raise CorruptRomError("ROM boundaries do not interleave centroids")
    return centroids, boundaries


def serialize_rom(cb: Codebook) -> bytes:
    """The codebook's ROM image: its values rounded to half, little-endian.

    Raises:
        CorruptRomError: the half values break the ROM rule that
            deserialize_rom checks, as happens when half rounding collapses
            adjacent values (up to d = 2^40: from d = 2^35 at b = 8, 2^37 at
            b = 7 and 2^39 at b = 6).
    """
    half = np.concatenate([cb.centroids, cb.boundaries]).astype("<f2")
    try:
        _check_rom_values(half.astype(np.float64), cb.b)
    except CorruptRomError as exc:
        raise CorruptRomError(
            f"half rounding at d={cb.d}, b={cb.b} breaks the ROM rule: {exc}") from exc
    return half.tobytes()


def deserialize_rom(data: bytes, d: int, b: int) -> Codebook:
    """Rebuild a Codebook from its ROM image, re-validating ordering.

    Raises:
        FormatError: wrong byte length for this b.
        CorruptRomError: the values break the ROM rule (_check_rom_values).
    """
    _validate_design_point(d, b)
    expected = rom_size(b)
    if len(data) != expected:
        raise FormatError(f"ROM for b={b} must be {expected} bytes, got {len(data)}")
    values = np.frombuffer(data, dtype="<f2").astype(np.float64)
    centroids, boundaries = _check_rom_values(values, b)
    return Codebook(d=d, b=b, centroids=centroids, boundaries=boundaries)
