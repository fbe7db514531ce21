"""Solver, closed forms, and ROM image for the shared scalar codebook."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

from kvlut.codebook import (Codebook, _ndtr, analytic_distortion, deserialize_rom,
                            infer_b, lloyd_residual, max_residual, rom_size,
                            serialize_rom, solve_codebook, solve_lloyd_max)
from kvlut.errors import (CorruptRomError, FormatError, InvalidDimensionError,
                          InvalidInputError, NonConvergenceError)


# sha256 of serialize_rom(solve_codebook(d, b)), recorded from the solver
# that ran up to 10,000 alternation steps before its Newton polish.
ROM_SHA256 = {
    (64, 1): "043644db178e9a63ab9fb49e555e0c175495691c64de139cda618dee10d02d46",
    (64, 2): "b83388e7960ce7e1fa78b65287c8520ad5f39b05c48afd5b2e2e1a1b0bc3479a",
    (64, 3): "123324169811315ba4c3069f002fab543feb2dc496e0cbb90db6822448da895e",
    (64, 4): "c60c20459c35c1857719c3dc60cc20cddf97fe31f006be47338d7439ed05e873",
    (64, 5): "7cc81cef3a635e844638859b45cef7541524d38cebe1edce58d8a01d88da6837",
    (64, 6): "0a39307aaa17dd0befc715fa4ba6fc3c93e3ff4cb24cbd42128bb69e9a40c314",
    (64, 7): "d1b62bcbad88376b7d6099c4fb86f26b80e5443a95aa672ec994281e7cc828da",
    (64, 8): "4ba40c568790aa0a6d4688f1f9c0babba7effb7cdee42ea84e4a3cd1c5e41673",
    (128, 1): "803277ff3b0c02416f1013b32f73186004b710f21cd7e37850cf6ec54f7134de",
    (128, 2): "800849b672ee8aaeba037812826345609a1730d1a29cfbf6a4ae52082b1d3d83",
    (128, 3): "2e9a764544f8aaf324a4b2cc414cad7c01086167c5ba56faa45fc366df2439af",
    (128, 4): "bba40865834328c212f2902082ddbc118c1955381c366358e7732c2a98900125",
    (128, 5): "2f9669ab63e4c6efd38ade4daba32c656d211b3f42a7abe493a1852085e3672b",
    (128, 6): "ac6e60cb773752724d6c2a556e4dd53d71462ea86ecd8764260f0433be95e210",
    (128, 7): "28339de8cc6914df49ed2702007b32feb11f1ce76c88ac786146a747a833be25",
    (128, 8): "9e3939d57ac181d524885cd40e210c38f12ab8bdda4693b8cf6a2f70e3f4f83c",
    (256, 1): "f300ecebd23cde5d3aceaf81255108b3df8c150b84be63039f498c3e2448fd7a",
    (256, 2): "79d7aac767cd92becd69fa698d855cb89184b5e4c2404bca76fa79d7341f91db",
    (256, 3): "481921ff83908ed81f743b3aff1e3025d19787f31f69997bfae9f521ed3fa18a",
    (256, 4): "be4f526488118ca7d59ee3cdb8fd92db25ecf6c98a1b74738ba72843a50e0a91",
    (256, 5): "5f2e79958da210784ad9bbd8f9e0fcda0320265f3bf79dd5dffbf5be4bbd9828",
    (256, 6): "8f1164e28857909f92ceab844b3cb5ba40334b764cd249971613fd63e608e782",
    (256, 7): "539cf7bcc8c7a6bebccb808642638f96737e49bd7b87694a79c56bd3fae141d9",
    (256, 8): "5ef46521b340c44b504675308358e2bf7896807a61972baccfc191da1d00b7a3",
}


def quad_distortion(sigma, centroids, boundaries):
    """Independent distortion oracle: per-cell numeric quadrature."""
    edges = np.concatenate(([-np.inf], boundaries, [np.inf]))
    total = 0.0
    for lo, hi, c in zip(edges[:-1], edges[1:], centroids):
        val, _ = quad(lambda x, c=c: (x - c) ** 2 * norm.pdf(x, scale=sigma),
                      lo, hi)
        total += val
    return total


def test_all_bitwidths_converge_at_default_tol():
    for d in (2 ** k for k in range(1, 17)):
        for b in range(1, 9):
            cb = solve_codebook(d, b)
            assert lloyd_residual(cb.centroids, cb.boundaries) < 1e-12
            assert max_residual(cb.sigma, cb.centroids, cb.boundaries) < 1e-12


def test_structure_and_symmetry():
    cb = solve_codebook(128, 3)
    assert cb.centroids.shape == (8,)
    assert cb.boundaries.shape == (7,)
    assert np.all(np.diff(cb.centroids) > 0)
    assert np.all(np.diff(cb.boundaries) > 0)
    # Odd symmetry with the middle boundary pinned to exact zero.
    np.testing.assert_array_equal(cb.centroids, -cb.centroids[::-1])
    np.testing.assert_array_equal(cb.boundaries, -cb.boundaries[::-1])
    assert cb.boundaries[3] == 0.0
    # Boundaries interleave the centroids.
    assert np.all(cb.boundaries > cb.centroids[:-1])
    assert np.all(cb.boundaries < cb.centroids[1:])


def test_one_bit_closed_form():
    # The 1-bit quantizer for N(0, s^2) is +/- s*sqrt(2/pi) split at 0.
    for d in (16, 128):
        cb = solve_codebook(d, 1)
        level = math.sqrt(2.0 / math.pi) / math.sqrt(d)
        np.testing.assert_allclose(cb.centroids, [-level, level],
                                   rtol=0.0, atol=1e-15)
        assert cb.boundaries[0] == 0.0
        want = (1.0 / d) * (1.0 - 2.0 / math.pi)
        assert abs(analytic_distortion(cb) - want) < 1e-15


def test_distortion_matches_quadrature_oracle():
    for b in (1, 2, 3, 5):
        cb = solve_codebook(128, b)
        want = quad_distortion(cb.sigma, cb.centroids, cb.boundaries)
        got = analytic_distortion(cb)
        assert abs(got - want) <= 1e-12 * want


def test_distortion_decreases_with_bitwidth():
    values = [analytic_distortion(solve_codebook(128, b)) for b in range(1, 9)]
    assert all(hi > lo for hi, lo in zip(values, values[1:]))
    # Each extra bit should cut MSE by roughly 4x once b is moderate.
    for hi, lo in zip(values[2:], values[3:]):
        assert 3.0 < hi / lo < 5.0


def test_sigma_scaling():
    # The standardized solution is shared; sigma only scales it.
    # Two independent solves each sit within the solver tolerance of the
    # shared standardized fixed point.
    c16, t16 = solve_lloyd_max(1.0 / 4.0, 3)
    c64, t64 = solve_lloyd_max(1.0 / 8.0, 3)
    np.testing.assert_allclose(c16 / 2.0, c64, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(t16 / 2.0, t64, rtol=0.0, atol=1e-12)


def test_design_point_validation():
    with pytest.raises(InvalidDimensionError):
        solve_codebook(96, 3)
    with pytest.raises(InvalidDimensionError):
        solve_codebook(1, 3)
    with pytest.raises(InvalidDimensionError):
        solve_codebook(128, 0)
    with pytest.raises(InvalidDimensionError):
        solve_codebook(128, 9)
    with pytest.raises(InvalidInputError):
        solve_lloyd_max(0.5, 3, tol=0.0)


def test_ndtr_matches_scipy_oracle():
    # Below about -37.5 scipy flushes the subnormal tail to zero, which the
    # absolute term admits; everywhere else the bound is relative.
    z = np.linspace(-38.0, 38.0, 200_001)
    np.testing.assert_allclose(_ndtr(z), ndtr(z), rtol=1e-12,
                               atol=np.finfo(np.float64).tiny)


def test_unreachable_tolerance_raises_with_residual():
    with pytest.raises(NonConvergenceError) as exc:
        solve_lloyd_max(1.0, 3, tol=1e-30)
    assert exc.value.residual > 0.0


def test_rom_round_trip_all_bitwidths():
    for b in range(1, 9):
        cb = solve_codebook(128, b)
        blob = serialize_rom(cb)
        assert len(blob) == rom_size(b)
        assert infer_b(len(blob)) == b
        back = deserialize_rom(blob, 128, b)
        # Half-precision is the storage format, so round-trip error is the
        # half rounding of the solved values, not zero.
        np.testing.assert_allclose(back.centroids, cb.centroids,
                                   rtol=0.0, atol=2e-4)
        assert np.all(np.diff(back.centroids) > 0)
        # A second round trip is exact: half values survive serialization.
        assert serialize_rom(back) == blob


def test_rom_is_30_bytes_at_b3():
    assert rom_size(3) == 30
    assert len(serialize_rom(solve_codebook(128, 3))) == 30


def test_infer_b_rejects_unknown_lengths():
    for n in (0, 1, 29, 31, 1000):
        with pytest.raises(FormatError):
            infer_b(n)


def test_deserialize_rejects_bad_images():
    cb = solve_codebook(128, 3)
    blob = serialize_rom(cb)
    with pytest.raises(FormatError):
        deserialize_rom(blob[:-2], 128, 3)
    # Swap two centroids: ordering check trips.
    tampered = bytearray(blob)
    tampered[0:2], tampered[2:4] = blob[2:4], blob[0:2]
    with pytest.raises(CorruptRomError):
        deserialize_rom(bytes(tampered), 128, 3)
    # Push a boundary outside its centroid bracket.
    values = np.frombuffer(blob, dtype="<f2").astype(np.float64)
    values[8:] = values[8:] - 1.0
    with pytest.raises(CorruptRomError):
        deserialize_rom(values.astype("<f2").tobytes(), 128, 3)


@pytest.mark.parametrize("d", [64, 128, 256])
def test_solver_roms_are_pinned(d):
    for b in range(1, 9):
        cb = solve_codebook(d, b)
        assert hashlib.sha256(serialize_rom(cb)).hexdigest() == ROM_SHA256[(d, b)]
        assert lloyd_residual(cb.centroids, cb.boundaries) < 1e-12
        assert max_residual(cb.sigma, cb.centroids, cb.boundaries) < 1e-12


@pytest.mark.parametrize("pos,value", [(7, np.inf), (0, -np.inf), (3, np.nan),
                                       (9, np.nan)])
def test_deserialize_rejects_non_finite_values(pos, value):
    # b=3 image: centroids at 0..7, boundaries at 8..14.
    values = np.frombuffer(serialize_rom(solve_codebook(128, 3)), dtype="<f2").copy()
    values[pos] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorruptRomError):
            deserialize_rom(values.tobytes(), 128, 3)


def test_codebook_properties():
    cb = Codebook(d=64, b=2,
                  centroids=np.array([-1.5, -0.5, 0.5, 1.5]),
                  boundaries=np.array([-1.0, 0.0, 1.0]))
    assert cb.levels == 4
    assert cb.sigma == 0.125
