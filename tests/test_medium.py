"""Dilute medium layer: dielectric, wavevector, extinction, slab profiles."""

import numpy as np
import pytest

from conftest import two_level_pair
from gainscatter import (
    alpha_boundary,
    dielectric,
    extinction,
    extinction_dilute,
    intensity_profile,
    medium_response,
    polarizability_curve,
    sigma_total_optical,
    wavevector,
)


def exact_extinction(alpha, n, omega=1.0):
    return float(extinction(wavevector(dielectric(alpha, n), omega)))


# --- dielectric -----------------------------------------------------------------


def test_dielectric_vacuum():
    assert dielectric(0.0, 1e-6) == 1.0 + 0.0j


def test_dielectric_linear_in_density():
    alpha = 0.3 + 0.1j
    eps1 = dielectric(alpha, 2e-6)
    eps2 = dielectric(alpha, 1e-6)
    assert (eps1 - 1.0) == pytest.approx(2.0 * (eps2 - 1.0), rel=1e-15)


def test_dielectric_inverted_negative_im():
    pair = two_level_pair(1.0)
    alpha = complex(alpha_boundary(pair, 1.0))
    assert dielectric(alpha, 1e-6).imag < 0.0


def test_dielectric_rejects_nonpositive_density():
    with pytest.raises(ValueError):
        dielectric(0.1 + 0.0j, 0.0)


@pytest.mark.parametrize("density_n", [0.0, -1e-6, np.nan, np.inf])
def test_density_must_be_positive_and_finite(density_n):
    # one rule for every reader of a density: a NaN used to give a NaN epsilon
    curve = polarizability_curve(two_level_pair(1.0))
    for call in (
        lambda: dielectric(0.1 + 0.0j, density_n),
        lambda: dielectric(0.1 + 0.0j, np.array([1e-6, density_n])),
        lambda: extinction_dilute(density_n, [1.0]),
        lambda: extinction_dilute(np.array([1e-6, density_n]), [1.0, 1.0]),
        lambda: medium_response(curve, density_n),
    ):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == f"density_n must be positive and finite (got {density_n!r})"


# --- wavevector -------------------------------------------------------------------


def test_wavevector_vacuum():
    k = wavevector(1.0 + 0.0j, 2.0)
    assert k == 2.0 + 0.0j


def test_wavevector_first_order_im():
    delta = 1e-4
    k = wavevector(1.0 + 1j * delta, 1.0)
    assert k.imag == pytest.approx(delta / 2.0, rel=1e-8)


def test_wavevector_amplifying_branch():
    k = wavevector(1.0 - 1e-4j, 1.0)
    assert k.imag < 0.0


def test_wavevector_rejects_branch_point():
    with pytest.raises(ValueError):
        wavevector(0.0j, 1.0)


# --- extinction --------------------------------------------------------------------


def test_extinction_values():
    assert extinction(1.0 + 0.0j) == 0.0
    assert extinction(1.0 + 0.005j) == pytest.approx(0.01)


def test_extinction_dilute_values():
    assert extinction_dilute(1e-6, 0.0) == 0.0
    assert extinction_dilute(1e-6, 4.0 * np.pi) == pytest.approx(4.0 * np.pi * 1e-6)


def test_extinction_dilute_agrees_with_exact_chain():
    # branch-root chain vs first-order law across two decades of density
    pair = two_level_pair(0.0)
    alpha = complex(alpha_boundary(pair, 1.0))
    sigma = float(sigma_total_optical(alpha, 1.0))
    for n in np.logspace(-7, -5, 7):
        h_exact = exact_extinction(alpha, n)
        h_dilute = float(extinction_dilute(n, sigma))
        assert abs(h_exact - h_dilute) / abs(h_dilute) <= 0.5 * abs(4.0 * np.pi * n * alpha)


def test_first_order_error_coefficient_stable():
    # fitted C in |h_exact - n sigma| / |n sigma| = C n |alpha| drifts by < 2x
    pair = two_level_pair(1.0)
    alpha = complex(alpha_boundary(pair, 1.0))
    sigma = float(sigma_total_optical(alpha, 1.0))
    cs = []
    for n in np.logspace(-7, -5, 9):
        rel = abs(exact_extinction(alpha, n) - n * sigma) / abs(n * sigma)
        cs.append(rel / (n * abs(alpha)))
    assert max(cs) / min(cs) <= 2.0


def test_sign_chain_dilute_samples():
    for p_e, sign in ((0.0, 1.0), (1.0, -1.0)):
        pair = two_level_pair(p_e)
        curve = polarizability_curve(pair)
        med = medium_response(curve, 1e-6)
        alpha = curve.alpha[curve.grid > 0.0]
        sigma = sigma_total_optical(alpha, med.grid)
        near_line = np.abs(med.grid - 1.0) < 0.05
        ok = med.dilute_ok & near_line
        assert np.all(np.sign(med.h[ok]) == sign)
        assert np.all(np.sign(alpha.imag[ok]) == sign)
        assert np.all(np.sign(sigma[ok]) == sign)


def test_gain_loss_duality():
    pair_a = two_level_pair(0.25)
    pair_b = two_level_pair(0.75)
    omegas = np.linspace(0.2, 2.2, 401)
    alpha_a = alpha_boundary(pair_a, omegas)
    alpha_b = alpha_boundary(pair_b, omegas)
    # population swap negates the full polarizability exactly
    assert np.allclose(alpha_b, -alpha_a, rtol=1e-14, atol=0.0)
    n = 1e-6
    h_a = extinction(wavevector(dielectric(alpha_a, n), omegas))
    h_b = extinction(wavevector(dielectric(alpha_b, n), omegas))
    assert np.all(np.sign(h_b) == -np.sign(h_a))
    # negation of h is first-order exact in the dilute limit
    assert np.allclose(h_b, -h_a, rtol=1e-3)


# --- intensity profile ----------------------------------------------------------------


def test_intensity_profile_constant_without_extinction():
    z = np.linspace(0.0, 10.0, 11)
    profile = intensity_profile(0.0, z)
    assert np.allclose(profile, 1.0, rtol=0, atol=0)


def test_intensity_profile_halving_length():
    h = 0.2
    z_half = np.log(2.0) / h
    profile = intensity_profile(h, np.array([0.0, z_half]))
    assert profile[1] == pytest.approx(profile[0] / 2.0, rel=1e-12)


def test_intensity_profile_gain_e_fold():
    h = -0.37
    profile = intensity_profile(h, np.array([0.0, 1.0 / abs(h)]))
    assert profile[1] == pytest.approx(np.e * profile[0], rel=1e-12)


def test_intensity_profile_monotonicity():
    z = np.linspace(0.0, 5.0, 101)
    assert np.all(np.diff(intensity_profile(0.3, z)) < 0.0)
    assert np.all(np.diff(intensity_profile(-0.3, z)) > 0.0)


def test_intensity_profile_rejects_bad_z():
    with pytest.raises(ValueError, match="z samples must be non-negative"):
        intensity_profile(0.1, np.array([-1.0, 0.0]))
    with pytest.raises(ValueError, match="z samples must be ascending"):
        intensity_profile(0.1, np.array([1.0, 0.5]))


def test_intensity_profile_rejects_non_finite_z():
    # NaN used to pass the non-negative test and give a NaN ratio, and inf gave exp(-inf h) = 0
    for z in ([np.nan], [0.0, np.inf], [0.0, 1.0, np.nan]):
        with pytest.raises(ValueError, match="z samples must be finite"):
            intensity_profile(0.1, z)


# --- medium response composition ---------------------------------------------------


def test_medium_response_invariants():
    pair = two_level_pair(0.8)
    curve = polarizability_curve(pair)
    n = 1e-6
    med = medium_response(curve, n)
    alpha = curve.alpha[curve.grid > 0.0]
    assert np.allclose(med.epsilon, 1.0 + 4.0 * np.pi * n * alpha, rtol=0, atol=0)
    assert np.allclose(med.h, 2.0 * med.k.imag, rtol=0, atol=0)
    assert np.all(np.sign(med.epsilon.imag) == np.sign(alpha.imag))
