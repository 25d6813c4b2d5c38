"""Scattering layer: amplitudes, cross sections, bands, spectral identities."""

import numpy as np
import pytest

from conftest import two_level_pair
from gainscatter import (
    BAND_LABELS,
    alpha_boundary,
    amplifier_bands,
    broaden,
    cross_sections,
    differential_elastic,
    im_alpha,
    line_spectrum,
    optical_theorem_sigma,
    polarizability_curve,
    scattering_amplitude,
    sigma_elastic,
    sigma_total_optical,
    sigma_total_spectral,
    wavevector,
)
from gainscatter.spectral import TargetLevels, thermal_populations


def gl_solid_angle_integral(alpha, omega, order=40):
    """Oracle: Gauss-Legendre integration of the differential cross section."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    theta = 0.5 * np.pi * (nodes + 1.0)
    w = 0.5 * np.pi * weights
    return 2.0 * np.pi * np.sum(differential_elastic(alpha, omega, theta) * np.sin(theta) * w)


class ConstantDensities:
    """Stub spectral pair with constant S+ and S-, so one side can be exactly 0."""

    def __init__(self, s_plus: float, s_minus: float):
        self.s_plus, self.s_minus = s_plus, s_minus

    def sums_at(self, omega):
        return np.stack((np.full(np.shape(omega), self.s_plus), np.full(np.shape(omega), self.s_minus)))


# --- amplitude -----------------------------------------------------------------


def test_amplitude_forward_real_alpha_gives_zero_sigma():
    f = scattering_amplitude(0.7, 1.3)
    assert f.imag == 0.0
    assert sigma_total_optical(np.array(f / 1.3**2), 1.3) == 0.0


def test_amplitude_unit_frequency():
    a0 = 0.45
    assert scattering_amplitude(1j * a0, 1.0) == pytest.approx(1j * a0)


def test_amplitude_bitwise_equals_the_forward_polarization_product():
    # reference: the forward amplitude omega^2 (e* . e) alpha for the unit polarization e = x-hat
    e = np.array([1.0, 0.0, 0.0])
    rng = np.random.default_rng(49)
    bits = lambda z: np.array([z]).view(np.uint64)
    for sign in (1.0, -1.0):  # absorbing and amplifying alpha
        alphas = rng.normal(size=50) + sign * 1j * rng.uniform(0.01, 2.0, 50)
        for alpha, omega in zip(alphas, rng.uniform(0.1, 10.0, 50).tolist()):
            want = omega * omega * complex(np.vdot(e, e)) * complex(alpha)
            assert np.array_equal(bits(scattering_amplitude(alpha, omega)), bits(want))


# --- differential and elastic ----------------------------------------------------


def test_differential_angle_factor():
    full = differential_elastic(1.0 + 1.0j, 1.0, 0.0)
    half = differential_elastic(1.0 + 1.0j, 1.0, np.pi / 2.0)
    assert half == pytest.approx(full / 2.0)
    assert differential_elastic(0.0, 1.0, 0.7) == 0.0


@pytest.mark.parametrize("omega", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_every_omega_rule_rejects_nonpositive_and_nonfinite_omega(omega):
    calls = {
        "scattering_amplitude": lambda: scattering_amplitude(1j, omega),
        "differential_elastic": lambda: differential_elastic(1j, omega, 0.3),
        "sigma_total_spectral": lambda: sigma_total_spectral(two_level_pair(0.5), [1.0, omega]),
        "sigma_elastic": lambda: sigma_elastic(1j, omega),
        "sigma_elastic of an array": lambda: sigma_elastic([1j, 1j], [1.0, omega]),
        "sigma_total_optical": lambda: sigma_total_optical(1j, omega),
        "sigma_total_optical of an array": lambda: sigma_total_optical([1j, 1j], [1.0, omega]),
        "optical_theorem_sigma": lambda: optical_theorem_sigma(1j, omega),
        "wavevector": lambda: wavevector(1.0 + 0.1j, [1.0, omega]),
        "optical_theorem_sigma of an array": lambda: optical_theorem_sigma(1j, np.array([[1.0, 2.0], [omega, 1.0]])),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as raised:
            call()
            pytest.fail(f"{name} accepted omega = {omega}")
        assert str(raised.value) == f"omega must be positive and finite (got {omega!r})", name


def test_sigma_elastic_values():
    assert sigma_elastic(0.0, 1.0) == 0.0
    assert sigma_elastic(1.0 + 0.0j, 1.0) == pytest.approx(8.0 * np.pi / 3.0)
    # quadratic scaling in |alpha|
    assert sigma_elastic(2.0, 1.0) == pytest.approx(4.0 * sigma_elastic(1.0, 1.0))


def test_rayleigh_closure_example():
    alpha = 0.3 - 0.2j
    omega = 1.7
    got = gl_solid_angle_integral(alpha, omega)
    assert got == pytest.approx(sigma_elastic(alpha, omega), rel=1e-9)


# --- total cross section ----------------------------------------------------------


def test_sigma_total_optical_values():
    assert sigma_total_optical(np.array(0.7 + 0.0j), 1.0) == 0.0
    assert sigma_total_optical(np.array(1.0j), 1.0) == pytest.approx(4.0 * np.pi)


def test_sigma_total_inverted_peak():
    # composed: boundary Im alpha at line center into the optical theorem
    gamma = 0.01
    pair = two_level_pair(1.0, gamma=gamma)
    sigma = float(sigma_total_optical(alpha_boundary(pair, 1.0), 1.0))
    want = -4.0 * np.pi * 1.0 / (3.0 * gamma)
    assert sigma < 0.0
    assert sigma == pytest.approx(want, rel=1e-4)


def test_sigma_total_spectral_trivial_cases():
    pair = two_level_pair(0.5)
    assert sigma_total_spectral(pair, 1.0) == 0.0  # S+ = S-

    # one-sided S+: sigma = 4 pi^2 omega S+ (the exp factor saturates to 0)
    w = 0.4
    one_sided = ConstantDensities(w, 0.0)
    got = sigma_total_spectral(one_sided, 2.0)
    assert got == pytest.approx(4.0 * np.pi**2 * 2.0 * w, rel=1e-12)
    # and the mirror case: S+ = 0 gives the negative limit
    mirrored = ConstantDensities(0.0, w)
    assert sigma_total_spectral(mirrored, 2.0) == pytest.approx(
        -4.0 * np.pi**2 * 2.0 * w, rel=1e-12
    )


def test_sigma_total_spectral_matches_optical_ground_state():
    pair = two_level_pair(0.0)
    sig_spec = float(sigma_total_spectral(pair, 1.0))
    sig_opt = float(sigma_total_optical(alpha_boundary(pair, 1.0), 1.0))
    assert sig_spec == pytest.approx(sig_opt, rel=1e-10)


def three_level_amplifier():
    # levels {0, 0.5, 1.5}: absorbing lines at 0.5 and 1.5 flank an inverted
    # line at 1.0; the dipole matrix makes both absorbing weights equal
    return TargetLevels(
        [0.0, 0.5, 1.5],
        [[0.0, 1.0, 1.6], [1.0, 0.0, 1.0], [1.6, 1.0, 0.0]],
        [0.55, 0.15, 0.30],
    )


def test_sigma_in_negative_at_inversion_crossing():
    # between an inverted and a normal line Im alpha crosses zero while
    # Re alpha does not, so sigma_in = -sigma_el < 0 there
    lines = line_spectrum(three_level_amplifier())
    pair = broaden(lines, np.linspace(-2.5, 2.5, 8001), 0.01)
    curve = polarizability_curve(pair)
    (_, hi), = amplifier_bands(cross_sections(curve), pair)  # upper band edge = the sign crossing
    alpha = alpha_boundary(pair, hi)
    sig_el = float(sigma_elastic(alpha, hi))
    sig_tot = float(sigma_total_optical(alpha, hi))
    assert sig_el > 0.0
    assert abs(sig_tot) <= 1e-4 * sig_el  # crossing: total ~ 0
    assert sig_tot - sig_el < 0.0


# --- bands and cross-section sets ---------------------------------------------------


def test_amplifier_bands_ground_state_empty():
    curve = polarizability_curve(two_level_pair(0.0))
    assert amplifier_bands(cross_sections(curve), curve.pair) == []


def test_amplifier_bands_inverted_contains_line():
    curve = polarizability_curve(two_level_pair(1.0))
    bands = amplifier_bands(cross_sections(curve), curve.pair)
    assert len(bands) == 1
    lo, hi = bands[0]
    assert lo < 1.0 < hi


def test_amplifier_bands_three_level_single_band():
    # one inverted pair flanked by two normal pairs, all lines 50 gamma apart
    gamma = 0.01
    lines = line_spectrum(three_level_amplifier())
    grid = np.linspace(-2.5, 2.5, 8001)
    pair = broaden(lines, grid, gamma)
    curve = polarizability_curve(pair)
    bands = amplifier_bands(cross_sections(curve), pair)
    assert len(bands) == 1
    lo, hi = bands[0]
    # oracle: dense scan of the sign of Im alpha
    fine = np.linspace(0.6, 1.4, 400001)
    signs = im_alpha(pair, fine) < 0.0
    scan_lo = fine[np.argmax(signs)]
    scan_hi = fine[len(signs) - 1 - np.argmax(signs[::-1])]
    assert lo == pytest.approx(scan_lo, abs=1e-5)
    assert hi == pytest.approx(scan_hi, abs=1e-5)
    assert 0.5 * (lo + hi) == pytest.approx(1.0, abs=gamma / 10.0)


def test_band_edges_refined_to_tolerance():
    curve = polarizability_curve(two_level_pair(1.0))
    (lo, hi), = amplifier_bands(cross_sections(curve), curve.pair)
    # refined edges sit where Im alpha changes sign
    assert abs(float(im_alpha(curve.pair, lo))) <= abs(float(im_alpha(curve.pair, lo + 1e-4)))
    grid_step = float(curve.grid[1] - curve.grid[0])
    assert grid_step > 1e-6  # refinement actually had to bisect


def test_band_edges_refined_to_float_resolution():
    # each inner edge and one of its neighbouring floats bracket the sign change of
    # Im alpha: opposite signs, or an exact zero
    pair = broaden(line_spectrum(three_level_amplifier()), np.linspace(-2.5, 2.5, 8001), 0.01)
    (lo, hi), = amplifier_bands(cross_sections(polarizability_curve(pair)), pair)
    for edge in (lo, hi):
        at = float(im_alpha(pair, edge))
        beside = [float(im_alpha(pair, np.nextafter(edge, way))) for way in (-np.inf, np.inf)]
        assert at == 0.0 or any(b == 0.0 or (b < 0.0) != (at < 0.0) for b in beside), (edge, at, beside)


def test_cross_section_set_invariants():
    curve = polarizability_curve(two_level_pair(0.9))
    xs = cross_sections(curve)
    assert np.all(xs.sigma_el >= 0.0)
    # sum rule holds exactly as stored
    assert np.array_equal(xs.sigma_in, xs.sigma_tot - xs.sigma_el)
    assert xs.band_flags.dtype == np.int8 and not xs.band_flags.flags.writeable
    labels = np.array(BAND_LABELS)[xs.band_flags]  # as cross_sections.csv writes them
    amplifying, absorbing = labels == "amplifying", labels == "absorbing"
    assert np.all(xs.sigma_tot[amplifying] < 0.0)
    assert np.all(xs.sigma_tot[absorbing] > 0.0)
    assert np.array_equal(xs.band_flags, np.sign(xs.sigma_tot))  # no row is near 0, so none is neutral
    assert np.any(amplifying)  # p_e = 0.9 inverts the line


THREE_LEVEL_DIPOLE_SQ = [[0.0, 1.0, 0.4], [1.0, 0.0, 0.7], [0.4, 0.7, 0.0]]
THERMAL_POPULATIONS = thermal_populations([0.0, 1.0, 2.5], 1.0)


@pytest.mark.parametrize(
    "energies, dipole_sq, populations, span, points, labels",
    [
        ([0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]], [0.0, 1.0], 3.0, 4801, {"amplifying"}),
        ([0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], 3.0, 4801, {"neutral"}),
        ([0.0, 1.0, 2.5], THREE_LEVEL_DIPOLE_SQ, THERMAL_POPULATIONS, 4.0, 6401, {"absorbing"}),
        # the 1 -> 2 line is inverted: one band, both edges inside the grid
        ([0.0, 1.0, 2.5], THREE_LEVEL_DIPOLE_SQ, [0.5, 0.1, 0.4], 4.0, 6401, {"absorbing", "amplifying"}),
    ],
    ids=["amplifier", "equal", "thermal", "three-level"],
)
def test_bands_and_flags_do_not_depend_on_the_dipole_unit(energies, dipole_sq, populations, span, points, labels):
    # sigma_tot is linear in d^2, and so is the neutral bound
    found = []
    for scale in (1.0, 1e-13, 1e-15, 1e-30):
        target = TargetLevels(energies, np.multiply(dipole_sq, scale), populations)
        pair = broaden(line_spectrum(target), np.linspace(-span, span, points), 0.01)
        xs = cross_sections(polarizability_curve(pair))
        found.append((amplifier_bands(xs, pair), xs.band_flags))
    (bands, flags), *scaled = found
    assert set(np.array(BAND_LABELS)[flags]) == labels
    assert len(bands) == ("amplifying" in labels)
    for scaled_bands, scaled_flags in scaled:
        assert scaled_bands == bands
        assert np.array_equal(scaled_flags, flags)


def test_cross_section_set_positive_grid_only():
    curve = polarizability_curve(two_level_pair(0.2))
    xs = cross_sections(curve)
    assert np.all(xs.grid > 0.0)
