"""Far-field screen layer: intensity pattern and the missing-intensity integral."""

import tracemalloc

import numpy as np
import pytest

from conftest import two_level_pair
from gainscatter import (
    alpha_boundary,
    optical_theorem_sigma,
    screen_intensity,
    verify_optical_theorem,
)
from gainscatter import screen, validate
from gainscatter.screen import DEFAULT_Z, NODE_CHUNK, _deficit_sums, _eps_schedule, _radial_nodes, check_screen


# --- screen intensity -----------------------------------------------------------


def test_intensity_no_target():
    r = np.linspace(0.0, 100.0, 11)
    assert np.allclose(screen_intensity(0.0, 1.0, 1e4, r), 1.0, rtol=0, atol=0)


def test_intensity_on_axis_expansion():
    f = 0.8 - 0.3j
    z = 1e4
    got = screen_intensity(f, 1.0, z, 0.0)
    want = 1.0 + 2.0 * f.real / z + abs(f) ** 2 / z**2
    assert got == pytest.approx(want, rel=1e-15)


def test_intensity_interference_form_deficit():
    # the deficit matches the pure interference term to within |F|^2/z^2
    f = 0.4 + 0.9j
    omega, z = 1.0, 1e4
    r = np.linspace(0.0, 900.0, 4001)
    full = 1.0 - screen_intensity(f, omega, z, r)
    interference = -2.0 * (f * np.exp(1j * omega * r * r / (2.0 * z))).real / z
    assert np.abs(full - interference).max() <= 2.0 * abs(f) ** 2 / z**2 + 2.0 * abs(
        f
    ) * (r.max() ** 2 / (2.0 * z**2)) / z


def test_intensity_rejects_wide_angles():
    with pytest.raises(ValueError, match="paraxial"):
        screen_intensity(1.0, 1.0, 1e4, 2000.0)
    with pytest.raises(ValueError, match="far-field"):
        screen_intensity(1.0, 1.0, 100.0, 1.0)


def test_screen_grid_moving_average_returns_to_unity():
    # averaging over one Fresnel oscillation blanks the interference term
    f = 1.5 + 0.5j
    omega, z = 1.0, 1e4
    r0 = 500.0
    period = 2.0 * np.pi * z / (omega * r0)  # one full cycle of the quadratic phase
    r = np.linspace(r0 - period / 2.0, r0 + period / 2.0, 20001)
    avg = np.trapezoid(screen_intensity(f, omega, z, r), r) / (r[-1] - r[0])
    assert abs(avg - 1.0) <= 5.0 * abs(f) / z


def test_screen_grid_validates_paraxial():
    with pytest.raises(ValueError, match="paraxial"):
        screen_intensity(1.0, 1.0, 1e4, np.array([0.0, 1.5e3]))


def test_screen_intensity_needs_finite_non_negative_radii():
    # a NaN radius used to pass the paraxial test (nan > r_max is False) and give a NaN
    # intensity, and r = -5 was silently the intensity at +5
    for bad in (np.nan, -5.0, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"r_perp must be finite and non-negative \(got"):
            screen_intensity(1.0 + 0.5j, 1.0, 1e4, [0.0, bad])
    assert screen_intensity(1.0 + 0.5j, 1.0, 1e4, [0.0, 1e3]).shape == (2,)  # r_max itself is on the screen


# --- missing intensity ------------------------------------------------------------


def test_missing_intensity_zero_amplitude():
    report = verify_optical_theorem(0.0, 1.0)
    assert report["sigma_estimates"] == report["sigma_estimates_full"] == [0.0] * 6
    assert report["sigma_extrapolated"] == 0.0 and report["converged"]


def test_missing_intensity_analytic_kernel():
    # exact tapered value of the interference form: sigma(eps) = -(4 pi/omega) Re[F/(eps - i)],
    # at every taper of the schedule (the edge taper is at most 1e-12 of the centre's)
    f = 0.8 + 0.6j
    omega, z = 1.0, 1e4
    for eps in _eps_schedule(omega, z):
        got = _deficit_sums(f, omega, z, eps)[0]
        want = -(4.0 * np.pi / omega) * (f / (eps - 1j)).real
        assert got == pytest.approx(want, rel=1e-9)


def test_missing_intensity_pure_imaginary_convergence():
    # sigma(eps) = sigma(0)/(1+eps^2) for pure imaginary F: the schedule's
    # smallest feasible eps plus extrapolation recovers 4 pi f0 (at omega = 1, F = alpha)
    f0 = 0.7
    report = verify_optical_theorem(1j * f0, 1.0)
    schedule, got = report["eps_schedule"], report["sigma_extrapolated"]
    want = 4.0 * np.pi * f0
    assert got == pytest.approx(want, rel=1e-3)
    smallest = report["sigma_estimates"][-1]
    assert smallest == pytest.approx(want / (1.0 + schedule[-1] ** 2), rel=1e-9)


def test_missing_intensity_feasibility_errors():
    with pytest.raises(ValueError, match="far-field"):
        verify_optical_theorem(1.0j, 1.0, 500.0)
    for z in (0.0, -1e4):
        with pytest.raises(ValueError, match="z must be positive"):
            verify_optical_theorem(1.0j, 1.0, z)


def test_screen_needs_a_finite_distance_and_edge_phase():
    # z = nan or inf used to give a NaN intensity with no error; an edge phase
    # omega (z/10)^2/(2 z) that overflows leaves no taper schedule to build
    for z in (np.nan, np.inf):
        for call in (
            lambda: screen_intensity(1.0 + 0.5j, 1.0, z, [0.0, 1.0]),
            lambda: verify_optical_theorem(1.0 + 0.5j, 1.0, z),
        ):
            with pytest.raises(ValueError, match="z must be positive and finite"):
                call()
    for call in (
        lambda: check_screen(1e300, 1e20),
        lambda: screen_intensity(1.0 + 0.5j, 1e300, 1e20, [0.0, 1.0]),
        lambda: verify_optical_theorem(1.0 + 0.5j, 1e300, 1e20),
    ):
        with pytest.raises(ValueError, match="edge phase overflows"):
            call()


def dense_missing_intensity_sigma(f_forward, omega, z, taper_eps, full=False):
    """Reference: the missing-intensity sum over every radial node at once, of the
    interference form or of the full form (|F|^2/r_d^2 added, true distance r_d)."""
    a = omega / z
    r, w = _radial_nodes(omega, z, taper_eps)
    phase = 0.5 * a * r * r
    taper = np.exp(-taper_eps * phase)
    osc = (f_forward * np.exp(1j * phase)).real
    if full:
        r_dist = z + r * r / (2.0 * z)
        deficit = -2.0 * osc / r_dist - np.abs(f_forward) ** 2 / r_dist**2
    else:
        deficit = -2.0 * osc / z
    return float(2.0 * np.pi * np.sum(deficit * taper * r * w))


@pytest.mark.parametrize("full", [False, True])
def test_chunked_missing_intensity_matches_dense_sum(full):
    # each of the two forms that one pass sums: the interference form, or the full form
    f, omega = 1.0 + 0.8j, 1.0
    for z, exact in ((1e4, True), (1e6, False)):
        for eps in _eps_schedule(omega, z)[::2]:
            assert (_radial_nodes(omega, z, eps)[0].size <= NODE_CHUNK) == exact
            got = _deficit_sums(f, omega, z, eps)[int(full)]
            want = dense_missing_intensity_sigma(f, omega, z, eps, full)
            if exact:  # one chunk: the same operations as the dense sum, bit for bit
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_missing_intensity_memory_bounded_by_chunk():
    # z = 1e6 has about 153k radial nodes: the dense sum peaked at 9.3 MiB,
    # of which the node and weight arrays themselves are 2.3 MiB
    z, omega = 1e6, 1.0
    eps = _eps_schedule(omega, z)[-1]  # the convergence-order check's smallest taper
    _deficit_sums(1.0 + 0.8j, omega, z, eps)  # warm the node cache
    tracemalloc.start()
    try:
        _deficit_sums(1.0 + 0.8j, omega, z, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_optical_theorem_sigma_values():
    assert optical_theorem_sigma(0.7, 1.0) == 0.0
    assert optical_theorem_sigma(1.0j, 1.0) == pytest.approx(4.0 * np.pi)
    f0 = 0.3
    assert optical_theorem_sigma(-1j * f0, 1.0) == pytest.approx(-4.0 * np.pi * f0)


def test_z_independence_of_converged_estimate():
    f = -0.6 + 1.3j  # at omega = 1, F = alpha
    got = [verify_optical_theorem(f, 1.0, z)["sigma_extrapolated"] for z in (1e4, 1e5)]
    assert abs(got[0] - got[1]) <= 1e-3 * abs(got[1])


def test_scattered_term_variant_converges_too():
    # verify's full form (|F|^2 term kept) extrapolates to the optical theorem as well;
    # at omega = 1 the forward amplitude F = omega^2 alpha is alpha itself
    omega = 1.0
    for f in (0.5 + 1.2j, -0.4 - 0.9j, 1.5 + 0.3j):
        report = verify_optical_theorem(f, omega)
        assert complex(*report["forward_amplitude"]) == f
        got = report["sigma_extrapolated_full"]
        want = optical_theorem_sigma(f, omega)
        scale = 4.0 * np.pi * abs(f) / omega
        assert abs(got - want) <= max(1e-3 * abs(want), 1e-4 * scale)


# --- full pipeline -----------------------------------------------------------------


def test_verify_absorbing_target():
    report = verify_optical_theorem(alpha_boundary(two_level_pair(0.0), 1.0), 1.0)
    assert report["converged"]
    assert report["sigma_closed_form"] > 0.0
    assert report["sigma_extrapolated"] > 0.0
    gap = abs(report["sigma_extrapolated"] - report["sigma_closed_form"])
    assert gap <= 1e-3 * abs(report["sigma_closed_form"])


def test_verify_amplifying_target():
    report = verify_optical_theorem(alpha_boundary(two_level_pair(1.0), 1.0), 1.0)
    assert report["converged"]
    assert report["sigma_closed_form"] < 0.0
    assert report["sigma_extrapolated"] < 0.0


def test_verify_equal_populations_null():
    report = verify_optical_theorem(alpha_boundary(two_level_pair(0.5), 1.0), 1.0)
    f = complex(*report["forward_amplitude"])
    scale = 4.0 * np.pi * max(abs(f), 1e-30)
    assert abs(report["sigma_closed_form"]) <= 1e-9 * max(scale, 1.0)
    assert abs(report["sigma_extrapolated"]) <= 1e-9 * max(scale, 1.0)
    assert report["converged"]


def test_verify_energy_bookkeeping():
    # amplifying target: integrated screen intensity exceeds the free beam
    report = verify_optical_theorem(alpha_boundary(two_level_pair(1.0), 1.0), 1.0)
    assert report["sigma_extrapolated"] < 0.0
    surplus = -np.asarray(report["sigma_estimates"])
    assert np.all(surplus > 0.0)


def test_verify_report_shape():
    report = verify_optical_theorem(alpha_boundary(two_level_pair(0.0), 1.0), 1.0)
    for key in (
        "omega",
        "sigma_closed_form",
        "eps_schedule",
        "sigma_estimates",
        "sigma_extrapolated",
        "sigma_estimates_full",
        "sigma_extrapolated_full",
        "converged",
    ):
        assert key in report
    assert len(report["sigma_estimates"]) == len(report["eps_schedule"])


def test_verify_passes_each_taper_once_with_single_variant_bits(monkeypatch):
    builds = []
    real = screen._radial_nodes
    monkeypatch.setattr(screen, "_radial_nodes", lambda *args: builds.append(args) or real(*args))
    omega = 1.005
    report = verify_optical_theorem(alpha_boundary(two_level_pair(1.0), omega), omega)
    schedule = report["eps_schedule"]
    assert len(builds) == len(schedule)  # both deficit forms from one pass per taper
    assert schedule == _eps_schedule(omega, DEFAULT_Z).tolist()
    # the default screen is one chunk, so each form's estimate is that form's dense sum
    # bit for bit, as a pass of its own would give, and each intercept is its form's fit
    f = complex(*report["forward_amplitude"])
    eps = np.array(schedule)
    for full, basis in ((False, []), (True, [(1.0 + eps**2) / eps])):
        single = [dense_missing_intensity_sigma(f, omega, DEFAULT_Z, e, full) for e in schedule]
        suffix = "_full" if full else ""
        assert report["sigma_estimates" + suffix] == single
        design = np.column_stack([np.ones_like(eps), eps, *basis])
        coeffs, *_ = np.linalg.lstsq(design, np.array(single) * (1.0 + eps**2), rcond=None)
        assert report["sigma_extrapolated" + suffix] == coeffs[0]


def test_verify_rejects_bad_omega():
    alpha = alpha_boundary(two_level_pair(1.0), 1.0)
    for omega in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="omega"):
            verify_optical_theorem(alpha, omega)
        with pytest.raises(ValueError, match="omega"):
            screen_intensity(1j, omega, 1e4, [0.0, 10.0])


def test_coarse_screen_quadrature_fails_the_screen_checks(monkeypatch):
    # at Gauss-Legendre order 3 the screen gaps grow to about 4e-6, 4e-5 and 1e-5: far past
    # the checks' 1e-9 bounds, though inside the 1e-3 of verify's converged verdict
    monkeypatch.setattr(screen, "_GL_ORDER", 3)
    checks = (validate.check_negative_sigma_routes, validate.check_screen_sign_blind, validate.check_z_independence)
    for check in checks:
        ok, detail = check()
        assert not ok, detail
