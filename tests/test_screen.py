"""Far-field screen layer: intensity pattern and the missing-intensity integral."""

import tracemalloc

import numpy as np
import pytest

from conftest import two_level_pair
from gainscatter import (
    alpha_boundary,
    default_eps_schedule,
    extrapolate_missing_intensity,
    missing_intensity_sigma,
    optical_theorem_sigma,
    screen_intensity,
    verify_optical_theorem,
)
from gainscatter import screen
from gainscatter.screen import DEFAULT_Z, NODE_CHUNK, _radial_nodes, check_screen


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


# --- missing intensity ------------------------------------------------------------


def test_missing_intensity_zero_amplitude():
    assert missing_intensity_sigma(0.0, 1.0, 1e4, 1.0, 1e3) == 0.0


def test_missing_intensity_analytic_kernel():
    # exact tapered value: sigma(eps) = -(4 pi/omega) Re[F/(eps - i)]
    f = 0.8 + 0.6j
    omega, z = 1.0, 1e4
    r_max = z / 10.0
    for eps in (0.6, 1.2, 4.8):
        got = missing_intensity_sigma(f, omega, z, eps, r_max)
        want = -(4.0 * np.pi / omega) * (f / (eps - 1j)).real
        assert got == pytest.approx(want, rel=1e-9)


def test_missing_intensity_pure_imaginary_convergence():
    # sigma(eps) = sigma(0)/(1+eps^2) for pure imaginary F: the schedule's
    # smallest feasible eps plus extrapolation recovers 4 pi f0
    f0 = 0.7
    omega, z = 1.0, 1e4
    r_max = z / 10.0
    schedule = default_eps_schedule(omega, z, r_max)
    estimates, got = extrapolate_missing_intensity(1j * f0, omega, z, schedule, r_max)
    want = 4.0 * np.pi * f0
    assert got == pytest.approx(want, rel=1e-3)
    smallest = estimates[-1]
    assert smallest == pytest.approx(want / (1.0 + schedule[-1] ** 2), rel=1e-9)


def test_missing_intensity_feasibility_errors():
    with pytest.raises(ValueError, match="taper_eps"):
        missing_intensity_sigma(1.0j, 1.0, 1e4, 1e-3, 1e3)  # taper undecayed at r_max
    with pytest.raises(ValueError, match="paraxial"):
        missing_intensity_sigma(1.0j, 1.0, 1e4, 1.0, 2e3)
    with pytest.raises(ValueError, match="far-field"):
        missing_intensity_sigma(1.0j, 1.0, 500.0, 1.0, 10.0)
    with pytest.raises(ValueError, match="positive"):
        missing_intensity_sigma(1.0j, 1.0, 1e4, -1.0, 1e3)


def test_check_screen_needs_a_finite_taper():
    # a screen no finite taper can damp, or a taper that is not finite, is named, not computed
    for r_max in (0.0, -1e3, 1e-200, 1e-152):  # the edge phase is 0, 50, 0 (underflow), 5e-309
        with pytest.raises(ValueError, match=f"infeasible screen radius r_max = {r_max:g}: need r_max > 0"):
            check_screen(1.0, 1e4, r_max)
    for eps in (np.inf, np.nan):
        with pytest.raises(ValueError, match="need a positive, finite taper_eps"):
            check_screen(1.0, 1e4, 1e3, [20.0, eps])
        with pytest.raises(ValueError, match="need a positive, finite taper_eps"):
            missing_intensity_sigma(1.0j, 1.0, 1e4, eps, 1e3)


def dense_missing_intensity_sigma(f_forward, omega, z, taper_eps, r_max, full=False):
    """Reference: the missing-intensity sum over every radial node at once, of the
    interference form or of the full form (|F|^2/r_d^2 added, true distance r_d)."""
    a = omega / z
    r, w = _radial_nodes(omega, z, taper_eps, r_max)
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
    # the interference form, or the full form that verify sums in the same pass
    f, omega = 1.0 + 0.8j, 1.0
    for z, exact in ((1e4, True), (1e6, False)):
        r_max = z / 10.0
        for eps in default_eps_schedule(omega, z, r_max)[::2]:
            assert (_radial_nodes(omega, z, eps, r_max)[0].size <= NODE_CHUNK) == exact
            if full:
                got = screen._deficit_sums(f, omega, z, eps, r_max, full=True)[1]
            else:
                got = missing_intensity_sigma(f, omega, z, eps, r_max)
            want = dense_missing_intensity_sigma(f, omega, z, eps, r_max, full)
            if exact:  # one chunk: the same operations as the dense sum, bit for bit
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_missing_intensity_memory_bounded_by_chunk():
    # z = 1e6 has about 153k radial nodes: the dense sum peaked at 9.3 MiB,
    # of which the node and weight arrays themselves are 2.3 MiB
    z, omega = 1e6, 1.0
    r_max = z / 10.0
    eps = default_eps_schedule(omega, z, r_max)[-1]  # the validate case's taper
    missing_intensity_sigma(1.0 + 0.8j, omega, z, eps, r_max)  # warm the node cache
    tracemalloc.start()
    try:
        missing_intensity_sigma(1.0 + 0.8j, omega, z, eps, r_max)
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
    f = -0.6 + 1.3j
    omega = 1.0
    got = []
    for z in (1e4, 1e5):
        schedule = default_eps_schedule(omega, z, z / 10.0)
        got.append(extrapolate_missing_intensity(f, omega, z, schedule, z / 10.0)[1])
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
    omega, r_max = 1.005, DEFAULT_Z / 10.0
    report = verify_optical_theorem(alpha_boundary(two_level_pair(1.0), omega), omega)
    schedule = report["eps_schedule"]
    assert len(builds) == len(schedule)  # both deficit forms from one pass per taper
    f = complex(*report["forward_amplitude"])
    single = [missing_intensity_sigma(f, omega, DEFAULT_Z, eps, r_max) for eps in schedule]
    assert report["sigma_estimates"] == single
    _, extrapolated = extrapolate_missing_intensity(f, omega, DEFAULT_Z, schedule, r_max)
    assert report["sigma_extrapolated"] == extrapolated
    # the full form is verify's alone: the default screen is one chunk, so each estimate is
    # the dense full-form sum bit for bit, and the intercept is the three-column fit's
    full = [dense_missing_intensity_sigma(f, omega, DEFAULT_Z, eps, r_max, full=True) for eps in schedule]
    assert report["sigma_estimates_full"] == full
    eps = np.array(schedule)
    design = np.column_stack([np.ones_like(eps), eps, (1.0 + eps**2) / eps])
    coeffs, *_ = np.linalg.lstsq(design, np.array(full) * (1.0 + eps**2), rcond=None)
    assert report["sigma_extrapolated_full"] == coeffs[0]


def test_verify_rejects_bad_omega():
    alpha = alpha_boundary(two_level_pair(1.0), 1.0)
    for omega in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="omega"):
            verify_optical_theorem(alpha, omega)
        with pytest.raises(ValueError, match="omega"):
            missing_intensity_sigma(1j, omega, 1e4, 1.0, 1e3)
        with pytest.raises(ValueError, match="omega"):
            screen_intensity(1j, omega, 1e4, [0.0, 10.0])
