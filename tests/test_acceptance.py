"""Acceptance suite: one test per acceptance criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines (each test also prints an ACCEPTANCE summary line,
visible with -s).
"""

import filecmp
import time

import numpy as np

from conftest import random_ladder, random_target, two_level_pair
from gainscatter import (
    LineSpectrum,
    alpha_boundary,
    broaden,
    closed_form_lorentzian,
    detailed_balance_residual,
    dielectric,
    differential_elastic,
    extinction,
    intensity_profile,
    kramers_kronig_residual,
    line_spectrum,
    noise_temperature,
    optical_theorem_sigma,
    polarizability_curve,
    polarizability_dispersion,
    sigma_elastic,
    sigma_total_optical,
    sigma_total_spectral,
    verify_optical_theorem,
    wavevector,
)
from gainscatter.screen import default_eps_schedule, extrapolate_missing_intensity
from gainscatter.spectral import TargetLevels
from gainscatter.validate import run_validation


def report(number, detail):
    print(f"ACCEPTANCE {number:02d} PASS - {detail}")


def test_criterion_1_negative_total_cross_section():
    # fully inverted two-level: sigma_tot(omega_0) < 0 by all three routes,
    # mutual agreement within 1e-3 relative, under 5 s
    start = time.perf_counter()
    gamma, omega0 = 0.01, 1.0
    pair = two_level_pair(1.0, gamma=gamma)

    sigma_optical = float(sigma_total_optical(alpha_boundary(pair, omega0), omega0))
    sigma_spectral = float(sigma_total_spectral(pair, omega0))
    screen = verify_optical_theorem(alpha_boundary(pair, omega0), omega0)
    sigma_screen = screen["sigma_extrapolated"]

    values = [sigma_optical, sigma_spectral, sigma_screen]
    assert all(v < 0.0 for v in values)
    spread = (max(values) - min(values)) / abs(sigma_optical)
    assert spread <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"sigma_tot = {sigma_optical:.6e} < 0 by 3 routes, spread {spread:.1e}, "
              f"{elapsed:.2f}s")


def test_criterion_2_optical_theorem_closure():
    # >= 20 random amplitudes spanning both signs of Im F; screen estimate
    # within 1e-3 relative of (4 pi / omega) Im F; under 10 s
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    omega, z = 1.0, 1e4
    r_max = z / 10.0
    schedule = default_eps_schedule(omega, z, r_max)
    worst = 0.0
    n_positive = n_negative = 0
    for _ in range(24):
        f = complex(
            rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0),
            rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0),
        )
        n_positive += f.imag > 0.0
        n_negative += f.imag < 0.0
        _, got = extrapolate_missing_intensity(f, omega, z, schedule, r_max)
        want = optical_theorem_sigma(f, omega)
        worst = max(worst, abs(got - want) / abs(want))
    assert n_positive >= 8 and n_negative >= 8
    assert worst <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"24 amplitudes, worst relative gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_identity_chain():
    # >= 50 random targets: optical-form vs spectral-form sigma_tot within
    # 1e-8 at every defined grid point; exp and tanh forms within 1e-12
    rng = np.random.default_rng(101)
    gamma = 0.01
    worst_chain = 0.0
    worst_forms = 0.0
    for i in range(50):
        target = random_target(rng, n_max=4)
        lines = line_spectrum(target)
        span = lines.max_abs_omega + 0.5
        points = int(np.ceil(8.0 * span / gamma)) + 1  # resolves gamma/4 for the quadrature
        pair = broaden(lines, np.linspace(-span, span, points), gamma)
        omegas = pair.grid[pair.grid > 0.0]
        sig_opt = sigma_total_optical(alpha_boundary(pair, omegas), omegas)
        sig_spec = sigma_total_spectral(pair, omegas)
        defined = sig_spec != 0.0
        gap = np.abs(sig_opt - sig_spec)[defined] / np.abs(sig_spec)[defined]
        worst_chain = max(worst_chain, float(gap.max()))

        # spot-check the quadrature route through the dispersion integral
        for w in rng.uniform(0.1, lines.max_abs_omega, size=2):
            alpha = polarizability_dispersion(pair, complex(w, 1e-12))
            s_o = float(sigma_total_optical(alpha, w))
            s_s = float(sigma_total_spectral(pair, w))
            if s_s != 0.0:
                worst_chain = max(worst_chain, abs(s_o - s_s) / abs(s_s))

        # exp form vs tanh form, reimplemented here as the property check;
        # omega/T_n needs the log1p branch near the crossover or its own
        # rounding noise swamps the identity
        s_plus = pair.s_plus_at(omegas)
        s_minus = pair.s_minus_at(omegas)
        ok = (np.minimum(s_plus, s_minus) > 0.0) & (sig_spec != 0.0)
        sp, sm, om = s_plus[ok], s_minus[ok], omegas[ok]
        near = (sp < 2.0 * sm) & (sm < 2.0 * sp)
        x = np.where(near, np.log1p((sp - sm) / sm), np.log(sp / sm))
        eq_exp = 4.0 * np.pi**2 * om * -np.expm1(-x) * sp
        eq_tanh = 8.0 * np.pi**2 * om * np.tanh(0.5 * x) * 0.5 * (sp + sm)
        forms = np.abs(eq_exp - eq_tanh) / np.abs(eq_exp)
        worst_forms = max(worst_forms, float(forms.max()))
    assert worst_chain <= 1e-8
    assert worst_forms <= 1e-12
    report(3, f"50 targets: chain gap {worst_chain:.2e}, form gap {worst_forms:.2e}")


def test_criterion_4_detailed_balance_and_noise_temperature():
    # >= 100 thermal ladders, T in [0.1, 100]: exact residual <= 1e-12 and
    # T_n recovers T within 1e-10 at every line frequency
    rng = np.random.default_rng(102)
    worst_residual = 0.0
    worst_tn = 0.0
    for _ in range(100):
        energies, d2 = random_ladder(rng)
        t = 10.0 ** rng.uniform(-1.0, 2.0)
        lines = line_spectrum(TargetLevels.from_temperature(energies, d2, t))
        worst_residual = max(worst_residual, detailed_balance_residual(lines, t))
        for w in np.unique(np.abs(lines.omega)):
            tn = noise_temperature(lines, float(w))
            worst_tn = max(worst_tn, abs(tn - t) / t)
    assert worst_residual <= 1e-12
    assert worst_tn <= 1e-10
    report(4, f"100 ladders: residual {worst_residual:.2e}, T_n gap {worst_tn:.2e}")


def test_criterion_5_sign_theorem_sweep():
    # sign(sigma_tot) = sign(T_n) across population ratios and frequencies,
    # with coincident zero crossings at grid resolution
    ratios = [0.0, 0.1, 0.2, 0.5, 0.8, 1.0, 1.25, 2.0, 5.0, 10.0, np.inf]
    omegas = np.linspace(0.2, 2.0, 451)
    for r in ratios:
        p_e = 1.0 if np.isinf(r) else r / (1.0 + r)
        pair = two_level_pair(p_e)
        sigma = sigma_total_spectral(pair, omegas)
        tn = np.array(
            [np.nan if (v := noise_temperature(pair, float(w))) is None else v for w in omegas]
        )
        both = ~np.isnan(tn) & (sigma != 0.0)
        assert np.all(np.sign(sigma[both]) == np.sign(tn[both])), f"ratio {r}"

    # a genuine frequency crossing: three-level with one inverted line
    target = TargetLevels(
        [0.0, 0.5, 1.5],
        [[0.0, 1.0, 1.6], [1.0, 0.0, 1.0], [1.6, 1.0, 0.0]],
        [0.55, 0.15, 0.30],
    )
    pair = broaden(line_spectrum(target), np.linspace(-2.5, 2.5, 8001), 0.01)
    omegas = np.linspace(0.6, 1.4, 2001)
    sigma = sigma_total_spectral(pair, omegas)
    tn = np.array(
        [np.nan if (v := noise_temperature(pair, float(w))) is None else v for w in omegas]
    )
    sigma_flips = np.flatnonzero(np.diff(np.sign(sigma)) != 0)
    tn_flips = np.flatnonzero(np.diff(np.sign(tn)) != 0)
    assert sigma_flips.size == 2
    assert np.array_equal(sigma_flips, tn_flips)  # crossings share grid cells
    report(5, f"{len(ratios)} ratios clean; crossings coincide at cells {sigma_flips.tolist()}")


def test_criterion_6_rayleigh_closure():
    # solid-angle quadrature of the differential cross section reproduces
    # (8 pi / 3) omega^4 |alpha|^2 within 1e-9
    rng = np.random.default_rng(103)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    theta = 0.5 * np.pi * (nodes + 1.0)
    w = 0.5 * np.pi * weights
    worst = 0.0
    for _ in range(100):
        alpha = complex(rng.normal(), rng.normal())
        omega = 10.0 ** rng.uniform(-1.0, 1.0)
        want = sigma_elastic(alpha, omega)
        if want == 0.0:
            continue
        got = 2.0 * np.pi * np.sum(differential_elastic(alpha, omega, theta) * np.sin(theta) * w)
        worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-9
    report(6, f"100 instances, worst relative gap {worst:.2e}")


def test_criterion_7_dispersion_oracle_and_kramers_kronig():
    # quadrature alpha vs closed form within 1e-6 on >= 100 random
    # (lines, zeta); Kramers-Kronig reconstruction residual <= 1e-3
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        gamma = 10.0 ** rng.uniform(-2.3, -1.3)
        n_lines = int(rng.integers(1, 4))
        lines = LineSpectrum(
            np.sort(rng.uniform(-2.0, 2.0, n_lines)), rng.uniform(0.1, 1.0, n_lines)
        )
        span = 60.0
        points = int(np.ceil(2 * span * 8.0 / gamma)) + 1
        pair = broaden(lines, np.linspace(-span, span, points), gamma)
        zeta = complex(
            rng.uniform(-2.5, 2.5), 10.0 ** rng.uniform(np.log10(gamma / 2.0), 0.5)
        )
        got = polarizability_dispersion(pair, zeta)
        want = closed_form_lorentzian(lines, gamma, zeta)
        worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-6

    residuals = []
    for p_e in (0.0, 1.0, 0.3):
        pair = two_level_pair(p_e, span=8.0, points=16385)
        residuals.append(kramers_kronig_residual(polarizability_curve(pair)))
    assert max(residuals) <= 1e-3
    report(7, f"100 oracle pairs, worst {worst:.2e}; KK residual {max(residuals):.2e}")


def test_criterion_8_dilute_medium_law():
    # |h_exact - n sigma| / |n sigma| linear in n (log-log slope 1 +- 0.2)
    # for both signs; amplifier slab grows as exp(|h| z) to 1e-12
    densities = np.logspace(-7.0, -5.0, 9)
    for p_e in (0.0, 1.0):
        pair = two_level_pair(p_e)
        alpha = complex(alpha_boundary(pair, 1.0))
        sigma = float(sigma_total_optical(alpha, 1.0))
        rel = []
        for n in densities:
            h_exact = float(extinction(wavevector(dielectric(alpha, n), 1.0)))
            rel.append(abs(h_exact - n * sigma) / abs(n * sigma))
        slope = np.polyfit(np.log(densities), np.log(rel), 1)[0]
        assert 0.8 <= slope <= 1.2, f"p_e={p_e}: slope {slope}"

    h = -0.37
    z = np.linspace(0.0, 5.0, 64)
    profile = intensity_profile(h, z)
    assert np.allclose(profile, np.exp(abs(h) * z), rtol=1e-12, atol=0.0)
    report(8, f"slopes within [0.8, 1.2]; slab gain profile exact to 1e-12")


def test_criterion_9_validate_suite_deterministic(tmp_path):
    # full validate battery: green, under 60 s, byte-identical artifacts
    start = time.perf_counter()
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    assert run_validation(out_a, quiet=True) == 0
    assert run_validation(out_b, quiet=True) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    files = sorted(
        p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file()
    )
    assert files
    for rel in files:
        assert filecmp.cmp(out_a / rel, out_b / rel, shallow=False), rel
    report(9, f"two validate runs green in {elapsed:.1f}s, {len(files)} artifacts identical")
