"""Acceptance suite: one test per acceptance criterion, stated tolerances.

Each criterion calls the ``gainscatter.validate`` check that implements
it, with this suite's larger sample counts and its own seeds, and asserts
``ok`` with the check's detail; the tolerances live in the checks.  The
criterion -> check map is in the ``validate`` module docstring.  What a
criterion asserts beyond its check (wall time, the sign split of the
amplitudes, the exp/tanh forms, the three-level crossing, the slab
profile) is asserted here.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines (each test also prints an ACCEPTANCE summary line,
visible with -s).
"""

import filecmp
import sys
import time

import numpy as np

from gainscatter import (
    LineSpectrum,
    broaden,
    intensity_profile,
    line_spectrum,
    noise_temperature,
    polarizability_dispersion,
    response,
    scattering,
    sigma_total_optical,
    sigma_total_spectral,
    spectral,
    validate,
)
from gainscatter.spectral import TargetLevels
from gainscatter.validate import run_validation


def report(number, detail):
    print(f"ACCEPTANCE {number:02d} PASS - {detail}")


def test_criterion_1_negative_total_cross_section():
    # fully inverted two-level: sigma_tot(omega_0) < 0 by all three routes,
    # mutual agreement within 1e-3 relative, under 5 s
    start = time.perf_counter()
    ok, detail = validate.check_negative_sigma_routes()
    assert ok, detail
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"{detail}, all 3 routes < 0, {elapsed:.2f}s")


def test_criterion_2_optical_theorem_closure(monkeypatch):
    # >= 20 random amplitudes spanning both signs of Im F; screen estimate
    # within 1e-3 relative of (4 pi / omega) Im F; under 10 s
    amplitudes = []  # every F the check draws, recorded as it asks for the closed form
    closed_form = validate.optical_theorem_sigma
    monkeypatch.setattr(
        validate, "optical_theorem_sigma", lambda f, omega: amplitudes.append(f) or closed_form(f, omega)
    )
    start = time.perf_counter()
    ok, detail = validate.check_screen_sign_blind(samples=24, seed=100)
    elapsed = time.perf_counter() - start
    assert ok, detail
    assert len(amplitudes) == 24
    assert sum(f.imag > 0.0 for f in amplitudes) >= 8
    assert sum(f.imag < 0.0 for f in amplitudes) >= 8
    assert elapsed < 10.0
    report(2, f"24 amplitudes, worst {detail.removeprefix('max ')}, {elapsed:.2f}s")


def test_criterion_3_identity_chain(monkeypatch):
    # >= 50 random targets: optical-form vs spectral-form sigma_tot within
    # 1e-8 at every defined grid point; exp and tanh forms within 1e-12
    compared = []  # (pair, omegas, sigma) for every target the check compares
    spectral_route = validate.sigma_total_spectral
    monkeypatch.setattr(
        validate,
        "sigma_total_spectral",
        lambda pair, omegas: compared.append((pair, omegas, s := spectral_route(pair, omegas))) or s,
    )
    ok, detail = validate.check_identity_chain(samples=50, seed=101)
    assert ok, detail
    assert len(compared) == 50

    rng = np.random.default_rng(101)
    worst_spot = 0.0
    worst_forms = 0.0
    for pair, omegas, sigma in compared:
        # spot-check the quadrature route through the dispersion integral
        for w in rng.uniform(0.1, pair.lines.max_abs_omega, size=2):
            alpha = polarizability_dispersion(pair, complex(w, 1e-12))
            s_o = float(sigma_total_optical(alpha, w))
            s_s = float(sigma_total_spectral(pair, w))
            if s_s != 0.0:
                worst_spot = max(worst_spot, abs(s_o - s_s) / abs(s_s))

        # exp form vs tanh form, reimplemented here as the property check;
        # omega/T_n needs the log1p branch near the crossover or its own
        # rounding noise swamps the identity
        s_plus = pair.s_plus_at(omegas)
        s_minus = pair.s_minus_at(omegas)
        defined = (np.minimum(s_plus, s_minus) > 0.0) & (sigma != 0.0)
        sp, sm, om = s_plus[defined], s_minus[defined], omegas[defined]
        near = (sp < 2.0 * sm) & (sm < 2.0 * sp)
        x = np.where(near, np.log1p((sp - sm) / sm), np.log(sp / sm))
        eq_exp = 4.0 * np.pi**2 * om * -np.expm1(-x) * sp
        eq_tanh = 8.0 * np.pi**2 * om * np.tanh(0.5 * x) * 0.5 * (sp + sm)
        forms = np.abs(eq_exp - eq_tanh) / np.abs(eq_exp)
        worst_forms = max(worst_forms, float(forms.max()))
    assert worst_spot <= 1e-8
    assert worst_forms <= 1e-12
    report(3, f"50 targets: chain {detail}, spot gap {worst_spot:.2e}, "
              f"form gap {worst_forms:.2e}")


def test_criterion_4_detailed_balance_and_noise_temperature():
    # >= 100 thermal ladders, T in [0.1, 100]: exact residual <= 1e-12 and
    # T_n recovers T within 1e-10 at every line frequency
    balance_ok, balance = validate.check_detailed_balance(samples=100, seed=102)
    tn_ok, tn = validate.check_noise_temperature(samples=100, seed=102)
    assert balance_ok, balance
    assert tn_ok, tn
    report(4, f"100 ladders: {balance}, T_n {tn}")


def test_criterion_5_sign_theorem_sweep():
    # sign(sigma_tot) = sign(T_n) across population ratios and frequencies,
    # with coincident zero crossings at grid resolution
    ratios = (0.0, 0.1, 0.2, 0.5, 0.8, 1.0, 1.25, 2.0, 5.0, 10.0, np.inf)
    ok, detail = validate.check_sign_theorem(ratios=ratios, omega_count=451)
    assert ok, detail

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
    report(5, f"{detail} clean; crossings coincide at cells {sigma_flips.tolist()}")


def test_criterion_6_rayleigh_closure():
    # solid-angle quadrature of the differential cross section reproduces
    # (8 pi / 3) omega^4 |alpha|^2 within 1e-9
    ok, detail = validate.check_rayleigh_closure(samples=100, seed=103)
    assert ok, detail
    report(6, f"100 instances, worst {detail.removeprefix('max ')}")


def test_criterion_7_dispersion_oracle_and_kramers_kronig():
    # quadrature alpha vs closed form within 1e-6 on >= 100 random
    # (lines, zeta); Kramers-Kronig reconstruction residual <= 1e-4, which
    # is 170x the 5.9e-7 that Maclaurin's sum reads on all three curves
    oracle_ok, oracle = validate.check_oracle_agreement(samples=100, seed=104)
    kk_ok, kk = validate.check_kramers_kronig(p_excited=(0.0, 1.0, 0.3))
    assert oracle_ok, oracle
    assert kk_ok, kk
    report(7, f"100 oracle pairs, worst {oracle.removeprefix('max ')}; KK {kk}")


def test_criterion_8_dilute_medium_law():
    # |h_exact - n sigma| / |n sigma| linear in n (log-log slope 1 +- 0.2)
    # for both signs; amplifier slab grows as exp(|h| z) to 1e-12
    ok, detail = validate.check_medium_first_order()
    assert ok, detail

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


def patch_everywhere(monkeypatch, original, mutant):
    """Bind ``mutant`` in place of ``original`` in every gainscatter module that binds it."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "gainscatter":
            if getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, mutant)


def test_battery_catches_route_preserving_mutations(monkeypatch):
    # each mutation scales (or flips) every route to sigma_tot together, so
    # only a check that pins an absolute value can see it
    line_spectrum, amplitude = spectral.line_spectrum, scattering.scattering_amplitude

    def line_weight_over_1_5(target):  # p d^2 / 1.5 in place of p d^2 / 3
        lines = line_spectrum(target)
        return LineSpectrum(lines.omega0, 2.0 * lines.absorb, 2.0 * lines.emit)

    def absorb_and_emit_swapped(target):  # net weight c = b - a in place of a - b
        lines = line_spectrum(target)
        return LineSpectrum(lines.omega0, lines.emit, lines.absorb)

    def amplitude_omega_cubed(alpha, omega, e_i, e_f):  # F = omega^3 alpha in place of omega^2 alpha
        return omega * amplitude(alpha, omega, e_i, e_f)

    for original, mutant, check in (
        (line_spectrum, line_weight_over_1_5, validate.check_sign_rule),
        (line_spectrum, absorb_and_emit_swapped, validate.check_sign_rule),  # the ground state's Im alpha(1) flips
        (amplitude, amplitude_omega_cubed, validate.check_energy_bookkeeping),
    ):
        with monkeypatch.context() as patched:
            patch_everywhere(patched, original, mutant)
            ok, detail = check()
        assert not ok, f"{check.__name__} passes under {mutant.__name__}: {detail}"


def test_kramers_kronig_and_reflection_checks_catch_shifted_curve_copies(monkeypatch):
    # each mirrored alpha row copies the conjugate of its mirror row's neighbour (source
    # grid.size - 2 - i), within the summed omega > 0 half: at its start the neighbour wraps
    # round to the last row, so on the KK grid alpha(-h) takes conj(alpha(grid[-1])), which
    # only a check that reads every central sample sees.  The rest of the shift translates the
    # omega < 0 half by one sample, which the Hilbert transform commutes with, so only the
    # bit-for-bit curve comparison sees it.
    mirror_rows = response._mirror_rows

    def neighbour_sources(grid, n):
        copied, sources, summed = mirror_rows(grid, n)
        return copied, n + (sources - n - 1) % (grid.size - n), summed

    monkeypatch.setattr(response, "_mirror_rows", neighbour_sources)
    for check in (validate.check_kramers_kronig, validate.check_reflection_symmetry):
        ok, detail = check()
        assert not ok, f"{check.__name__} passes under neighbour_sources: {detail}"
