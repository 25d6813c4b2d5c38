"""Built-in validation suite: canonical scenarios plus invariant checks.

Runs a fast, deterministic battery of invariant checks covering every
module, then runs the five scenario subcommands on each canonical scenario
file shipped with the package (``gainscatter/scenarios/*.txt``: a
ground-state absorber, a fully inverted amplifier, a thermal three-level
ladder), writes their CSV/JSON artifacts under ``artifacts/<file stem>/``,
and re-runs the writers to confirm byte-identical output.  Both signs of
the total cross section are exercised.

Each ``check_*`` is the one implementation of its criterion: it returns
``(ok, detail)``, its tolerance is written only here, and its defaults are
this command's quick sizes.  It takes its worst gap with ``np.max``, which
keeps a NaN where Python's ``max`` may drop one, so a NaN gap fails it.
The acceptance suite (``tests/test_acceptance.py``) calls the same checks
at larger sizes, criterion by criterion:

1. ``check_negative_sigma_routes``
2. ``check_screen_sign_blind`` (24 amplitudes)
3. ``check_identity_chain`` (50 targets)
4. ``check_detailed_balance`` and ``check_noise_temperature`` (100 ladders each)
5. ``check_sign_theorem`` (11 population ratios x 451 frequencies)
6. ``check_rayleigh_closure`` (100 amplitudes)
7. ``check_oracle_agreement`` (100 line sets) and ``check_kramers_kronig`` (p_e = 0, 1, 0.3)
8. ``check_medium_first_order``
9. every check, through ``run_validation``

Three checks that only item 9 runs pin what every route shares, so a wrong
constant that scales all routes together fails: ``check_reflection_symmetry``
(the pipeline's S-(w) = S+(-w) bit for bit, and the grid samples of S+/S- and
of alpha, summed or copied from their mirror samples, equal to the direct
sums bit for bit), ``check_sign_rule`` (the exact two-level Im alpha at the
line, which fixes the line weight p d^2/3) and ``check_energy_bookkeeping``
(F = omega^2 alpha at omega = 1.005, off the frequency where every power of
omega agrees).  Like ``check_reflection_symmetry`` for S-,
``check_crossing_symmetry`` also asserts alpha(-w + i eta) = conj
alpha(w + i eta) bit for bit on direct line sums off the grid, the ground on
which the curve copies its mirrored rows (``spectral._mirror_rows``).
"""

from __future__ import annotations

import filecmp
import shutil
import time
from importlib.resources import files
from pathlib import Path

import numpy as np

from .medium import dielectric, extinction, wavevector
from .response import (
    alpha_boundary,
    closed_form_lorentzian,
    im_alpha,
    kramers_kronig_residual,
    polarizability_curve,
    polarizability_dispersion,
)
from .scattering import (
    amplifier_bands,
    cross_sections,
    differential_elastic,
    scattering_amplitude,
    sigma_elastic,
    sigma_total_optical,
    sigma_total_spectral,
)
from .scenario import parse_scenario
from .screen import optical_theorem_sigma, verify_optical_theorem
from .spectral import (
    BROADEN_MARGIN,
    LineSpectrum,
    TargetLevels,
    broaden,
    detailed_balance_residual,
    line_spectrum,
    noise_temperature,
    noise_temperature_values,
    symmetric_spectrum,
    thermal_populations,
)

__all__ = ["run_validation"]


def _random_ladder(rng, n_max=6):
    """2 to ``n_max`` ascending levels, spaced by draws from [0.4, 1.4], and random symmetric dipoles."""
    n = int(rng.integers(2, n_max + 1))
    energies = np.concatenate(([0.0], np.cumsum(rng.uniform(0.4, 1.4, size=n - 1))))
    d2 = rng.uniform(0.0, 1.0, size=(n, n))
    d2 = 0.5 * (d2 + d2.T)
    np.fill_diagonal(d2, 0.0)
    return energies, d2


def _two_level(p_excited: float, gamma=0.01, span=3.0, points=2, dipole_sq=1.0):
    target = TargetLevels([0.0, 1.0], [[0.0, dipole_sq], [dipole_sq, 0.0]], [1.0 - p_excited, p_excited])
    return broaden(line_spectrum(target), np.linspace(-span, span, points), gamma)


def _signed_lines(omega, weight) -> LineSpectrum:
    """A line at each signed frequency omega: a transition at |omega| that absorbs (omega > 0) or emits (omega < 0)."""
    return LineSpectrum(np.abs(omega), np.where(omega > 0.0, weight, 0.0), np.where(omega < 0.0, weight, 0.0))


def check_population_conservation():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(40):
        energies, _ = _random_ladder(rng)
        t = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-3, 12)
        p = thermal_populations(energies, t)
        worst = np.max([abs(p.sum() - 1.0), -p.min()], initial=worst)
    return worst <= 1e-12, f"max deviation {worst:.2e}"


def check_reflection_symmetry():
    rng = np.random.default_rng(12)
    draws = np.random.default_rng([12, 1])  # frequencies; the targets stay those of ``rng``
    gamma = 0.01
    widest = None
    for _ in range(20):
        energies, d2 = _random_ladder(rng)
        p = rng.dirichlet(np.ones(energies.size))
        lines = line_spectrum(TargetLevels(energies, d2, p))
        span = lines.max_abs_omega + BROADEN_MARGIN * gamma
        pair = broaden(lines, [-span, span], gamma)
        w = draws.uniform(-span, span, 16)
        # S-(w) = S+(-w) bit for bit: negation is exact, so both sum the same squares (each target
        # is its own reflection: S-(w) sums the row at w reversed, S+(-w) the row at -w)
        if not np.array_equal(pair.sums_at(w)[1], pair.sums_at(-w)[0]):
            return False, "S-(w) differs from S+(-w)"
        if widest is None or lines.n_lines > widest.lines.n_lines:
            widest = pair
    # the grid samples of S+/S- and of alpha, summed or copied (spectral._mirror_rows), hold
    # the direct sums' bits: on the target with the most lines (30, its own reflection), where
    # 66 of this grid's 100 w < 0 samples have no exact mirror sample, so both kinds of row are read
    span = widest.grid[-1]
    grid = np.linspace(-span, span, 201)
    sampled = broaden(widest.lines, grid, gamma)
    if not np.array_equal(np.stack((sampled.s_plus, sampled.s_minus)), sampled.sums_at(grid)):
        return False, "grid samples differ from the direct S+/S- sums"
    if not np.array_equal(polarizability_curve(sampled).alpha, alpha_boundary(sampled, grid)):
        return False, "curve alpha differs from the direct boundary-value sums"
    return True, (
        "S-(w) = S+(-w) bitwise, 20 random targets x 16 frequencies; "
        "grid samples of S+/S- and alpha = direct sums"
    )


def check_detailed_balance(samples=20, seed=13):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        energies, d2 = _random_ladder(rng)
        t = 10.0 ** rng.uniform(-1, 2)
        lines = line_spectrum(TargetLevels.from_temperature(energies, d2, t))
        worst = np.max(detailed_balance_residual(lines, t), initial=worst)
    return worst <= 1e-12, f"max residual {worst:.2e}"


def check_noise_temperature(samples=20, seed=14):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        energies, d2 = _random_ladder(rng)
        t = 10.0 ** rng.uniform(-1, 2)
        lines = line_spectrum(TargetLevels.from_temperature(energies, d2, t))
        tn = noise_temperature_values(lines.omega0, lines.absorb, lines.emit)  # NaN where undefined; np.max keeps it
        worst = np.max(np.abs(tn - t) / t, initial=worst)
    pair = _two_level(0.9)
    inverted_tn = noise_temperature(pair, 1.0)
    if inverted_tn is None:
        return False, "inverted T_n undefined"
    ok = worst <= 1e-10 and inverted_tn < 0.0
    return ok, f"thermal recovery {worst:.2e}; inverted T_n = {inverted_tn:.3f}"


def check_symmetric_nonneg():
    pair = _two_level(0.7, points=4801)
    s_bar = symmetric_spectrum(pair)
    return bool(np.all(s_bar >= 0.0)), f"min S_bar {s_bar.min():.2e}"


def check_oracle_agreement(samples=20, seed=15):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        n_lines = int(rng.integers(1, 4))
        gamma = 10.0 ** rng.uniform(-2.3, -1.3)
        lines = _signed_lines(np.sort(rng.uniform(-2.0, 2.0, n_lines)), rng.uniform(0.1, 1.0, n_lines))
        zeta = complex(rng.uniform(-2.5, 2.5), 10.0 ** rng.uniform(np.log10(gamma / 2), 0.5))
        got = polarizability_dispersion(lines, gamma, zeta)
        want = closed_form_lorentzian(lines, gamma, zeta)
        worst = np.max(abs(got - want) / abs(want), initial=worst)
    return worst <= 1e-10, f"max relative gap {worst:.2e}"


def check_sign_rule():
    # two-level line at omega = 1, d^2 = 1: pi [S+(1) - S-(1)] in closed form
    gamma = 0.01
    ground = (1.0 / gamma - gamma / (4.0 + gamma * gamma)) / 3.0
    gap = np.max([
        abs(float(im_alpha(_two_level(p_e, gamma), 1.0)) - want) / abs(want)
        for p_e, want in ((0.0, ground), (1.0, -ground))
    ])
    return gap <= 1e-12, (
        f"Im alpha(1) = (p_g - p_e)(1/gamma - gamma/(4 + gamma^2))/3, relative gap {gap:.2e}"
    )


def check_linearity():
    gamma = 0.01
    a = LineSpectrum([0.8], [0.5], [0.0])
    b = LineSpectrum([1.6], [0.25], [0.0])
    union = LineSpectrum([0.8, 1.6], [0.5, 0.25], [0.0, 0.0])
    zeta = 1.1 + 0.02j
    total = polarizability_dispersion(union, gamma, zeta)
    parts = polarizability_dispersion(a, gamma, zeta) + polarizability_dispersion(b, gamma, zeta)
    gap = abs(total - parts) / abs(total)
    return gap <= 1e-13, f"relative gap {gap:.2e}"


def check_kramers_kronig(p_excited=(0.0,)):
    residual = np.max(
        [kramers_kronig_residual(polarizability_curve(_two_level(p, span=8.0, points=16385))) for p in p_excited]
    )
    return residual <= 1e-4, f"residual {residual:.2e}"


def check_crossing_symmetry():
    pair = _two_level(0.3, points=4801)
    alpha = closed_form_lorentzian(pair.lines, pair.gamma, pair.grid + 1e-3j)
    # the grid is symmetric, so alpha(-omega + i eta) sits at the reversed index
    gap = np.abs(alpha[::-1] - np.conj(alpha)).max() / np.abs(alpha).max()
    if gap > 1e-10:
        return False, f"max gap {gap:.2e}"
    # alpha(-w + i eta) = conj alpha(w + i eta) bit for bit off the grid, on direct line sums
    # (see spectral._mirror_rows).  A row's sum does not depend on the other rows of its
    # call, so -w and w share one.
    rng = np.random.default_rng(19)
    gamma = 0.01
    for n_lines in (3, 40):  # numpy sums up to 7 terms in turn, more in 8 interleaved partial sums
        lines = _signed_lines(np.sort(rng.uniform(-3.0, 3.0, n_lines)), rng.uniform(0.0, 1.0, n_lines))
        span = lines.max_abs_omega + BROADEN_MARGIN * gamma
        w = rng.uniform(-span, span, 64)
        both = np.concatenate((-w, w))
        boundary = alpha_boundary(broaden(lines, [-span, span], gamma), both)
        offset = closed_form_lorentzian(lines, gamma, both + 1e-3j)
        for eta, alpha in ((0.0, boundary), (1e-3, offset)):
            if not np.array_equal(alpha[: w.size], np.conj(alpha[w.size :])):
                return False, f"alpha(-w + i eta) differs from conj alpha(w + i eta) at eta = {eta:g}"
    return True, f"max gap {gap:.2e}; bitwise at eta = 0 and 1e-3, random sets of 3 and 40 lines x 64 frequencies"


def check_rayleigh_closure(samples=20, seed=16):
    rng = np.random.default_rng(seed)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    theta = 0.5 * np.pi * (nodes + 1.0)
    w = 0.5 * np.pi * weights
    worst = 0.0
    for _ in range(samples):
        alpha = complex(rng.normal(), rng.normal())
        omega = 10.0 ** rng.uniform(-1, 1)
        integral = 2.0 * np.pi * np.sum(
            differential_elastic(alpha, omega, theta) * np.sin(theta) * w
        )
        want = sigma_elastic(alpha, omega)
        worst = np.max(abs(integral - want) / want, initial=worst)
    return worst <= 1e-9, f"max relative gap {worst:.2e}"


def _chain_pair(rng):
    """A random target of 2 to 4 levels, broadened on a grid that resolves gamma/4."""
    gamma = 0.01
    energies, d2 = _random_ladder(rng, n_max=4)
    lines = line_spectrum(TargetLevels(energies, d2, rng.dirichlet(np.ones(energies.size))))
    span = lines.max_abs_omega + 0.5
    points = int(np.ceil(8.0 * span / gamma)) + 1
    return broaden(lines, np.linspace(-span, span, points), gamma)


def check_identity_chain(samples=10, seed=17):
    rng = np.random.default_rng(seed)
    worst = 0.0
    compared = 0
    for _ in range(samples):
        pair = _chain_pair(rng)
        omegas = pair.grid[pair.grid > 0.0]
        sig_opt = sigma_total_optical(alpha_boundary(pair, omegas), omegas)
        sig_spec = sigma_total_spectral(pair, omegas)
        defined = sig_spec != 0.0
        compared += int(defined.sum())
        if np.any(defined):
            gap = np.abs(sig_opt - sig_spec)[defined] / np.abs(sig_spec)[defined]
            worst = np.max(gap, initial=worst)
    ok = compared > 0 and worst <= 1e-8
    return ok, f"max relative gap {worst:.2e} over {compared} points"


def check_sign_theorem(ratios=(0.0, 0.1, 0.5, 0.9, 1.1, 2.0, 10.0, np.inf), omega_count=181):
    omegas = np.linspace(0.2, 2.0, omega_count)
    compared = 0
    for r in ratios:
        p_e = 1.0 if np.isinf(r) else r / (1.0 + r)
        pair = _two_level(p_e)
        sigma = sigma_total_spectral(pair, omegas)
        tn = noise_temperature_values(omegas, *pair.sums_at(omegas))
        both = ~np.isnan(tn) & (sigma != 0.0)
        compared += int(both.sum())
        mismatch = both & (np.sign(sigma) != np.sign(tn))
        if np.any(mismatch):
            return False, f"sign mismatch at ratio {r}, omega {omegas[np.argmax(mismatch)]}"
    return compared > 0, f"{len(ratios)} population ratios, {compared} points"


def check_equal_population_null():
    pair = _two_level(0.5)
    omegas = np.linspace(0.2, 2.0, 181)
    sigma = sigma_total_spectral(pair, omegas)
    scale = 4.0 * np.pi**2 * float(pair.sums_at(1.0)[0])
    ok = np.abs(sigma).max() <= 1e-10 * scale
    return ok, f"max |sigma_tot| {np.abs(sigma).max():.2e} vs scale {scale:.2e}"


def check_bands_both_signs():
    found = []  # the absorber, the amplifier, and the amplifier in a unit where every |sigma_tot| < 1e-12
    for p_excited, dipole_sq in ((0.0, 1.0), (1.0, 1.0), (1.0, 1e-15)):
        pair = _two_level(p_excited, points=4801, dipole_sq=dipole_sq)
        found.append(amplifier_bands(cross_sections(polarizability_curve(pair)), pair))
    bands_g, bands_e, bands_t = found
    ok = bands_g == [] and len(bands_e) == 1 and bands_e[0][0] < 1.0 < bands_e[0][1] and bands_t == bands_e
    return ok, f"absorber {bands_g}, amplifier {bands_e}, amplifier at d^2 = 1e-15 {bands_t}"


def check_medium_first_order():
    densities = np.logspace(-7, -5, 9)
    for p_e in (0.0, 1.0):
        pair = _two_level(p_e)
        alpha = complex(alpha_boundary(pair, 1.0))
        sigma = float(sigma_total_optical(alpha, 1.0))
        rel = []
        for n in densities:
            h_exact = float(extinction(wavevector(dielectric(alpha, n), 1.0)))
            rel.append(abs(h_exact - n * sigma) / abs(n * sigma))
        slope = np.polyfit(np.log(densities), np.log(rel), 1)[0]
        if not 0.8 <= slope <= 1.2:
            return False, f"slope {slope:.3f} for p_e={p_e}"
    return True, "first-order error scales linearly in density"


def check_medium_sign_chain():
    for p_e, sign in ((0.0, 1.0), (1.0, -1.0)):
        pair = _two_level(p_e)
        alpha = complex(alpha_boundary(pair, 1.0))
        h = float(extinction(wavevector(dielectric(alpha, 1e-6), 1.0)))
        if np.sign(h) != sign or np.sign(alpha.imag) != sign:
            return False, f"sign chain broken for p_e={p_e}"
    return True, "sign(h) = sign(Im alpha) = sign(sigma_tot)"


def check_gain_loss_duality():
    pair_a = _two_level(0.25)
    pair_b = _two_level(0.75)
    omegas = np.linspace(-2.5, 2.5, 501)
    im_a = im_alpha(pair_a, omegas)
    im_b = im_alpha(pair_b, omegas)
    gap = np.abs(im_a + im_b).max() / np.abs(im_a).max()
    return gap <= 1e-12, f"max |Im a + Im a_flipped| {gap:.2e} relative"


def check_negative_sigma_routes():
    pair = _two_level(1.0)
    alpha = alpha_boundary(pair, 1.0)
    sigma_optical = float(sigma_total_optical(alpha, 1.0))
    sigma_spectral = float(sigma_total_spectral(pair, 1.0))
    report = verify_optical_theorem(alpha, 1.0)
    values = [sigma_optical, sigma_spectral, report["sigma_extrapolated"]]
    ok = all(v < 0.0 for v in values) and report["converged"]
    spread = (max(values) - min(values)) / abs(sigma_optical)
    ok = ok and spread <= 1e-9
    return ok, f"sigma_tot ~ {sigma_optical:.4e}, route spread {spread:.2e}"


def check_screen_sign_blind(samples=8, seed=18):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(samples):  # F cycles through the four quadrants
        f = complex(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
        f = complex(f.real * (-1) ** i, f.imag * (-1) ** (i // 2))
        got = verify_optical_theorem(f, 1.0)["sigma_extrapolated"]  # at omega = 1, F = alpha
        want = optical_theorem_sigma(f, 1.0)
        worst = np.max(abs(got - want) / abs(want), initial=worst)
    return worst <= 1e-9, f"max relative gap {worst:.2e}"


def check_screen_convergence_order():
    z, omega = 1e6, 1.0
    f = 1.0 + 0.8j
    want = optical_theorem_sigma(f, omega)
    report = verify_optical_theorem(f, omega, z)  # at omega = 1, F = alpha
    eps = report["eps_schedule"][:0:-1]  # its five smallest tapers, ascending
    devs = [abs(s - want) for s in report["sigma_estimates"][:0:-1]]
    slope = np.polyfit(np.log(eps), np.log(devs), 1)[0]
    return 0.8 <= slope <= 1.2, f"fitted slope {slope:.3f}"


def check_z_independence():
    f = 0.4 + 1.1j
    results = [verify_optical_theorem(f, 1.0, z)["sigma_extrapolated"] for z in (1e4, 1e5)]
    gap = abs(results[0] - results[1]) / abs(results[1])
    return gap <= 1e-9, f"relative gap {gap:.2e}"


def check_energy_bookkeeping():
    omega = 1.005  # inside the line, and off 1, where omega^2 alpha and omega^3 alpha differ
    alpha = complex(alpha_boundary(_two_level(1.0), omega))
    f = scattering_amplitude(alpha, omega)
    sigma = float(sigma_total_optical(alpha, omega))
    gap = abs(optical_theorem_sigma(f, omega) - sigma) / abs(sigma)
    deficit = verify_optical_theorem(alpha, omega)["sigma_estimates"][-1]  # the smallest taper
    # integral of (I - I0)/I0 is minus the deficit integral
    ok = -deficit > 0.0 and gap <= 1e-12
    return ok, f"screen surplus {-deficit:.3e} (sigma_tot < 0); amplitude gap {gap:.2e}"


def _scenario_files() -> list:
    """The canonical scenario files shipped with the package, sorted by name."""
    found = files(__package__).joinpath("scenarios").iterdir()
    return sorted((f for f in found if f.name.endswith(".txt")), key=lambda f: f.name)


def _write_artifacts(out_dir: Path) -> None:
    """The five subcommands' artifacts of each canonical scenario, under ``out_dir/<file stem>``."""
    from . import cli  # local import: cli imports this module

    for resource in _scenario_files():
        pipeline = cli.Pipeline(parse_scenario(resource.read_text(), source=str(resource)))
        target_dir = out_dir / resource.name.removesuffix(".txt")
        cli.cmd_spectrum(pipeline, target_dir, quiet=True)
        cli.cmd_response(pipeline, target_dir, quiet=True)
        cli.cmd_cross_sections(pipeline, target_dir, quiet=True)
        cli.cmd_medium(pipeline, target_dir, quiet=True)
        cli.cmd_verify(pipeline, target_dir, quiet=True)


def check_artifact_determinism(out_dir: Path):
    first = out_dir / "artifacts"
    second = out_dir / "recheck"
    for directory in (first, second):
        if directory.exists():
            shutil.rmtree(directory)
        _write_artifacts(directory)
    mismatched = []
    for path in sorted(first.rglob("*")):
        if path.is_dir():
            continue
        twin = second / path.relative_to(first)
        if not twin.exists() or not filecmp.cmp(path, twin, shallow=False):
            mismatched.append(str(path.relative_to(first)))
    shutil.rmtree(second)
    return not mismatched, (
        f"{sum(1 for p in first.rglob('*') if p.is_file())} artifacts byte-identical"
        if not mismatched
        else f"mismatch: {mismatched}"
    )


def run_validation(out_dir: Path, quiet: bool = False) -> int:
    """Run every check, print a pass/fail table, return a process exit code."""
    out_dir = Path(out_dir)
    checks = [
        ("spectral.population_conservation", check_population_conservation),
        ("spectral.reflection_symmetry", check_reflection_symmetry),
        ("spectral.detailed_balance", check_detailed_balance),
        ("spectral.noise_temperature", check_noise_temperature),
        ("spectral.symmetric_nonneg", check_symmetric_nonneg),
        ("response.oracle_agreement", check_oracle_agreement),
        ("response.sign_rule", check_sign_rule),
        ("response.linearity", check_linearity),
        ("response.kramers_kronig", check_kramers_kronig),
        ("response.crossing_symmetry", check_crossing_symmetry),
        ("scattering.rayleigh_closure", check_rayleigh_closure),
        ("scattering.identity_chain", check_identity_chain),
        ("scattering.sign_theorem", check_sign_theorem),
        ("scattering.equal_population_null", check_equal_population_null),
        ("scattering.amplifier_bands", check_bands_both_signs),
        ("medium.first_order_consistency", check_medium_first_order),
        ("medium.sign_chain", check_medium_sign_chain),
        ("medium.gain_loss_duality", check_gain_loss_duality),
        ("screen.negative_sigma_routes", check_negative_sigma_routes),
        ("screen.sign_blindness", check_screen_sign_blind),
        ("screen.convergence_order", check_screen_convergence_order),
        ("screen.z_independence", check_z_independence),
        ("screen.energy_bookkeeping", check_energy_bookkeeping),
        ("cli.artifact_determinism", lambda: check_artifact_determinism(out_dir)),
    ]
    failures = 0
    timings = []
    start = time.perf_counter()
    for name, check in checks:
        t0 = time.perf_counter()
        try:
            ok, detail = check()
        except Exception as exc:  # a crashing check is a failing check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        timings.append((elapsed, name))
        if not ok:
            failures += 1
        if not quiet:
            print(f"{'PASS' if ok else 'FAIL'}  {name:<40} {elapsed:6.2f}s  {detail}")
    total = time.perf_counter() - start
    if not quiet:
        slowest = ", ".join(f"{name} {t:.2f}s" for t, name in sorted(timings, reverse=True)[:2])
        passed = len(checks) - failures
        print(f"{passed}/{len(checks)} checks passed in {total:.1f}s (slowest: {slowest})")
    return 0 if failures == 0 else 2
