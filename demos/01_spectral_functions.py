"""Spectral densities of a dipole target: transitions, broadening, noise temperature.

A target stores its state in the populations.  Each level pair with a
dipole is one transition at omega_0 > 0 that absorbs with weight
p_lower d^2/3 and emits with weight p_upper d^2/3.  The S+ lines are the
absorb weights at +omega_0 and the emit weights at -omega_0, which is the
same thing as an S- line at +omega_0 (the target can emit there).  The
noise temperature reads the asymmetry of each transition off as a signed
temperature; an inverted transition emits more than it absorbs.
"""

import numpy as np

from gainscatter import (
    LineSpectrum,
    TargetLevels,
    broaden,
    detailed_balance_residual,
    line_spectrum,
    noise_temperature,
    noise_temperature_values,
    thermal_populations,
)

omega_0 = 1.0
dipole_sq = [[0.0, 1.0], [1.0, 0.0]]

print("=== a two-level transition and its S+ lines ===")
for name, populations in [
    ("ground state ", [1.0, 0.0]),
    ("inverted     ", [0.0, 1.0]),
    ("equal split  ", [0.5, 0.5]),
]:
    lines = line_spectrum(TargetLevels([0.0, omega_0], dipole_sq, populations))
    entries = ", ".join(f"{w:+.1f} (weight {wt:.3f})" for w, wt in zip(lines.omega, lines.weight))
    print(f"  {name}: absorb {lines.absorb[0]:.3f}, emit {lines.emit[0]:.3f}; S+ lines at {entries}")

print()
print("=== thermal populations and detailed balance, transition by transition ===")
energies = [0.0, omega_0, 2.5 * omega_0]
ladder_dipole_sq = [[0.0, 1.0, 0.4], [1.0, 0.0, 0.7], [0.4, 0.7, 0.0]]
for t in (0.5, 2.0, -0.5):
    p = thermal_populations(energies, t)
    lines = line_spectrum(TargetLevels(energies, ladder_dipole_sq, p))
    tn = noise_temperature_values(lines.omega0, lines.absorb, lines.emit)
    print(f"  T = {t:+.2f}: populations [{p[0]:.3f}, {p[1]:.3f}, {p[2]:.3f}]")
    for w0, absorb, emit, tn_k in zip(lines.omega0, lines.absorb, lines.emit, tn):
        transition = LineSpectrum([w0], [absorb], [emit])
        tag = f"residual {detailed_balance_residual(transition, t):.1e}" if t > 0 else "inverted (no thermal check)"
        print(f"    omega_0 = {w0:.1f}: absorb {absorb:.4f}, emit {emit:.4f}, T_n = {tn_k:+.4f}, {tag}")

print()
print("=== broadened densities around the line ===")
gamma = 0.01
target = TargetLevels([0.0, omega_0], dipole_sq, [0.25, 0.75])  # pumped 3:1
pair = broaden(line_spectrum(target), np.linspace(-3.0, 3.0, 2401), gamma)
for w in (0.9, 1.0, 1.1):
    s_plus, s_minus = pair.sums_at(w)  # the line model at any frequency, both sums at once
    print(f"  omega = {w:.2f}: S+ = {s_plus:9.4f}, S- = {s_minus:9.4f}, T_n = {noise_temperature(pair, w):+.4f}")
print("  S- dominates near the line and T_n < 0: the target is an amplifier there.")
