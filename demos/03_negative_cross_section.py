"""The headline effect: a negative total cross section for inverted targets.

The optical theorem reads sigma_tot = 4 pi omega Im alpha, and nothing
pins the sign of Im alpha.  Sweep the excited-state population of a
two-level target through the inversion point and watch sigma_tot cross
zero exactly where the noise temperature flips sign; then list the
amplifier band of a partially inverted target.

sigma_in = sigma_tot - sigma_el is no test of inversion here.  A passive
target has sigma_tot = sigma_el + sigma_abs with sigma_abs >= 0, which
needs Im alpha >= (2/3) omega^3 |alpha|^2.  These lines (weight d^2/3 = 1/3
against gamma = 0.01) break that bound, so sigma_in < 0 on the ground-state
absorber too, where nothing emits.
"""

import numpy as np

from gainscatter import (
    BAND_LABELS,
    alpha_boundary,
    amplifier_bands,
    broaden,
    cross_sections,
    line_spectrum,
    noise_temperature,
    polarizability_curve,
    sigma_elastic,
    sigma_total_optical,
    TargetLevels,
)

gamma, omega_0 = 0.01, 1.0
dipole_sq = [[0.0, 1.0], [1.0, 0.0]]
grid = np.linspace(-3.0, 3.0, 4801)

print("=== population sweep at line center ===")
print("  p_excited   sigma_el      sigma_tot     T_n")
for p_e in (0.0, 0.25, 0.5, 0.75, 1.0):
    target = TargetLevels([0.0, omega_0], dipole_sq, [1.0 - p_e, p_e])
    pair = broaden(line_spectrum(target), grid, gamma)
    alpha = complex(alpha_boundary(pair, omega_0))
    s_el = float(sigma_elastic(alpha, omega_0))
    s_tot = float(sigma_total_optical(alpha, omega_0))
    tn = noise_temperature(pair, omega_0)
    tn_str = f"{tn:+.3f}" if tn is not None else "undefined"
    if p_e == 0.0:
        ground_ratio = s_el / s_tot
    print(f"  {p_e:9.2f}   {s_el:11.4e}  {s_tot:+12.4e}  {tn_str}")
print("  sigma_el stays non-negative; sigma_tot changes sign with the inversion.")
print(f"  At p_excited = 0, sigma_el/sigma_tot = {ground_ratio:.1f} > 1: the passive absorber is outside the bound")
print("  Im alpha >= (2/3) omega^3 |alpha|^2, so its sigma_in = sigma_tot - sigma_el < 0 as well.")

print()
print("=== amplifier band of a pumped three-level target ===")
# inverted 0.5 <-> 1.5 transition (line at 1.0) flanked by absorbing lines
# at 0.5 and 1.5: the band is bounded where absorption takes over
target = TargetLevels(
    [0.0, 0.5, 1.5],
    [[0.0, 1.0, 1.6], [1.0, 0.0, 1.0], [1.6, 1.0, 0.0]],
    [0.55, 0.15, 0.30],
)
pair = broaden(line_spectrum(target), np.linspace(-2.5, 2.5, 8001), gamma)
xs = cross_sections(polarizability_curve(pair))
for lo, hi in amplifier_bands(xs, pair):
    print(f"  sigma_tot < 0 for omega in [{lo:.4f}, {hi:.4f}]  (centered on the inverted line)")
labels = np.array(BAND_LABELS)[xs.band_flags]  # each code's label, as cross_sections.csv writes it
flagged = np.flatnonzero(labels == "amplifying")
print(f"  {flagged.size} of {xs.grid.size} tabulated frequencies flagged amplifying")
i = int(np.argmin(np.abs(xs.grid - 1.0)))
print(
    f"  at omega = {xs.grid[i]:.2f}: sigma_el = {xs.sigma_el[i]:.3e}, "
    f"sigma_tot = {xs.sigma_tot[i]:+.3e}, sigma_in = {xs.sigma_in[i]:+.3e}"
)
print("  sigma_in = sigma_tot - sigma_el < 0 here, as on the absorber: these lines break the passive")
print("  bound, so only the sign of sigma_tot tells the amplifier band apart.")
