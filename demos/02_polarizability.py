"""Complex polarizability two ways: dispersion quadrature vs closed form.

The dispersion integral of the spectral-density difference is evaluated by
panel quadrature and, independently, by the analytic formula each
Lorentzian line admits.  A Kramers-Kronig pass then reconstructs the real
part of the boundary curve from its imaginary part, confirming the
response is causal either way the populations point.
"""

import numpy as np

from gainscatter import (
    broaden,
    closed_form_lorentzian,
    kramers_kronig_residual,
    line_spectrum,
    polarizability_curve,
    polarizability_dispersion,
    TargetLevels,
)

gamma = 0.01
target = TargetLevels([0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0])
lines = line_spectrum(target)
pair = broaden(lines, [-60.0, 60.0], gamma)

print("=== quadrature vs closed form ===")
for zeta in (1.0 + 0.01j, 0.5 + 0.1j, 2.0 + 1.0j):
    quad = polarizability_dispersion(pair, zeta)
    closed = closed_form_lorentzian(lines, gamma, zeta)
    rel = abs(quad - closed) / abs(closed)
    print(f"  zeta = {zeta}: quadrature {quad:+.6e}, closed {closed:+.6e}, gap {rel:.1e}")

print()
print("=== boundary curve and Kramers-Kronig ===")
for name, populations in [("absorber", [1.0, 0.0]), ("amplifier", [0.0, 1.0])]:
    t = TargetLevels([0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]], populations)
    p = broaden(line_spectrum(t), np.linspace(-8.0, 8.0, 16385), gamma)
    curve = polarizability_curve(p)
    i = int(np.argmin(np.abs(curve.grid - 1.0)))
    residual = kramers_kronig_residual(curve)
    print(
        f"  {name:9s}: Im alpha(1.0) = {curve.alpha[i].imag:+8.2f}, "
        f"KK residual {residual:.2e}"
    )
print("  causality (analyticity in the upper half plane) holds for either sign of Im alpha.")
