"""A dilute gas of targets: refractive response, extinction, slab gain.

With epsilon = 1 + 4 pi n alpha and k = omega sqrt(epsilon), the intensity
of a beam goes like exp(-h z) with h = 2 Im k.  For inverted targets h is
negative and h = n sigma_tot makes the connection to the negative cross
section: the slab amplifies.
"""

import numpy as np

from gainscatter import (
    alpha_boundary,
    broaden,
    extinction_dilute,
    intensity_profile,
    line_spectrum,
    medium_response,
    polarizability_curve,
    sigma_total_optical,
    TargetLevels,
)

gamma, omega_0 = 0.01, 1.0
density = 1e-6
grid = np.linspace(-3.0, 3.0, 4801)

for name, populations in [("absorbing gas", [1.0, 0.0]), ("amplifying gas", [0.0, 1.0])]:
    target = TargetLevels([0.0, omega_0], [[0.0, 1.0], [1.0, 0.0]], populations)
    pair = broaden(line_spectrum(target), grid, gamma)
    curve = polarizability_curve(pair)
    med = medium_response(curve, density)
    i = int(np.argmin(np.abs(med.grid - omega_0)))
    alpha = complex(alpha_boundary(pair, omega_0))
    sigma = float(sigma_total_optical(alpha, omega_0))
    h_exact = float(med.h[i])
    h_dilute = float(extinction_dilute(density, sigma))
    print(f"=== {name}, n = {density:g} ===")
    print(f"  epsilon(omega_0) = {med.epsilon[i]:.8f}")
    print(f"  h exact  = {h_exact:+.6e}   (2 Im k from the branch root)")
    print(f"  h dilute = {h_dilute:+.6e}   (n sigma_tot, first order)")
    print(f"  first-order gap  = {abs(h_exact - h_dilute)/abs(h_dilute):.2e} relative")
    z = np.linspace(0.0, 2.0 / abs(h_exact), 5)
    ratio = intensity_profile(h_exact, z)
    trend = "decays" if h_exact > 0 else "grows"
    print(f"  slab intensity {trend}: " + ", ".join(f"{v:.3f}" for v in ratio))
    print()

print("sign chain: sign(h) = sign(Im alpha) = sign(sigma_tot) throughout the dilute regime.")
