"""Far-field screen intensity and the missing-intensity cross section.

Place a screen at distance z behind the target.  The field there is the
incident plane wave plus the outgoing spherical wave, so the intensity
ratio at transverse radius r is

    I/I0 = |exp(i omega z) + F exp(i omega r_d) / r_d|^2,
    r_d = z + r^2/(2 z)   (paraxial expansion of sqrt(z^2 + r^2)),

and the total cross section is the transverse integral of the intensity
deficit, sigma = integral (1 - I/I0) d^2 r.  Keeping only the interference
cross-term, the integrand oscillates as exp(i omega r^2 / 2 z) - a Fresnel
zone pattern - and the integral is only conditionally convergent.  We make
it summable with a Gaussian taper exp(-eps * omega r^2 / (2 z)), evaluate
on a geometric schedule of the dimensionless eps, and extrapolate to
eps -> 0.  For the pure interference kernel,

    integral_0^inf exp[(i - eps) a r^2 / 2] r dr = 1 / (a (eps - i)),
    a = omega / z,

so sigma_est(eps) * (1 + eps^2) is exactly linear in eps; the extrapolation
is a linear fit in that corrected variable, and its intercept reproduces
sigma = (4 pi / omega) Im F to quadrature precision - for either sign of
Im F.  Nothing in the construction cares whether the target absorbs or
amplifies: a negative Im F simply makes the screen brighter than the free
beam and sigma comes out negative.

The |F|^2/r_d^2 term (the scattered flux itself) is kept as a diagnostic
variant: after tapering it contributes O(1/(eps z)), vanishing in the
z -> infinity limit.  Its known eps-shape is added to the fit basis so the
variant also extrapolates cleanly; the convergence verdict is keyed to the
interference form, which is what the missing-intensity argument integrates.
``verify_optical_theorem`` reports both forms from one pass per taper: the
radial nodes, phase, taper and exp(i phase) are built once and both deficit
sums are formed from them, each with the operations and summation order of
a pass of its own, so either form's estimates keep their bits.
"""

from __future__ import annotations

import numpy as np

from .response import _gl_panels
from .scattering import scattering_amplitude
from .spectral import _check_omega

__all__ = [
    "screen_intensity",
    "check_screen",
    "default_r_max",
    "missing_intensity_sigma",
    "default_eps_schedule",
    "extrapolate_missing_intensity",
    "optical_theorem_sigma",
    "verify_optical_theorem",
    "DEFAULT_Z",
    "TAPER_DECAY",
]

DEFAULT_Z = 1e4           # default screen distance, in c/omega units
PARAXIAL_RATIO = 0.1      # r_perp may not exceed z/10
FAR_FIELD_MIN = 1e3       # z must be at least this many wavelengths-over-2pi (c/omega)
TAPER_DECAY = 1e-8        # feasibility: taper must be below this at r_max
_SCHEDULE_DECAY = 1e-12   # default schedules push the truncation error to here
EPS_SCHEDULE_STEPS = 6    # members of the default schedule
EPS_SCHEDULE_RATIO = 0.5  # ratio of neighbouring members of the default schedule
_PHASE_PER_PANEL = np.pi / 8.0
_GL_ORDER = 12
# radial nodes per chunk of the missing-intensity sum: bounds its temporaries
# (z = 1e6 has about 1.5e5 nodes); the default z = 1e4 fits in one chunk
NODE_CHUNK = 1 << 14


def check_screen(omega: float, z: float, r_max: float, eps_schedule=()) -> None:
    """Raise ValueError naming the first violated screen-feasibility condition.

    A positive, finite omega, far field z >= FAR_FIELD_MIN c/omega, paraxial
    r_max <= z/10, and a taper below TAPER_DECAY at r_max for each scheduled
    taper_eps.
    """
    _check_omega(omega)
    if z < FAR_FIELD_MIN / omega:
        raise ValueError(
            f"far-field condition violated: z = {z:g} < {FAR_FIELD_MIN:g}*c/omega = "
            f"{FAR_FIELD_MIN / omega:g}"
        )
    if r_max > PARAXIAL_RATIO * z:
        raise ValueError(
            f"paraxial condition violated: r_max = {r_max:g} exceeds z/10 = "
            f"{PARAXIAL_RATIO * z:g} (need r_max <= z/10)"
        )
    eps = np.asarray(eps_schedule, dtype=float)
    if eps.size and eps.min() <= 0.0:
        raise ValueError(f"taper_eps must be positive (got {eps.min():g})")
    phase_max = omega * r_max * r_max / (2.0 * z)
    if eps.size and np.exp(-eps.min() * phase_max) > TAPER_DECAY:
        raise ValueError(
            f"taper-decay condition violated: exp(-eps*omega*r_max^2/(2 z)) > {TAPER_DECAY:g} "
            f"at r_max; need taper_eps >= {np.log(1.0 / TAPER_DECAY) / phase_max:.6g} "
            f"(got {eps.min():g})"
        )


def default_r_max(z: float) -> float:
    """Default screen radius: the paraxial bound z/10."""
    return z / 10.0


def screen_intensity(f_forward: complex, omega: float, z: float, r_perp):
    """Intensity ratio I/I0 at transverse radius r_perp on the screen.

    Includes both the interference cross-term and the |F|^2 scattered term.
    """
    r = np.asarray(r_perp, dtype=float)
    check_screen(omega, z, float(r.max()) if r.size else 0.0)
    r_dist = z + r * r / (2.0 * z)
    cross = 2.0 * (f_forward * np.exp(1j * omega * (r_dist - z))).real / r_dist
    ratio = 1.0 + cross + np.abs(f_forward) ** 2 / r_dist**2
    return float(ratio) if ratio.ndim == 0 else ratio


def _radial_nodes(omega: float, z: float, eps: float, r_max: float):
    """Gauss-Legendre nodes/weights on panels tracking the Fresnel oscillation.

    Panels carry at most ~pi/8 of quadratic phase each; extra edges resolve
    the taper scale when the taper dies faster than the oscillation.
    """
    phase_total = omega * r_max * r_max / (2.0 * z)
    n_panels = max(int(np.ceil(phase_total / _PHASE_PER_PANEL)), 4)
    edges = r_max * np.sqrt(np.linspace(0.0, 1.0, n_panels + 1))
    r_taper = np.sqrt(2.0 * z / (eps * omega))  # taper e-folding radius
    if r_taper < r_max:
        extra = np.arange(0.0, min(8.0 * r_taper, r_max), 0.5 * r_taper)
        edges = np.unique(np.concatenate((edges, extra)))
    return _gl_panels(edges, _GL_ORDER)


def missing_intensity_sigma(
    f_forward: complex,
    omega: float,
    z: float,
    taper_eps: float,
    r_max: float,
    include_scattered_term: bool = False,
) -> float:
    """Tapered missing-intensity integral 2 pi int (1 - I/I0) taper r dr.

    ``taper_eps`` is dimensionless: the taper is exp(-eps omega r^2/(2 z)),
    i.e. eps in units of the local Fresnel phase.  Feasibility is enforced
    jointly by ``check_screen``: r_max <= z/10, z in the far field, and the
    taper must have decayed below TAPER_DECAY at r_max (otherwise the
    truncated oscillatory tail pollutes the estimate).  By default only the
    interference form of the deficit is integrated; ``include_scattered_term``
    adds |F|^2/r_d^2 and switches the interference denominator to the true
    distance r_d.
    """
    return _deficit_sums(f_forward, omega, z, taper_eps, r_max, (include_scattered_term,))[0]


def _deficit_sums(f_forward, omega, z, taper_eps, r_max, variants) -> list[float]:
    """``missing_intensity_sigma`` for each ``include_scattered_term`` in ``variants``, in one pass.

    Each chunk's nodes, phase, taper and oscillating factor are built once
    and serve every variant; a variant's sums are the operations, chunks and
    order of a pass of its own, so its value does not depend on the others.
    """
    check_screen(omega, z, r_max, [taper_eps])
    a = omega / z
    nodes, weights = _radial_nodes(omega, z, taper_eps, r_max)
    parts = [[] for _ in variants]
    for lo in range(0, nodes.size, NODE_CHUNK):
        r, w = nodes[lo : lo + NODE_CHUNK], weights[lo : lo + NODE_CHUNK]
        phase = 0.5 * a * r * r
        taper = np.exp(-taper_eps * phase)
        osc = (f_forward * np.exp(1j * phase)).real
        for include_scattered_term, sums in zip(variants, parts):
            if include_scattered_term:
                r_dist = z + r * r / (2.0 * z)
                deficit = -2.0 * osc / r_dist - np.abs(f_forward) ** 2 / r_dist**2
            else:
                deficit = -2.0 * osc / z
            sums.append(np.sum(deficit * taper * r * w))
    # start from the first chunk's sum, so a single chunk is exactly one np.sum
    return [float(2.0 * np.pi * sum(sums[1:], sums[0])) for sums in parts]


def default_eps_schedule(omega: float, z: float, r_max: float) -> np.ndarray:
    """Geometric taper schedule, descending, all members feasible.

    The smallest member pushes the edge taper down to ~1e-12 so truncation
    noise stays far below the extrapolation tolerance.
    """
    phase_max = omega * r_max * r_max / (2.0 * z)
    eps_min = np.log(1.0 / _SCHEDULE_DECAY) / phase_max
    return eps_min / EPS_SCHEDULE_RATIO ** np.arange(EPS_SCHEDULE_STEPS - 1, -1, -1)


def extrapolate_missing_intensity(
    f_forward: complex,
    omega: float,
    z: float,
    eps_schedule,
    r_max: float,
    include_scattered_term: bool = False,
):
    """Estimates over the schedule plus their eps -> 0 extrapolation.

    The fit is linear in sigma(eps) (1 + eps^2), exact for the interference
    kernel; the scattered-term variant adds the (1 + eps^2)/eps basis
    matching that term's known taper integral.
    """
    return _extrapolations(f_forward, omega, z, eps_schedule, r_max, (include_scattered_term,))[0]


def _extrapolations(f_forward, omega, z, eps_schedule, r_max, variants):
    """``extrapolate_missing_intensity`` for each ``include_scattered_term`` in ``variants``.

    One ``_deficit_sums`` pass per taper gives every variant's estimate there.
    """
    eps_schedule = np.asarray(eps_schedule, dtype=float)
    if eps_schedule.size < (3 if any(variants) else 2):
        raise ValueError("eps schedule too short to extrapolate")
    per_taper = [_deficit_sums(f_forward, omega, z, eps, r_max, variants) for eps in eps_schedule]
    results = []
    for estimates, include_scattered_term in zip(np.array(per_taper).T, variants):
        corrected = estimates * (1.0 + eps_schedule**2)
        columns = [np.ones_like(eps_schedule), eps_schedule]
        if include_scattered_term:
            columns.append((1.0 + eps_schedule**2) / eps_schedule)
        design = np.column_stack(columns)
        coeffs, *_ = np.linalg.lstsq(design, corrected, rcond=None)
        results.append((estimates, float(coeffs[0])))
    return results


def optical_theorem_sigma(f_forward: complex, omega: float) -> float:
    """Closed-form optical theorem sigma_tot = (4 pi / omega) Im F (signed)."""
    _check_omega(omega)
    return 4.0 * np.pi * complex(f_forward).imag / omega


def verify_optical_theorem(
    alpha: complex,
    omega: float,
    z: float = DEFAULT_Z,
    eps_schedule=None,
    r_max: float | None = None,
) -> dict:
    """Screen integral versus closed-form optical theorem for a polarizability.

    ``alpha`` is the target's boundary polarizability at ``omega`` (e.g.
    ``alpha_boundary(pair, omega)``); the forward amplitude F = omega^2 alpha
    is all the screen sees of the target.  Runs the tapered screen integral
    over the eps schedule, one pass over each taper's radial nodes giving
    the estimates both without and with the scattered |F|^2 term, and
    extrapolates each.  ``converged`` is true when the interference-form
    extrapolation matches (4 pi/omega) Im F within 1e-3 relative, or within
    1e-9 of the amplitude scale when sigma is essentially zero.
    """
    if r_max is None:
        r_max = default_r_max(z)
    check_screen(omega, z, r_max)
    e = np.array([1.0, 0.0, 0.0])
    f_forward = scattering_amplitude(alpha, omega, e, e)
    if eps_schedule is None:
        eps_schedule = default_eps_schedule(omega, z, r_max)
    eps_schedule = np.asarray(eps_schedule, dtype=float)

    sigma_closed = optical_theorem_sigma(f_forward, omega)
    (estimates, extrapolated), (estimates_full, extrapolated_full) = _extrapolations(
        f_forward, omega, z, eps_schedule, r_max, (False, True)
    )
    scale = 4.0 * np.pi * abs(f_forward) / omega
    gap = abs(extrapolated - sigma_closed)
    converged = bool(gap <= max(1e-3 * abs(sigma_closed), 1e-9 * scale))
    return {
        "omega": float(omega),
        "z": float(z),
        "r_max": float(r_max),
        "forward_amplitude": [f_forward.real, f_forward.imag],
        "sigma_closed_form": sigma_closed,
        "eps_schedule": [float(e_) for e_ in eps_schedule],
        "sigma_estimates": [float(s) for s in estimates],
        "sigma_extrapolated": float(extrapolated),
        "sigma_estimates_full": [float(s) for s in estimates_full],
        "sigma_extrapolated_full": float(extrapolated_full),
        "converged": converged,
    }
