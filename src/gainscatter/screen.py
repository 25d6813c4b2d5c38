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

The full form of the deficit, adding |F|^2/r_d^2 (the scattered flux
itself) with the true distance r_d, is ``verify_optical_theorem``'s
diagnostic: after tapering that term contributes O(1/(eps z)), vanishing as
z -> infinity, and its known eps-shape joins the fit basis so the full form
extrapolates cleanly too.  The public integrals and the convergence verdict
use the interference form, which the missing-intensity argument integrates.
``verify_optical_theorem`` forms both sums from one pass per taper, each
with the operations and summation order of a pass of its own.

The screen is set by its distance z alone.  It is integrated out to
r_max = z/10, the paraxial bound, and ``verify_optical_theorem`` always
uses ``default_eps_schedule``.  Far field (z >= FAR_FIELD_MIN c/omega) puts
the edge phase omega r_max^2/(2 z) = omega z/200 at 5 or more, so every
scheduled taper is at most about 177 and the fit's 1 + eps^2 stays finite.
What remains to name is an edge phase that overflows to inf.
"""

from __future__ import annotations

import numpy as np

from .response import _gl_panels
from .scattering import scattering_amplitude
from .spectral import _check_positive

__all__ = [
    "screen_intensity",
    "check_screen",
    "missing_intensity_sigma",
    "default_eps_schedule",
    "optical_theorem_sigma",
    "verify_optical_theorem",
    "DEFAULT_Z",
    "TAPER_DECAY",
]

DEFAULT_Z = 1e4           # default screen distance, in c/omega units
FAR_FIELD_MIN = 1e3       # z must be at least this many wavelengths-over-2pi (c/omega)
TAPER_DECAY = 1e-8        # feasibility: taper must be below this at r_max
_SCHEDULE_DECAY = 1e-12   # default schedules push the truncation error to here
_SCHEDULE_EXPONENT = np.log(1.0 / _SCHEDULE_DECAY)  # eps * phase at r_max of the smallest default taper
EPS_SCHEDULE_STEPS = 6    # members of the default schedule
EPS_SCHEDULE_RATIO = 0.5  # ratio of neighbouring members of the default schedule
_PHASE_PER_PANEL = np.pi / 8.0
_GL_ORDER = 12
# radial nodes per chunk of the missing-intensity sum: bounds its temporaries
# (z = 1e6 has about 1.5e5 nodes); the default z = 1e4 fits in one chunk
NODE_CHUNK = 1 << 14


def _r_max(z: float) -> float:
    """The screen radius: the paraxial bound z/10."""
    return z / 10.0


def _edge_phase(omega: float, z: float) -> float:
    """The quadratic phase omega r_max^2/(2 z) at the screen edge."""
    r_max = _r_max(z)
    return omega * r_max * r_max / (2.0 * z)


def check_screen(omega: float, z: float) -> None:
    """Raise ValueError naming the first violated screen-feasibility condition.

    A positive, finite omega and z, far field z >= FAR_FIELD_MIN c/omega,
    and a finite edge phase omega r_max^2/(2 z), which
    ``default_eps_schedule`` divides by.
    """
    _check_positive("omega", omega)
    _check_positive("z", z)
    if z < FAR_FIELD_MIN / omega:
        raise ValueError(
            f"far-field condition violated: z = {z:g} < {FAR_FIELD_MIN:g}*c/omega = "
            f"{FAR_FIELD_MIN / omega:g}"
        )
    if not _edge_phase(omega, z) < np.inf:
        raise ValueError(
            f"edge phase overflows: omega*r_max^2/(2 z) with r_max = z/10 is not finite "
            f"at omega = {omega:g}, z = {z:g}"
        )


def screen_intensity(f_forward: complex, omega: float, z: float, r_perp):
    """Intensity ratio I/I0 at transverse radius r_perp on the screen, r_perp <= r_max.

    Includes both the interference cross-term and the |F|^2 scattered term.
    """
    check_screen(omega, z)
    r = np.asarray(r_perp, dtype=float)
    if r.size and r.max() > _r_max(z):
        raise ValueError(
            f"paraxial condition violated: r_perp = {r.max():g} exceeds r_max = z/10 = {_r_max(z):g}"
        )
    r_dist = z + r * r / (2.0 * z)
    cross = 2.0 * (f_forward * np.exp(1j * omega * (r_dist - z))).real / r_dist
    ratio = 1.0 + cross + np.abs(f_forward) ** 2 / r_dist**2
    return float(ratio) if ratio.ndim == 0 else ratio


def _radial_nodes(omega: float, z: float, eps: float):
    """Gauss-Legendre nodes/weights on panels tracking the Fresnel oscillation.

    Panels carry at most ~pi/8 of quadratic phase each; extra edges resolve
    the taper scale when the taper dies faster than the oscillation.
    """
    r_max = _r_max(z)
    n_panels = max(int(np.ceil(_edge_phase(omega, z) / _PHASE_PER_PANEL)), 4)
    edges = r_max * np.sqrt(np.linspace(0.0, 1.0, n_panels + 1))
    r_taper = np.sqrt(2.0 * z / (eps * omega))  # taper e-folding radius
    if r_taper < r_max:
        extra = np.arange(0.0, min(8.0 * r_taper, r_max), 0.5 * r_taper)
        edges = np.unique(np.concatenate((edges, extra)))
    return _gl_panels(edges, _GL_ORDER)


def missing_intensity_sigma(f_forward: complex, omega: float, z: float, taper_eps: float) -> float:
    """Tapered missing-intensity integral 2 pi int (1 - I/I0) taper r dr.

    ``taper_eps`` is dimensionless: the taper is exp(-eps omega r^2/(2 z)),
    i.e. eps in units of the local Fresnel phase.  It must be finite and
    damp the taper below TAPER_DECAY at r_max: a taper undecayed there would
    let the truncated oscillatory tail pollute the estimate.  The deficit is
    the interference form -2 Re[F exp(i phase)]/z.
    """
    check_screen(omega, z)
    least = np.log(1.0 / TAPER_DECAY) / _edge_phase(omega, z)
    if not least <= taper_eps < np.inf:
        raise ValueError(
            f"taper-decay condition violated: exp(-eps*omega*r_max^2/(2 z)) > {TAPER_DECAY:g} at r_max; "
            f"need a positive, finite taper_eps >= {least:.6g} (got {taper_eps:g})"
        )
    return _deficit_sums(f_forward, omega, z, taper_eps)[0]


def _deficit_sums(f_forward, omega, z, taper_eps, full=False) -> list[float]:
    """``[interference]`` at one taper, or ``[interference, full]`` with ``full``, in one pass.

    The full form adds |F|^2/r_d^2 and divides by the true distance r_d.  The
    forms share each chunk's nodes, phase, taper and oscillating factor; each
    form's sums keep the operations, chunks and order of a pass of its own.
    The caller checks the screen and taper first.
    """
    a = omega / z
    nodes, weights = _radial_nodes(omega, z, taper_eps)
    parts = ([], []) if full else ([],)
    for lo in range(0, nodes.size, NODE_CHUNK):
        r, w = nodes[lo : lo + NODE_CHUNK], weights[lo : lo + NODE_CHUNK]
        phase = 0.5 * a * r * r
        taper = np.exp(-taper_eps * phase)
        osc = (f_forward * np.exp(1j * phase)).real
        parts[0].append(np.sum(-2.0 * osc / z * taper * r * w))
        if full:
            r_dist = z + r * r / (2.0 * z)
            deficit = -2.0 * osc / r_dist - np.abs(f_forward) ** 2 / r_dist**2
            parts[1].append(np.sum(deficit * taper * r * w))
    # start from the first chunk's sum, so a single chunk is exactly one np.sum
    return [float(2.0 * np.pi * sum(sums[1:], sums[0])) for sums in parts]


def default_eps_schedule(omega: float, z: float) -> np.ndarray:
    """Geometric taper schedule, descending, all members feasible.

    The smallest member pushes the edge taper down to ~1e-12 so truncation
    noise stays far below the extrapolation tolerance.  It divides by the
    edge phase, so ``check_screen`` the screen first.
    """
    eps_min = _SCHEDULE_EXPONENT / _edge_phase(omega, z)
    return eps_min / EPS_SCHEDULE_RATIO ** np.arange(EPS_SCHEDULE_STEPS - 1, -1, -1)


def _eps_fit(eps, estimates, full=False) -> float:
    """The eps -> 0 intercept of the estimates over the schedule ``eps``.

    Linear in sigma(eps) (1 + eps^2), exact for the interference kernel; the
    full form adds the (1 + eps^2)/eps basis of the |F|^2 term's taper integral.
    """
    basis = [np.ones_like(eps), eps] + ([(1.0 + eps**2) / eps] if full else [])
    coeffs, *_ = np.linalg.lstsq(np.column_stack(basis), estimates * (1.0 + eps**2), rcond=None)
    return float(coeffs[0])


def optical_theorem_sigma(f_forward: complex, omega: float) -> float:
    """Closed-form optical theorem sigma_tot = (4 pi / omega) Im F (signed)."""
    _check_positive("omega", omega)
    return 4.0 * np.pi * complex(f_forward).imag / omega


def verify_optical_theorem(alpha: complex, omega: float, z: float = DEFAULT_Z) -> dict:
    """Screen integral versus closed-form optical theorem for a polarizability.

    ``alpha`` is the target's boundary polarizability at ``omega`` (e.g.
    ``alpha_boundary(pair, omega)``); the forward amplitude F = omega^2 alpha
    is all the screen sees of the target.  One pass per taper of
    ``default_eps_schedule`` gives the estimates of the interference form
    and of the full form (the ``_full`` fields, a diagnostic), and each is
    extrapolated.  ``converged`` is true when the interference-form
    extrapolation matches (4 pi/omega) Im F within 1e-3 relative, or within
    1e-9 of the amplitude scale when sigma is essentially zero.  A field
    that is not finite (|F|^2 overflows past |F| ~ 1e154) is a ValueError
    naming it.
    """
    check_screen(omega, z)
    e = np.array([1.0, 0.0, 0.0])
    f_forward = scattering_amplitude(alpha, omega, e, e)
    eps_schedule = default_eps_schedule(omega, z)

    sigma_closed = optical_theorem_sigma(f_forward, omega)
    per_taper = [_deficit_sums(f_forward, omega, z, eps, full=True) for eps in eps_schedule]
    estimates, estimates_full = np.array(per_taper).T
    extrapolated = _eps_fit(eps_schedule, estimates)
    extrapolated_full = _eps_fit(eps_schedule, estimates_full, full=True)
    scale = 4.0 * np.pi * abs(f_forward) / omega
    gap = abs(extrapolated - sigma_closed)
    converged = bool(gap <= max(1e-3 * abs(sigma_closed), 1e-9 * scale))
    report = {
        "omega": float(omega),
        "z": float(z),
        "r_max": float(_r_max(z)),
        "forward_amplitude": [f_forward.real, f_forward.imag],
        "sigma_closed_form": sigma_closed,
        "eps_schedule": [float(e_) for e_ in eps_schedule],
        "sigma_estimates": [float(s) for s in estimates],
        "sigma_extrapolated": float(extrapolated),
        "sigma_estimates_full": [float(s) for s in estimates_full],
        "sigma_extrapolated_full": float(extrapolated_full),
        "converged": converged,
    }
    for key, value in report.items():
        if not np.isfinite(value).all():
            raise ValueError(f"screen integral: {key} is not finite at |F| = {abs(f_forward):.3g}")
    return report
