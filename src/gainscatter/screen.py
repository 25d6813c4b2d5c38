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
"""

from __future__ import annotations

import math

import numpy as np

from .response import _gl_panels
from .scattering import scattering_amplitude
from .spectral import _check_positive

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
_SCHEDULE_EXPONENT = np.log(1.0 / _SCHEDULE_DECAY)  # eps * phase at r_max of the smallest default taper
EPS_SCHEDULE_STEPS = 6    # members of the default schedule
EPS_SCHEDULE_RATIO = 0.5  # ratio of neighbouring members of the default schedule
_PHASE_PER_PANEL = np.pi / 8.0
_GL_ORDER = 12
# radial nodes per chunk of the missing-intensity sum: bounds its temporaries
# (z = 1e6 has about 1.5e5 nodes); the default z = 1e4 fits in one chunk
NODE_CHUNK = 1 << 14


def _check_geometry(omega: float, z: float, r_max: float) -> None:
    """Raise ValueError unless omega is positive and finite, z far field and r_max paraxial."""
    _check_positive("omega", omega)
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


def check_screen(omega: float, z: float, r_max: float, eps_schedule=()) -> None:
    """Raise ValueError naming the first violated screen-feasibility condition.

    A positive, finite omega, far field z >= FAR_FIELD_MIN c/omega, paraxial
    0 < r_max <= z/10, and an edge phase omega r_max^2/(2 z) that a finite
    taper_eps damps below TAPER_DECAY at r_max and that leaves every member
    of ``default_eps_schedule`` fittable; each scheduled taper_eps damps the
    edge that far and is fittable.  A taper is fittable when 1 + eps^2, the
    factor of the eps -> 0 fit, is finite.  ``default_eps_schedule`` divides
    by the edge phase, so check before building one.
    """
    _check_geometry(omega, z, r_max)
    phase_max = omega * r_max * r_max / (2.0 * z)
    decay = np.log(1.0 / TAPER_DECAY)  # the taper exponent eps * phase needed at r_max
    if not (r_max > 0.0 and decay / np.finfo(float).max < phase_max < np.inf):
        raise ValueError(
            f"infeasible screen radius r_max = {r_max:g}: need r_max > 0 and an edge phase "
            f"omega*r_max^2/(2 z) (here {phase_max:g}) that a finite taper_eps damps below {TAPER_DECAY:g}"
        )
    # the default schedule's largest member, as it would be built
    largest = float(_SCHEDULE_EXPONENT) / float(phase_max) / EPS_SCHEDULE_RATIO ** (EPS_SCHEDULE_STEPS - 1)
    if not _fittable(largest):
        raise ValueError(
            f"infeasible screen radius r_max = {r_max:g}: the edge phase omega*r_max^2/(2 z) (here "
            f"{phase_max:g}) is too small to fit, since the default eps schedule's largest taper_eps "
            f"({largest:g}) leaves 1 + eps^2 not finite"
        )
    eps = np.asarray(eps_schedule, dtype=float)
    bad = ~((eps >= decay / phase_max) & (eps < np.inf))
    if bad.any():
        raise ValueError(
            f"taper-decay condition violated: exp(-eps*omega*r_max^2/(2 z)) > {TAPER_DECAY:g} at r_max; "
            f"need a positive, finite taper_eps >= {decay / phase_max:.6g} (got {float(eps[bad][0]):g})"
        )
    for e in eps.tolist():
        if not _fittable(e):
            raise ValueError(f"taper_eps {e:g} is too large to fit: 1 + eps^2 is not finite")


def _fittable(eps: float) -> bool:
    """Whether 1 + eps^2, the factor of the eps -> 0 fit, is finite."""
    return math.isfinite(1.0 + eps * eps)  # a Python float overflows to inf without a warning


def default_r_max(z: float) -> float:
    """Default screen radius: the paraxial bound z/10."""
    return z / 10.0


def screen_intensity(f_forward: complex, omega: float, z: float, r_perp):
    """Intensity ratio I/I0 at transverse radius r_perp on the screen.

    Includes both the interference cross-term and the |F|^2 scattered term.
    """
    r = np.asarray(r_perp, dtype=float)
    _check_geometry(omega, z, float(r.max()) if r.size else 0.0)
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


def missing_intensity_sigma(f_forward: complex, omega: float, z: float, taper_eps: float, r_max: float) -> float:
    """Tapered missing-intensity integral 2 pi int (1 - I/I0) taper r dr.

    ``taper_eps`` is dimensionless: the taper is exp(-eps omega r^2/(2 z)),
    i.e. eps in units of the local Fresnel phase.  ``check_screen`` must
    accept the screen and taper: a taper undecayed at r_max would let the
    truncated oscillatory tail pollute the estimate.  The deficit is the
    interference form -2 Re[F exp(i phase)]/z.
    """
    check_screen(omega, z, r_max, [taper_eps])
    return _deficit_sums(f_forward, omega, z, taper_eps, r_max)[0]


def _deficit_sums(f_forward, omega, z, taper_eps, r_max, full=False) -> list[float]:
    """``[interference]`` at one taper, or ``[interference, full]`` with ``full``, in one pass.

    The full form adds |F|^2/r_d^2 and divides by the true distance r_d.  The
    forms share each chunk's nodes, phase, taper and oscillating factor; each
    form's sums keep the operations, chunks and order of a pass of its own.
    The caller runs ``check_screen`` on the screen and taper first.
    """
    a = omega / z
    nodes, weights = _radial_nodes(omega, z, taper_eps, r_max)
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


def default_eps_schedule(omega: float, z: float, r_max: float) -> np.ndarray:
    """Geometric taper schedule, descending, all members feasible.

    The smallest member pushes the edge taper down to ~1e-12 so truncation
    noise stays far below the extrapolation tolerance.
    """
    phase_max = omega * r_max * r_max / (2.0 * z)
    eps_min = _SCHEDULE_EXPONENT / phase_max
    return eps_min / EPS_SCHEDULE_RATIO ** np.arange(EPS_SCHEDULE_STEPS - 1, -1, -1)


def _eps_fit(eps_schedule, full=False):
    """The eps -> 0 extrapolation over ``eps_schedule``, as a function of the estimates there.

    Linear in sigma(eps) (1 + eps^2), exact for the interference kernel; the
    full form adds the (1 + eps^2)/eps basis of the |F|^2 term's taper
    integral.  A schedule shorter than the basis is a ValueError, before any pass.
    """
    eps = np.asarray(eps_schedule, dtype=float)
    columns = 3 if full else 2
    if eps.size < columns:
        raise ValueError(f"eps schedule too short to extrapolate: need {columns} members (got {eps.size})")

    def intercept(estimates) -> float:
        basis = [np.ones_like(eps), eps] + ([(1.0 + eps**2) / eps] if full else [])
        coeffs, *_ = np.linalg.lstsq(np.column_stack(basis), estimates * (1.0 + eps**2), rcond=None)
        return float(coeffs[0])

    return intercept


def extrapolate_missing_intensity(f_forward: complex, omega: float, z: float, eps_schedule, r_max: float):
    """``missing_intensity_sigma`` over the schedule, and its eps -> 0 extrapolation."""
    fit = _eps_fit(eps_schedule)
    estimates = np.array([missing_intensity_sigma(f_forward, omega, z, eps, r_max) for eps in eps_schedule])
    return estimates, fit(estimates)


def optical_theorem_sigma(f_forward: complex, omega: float) -> float:
    """Closed-form optical theorem sigma_tot = (4 pi / omega) Im F (signed)."""
    _check_positive("omega", omega)
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
    is all the screen sees of the target.  One pass per taper gives the
    estimates of the interference form and of the full form (the ``_full``
    fields, a diagnostic), and each is extrapolated.  ``converged`` is true
    when the interference-form extrapolation matches (4 pi/omega) Im F
    within 1e-3 relative, or within 1e-9 of the amplitude scale when sigma
    is essentially zero.  A field that is not finite (|F|^2 overflows past
    |F| ~ 1e154) is a ValueError naming it.
    """
    if r_max is None:
        r_max = default_r_max(z)
    check_screen(omega, z, r_max, () if eps_schedule is None else eps_schedule)
    e = np.array([1.0, 0.0, 0.0])
    f_forward = scattering_amplitude(alpha, omega, e, e)
    if eps_schedule is None:
        eps_schedule = default_eps_schedule(omega, z, r_max)

    sigma_closed = optical_theorem_sigma(f_forward, omega)
    fit, fit_full = _eps_fit(eps_schedule), _eps_fit(eps_schedule, full=True)
    per_taper = [_deficit_sums(f_forward, omega, z, eps, r_max, full=True) for eps in eps_schedule]
    estimates, estimates_full = np.array(per_taper).T
    extrapolated, extrapolated_full = fit(estimates), fit_full(estimates_full)
    scale = 4.0 * np.pi * abs(f_forward) / omega
    gap = abs(extrapolated - sigma_closed)
    converged = bool(gap <= max(1e-3 * abs(sigma_closed), 1e-9 * scale))
    report = {
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
    for key, value in report.items():
        if not np.isfinite(value).all():
            raise ValueError(f"screen integral: {key} is not finite at |F| = {abs(f_forward):.3g}")
    return report
