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
extrapolates cleanly too.  The convergence verdict uses the interference
form, which the missing-intensity argument integrates.

``verify_optical_theorem`` is the one integration path: one pass over the
screen forms both sums at every taper of the schedule, and the report keeps
every per-taper estimate next to the schedule.  The pass forms each base
node and its oscillating factor exp(i phase) once; a taper adds panels of
its own only where its extra edges split a base panel, and sums its own
nodes, in order, with the operations of a pass of its own.  The whole
schedule at z = 1e6 (153k base nodes) peaks at about 2.3 MiB (tracemalloc).

The screen is set by its distance z alone.  It is integrated out to
r_max = z/10, the paraxial bound.  The smallest taper
damps the edge to exp(-27.6) ~ 1e-12, and far field (z >= FAR_FIELD_MIN
c/omega) puts the edge phase omega r_max^2/(2 z) = omega z/200 at 5 or
more, so every taper is at most about 177 and the fit's 1 + eps^2 stays
finite.  The base panels number edge phase/(pi/8), so ``check_screen``
caps the edge phase at MAX_EDGE_PHASE = 5e4 (127k panels), 10x the
largest screen any check runs; at the cap one ``verify_optical_theorem``
takes about 0.16 s and peaks at 3.2 MiB (tracemalloc, 2-vCPU VM).
"""

from __future__ import annotations

import numpy as np

from .response import _gl_panels
from .scattering import scattering_amplitude
from .spectral import _check_positive

__all__ = [
    "screen_intensity",
    "check_screen",
    "optical_theorem_sigma",
    "verify_optical_theorem",
    "DEFAULT_Z",
]

DEFAULT_Z = 1e4           # default screen distance, in c/omega units
FAR_FIELD_MIN = 1e3       # z must be at least this many wavelengths-over-2pi (c/omega)
MAX_EDGE_PHASE = 5e4      # the largest edge phase omega r_max^2/(2 z): about 127k base panels
_SCHEDULE_DECAY = 1e-12   # the schedule pushes the truncation error to here
_SCHEDULE_EXPONENT = np.log(1.0 / _SCHEDULE_DECAY)  # eps * phase at r_max of the smallest taper
EPS_SCHEDULE_STEPS = 6    # members of the schedule
EPS_SCHEDULE_RATIO = 0.5  # ratio of neighbouring members of the schedule
_PHASE_PER_PANEL = np.pi / 8.0
_GL_ORDER = 12
# base nodes per chunk of the screen pass (whole panels, so 16380): bounds its
# temporaries (z = 1e6 has about 1.5e5 nodes); the default z = 1e4 fits in one chunk
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
    and an edge phase omega r_max^2/(2 z), which the taper schedule
    divides by, of at most MAX_EDGE_PHASE, which bounds the screen pass's
    panel count.
    """
    _check_positive("omega", omega)
    _check_positive("z", z)
    if z < FAR_FIELD_MIN / omega:
        raise ValueError(
            f"far-field condition violated: z = {z:g} < {FAR_FIELD_MIN:g}*c/omega = "
            f"{FAR_FIELD_MIN / omega:g}"
        )
    phase = _edge_phase(omega, z)
    if not phase <= MAX_EDGE_PHASE:
        raise ValueError(
            f"edge phase {'overflows' if phase == np.inf else 'too large'}: omega*r_max^2/(2 z) "
            f"with r_max = z/10 is {phase:g} > {MAX_EDGE_PHASE:g} at omega = {omega:g}, z = {z:g}"
        )


def screen_intensity(f_forward: complex, omega: float, z: float, r_perp):
    """Intensity ratio I/I0 at transverse radii r_perp, each finite and in [0, r_max].

    Includes both the interference cross-term and the |F|^2 scattered term.
    """
    check_screen(omega, z)
    r = np.asarray(r_perp, dtype=float)
    bad = ~((r >= 0.0) & (r < np.inf))
    if bad.any():
        raise ValueError(f"r_perp must be finite and non-negative (got {float(r[bad].flat[0])!r})")
    if r.size and r.max() > _r_max(z):
        raise ValueError(
            f"paraxial condition violated: r_perp = {r.max():g} exceeds r_max = z/10 = {_r_max(z):g}"
        )
    r_dist = z + r * r / (2.0 * z)
    cross = 2.0 * (f_forward * np.exp(1j * omega * (r_dist - z))).real / r_dist
    ratio = 1.0 + cross + np.abs(f_forward) ** 2 / r_dist**2
    return float(ratio) if ratio.ndim == 0 else ratio


def _taper_panels(edges, omega, z, schedule):
    """The panels that the tapers of ``schedule`` add to the base panels ``edges``.

    Each taper adds extra edges every half e-folding radius, out to 8 radii
    or r_max; they resolve the taper scale, which every scheduled taper puts
    inside r_max (eps * edge phase >= ln 1e12).  For that taper, a base panel
    holding extra edges is replaced by the panels between them.  Returns, per
    replaced panel in taper order and then in order of r, the key
    ``taper * edges.size + panel`` and how many panels replace it, and the
    ends ``lo``, ``hi`` of all replacing panels, in the same order.
    """
    r_taper = np.sqrt(2.0 * z / (schedule * omega))  # taper e-folding radii
    extra = [np.arange(0.0, min(8.0 * r, _r_max(z)), 0.5 * r) for r in r_taper]
    key = np.repeat(np.arange(len(extra)) * edges.size, [e.size for e in extra])
    extra = np.concatenate(extra)
    panel = np.searchsorted(edges, extra, side="right") - 1
    inside = edges[panel] != extra  # an extra edge on a base edge splits nothing
    extra, panel, key = extra[inside], panel[inside], key[inside] + panel[inside]
    key, first, inner = np.unique(key, return_index=True, return_counts=True)
    lo = np.insert(extra, first, edges[panel[first]])
    hi = np.insert(extra, first + inner, edges[panel[first] + 1])
    return key, inner + 1, lo, hi


def _radial_nodes(f_forward, omega, z, lo, hi):
    """Gauss-Legendre nodes and weights on the panels [lo, hi], and the taper-free factors there.

    Returns the nodes r, the weights w, the phase omega r^2/(2 z), and the
    deficits of the two forms as rows: -2 Re[F exp(i phase)]/z
    (interference), and -2 Re[F exp(i phase)]/r_d - |F|^2/r_d^2 with the
    true distance r_d (full).
    """
    r, w = _gl_panels(lo, hi, _GL_ORDER)
    phase = 0.5 * (omega / z) * r * r
    osc = (f_forward * np.exp(1j * phase)).real
    r_dist = z + r * r / (2.0 * z)
    return r, w, phase, np.array([-2.0 * osc / z, -2.0 * osc / r_dist - np.abs(f_forward) ** 2 / r_dist**2])


def _tapered(eps, r, w, phase, deficits):
    """The summands: each form's deficit times the taper exp(-eps phase) and the measure r w."""
    return deficits * np.exp(-eps * phase) * r * w


def _splice(base, panels, runs):
    """``base`` with the nodes of its panels ``panels`` replaced, in order, by the ``runs``."""
    cut = (panels * _GL_ORDER).tolist()
    kept = [base[:, a + _GL_ORDER : b] for a, b in zip([-_GL_ORDER] + cut, cut + [base.shape[1]])]
    return np.concatenate([part for pair in zip(kept, runs) for part in pair] + kept[-1:], axis=1)


def _deficit_sums(f_forward, omega, z, schedule) -> np.ndarray:
    """The tapered missing-intensity integrals of both forms at every taper of ``schedule``, in one pass.

    2 pi int (1 - I/I0) taper r dr, with the taper exp(-eps omega r^2/(2 z));
    row 0 holds the interference form's integrals, row 1 the full form's.
    Each chunk of the base panels forms its nodes and taper-free factors
    once; each taper then replaces the panels that its extra edges split by
    panels of its own, so it sums its own nodes, in order, with the
    operations of a pass of its own.  A taper's sum over one chunk is one
    ``np.sum`` per form.  The caller checks the screen and builds the schedule.
    """
    # ~pi/8 of phase each; check_screen puts the edge phase in [5, MAX_EDGE_PHASE], so 13 to 127324 panels
    n_panels = int(np.ceil(_edge_phase(omega, z) / _PHASE_PER_PANEL))
    edges = _r_max(z) * np.sqrt(np.linspace(0.0, 1.0, n_panels + 1))
    key, panels, lo, hi = _taper_panels(edges, omega, z, schedule)
    nodes = panels * _GL_ORDER
    fresh = _tapered(np.repeat(schedule[key // edges.size], nodes), *_radial_nodes(f_forward, omega, z, lo, hi))
    ends = np.cumsum(nodes).tolist()
    runs = [fresh[:, a:b] for a, b in zip([0] + ends, ends)]
    sums = [[] for _ in schedule]
    for p0 in range(0, n_panels, NODE_CHUNK // _GL_ORDER):
        p1 = min(p0 + NODE_CHUNK // _GL_ORDER, n_panels)
        base = _radial_nodes(f_forward, omega, z, edges[p0:p1], edges[p0 + 1 : p1 + 1])
        for k, eps in enumerate(schedule):
            first = k * edges.size + p0  # the key of this taper's first panel in the chunk
            g0, g1 = np.searchsorted(key, (first, first + p1 - p0))
            terms = _splice(_tapered(eps, *base), key[g0:g1] - first, runs[g0:g1])
            sums[k].append(np.sum(terms, axis=1))
    # start from the first chunk's sums, so a single chunk is exactly one np.sum per form
    return 2.0 * np.pi * np.array([sum(parts[1:], parts[0]) for parts in sums]).T


def _eps_schedule(omega: float, z: float) -> np.ndarray:
    """Geometric taper schedule, descending.

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
    is all the screen sees of the target.  One pass over the screen gives,
    at each taper of the schedule (``eps_schedule``, descending), the
    estimates of the interference form (``sigma_estimates``) and of the
    full form (the ``_full`` fields, a diagnostic), and each is extrapolated.
    ``converged`` is true when the interference-form extrapolation matches
    (4 pi/omega) Im F within 1e-3 relative, or within 1e-9 of the
    amplitude scale when sigma is essentially zero.  A field
    that is not finite (|F|^2 overflows past |F| ~ 1e154) is a ValueError
    naming it.
    """
    check_screen(omega, z)
    f_forward = scattering_amplitude(alpha, omega)
    eps_schedule = _eps_schedule(omega, z)

    sigma_closed = optical_theorem_sigma(f_forward, omega)
    estimates, estimates_full = _deficit_sums(f_forward, omega, z, eps_schedule)
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
        "eps_schedule": [float(eps) for eps in eps_schedule],
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
