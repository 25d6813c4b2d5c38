"""Dipole scattering amplitudes and cross sections.

For a polarizable point target the forward elastic amplitude, in the
incident polarization, is F = (omega/c)^2 alpha, giving sigma_el =
(8 pi / 3) (omega/c)^4 |alpha|^2 and, through the optical theorem,
sigma_tot = (4 pi omega / c) Im alpha.  Nothing in that chain fixes the
sign of Im alpha: where the level populations are inverted, sigma_tot is
negative and the target amplifies the beam.  The
inelastic cross section is defined purely by the sum rule sigma_in =
sigma_tot - sigma_el and may be negative.  A passive target has sigma_in >= 0
only inside the unitarity bound Im alpha >= (2/3) omega^3 |alpha|^2, which
the line model does not enforce: the canonical passive targets break it (on
the ground-state absorber sigma_el/sigma_tot is 22 at omega = 1, and
sigma_in < 0 in 2231 of its 2400 positive rows), so sigma_in < 0 is no sign
of inversion there.

``sigma_total_spectral`` is the independent spectral route: sigma_tot =
4 pi^2 omega [1 - exp(-omega/T_n)] S+(omega), written through the noise
temperature.  It must agree with the optical route identically, and with
the symmetrized form 8 pi^2 omega tanh[omega/(2 T_n)] S_bar(omega) via
1 - e^-x = tanh(x/2) (1 + e^-x); both identities are asserted internally.

Internal units hbar = c = 1; cross sections come out in (c/omega_ref)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .response import PolarizabilityCurve, im_alpha
from .spectral import SpectralPair, _check_positive, _defined_log_ratio, _frozen

__all__ = [
    "BAND_LABELS",
    "scattering_amplitude",
    "differential_elastic",
    "sigma_elastic",
    "sigma_total_optical",
    "sigma_total_spectral",
    "amplifier_bands",
    "CrossSectionSet",
    "cross_sections",
]

_NEUTRAL_FRACTION = 1e-12  # of the lines' summed peak |sigma_tot|: at or below it a row is neutral
# The band label of each code of ``CrossSectionSet.band_flags``, indexed as a
# sequence is: 0 neutral, +1 absorbing, -1 (the last) amplifying.
BAND_LABELS = ("neutral", "absorbing", "amplifying")


def scattering_amplitude(alpha: complex, omega: float) -> complex:
    """Forward elastic amplitude F = omega^2 alpha, scattered into the incident polarization."""
    _check_positive("omega", omega)
    omega = float(omega)
    return omega * omega * complex(alpha)


def differential_elastic(alpha: complex, omega: float, theta):
    """Polarization-averaged dperp cross section (1/2)(1 + cos^2) omega^4 |alpha|^2."""
    _check_positive("omega", omega)
    theta = np.asarray(theta, dtype=float)
    value = 0.5 * (1.0 + np.cos(theta) ** 2) * omega**4 * np.abs(alpha) ** 2
    return float(value) if value.ndim == 0 else value


def sigma_elastic(alpha, omega):
    """Elastic cross section (8 pi / 3) omega^4 |alpha|^2 at omega > 0; never negative."""
    _check_positive("omega", omega)
    return (8.0 * np.pi / 3.0) * np.asarray(omega, dtype=float) ** 4 * np.abs(alpha) ** 2


def sigma_total_optical(alpha, omega):
    """Optical-theorem total cross section 4 pi omega Im alpha (signed), at omega > 0."""
    _check_positive("omega", omega)
    return 4.0 * np.pi * np.asarray(omega, dtype=float) * np.asarray(alpha, dtype=complex).imag


def sigma_total_spectral(pair: SpectralPair, omega):
    """Total cross section from the spectral densities via the noise temperature.

    Evaluates 4 pi^2 omega [1 - exp(-omega/T_n)] S+ with the log-ratio kept
    in log1p/expm1 form and cross-checks the tanh form against it to 1e-12
    relative.  Where one density sits below the floor the exponential
    saturates and the limit is taken (S- = 0 gives 4 pi^2 omega S+; S+ = 0
    gives -4 pi^2 omega S-); at the inversion crossover (S+ = S- within the
    log-ratio floor, T_n undefined) the result is 0.
    """
    _check_positive("omega", omega)
    omega_arr = np.asarray(omega, dtype=float)
    s_plus, s_minus = pair.sums_at(omega_arr)
    scalar = omega_arr.ndim == 0
    omega_arr, s_plus, s_minus = np.atleast_1d(omega_arr, s_plus, s_minus)

    # x = omega / T_n = ln(S+/S-), kept exact rather than rebuilt from T_n
    both, x, defined = _defined_log_ratio(s_plus, s_minus)

    prefactor = 4.0 * np.pi**2 * omega_arr
    sigma = np.zeros_like(omega_arr)
    sigma[defined] = prefactor[defined] * -np.expm1(-x[defined]) * s_plus[defined]
    # saturated limits where one side has no spectral weight
    one_sided = ~both
    sigma[one_sided] = prefactor[one_sided] * (s_plus[one_sided] - s_minus[one_sided])

    s_bar = 0.5 * (s_plus + s_minus)
    tanh_form = np.zeros_like(sigma)
    tanh_form[defined] = (
        2.0 * prefactor[defined] * np.tanh(0.5 * x[defined]) * s_bar[defined]
    )
    # in the saturated limit tanh(x/2) -> sign(S+ - S-) and both forms
    # collapse to the same expression, so the cross-check is the generic branch
    tanh_form[one_sided] = sigma[one_sided]
    mismatch = np.abs(sigma - tanh_form) > 1e-12 * np.maximum(np.abs(sigma), np.abs(tanh_form))
    if np.any(mismatch):
        raise RuntimeError("exponential and tanh forms of sigma_tot disagree beyond 1e-12")
    return float(sigma[0]) if scalar else sigma


def amplifier_bands(xs: CrossSectionSet, pair: SpectralPair):
    """The runs of amplifying rows of ``xs`` (band flag -1) as (lo, hi) frequency intervals.

    ``xs`` should resolve the line shape (at least ~8 samples per gamma).
    Band edges inside the grid are refined by bisection on the sign of Im
    alpha of ``pair``, the model ``xs`` was built from, to float resolution:
    the edge and one of its neighbouring floats bracket the sign change.  An
    edge at the end of the positive grid stays the sample.
    """
    grid = xs.grid

    def refine(lo: float, hi: float) -> float:
        # sign change of Im alpha bracketed in (lo, hi)
        f = lambda w: float(im_alpha(pair, w))
        f_lo, f_hi = f(lo), f(hi)
        if f_lo == 0.0:
            return lo
        if f_hi == 0.0:
            return hi
        if (f_lo < 0.0) == (f_hi < 0.0):
            return 0.5 * (lo + hi)  # no crossing inside: sampled edge is the best answer
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:  # until lo and hi are neighbouring floats
            if (f(mid) < 0.0) == (f_lo < 0.0):
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        return mid

    n = grid.size
    padded = np.concatenate(([False], xs.band_flags < 0, [False]))
    starts, stops = np.flatnonzero(np.diff(padded)).reshape(-1, 2).T  # runs are [start, stop)
    bands = []
    for i, j in zip(starts.tolist(), (stops - 1).tolist()):
        lo = float(grid[i]) if i == 0 else refine(float(grid[i - 1]), float(grid[i]))
        hi = float(grid[j]) if j == n - 1 else refine(float(grid[j]), float(grid[j + 1]))
        bands.append((lo, hi))
    return bands


@dataclass(frozen=True)
class CrossSectionSet:
    """Elastic/total/inelastic cross sections with per-sample band flags.

    sigma_in is stored as the sum-rule difference sigma_tot - sigma_el and
    may be negative; band_flags is an int8 code, -1 where sigma_tot < -b,
    +1 where sigma_tot > b and 0 between, whose label ("amplifying",
    "absorbing", "neutral") is ``BAND_LABELS[code]``.  b is 1e-12 of the
    lines' summed peak |sigma_tot|, so no flag depends on the dipole unit.
    """

    grid: np.ndarray
    sigma_el: np.ndarray
    sigma_tot: np.ndarray
    sigma_in: np.ndarray
    band_flags: np.ndarray

    def __post_init__(self):
        for name in ("grid", "sigma_el", "sigma_tot", "sigma_in"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        object.__setattr__(self, "band_flags", _frozen(self.band_flags, np.int8))
        if np.any(self.grid <= 0.0):
            raise ValueError("cross sections are tabulated for positive frequencies only")
        if np.any(self.sigma_el < 0.0):
            raise ValueError("sigma_el must be non-negative")


def cross_sections(curve: PolarizabilityCurve) -> CrossSectionSet:
    """Tabulate sigma_el, sigma_tot, sigma_in from the curve's omega > 0 half alone."""
    grid, alpha = curve.positive_grid, curve.positive_alpha
    sig_el = sigma_elastic(alpha, grid)
    sig_tot = sigma_total_optical(alpha, grid)
    sig_in = sig_tot - sig_el
    lines, gamma = curve.pair.lines, curve.pair.gamma  # a line's peak: 4 pi omega0 |absorb - emit| / gamma
    bound = _NEUTRAL_FRACTION * 4.0 * np.pi * ((lines.absorb + lines.emit) * lines.omega0).sum() / gamma
    flags = (sig_tot > bound).view(np.int8) - (sig_tot < -bound).view(np.int8)
    return CrossSectionSet(grid, sig_el, sig_tot, sig_in, flags)
