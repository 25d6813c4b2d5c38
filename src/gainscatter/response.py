"""Complex polarizability from the spectral densities.

The retarded polarizability is the dispersion integral

    alpha(zeta) = integral [S+(w) - S-(w)] / (w - zeta) dw,   Im zeta > 0,

analytic in the upper half plane.  For Lorentzian-broadened lines the
integral has a closed form (each line contributes w / (w_line - i*gamma -
zeta), minus the reflected partner), derived by closing the contour in the
lower half plane around the pole at w_line - i*gamma.  The broadening width
itself supplies the retarded regularization, so the physical boundary value
alpha(w + i0+) is finite and is evaluated analytically at real frequency;
on that boundary Im alpha(w) = pi * [S+(w) - S-(w)] exactly, which is what
the cross-section module consumes.  Im alpha < 0 (an amplifier band) is a
perfectly good outcome.

``polarizability_dispersion(lines, gamma, zeta)`` is the quadrature route,
kept independent of the closed form so the two can cross-check each other;
it takes the closed form's inputs.  It integrates the line model S+ - S-
over the real line, cut at 1e5 times the features' reach, where the
Lorentzian tails leave rounding error.  It uses fixed Gauss-Legendre panels
on geometric ladders around every line and around Re zeta, then one shared
ladder out to the cut, with the pole subtracted analytically; node
placement never depends on the line weights, so the quadrature is exactly
linear in the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .spectral import LineSpectrum, SpectralPair, _check_positive, _frozen, _line_sum_blocks, _mirror_rows, _pair_sums

__all__ = [
    "PolarizabilityCurve",
    "polarizability_dispersion",
    "closed_form_lorentzian",
    "alpha_boundary",
    "im_alpha",
    "polarizability_curve",
    "kramers_kronig_residual",
]

_GL_ORDER = 24
_SPAN_FACTOR = 1e5  # polarizability_dispersion integrates over +-this times its features' reach
EDGE_DECAY_FRACTION = 1e-3  # |Im alpha| at the grid edges must be below this times the peak


def _alpha_line_sum(lines: LineSpectrum, gamma: float, zeta):
    """Analytic alpha(zeta) for Lorentzian-broadened lines; valid for Im zeta >= 0.

    Each point sums weight / (pole - z) - weight / (mirror - z) in line
    order.  When the lines are their own reflection (every thermal target),
    mirror = pole[::-1] exactly, so the mirror denominators are the pole
    denominators' columns reversed, with the same bits, and are not formed
    again.
    """
    zeta_arr = np.asarray(zeta, dtype=complex)
    pole = lines.omega - 1j * gamma
    mirror = -lines.omega - 1j * gamma
    weight = lines.weight.astype(complex)  # cast once, not in every block's divide

    def row_sum(points, out, near, far):
        # (weight / (pole - z) - weight / (mirror - z)), in place
        z = points[:, None]
        np.subtract(pole, z, out=near)
        if lines._self_reflected:
            np.divide(weight, near[:, ::-1], out=far)
        else:
            np.subtract(mirror, z, out=far)
            np.divide(weight, far, out=far)
        np.divide(weight, near, out=near)
        np.subtract(near, far, out=near)
        near.sum(axis=-1, out=out)

    out = _line_sum_blocks(row_sum, zeta_arr, lines.n_lines, 2)
    if np.isscalar(zeta) or zeta_arr.ndim == 0:
        return complex(out)
    return out


def _check_finite(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` (a scalar or an array) is finite throughout."""
    values = np.asarray(value, dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"{name} must be finite (got {float(values[bad][0])!r})")


def closed_form_lorentzian(lines: LineSpectrum, gamma: float, zeta):
    """Closed-form polarizability of a broadened line set (test oracle).

    Each line adds weight/(w_line - i*gamma - zeta) minus the same term for
    the reflected line; see the module docstring for the contour derivation.
    Requires a positive, finite Im zeta and a finite Re zeta, like the
    dispersion route it checks.
    """
    _check_positive("gamma", gamma)
    _check_positive("Im zeta", np.imag(zeta))  # retarded response only
    _check_finite("Re zeta", np.real(zeta))
    return _alpha_line_sum(lines, gamma, zeta)


def alpha_boundary(pair: SpectralPair, omega):
    """The physical boundary value alpha(omega + i0+) on the real axis.

    Evaluated analytically from the broadened line model; the Lorentzian
    width acts as the retarded regulator, so no explicit offset is needed.
    Satisfies Im alpha = pi * (S+ - S-) identically.
    """
    return _alpha_line_sum(pair.lines, pair.gamma, np.asarray(omega, dtype=float) + 0.0j)


def im_alpha(pair: SpectralPair, omega):
    """Im alpha(omega + i0+) = pi * [S+(omega) - S-(omega)].

    Negative values mark amplifier bands; no clipping is applied.
    """
    s_plus, s_minus = pair.sums_at(omega)
    return np.pi * (s_plus - s_minus)


@lru_cache(maxsize=None)
def _gl_nodes(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _gl_panels(a: np.ndarray, b: np.ndarray, order: int):
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on each panel [a, b]."""
    nodes, weights = _gl_nodes(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = (mid[:, None] + half[:, None] * nodes).ravel()
    w = (half[:, None] * weights).ravel()
    return x, w


def _panel_edges(centers, scales, inner: float, span: float) -> np.ndarray:
    """Panel edges on [-span, span]: a geometric ladder (step doubling) around each feature out to +-inner, then one about 0.

    A feature's ladder starts at half its scale; the shared ladder is
    +-inner * 2**k out to +-span.  Edges less than 1e-9 of the smallest
    scale apart (ladders of nearby features can collide) are merged; no
    ladder step is that small.
    """
    edges = list(centers)
    for c, s in zip(centers, scales):
        step = 0.5 * s
        while c - step > -inner or c + step < inner:
            edges += (c - step, c + step)
            step *= 2.0
    edges = np.asarray(edges, dtype=float)
    shared = inner * 2.0 ** np.arange(np.ceil(np.log2(span / inner)))
    edges = np.unique(np.concatenate((edges[np.abs(edges) < inner], shared, -shared, [-span, span])))
    keep = np.concatenate(([True], np.diff(edges) > 1e-9 * min(scales)))
    keep[-1] = True
    return edges[keep]


def polarizability_dispersion(lines: LineSpectrum, gamma: float, zeta) -> complex:
    """Quadrature evaluation of the dispersion integral over the real line, for a scalar zeta.

    Takes what ``closed_form_lorentzian`` takes and requires the same
    positive, finite gamma and Im zeta, and a finite Re zeta.  The
    integrand is the line model S+ - S-, summed at the quadrature's own
    nodes on [-M, M], M = ``_SPAN_FACTOR`` * (max(|lines|, |Re zeta|) +
    gamma); the Lorentzian tails beyond fall as 1/w^3.  The ladders start
    at gamma / 2 about each line and at Im zeta / 2 about Re zeta.  The
    integrand's near-pole part D(Re zeta) / (w - zeta) is subtracted over
    the widest window about Re zeta inside [-M, M] and added back as a
    logarithm, so accuracy is uniform down to vanishing Im zeta.
    """
    _check_positive("gamma", gamma)
    zeta = complex(zeta)
    eta = zeta.imag
    _check_positive("Im zeta", eta)  # retarded response only
    x0 = zeta.real
    _check_finite("Re zeta", x0)  # a feature at infinity would never end its ladder
    gamma = float(gamma)
    reach = max(lines.max_abs_omega, abs(x0)) + gamma
    span = _SPAN_FACTOR * reach
    window = span - abs(x0)
    centers = [*lines.omega, *-lines.omega, x0]
    scales = [gamma] * (2 * lines.n_lines) + [eta]
    edges = _panel_edges(centers, scales, 4.0 * reach, span)
    edges = np.unique(np.concatenate((edges, [x0 - window, x0 + window])))  # the window's jump points
    nodes, weights = _gl_panels(edges[:-1], edges[1:], _GL_ORDER)
    s_plus, s_minus = _pair_sums(lines, gamma, np.append(x0, nodes))
    difference = s_plus - s_minus
    d0, inside = difference[0], np.abs(nodes - x0) <= window
    total = np.sum((difference[1:] - d0 * inside) / (nodes - zeta) * weights)
    # plus the integral of d0 / (w - zeta) over [x0 - window, x0 + window]
    return complex(total + d0 * np.log((window - 1j * eta) / (-window - 1j * eta)))


@dataclass(frozen=True)
class PolarizabilityCurve:
    """The boundary value alpha(omega + i0+) of ``pair``'s line model on ``pair.grid``, summed on first read.

    It is evaluated analytically, with the Lorentzian width as regulator.
    An offset curve alpha(omega + i*eta) is not a curve of this type: the
    cross sections, bands and media it feeds read Im alpha = pi (S+ - S-),
    which holds on the boundary only; the library route to one is
    ``closed_form_lorentzian(lines, gamma, omega + 1j * eta)``.
    ``positive_alpha`` sums the lines over ``positive_grid`` only, the part
    cross sections and media tabulate; ``alpha`` adds the omega <= 0 rows to
    it.  Every summed row is an ``alpha_boundary`` value.  Either is cached,
    so each row is summed at most once, and a row -w whose mirror row is w
    copies conj(alpha(w + i0+)) from it (``spectral._mirror_rows``).
    """

    pair: SpectralPair

    provenance = "closed-form-lorentzian"  # how alpha was computed; bench/layers.py reads it

    @property
    def grid(self) -> np.ndarray:
        """The sample frequencies: the pair's grid."""
        return self.pair.grid

    @property
    def positive_grid(self) -> np.ndarray:
        """The grid's omega > 0 samples, a view of its ascending tail."""
        return self.grid[np.searchsorted(self.grid, 0.0, side="right") :]

    @cached_property
    def positive_alpha(self) -> np.ndarray:
        """alpha(omega + i0+) on ``positive_grid``, summed on first read."""
        return _frozen(alpha_boundary(self.pair, self.positive_grid), complex)

    @cached_property
    def alpha(self) -> np.ndarray:
        """alpha(omega + i0+) on the whole grid; the omega > 0 rows are ``positive_alpha``.

        Of the omega <= 0 rows, the mirrored ones copy their mirror row's
        conjugate; the others are summed on first read.
        """
        grid, positive = self.grid, self.positive_alpha
        n = grid.size - positive.size  # the omega <= 0 rows
        copied, sources, summed = _mirror_rows(grid, n)
        alpha = np.concatenate((np.empty(n, complex), positive))
        copies = alpha[sources]
        np.subtract(0.0, copies.imag, out=copies.imag)  # the conjugate, with an exact 0 kept +0
        alpha[copied] = copies
        alpha[summed] = alpha_boundary(self.pair, grid[summed])
        return _frozen(alpha, complex)


def polarizability_curve(pair: SpectralPair) -> PolarizabilityCurve:
    """The boundary value alpha(omega + i0+) on the pair's grid, in closed form, summed when first read."""
    return PolarizabilityCurve(pair)


def _pv_reconstruct(grid: np.ndarray, f: np.ndarray, eval_idx: np.ndarray) -> np.ndarray:
    """Re alpha from Im alpha by the principal-value Hilbert transform, Maclaurin's rule.

    On the uniform grid the transform at index k is (2/pi) * sum over odd q
    of f[k+q]/q, with f = 0 beyond the grid (K. Ohta and H. Ishida, Appl.
    Spectrosc. 42, 952 (1988)): nodes 2h apart with the pole midway
    between two of them, so for a Lorentzian of width gamma the quadrature
    error falls as exp(-pi gamma / h) and what remains is truncation at the
    grid ends.  The sum is a correlation of f with a fixed odd kernel, done
    by FFT at every index at once.
    """
    n = grid.size
    # kernel K[q] = 1/q on odd q, stored circularly; a length of at least
    # 2n - 1 keeps the correlation free of wrap-around
    size = 1 << (2 * n - 2).bit_length()
    q = np.arange(1, n, 2)
    kernel = np.zeros(size)
    kernel[q], kernel[-q] = 1.0 / q, -1.0 / q
    # sum_q f[k+q] K[q] = -(f conv K)[k] because K is odd
    total = np.fft.irfft(np.fft.rfft(f, size) * np.fft.rfft(kernel), size)
    return total[np.asarray(eval_idx, dtype=np.intp)] * (-2.0 / np.pi)


def kramers_kronig_residual(curve: PolarizabilityCurve) -> float:
    """How well the stored Re alpha matches the Hilbert transform of Im alpha.

    Returns the maximum deviation over the central 80% of the grid, relative
    to the peak |Re alpha| there (pointwise ratios are meaningless where
    Re alpha crosses zero).  Requires a near-uniform grid whose edges have
    |Im alpha| below ``EDGE_DECAY_FRACTION`` of its peak.  The transform is
    taken at every central index, by Maclaurin's odd-offset sum over the
    grid treated as uniform (see ``_pv_reconstruct``).
    """
    grid = curve.grid
    spacing = np.diff(grid)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        raise ValueError("Kramers-Kronig check needs a uniform grid")
    im = curve.alpha.imag
    peak = float(np.abs(im).max())
    if peak > 0.0:
        edge = max(abs(im[0]), abs(im[-1]))
        if edge > EDGE_DECAY_FRACTION * peak:
            raise ValueError(
                f"Im alpha has not decayed at the grid edges ({edge:g} vs peak {peak:g}); "
                "widen the grid"
            )
    n = grid.size
    k_lo, k_hi = int(0.1 * n), int(0.9 * n)
    reconstructed = _pv_reconstruct(grid, im, np.arange(k_lo, k_hi))
    re = curve.alpha.real[k_lo:k_hi]
    scale = float(np.abs(re).max())
    if scale == 0.0:
        return float(np.abs(reconstructed).max())
    return float(np.abs(reconstructed - re).max() / scale)
