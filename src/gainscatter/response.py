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

``polarizability_dispersion`` is the quadrature route, kept independent of
the closed form so the two can cross-check each other.  It integrates the
line model S+ - S- over the grid's span [grid[0], grid[-1]] and reads no
grid sample.  It uses fixed Gauss-Legendre panels on geometric ladders
around every line and around Re zeta, with the pole subtracted analytically
when Re zeta lies inside the integration range; node placement never
depends on the line weights, so the quadrature is exactly linear in the
spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .spectral import LineSpectrum, SpectralPair, _check_positive, _frozen, _line_sum_blocks, _mirror_rows

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
EDGE_DECAY_FRACTION = 1e-3  # |Im alpha| at the grid edges must be below this times the peak


def _alpha_line_sum(line_omega: np.ndarray, line_weight: np.ndarray, gamma: float, zeta):
    """Analytic alpha(zeta) for Lorentzian-broadened lines; valid for Im zeta >= 0."""
    zeta_arr = np.asarray(zeta, dtype=complex)
    pole = line_omega - 1j * gamma
    mirror = -line_omega - 1j * gamma
    weight = line_weight.astype(complex)  # cast once, not in every block's divide

    def row_sum(points, out, near, far):
        # (weight / (pole - z) - weight / (mirror - z)), in place
        z = points[:, None]
        np.subtract(pole, z, out=near)
        np.divide(weight, near, out=near)
        np.subtract(mirror, z, out=far)
        np.divide(weight, far, out=far)
        np.subtract(near, far, out=near)
        near.sum(axis=-1, out=out)

    out = _line_sum_blocks(row_sum, zeta_arr, line_omega.size, 2)
    if np.isscalar(zeta) or zeta_arr.ndim == 0:
        return complex(out)
    return out


def closed_form_lorentzian(lines: LineSpectrum, gamma: float, zeta):
    """Closed-form polarizability of a broadened line set (test oracle).

    Each line adds weight/(w_line - i*gamma - zeta) minus the same term for
    the reflected line; see the module docstring for the contour derivation.
    Requires a positive, finite Im zeta like the dispersion route it checks.
    """
    _check_positive("gamma", gamma)
    _check_positive("Im zeta", np.imag(zeta))  # retarded response only
    return _alpha_line_sum(lines.omega, lines.weight, gamma, zeta)


def alpha_boundary(pair: SpectralPair, omega):
    """The physical boundary value alpha(omega + i0+) on the real axis.

    Evaluated analytically from the broadened line model; the Lorentzian
    width acts as the retarded regulator, so no explicit offset is needed.
    Satisfies Im alpha = pi * (S+ - S-) identically.
    """
    return _alpha_line_sum(pair.lines.omega, pair.lines.weight, pair.gamma, np.asarray(omega, dtype=float) + 0.0j)


def im_alpha(pair: SpectralPair, omega):
    """Im alpha(omega + i0+) = pi * [S+(omega) - S-(omega)].

    Negative values mark amplifier bands; no clipping is applied.
    """
    return np.pi * pair.difference_at(omega)


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


def _panel_edges(lo: float, hi: float, centers, scales) -> np.ndarray:
    """Panel edges: geometric ladders (step doubling) around each feature."""
    edges = [lo, hi]
    for c, s in zip(centers, scales):
        if not (lo < c < hi):
            continue
        edges.append(c)
        step = 0.5 * s
        while True:
            left, right = c - step, c + step
            if left > lo:
                edges.append(left)
            if right < hi:
                edges.append(right)
            if left <= lo and right >= hi:
                break
            step *= 2.0
    edges = np.unique(np.asarray(edges, dtype=float))
    # Drop near-coincident edges (ladders from nearby features can collide).
    keep = np.concatenate(([True], np.diff(edges) > 1e-12 * (hi - lo)))
    keep[-1] = True
    return edges[keep]


def polarizability_dispersion(pair: SpectralPair, zeta) -> complex:
    """Quadrature evaluation of the dispersion integral over [grid[0], grid[-1]].

    Requires a positive, finite Im zeta.  The integrand is the pair's line
    model S+ - S-, summed at the quadrature's own nodes; no grid sample is
    read, only the grid's two ends, which span the lines (``SpectralPair``
    checks that).  When Re zeta lies inside that span the integrand's
    near-pole part is subtracted analytically (the constant D(Re zeta) over
    a symmetric window integrates to a logarithm), so accuracy is uniform
    down to vanishing Im zeta.
    """
    zeta = complex(zeta)
    eta = zeta.imag
    _check_positive("Im zeta", eta)  # retarded response only
    lo, hi = float(pair.grid[0]), float(pair.grid[-1])
    lines = pair.lines
    gamma = pair.gamma
    x0 = zeta.real
    centers = list(np.concatenate((lines.omega, -lines.omega)))
    scales = [gamma] * len(centers)
    subtract = lo < x0 < hi
    window = 0.0
    d0 = 0.0
    if subtract:
        centers.append(x0)
        scales.append(max(gamma, eta))
        window = min(hi - x0, x0 - lo)
        d0 = float(pair.difference_at(x0))

    edges = [lo, hi]
    if subtract:
        edges += [x0 - window, x0 + window]  # the subtracted window's jump points
    edges = np.unique(np.concatenate((_panel_edges(lo, hi, centers, scales), edges)))

    def integrand(w):
        value = pair.difference_at(w) / (w - zeta)
        if subtract and d0 != 0.0:
            inside = np.abs(w - x0) <= window
            value = value - d0 * inside / (w - zeta)
        return value

    nodes, weights = _gl_panels(edges[:-1], edges[1:], _GL_ORDER)
    total = complex(np.sum(integrand(nodes) * weights))
    if subtract and d0 != 0.0:
        # integral of 1/(w - zeta) over [x0 - W, x0 + W]
        total += d0 * np.log((window - 1j * eta) / (-window - 1j * eta))
    return total


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
    it.  Either is cached, so each row is summed at most once, and a row -w
    whose mirror row is w copies conj(alpha(w + i0+)) from it
    (``spectral._mirror_rows``).
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

    def _alpha_at(self, omega: np.ndarray) -> np.ndarray:
        lines = self.pair.lines
        return _alpha_line_sum(lines.omega, lines.weight, self.pair.gamma, omega + 0.0j)

    @cached_property
    def positive_alpha(self) -> np.ndarray:
        """alpha(omega + i0+) on ``positive_grid``, summed on first read."""
        return _frozen(self._alpha_at(self.positive_grid), complex)

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
        alpha[summed] = self._alpha_at(grid[summed])
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
