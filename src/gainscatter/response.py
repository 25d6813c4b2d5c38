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
the closed form so the two can cross-check each other.  It uses fixed
Gauss-Legendre panels on geometric ladders around every line and around
Re zeta, with the pole subtracted analytically when Re zeta lies inside the
integration range; node placement never depends on the line weights, so the
quadrature is exactly linear in the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .spectral import LineSpectrum, SpectralPair, _check_eta, _check_gamma, _frozen, _line_sum_blocks

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
KK_EVAL_POINTS = 1024  # at most this many points of the Kramers-Kronig check


def _alpha_line_sum(line_omega: np.ndarray, line_weight: np.ndarray, gamma: float, zeta):
    """Analytic alpha(zeta) for Lorentzian-broadened lines; valid for Im zeta >= 0."""
    zeta_arr = np.asarray(zeta, dtype=complex)
    if line_omega.size == 0:
        out = np.zeros_like(zeta_arr)
    else:
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
    Requires Im zeta > 0 like the dispersion route it checks.
    """
    _check_gamma(gamma)
    zeta_arr = np.asarray(zeta, dtype=complex)
    if np.any(zeta_arr.imag <= 0.0):
        raise ValueError("Im zeta must be positive (retarded response only)")
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


def _gl_panels(edges: np.ndarray, order: int):
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on each panel between ``edges``."""
    nodes, weights = _gl_nodes(order)
    a, b = edges[:-1], edges[1:]
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
    """Quadrature evaluation of the dispersion integral over the pair's grid.

    Requires Im zeta > 0.  When Re zeta lies inside the grid the integrand's
    near-pole part is subtracted analytically (the constant D(Re zeta) over
    a symmetric window integrates to a logarithm), so accuracy is uniform
    down to vanishing Im zeta.  The pair's grid spans its lines (``SpectralPair``
    checks that) and must resolve the integrand near Re zeta: local spacing
    above max(gamma, Im zeta)/4 is rejected.
    """
    zeta = complex(zeta)
    eta = zeta.imag
    if eta <= 0.0:
        raise ValueError("Im zeta must be positive (retarded response only)")
    grid = pair.grid
    lo, hi = float(grid[0]), float(grid[-1])
    lines = pair.lines
    gamma = pair.gamma
    x0 = zeta.real
    if lo < x0 < hi:
        i = int(np.searchsorted(grid, x0))
        i = min(max(i, 1), grid.size - 1)
        local_spacing = float(grid[i] - grid[i - 1])
        allowed = max(gamma, eta) / 4.0
        if local_spacing > allowed * (1.0 + 1e-9):
            raise ValueError(
                f"pair grid too coarse near Re zeta = {x0:g}: spacing {local_spacing:g} "
                f"exceeds max(gamma, Im zeta)/4 = {allowed:g}; refine the grid there"
            )

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

    nodes, weights = _gl_panels(edges, _GL_ORDER)
    total = complex(np.sum(integrand(nodes) * weights))
    if subtract and d0 != 0.0:
        # integral of 1/(w - zeta) over [x0 - W, x0 + W]
        total += d0 * np.log((window - 1j * eta) / (-window - 1j * eta))
    return total


@dataclass(frozen=True)
class PolarizabilityCurve:
    """Complex polarizability of ``pair``'s line model on ``pair.grid``, summed on first read.

    ``eta`` is the imaginary offset of the sample points zeta = omega +
    i*eta.  eta = 0 denotes the physical boundary value, evaluated
    analytically with the Lorentzian width as regulator (production
    default); eta > 0 curves are used where a genuine upper-half-plane
    offset is wanted (crossing-symmetry and Kramers-Kronig checks).
    ``positive_alpha`` sums the lines over ``positive_grid`` only, the part
    cross sections and media tabulate; ``alpha`` adds the omega <= 0 rows to
    it.  Either is cached, so each row is summed at most once.

    Of the omega <= 0 rows, ``alpha`` sums only those whose mirror row, as
    far from the other end of the grid, is not at their exact negation;
    each other row -w copies the crossing-symmetric conj(alpha(w + i*eta))
    of its mirror row w > 0, bit for bit.  Negation is exact, so at -w each
    line's ``pole - zeta`` is -conj(``mirror - zeta``) at w, and its
    ``mirror - zeta`` is -conj(``pole - zeta``) at w.  For a real weight a,
    numpy's complex division gives a / -conj(d) = -conj(a / d) exactly, so
    each line's term at -w, and the sum of the terms in the same order, is
    the conjugate of the one at w.  An imaginary part that cancels to
    exactly 0 is the one exception: the sum gives +0 at both w and -w, so
    the copy negates it as ``0 - x``, which never makes it -0.
    """

    eta: float
    pair: SpectralPair

    provenance = "closed-form-lorentzian"  # how alpha was computed; bench/layers.py reads it

    def __post_init__(self):
        object.__setattr__(self, "eta", float(self.eta))
        _check_eta(self.eta)

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
        return _alpha_line_sum(lines.omega, lines.weight, self.pair.gamma, omega + 1j * self.eta)

    @cached_property
    def positive_alpha(self) -> np.ndarray:
        """alpha(omega + i*eta) on ``positive_grid``, summed on first read."""
        return _frozen(self._alpha_at(self.positive_grid), complex)

    @cached_property
    def alpha(self) -> np.ndarray:
        """alpha(omega + i*eta) on the whole grid; the omega > 0 rows are ``positive_alpha``.

        An omega < 0 row whose mirror row is at its exact negation copies
        that row's conjugate; the others are summed on first read.
        """
        grid, positive = self.grid, self.positive_alpha
        n = grid.size - positive.size  # the omega <= 0 rows
        alpha = np.concatenate((np.empty(n, complex), positive))
        mirrored = (grid[:n] == -grid[::-1][:n]) & (grid[:n] < 0.0)  # row grid.size - 1 - i is -grid[i]
        copied, summed = np.flatnonzero(mirrored), np.flatnonzero(~mirrored)
        copies = alpha[grid.size - 1 - copied]
        np.subtract(0.0, copies.imag, out=copies.imag)  # the conjugate, with an exact 0 kept +0
        alpha[copied] = copies
        alpha[summed] = self._alpha_at(grid[summed])
        return _frozen(alpha, complex)


def polarizability_curve(pair: SpectralPair, eta: float = 0.0) -> PolarizabilityCurve:
    """alpha(omega + i*eta) on the pair's grid, in closed form, summed when first read.

    With the default eta = 0 this is the boundary value alpha(omega + i0+).
    """
    return PolarizabilityCurve(eta, pair)


def _pv_reconstruct(grid: np.ndarray, f: np.ndarray, eval_idx: np.ndarray) -> np.ndarray:
    """Re alpha from Im alpha by the principal-value Hilbert transform.

    Odd reflection about the singular point: over the symmetric window the
    integrand becomes [f(w+u) - f(w-u)]/u, smooth at u = 0 with limit
    2 f'(w); the leftover one-sided stretches are ordinary trapezoids.  On
    the uniform grid the trapezoid pieces of a pass at stride s add up to
    the discrete Hilbert sum s * sum f[k+q]/q over q != 0 divisible by s,
    whatever the window, plus the u = 0 term from a 4th-order derivative
    stencil.  The grid ends carry trapezoid weights, as fractions of the
    interior weight: half for s = 1; for s = 2, half where the end is an
    even number of steps from k, otherwise 3/4 on the last even point and
    1/4 on the end itself (the last interval is a half step).  Both sums
    are correlations of f with a fixed kernel, done by FFT at every index
    at once.  Richardson (h, 2h) extrapolation
    removes the leading h^2 error; points 4 to 7 steps from an end get the
    stride-1 pass alone, and points closer than 4 steps get 0.
    """
    n = grid.size
    k = np.asarray(eval_idx, dtype=np.intp)
    reach = np.minimum(k, n - 1 - k)
    out = np.zeros(k.size)
    inner = reach >= 4
    if not inner.any():
        return out
    k, reach = k[inner], reach[inner]
    p = n - 1 - k  # steps to the right end

    # kernels K[q] = 1/q and 2/q on even q, stored circularly; a length of at
    # least 2n - 1 keeps the correlation free of wrap-around
    size = 1 << (2 * n - 2).bit_length()
    q = np.arange(1, n)
    kernels = np.zeros((2, size))
    kernels[0, q], kernels[0, -q] = 1.0 / q, -1.0 / q
    even = q[1::2]
    kernels[1, even], kernels[1, -even] = 2.0 / even, -2.0 / even
    # sum_q f[k+q] K[q] = -(f conv K)[k] because K is odd
    spectrum = np.fft.rfft(f, size) * np.fft.rfft(kernels, axis=-1)
    fine, coarse = -np.fft.irfft(spectrum, size)[:, k]

    # end weights: the sums above give every point the interior weight
    fine += 0.5 * (f[0] / k - f[-1] / p)
    odd_k, odd_p = k % 2 == 1, p % 2 == 1
    coarse += np.where(odd_k, 0.5 * (f[1] / (k - 1) - f[0] / k), f[0] / k)
    coarse += np.where(odd_p, 0.5 * (f[-1] / p - f[-2] / (p - 1)), -f[-1] / p)

    fine += (-f[k + 2] + 8 * f[k + 1] - 8 * f[k - 1] + f[k - 2]) / 12.0
    coarse += (-f[k + 4] + 8 * f[k + 2] - 8 * f[k - 2] + f[k - 4]) / 12.0
    out[inner] = np.where(reach >= 8, (4.0 * fine - coarse) / 3.0, fine)
    return out / np.pi


def kramers_kronig_residual(curve: PolarizabilityCurve) -> float:
    """How well the stored Re alpha matches the Hilbert transform of Im alpha.

    Returns the maximum deviation over the central 80% of the grid, relative
    to the peak |Re alpha| there (pointwise ratios are meaningless where
    Re alpha crosses zero).  Requires a near-uniform grid whose edges have
    |Im alpha| below ``EDGE_DECAY_FRACTION`` of its peak, and a curve offset
    eta at most gamma/10 of the generating pair.  The transform is taken at
    up to ``KK_EVAL_POINTS`` evenly strided points; it treats
    the grid as uniform and computes the principal-value sums at every index
    as FFT correlations with trapezoid weights at the grid ends (see
    ``_pv_reconstruct``).
    """
    grid = curve.grid
    spacing = np.diff(grid)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        raise ValueError("Kramers-Kronig check needs a uniform grid")
    if curve.eta > curve.pair.gamma / 10.0 + 1e-15:
        raise ValueError("curve offset eta must be at most gamma/10 for this check")
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
    eval_idx = np.arange(k_lo, k_hi)
    if eval_idx.size > KK_EVAL_POINTS:
        stride = int(np.ceil(eval_idx.size / KK_EVAL_POINTS))
        eval_idx = eval_idx[::stride]
    reconstructed = _pv_reconstruct(grid, im, eval_idx)
    re = curve.alpha.real[eval_idx]
    scale = float(np.abs(curve.alpha.real[k_lo:k_hi]).max())
    if scale == 0.0:
        return float(np.abs(reconstructed).max()) if reconstructed.size else 0.0
    return float(np.abs(reconstructed - re).max() / scale)
