"""Dilute media of polarizable targets: dielectric response and extinction.

A dilute gas of density n has epsilon = 1 + 4 pi n alpha (first order in
the density), complex wavevector k = omega sqrt(epsilon), and intensity
profile proportional to exp(-h z) with extinction coefficient h = 2 Im k.
In the dilute limit h = n sigma_tot, so a medium of inverted targets
(sigma_tot < 0) has h < 0 and the beam grows as it propagates: the medium
is an amplifier.  The principal square-root branch keeps that sign chain
automatic for epsilon near 1.

Densities are in (omega_ref/c)^3, h and k in omega_ref/c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .response import PolarizabilityCurve
from .spectral import _check_positive, _frozen

__all__ = [
    "DILUTE_THRESHOLD",
    "MediumResponse",
    "dielectric",
    "wavevector",
    "extinction",
    "extinction_dilute",
    "intensity_profile",
    "medium_response",
]

DILUTE_THRESHOLD = 1e-2  # |4 pi n alpha| must stay below this for the first-order formulas


def dielectric(alpha, density_n: float):
    """First-order dilute dielectric response 1 + 4 pi n alpha."""
    _check_positive("density_n", density_n)
    return 1.0 + 4.0 * np.pi * density_n * np.asarray(alpha, dtype=complex)


def dilute_ok(alpha, density_n: float):
    """True where |4 pi n alpha| is below DILUTE_THRESHOLD."""
    return 4.0 * np.pi * density_n * np.abs(alpha) < DILUTE_THRESHOLD


def wavevector(epsilon, omega):
    """Complex wavevector omega * sqrt(epsilon), principal branch.

    The branch cut sits on the negative real axis; dilute media live near
    epsilon = 1, far from it, and an amplifying sample (Im epsilon < 0)
    automatically gets Im k < 0.  epsilon = 0 is a branch point and is
    rejected.
    """
    epsilon = np.asarray(epsilon, dtype=complex)
    _check_positive("omega", omega)
    omega_arr = np.asarray(omega, dtype=float)
    if np.any(epsilon == 0.0):
        raise ValueError("epsilon = 0 is a branch point of the wavevector")
    return omega_arr * np.sqrt(epsilon)


def extinction(k):
    """Extinction coefficient h = 2 Im k (signed; h < 0 means gain)."""
    return 2.0 * np.asarray(k, dtype=complex).imag


def extinction_dilute(density_n: float, sigma_tot):
    """Dilute-limit extinction h = n sigma_tot; sign inherited from sigma_tot.

    The first-order formula, valid where ``MediumResponse.dilute_ok`` holds.
    """
    _check_positive("density_n", density_n)
    return density_n * np.asarray(sigma_tot, dtype=float)


def intensity_profile(h: float, z_samples):
    """Intensity ratio I(z)/I(0) = exp(-h z) at finite, non-negative, ascending z samples."""
    z = np.asarray(z_samples, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("z samples must be finite")
    if np.any(z < 0.0):
        raise ValueError("z samples must be non-negative")
    if z.size > 1 and not np.all(np.diff(z) > 0.0):
        raise ValueError("z samples must be ascending")
    return np.exp(-h * z)


@dataclass(frozen=True)
class MediumResponse:
    """Per-frequency dielectric response of a dilute medium."""

    density_n: float
    grid: np.ndarray
    epsilon: np.ndarray
    k: np.ndarray
    h: np.ndarray
    dilute_ok: np.ndarray

    def __post_init__(self):
        for name, dtype in (
            ("grid", float),
            ("epsilon", complex),
            ("k", complex),
            ("h", float),
            ("dilute_ok", bool),
        ):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))


def medium_response(curve: PolarizabilityCurve, density_n: float) -> MediumResponse:
    """Compose dielectric -> wavevector -> extinction over a response curve.

    Restricted to the curve's positive frequencies (the wavevector needs
    omega > 0), so only ``curve.positive_alpha`` is summed.
    """
    grid, alpha = curve.positive_grid, curve.positive_alpha
    eps = dielectric(alpha, density_n)
    k = wavevector(eps, grid)
    return MediumResponse(
        density_n=float(density_n),
        grid=grid,
        epsilon=eps,
        k=k,
        h=extinction(k),
        dilute_ok=dilute_ok(alpha, density_n),
    )
