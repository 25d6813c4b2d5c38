"""Optical scattering observables for dipole targets with arbitrary populations.

Builds the emission/absorption spectral densities of a quantum dipole
target, its complex polarizability, the elastic/total/inelastic cross
sections, the dielectric response of a dilute gas of such targets, and a
first-principles far-field screen check of the optical theorem.  Targets
with inverted level populations come out with a negative total cross
section: the screen behind the target is brighter than the free beam, and
every route here (optical theorem, spectral/noise-temperature form, screen
integral) agrees on that sign.

Internal units: hbar = c = k_B = 1.  Frequencies are in a reference
omega_ref, squared dipole moments in d_ref^2, so polarizabilities carry
d_ref^2/omega_ref and cross sections (c/omega_ref)^2.  Number densities
are in (omega_ref/c)^3.
"""

from .medium import (
    DILUTE_THRESHOLD,
    MediumResponse,
    dielectric,
    extinction,
    extinction_dilute,
    intensity_profile,
    medium_response,
    wavevector,
)
from .response import (
    PolarizabilityCurve,
    alpha_boundary,
    closed_form_lorentzian,
    im_alpha,
    kramers_kronig_residual,
    polarizability_curve,
    polarizability_dispersion,
)
from .scattering import (
    BAND_LABELS,
    CrossSectionSet,
    amplifier_bands,
    cross_sections,
    differential_elastic,
    scattering_amplitude,
    sigma_elastic,
    sigma_total_optical,
    sigma_total_spectral,
)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .screen import (
    optical_theorem_sigma,
    screen_intensity,
    verify_optical_theorem,
)
from .spectral import (
    DEFAULT_GAMMA,
    LineSpectrum,
    SpectralPair,
    TargetLevels,
    broaden,
    detailed_balance_residual,
    line_spectrum,
    noise_temperature,
    noise_temperature_samples,
    noise_temperature_values,
    symmetric_spectrum,
    thermal_populations,
)

__version__ = "0.1.0"
