"""Declarative scenario files: target, grids and pipeline parameters.

A scenario is a plain-text key-value document, one ``key = value`` per
line, values written as JSON: a number, a list of numbers or of
equal-length lists of them, and a string for ``output_dir``.  ``#`` starts
a comment.  Unknown keys are errors, not warnings: a silently misspelled
key would corrupt a physics run.  Recognized keys:

    energies        = [0.0, 1.0]          level energies, ascending
    dipole_sq       = [[0, 1], [1, 0]]    symmetric |<F|p|I>|^2 matrix
    populations     = [1.0, 0.0]          exactly one of populations /
    temperature     = 0.5                 temperature must be given
    gamma           = 0.01                Lorentzian half-width (> 0)
    eta             = 0.0                 curve offset (>= 0, default 0)
    grid.min        = -3.0                response/spectrum grid
    grid.max        = 3.0
    grid.points     = 2001
    medium.density_n = 1e-6               enables the medium pipeline
                                          (needs grid.max > 0)
    slab.z_max      = 100.0               slab profile extent (optional)
    slab.points     = 101
    slab.omega      = 1.0                 profile frequency in (0, grid.max]
                                          (default: that of max |h|)
    screen.z        = 1e4                 enables/configures verification
    screen.r_max    = 1e3                 default z/10
    screen.eps_schedule = [17.7, ...]     default geometric, 6 steps (at least 3)
    screen.omega    = 1.0                 default: strongest line frequency
    output_dir      = "out"               default output directory

Validation is fail-fast: every referenced precondition is checked before
any computation starts, and the first violated invariant is named.  Scalars
must be finite numbers, counts integers.  Defaults are resolved here.
The target (levels, dipoles, populations) is checked and reduced to its
line set; the scenario keeps the lines, not the levels.

The canonical scenarios (a ground-state absorber, a fully inverted
amplifier, a thermal three-level ladder) ship with the package as
``gainscatter/scenarios/*.txt``; ``validate`` runs them from there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .screen import DEFAULT_Z, _eps_fit, check_screen, default_eps_schedule, default_r_max
from .spectral import (
    DEFAULT_GAMMA,
    LineSpectrum,
    TargetLevels,
    _check_density,
    _check_eta,
    _check_gamma,
    check_grid_span,
    line_spectrum,
)

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "load_scenario"]

_KNOWN_KEYS = {
    "energies",
    "dipole_sq",
    "populations",
    "temperature",
    "gamma",
    "eta",
    "grid.min",
    "grid.max",
    "grid.points",
    "medium.density_n",
    "slab.z_max",
    "slab.points",
    "slab.omega",
    "screen.z",
    "screen.r_max",
    "screen.eps_schedule",
    "screen.omega",
    "output_dir",
}


class ScenarioError(ValueError):
    """A scenario file violated an invariant; the message names which."""


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: line set plus grid/medium/screen parameters, defaults resolved.

    ``lines`` is the target's line set, built once at parse.  ``screen_omega``
    (and so the default eps schedule) is None only for a target without lines
    and no ``screen.omega`` key.
    """

    lines: LineSpectrum
    gamma: float
    eta: float
    grid_min: float
    grid_max: float
    grid_points: int
    medium_density: float | None = None
    slab_z_max: float | None = None
    slab_points: int = 101
    slab_omega: float | None = None
    screen_z: float = DEFAULT_Z
    screen_r_max: float | None = None
    screen_eps_schedule: tuple | None = None
    screen_omega: float | None = None
    output_dir: str = "out"

    def grid(self) -> np.ndarray:
        return np.linspace(self.grid_min, self.grid_max, self.grid_points)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(key: str, value, integer: bool = False):
    """``value`` as a finite float, or an int when ``integer``; else a ValueError."""
    number = math.nan
    if _is_number(value):
        number = float(value) if abs(value) <= sys.float_info.max else math.inf  # huge ints overflow
    if not math.isfinite(number):
        raise ValueError(f"{key} must be a finite number (got {value!r})")
    if integer and not number.is_integer():
        raise ValueError(f"{key} must be an integer (got {value!r})")
    return int(value) if integer else number


def _numbers(key: str, value) -> list:
    """``value`` if a list of numbers or of equal-length lists of numbers; else a ValueError."""
    rows = value if isinstance(value, list) and all(isinstance(row, list) for row in value) else [value]
    for row in rows:
        if not (isinstance(row, list) and len(row) == len(rows[0]) and all(map(_is_number, row))):
            raise ValueError(f"{key} must be a list of numbers or of equal-length lists of numbers")
    return value


def _parse_lines(text: str, source: str) -> dict:
    import json  # on the first read, not at import

    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ScenarioError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = json.loads(value)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise ScenarioError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def parse_scenario(text: str, source: str = "<scenario>", grid_points_override: int | None = None) -> Scenario:
    """Parse and validate scenario text (fail-fast, first violation named)."""
    values = _parse_lines(text, source)
    try:
        return _validated(values, grid_points_override)
    except (ValueError, OverflowError) as exc:  # a value rule's or a library check's message
        raise ScenarioError(f"{source}: {exc}") from exc


def _validated(values: dict, grid_points_override: int | None) -> Scenario:
    """The Scenario that ``values`` describe; a ValueError names the first violated rule."""

    def number(key, default=None, integer=False):
        return _number(key, values[key], integer) if key in values else default

    for key in ("energies", "dipole_sq"):
        if key not in values:
            raise ValueError(f"missing required key {key!r}")
    has_pop = "populations" in values
    has_temp = "temperature" in values
    if has_pop == has_temp:
        raise ValueError("exactly one of 'populations' or 'temperature' must be given")

    temperature = number("temperature")
    energies = _numbers("energies", values["energies"])
    dipole_sq = _numbers("dipole_sq", values["dipole_sq"])
    if has_pop:
        target = TargetLevels(energies, dipole_sq, _numbers("populations", values["populations"]))
    else:
        target = TargetLevels.from_temperature(energies, dipole_sq, temperature)

    gamma = number("gamma", DEFAULT_GAMMA)
    _check_gamma(gamma)
    eta = number("eta", 0.0)
    _check_eta(eta)

    grid_min = number("grid.min")
    grid_max = number("grid.max")
    if grid_points_override is not None:
        grid_points = int(grid_points_override)
    else:
        grid_points = number("grid.points", integer=True)
    if None in (grid_min, grid_max, grid_points):
        raise ValueError("grid.min, grid.max and grid.points are required")
    if not grid_min < grid_max:
        raise ValueError("grid.min must be below grid.max")
    if grid_points < 2:
        raise ValueError("grid.points must be at least 2")

    lines = line_spectrum(target)
    check_grid_span(lines, grid_min, grid_max, gamma)

    medium_density = number("medium.density_n")
    if medium_density is not None:
        _check_density(medium_density)
        if grid_max <= 0.0:
            raise ValueError(f"medium.density_n needs grid.max > 0 (got {grid_max!r})")

    slab_z_max = number("slab.z_max")
    if slab_z_max is not None and slab_z_max <= 0.0:
        raise ValueError("slab.z_max must be positive")
    slab_points = number("slab.points", 101, integer=True)
    if slab_points < 2:
        raise ValueError("slab.points must be at least 2")
    slab_omega = number("slab.omega")
    if slab_omega is not None and not 0.0 < slab_omega <= grid_max:
        raise ValueError(f"slab.omega must lie in (0, grid.max = {grid_max!r}] (got {slab_omega!r})")

    screen_z = number("screen.z", DEFAULT_Z)
    screen_r_max = number("screen.r_max", default_r_max(screen_z))
    screen_omega = number("screen.omega")
    if screen_omega is None and lines.n_lines:
        screen_omega = float(abs(lines.omega[np.argmax(lines.weight)]))  # strongest line
    eps_schedule = values.get("screen.eps_schedule")
    if eps_schedule is not None:  # a flat list: _number rejects a row
        key = "screen.eps_schedule"
        eps_schedule = tuple(_number(key, e) for e in _numbers(key, eps_schedule))
    if screen_omega is not None:  # else the screen pipeline is unused
        check_screen(screen_omega, screen_z, screen_r_max, eps_schedule or ())
        if eps_schedule is None:
            eps_schedule = tuple(default_eps_schedule(screen_omega, screen_z, screen_r_max).tolist())
        _eps_fit(eps_schedule, full=True)  # verify fits the full form too: a too-short schedule fails here
    output_dir = values.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ValueError(f"output_dir must be a string (got {output_dir!r})")

    return Scenario(
        lines=lines,
        gamma=gamma,
        eta=eta,
        grid_min=grid_min,
        grid_max=grid_max,
        grid_points=grid_points,
        medium_density=medium_density,
        slab_z_max=slab_z_max,
        slab_points=slab_points,
        slab_omega=slab_omega,
        screen_z=screen_z,
        screen_r_max=screen_r_max,
        screen_eps_schedule=eps_schedule,
        screen_omega=screen_omega,
        output_dir=output_dir,
    )


def load_scenario(path, grid_points_override: int | None = None) -> Scenario:
    """Read and validate a UTF-8 scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text, source=str(path), grid_points_override=grid_points_override)
