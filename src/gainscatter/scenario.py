"""Declarative scenario files: target, grids and pipeline parameters.

A scenario is a plain-text key-value document, one ``key = value`` per
line, values written as Python literals.  ``#`` starts a comment.  Unknown
keys are errors, not warnings: a silently misspelled key would corrupt a
physics run.  Recognized keys:

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
    screen.eps_schedule = [17.7, ...]     default geometric, 6 steps
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

import ast
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .screen import DEFAULT_Z, check_screen, default_eps_schedule, default_r_max
from .spectral import (
    DEFAULT_GAMMA,
    LineSpectrum,
    TargetLevels,
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


def _number(key: str, value, source: str, integer: bool = False):
    """``value`` as a finite float, or an int when ``integer``; else a ScenarioError."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = float(value) if abs(value) <= sys.float_info.max else math.inf  # huge ints overflow
    if not math.isfinite(number):
        raise ScenarioError(f"{source}: {key} must be a finite number (got {value!r})")
    if integer and not number.is_integer():
        raise ScenarioError(f"{source}: {key} must be an integer (got {value!r})")
    return int(value) if integer else number


# A JSON number, a list of them or a list of such lists: the shapes of every
# numeric scenario value.  Each text this matches is a Python literal that
# json.loads reads to the same value and types as ast.literal_eval, about five
# times faster, the match included: JSON's numbers are Python's decimal ints
# and floats, and two levels of nesting stay below both readers' depth limits.
# The pattern is compiled, and json imported, on the first read, not at import.
_JSON_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
_SEP = r"[ \t]*,[ \t]*"
_JSON_VECTOR = rf"\[[ \t]*(?:{_JSON_NUMBER}(?:{_SEP}{_JSON_NUMBER})*[ \t]*)?\]"
_JSON_MATRIX = rf"\[[ \t]*(?:{_JSON_VECTOR}(?:{_SEP}{_JSON_VECTOR})*[ \t]*)?\]"
_JSON_VALUE = rf"{_JSON_NUMBER}|{_JSON_VECTOR}|{_JSON_MATRIX}"


def _literal(text: str):
    """The value of the literal ``text``: by ``json.loads`` for numeric shapes, else ``ast.literal_eval``.

    A JSON ValueError (an int longer than the int-string digit limit) falls
    back to ``literal_eval``, so every error is literal_eval's own.
    """
    if re.fullmatch(_JSON_VALUE, text):
        import json

        try:
            return json.loads(text)
        except ValueError:
            pass
    return ast.literal_eval(text)


def _parse_lines(text: str, source: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, literal = line.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ScenarioError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _literal(literal.strip())
        except (ValueError, SyntaxError, TypeError, RecursionError) as exc:
            # TypeError: an unhashable dict key or set member; RecursionError: deep unary nesting
            raise ScenarioError(f"{source}:{lineno}: bad literal for {key!r}: {exc}") from exc
    return values


def parse_scenario(text: str, source: str = "<scenario>", grid_points_override: int | None = None) -> Scenario:
    """Parse and validate scenario text (fail-fast, first violation named)."""
    values = _parse_lines(text, source)

    def number(key, default=None, integer=False):
        return _number(key, values[key], source, integer) if key in values else default

    for key in ("energies", "dipole_sq"):
        if key not in values:
            raise ScenarioError(f"{source}: missing required key {key!r}")
    has_pop = "populations" in values
    has_temp = "temperature" in values
    if has_pop == has_temp:
        raise ScenarioError(
            f"{source}: exactly one of 'populations' or 'temperature' must be given"
        )

    energies = values["energies"]
    dipole_sq = values["dipole_sq"]
    temperature = number("temperature")
    try:
        if has_pop:
            target = TargetLevels(energies, dipole_sq, values["populations"])
        else:
            target = TargetLevels.from_temperature(energies, dipole_sq, temperature)
    except (TypeError, ValueError, OverflowError) as exc:  # e.g. a string or an int beyond float
        raise ScenarioError(f"{source}: {exc}") from exc

    gamma = number("gamma", DEFAULT_GAMMA)
    try:
        _check_gamma(gamma)
    except ValueError as exc:
        raise ScenarioError(f"{source}: {exc}") from exc
    eta = number("eta", 0.0)
    if eta < 0.0:
        raise ScenarioError(f"{source}: eta must be non-negative (got {eta!r})")

    grid_min = number("grid.min")
    grid_max = number("grid.max")
    if grid_points_override is not None:
        grid_points = int(grid_points_override)
    else:
        grid_points = number("grid.points", integer=True)
    if None in (grid_min, grid_max, grid_points):
        raise ScenarioError(f"{source}: grid.min, grid.max and grid.points are required")
    if not grid_min < grid_max:
        raise ScenarioError(f"{source}: grid.min must be below grid.max")
    if grid_points < 2:
        raise ScenarioError(f"{source}: grid.points must be at least 2")

    lines = line_spectrum(target)
    try:
        check_grid_span(lines, grid_min, grid_max, gamma)
    except ValueError as exc:
        raise ScenarioError(f"{source}: {exc}") from exc

    medium_density = number("medium.density_n")
    if medium_density is not None and medium_density <= 0.0:
        raise ScenarioError(
            f"{source}: medium.density_n must be positive (got {medium_density!r})"
        )
    if medium_density is not None and grid_max <= 0.0:
        raise ScenarioError(f"{source}: medium.density_n needs grid.max > 0 (got {grid_max!r})")

    slab_z_max = number("slab.z_max")
    if slab_z_max is not None and slab_z_max <= 0.0:
        raise ScenarioError(f"{source}: slab.z_max must be positive")
    slab_points = number("slab.points", 101, integer=True)
    if slab_points < 2:
        raise ScenarioError(f"{source}: slab.points must be at least 2")
    slab_omega = number("slab.omega")
    if slab_omega is not None and not 0.0 < slab_omega <= grid_max:
        raise ScenarioError(
            f"{source}: slab.omega must lie in (0, grid.max = {grid_max!r}] (got {slab_omega!r})"
        )

    screen_z = number("screen.z", DEFAULT_Z)
    screen_r_max = number("screen.r_max", default_r_max(screen_z))
    if screen_r_max <= 0.0:
        raise ScenarioError(f"{source}: screen.r_max must be positive (default screen.z/10)")
    screen_omega = number("screen.omega")
    if screen_omega is None and lines.n_lines:
        screen_omega = float(abs(lines.omega[np.argmax(lines.weight)]))  # strongest line
    eps_schedule = values.get("screen.eps_schedule")
    if eps_schedule is not None:
        if not isinstance(eps_schedule, (list, tuple)):
            raise ScenarioError(f"{source}: screen.eps_schedule must be a list of numbers")
        eps_schedule = tuple(_number("screen.eps_schedule", e, source) for e in eps_schedule)
    if screen_omega is not None:  # else the screen pipeline is unused
        if eps_schedule is None:
            schedule = default_eps_schedule(screen_omega, screen_z, screen_r_max)
            eps_schedule = tuple(schedule.tolist())
        try:
            check_screen(screen_omega, screen_z, screen_r_max, eps_schedule)
        except ValueError as exc:
            raise ScenarioError(f"{source}: {exc}") from exc

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
        output_dir=str(values.get("output_dir", "out")),
    )


def load_scenario(path, grid_points_override: int | None = None) -> Scenario:
    """Read and validate a UTF-8 scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text, source=str(path), grid_points_override=grid_points_override)
