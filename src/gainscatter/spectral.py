"""Quantum dipole targets and their spectral functions.

A target is a set of energy levels with squared dipole matrix elements and
initial-state occupation probabilities.  From these we build the emission /
absorption spectral densities S+(omega) and S-(omega): population-weighted
sums of delta lines at the signed transition frequencies, optionally
broadened into Lorentzians for grid work.  Detailed balance and the
frequency-dependent noise temperature T_n(omega) both live here; an inverted
pair of levels shows up as T_n < 0 at its transition frequency.

Internal units: hbar = c = k_B = 1.  Energies and frequencies are measured
in a common reference frequency, squared dipole moments in a reference
dipole squared, so spectral densities carry (dipole^2 / frequency).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "TargetLevels",
    "LineSpectrum",
    "SpectralPair",
    "thermal_populations",
    "line_spectrum",
    "broaden",
    "check_grid_span",
    "detailed_balance_residual",
    "noise_temperature",
    "noise_temperature_samples",
    "noise_temperature_values",
    "symmetric_spectrum",
    "DEFAULT_GAMMA",
    "NOISE_FLOOR",
    "LOG_RATIO_FLOOR",
    "BROADEN_MARGIN",
]

DEFAULT_GAMMA = 1e-2      # default Lorentzian half-width
NOISE_FLOOR = 1e-300      # spectral value below this -> noise temperature undefined
LOG_RATIO_FLOOR = 1e-12   # |ln(S+/S-)| below this -> inversion crossover, undefined
BROADEN_MARGIN = 20.0     # grid must span the line set by this many gamma
# Bytes of scratch per line sum, split evenly across the usable CPUs, so memory
# stays O(points + budget) whatever the line count.  On two CPUs a worker's
# 1 MiB holds 32768 points x lines elements of the complex alpha sum's two
# 16-byte arrays, or 131072 of the one 8-byte S+/S- array.  A worker that finds
# the GIL held when its ufunc returns sleeps until it is free, so blocks must
# be large next to that hand-off: on a 2-vCPU VM (numpy 2.4.6), two workers
# sharing 512 KiB were no faster than one on the 30-level ladder's alpha sum,
# while sharing 2 MiB they were 15-45% faster, as host load allowed.
LINE_SUM_BYTES = 1 << 21

POPULATION_SUM_TOL = 1e-12


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TargetLevels:
    """Energy levels, squared dipole matrix elements and populations.

    ``energies`` must be strictly ascending (degenerate levels are rejected:
    they would produce coincident zero-frequency lines).  ``dipole_sq`` is a
    symmetric non-negative matrix; its diagonal is ignored everywhere (no
    permanent dipole moments).  ``populations`` are the initial-state
    probabilities and must sum to one.
    """

    energies: np.ndarray
    dipole_sq: np.ndarray
    populations: np.ndarray

    def __post_init__(self):
        for name in ("energies", "dipole_sq", "populations"):
            values = _frozen(getattr(self, name))
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, values)
        energies, dipole_sq, populations = self.energies, self.dipole_sq, self.populations

        n = energies.size
        if n == 0:
            raise ValueError("target needs at least one level")
        if energies.ndim != 1:
            raise ValueError("energies must be a flat list")
        if n > 1 and not np.all(np.diff(energies) > 0.0):
            raise ValueError(
                "energies must be strictly ascending; degenerate levels are not supported"
            )
        if dipole_sq.shape != (n, n):
            raise ValueError(f"dipole_sq must be {n}x{n} to match the level count")
        if not np.array_equal(dipole_sq, dipole_sq.T):
            raise ValueError("dipole_sq must be symmetric")
        if np.any(dipole_sq < 0.0):
            raise ValueError("dipole_sq entries must be non-negative")
        if populations.shape != (n,):
            raise ValueError("populations must have one entry per level")
        if np.any(populations < 0.0):
            raise ValueError("populations must be non-negative")
        total = float(populations.sum())
        if abs(total - 1.0) > POPULATION_SUM_TOL:
            raise ValueError(
                f"populations must sum to 1 within {POPULATION_SUM_TOL:g} (got {total!r})"
            )

    @classmethod
    def from_temperature(cls, energies, dipole_sq, temperature: float) -> "TargetLevels":
        """Build a target with Boltzmann populations at ``temperature``."""
        return cls(energies, dipole_sq, thermal_populations(energies, temperature))


def thermal_populations(energies, temperature: float) -> np.ndarray:
    """Boltzmann occupation probabilities, exp(-E/T) normalized to sum one.

    Negative temperatures are accepted and produce inverted populations, the
    standard device for describing pumped (amplifying) ensembles.  T = 0 is
    rejected; assign populations explicitly for that degenerate limit.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0:
        raise ValueError("target needs at least one level")
    temperature = float(temperature)
    if temperature == 0.0:
        raise ValueError("temperature 0 is degenerate; pass explicit populations instead")
    # Shift by the dominant (extremal) energy so every exponent is <= 0.
    shift = energies.min() if temperature > 0.0 else energies.max()
    weights = np.exp(-(energies - shift) / temperature)
    return weights / weights.sum()


@dataclass(frozen=True)
class LineSpectrum:
    """The exact (unbroadened) S+ line set: one entry per ordered level pair.

    ``omega`` holds the signed transition frequencies E_final - E_initial and
    ``weight`` the corresponding population-weighted dipole strengths
    p_initial * |<F|p|I>|^2 / 3.  The S- line set is never stored: it equals
    this set reflected through omega = 0 with the same weights.
    """

    omega: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        omega = _frozen(self.omega)
        weight = _frozen(self.weight)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "weight", weight)
        if omega.shape != weight.shape or omega.ndim != 1:
            raise ValueError("omega and weight must be flat lists of equal length")
        if np.any(weight < 0.0):
            raise ValueError("line weights must be non-negative")

    @property
    def n_lines(self) -> int:
        return self.omega.size

    @property
    def max_abs_omega(self) -> float:
        return float(np.abs(self.omega).max()) if self.omega.size else 0.0

    def aggregated(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique line frequencies with summed weights."""
        if self.omega.size == 0:
            return np.empty(0), np.empty(0)
        uniq, inverse = np.unique(self.omega, return_inverse=True)
        summed = np.zeros_like(uniq)
        np.add.at(summed, inverse, self.weight)
        return uniq, summed

    @cached_property
    def _weight_by_omega(self) -> dict[float, float]:
        """Summed S+ weight per unique line frequency, aggregated on first use."""
        uniq, summed = self.aggregated()
        return dict(zip(uniq.tolist(), summed.tolist()))

    def s_plus_weight_at(self, omega: float) -> float:
        """Total S+ delta weight sitting exactly at ``omega`` (0 if none)."""
        return self._weight_by_omega.get(float(omega), 0.0)

    def s_minus_weight_at(self, omega: float) -> float:
        """Total S- delta weight at ``omega``, i.e. the S+ weight at -omega."""
        return self.s_plus_weight_at(-float(omega))


def line_spectrum(target: TargetLevels) -> LineSpectrum:
    """All dipole transition lines of a target.

    One line per ordered pair (initial, final) of distinct levels, at the
    signed frequency E_final - E_initial with weight p_initial *
    dipole_sq[initial, final] / 3.  Zero-weight lines are dropped.
    """
    pairs = (target.populations[:, None] != 0.0) & (target.dipole_sq != 0.0)
    np.fill_diagonal(pairs, False)
    initial, final = np.nonzero(pairs)  # row-major order, which the stable sort keeps for ties
    omegas = target.energies[final] - target.energies[initial]
    weights = target.populations[initial] * target.dipole_sq[initial, final] / 3.0
    order = np.argsort(omegas, kind="stable")
    return LineSpectrum(omegas[order], weights[order])


@dataclass(frozen=True)
class SpectralPair:
    """The broadened line model: Lorentzian S+ and S- of ``lines`` over a grid.

    Construction checks a strictly ascending grid spanning the lines
    (``check_grid_span``) and a positive, finite gamma.
    ``s_plus_at``/``s_minus_at`` evaluate the model exactly at any frequency.
    The grid samples ``s_plus``/``s_minus`` (the export/CSV view) are built
    on first read and cached; of the CLI stages only ``spectrum`` reads them,
    while the curve, the cross sections and the medium need only ``grid``,
    ``gamma`` and ``lines``.  ``s_plus`` sums every sample.  ``s_minus``
    sums only the samples w whose mirror sample, as far from the other end
    of the grid, is not exactly -w; at the others it copies S+(-w), which is
    the same sum bit for bit: negation is exact, so w + w_line and
    -w - w_line are exact negatives and their squares, hence every term,
    are equal.
    """

    grid: np.ndarray
    gamma: float
    lines: LineSpectrum

    def __post_init__(self):
        grid = _frozen(self.grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "gamma", float(self.gamma))
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must hold at least two samples")
        if not np.all(np.diff(grid) > 0.0):
            raise ValueError("grid must be strictly ascending")
        _check_gamma(self.gamma)
        if not isinstance(self.lines, LineSpectrum):
            raise ValueError("a spectral pair is built from its line set (a LineSpectrum)")
        check_grid_span(self.lines, grid[0], grid[-1], self.gamma)

    @cached_property
    def s_plus(self) -> np.ndarray:
        """S+ on the grid, summed over the lines on first read."""
        return _frozen(self.s_plus_at(self.grid))

    @cached_property
    def s_minus(self) -> np.ndarray:
        """S- on the grid: S+ at the mirror sample where that is -omega, else summed on first read."""
        grid = self.grid
        summed = np.flatnonzero(grid != -grid[::-1])  # grid[-1 - i] is not -grid[i] exactly
        s_minus = self.s_plus[::-1].copy()
        s_minus[summed] = self.s_minus_at(grid[summed])
        return _frozen(s_minus)

    def s_plus_at(self, omega):
        """S+ at arbitrary frequencies, summed exactly over the lines."""
        return _broadened_sum(self.lines.omega, self.lines.weight, self.gamma, omega)

    def s_minus_at(self, omega):
        """S- at arbitrary frequencies; equals S+ mirrored through omega = 0."""
        return _broadened_sum(-self.lines.omega, self.lines.weight, self.gamma, omega)

    def difference_at(self, omega):
        """S+(omega) - S-(omega), the dissipative weight (signed)."""
        return self.s_plus_at(omega) - self.s_minus_at(omega)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _line_sum_blocks(row_sum, points: np.ndarray, n_lines: int, n_work: int) -> np.ndarray:
    """``row_sum`` over ``points`` of any shape, a block of rows at a time, on ``W`` threads.

    ``row_sum(block, out, *work)`` sums each point of the flat ``block`` over
    the lines into ``out``, using the ``n_work`` (rows, lines) arrays ``work``
    of the points' dtype as scratch.  The ``LINE_SUM_BYTES`` budget is split
    evenly across the usable CPUs, which fixes the rows per block (one row
    when a single row is larger); ``W`` is the CPU count capped at the block
    count.  Each worker takes the next block in order until none is left,
    so a worker on a busier CPU takes fewer; the calling thread is worker 0
    and runs alone when there is one block.  NumPy's ufuncs release the GIL,
    so the workers overlap.

    Each worker's scratch is allocated here, before any thread starts, and
    reused by every one of its blocks: allocating it per block lets the heap
    shrink and regrow around each block, which costs a page fault per page.
    Workers run under the caller's NumPy error state, and the first worker's
    exception is raised here once every thread has joined.  Each row is
    reduced on its own, so the result is bitwise identical to one dense
    expression over all points, whatever the block size or worker count.
    """
    flat = points.reshape(-1)
    out = np.empty(flat.shape, dtype=points.dtype)
    cpus = _usable_cpus()
    row_bytes = n_work * n_lines * out.itemsize
    rows = max(1, min(flat.size, LINE_SUM_BYTES // (cpus * row_bytes)))
    starts = range(0, flat.size, rows)
    n_workers = max(1, min(cpus, len(starts)))
    work = np.empty((n_workers, n_work, rows, n_lines), dtype=points.dtype)
    next_start, lock = iter(starts), threading.Lock()
    errstate = np.geterr()
    errors = [None] * n_workers

    def worker(k: int) -> None:
        try:
            with np.errstate(**errstate):
                while True:
                    with lock:
                        start = next(next_start, None)
                    if start is None:
                        return
                    block = flat[start : start + rows]
                    row_sum(block, out[start : start + rows], *work[k, :, : block.size])
        except BaseException as exc:
            errors[k] = exc

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(1, n_workers)]
    for thread in threads:
        thread.start()
    worker(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return out.reshape(points.shape)


def _broadened_sum(line_omega: np.ndarray, line_weight: np.ndarray, gamma: float, omega):
    omega_arr = np.asarray(omega, dtype=float)
    if line_omega.size == 0:
        out = np.zeros_like(omega_arr)
        return float(out) if np.isscalar(omega) or omega_arr.ndim == 0 else out

    def row_sum(points, out, x):
        # the Lorentzian (gamma/pi) / (x^2 + gamma^2) times line_weight, in place
        np.subtract(points[:, None], line_omega, out=x)
        np.multiply(x, x, out=x)
        np.add(x, gamma * gamma, out=x)
        np.divide(gamma / np.pi, x, out=x)
        np.multiply(x, line_weight, out=x)
        x.sum(axis=-1, out=out)

    out = _line_sum_blocks(row_sum, omega_arr, line_omega.size, 1)
    return float(out) if np.isscalar(omega) or omega_arr.ndim == 0 else out


def _check_omega(omega) -> None:
    """Raise ValueError unless every frequency in ``omega`` (scalar or array) is positive and finite."""
    values = np.asarray(omega, dtype=float)
    bad = ~((values > 0.0) & (values < np.inf))
    if bad.any():
        raise ValueError(f"omega must be positive and finite (got {float(values[bad][0])!r})")


def _check_gamma(gamma: float) -> None:
    """Raise ValueError unless the Lorentzian half-width is positive and finite."""
    if not 0.0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite (got {gamma!r})")


def _check_eta(eta: float) -> None:
    """Raise ValueError unless the curve offset eta (omega + i eta) is non-negative and finite."""
    if not 0.0 <= eta < np.inf:
        raise ValueError(f"eta must be non-negative and finite (got {eta!r})")


def _check_density(density_n: float) -> None:
    """Raise ValueError unless the number density is positive and finite."""
    if not 0.0 < density_n < np.inf:
        raise ValueError(f"density_n must be positive and finite (got {density_n!r})")


def check_grid_span(lines: LineSpectrum, grid_min: float, grid_max: float, gamma: float) -> None:
    """Raise ValueError unless the grid spans the signed lines by BROADEN_MARGIN * gamma."""
    if lines.n_lines:
        m = lines.max_abs_omega
        margin = BROADEN_MARGIN * gamma
        lo_req, hi_req = -m - margin, m + margin
        if grid_min > lo_req or grid_max < hi_req:
            raise ValueError(
                f"grid [{grid_min:g}, {grid_max:g}] does not cover the line set: need "
                f"[{lo_req:g}, {hi_req:g}] to span max |line frequency| {m:g} by "
                f"{BROADEN_MARGIN:g}*gamma"
            )


def broaden(lines: LineSpectrum, grid, gamma: float) -> SpectralPair:
    """Replace each delta line by a Lorentzian of half-width ``gamma``.

    ``SpectralPair`` checks the grid, its span and gamma; the line sums over
    the grid run only when the pair's ``s_plus``/``s_minus`` are first read.
    """
    return SpectralPair(grid, gamma, lines)


def detailed_balance_residual(lines: LineSpectrum, temperature: float) -> float:
    """Worst relative violation of S-(w) = S+(w) exp(-w/T) on exact line weights.

    Checked at every positive frequency carrying S+ or S- weight.  A
    frequency where S+ vanishes but S- does not gives an infinite residual
    (an inverted pair can never look thermal at positive temperature).
    """
    if temperature <= 0.0:
        raise ValueError("detailed balance is defined against a positive temperature")
    weight = lines._weight_by_omega
    support = np.unique(np.abs(list(weight)))
    support = support[support > 0.0]
    worst = 0.0
    for w in support:
        s_plus = weight.get(w, 0.0)
        s_minus = weight.get(-w, 0.0)
        if s_plus == 0.0 and s_minus == 0.0:
            continue
        if s_plus == 0.0:
            return float("inf")
        expected = np.exp(-w / temperature)
        worst = max(worst, abs(s_minus / s_plus - expected) / expected)
    return float(worst)


def _defined_log_ratio(s_plus, s_minus):
    """The T_n definedness rule: returns ``(both, x, defined)`` over equal-shape arrays.

    ``both``: S+ and S- are both at least ``NOISE_FLOOR``.  ``x``: ln(S+/S-)
    there (0 elsewhere), i.e. omega / T_n.  ``defined``: ``both`` and
    |x| >= ``LOG_RATIO_FLOOR``, away from the inversion crossover.  Near
    S+ = S- the plain log of the ratio loses the tiny difference, so x is
    log1p of (S+ - S-)/S- there; far from the crossover the plain log is the
    well-conditioned form.
    """
    s_plus, s_minus = np.asarray(s_plus, dtype=float), np.asarray(s_minus, dtype=float)
    both = np.minimum(s_plus, s_minus) >= NOISE_FLOOR
    s_plus, s_minus = np.where(both, s_plus, 1.0), np.where(both, s_minus, 1.0)
    near = (s_plus < 2.0 * s_minus) & (s_minus < 2.0 * s_plus)
    diff = np.where(near, s_plus - s_minus, 0.0) / np.where(near, s_minus, 1.0)
    ratio = np.where(near, 1.0, s_plus) / np.where(near, 1.0, s_minus)
    x = np.where(near, np.log1p(diff), np.log(ratio))
    return both, x, both & (np.abs(x) >= LOG_RATIO_FLOOR)


def noise_temperature_values(omega, s_plus, s_minus) -> np.ndarray:
    """T_n = omega / ln(S+/S-) pointwise over arrays of equal shape.

    NaN ("undefined") where either spectral value is below ``NOISE_FLOOR``,
    where the log-ratio is within ``LOG_RATIO_FLOOR`` of zero (the crossover
    where T_n diverges), and at omega = 0.  The scalar and grid forms below
    both go through it; the floors live in ``_defined_log_ratio``, which the
    spectral route to sigma_tot shares.
    """
    omega = np.asarray(omega, dtype=float)
    _, x, defined = _defined_log_ratio(s_plus, s_minus)
    out = np.full(omega.shape, np.nan)
    ok = defined & (omega != 0.0)
    out[ok] = omega[ok] / x[ok]
    return out


def noise_temperature(spectrum: Union[SpectralPair, LineSpectrum], omega: float):
    """Noise temperature T_n(omega) = omega / ln[S+(omega)/S-(omega)].

    Returns a signed float, negative wherever the populations are inverted
    at this frequency, or None where ``noise_temperature_values`` leaves it
    undefined.
    """
    omega = float(omega)
    if omega == 0.0:
        raise ValueError("noise temperature is undefined at zero frequency")
    if isinstance(spectrum, LineSpectrum):
        s_plus = spectrum.s_plus_weight_at(omega)
        s_minus = spectrum.s_minus_weight_at(omega)
    else:
        s_plus = spectrum.s_plus_at(omega)
        s_minus = spectrum.s_minus_at(omega)
    value = float(noise_temperature_values(omega, s_plus, s_minus))
    return None if np.isnan(value) else value


def noise_temperature_samples(pair: SpectralPair) -> np.ndarray:
    """T_n over the pair's grid; NaN where undefined (and at omega = 0)."""
    return noise_temperature_values(pair.grid, pair.s_plus, pair.s_minus)


def symmetric_spectrum(pair: SpectralPair) -> np.ndarray:
    """Symmetrized noise density (S+ + S-)/2 on the pair's grid; never negative."""
    return 0.5 * (pair.s_plus + pair.s_minus)
