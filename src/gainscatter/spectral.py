"""Quantum dipole targets and their spectral functions.

A target is a set of energy levels with squared dipole matrix elements and
initial-state occupation probabilities.  From these we build its dipole
transitions (an absorb and an emit weight per level pair) and from those the
emission / absorption spectral densities S+(omega) and S-(omega): sums of
delta lines at the signed transition frequencies, optionally broadened into
Lorentzians for grid work.  Detailed balance and the frequency-dependent
noise temperature T_n(omega) both live here; an inverted pair of levels
shows up as T_n < 0 at its transition frequency.

Internal units: hbar = c = k_B = 1.  Energies and frequencies are measured
in a common reference frequency, squared dipole moments in a reference
dipole squared, so spectral densities carry (dipole^2 / frequency).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import cached_property

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
# 16-byte arrays, or 65536 of the S+/S- sum's two 8-byte arrays.  A worker
# that finds the GIL held when its ufunc returns sleeps until it is free, so
# blocks must be large next to that hand-off: on a 2-vCPU VM (numpy 2.4.6),
# two workers sharing 512 KiB were no faster than one on the 30-level
# ladder's alpha sum, while sharing 2 MiB they were 15-45% faster, as host
# load allowed.
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
    rejected; assign populations explicitly for that degenerate limit.  T =
    +-inf is the uniform limit; NaN is rejected.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0:
        raise ValueError("target needs at least one level")
    temperature = float(temperature)
    if temperature == 0.0:
        raise ValueError("temperature 0 is degenerate; pass explicit populations instead")
    if np.isnan(temperature):
        raise ValueError("temperature must be a number or +-inf (got nan)")
    # Shift by the dominant (extremal) energy so every exponent is <= 0.
    shift = energies.min() if temperature > 0.0 else energies.max()
    weights = np.exp(-(energies - shift) / temperature)
    return weights / weights.sum()


@dataclass(frozen=True)
class LineSpectrum:
    """The target's dipole transitions, and the exact (unbroadened) S+ lines they give.

    One transition per level pair i < j with a nonzero squared dipole d^2:
    ``omega0`` = E_j - E_i > 0, ``absorb`` = p_i d^2 / 3 (the S+ weight at
    +omega0) and ``emit`` = p_j d^2 / 3 (the S+ weight at -omega0).  A
    transition's net weight absorb - emit is negative on an inverted pair.

    ``omega`` and ``weight`` are the signed line view that the line sums
    read: the stable sort of the frequencies (-omega0, +omega0) with weights
    (emit, absorb), zero weights dropped.  That is one line per ordered
    level pair of nonzero weight, at E_final - E_initial with weight
    p_initial d^2 / 3, ascending in frequency.  The S- line set is never
    stored: it equals this view reflected through omega = 0 with the same
    weights.
    """

    omega0: np.ndarray
    absorb: np.ndarray
    emit: np.ndarray
    omega: np.ndarray = field(init=False, repr=False)
    weight: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("omega0", "absorb", "emit"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        omega0, absorb, emit = self.omega0, self.absorb, self.emit
        if omega0.ndim != 1 or not omega0.shape == absorb.shape == emit.shape:
            raise ValueError("omega0, absorb and emit must be flat lists of equal length")
        _check_positive("omega0", omega0)
        for name, values in (("absorb", absorb), ("emit", emit)):
            if not np.all((values >= 0.0) & (values < np.inf)):
                raise ValueError(f"{name} weights must be finite and non-negative")
        omega = np.concatenate((-omega0, omega0))
        weight = np.concatenate((emit, absorb))
        kept = np.flatnonzero(weight)
        order = kept[np.argsort(omega[kept], kind="stable")]
        object.__setattr__(self, "omega", _frozen(omega[order]))
        object.__setattr__(self, "weight", _frozen(weight[order]))

    @property
    def n_lines(self) -> int:
        return self.omega.size

    @property
    def max_abs_omega(self) -> float:
        return float(np.abs(self.omega).max()) if self.omega.size else 0.0

    @cached_property
    def _self_reflected(self) -> bool:
        """Whether the lines are their own reflection, -omega[::-1] == omega: every thermal target, and no lines."""
        return np.array_equal(self.omega, -self.omega[::-1])


def line_spectrum(target: TargetLevels) -> LineSpectrum:
    """All dipole transitions of a target: one per level pair i < j with dipole_sq[i, j] != 0."""
    lower, upper = np.nonzero(np.triu(target.dipole_sq, k=1))  # row-major order
    dipole_sq = target.dipole_sq[lower, upper]
    return LineSpectrum(
        target.energies[upper] - target.energies[lower],
        target.populations[lower] * dipole_sq / 3.0,
        target.populations[upper] * dipole_sq / 3.0,
    )


@dataclass(frozen=True)
class SpectralPair:
    """The broadened line model: Lorentzian S+ and S- of ``lines`` over a grid.

    Construction checks a strictly ascending grid spanning the lines
    (``check_grid_span``) and a positive, finite gamma.  ``sums_at``
    evaluates the model exactly at any frequency, and ``difference_at``
    reads it.  The grid samples ``s_plus``/``s_minus`` (the export/CSV view)
    are built together on first read and cached; of the CLI stages only
    ``spectrum`` reads them, while the curve, the cross sections and the
    medium need only ``grid``, ``gamma`` and ``lines``.

    Every S+/S- value comes from ``_pair_sums``, except that a grid sample
    -w whose mirror sample is w copies S-(w) and S+(w) from it
    (``_mirror_rows``).
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
        _check_positive("gamma", self.gamma)
        if not isinstance(self.lines, LineSpectrum):
            raise ValueError("a spectral pair is built from its line set (a LineSpectrum)")
        check_grid_span(self.lines, grid[0], grid[-1], self.gamma)

    @cached_property
    def _samples(self) -> np.ndarray:
        """S+ and S- on the grid, as two read-only rows, summed on first read."""
        grid = self.grid
        copied, sources, summed = _mirror_rows(grid, grid.size)
        samples = np.empty((2, grid.size))
        s_plus, s_minus = samples  # one row at a time: numpy scatters 1-D rows several times faster
        s_plus[summed], s_minus[summed] = _pair_sums(self.lines, self.gamma, grid[summed])
        s_plus[copied], s_minus[copied] = s_minus[sources], s_plus[sources]  # S+(-w) = S-(w), S-(-w) = S+(w)
        samples.setflags(write=False)
        return samples

    @cached_property
    def s_plus(self) -> np.ndarray:
        """S+ on the grid."""
        return self._samples[0]

    @cached_property
    def s_minus(self) -> np.ndarray:
        """S- on the grid."""
        return self._samples[1]

    def sums_at(self, omega) -> np.ndarray:
        """S+ and S- at frequencies of any shape, summed exactly over the lines: a (2, *shape) array."""
        return _pair_sums(self.lines, self.gamma, omega)

    def difference_at(self, omega):
        """S+(omega) - S-(omega), the dissipative weight (signed)."""
        s_plus, s_minus = self.sums_at(omega)
        difference = s_plus - s_minus
        return float(difference) if np.ndim(difference) == 0 else difference


def _mirror_rows(grid: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which of the rows ``grid[:n]`` copy a line sum from their mirror row, and which are summed.

    Returns the index arrays ``(copied, sources, summed)``: ``copied`` are the
    rows i with w = grid[i] < 0 whose mirror row grid.size - 1 - i, as far
    from the other end of the grid, is exactly -w; ``sources`` those mirror
    rows; ``summed`` the other rows.

    A copy has the bits of the row's own sum.  Negation is exact, so every
    term at -w is built from exact negations of the differences at w, and
    each sum adds its terms in line order.  For S+/S-, -w - w_l = -(w + w_l)
    has the same square, so S+(-w) is S-(w) and S-(-w) is S+(w).  For the
    boundary value alpha(w + i0+), each line's ``pole - zeta`` at -w is
    -conj(``mirror - zeta``) at w and vice versa, and numpy's complex division
    gives a / -conj(d) = -conj(a / d) for a real weight a, so alpha(-w + i0+)
    is conj(alpha(w + i0+)).  An imaginary part that cancels to exactly 0 is
    +0 at both w and -w, so that copy negates it as ``0 - x``, never -0.
    """
    head = grid[:n]
    mirrored = (head < 0.0) & (head == -grid[::-1][:n])
    copied = np.flatnonzero(mirrored)
    return copied, grid.size - 1 - copied, np.flatnonzero(~mirrored)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _line_sum_blocks(row_sum, points: np.ndarray, n_lines: int, n_work: int, n_out: int = 1) -> np.ndarray:
    """``row_sum`` over ``points`` of any shape, a block of rows at a time, on ``W`` threads.

    ``row_sum(block, out, *work)`` sums each point of the flat ``block`` over
    the lines into ``out``, using the ``n_work`` (rows, lines) arrays ``work``
    of the points' dtype as scratch; with ``n_out`` > 1 sums per point,
    ``out`` is (n_out, rows) and the result (n_out, *points.shape).  The
    ``LINE_SUM_BYTES`` budget is split evenly across the usable CPUs, which
    fixes the rows per block (one row when a single row is larger); ``W`` is
    the CPU count capped at the block count.  Each worker takes the next
    block in order until none is left, so a worker on a busier CPU takes
    fewer; the calling thread is worker 0 and runs alone when there is one
    block.  NumPy's ufuncs release the GIL, so the workers overlap.

    Each worker's scratch is allocated here, before any thread starts, and
    reused by every one of its blocks: allocating it per block lets the heap
    shrink and regrow around each block, which costs a page fault per page.
    Workers run under the caller's NumPy error state, and the first worker's
    exception is raised here once every thread has joined.  Each row is
    reduced on its own, so the result is bitwise identical to one dense
    expression over all points, whatever the block size or worker count.
    """
    flat = points.reshape(-1)
    out = np.empty((n_out, flat.size), dtype=points.dtype)
    if n_out == 1:
        out = out[0]
    cpus = _usable_cpus()
    row_bytes = max(1, n_work * n_lines * out.itemsize)  # no lines: zero-size scratch, sums of 0
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
                    row_sum(block, out[..., start : start + rows], *work[k, :, : block.size])
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
    return out.reshape(out.shape[:-1] + points.shape)


def _lorentzian(points: np.ndarray, columns: np.ndarray, gamma: float, out: np.ndarray) -> None:
    """The Lorentzian (gamma/pi) / ((q - u)^2 + gamma^2) of each point q at each column u, into ``out``."""
    np.subtract(points[:, None], columns, out=out)
    np.multiply(out, out, out=out)
    np.add(out, gamma * gamma, out=out)
    np.divide(gamma / np.pi, out, out=out)


def _pair_sums(lines: LineSpectrum, gamma: float, omega) -> np.ndarray:
    """S+ and S- of the broadened ``lines`` at ``omega`` (any shape), as a (2, *shape) array.

    S+(q) = sum_l w_l L(q - w_l) and S-(q) = sum_l w_l L(q + w_l), each
    multiplying its terms into an array in line order.  When the lines are
    their own reflection (every thermal target), -w_l = w_{n-1-l}, so
    L(q + w_l) is column n-1-l of the Lorentzian row that S+(q) sums: one
    row per point gives both sums.  Otherwise S-(q) sums a row of its own at
    -q, which has the bits of S+(-q) (negation is exact, and -q - w_l and
    q + w_l have equal squares).
    """
    omega = np.asarray(omega, dtype=float)
    line_omega, weight = lines.omega, lines.weight

    def row_sum(points, out, lorentz, terms):
        _lorentzian(points, line_omega, gamma, lorentz)
        if lines._self_reflected:
            np.multiply(lorentz[:, ::-1], weight, out=terms)  # S-: the columns reversed
        else:
            _lorentzian(-points, line_omega, gamma, terms)  # S-: a row of its own at -q
            np.multiply(terms, weight, out=terms)
        terms.sum(axis=-1, out=out[1])
        np.multiply(lorentz, weight, out=lorentz)
        lorentz.sum(axis=-1, out=out[0])

    return _line_sum_blocks(row_sum, omega, line_omega.size, 2, n_out=2)


def _check_positive(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` (a scalar or an array) is positive and finite throughout."""
    values = np.asarray(value, dtype=float)
    bad = ~((values > 0.0) & (values < np.inf))
    if bad.any():
        raise ValueError(f"{name} must be positive and finite (got {float(values[bad][0])!r})")


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
    """Worst relative violation of emit = absorb exp(-omega0/T), transition by transition.

    Transitions with neither weight are skipped.  One that emits but cannot
    absorb gives an infinite residual (an inverted pair can never look
    thermal at positive temperature), and so does one that emits where
    exp(-omega0/T) underflows to 0.  One whose emit and absorb exp(-omega0/T)
    are both exactly 0 agrees: its residual is 0.
    """
    if not temperature > 0.0:  # NaN too
        raise ValueError(f"detailed balance needs a positive temperature (got {float(temperature)!r})")
    active = (lines.absorb > 0.0) | (lines.emit > 0.0)
    absorb, emit = lines.absorb[active], lines.emit[active]
    if np.any(absorb == 0.0):
        return float("inf")
    expected = np.exp(-lines.omega0[active] / temperature)
    agrees = (emit == 0.0) & (absorb * expected == 0.0)
    with np.errstate(divide="ignore"):  # emit > 0 over an underflowed exp(-omega0/T) is inf
        residual = np.abs(emit / absorb - expected) / np.where(agrees, 1.0, expected)
    return float(np.max(np.where(agrees, 0.0, residual), initial=0.0))


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


def noise_temperature(pair: SpectralPair, omega: float):
    """Noise temperature T_n(omega) = omega / ln[S+(omega)/S-(omega)] of the broadened lines.

    Returns a signed float, negative wherever the populations are inverted
    at this frequency, or None where ``noise_temperature_values`` leaves it
    undefined.  The exact-weight T_n of each transition is
    ``noise_temperature_values(lines.omega0, lines.absorb, lines.emit)``.
    """
    omega = float(omega)
    if omega == 0.0:
        raise ValueError("noise temperature is undefined at zero frequency")
    if not np.isfinite(omega):
        raise ValueError(f"noise temperature needs a finite frequency (got {omega!r})")
    s_plus, s_minus = pair.sums_at(omega)
    value = float(noise_temperature_values(omega, s_plus, s_minus))
    return None if np.isnan(value) else value


def noise_temperature_samples(pair: SpectralPair) -> np.ndarray:
    """T_n over the pair's grid; NaN where undefined (and at omega = 0)."""
    return noise_temperature_values(pair.grid, pair.s_plus, pair.s_minus)


def symmetric_spectrum(pair: SpectralPair) -> np.ndarray:
    """Symmetrized noise density (S+ + S-)/2 on the pair's grid; never negative."""
    return 0.5 * (pair.s_plus + pair.s_minus)
