"""Shared builders for the test suite."""

import numpy as np

from gainscatter import TargetLevels, broaden, line_spectrum, spectral
from gainscatter.validate import _random_ladder as random_ladder, _signed_lines as signed_lines


def random_target(rng, n_max=6):
    energies, d2 = random_ladder(rng, n_max)
    populations = rng.dirichlet(np.ones(energies.size))
    return TargetLevels(energies, d2, populations)


def two_level(p_excited, d_sq=1.0, omega_0=1.0):
    return TargetLevels(
        [0.0, omega_0],
        [[0.0, d_sq], [d_sq, 0.0]],
        [1.0 - p_excited, p_excited],
    )


def two_level_pair(p_excited, gamma=0.01, span=3.0, points=4801, d_sq=1.0, omega_0=1.0):
    target = two_level(p_excited, d_sq=d_sq, omega_0=omega_0)
    grid = np.linspace(-span, span, points)
    return broaden(line_spectrum(target), grid, gamma)


def thermal_ladder(levels, temperature=-1.0, seed=0, top=4.2):
    """A ``levels``-level thermal ladder on [0, top] with random gaps and dipoles.

    Every ordered pair of levels is a line, so it has levels * (levels - 1) lines.
    """
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.5, 1.5, size=levels - 1)
    energies = np.concatenate(([0.0], np.cumsum(gaps))) * (top / gaps.sum())
    d2 = rng.uniform(0.0, 1.0, size=(levels, levels))
    d2 = 0.5 * (d2 + d2.T)
    np.fill_diagonal(d2, 0.0)
    return TargetLevels.from_temperature(energies, d2, temperature)


def block_spanning_grid(lines, gamma, blocks=3.5, workers=None):
    """A grid over the line set whose point count fills ``blocks`` one-sided S+ line-sum blocks.

    Blocks are sized for ``workers`` (default: the usable CPUs), whose shares
    of the line sums' byte budget they are.  The alpha sum, at 32 bytes per
    points x lines element against S+'s 8, takes four times as many blocks.
    The grid samples' S+/S- rows, at 16 bytes per element for a line set
    that is its own reflection, take more blocks than S+ alone too.
    """
    rows = spectral.LINE_SUM_BYTES // ((workers or spectral._usable_cpus()) * 8 * lines.n_lines)
    span = lines.max_abs_omega + 25.0 * gamma
    return np.linspace(-span, span, int(blocks * rows) + 1)
