"""Spectral-function layer: lines, broadening, detailed balance, noise temperature."""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    block_spanning_grid,
    random_ladder,
    random_target,
    signed_lines,
    thermal_ladder,
    two_level,
    two_level_pair,
)
from gainscatter import (
    LineSpectrum,
    SpectralPair,
    TargetLevels,
    amplifier_bands,
    broaden,
    cross_sections,
    detailed_balance_residual,
    line_spectrum,
    medium_response,
    noise_temperature,
    noise_temperature_samples,
    noise_temperature_values,
    polarizability_curve,
    symmetric_spectrum,
    thermal_populations,
)
from gainscatter import response, spectral


# --- targets and thermal populations -----------------------------------------


def test_thermal_infinite_temperature_limit():
    p = thermal_populations([0.0, 1.0], 1e12)
    assert np.allclose(p, [0.5, 0.5], atol=1e-9)


def test_thermal_two_level_ln2():
    # T = 1/ln 2 makes the Boltzmann factor exactly 1/2
    p = thermal_populations([0.0, 1.0], 1.0 / np.log(2.0))
    assert np.allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_thermal_negative_temperature_inverts():
    p = thermal_populations([0.0, 1.0], -1.0 / np.log(2.0))
    assert np.allclose(p, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_thermal_zero_temperature_rejected():
    with pytest.raises(ValueError):
        thermal_populations([0.0, 1.0], 0.0)


def test_nan_temperature_is_named():
    # NaN passes a <= 0 test and would give NaN populations and a NaN residual
    with pytest.raises(ValueError, match="temperature .*nan"):
        thermal_populations([0.0, 1.0], np.nan)
    with pytest.raises(ValueError, match="temperature .*nan"):
        detailed_balance_residual(line_spectrum(two_level(0.0)), np.nan)
    for t in (np.inf, -np.inf):  # the uniform limit
        assert thermal_populations([0.0, 1.0], t).tolist() == [0.5, 0.5]


def test_thermal_conservation_across_scales():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        energies = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 0.3, n - 1))))
        t = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-3, 12)
        p = thermal_populations(energies, t)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0.0)


def test_target_invariants_enforced():
    with pytest.raises(ValueError):
        TargetLevels([0.0, 0.0], [[0, 1], [1, 0]], [0.5, 0.5])  # degenerate levels
    with pytest.raises(ValueError):
        TargetLevels([0.0, 1.0], [[0, 1], [2, 0]], [0.5, 0.5])  # asymmetric dipole_sq
    with pytest.raises(ValueError):
        TargetLevels([0.0, 1.0], [[0, -1], [-1, 0]], [0.5, 0.5])  # negative entry
    with pytest.raises(ValueError):
        TargetLevels([0.0, 1.0], [[0, 1], [1, 0]], [0.6, 0.5])  # populations sum
    with pytest.raises(ValueError):
        TargetLevels([0.0, 1.0], [[0, 1], [1, 0]], [1.1, -0.1])  # negative population
    with pytest.raises(ValueError, match="energies must be finite"):
        TargetLevels([0.0, np.inf], [[0, 1], [1, 0]], [0.5, 0.5])
    with pytest.raises(ValueError, match="dipole_sq must be finite"):
        TargetLevels([0.0, 1.0], [[0, np.inf], [np.inf, 0]], [0.5, 0.5])
    with pytest.raises(ValueError, match="populations must be finite"):
        TargetLevels([0.0, 1.0], [[0, 1], [1, 0]], [np.nan, 0.5])


# --- line spectra -------------------------------------------------------------


def test_line_spectrum_ground_state():
    lines = line_spectrum(two_level(0.0, d_sq=0.7))
    assert lines.n_lines == 1
    assert lines.omega[0] == 1.0
    assert np.isclose(lines.weight[0], 0.7 / 3.0, rtol=0, atol=1e-15)


def test_line_spectrum_inverted():
    lines = line_spectrum(two_level(1.0, d_sq=0.7))
    assert lines.n_lines == 1
    assert lines.omega[0] == -1.0
    assert np.isclose(lines.weight[0], 0.7 / 3.0, rtol=0, atol=1e-15)
    # equivalently: the one transition at omega_0 only emits
    assert lines.omega0.tolist() == [1.0] and lines.absorb.tolist() == [0.0]
    assert np.isclose(lines.emit[0], 0.7 / 3.0, rtol=0, atol=1e-15)


def test_line_spectrum_equal_populations():
    lines = line_spectrum(two_level(0.5))
    assert lines.n_lines == 2
    assert np.allclose(sorted(lines.omega), [-1.0, 1.0])
    assert np.allclose(lines.weight, [1.0 / 6.0, 1.0 / 6.0])


def test_line_spectrum_keeps_coincident_transitions():
    # evenly spaced ladder: both hops share omega0 = 1, and the 0 -> 2 pair has no dipole
    target = TargetLevels(
        [0.0, 1.0, 2.0],
        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.0]],
        [0.5, 0.3, 0.2],
    )
    lines = line_spectrum(target)
    assert lines.omega0.tolist() == [1.0, 1.0]
    assert lines.absorb.tolist() == [0.5 * 1.0 / 3.0, 0.3 * 0.5 / 3.0]
    assert lines.emit.tolist() == [0.3 * 1.0 / 3.0, 0.2 * 0.5 / 3.0]
    # the line view: the emit lines at -1, then the absorb lines at +1, each in pair order
    assert lines.omega.tolist() == [-1.0, -1.0, 1.0, 1.0]
    assert lines.weight.tolist() == lines.emit.tolist() + lines.absorb.tolist()


def loop_line_spectrum(target):
    """Reference: the per-pair double loop, one line per ordered pair in row-major order."""
    omegas, weights = [], []
    for i in range(target.energies.size):
        p = target.populations[i]
        if p == 0.0:
            continue
        for f in range(target.energies.size):
            d2 = target.dipole_sq[i, f]
            if f == i or d2 == 0.0:
                continue
            omegas.append(target.energies[f] - target.energies[i])
            weights.append(p * d2 / 3.0)
    omegas = np.asarray(omegas, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(omegas, kind="stable")
    return omegas[order], weights[order]


def test_line_spectrum_bitwise_equals_pair_loop():
    rng = np.random.default_rng(5)
    targets = [thermal_ladder(n, temperature=t) for n in (2, 10, 60) for t in (-1.0, 0.7)]
    for _ in range(20):
        energies, d2 = random_ladder(rng, n_max=8)
        d2[rng.random(d2.shape) < 0.3] = 0.0  # zero dipoles
        d2 = np.minimum(d2, d2.T)
        np.fill_diagonal(d2, rng.uniform(0.0, 1.0, energies.size))  # ignored: no permanent dipoles
        populations = rng.dirichlet(np.ones(energies.size))
        populations[1:][rng.random(energies.size - 1) < 0.3] = 0.0  # zero populations
        targets.append(TargetLevels(energies, d2, populations / populations.sum()))
    # evenly spaced levels: coincident frequencies keep the loop's order under the stable sort
    targets.append(TargetLevels([0.0, 1.0, 2.0, 3.0], 1.0 - np.eye(4), [0.4, 0.3, 0.2, 0.1]))
    targets.append(TargetLevels([0.0, 1.0], np.zeros((2, 2)), [1.0, 0.0]))
    for target in targets:
        lines = line_spectrum(target)
        omega, weight = loop_line_spectrum(target)
        assert np.array_equal(lines.omega, omega) and np.array_equal(lines.weight, weight)


# --- broadening ---------------------------------------------------------------


def test_broaden_peak_value():
    gamma = 0.01
    pair = two_level_pair(0.0, gamma=gamma, points=6001)
    w = 1.0 / 3.0
    assert np.isclose(pair.sums_at(1.0)[0], w / (np.pi * gamma), rtol=1e-4)


def test_broaden_half_width():
    gamma = 0.01
    pair = two_level_pair(0.0, gamma=gamma)
    peak, above, below = pair.sums_at([1.0, 1.0 + gamma, 1.0 - gamma])[0]
    # the mirrored line's tail breaks exact halving at the 1e-5 level
    assert np.isclose(above, peak / 2.0, rtol=1e-4)
    assert np.isclose(below, peak / 2.0, rtol=1e-4)


def test_broaden_total_weight_trapezoid_oracle():
    # oracle: trapezoid quadrature of the sampled density over a wide grid
    gamma = 0.01
    lines = signed_lines(np.array([-0.4, 1.0]), np.array([0.2, 0.5]))
    span = 1.0 + 2.1e4 * gamma  # wide enough that the Lorentzian tail mass < 1e-4
    grid = np.linspace(-span, span, 300001)
    pair = broaden(lines, grid, gamma)
    integral = np.trapezoid(pair.s_plus, grid)
    assert np.isclose(integral, lines.weight.sum(), rtol=1e-4)
    integral_minus = np.trapezoid(pair.s_minus, grid)
    assert np.isclose(integral_minus, lines.weight.sum(), rtol=1e-4)


@pytest.mark.parametrize(
    "grid, gamma",
    [(np.linspace(-3.0, 3.0, 101), 0.0), (np.linspace(3.0, -3.0, 101), 0.01), (np.zeros(1), 0.01)]
    + [(np.linspace(-3.0, 3.0, 101), gamma) for gamma in (-0.01, np.nan, np.inf, -np.inf)],
)
def test_broaden_rejects_bad_gamma_or_grid(grid, gamma):
    with pytest.raises(ValueError, match="gamma must be positive|grid must"):
        broaden(line_spectrum(two_level(0.0)), grid, gamma)


def test_broaden_rejects_uncovering_grid():
    lines = line_spectrum(two_level(0.0))
    with pytest.raises(ValueError, match="does not cover"):
        broaden(lines, np.linspace(-1.05, 1.05, 101), 0.01)


def test_broaden_reflection_symmetry_of_samples():
    pair = two_level_pair(0.3)
    # symmetric grid: s_minus at -w equals s_plus at +w
    assert np.allclose(pair.s_minus[::-1], pair.s_plus, rtol=1e-12, atol=1e-300)


def dense_broadened_sum(line_omega, line_weight, gamma, omega):
    """Reference: the whole points x lines Lorentzian matrix in one temporary."""
    x = np.asarray(omega, dtype=float)[..., None] - line_omega
    return ((gamma / np.pi) / (x * x + gamma * gamma) * line_weight).sum(axis=-1)


def test_blocked_line_sums_bitwise_equal_dense_reference():
    gamma = 0.01
    lines = line_spectrum(thermal_ladder(30))
    grid = block_spanning_grid(lines, gamma)
    pair = broaden(lines, grid, gamma)
    assert np.array_equal(pair.s_plus, dense_broadened_sum(lines.omega, lines.weight, gamma, grid))
    assert np.array_equal(pair.s_minus, dense_broadened_sum(-lines.omega, lines.weight, gamma, grid))
    two_rows = np.stack((grid, grid[::-1] + 0.001))
    s_plus, s_minus = pair.sums_at(two_rows)
    assert np.array_equal(s_plus, dense_broadened_sum(lines.omega, lines.weight, gamma, two_rows))
    assert np.array_equal(s_minus, dense_broadened_sum(-lines.omega, lines.weight, gamma, two_rows))
    for w in (1.0, np.float64(-0.7), np.array(0.3)):
        got = pair.sums_at(w)
        assert got.shape == (2,)
        assert got[0] == dense_broadened_sum(lines.omega, lines.weight, gamma, w)
        assert got[1] == dense_broadened_sum(-lines.omega, lines.weight, gamma, w)


def test_line_sums_of_empty_line_set():
    empty = LineSpectrum(np.empty(0), np.empty(0), np.empty(0))
    pair = broaden(empty, np.linspace(-1.0, 1.0, 11), 0.01)
    assert np.array_equal(pair.s_plus, np.zeros(11)) and np.array_equal(pair.s_minus, np.zeros(11))
    assert np.array_equal(pair.sums_at(np.ones((2, 3))), np.zeros((2, 2, 3)))
    assert np.array_equal(pair.sums_at(0.5), np.zeros(2))


def spy_line_sums(monkeypatch):
    """The point count of every later S+/S- line sum, in order."""
    sizes = []
    pair_sums = spectral._pair_sums

    def spying(lines, gamma, omega):
        sizes.append(np.size(omega))
        return pair_sums(lines, gamma, omega)

    monkeypatch.setattr(spectral, "_pair_sums", spying)
    return sizes


def test_curve_cross_sections_and_medium_sum_no_grid_samples(monkeypatch):
    sizes = spy_line_sums(monkeypatch)
    gamma = 0.01
    # the 1 -> 2 line is inverted, so the amplifier band's edges fall inside the grid
    dipole_sq = [[0.0, 1.0, 0.4], [1.0, 0.0, 0.7], [0.4, 0.7, 0.0]]
    lines = line_spectrum(TargetLevels([0.0, 1.0, 2.5], dipole_sq, [0.5, 0.1, 0.4]))
    curve = polarizability_curve(broaden(lines, block_spanning_grid(lines, gamma), gamma))
    (band,) = amplifier_bands(cross_sections(curve), curve.pair)
    assert curve.grid[0] < band[0] < band[1] < curve.grid[-1]
    medium_response(curve, 1e-6)
    # the band-edge bisection reads the line sums one point at a time, and nothing else sums S+/S-
    assert sizes and all(size == 1 for size in sizes)


def test_samples_summed_once_on_first_read(monkeypatch):
    sizes = spy_line_sums(monkeypatch)
    gamma = 0.01
    lines = line_spectrum(thermal_ladder(30))
    grid = block_spanning_grid(lines, gamma)
    half = np.linspace(0.0, 4.5, 1201)
    grids = [
        (grid, range(grid.size // 2 + 1, grid.size)),  # some but not all w < 0 samples mirrored
        (np.linspace(-9.0, 4.5, 1801), [1801]),  # none: the mirror sample of most w < 0 is negative too
        (np.concatenate((-half[:0:-1], half)), [1201]),  # an exact 0 sample, and every w < 0 mirrored
    ]
    for grid, expected_rows in grids:
        sizes.clear()
        pair = broaden(lines, grid, gamma)
        assert sizes == []
        first = pair.s_plus, pair.s_minus
        second = pair.s_plus, pair.s_minus
        # one row per sample w >= 0 and per sample w < 0 whose mirror sample is not -w
        rows = np.count_nonzero(grid >= 0.0) + np.count_nonzero((grid[::-1] != -grid) & (grid < 0.0))
        assert sizes == [rows] and rows in expected_rows
        assert first[0] is second[0] and first[1] is second[1]
        assert not first[0].flags.writeable and not first[1].flags.writeable
        assert np.array_equal(first[0], dense_broadened_sum(lines.omega, lines.weight, gamma, grid))
        assert np.array_equal(first[1], dense_broadened_sum(-lines.omega, lines.weight, gamma, grid))


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pair_sums_bitwise_equal_dense_one_sided_sums(seed):
    rng = np.random.default_rng(seed)
    levels = int(rng.integers(2, 13))
    temperature = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 5.0))
    ladder = thermal_ladder(levels, temperature, seed=seed)
    empty_level = np.append(rng.dirichlet(np.ones(levels - 1)), 0.0)
    targets = [
        (ladder, True),
        # equally spaced levels: every line frequency is shared by several lines
        (TargetLevels.from_temperature(np.arange(levels) * 0.35, ladder.dipole_sq, temperature), True),
        (two_level(0.0), False),  # the ground-state absorber: one way only
        (TargetLevels(ladder.energies, ladder.dipole_sq, empty_level), False),  # no line leaves the empty level
    ]
    gamma = 0.01
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_usable_cpus", lambda: 2)
        for target, reflected in targets:
            lines = line_spectrum(target)
            assert lines._self_reflected == reflected

            def dense(sign, points):  # S+ for sign 1, S- for sign -1
                return dense_broadened_sum(sign * lines.omega, lines.weight, gamma, points)

            span = lines.max_abs_omega + 25.0 * gamma
            half = np.linspace(0.0, span, 150)
            grids = [
                np.linspace(-span, span, 300),  # min = -max, no 0 sample
                np.concatenate((-half[:0:-1], half)),  # every sample mirrored, 0 included
                np.linspace(-span, 1.3 * span, 300),  # min != -max, no 0 sample
                np.union1d(np.linspace(-1.2 * span, span, 300), [0.0]),
                block_spanning_grid(lines, gamma, blocks=2.5, workers=2),  # several blocks on 2 workers
            ]
            for grid in grids:
                pair = broaden(lines, grid, gamma)
                assert np.array_equal(bits(pair.s_plus), bits(dense(1, grid)))
                assert np.array_equal(bits(pair.s_minus), bits(dense(-1, grid)))
            # off the grid, at points of any shape, and at a scalar
            points = np.stack((grids[-1][::3], -grids[-1][::3] + 1e-3))
            s_plus, s_minus = spectral._pair_sums(lines, gamma, points)
            assert np.array_equal(bits(s_plus), bits(dense(1, points)))
            assert np.array_equal(bits(s_minus), bits(dense(-1, points)))
            w = float(rng.uniform(-span, span))
            difference = pair.difference_at(w)
            assert isinstance(difference, float) and difference == float(dense(1, w) - dense(-1, w))


def test_line_sum_blocks_reuse_one_work_buffer(monkeypatch):
    # each worker's scratch is allocated once per call and reused by all its blocks
    workers = 2
    monkeypatch.setattr(spectral, "_usable_cpus", lambda: workers)
    calls = []
    real = spectral._line_sum_blocks

    def spying(row_sum, points, n_lines, n_work, n_out=1):
        blocks = []

        def spy(block, out, *work):
            blocks.append((threading.get_ident(), block.size, work))
            row_sum(block, out, *work)

        calls.append((points.size, n_work * n_lines * points.itemsize, blocks))
        return real(spy, points, n_lines, n_work, n_out)

    monkeypatch.setattr(spectral, "_line_sum_blocks", spying)
    monkeypatch.setattr(response, "_line_sum_blocks", spying)
    gamma = 0.01
    lines = line_spectrum(thermal_ladder(30))
    pair = broaden(lines, block_spanning_grid(lines, gamma, workers=workers), gamma)
    pair.s_plus, pair.s_minus, polarizability_curve(pair).alpha
    # S+ and S- over the grid in one call, then alpha over its omega <= 0 half and its omega > 0 half
    assert len(calls) == 3
    for points, row_bytes, blocks in calls:
        rows = spectral.LINE_SUM_BYTES // (workers * row_bytes)
        sizes = [size for _, size, _ in blocks]
        assert sum(sizes) == points and max(sizes) == rows and len(blocks) == -(-points // rows)
        scratch = {}  # each worker's first work arrays
        for ident, _, work in blocks:
            first = scratch.setdefault(ident, work)
            assert len(work) == len(first)
            assert all(np.shares_memory(w, w0) for w, w0 in zip(work, first))
        assert len(scratch) <= workers
        firsts = list(scratch.values())
        for i, a in enumerate(firsts):
            for b in firsts[i + 1 :]:
                assert not any(np.shares_memory(x, y) for x in a for y in b)


@pytest.mark.parametrize("workers", [2, 3])
def test_line_sums_bitwise_equal_for_any_worker_count(monkeypatch, workers):
    gamma = 0.01
    lines = line_spectrum(thermal_ladder(30))
    # S+/S- sample blocks: 4 with one worker, 7 with two and 10 with three
    grid = block_spanning_grid(lines, gamma, blocks=6.5, workers=3)

    def sums(n):
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: n)
        pair = broaden(lines, grid, gamma)
        curve, half_first = polarizability_curve(pair), polarizability_curve(pair)
        return pair.s_plus, pair.s_minus, curve.alpha, curve.positive_alpha, half_first.positive_alpha

    one = sums(1)
    assert all(np.array_equal(a, b) for a, b in zip(sums(workers), one))


def test_line_sum_blocks_sum_each_row_once_with_more_workers_than_cpus(monkeypatch):
    workers = 8
    monkeypatch.setattr(spectral, "_usable_cpus", lambda: workers)
    n_lines = spectral.LINE_SUM_BYTES // (workers * 8)  # one row per block
    points = np.arange(300.0)
    summed = []

    def row_sum(block, out, x):
        summed.extend(block.tolist())
        np.add(block, 1.0, out=out)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = spectral._line_sum_blocks(row_sum, points, n_lines, 1)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(summed) == points.tolist() and np.array_equal(got, points + 1.0)


def worker_row_sum(workers, body):
    """A row sum that runs ``body`` after every worker has taken its first block."""
    barrier = threading.Barrier(workers, timeout=30)
    started = set()

    def row_sum(block, out, x):
        if threading.get_ident() not in started:
            started.add(threading.get_ident())
            barrier.wait()
        body(block, out)

    return row_sum, started


def test_line_sum_workers_run_under_the_callers_error_state(monkeypatch):
    monkeypatch.setattr(spectral, "_usable_cpus", lambda: 2)
    n_lines = spectral.LINE_SUM_BYTES // 16  # one row per block for each of two workers
    points = np.ones(5)

    def divide_by_zero(block, out):
        np.divide(block, 0.0, out=out)

    row_sum, started = worker_row_sum(2, divide_by_zero)
    with warnings.catch_warnings(), np.errstate(divide="ignore"):
        warnings.simplefilter("error")
        assert np.array_equal(spectral._line_sum_blocks(row_sum, points, n_lines, 1), np.full(5, np.inf))
    assert len(started) == 2
    row_sum, started = worker_row_sum(2, divide_by_zero)
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        spectral._line_sum_blocks(row_sum, points, n_lines, 1)
    assert len(started) == 2


def test_line_sum_worker_exception_reaches_the_caller_after_every_join(monkeypatch):
    monkeypatch.setattr(spectral, "_usable_cpus", lambda: 2)
    n_lines = spectral.LINE_SUM_BYTES // 16

    def fail_off_the_calling_thread(block, out):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker 1 failed")
        out[:] = 0.0

    row_sum, started = worker_row_sum(2, fail_off_the_calling_thread)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="worker 1 failed"):
        spectral._line_sum_blocks(row_sum, np.ones(5), n_lines, 1)
    assert len(started) == 2 and threading.active_count() == threads


def test_line_sum_memory_independent_of_line_count():
    # 60 levels = 3540 lines on 7121 points: a dense points x lines temporary is 192 MiB
    gamma = 0.01
    lines = line_spectrum(thermal_ladder(60))
    span = 4.2 + 25.0 * gamma
    grid = np.linspace(-span, span, 7121)
    tracemalloc.start()
    try:
        pair = broaden(lines, grid, gamma)
        pair.s_plus, pair.s_minus, polarizability_curve(pair).alpha
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize(
    "field, bad",
    [(field, bad) for field in ("omega0", "absorb", "emit") for bad in (-0.5, np.nan, np.inf, -np.inf)]
    + [("omega0", 0.0)],  # a transition has a positive frequency; a zero weight is fine
)
def test_line_spectrum_rejects_a_bad_transition(field, bad):
    transitions = {"omega0": [1.0, 2.0], "absorb": [0.5, 0.0], "emit": [0.0, 0.25]}
    transitions[field][1] = bad
    message = "omega0 must be positive and finite" if field == "omega0" else f"{field} weights must be finite"
    with pytest.raises(ValueError, match=message):
        LineSpectrum(**transitions)


def test_line_spectrum_rejects_unequal_fields():
    with pytest.raises(ValueError, match="flat lists of equal length"):
        LineSpectrum([1.0, 2.0], [0.5], [0.0, 0.25])


def test_spectral_pair_needs_line_set():
    with pytest.raises(ValueError, match="line set"):
        SpectralPair(np.array([0.0, 1.0]), 0.01, None)


# --- detailed balance ---------------------------------------------------------


def test_detailed_balance_thermal_two_level():
    for t in (0.3, 1.0, 7.5):
        lines = line_spectrum(TargetLevels.from_temperature([0.0, 1.0], [[0, 1], [1, 0]], t))
        assert detailed_balance_residual(lines, t) <= 1e-12


def test_detailed_balance_inverted_is_infinite():
    lines = line_spectrum(two_level(1.0))
    assert detailed_balance_residual(lines, 1.0) == np.inf


def test_detailed_balance_where_the_boltzmann_factor_underflows():
    # exp(-omega0/T) = exp(-1000) is 0: a thermal target emits exactly 0 and agrees, while
    # an equal-population pair still emits and is infinitely far from balance
    thermal = line_spectrum(TargetLevels.from_temperature([0.0, 10.0], [[0, 1], [1, 0]], 0.01))
    assert thermal.emit.tolist() == [0.0]
    assert detailed_balance_residual(thermal, 0.01) == 0.0
    equal = line_spectrum(TargetLevels([0.0, 10.0], [[0, 1], [1, 0]], [0.5, 0.5]))
    assert detailed_balance_residual(equal, 0.01) == np.inf


def test_detailed_balance_three_level_oracle():
    # oracle: the direct Boltzmann ratio of each level pair's populations
    t = 1.0
    energies = [0.0, 1.0, 2.5]
    d2 = [[0.0, 1.0, 0.4], [1.0, 0.0, 0.7], [0.4, 0.7, 0.0]]
    target = TargetLevels.from_temperature(energies, d2, t)
    lines = line_spectrum(target)
    assert lines.omega0.tolist() == [1.0, 2.5, 1.5]
    for (i, j), absorb, emit in zip([(0, 1), (0, 2), (1, 2)], lines.absorb, lines.emit):
        boltzmann = np.exp(-(energies[j] - energies[i]) / t)
        assert abs(emit / absorb - boltzmann) / boltzmann <= 1e-12
    assert detailed_balance_residual(lines, t) <= 1e-12


def test_detailed_balance_residual_per_transition_on_coincident_lines():
    # evenly spaced levels: the 0->1 and 1->2 transitions coincide at omega0 = 1
    lines = line_spectrum(TargetLevels([0.0, 1.0, 2.0], [[0, 1, 0], [1, 0, 1], [0, 1, 0]], [0.5, 0.3, 0.2]))
    # their summed weights look thermal at T = 1/ln 1.6 (emit 0.5/3 against absorb 0.8/3), but
    # neither transition does: emit/absorb is 0.6 on one and 2/3 on the other
    t = 1.0 / np.log(1.6)
    want = max(abs(0.6 / 0.625 - 1.0), abs((0.2 / 0.3) / 0.625 - 1.0))
    assert detailed_balance_residual(lines, t) == pytest.approx(want, rel=1e-12)
    # a thermal target balances transition by transition, coincident or not
    d2 = 1.0 - np.eye(5)
    assert detailed_balance_residual(line_spectrum(TargetLevels.from_temperature(np.arange(5.0), d2, 0.8)), 0.8) <= 1e-12


# --- noise temperature --------------------------------------------------------


def test_noise_temperature_inverted_value():
    # populations [1/3, 2/3]: T_n = 1/ln(1/2) = -1/ln 2
    lines = line_spectrum(TargetLevels([0.0, 1.0], [[0, 1], [1, 0]], [1 / 3, 2 / 3]))
    (tn,) = noise_temperature_values(lines.omega0, lines.absorb, lines.emit)
    assert tn == pytest.approx(-1.0 / np.log(2.0), rel=1e-12)


def test_noise_temperature_equal_populations_undefined():
    lines = line_spectrum(two_level(0.5))
    assert np.isnan(noise_temperature_values(lines.omega0, lines.absorb, lines.emit)).all()


def test_noise_temperature_one_sided_line_undefined():
    lines = line_spectrum(two_level(1.0))  # the absorb weight is exactly zero
    assert np.isnan(noise_temperature_values(lines.omega0, lines.absorb, lines.emit)).all()


@pytest.mark.parametrize("omega", [0.0, np.nan, np.inf])
def test_noise_temperature_rejects_zero_frequency(omega):
    with pytest.raises(ValueError, match="zero frequency" if omega == 0.0 else repr(omega)):
        noise_temperature(two_level_pair(0.0), omega)


def test_noise_temperature_negative_iff_inverted_broadened():
    pair_inv = two_level_pair(0.9)
    pair_gnd = two_level_pair(0.1)
    assert noise_temperature(pair_inv, 1.0) < 0.0
    assert noise_temperature(pair_gnd, 1.0) > 0.0


@pytest.mark.parametrize("crossover", [True, False], ids=["two-level crossover", "random ladder"])
def test_noise_temperature_scalar_and_grid_forms_agree(crossover):
    if crossover:
        pair = two_level_pair(0.5 - 1e-12, points=801)  # |ln(S+/S-)| < LOG_RATIO_FLOOR near 0
    else:
        lines = line_spectrum(random_target(np.random.default_rng(7)))
        span = lines.max_abs_omega + 0.5
        pair = broaden(lines, np.linspace(-span, span, 801), 0.01)
    nonzero = pair.grid != 0.0
    samples = noise_temperature_samples(pair)[nonzero]
    scalar = [noise_temperature(pair, w) for w in pair.grid[nonzero]]
    undefined = np.array([t is None for t in scalar])
    assert np.array_equal(np.isnan(samples), undefined)
    assert np.any(~undefined) and (np.any(undefined) or not crossover)
    assert np.array_equal(samples[~undefined], [t for t in scalar if t is not None])


def test_noise_temperature_samples_blank_at_crossover():
    pair = two_level_pair(0.5)
    samples = noise_temperature_samples(pair)
    # symmetric populations: S+ = S- everywhere, so T_n never defined
    assert np.all(np.isnan(samples))


# --- symmetric spectrum ---------------------------------------------------------


def test_symmetric_spectrum_values():
    # equal populations: the S+ and S- line sets coincide, so the mean is S+
    balanced = two_level_pair(0.5)
    assert np.allclose(symmetric_spectrum(balanced), balanced.s_plus, rtol=1e-12, atol=0.0)
    # ground state: at the line S- is only the far tail of the mirror line
    ground = two_level_pair(0.0)
    at_line = int(np.argmin(np.abs(ground.grid - 1.0)))
    assert symmetric_spectrum(ground)[at_line] == pytest.approx(
        ground.s_plus[at_line] / 2.0, rel=1e-4
    )


def test_symmetric_spectrum_inverted_peak():
    # composed: broaden then average; at the line the S- peak dominates
    gamma = 0.01
    pair = two_level_pair(1.0, gamma=gamma)
    at_line = 3200  # the grid sample omega = 1.0
    assert pair.grid[at_line] == 1.0
    assert np.isclose(symmetric_spectrum(pair)[at_line], 0.5 * pair.sums_at(1.0)[1], rtol=1e-4)


def test_symmetric_spectrum_nonnegative_property():
    rng = np.random.default_rng(5)
    for _ in range(30):
        target = random_target(rng)
        lines = line_spectrum(target)
        span = lines.max_abs_omega + 0.5
        pair = broaden(lines, np.linspace(-span, span, 801), 0.01)
        assert np.all(symmetric_spectrum(pair) >= 0.0)
