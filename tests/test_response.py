"""Polarizability layer: dispersion quadrature, closed form, Kramers-Kronig."""

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
    PolarizabilityCurve,
    TargetLevels,
    broaden,
    closed_form_lorentzian,
    im_alpha,
    kramers_kronig_residual,
    line_spectrum,
    polarizability_curve,
    polarizability_dispersion,
)
from gainscatter import response
from gainscatter.response import _alpha_line_sum, _pv_reconstruct


def brute_force_alpha(lines, gamma, zetas, span=400.0, points=4_000_001):
    """Independent oracle: dense trapezoid of the broadened dispersion integrand at each zeta.

    S+ - S- does not depend on zeta, so it is built once for all of ``zetas``.
    """
    w = np.linspace(-span, span, points)
    s_plus = np.zeros_like(w)
    s_minus = np.zeros_like(w)
    for w0, wt in zip(lines.omega, lines.weight):
        s_plus += wt * (gamma / np.pi) / ((w - w0) ** 2 + gamma**2)
        s_minus += wt * (gamma / np.pi) / ((w + w0) ** 2 + gamma**2)
    difference = s_plus - s_minus
    return [np.trapezoid(difference / (w - zeta), w) for zeta in zetas]


def random_lines(rng, n_max=3):
    n = int(rng.integers(1, n_max + 1))
    return signed_lines(np.sort(rng.uniform(-2.0, 2.0, n)), rng.uniform(0.1, 1.0, n))


# --- closed form: derivation cross-check before use as an oracle ---------------


def test_closed_form_against_brute_force_quadrature():
    # contour result w/(w0 - i gamma - zeta) checked against raw quadrature
    # at 10 random zeta before the closed form is trusted anywhere else
    rng = np.random.default_rng(10)
    gamma = 0.02
    lines = random_lines(rng)
    zetas = [complex(rng.uniform(-2.5, 2.5), 10.0 ** rng.uniform(-1.5, 0.5)) for _ in range(10)]
    for zeta, want in zip(zetas, brute_force_alpha(lines, gamma, zetas)):
        got = closed_form_lorentzian(lines, gamma, zeta)
        assert abs(got - want) / abs(want) <= 1e-5


def test_closed_form_empty_lines():
    empty = LineSpectrum(np.empty(0), np.empty(0), np.empty(0))
    assert closed_form_lorentzian(empty, 0.01, 1.0 + 1.0j) == 0.0


def dense_alpha_line_sum(line_omega, line_weight, gamma, zeta):
    """Reference: the whole points x lines pole matrix in one temporary."""
    z = np.asarray(zeta, dtype=complex)[..., None]
    return (
        line_weight / (line_omega - 1j * gamma - z) - line_weight / (-line_omega - 1j * gamma - z)
    ).sum(axis=-1)


def test_blocked_alpha_sum_bitwise_equals_dense_reference():
    gamma = 0.01
    lines = line_spectrum(thermal_ladder(30))
    args = (lines.omega, lines.weight, gamma)
    grid = block_spanning_grid(lines, gamma)
    for zeta in (grid + 0.0j, grid + 0.002j, np.stack((grid, grid[::-1] + 0.001)) + 0.0j):
        assert np.array_equal(_alpha_line_sum(*args, zeta), dense_alpha_line_sum(*args, zeta))
    pair = broaden(lines, grid, gamma)
    assert np.array_equal(polarizability_curve(pair).alpha, dense_alpha_line_sum(*args, grid + 0.0j))
    for zeta in (1.0 + 0.0j, np.complex128(-0.7 + 0.1j), np.array(0.3 + 0.0j)):
        got = _alpha_line_sum(*args, zeta)
        assert isinstance(got, complex)
        assert got == complex(dense_alpha_line_sum(*args, zeta))
    empty = np.empty(0)
    assert np.array_equal(_alpha_line_sum(empty, empty, gamma, np.ones((2, 3), complex)), np.zeros((2, 3)))


def test_positive_half_bitwise_equals_the_dense_reference_across_a_block_boundary_at_zero():
    # the grid spans many alpha line-sum blocks, so a whole-grid sum reduces rows of
    # both signs in the block holding 0; the halves are summed apart
    gamma = 0.01
    lines = line_spectrum(thermal_ladder(30))
    grid = block_spanning_grid(lines, gamma)
    positive = grid > 0.0
    pair = broaden(lines, grid, gamma)
    want = dense_alpha_line_sum(lines.omega, lines.weight, gamma, grid + 0j)
    half_first, whole_first = polarizability_curve(pair), polarizability_curve(pair)
    assert np.array_equal(half_first.positive_alpha, want[positive])
    assert np.array_equal(half_first.alpha, want)
    assert np.array_equal(whole_first.alpha, want)
    assert np.array_equal(whole_first.positive_alpha, whole_first.alpha[positive])
    assert np.array_equal(whole_first.positive_grid, grid[positive])
    assert not half_first.alpha.flags.writeable and not half_first.positive_alpha.flags.writeable


def test_closed_form_delta_limit():
    # gamma -> 0 with Im zeta fixed: each line tends to weight/(w_line - zeta)
    lines = LineSpectrum([0.8], [0.5], [0.0])
    zeta = 0.3 + 1.0j
    got = closed_form_lorentzian(lines, 1e-6, zeta)
    want = 0.5 / (0.8 - zeta) - 0.5 / (-0.8 - zeta)
    assert abs(got - want) / abs(want) <= 1e-5


def test_closed_form_rejects_lower_half_plane():
    lines = LineSpectrum([1.0], [1.0], [0.0])
    with pytest.raises(ValueError):
        closed_form_lorentzian(lines, 0.01, 1.0 - 0.1j)


@pytest.mark.parametrize("offset", [np.nan, np.inf])
def test_both_routes_reject_a_non_finite_offset(offset):
    pair = two_level_pair(0.0, points=2)
    zeta = 0.5 + 1j * offset  # 1j * inf has a NaN real part, so zeta is nan + inf j there
    with pytest.raises(ValueError, match=r"^Im zeta must be positive and finite \(got (nan|inf)\)$"):
        closed_form_lorentzian(pair.lines, pair.gamma, np.array([zeta, 1.0 + 0.1j]))
    with pytest.raises(ValueError, match=r"^Im zeta must be positive and finite \(got (nan|inf)\)$"):
        polarizability_dispersion(pair, zeta)


@pytest.mark.parametrize("gamma", [0.0, -0.01, np.nan, np.inf, -np.inf])
def test_closed_form_rejects_bad_gamma(gamma):
    lines = LineSpectrum([1.0], [1.0], [0.0])
    for value in (gamma, np.array([gamma])):
        with pytest.raises(ValueError) as raised:
            closed_form_lorentzian(lines, value, 1.0 + 0.1j)
        assert str(raised.value) == f"gamma must be positive and finite (got {gamma!r})"


# --- dispersion quadrature ------------------------------------------------------


def test_dispersion_zero_for_symmetric_populations():
    pair = two_level_pair(0.5, points=2)
    for zeta in (1.0 + 0.05j, 0.2 + 0.5j, 2.0j):
        alpha = polarizability_dispersion(pair, zeta)
        assert abs(alpha) <= 1e-13


def test_dispersion_far_field_bound():
    lines = LineSpectrum([1.0], [0.4], [0.0])
    pair = broaden(lines, [-30.0, 30.0], 0.01)
    lam = 1e6
    alpha = polarizability_dispersion(pair, 1j * lam)
    assert abs(alpha) <= lines.weight.sum() / lam * (1.0 + 1e-6)


def test_dispersion_matches_closed_form_ground_state():
    gamma = 0.01
    lines = line_spectrum(two_level(0.0))
    pair = broaden(lines, [-60.0, 60.0], gamma)
    zeta = 1.0 + 0.01j
    got = polarizability_dispersion(pair, zeta)
    want = closed_form_lorentzian(lines, gamma, zeta)
    assert abs(got - want) / abs(want) <= 1e-6


def test_dispersion_rejects_real_axis():
    pair = two_level_pair(0.0, points=2)
    with pytest.raises(ValueError):
        polarizability_dispersion(pair, 1.0 + 0.0j)
    with pytest.raises(ValueError):
        polarizability_dispersion(pair, 1.0 - 0.2j)


def test_dispersion_reads_only_the_grid_ends():
    # the route integrates the line model over [grid[0], grid[-1]]: a two-sample pair and a
    # dense pair with the same ends give the same bits, with Im zeta below and above gamma
    gamma = 0.01
    lines = line_spectrum(two_level(0.3))
    sparse = broaden(lines, [-4.0, 5.0], gamma)
    dense = broaden(lines, np.linspace(-4.0, 5.0, 9001), gamma)
    for zeta in (1.0 + 0.001j, -0.7 + 0.004j, 0.5 + 0.05j, 2.0 + 1.0j, 4.9 + 0.3j):
        got = polarizability_dispersion(sparse, zeta)
        assert got != 0.0
        assert got == polarizability_dispersion(dense, zeta)


def test_dispersion_linearity_in_line_sets():
    gamma = 0.01
    a = LineSpectrum([0.8], [0.5], [0.0])
    b = LineSpectrum([1.6], [0.25], [0.0])
    union = LineSpectrum([0.8, 1.6], [0.5, 0.25], [0.0, 0.0])
    grid = [-40.0, 40.0]
    zeta = 1.1 + 0.02j
    total = polarizability_dispersion(broaden(union, grid, gamma), zeta)
    parts = polarizability_dispersion(broaden(a, grid, gamma), zeta)
    parts += polarizability_dispersion(broaden(b, grid, gamma), zeta)
    assert abs(total - parts) <= 1e-13 * abs(total)


# --- boundary values -------------------------------------------------------------


def test_im_alpha_peak_values():
    gamma = 0.01
    d_sq = 1.0
    peak = d_sq / (3.0 * gamma)
    ground = two_level_pair(0.0, gamma=gamma, d_sq=d_sq)
    inverted = two_level_pair(1.0, gamma=gamma, d_sq=d_sq)
    # mirror-line tail shifts the peak at the 1e-4 relative level
    assert np.isclose(im_alpha(ground, 1.0), peak, rtol=1e-4)
    assert np.isclose(im_alpha(inverted, 1.0), -peak, rtol=1e-4)


def test_im_alpha_cancellation_equal_populations():
    # oracle: the two Lorentzian tails evaluated explicitly
    gamma = 0.01
    pair = two_level_pair(0.5, gamma=gamma)
    w = 1.0 / 6.0
    explicit = np.pi * w * (
        (gamma / np.pi) / ((1.0 - 1.0) ** 2 + gamma**2)
        + (gamma / np.pi) / ((1.0 + 1.0) ** 2 + gamma**2)
        - (gamma / np.pi) / ((1.0 + 1.0) ** 2 + gamma**2)
        - (gamma / np.pi) / ((1.0 - 1.0) ** 2 + gamma**2)
    )
    assert abs(explicit) <= 1e-12
    scale = np.pi * pair.s_plus_at(1.0)
    assert abs(im_alpha(pair, 1.0)) <= 1e-12 * scale


def test_sign_rule_two_level():
    for p_e, sign in ((0.0, 1.0), (0.2, 1.0), (0.8, -1.0), (1.0, -1.0)):
        pair = two_level_pair(p_e)
        assert np.sign(im_alpha(pair, 1.0)) == sign


# --- curves ----------------------------------------------------------------------


def test_curve_crossing_symmetry():
    w = np.random.default_rng(6).uniform(-3.0, 3.0, 64)  # off the grid
    pair = two_level_pair(0.3)
    curve = polarizability_curve(pair)
    gap = np.abs(curve.alpha[::-1] - np.conj(curve.alpha)).max()
    assert gap <= 1e-10 * np.abs(curve.alpha).max()
    # what the curve's mirrored rows rest on: the direct sums are conjugates bit for bit, on the
    # boundary and off it
    args = (pair.lines.omega, pair.lines.weight, pair.gamma)
    for eta in (0.0, 1e-3):
        assert np.array_equal(_alpha_line_sum(*args, -w + 1j * eta), np.conj(_alpha_line_sum(*args, w + 1j * eta)))


def bits(a):
    """The bit patterns of a float or complex array, so -0.0 differs from 0.0."""
    return a.view(np.uint64)


def symmetric_grid():
    half = np.linspace(0.0, 3.0, 2401)
    return np.concatenate((-half[:0:-1], half))


@settings(max_examples=5, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mirrored_rows_bitwise_equal_the_direct_sums(seed):
    rng = np.random.default_rng(seed)
    energies, d2 = random_ladder(rng, n_max=4)
    energies *= 2.5 / energies[-1]
    pure = np.zeros(energies.size)
    pure[rng.integers(energies.size)] = 1.0
    temperature = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 5.0)
    targets = [
        TargetLevels(energies, d2, pure),
        # equal populations: alpha's imaginary part cancels, at some rows to exactly 0, which the copy keeps +0
        TargetLevels(energies, d2, np.full(energies.size, 1.0 / energies.size)),
        TargetLevels.from_temperature(energies, d2, temperature),
    ]
    # every, some and no omega < 0 sample has its exact negation on the grid; the first two have an
    # exact 0 sample, and in the last the mirror row grid.size - 1 - i of many samples is negative too
    grids = [
        (symmetric_grid(), 2400),
        (np.linspace(-3.0, 3.0, 4801), 1253),
        (np.linspace(-3.0, 2.9, 4801), 0),
        (np.linspace(-5.0, 3.0, 4801), 0),
    ]
    for grid, mirrored in grids:
        assert np.count_nonzero((grid[::-1] == -grid) & (grid < 0.0)) == mirrored
        for target in targets:
            lines = line_spectrum(target)
            pair = broaden(lines, grid, 0.01)
            assert np.array_equal(bits(pair.s_minus), bits(pair.s_minus_at(grid)))
            direct = _alpha_line_sum(lines.omega, lines.weight, pair.gamma, grid + 0j)
            assert np.array_equal(bits(polarizability_curve(pair).alpha), bits(direct))


def test_curve_tail_decay():
    pair = two_level_pair(0.0, span=8.0, points=16001)
    curve = polarizability_curve(pair)
    im = np.abs(curve.alpha.imag)
    assert im[0] < 1e-3 * im.max()
    assert im[-1] < 1e-3 * im.max()


def test_dispersion_matches_closed_form_at_curve_points():
    # wide support: the quadrature truncates at the pair grid's ends, so they
    # must lie far enough out to carry the 1/omega^3 tails of the dissipative density
    lines = line_spectrum(two_level(0.0))
    pair = broaden(lines, [-60.0, 60.0], 0.01)
    zeta = np.linspace(-2.0, 2.0, 9) + 0.005j
    via_quad = np.array([polarizability_dispersion(pair, z) for z in zeta])
    via_closed = closed_form_lorentzian(lines, pair.gamma, zeta)
    assert np.allclose(via_quad, via_closed, rtol=1e-6)


def test_curve_eta_validation():
    # a curve is alpha(omega + i0+) alone: no call builds one at an offset
    pair = two_level_pair(0.0)
    for build in (
        lambda: polarizability_curve(pair, 0.005),
        lambda: polarizability_curve(pair, eta=0.0),
        lambda: PolarizabilityCurve(0.005, pair),
    ):
        with pytest.raises(TypeError):
            build()


# --- Kramers-Kronig ---------------------------------------------------------------


def test_kramers_kronig_zero_curve():
    grid = np.linspace(-1.0, 1.0, 201)
    curve = polarizability_curve(broaden(LineSpectrum(np.empty(0), np.empty(0), np.empty(0)), grid, 0.01))
    assert np.array_equal(curve.alpha, np.zeros(201, complex))
    assert kramers_kronig_residual(curve) == 0.0


def looped_pv_reconstruct(grid, f, eval_idx):
    """Reference: Maclaurin's sum (2/pi) sum over odd q of f[k+q]/q, one point at a time,
    each a dot product with the odd kernel 1/q over every offset q = -(n-1) .. n-1."""
    n = grid.size
    q = np.arange(1 - n, n)
    odd = q % 2 == 1
    kernel = np.zeros(q.size)
    kernel[odd] = 1.0 / q[odd]
    out = np.empty(len(eval_idx))
    for a, k in enumerate(eval_idx):
        out[a] = 2.0 / np.pi * np.dot(f, kernel[n - 1 - k : 2 * n - 1 - k])
    return out


# tiny to large sizes; even and odd n put each index at both parities relative to the two ends
@pytest.mark.parametrize("n", [2, 3, 5, 9, 12, 16, 17, 18, 19, 20, 33, 50, 51, 201, 1000, 1001])
def test_pv_reconstruct_matches_looped_reference(n):
    rng = np.random.default_rng(n)
    grid = np.linspace(-2.0, 3.0, n)
    eval_idx = np.arange(n)
    for f in (rng.standard_normal(n), np.exp(-((grid - 0.3) ** 2) * 4.0)):
        want = looped_pv_reconstruct(grid, f, eval_idx)
        got = _pv_reconstruct(grid, f, eval_idx)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1e-300)
    # a strided subset and an index order the sums do not rely on
    subset = eval_idx[::-3]
    assert np.array_equal(_pv_reconstruct(grid, f, subset), got[subset])


def test_pv_reconstruct_empty_eval_idx():
    grid = np.linspace(-1.0, 1.0, 101)
    out = _pv_reconstruct(grid, np.sin(grid), np.arange(0))
    assert out.shape == (0,)


def test_kramers_kronig_residual_matches_looped_reference(monkeypatch):
    # the validate case: 16385 points, all 13108 central ones evaluated
    curve = polarizability_curve(two_level_pair(0.0, span=8.0, points=16385))
    got = kramers_kronig_residual(curve)
    monkeypatch.setattr(response, "_pv_reconstruct", looped_pv_reconstruct)
    want = kramers_kronig_residual(curve)
    assert got == pytest.approx(want, rel=1e-9)
    assert got == pytest.approx(5.87e-7, rel=1e-3)


def test_kramers_kronig_rejects_undecayed_edges():
    # tightest span broaden() allows: edge |Im alpha| is ~2.5e-3 of the peak
    pair = two_level_pair(0.0, span=1.2, points=2401)
    curve = polarizability_curve(pair)
    with pytest.raises(ValueError, match="edges"):
        kramers_kronig_residual(curve)


# --- linearity / random-target properties ------------------------------------------


def test_boundary_alpha_linearity_random_targets():
    rng = np.random.default_rng(12)
    from gainscatter import alpha_boundary

    for _ in range(20):
        target = random_target(rng, n_max=4)
        lines = line_spectrum(target)
        span = lines.max_abs_omega + 0.5
        grid = np.linspace(-span, span, 801)
        pair = broaden(lines, grid, 0.01)
        w = rng.uniform(0.1, lines.max_abs_omega)
        direct = alpha_boundary(pair, w)
        total = 0.0 + 0.0j
        for omega0, absorb, emit in zip(lines.omega0, lines.absorb, lines.emit):  # one transition at a time
            single = broaden(LineSpectrum([omega0], [absorb], [emit]), grid, 0.01)
            total += alpha_boundary(single, w)
        assert abs(direct - total) <= 1e-12 * max(abs(direct), 1e-300)
