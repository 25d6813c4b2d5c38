"""Scenario parsing and the command-line pipelines."""

import argparse
import ast
import filecmp
import json
import os
import subprocess
import sys
import tarfile
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import thermal_ladder
from gainscatter import alpha_boundary, cli, response, scenario as scenario_module, spectral, validate
from gainscatter.cli import run
from gainscatter.scenario import ScenarioError, load_scenario, parse_scenario

GROUND = """
energies = [0.0, 1.0]
dipole_sq = [[0.0, 1.0], [1.0, 0.0]]
populations = [1.0, 0.0]
gamma = 0.01
grid.min = -3.0
grid.max = 3.0
grid.points = 2401
medium.density_n = 1e-6
"""

INVERTED = GROUND.replace("populations = [1.0, 0.0]", "populations = [0.0, 1.0]")
EQUAL = GROUND.replace("populations = [1.0, 0.0]", "populations = [0.5, 0.5]")
THERMAL = GROUND.replace("populations = [1.0, 0.0]", "temperature = 0.75")


def write_scenario(tmp_path, text, name="scenario.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in handle if line.strip()]
    columns = {
        name: np.array([row[i] for row in rows], dtype=object) for i, name in enumerate(header)
    }
    return columns


def as_floats(column):
    return np.array([float(v) if v != "" else np.nan for v in column])


# --- parsing ------------------------------------------------------------------


def test_parse_valid_scenario():
    scenario = parse_scenario(GROUND)
    assert scenario.lines.omega.tolist() == [1.0]  # the ground state only absorbs
    assert scenario.gamma == 0.01
    assert scenario.grid().size == 2401
    assert scenario.screen_omega == 1.0


def count_line_spectrum_calls(monkeypatch) -> list:
    """The targets of every later ``line_spectrum`` call, through any module that binds it."""
    calls = []
    real = spectral.line_spectrum
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gainscatter" and getattr(module, "line_spectrum", None) is real:
            monkeypatch.setattr(module, "line_spectrum", lambda t: calls.append(t) or real(t))
    return calls


def test_parse_builds_the_line_set_once(monkeypatch):
    calls = count_line_spectrum_calls(monkeypatch)
    parse_scenario(GROUND)
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["spectrum", "response", "cross-sections", "medium", "verify"])
def test_subcommand_builds_the_line_set_once(tmp_path, monkeypatch, command):
    path = write_scenario(tmp_path, GROUND)
    calls = count_line_spectrum_calls(monkeypatch)
    assert run([command, "--scenario", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert len(calls) == 1


def test_parse_rejects_bad_population_sum():
    bad = GROUND.replace("populations = [1.0, 0.0]", "populations = [0.5, 0.4]")
    with pytest.raises(ScenarioError, match="sum to 1"):
        parse_scenario(bad)


def test_parse_rejects_unknown_key(tmp_path, capsys):
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(GROUND + "\ngama = 0.02\n")
    with pytest.raises(ScenarioError, match="unknown key 'eta'"):  # the CLI tabulates alpha(omega + i0+) only
        parse_scenario(GROUND + "\neta = 0.0\n")
    # verify resolves the screen's distance, radius and tapers, and medium the slab: a file sets none
    for line in (
        "screen.z = 1e4",
        "screen.r_max = 1e3",
        "screen.eps_schedule = [40.0, 20.0, 10.0]",
        "slab.z_max = 100.0",
        "slab.points = 101",
        "slab.omega = 1.0",
    ):
        key = line.split(" = ")[0]
        path = write_scenario(tmp_path, GROUND + line + "\n")
        out = tmp_path / "out"
        assert run(["medium", "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {path}:{GROUND.count(chr(10)) + 1}: unknown key {key!r}\n"
        assert not out.exists()


def test_parse_rejects_population_and_temperature():
    with pytest.raises(ScenarioError, match="exactly one"):
        parse_scenario(GROUND + "\ntemperature = 1.0\n")


def test_parse_rejects_nonpositive_density():
    with pytest.raises(ScenarioError, match="density_n"):
        parse_scenario(GROUND.replace("1e-6", "0.0"))


def test_parse_rejects_narrow_grid():
    with pytest.raises(ScenarioError, match="span"):
        parse_scenario(GROUND.replace("grid.min = -3.0", "grid.min = -1.1"))


def test_parse_rejects_infeasible_screen():
    # at the default z = 1e4, omega = 0.05 puts the screen 500 c/omega away, short of far field
    with pytest.raises(ScenarioError, match="far-field"):
        parse_scenario(GROUND + "\nscreen.omega = 0.05\n")


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("gamma = 0.01", "gamma = [1]", "gamma"),
        ("gamma = 0.01", 'gamma = "x"', "gamma"),
        ("gamma = 0.01", "gamma = 0.0", "gamma"),
        ("gamma = 0.01", "gamma = -0.01", "gamma"),
        ("gamma = 0.01", "gamma = 0.01\neta = true", "unknown key 'eta'"),
        ("gamma = 0.01", "gamma = true", "gamma must be a finite number (got True)"),
        ("medium.density_n = 1e-6", "medium.density_n = 1e999", "medium.density_n"),
        ("grid.points = 2401", "grid.points = 2401.7", "grid.points"),
        ("populations = [1.0, 0.0]", "temperature = [1]", "temperature"),
        ("dipole_sq = [[0.0, 1.0], [1.0, 0.0]]", "dipole_sq = [[0, 1e999], [1e999, 0]]", "dipole_sq"),
        ("energies = [0.0, 1.0]", 'energies = {"0": 1}', "energies"),
        # 7.11 PiB: far above the 128 TiB a process can map without asking for more, so never allocatable
        ("grid.points = 2401", "grid.points = 1000000000000000", "Unable to allocate 7.11 PiB"),
    ],
    ids=[
        "gamma-list",
        "gamma-str",
        "gamma-zero",
        "gamma-negative",
        "eta-bool",
        "gamma-bool",
        "density-inf",
        "points-fraction",
        "temperature-list",
        "dipole-inf",
        "energies-dict",
        "grid-points-unallocatable",
    ],
)
def test_mistyped_or_non_finite_values_exit_2(tmp_path, capsys, old, new, named):
    assert old in GROUND
    path = write_scenario(tmp_path, GROUND.replace(old, new))
    out = tmp_path / "o"
    # medium is the one command whose pipeline reads the grid and the density
    code = run(["medium", "--scenario", str(path), "--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()



@pytest.mark.parametrize("command", ["spectrum", "response", "cross-sections", "medium", "verify"])
@pytest.mark.parametrize(
    "literal, message",
    [
        ("{[]: 1}", "Expecting property name"),
        ("-" * 5000 + "1", "Expecting value"),
        ("'x'", "Expecting value"),  # Python spellings are not JSON
        ("True", "Expecting value"),
        ("(1, 2)", "Expecting value"),
        ("1_000", "Extra data"),
        (".5", "Expecting value"),
        ("5.", "Extra data"),
        ("1" * 5000, "Exceeds the limit (4300 digits)"),  # the int-string digit limit
        ("[" * 5000 + "]" * 5000, "maximum recursion depth exceeded"),  # a RecursionError
    ],
    ids=[
        "unhashable-key",
        "deep-unary",
        "single-quoted",
        "python-true",
        "tuple",
        "underscore",
        "leading-dot",
        "trailing-dot",
        "long-int",
        "deep-nesting",
    ],
)
def test_literal_eval_type_and_recursion_errors_exit_2(tmp_path, capsys, command, literal, message):
    # the reader is json.loads alone: text it rejects is a named error, whatever the command
    path = write_scenario(tmp_path, GROUND.replace("energies = [0.0, 1.0]", f"energies = {literal}"))
    out = tmp_path / "out"
    assert run([command, "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: bad value for 'energies': ") and message in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("energies = [0.0, 1.0]", "energies = [false, true]", "energies"),
        ("populations = [1.0, 0.0]", "populations = [true, false]", "populations"),
        ("dipole_sq = [[0.0, 1.0], [1.0, 0.0]]", "dipole_sq = [[0, true], [true, 0]]", "dipole_sq"),
        ("energies = [0.0, 1.0]", "energies = [[0.0], [1.0, 2.0]]", "energies"),
    ],
    ids=["energies-bool", "populations-bool", "dipole-bool", "energies-ragged"],
)
def test_list_values_hold_numbers_only(tmp_path, capsys, old, new, named):
    # booleans are not numbers in a list either, and a matrix has equal-length rows
    path = write_scenario(tmp_path, GROUND.replace(old, new))
    out = tmp_path / "out"
    assert run(["spectrum", "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {named} must be a list of numbers")
    assert not out.exists()


def test_output_dir_must_be_a_string(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a directory named None, 1 or [1] would appear
    for value in ("null", "1", "[1]"):
        path = write_scenario(tmp_path, GROUND + f"output_dir = {value}\n")
        assert run(["spectrum", "--scenario", str(path), "--quiet"]) == 2
        want = f"error: {path}: output_dir must be a string (got {json.loads(value)!r})\n"
        assert capsys.readouterr().err == want
    assert sorted(tmp_path.iterdir()) == [path]


_SCALARS = st.one_of(
    st.integers(-(10**400), 10**400),
    st.floats(),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "x", "1.0", "inf"]),
)
_LITERALS = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.lists(st.lists(_SCALARS, max_size=3), max_size=3),
    st.dictionaries(st.integers(0, 3), _SCALARS, max_size=2),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(scenario_module._KNOWN_KEYS)), _LITERALS, max_size=3))
def test_parse_returns_a_scenario_or_raises_scenario_error(overrides):
    # any JSON value for any key (NaN and infinities too), over a valid base: a result or a
    # named error, never a traceback
    keys = {line.split(" = ")[0]: line for line in GROUND.strip().splitlines()}
    keys.update({key: f"{key} = {json.dumps(value)}" for key, value in overrides.items()})
    try:
        parse_scenario("\n".join(keys.values()))
    except ScenarioError:
        pass


def test_ladder_literals_take_the_json_path():
    # the bench's 60-level ladder, repr floats throughout, reads as the Python literals it is
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        from workloads import ladder_text
    finally:
        sys.path.pop(0)
    text = ladder_text(np.random.default_rng(7), 60, 1.0)
    literals = dict(line.split(" = ", 1) for line in text.splitlines() if not line.startswith("#"))
    want = {key: ast.literal_eval(value) for key, value in literals.items()}
    want_lines = spectral.line_spectrum(
        spectral.TargetLevels.from_temperature(want["energies"], want["dipole_sq"], want["temperature"])
    )
    assert repr(scenario_module._parse_lines(text, "<s>")) == repr(want)
    lines = parse_scenario(text).lines
    assert lines.n_lines == 60 * 59
    assert lines.omega.tobytes() == want_lines.omega.tobytes()
    assert lines.weight.tobytes() == want_lines.weight.tobytes()


def test_non_utf8_scenario_file_is_named(tmp_path, capsys):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"\xff\xfe" + GROUND.encode())
    with pytest.raises(ScenarioError, match=f"cannot read scenario file {path}: 'utf-8' codec"):
        load_scenario(path)
    assert run(["spectrum", "--scenario", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read scenario file {path}: ")


def test_parse_temperature_scenario():
    lines = parse_scenario(THERMAL).lines
    # S+ weights are p_initial |d|^2 / 3, so emission / absorption is the Boltzmann factor
    absorb = lines.weight[lines.omega > 0.0].sum()
    emit = lines.weight[lines.omega < 0.0].sum()
    assert emit / absorb == pytest.approx(np.exp(-1.0 / 0.75), rel=1e-12)
    assert abs(3.0 * (absorb + emit) - 1.0) <= 1e-12


# --- spectrum command ------------------------------------------------------------


def test_cmd_spectrum_inverted(tmp_path):
    path = write_scenario(tmp_path, INVERTED)
    out = tmp_path / "out"
    assert run(["spectrum", "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
    cols = read_csv(out / "spectrum.csv")
    omega = as_floats(cols["omega"])
    i = int(np.argmin(np.abs(omega - 1.0)))
    s_plus = as_floats(cols["s_plus"])
    s_minus = as_floats(cols["s_minus"])
    t_noise = cols["t_noise"]
    assert s_minus[i] > s_plus[i]
    assert t_noise[i] == "" or float(t_noise[i]) < 0.0


def test_cmd_spectrum_thermal_t_noise(tmp_path):
    # broadened columns recover T only up to the Lorentzian tail mixing
    # (~1e-4 here); the exact-line route is held to 1e-10 in the acceptance
    # suite instead
    path = write_scenario(tmp_path, THERMAL)
    out = tmp_path / "out"
    assert run(["spectrum", "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
    cols = read_csv(out / "spectrum.csv")
    omega = as_floats(cols["omega"])
    t_noise = as_floats(cols["t_noise"])
    i = int(np.argmin(np.abs(omega - 1.0)))
    assert abs(t_noise[i] - 0.75) <= 5e-4 * 0.75


def test_cmd_spectrum_malformed_scenario_exit_code(tmp_path, capsys):
    path = write_scenario(
        tmp_path, GROUND.replace("populations = [1.0, 0.0]", "populations = [0.5, 0.4]")
    )
    out = tmp_path / "out"
    code = run(["spectrum", "--scenario", str(path), "--out", str(out), "--quiet"])
    assert code == 2
    assert "sum to 1" in capsys.readouterr().err
    assert not (out / "spectrum.csv").exists()  # fail fast, no partial output


# --- cross sections ---------------------------------------------------------------


def test_cmd_cross_sections_inverted_band(tmp_path):
    path = write_scenario(tmp_path, INVERTED)
    out = tmp_path / "out"
    assert run(["cross-sections", "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
    bands = json.loads((out / "bands.json").read_text())
    assert len(bands) == 1
    assert bands[0]["lo"] < 1.0 < bands[0]["hi"]
    cols = read_csv(out / "cross_sections.csv")
    omega = as_floats(cols["omega"])
    sigma_tot = as_floats(cols["sigma_tot"])
    i = int(np.argmin(np.abs(omega - 1.0)))
    assert sigma_tot[i] < 0.0
    assert cols["band_flag"][i] == "amplifying"


def test_cmd_cross_sections_ground_no_bands(tmp_path):
    path = write_scenario(tmp_path, GROUND)
    out = tmp_path / "out"
    assert run(["cross-sections", "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "bands.json").read_text()) == []


def test_cmd_cross_sections_equal_populations_null(tmp_path):
    path = write_scenario(tmp_path, EQUAL)
    out = tmp_path / "out"
    assert run(["cross-sections", "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
    cols = read_csv(out / "cross_sections.csv")
    sigma_tot = as_floats(cols["sigma_tot"])
    sigma_el = as_floats(cols["sigma_el"])
    scale = 4.0 * np.pi * 1.0 / (3.0 * 0.01)  # peak optical sigma of one line
    assert np.abs(sigma_tot).max() <= 1e-10 * scale
    assert np.all(sigma_el == 0.0)  # alpha vanishes identically here


def test_amplifier_in_a_tiny_dipole_unit_keeps_its_band(tmp_path):
    # at d^2 = 1e-15 every |sigma_tot| is below 1e-12, and every row still amplifies
    tiny = INVERTED.replace("[[0.0, 1.0], [1.0, 0.0]]", "[[0.0, 1e-15], [1e-15, 0.0]]")
    path = write_scenario(tmp_path, tiny)
    out = tmp_path / "out"
    for command in ("cross-sections", "verify"):
        assert run([command, "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "bands.json").read_text())
    assert set(read_csv(out / "cross_sections.csv")["band_flag"]) == {"amplifying"}
    report = json.loads((out / "verify.json").read_text())
    assert report["converged"] and report["sigma_closed_form"] < 0.0


# --- medium -----------------------------------------------------------------------


def test_cmd_medium_inverted_gain(tmp_path):
    path = write_scenario(tmp_path, INVERTED)
    out = tmp_path / "out"
    assert run(["medium", "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
    cols = read_csv(out / "medium.csv")
    omega = as_floats(cols["omega"])
    h_exact = as_floats(cols["h_exact"])
    h_dilute = as_floats(cols["h_dilute"])
    near = np.abs(omega - 1.0) < 0.05
    assert np.all(h_exact[near] < 0.0)
    assert np.all(h_dilute[near] < 0.0)
    slab = read_csv(out / "slab.csv")
    intensity = as_floats(slab["intensity_ratio"])
    assert np.all(np.diff(intensity) > 0.0)  # gain: strictly increasing


@pytest.mark.parametrize("flags", [["--quiet"], []], ids=["quiet", "verbose"])
def test_cmd_medium_outside_the_dilute_regime_warns_on_one_line(tmp_path, capsys, flags):
    # at n = 1e-2, |4 pi n alpha| >= 1e-2 near the line: first-order values and a warning
    path = write_scenario(tmp_path, INVERTED.replace("density_n = 1e-6", "density_n = 1e-2"))
    out = tmp_path / "out"
    assert run(["medium", "--scenario", str(path), "--out", str(out)] + flags) == 0
    assert (out / "medium.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("warning: extinction_dilute called outside the dilute regime")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_cmd_medium_slab_of_a_vanishing_extinction_is_finite(tmp_path):
    # max |h| = 4.19e-309 here: 2/|h| overflows, so the slab spans [0, 1] as for h = 0
    text = INVERTED.replace("[[0.0, 1.0], [1.0, 0.0]]", "[[0.0, 1e-305], [1e-305, 0.0]]")
    out = tmp_path / "out"
    assert run(["medium", "--scenario", str(write_scenario(tmp_path, text)), "--out", str(out), "--quiet"]) == 0
    slab = read_csv(out / "slab.csv")
    z, intensity = as_floats(slab["z"]), as_floats(slab["intensity_ratio"])
    assert z.tolist() == np.linspace(0.0, 1.0, 101).tolist()
    assert np.isfinite(intensity).all()


def test_cmd_medium_rejects_a_grid_without_positive_frequencies(tmp_path, capsys):
    text = GROUND.replace("[[0.0, 1.0], [1.0, 0.0]]", "[[0.0, 0.0], [0.0, 0.0]]")
    text = text.replace("grid.max = 3.0", "grid.max = -1.0")
    path = write_scenario(tmp_path, text)
    out = tmp_path / "out"
    assert run(["medium", "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "grid.max" in err
    assert not out.exists()
    path = write_scenario(tmp_path, text.replace("medium.density_n = 1e-6\n", ""))
    assert run(["spectrum", "--scenario", str(path), "--out", str(out), "--quiet"]) == 0


def test_cmd_medium_requires_density(tmp_path):
    text = GROUND.replace("medium.density_n = 1e-6\n", "")
    path = write_scenario(tmp_path, text)
    code = run(["medium", "--scenario", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2


# --- verify ------------------------------------------------------------------------


def test_cmd_verify_absorbing(tmp_path):
    path = write_scenario(tmp_path, GROUND)
    out = tmp_path / "out"
    assert run(["verify", "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["converged"] is True
    assert report["sigma_closed_form"] > 0.0
    screen = read_csv(out / "screen.csv")
    assert "r_perp" in screen and "intensity_ratio" in screen


def test_cmd_verify_amplifying(tmp_path):
    path = write_scenario(tmp_path, INVERTED)
    out = tmp_path / "out"
    assert run(["verify", "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["converged"] is True
    assert report["sigma_closed_form"] < 0.0
    assert report["sigma_extrapolated"] < 0.0


def test_cmd_verify_amplitude_is_the_boundary_alpha(tmp_path):
    # F = omega^2 alpha(omega + i0+) of the scenario's broadened pair, bit for bit
    text = INVERTED + "\nscreen.omega = 1.25\n"
    out = tmp_path / "out"
    assert run(["verify", "--scenario", str(write_scenario(tmp_path, text)), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "verify.json").read_text())
    f = 1.25**2 * alpha_boundary(cli.Pipeline(parse_scenario(text)).pair, 1.25)
    assert report["forward_amplitude"] == [f.real, f.imag]


@pytest.mark.parametrize("text", [GROUND, INVERTED], ids=["absorber", "amplifier"])
@pytest.mark.parametrize("omega", [0.0999999, 0.1, 1.0, 3.0])
def test_cmd_verify_converges_at_every_accepted_screen_frequency(tmp_path, capsys, text, omega):
    # 0.1 is the far-field floor of verify's screen, z = 1e4 >= 1e3 c/omega: below it the
    # file is rejected at parse, and at and above it the screen integral converges
    path = write_scenario(tmp_path, text + f"screen.omega = {omega!r}\n")
    out = tmp_path / "out"
    code = run(["verify", "--scenario", str(path), "--out", str(out), "--quiet"])
    if omega < 0.1:
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: far-field condition violated: ")
        assert not out.exists()
    else:
        assert code == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["omega"] == omega and report["converged"] is True


@pytest.mark.parametrize("command", ["spectrum", "response", "cross-sections", "medium", "verify"])
@pytest.mark.parametrize(
    "line, message",
    [("screen.omega = 0", "omega must be positive and finite (got 0.0)")],
    ids=["zero-omega"],
)
def test_infeasible_screen_exits_2_at_parse(tmp_path, capsys, command, line, message):
    # the screen frequency is checked against verify's screen at parse, whatever the command
    path = write_scenario(tmp_path, GROUND + line + "\n")
    out = tmp_path / "out"
    assert run([command, "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


def test_verify_names_a_non_finite_screen_result(tmp_path, capsys):
    # gamma = 1e-300 puts |F| = 3.3e299 on the line: |F|^2 overflows in the full form
    text = INVERTED.replace("gamma = 0.01", "gamma = 1e-300")
    out = tmp_path / "out"
    assert run(["verify", "--scenario", str(write_scenario(tmp_path, text)), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: screen integral: sigma_estimates_full is not finite at |F| = 3.3")
    assert err.count("\n") == 1
    assert not out.exists() or list(out.iterdir()) == []


# --- response + determinism ----------------------------------------------------------


def test_cmd_response_columns(tmp_path):
    path = write_scenario(tmp_path, GROUND)
    out = tmp_path / "out"
    assert run(["response", "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
    cols = read_csv(out / "response.csv")
    assert list(cols) == ["omega", "re_alpha", "im_alpha"]
    im = as_floats(cols["im_alpha"])
    omega = as_floats(cols["omega"])
    assert im[np.argmin(np.abs(omega - 1.0))] > 0.0


def test_run_builds_the_argument_parser_once(tmp_path, monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(cli.validation_suite, "run_validation", lambda out_dir, quiet: 0)
    cli._parser.cache_clear()
    try:
        path = write_scenario(tmp_path, GROUND)
        out = tmp_path / "out"
        for command in ("spectrum", "response"):
            assert run([command, "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
        assert run(["validate", "--out", str(out), "--quiet"]) == 0
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", "--quiet"])  # --scenario missing
        assert exc.value.code == 2 and capsys.readouterr().err.startswith("usage: gainscatter spectrum")
        with pytest.raises(SystemExit) as exc:  # grid.points in the file is the only grid setting
            run(["spectrum", "--scenario", str(path), "--out", str(out), "--grid-points", "501", "--quiet"])
        assert exc.value.code == 2 and "unrecognized arguments: --grid-points 501" in capsys.readouterr().err
    finally:
        cli._parser.cache_clear()
    assert built.count("gainscatter") == 1  # the subcommands' parsers are built with it, once
    assert len(built) == 7


def test_import_builds_no_argument_parser_and_imports_no_json():
    # both are first-run costs, kept out of the package's import time
    code = (
        "import sys, gainscatter; print('json' in sys.modules); "
        "from gainscatter import cli; print(cli._parser.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["False", "0"]


def test_artifacts_byte_identical_across_runs(tmp_path):
    path = write_scenario(tmp_path, INVERTED)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        for command in ("spectrum", "response", "cross-sections", "medium", "verify"):
            assert run([command, "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
        outs.append(out)
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert files  # something was written
    for rel in files:
        assert filecmp.cmp(outs[0] / rel, outs[1] / rel, shallow=False), rel


def test_csv_format_17_significant_digits(tmp_path):
    path = write_scenario(tmp_path, GROUND)
    out = tmp_path / "out"
    run(["spectrum", "--scenario", str(path), "--out", str(out), "--quiet"])
    line = (out / "spectrum.csv").read_text().splitlines()[1]
    first = line.split(",")[0]
    mantissa = first.split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 17


def test_unwritable_out_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path, GROUND)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = run(["spectrum", "--scenario", str(path), "--out", str(blocker / "x"), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_target_without_lines(tmp_path, capsys):
    path = write_scenario(tmp_path, GROUND.replace("[[0.0, 1.0], [1.0, 0.0]]", "[[0.0, 0.0], [0.0, 0.0]]"))
    out = tmp_path / "out"
    for command in ("spectrum", "response", "cross-sections", "medium"):
        assert run([command, "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
    assert run(["verify", "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
    assert "screen.omega required" in capsys.readouterr().err


def test_non_finite_run_reports_its_error_before_any_numpy_warning(tmp_path):
    # gamma = 1e-300 squares to 0, so S+ divides by zero at the line; a separate
    # process shows what reaches stderr (pytest would capture the warning itself)
    path = write_scenario(tmp_path, GROUND.replace("gamma = 0.01", "gamma = 1e-300"))
    argv = ["spectrum", "--scenario", str(path), "--out", str(tmp_path / "o"), "--quiet"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "gainscatter", *argv], env=env, capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and "infinite" in result.stderr
    assert "RuntimeWarning" not in result.stderr


@pytest.mark.parametrize(
    "command, last_stage",
    [("cross-sections", "amplifier_bands"), ("medium", "intensity_profile"), ("verify", "screen_intensity")],
)
def test_failing_last_stage_leaves_no_artifact(tmp_path, monkeypatch, capsys, command, last_stage):
    def fail(*args, **kwargs):
        raise ValueError(f"{last_stage} failed")

    monkeypatch.setattr(cli, last_stage, fail)
    path = write_scenario(tmp_path, INVERTED)
    out = tmp_path / "out"
    assert run([command, "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {last_stage} failed\n"
    assert not out.exists()


# --- the shared pipeline of the validation suite -------------------------------------

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "canonical.tar.xz"


def run_scenario_files(out):
    """Run the five subcommands on each package scenario file, each under its file stem."""
    for resource in validate._scenario_files():
        argv = ["--scenario", str(resource), "--out", str(out / resource.name.removesuffix(".txt")), "--quiet"]
        for command in ("spectrum", "response", "cross-sections", "medium", "verify"):
            assert run([command, *argv]) == 0


def read_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_shared_pipeline_matches_separate_runs_of_the_scenario_files(tmp_path):
    shared, separate = tmp_path / "shared", tmp_path / "separate"
    validate._write_artifacts(shared)
    run_scenario_files(separate)
    got, want = read_tree(shared), read_tree(separate)
    assert len(got) == 24
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


def test_scenario_files_reproduce_the_recorded_reference(tmp_path):
    """The five subcommands on the package scenario files write the recorded canonical artifacts byte for byte."""
    with tarfile.open(REFERENCE, "r:xz") as archive:
        want = {m.name: archive.extractfile(m).read() for m in archive.getmembers() if m.isfile()}
    run_scenario_files(tmp_path)
    got = read_tree(tmp_path)
    assert len(want) == 24
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


def test_write_artifacts_broadens_once_per_scenario(tmp_path, monkeypatch):
    calls = []
    real = cli.broaden
    monkeypatch.setattr(cli, "broaden", lambda *a: calls.append(a) or real(*a))
    validate._write_artifacts(tmp_path)
    assert len(calls) == len(validate._scenario_files()) == 3


def count_alpha_rows(monkeypatch):
    """The number of points of each alpha line sum from now on."""
    rows = []
    real = response._line_sum_blocks
    monkeypatch.setattr(
        response, "_line_sum_blocks", lambda row_sum, points, *a: rows.append(points.size) or real(row_sum, points, *a)
    )
    return rows


@pytest.mark.parametrize("command", ["cross-sections", "medium"])
def test_positive_frequency_commands_sum_only_positive_alpha_rows(tmp_path, monkeypatch, command):
    target = thermal_ladder(10)
    text = (
        f"energies = {target.energies.tolist()!r}\n"
        f"dipole_sq = {target.dipole_sq.tolist()!r}\n"
        "temperature = -1.0\ngamma = 0.01\ngrid.min = -4.45\ngrid.max = 4.45\ngrid.points = 1781\n"
        "medium.density_n = 1e-6\n"
    )
    path = write_scenario(tmp_path, text)
    rows = count_alpha_rows(monkeypatch)
    assert run([command, "--scenario", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert sum(rows) == (parse_scenario(text).grid() > 0.0).sum() == 890


def test_write_artifacts_sums_each_alpha_row_once(tmp_path, monkeypatch):
    rows = count_alpha_rows(monkeypatch)
    validate._write_artifacts(tmp_path)
    files = validate._scenario_files()
    grids = [parse_scenario(f.read_text()).grid() for f in files]
    # an omega < 0 row whose exact negation is a sample copies that row's conjugate
    copied = sum(np.count_nonzero((grid[::-1] == -grid) & (grid < 0.0)) for grid in grids)
    grid_rows = sum(grid.size for grid in grids)
    assert 0 < copied < grid_rows / 2
    assert sum(rows) == grid_rows - copied + len(files)  # plus verify's screen frequency


def test_validate_summary_names_the_two_slowest_checks(tmp_path, monkeypatch, capsys):
    def stub(seconds):
        def check(*args):
            time.sleep(seconds)
            return True, "stub"

        return check

    for name in vars(validate).copy():
        if name.startswith("check_"):
            monkeypatch.setattr(validate, name, stub(0.0))
    monkeypatch.setattr(validate, "check_sign_rule", stub(0.05))
    monkeypatch.setattr(validate, "check_linearity", stub(0.2))
    assert run(["validate", "--out", str(tmp_path)]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("24/24 checks passed in ")
    slowest = summary.split("(slowest: ")[1].rstrip(")").split(", ")
    assert [entry.split()[0] for entry in slowest] == ["response.linearity", "response.sign_rule"]
    assert run(["validate", "--out", str(tmp_path), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_each_check_is_one_validate_row_and_returns_ok_and_detail(tmp_path, monkeypatch, capsys):
    # the bench times every validate.check_* as one item and reads result[0] as its pass flag
    names = [name for name in vars(validate) if name.startswith("check_")]
    for name in names:
        if name != "check_artifact_determinism":  # takes the output directory
            result = getattr(validate, name)()
            assert type(result) is tuple and len(result) == 2, name
            assert isinstance(result[0], (bool, np.bool_)), name
    calls = []
    for name in names:
        monkeypatch.setattr(validate, name, lambda *args, name=name: calls.append(name) or (True, ""))
    assert validate.run_validation(tmp_path) == 0
    assert sorted(calls) == sorted(names)
    assert len(capsys.readouterr().out.splitlines()) == len(names) + 1  # a row each, then the summary


def test_identity_chain_and_sign_theorem_fail_when_the_spectral_route_is_all_zeros(monkeypatch):
    monkeypatch.setattr(validate, "sigma_total_spectral", lambda pair, omega: np.zeros(np.shape(omega)))
    for check in (validate.check_identity_chain, validate.check_sign_theorem):
        ok, detail = check()
        assert not ok and detail.endswith(" 0 points"), detail


@pytest.mark.parametrize(
    "check, route",
    [
        (validate.check_population_conservation, "thermal_populations"),
        (validate.check_detailed_balance, "detailed_balance_residual"),
        (validate.check_oracle_agreement, "polarizability_dispersion"),
        (validate.check_sign_rule, "im_alpha"),
        (validate.check_rayleigh_closure, "sigma_elastic"),
        (validate.check_identity_chain, "sigma_total_spectral"),
        (validate.check_screen_sign_blind, "optical_theorem_sigma"),
        pytest.param(
            partial(validate.check_kramers_kronig, p_excited=(0.0, 1.0)),
            "kramers_kronig_residual",
            id="check_kramers_kronig-kramers_kronig_residual",
        ),
    ],
)
def test_a_nan_gap_after_the_first_sample_fails_its_check(monkeypatch, check, route):
    original = getattr(validate, route)
    calls = []

    def nan_on_the_second_call(*args):
        calls.append(route)
        value = original(*args)
        return value * np.nan if len(calls) == 2 else value

    monkeypatch.setattr(validate, route, nan_on_the_second_call)
    ok, detail = check()
    assert len(calls) >= 2
    assert not ok and "nan" in detail, detail


def test_noise_temperature_check_names_an_undefined_inverted_t_n(monkeypatch):
    two_level = validate._two_level
    monkeypatch.setattr(validate, "_two_level", lambda p_excited, **kw: two_level(0.5, **kw))
    assert validate.check_noise_temperature() == (False, "inverted T_n undefined")
