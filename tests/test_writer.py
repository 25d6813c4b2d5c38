"""The CSV/JSON artifact writer: byte format, streaming and atomic replacement."""

import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gainscatter import cli, validate
from gainscatter.cli import CSV_BLOCK, run, write_csv, write_json


def per_value_format(x) -> str:
    """Reference: the per-value cell formatter the block writer replaced."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, str):
        return x
    if np.isnan(x):
        return ""
    return f"{x:.16e}"


def per_value_csv(header, columns) -> str:
    rows = [",".join(header)]
    for values in zip(*columns):
        rows.append(",".join(per_value_format(v) for v in values))
    return "\n".join(rows) + "\n"


# +-inf is not here: the writer rejects it (test_write_csv_rejects_infinite_values)
SPECIAL = [np.nan, -np.nan, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.5e300, 1 / 3, np.pi]
# the float-cell formatter's fast window and the doubles either side of its edges
EDGES = [np.nextafter(x, to) for x in (cli._FAST_MIN, cli._FAST_MAX) for to in (0.0, x, np.inf)]


def test_float_cells_match_percent_format():
    rng = np.random.default_rng(18)
    patterns = rng.integers(0, 2**64 - 1, 200_000, dtype=np.uint64, endpoint=True).view(np.float64)
    subnormals = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    structured = np.concatenate(
        [
            subnormals,
            tens,
            np.nextafter(tens, 0.0),
            np.nextafter(tens, np.inf),
            np.ldexp(1.0, np.arange(-1074, 1024)),  # exact 17-digit ties among them, e.g. 2**-25
            EDGES,
            [0.0, 5e-324, np.nan],
        ]
    )
    # the random patterns have either sign already
    values = np.concatenate([patterns[np.isfinite(patterns)], structured, -structured])
    out = np.zeros((len(values), 25), np.uint8)
    out[:, 24] = ord("\n")
    cli._float_cells(values, out[:, :24])
    got = out.tobytes().translate(None, b"\0").split(b"\n")[:-1]
    want = [b"" if v != v else b"%.16e" % v for v in values.tolist()]
    assert [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w] == []


@pytest.mark.parametrize("n_rows", [0, 1, CSV_BLOCK, CSV_BLOCK + 1, 3 * CSV_BLOCK + 17])
def test_write_csv_matches_per_value_format(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    floats[: len(SPECIAL)] = SPECIAL[:n_rows]
    with_nan = rng.standard_normal(n_rows)
    with_nan[rng.random(n_rows) < 0.2] = np.nan
    flags = rng.random(n_rows) < 0.5
    words = np.array(rng.choice(["amplifying", "absorbing", "neutral"], n_rows))
    header = ["x", "maybe", "flag", "band"]
    columns = [floats, with_nan, flags, words]
    path = tmp_path / "out" / "table.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == per_value_csv(header, columns).encode()



@st.composite
def tables(draw):
    """Float, bool and str columns of 0 to 3 blocks + 1 rows; floats hold specials at random rows."""
    n_rows = draw(st.integers(0, 3 * CSV_BLOCK + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["float", "bool", "str"]), min_size=1, max_size=4)):
        if kind == "float":
            column = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
            specials = [np.nan, -0.0, 5e-324, -1e-310, 1e300, -1e300, *EDGES]
            for row in draw(st.lists(st.integers(0, n_rows - 1), max_size=10)) if n_rows else []:
                column[row] = draw(st.sampled_from(specials))
        elif kind == "bool":
            column = rng.random(n_rows) < 0.5
        else:
            column = np.array(rng.choice(["nan", "banana", "NaN", "%s", "", "é"], n_rows))
        columns.append(column)
    return [f"c{j}" for j in range(len(columns))], columns


@settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(tables())
def test_write_csv_property_matches_per_value_format(tmp_path, table):
    header, columns = table
    write_csv(tmp_path / "t.csv", header, columns)
    assert (tmp_path / "t.csv").read_bytes() == per_value_csv(header, columns).encode()


def test_write_csv_rejects_nul_in_str_cells(tmp_path):
    # the writer fills short cells with NUL and removes the fill, so a NUL in a cell would vanish
    with pytest.raises(ValueError, match="t.csv: column b holds a NUL character"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(2), np.array(["ok", "a\0b"])])
    # a trailing NUL, which numpy's str conversion would drop silently
    with pytest.raises(ValueError, match="t.csv: column c holds a NUL character"):
        write_csv(tmp_path / "t.csv", ["c"], [["a\0"]])
    assert list(tmp_path.iterdir()) == []


def test_import_builds_no_writer_tables():
    # the formatter's tables are a first-write cost, kept out of the package's import time
    code = (
        "import sys, gainscatter; from gainscatter import cli; "
        "print(*[m in sys.modules for m in ('fractions', 'decimal', 'numpy.char')]); "
        "print(cli._decimal_tables.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["False", "False", "False", "0"]


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError, match="unequal lengths"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])
    assert list(tmp_path.iterdir()) == []


def test_unequal_columns_exit_2_without_artifact(tmp_path, monkeypatch, capsys):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "energies = [0.0, 1.0]\ndipole_sq = [[0.0, 1.0], [1.0, 0.0]]\n"
        "populations = [1.0, 0.0]\ngamma = 0.01\ngrid.min = -3.0\ngrid.max = 3.0\n"
        "grid.points = 2401\n"
    )
    real = cli.noise_temperature_samples
    monkeypatch.setattr(cli, "noise_temperature_samples", lambda pair: real(pair)[:-1])
    out = tmp_path / "out"
    assert run(["spectrum", "--scenario", str(scenario), "--out", str(out), "--quiet"]) == 2
    assert "unequal lengths" in capsys.readouterr().err
    assert not (out / "spectrum.csv").exists()


def test_failure_mid_stream_leaves_no_file(tmp_path, monkeypatch):
    real = cli._block_bytes
    calls = []

    def failing(block):
        calls.append([len(column) for column in block])
        if len(calls) > 1:  # the second block
            raise RuntimeError("formatting failed")
        return real(block)

    monkeypatch.setattr(cli, "_block_bytes", failing)
    path = tmp_path / "table.csv"
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_csv(path, ["a", "b"], [np.arange(3.0 * CSV_BLOCK), np.ones(3 * CSV_BLOCK)])
    assert calls == [[CSV_BLOCK, CSV_BLOCK]] * 2  # the first block was streamed
    assert list(tmp_path.iterdir()) == []  # neither table.csv nor a .table.csv.* temp file


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_write_csv_rejects_infinite_values(tmp_path, value):
    column = np.array([1.0, np.nan, value, 2.0])
    with pytest.raises(ValueError, match="t.csv: column b holds an infinite value"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(4), column])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_write_json_rejects_non_finite_values(tmp_path, value):
    with pytest.raises(ValueError, match="t.json: Out of range float"):
        write_json(tmp_path / "t.json", {"sigma": [1.0, value]})
    assert list(tmp_path.iterdir()) == []


TWO_LEVEL = (
    "energies = [0.0, 1.0]\npopulations = [1.0, 0.0]\n"
    "grid.min = -3.0\ngrid.max = 3.0\ngrid.points = 4801\n"
)


@pytest.mark.parametrize(
    "scenario, command, named",
    [
        # gamma**2 underflows to 0, so S+ at the grid point on the line is inf
        ("dipole_sq = [[0.0, 1.0], [1.0, 0.0]]\ngamma = 1e-300\n", "spectrum", "{out}/spectrum.csv: "),
        # sigma_el ~ omega^4 |alpha|^2 ~ (d^2 / gamma)^2 overflows
        ("dipole_sq = [[0.0, 1e305], [1e305, 0.0]]\n", "cross-sections", "{out}/cross_sections.csv: "),
        # the screen integral of the same target: |F|^2 overflows, and verify names the field
        ("dipole_sq = [[0.0, 1e305], [1e305, 0.0]]\n", "verify", "screen integral: sigma_estimates_full "),
    ],
    ids=["tiny-gamma-spectrum", "huge-dipole-cross-sections", "huge-dipole-verify"],
)
def test_non_finite_artifact_exits_2_without_file(tmp_path, capsys, scenario, command, named):
    path = tmp_path / "scenario.txt"
    path.write_text(TWO_LEVEL + scenario)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):  # the overflow is the point here
        assert run([command, "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: " + named.format(out=out))
    assert not out.exists() or list(out.iterdir()) == []


def test_failing_check_on_a_later_file_leaves_no_earlier_file(tmp_path, capsys):
    # the slab profile exp(-h z) overflows at z_max = 1e7 (h = -4.2e-4), so slab.csv,
    # the second file of the command, fails its check after medium.csv's has passed
    amplifier = next(f for f in validate._scenario_files() if f.name == "amplifier.txt")
    path = tmp_path / "scenario.txt"
    path.write_text(amplifier.read_text() + "slab.z_max = 1e7\n")
    out = tmp_path / "out"
    assert run(["medium", "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out / 'slab.csv'}: column intensity_ratio")
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_artifacts_get_the_umask_file_mode(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_csv(tmp_path / "t.csv", ["a"], [np.zeros(3)])
        write_json(tmp_path / "t.json", {"a": 1.0})
    finally:
        os.umask(old)
    assert [stat.S_IMODE(p.stat().st_mode) for p in sorted(tmp_path.iterdir())] == [mode, mode]


def test_writes_never_change_the_process_umask(tmp_path, monkeypatch):
    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)
    write_csv(tmp_path / "t.csv", ["a"], [np.zeros(3)])
    write_json(tmp_path / "t.json", {"a": 1.0})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.json"]
