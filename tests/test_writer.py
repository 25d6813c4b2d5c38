"""The CSV/JSON artifact writer: byte format, streaming and atomic replacement."""

import os
import stat
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gainscatter import cli, validate
from gainscatter.cli import CSV_BLOCK_CELLS, run, write_csv, write_json


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
    # a labelled column (codes, labels) holds labels[code] in each row
    columns = [[c[1][code] for code in c[0].tolist()] if isinstance(c, tuple) else c for c in columns]
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


# the rows of one block of an 8-column table
ROWS_OF_8 = CSV_BLOCK_CELLS // 8


@pytest.mark.parametrize("n_rows", [0, 1, ROWS_OF_8, ROWS_OF_8 + 1, 3 * ROWS_OF_8 + 17])
def test_write_csv_matches_per_value_format(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    floats[: len(SPECIAL)] = SPECIAL[:n_rows]
    with_nan = rng.standard_normal(n_rows)
    with_nan[rng.random(n_rows) < 0.2] = np.nan
    flags = rng.random(n_rows) < 0.5
    bands = (rng.integers(-1, 2, n_rows, dtype=np.int8), ("neutral", "absorbing", "amplifying"))
    words = (rng.integers(0, 3, n_rows), ("é", "", "ascii"))
    header = ["x", "maybe", "flag", "band", "x_reversed", "word", "no_flag", "band_reversed"]
    # the reversed columns are non-contiguous views; code -1 is the last label
    columns = [floats, with_nan, flags, bands, floats[::-1], words, ~flags, (bands[0][::-1], bands[1])]
    path = tmp_path / "out" / "table.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == per_value_csv(header, columns).encode()


@st.composite
def tables(draw):
    """A cell budget and 1 to 9 float, bool and labelled columns of 0 to 3 blocks + 1 rows.

    The budget is the writer's, or one so small that a block may be one row
    wider than it; floats hold specials at random rows.
    """
    budget = draw(st.one_of(st.just(CSV_BLOCK_CELLS), st.integers(1, 16)))
    kinds = draw(st.lists(st.sampled_from(["float", "bool", "labelled"]), min_size=1, max_size=9))
    n_rows = draw(st.integers(0, 3 * max(1, budget // len(kinds)) + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        if kind == "float":
            column = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
            specials = [np.nan, -0.0, 5e-324, -1e-310, 1e300, -1e300, *EDGES]
            for row in draw(st.lists(st.integers(0, n_rows - 1), max_size=10)) if n_rows else []:
                column[row] = draw(st.sampled_from(specials))
        elif kind == "bool":
            column = rng.random(n_rows) < 0.5
        else:  # codes of any integer type; a negative one counts from the last label
            codes = rng.integers(-6, 6, n_rows).astype(draw(st.sampled_from([np.int8, np.int64, ">i2"])))
            column = (codes, ("nan", "banana", "NaN", "%s", "", "é"))
        columns.append(column)
    return budget, [f"c{j}" for j in range(len(columns))], columns, n_rows


@settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(tables())
def test_write_csv_property_matches_per_value_format(tmp_path, table):
    budget, header, columns, n_rows = table
    real, blocks = cli._block_bytes, []

    def recording(block):
        blocks.append(len(block[0]))
        return real(block)

    with mock.patch.object(cli, "CSV_BLOCK_CELLS", budget):
        with mock.patch.object(cli, "_block_bytes", recording):
            write_csv(tmp_path / "t.csv", header, columns)
    assert (tmp_path / "t.csv").read_bytes() == per_value_csv(header, columns).encode()
    # blocks of at most the budget's cells, or one row where a row is wider; all but the last full
    assert all(n * len(columns) <= budget or n == 1 for n in blocks)
    assert sum(blocks) == n_rows
    assert all(n == max(1, budget // len(columns)) for n in blocks[:-1])


@pytest.mark.parametrize(
    "labels, codes",
    [
        (("amplifying", "absorbing", "neutral"), np.array([0, 1, 2, -1], np.int8)),
        (("é", "ascii", "€uro", "𝄞"), np.array([0, 1, 2, 3, -4])),
        (("",), np.zeros(3, np.int8)),
        (("", "a"), np.array([0, 1])),
        (("a",), np.array([], np.int8)),
        (("abc", "é", "de", "f", "ghij"), np.arange(5)[::2]),
        (("abc", "de", "f", "ghij"), np.arange(4)[::-1]),
        (("big", "endian"), np.array([1, 0], dtype=">i2")),
    ],
    ids=["ascii", "non-ascii", "empty-cells", "empty-and-ascii", "zero-rows", "strided", "reversed", "big-endian"],
)
def test_utf8_matches_astype_or_per_cell_encode(tmp_path, labels, codes):
    # a labelled column writes each row's label as its UTF-8, whatever the layout of its codes
    write_csv(tmp_path / "t.csv", ["c"], [(codes, labels)])
    cells = [labels[code].encode() for code in codes.tolist()]
    assert (tmp_path / "t.csv").read_bytes() == b"c\n" + b"".join(cell + b"\n" for cell in cells)


def test_write_csv_rejects_nul_in_str_cells(tmp_path):
    # the writer fills short cells with NUL and removes the fill, so a NUL in a label would vanish;
    # a NUL first, inside or last in a label, used by a row or not
    for labels in (("\0a", "b"), ("ab", "a\0\0b"), ("wide label", "x\0")):
        with pytest.raises(ValueError, match="t.csv: column d has a label holding a NUL character"):
            write_csv(tmp_path / "t.csv", ["a", "d"], [np.zeros(2), (np.zeros(2, np.int8), labels)])
    # a code outside its labels is no cell at all
    for code in (2, -3):
        with pytest.raises(ValueError, match="t.csv: column d holds a code outside its 2 labels"):
            write_csv(tmp_path / "t.csv", ["d"], [(np.array([0, code]), ("a", "b"))])
    assert list(tmp_path.iterdir()) == []


def test_write_csv_takes_float_bool_and_labelled_columns_only(tmp_path):
    # str, object, integer and complex columns, and labelled ones with float codes or a bytes label
    for column in (
        np.array(["amplifying", "neutral"]), np.array([1.0, "a"], object), np.array([1, 2], np.int64), [1, 2],
        np.array([1j, 2.0]), (np.array([0.0, 1.0]), ("a", "b")), (np.array([0, 1]), ("a", b"b")),
    ):
        with pytest.raises(TypeError, match="t.csv: column b "):
            write_csv(tmp_path / "out" / "t.csv", ["a", "b"], [np.zeros(2), column])
    assert list(tmp_path.iterdir()) == []


def test_import_builds_no_writer_tables():
    # the formatter's tables are a first-write cost, kept out of import time
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


@pytest.fixture
def replacement(request, monkeypatch):
    """What a rewrite finds at the artifact's name when it unlinks it; None leaves the writer as it is.

    The ids are those of the three replacement paths the writer once had;
    the one path now meets each as a state of the name: "rename" leaves the
    previous version there, "exchange" first renames another file over it
    (as a concurrent rewrite would) and "einval" first removes it, so the
    writer's unlink finds no file.  Returns the list of names a temporary
    was renamed to, each checked to be free at the rename, or None.
    """
    kind = getattr(request, "param", None)
    if kind is None:
        return None
    unlink, replace, renamed = os.unlink, os.replace, []

    def unlinking(path, *args, **kwargs):
        if not (args or kwargs or Path(path).name.startswith(".")):  # the artifact's name, not a temporary
            if kind == "exchange":
                other = Path(path).with_name("other")
                other.write_text("other\n")
                replace(other, path)
            elif kind == "einval":
                unlink(path)
        unlink(path, *args, **kwargs)

    def replacing(src, dst):
        assert not os.path.lexists(dst)  # never renamed over a file
        replace(src, dst)
        renamed.append(Path(dst))

    monkeypatch.setattr(os, "unlink", unlinking)
    monkeypatch.setattr(os, "replace", replacing)
    return renamed


REPLACEMENTS = pytest.mark.parametrize("replacement", ["exchange", "rename", "einval"], indirect=True)


def write_failing_at_the_second_block(monkeypatch, path):
    """Write three blocks of two columns to ``path``, failing in the second once the first is streamed."""
    real, calls = cli._block_bytes, []

    def failing(block):
        calls.append([len(column) for column in block])
        if len(calls) > 1:  # the second block
            raise RuntimeError("formatting failed")
        return real(block)

    monkeypatch.setattr(cli, "_block_bytes", failing)
    rows = CSV_BLOCK_CELLS // 2  # a block of the two columns
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_csv(path, ["a", "b"], [np.arange(3.0 * rows), np.ones(3 * rows)])
    assert calls == [[rows, rows]] * 2  # the first block was streamed


def test_failure_mid_stream_leaves_no_file(tmp_path, monkeypatch):
    write_failing_at_the_second_block(monkeypatch, tmp_path / "table.csv")
    assert list(tmp_path.iterdir()) == []  # neither table.csv nor a .table.csv.* temp file


@REPLACEMENTS
def test_failing_rewrite_keeps_the_previous_artifact(tmp_path, monkeypatch, replacement):
    path = tmp_path / "t.csv"
    write_csv(path, ["a"], [np.zeros(3)])
    before, inode = path.read_bytes(), path.stat().st_ino
    write_failing_at_the_second_block(monkeypatch, path)
    assert (path.read_bytes(), path.stat().st_ino) == (before, inode)  # the write ends before the unlink
    assert list(tmp_path.iterdir()) == [path]  # no .t.csv.* temp file
    assert replacement == [path]  # the first write's rename only


@REPLACEMENTS
def test_both_replacement_paths_give_the_same_file(tmp_path, replacement):
    path, report, target = tmp_path / "out" / "t.csv", tmp_path / "out" / "t.json", tmp_path / "target.json"
    write_csv(path, ["a"], [np.zeros(3)])
    previous = path.read_bytes()
    os.link(path, tmp_path / "previous.csv")
    target.write_text("target\n")
    report.symlink_to(target)
    header, columns = ["x", "flag"], [np.linspace(-1.0, 1.0, 7), np.arange(7) % 2 == 0]
    write_csv(path, header, columns)
    write_json(report, {"a": 1.0})
    assert path.read_bytes() == per_value_csv(header, columns).encode()
    assert not report.is_symlink() and report.read_text() == '{\n  "a": 1.0\n}\n'
    # the previous inode is never written into, and a symlink at the name is not followed
    assert (tmp_path / "previous.csv").read_bytes() == previous
    assert target.read_text() == "target\n"
    assert sorted(p.name for p in path.parent.iterdir()) == ["t.csv", "t.json"]
    assert replacement == [path, path, report]  # the first write and the two rewrites


def test_rename_failing_after_the_unlink_leaves_no_file(tmp_path, monkeypatch):
    # the previous version is gone by then, and the new one is removed with its temporary
    path = tmp_path / "t.csv"
    write_csv(path, ["a"], [np.zeros(3)])

    def replace(src, dst):
        assert not os.path.lexists(dst)  # the rename comes after the unlink
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="rename failed"):
        write_csv(path, ["a"], [np.ones(3)])
    assert list(tmp_path.iterdir()) == []


def test_directory_at_an_artifact_name_exits_2_and_stays(tmp_path, capsys):
    # unlinking a directory at the name fails, so nothing is renamed and the temporary goes
    out = tmp_path / "out"
    (out / "spectrum.csv").mkdir(parents=True)
    (out / "spectrum.csv" / "notes.txt").write_text("kept\n")
    amplifier = next(f for f in validate._scenario_files() if f.name == "amplifier.txt")
    assert run(["spectrum", "--scenario", str(amplifier), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in out.iterdir()] == ["spectrum.csv"]
    assert [p.name for p in (out / "spectrum.csv").iterdir()] == ["notes.txt"]
    assert (out / "spectrum.csv" / "notes.txt").read_text() == "kept\n"


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


def test_failing_check_on_a_later_file_leaves_no_earlier_file(tmp_path, monkeypatch, capsys):
    # a slab profile holding +inf makes slab.csv, the second file of the command, fail
    # its check after medium.csv's has passed
    monkeypatch.setattr(cli, "intensity_profile", lambda h, z: np.full(np.shape(z), np.inf))
    amplifier = next(f for f in validate._scenario_files() if f.name == "amplifier.txt")
    out = tmp_path / "out"
    assert run(["medium", "--scenario", str(amplifier), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out / 'slab.csv'}: column intensity_ratio")
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize(
    "umask, previous, mode, replacement",
    [
        (0o022, None, 0o644, None),
        (0o077, None, 0o600, None),
        *[(0o022, 0o600, 0o644, kind) for kind in ("exchange", "rename", "einval")],
    ],
    ids=["umask-022", "umask-077", "rewrite-600-exchange", "rewrite-600-rename", "rewrite-600-einval"],
    indirect=["replacement"],
)
def test_artifacts_get_the_umask_file_mode(tmp_path, umask, previous, mode, replacement):
    # a rewrite's mode is that of a new file, not the previous version's
    if previous is not None:
        for name in ("t.csv", "t.json"):
            (tmp_path / name).write_text("previous\n")
            (tmp_path / name).chmod(previous)
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
