"""Correctness gate for the 24 canonical artifacts.

The reference is the output of the three files in ``scenarios/`` run through
the five scenario subcommands: 3 scenarios x 8 files, held in
``reference/canonical.tar.xz`` so their numeric values can be compared when
the bytes differ.

An artifact passes when its bytes equal the reference, or when every number
is within ``MAX_REL_DIFF`` of its own reference value (a reference value of
zero must be matched exactly) and every flag, ``converged`` field, header and
blank cell is exactly the same.

Record a new reference from the root of a checkout (only when a change to the
artifacts is intended and explained):

    python3 bench/artifact_gate.py --record
"""

from __future__ import annotations

import io
import json
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ARCHIVE = REFERENCE_DIR / "canonical.tar.xz"

MAX_REL_DIFF = 1e-14
EXACT_COLUMNS = frozenset({"band_flag", "dilute_ok"})

SCENARIOS = ("absorber", "amplifier", "thermal_three_level")
SUBCOMMANDS = ("spectrum", "response", "cross-sections", "medium", "verify")
ARTIFACTS = {
    "spectrum": ("spectrum.csv",),
    "response": ("response.csv",),
    "cross-sections": ("cross_sections.csv", "bands.json"),
    "medium": ("medium.csv", "slab.csv"),
    "verify": ("verify.json", "screen.csv"),
}


def arrays_close(got, want) -> bool:
    """Same shape, blanks (NaN) in the same places, |got_i - want_i| <= 1e-14 |want_i| each."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    blank = np.isnan(want)
    if not np.array_equal(np.isnan(got), blank):
        return False
    got, want = got[~blank], want[~blank]
    return bool(np.all(np.abs(got - want) <= MAX_REL_DIFF * np.abs(want)))


def parse_floats(cells) -> np.ndarray:
    """CSV cells as floats; a blank cell (an undefined value) becomes NaN."""
    return np.array([float(c) if c else np.nan for c in cells])


def _csv_close(got: str, want: str) -> bool:
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    if not got_rows or got_rows[0] != want_rows[0] or len(got_rows) != len(want_rows):
        return False
    header = want_rows[0]
    if any(len(row) != len(header) for row in got_rows):
        return False
    for j, name in enumerate(header):
        got_col = [row[j] for row in got_rows[1:]]
        want_col = [row[j] for row in want_rows[1:]]
        if name in EXACT_COLUMNS:
            if got_col != want_col:
                return False
        else:
            try:
                if not arrays_close(parse_floats(got_col), parse_floats(want_col)):
                    return False
            except ValueError:  # a cell that is not a number
                return False
    return True


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _json_close(got, want) -> bool:
    if _is_number(want):
        return _is_number(got) and arrays_close([got], [want])
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return False
        if want and all(_is_number(w) for w in want):
            return all(_is_number(g) for g in got) and arrays_close(got, want)
        return all(_json_close(g, w) for g, w in zip(got, want))
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(_json_close(got[k], want[k]) for k in want)
        )
    # bools (the converged flag), strings and null must match exactly
    return type(got) is type(want) and got == want


def artifacts_match(got: bytes, want: bytes, name: str) -> bool:
    """True when ``got`` passes the gate against the reference bytes ``want``."""
    if got == want:
        return True
    try:
        if name.endswith(".json"):
            return _json_close(json.loads(got), json.loads(want))
        return _csv_close(got.decode(), want.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return False


def load_reference() -> dict[str, bytes]:
    """The recorded artifacts, keyed ``<scenario>/<file>``."""
    with tarfile.open(ARCHIVE, "r:xz") as archive:
        return {
            member.name: archive.extractfile(member).read()
            for member in archive.getmembers()
            if member.isfile()
        }


class ArtifactGate:
    """Checks written artifacts against the recorded reference."""

    def __init__(self):
        self.reference = load_reference()

    def check(self, key: str, path: Path) -> bool:
        try:
            data = path.read_bytes()
        except OSError:
            return False
        return artifacts_match(data, self.reference[key], key)


def record(root: Path) -> None:
    """Write the reference from the package and scenarios under ``root``."""
    sys.path.insert(0, str(root / "src"))
    from gainscatter import cli

    files = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for scenario in SCENARIOS:
            out = Path(tmp) / scenario
            for command in SUBCOMMANDS:
                argv = [command, "--scenario", str(root / "scenarios" / f"{scenario}.txt")]
                if cli.run(argv + ["--out", str(out), "--quiet"]) != 0:
                    raise SystemExit(f"{command} failed on {scenario}")
                for name in ARTIFACTS[command]:
                    files[f"{scenario}/{name}"] = (out / name).read_bytes()
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tarfile.open(ARCHIVE, "w:xz", preset=9) as archive:
        for key, data in sorted(files.items()):
            info = tarfile.TarInfo(key)
            info.size = len(data)
            info.mode = 0o644
            archive.addfile(info, io.BytesIO(data))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 bench/artifact_gate.py --record")
    record(Path.cwd())
