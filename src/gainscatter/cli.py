"""Command-line surface: scenario-driven pipelines emitting CSV/JSON.

Subcommands: spectrum, response, cross-sections, medium, verify, validate.
Exit codes: 0 success, 2 validation error, 3 numerical non-convergence.

Outputs are deterministic: numbers are written with 17 significant digits
in scientific notation, lines end with \\n, and files are written to a
temporary name and renamed into place so a failing run never leaves a
partial artifact.  A file's mode is 0o666 less the umask, as for any file
the process creates.  A non-finite number (NaN in JSON, +-inf anywhere) is
a validation error, never an artifact; NaN in a CSV is the blank
"undefined" cell.  A command checks every one of its outputs before it
writes the first, so a failing check leaves none of them.  CSV files are
formatted and streamed in blocks of ``CSV_BLOCK`` rows, so the writer's memory
is O(block) whatever the row count.  Each block is one row template, built
from its column kinds (``%.16e`` float, ``%d`` bool as 1/0, ``%s`` str as
is), filled by one ``%`` over the block's cells in row order.  A float column
whose block holds a NaN enters the template as ``%s``, its cells formatted
one by one and NaN left blank.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from . import validate as validation_suite
from .medium import extinction_dilute, intensity_profile, medium_response
from .response import alpha_boundary, polarizability_curve
from .scattering import amplifier_bands, cross_sections
from .scenario import Scenario, ScenarioError, load_scenario
from .screen import screen_intensity, verify_optical_theorem
from .spectral import broaden, noise_temperature_samples, symmetric_spectrum

__all__ = ["Pipeline", "main", "run"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NON_CONVERGED = 3


# Rows formatted and written per block, so writer memory is O(block) whatever the
# row count.  A block's text is about 20 KB for 8 columns.  1024-row blocks
# (about 150 KB each) left the peak RSS of repeated validate runs 0.5 MiB above
# the one-string writer's; 128-row blocks leave it 0.7 MiB below.  With one row
# template per block, 128, 256 and 512 rows format equally fast.
CSV_BLOCK = 128


def _block_text(block: list[np.ndarray]) -> str:
    """CSV rows of one block: 17 significant digits, blank for NaN, 1/0 for bool, str as is.

    NaN is blanked cell by cell, never by replacing text in the filled block,
    where a str cell may read "nan".
    """
    specs = []
    cells = np.empty((len(block[0]), len(block)), dtype=object)
    for j, column in enumerate(block):
        kind = column.dtype.kind
        if kind == "f" and np.isnan(column).any():
            # undefined entries (e.g. noise temperature) stay blank
            specs.append("%s")
            cells[:, j] = ["" if math.isnan(v) else "%.16e" % v for v in column.tolist()]
        else:
            specs.append({"b": "%d", "U": "%s"}.get(kind, "%.16e"))
            cells[:, j] = column
    return (",".join(specs) + "\n") * len(cells) % tuple(cells.ravel().tolist())


def _atomic_write(path: Path, chunks) -> None:
    """Write the text ``chunks`` to a temporary file and rename it into place.

    The temporary is created 0o666 and the kernel applies the umask, so its
    mode is that of any file the process creates; the process umask is never
    changed, so no other thread's file can be created in a window without it.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:  # the name is taken: draw another
            continue
        break
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_chunks(header: list[str], columns: list[np.ndarray]):
    yield ",".join(header) + "\n"
    for start in range(0, len(columns[0]), CSV_BLOCK):
        yield _block_text([column[start : start + CSV_BLOCK] for column in columns])


def _checked_columns(path: Path, header: list[str], columns) -> list[np.ndarray]:
    """The columns as arrays; unequal lengths or a float column holding +-inf is a ValueError."""
    columns = [np.asarray(column) for column in columns]
    if len({len(column) for column in columns}) > 1:
        raise ValueError(
            f"{path}: columns have unequal lengths {[len(column) for column in columns]}"
        )
    for name, column in zip(header, columns):
        if column.dtype.kind == "f" and np.isinf(column).any():
            raise ValueError(f"{path}: column {name} holds an infinite value")
    return columns


def _json_text(path: Path, payload) -> str:
    """``payload`` as sorted, indented JSON; NaN or +-inf is a ValueError naming ``path``."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write ``columns`` under ``header``, formatted and written CSV_BLOCK rows at a time.

    A float column holding +-inf is a ValueError naming the file and the
    column, and nothing is written; NaN is the blank "undefined" cell.
    """
    _atomic_write(path, _csv_chunks(header, _checked_columns(path, header, columns)))


def write_json(path: Path, payload) -> None:
    """Write ``payload`` as sorted, indented JSON; NaN or +-inf is a ValueError."""
    _atomic_write(path, [_json_text(path, payload)])


def _write_all(*artifacts) -> None:
    """Write each artifact in order: a CSV ``(path, header, columns)`` or a JSON ``(path, payload)``.

    Every one is checked before the first is written, so a check that fails
    on any of them leaves none of them.
    """
    for artifact in artifacts:
        (_checked_columns if len(artifact) == 3 else _json_text)(*artifact)
    for artifact in artifacts:
        (write_csv if len(artifact) == 3 else write_json)(*artifact)


class Pipeline:
    """A scenario's stages, pair -> curve -> cross sections -> medium, each built on first use.

    The pair is the broadened model of the scenario's line set; its S+/S- grid
    samples are summed only when read, and only ``spectrum`` reads them.  So
    is the curve's alpha: ``response`` reads all of it, the cross sections and
    the medium only its omega > 0 half, and no row is summed twice.
    ``verify`` reads the pair's boundary polarizability at the screen
    frequency and nothing else.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    @cached_property
    def pair(self):
        scenario = self.scenario
        return broaden(scenario.lines, scenario.grid(), scenario.gamma)

    @cached_property
    def curve(self):
        return polarizability_curve(self.pair, eta=self.scenario.eta)

    @cached_property
    def xs(self):
        return cross_sections(self.curve)

    @cached_property
    def medium(self):
        if self.scenario.medium_density is None:
            raise ScenarioError("medium.density_n is required for the medium pipeline")
        return medium_response(self.curve, self.scenario.medium_density)


def cmd_spectrum(pipeline: Pipeline, out_dir: Path, quiet: bool) -> int:
    pair = pipeline.pair
    t_noise = noise_temperature_samples(pair)
    write_csv(
        out_dir / "spectrum.csv",
        ["omega", "s_plus", "s_minus", "s_bar", "t_noise"],
        [pair.grid, pair.s_plus, pair.s_minus, symmetric_spectrum(pair), t_noise],
    )
    if not quiet:
        print(f"wrote {out_dir / 'spectrum.csv'}")
    return EXIT_OK


def cmd_response(pipeline: Pipeline, out_dir: Path, quiet: bool) -> int:
    curve = pipeline.curve
    write_csv(
        out_dir / "response.csv",
        ["omega", "re_alpha", "im_alpha"],
        [curve.grid, curve.alpha.real, curve.alpha.imag],
    )
    if not quiet:
        print(f"wrote {out_dir / 'response.csv'}")
    return EXIT_OK


def cmd_cross_sections(pipeline: Pipeline, out_dir: Path, quiet: bool) -> int:
    xs = pipeline.xs
    bands = amplifier_bands(pipeline.curve)
    header = ["omega", "sigma_el", "sigma_tot", "sigma_in", "band_flag"]
    columns = [xs.grid, xs.sigma_el, xs.sigma_tot, xs.sigma_in, xs.band_flags]
    _write_all(
        (out_dir / "cross_sections.csv", header, columns),
        (out_dir / "bands.json", [{"lo": lo, "hi": hi} for lo, hi in bands]),
    )
    if not quiet:
        print(f"wrote {out_dir / 'cross_sections.csv'} and bands.json ({len(bands)} band(s))")
    return EXIT_OK


def cmd_medium(pipeline: Pipeline, out_dir: Path, quiet: bool) -> int:
    scenario = pipeline.scenario
    med = pipeline.medium
    h_dilute = extinction_dilute(scenario.medium_density, pipeline.xs.sigma_tot, med.dilute_ok)
    # Slab profile at the frequency of strongest extinction unless pinned.
    if scenario.slab_omega is not None:
        idx = int(np.argmin(np.abs(med.grid - scenario.slab_omega)))
    else:
        idx = int(np.argmax(np.abs(med.h)))
    h = float(med.h[idx])
    z_max = scenario.slab_z_max or (2.0 / abs(h) if h != 0.0 else 1.0)  # slab.z_max > 0 if set
    z = np.linspace(0.0, z_max, scenario.slab_points)
    profile = intensity_profile(h, z)
    header = ["omega", "re_eps", "im_eps", "re_k", "im_k", "h_exact", "h_dilute", "dilute_ok"]
    eps, k = med.epsilon, med.k
    columns = [med.grid, eps.real, eps.imag, k.real, k.imag, med.h, h_dilute, med.dilute_ok]
    _write_all(
        (out_dir / "medium.csv", header, columns),
        (out_dir / "slab.csv", ["z", "intensity_ratio"], [z, profile]),
    )
    if not quiet:
        print(f"wrote {out_dir / 'medium.csv'} and slab.csv (h = {h:g} at omega = {med.grid[idx]:g})")
    return EXIT_OK


def cmd_verify(pipeline: Pipeline, out_dir: Path, quiet: bool) -> int:
    scenario = pipeline.scenario
    omega, z, r_max = scenario.screen_omega, scenario.screen_z, scenario.screen_r_max
    if omega is None:
        raise ScenarioError("screen.omega required: the target has no dipole lines")
    report = verify_optical_theorem(
        alpha_boundary(pipeline.pair, omega),
        omega,
        z=z,
        eps_schedule=scenario.screen_eps_schedule,
        r_max=r_max,
    )
    r_perp = np.linspace(0.0, r_max, 512)
    intensity = screen_intensity(complex(*report["forward_amplitude"]), omega, z, r_perp)
    _write_all(
        (out_dir / "verify.json", report),
        (out_dir / "screen.csv", ["r_perp", "intensity_ratio"], [r_perp, intensity]),
    )
    if not quiet:
        print(
            f"wrote {out_dir / 'verify.json'}: sigma_screen = {report['sigma_extrapolated']:.6e}, "
            f"sigma_closed = {report['sigma_closed_form']:.6e}, converged = {report['converged']}"
        )
    return EXIT_OK if report["converged"] else EXIT_NON_CONVERGED


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``run`` of the process (not at import)."""
    parser = argparse.ArgumentParser(
        prog="gainscatter",
        description="Dipole-scattering observables for absorbing and amplifying targets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    needs_scenario = ("spectrum", "response", "cross-sections", "medium", "verify")
    for name in needs_scenario + ("validate",):
        p = sub.add_parser(name)
        if name in needs_scenario:
            p.add_argument("--scenario", required=True, help="scenario file path")
            p.add_argument("--grid-points", type=int, default=None, help="override grid.points")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--quiet", action="store_true")
    return parser


def run(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "validate":
        out_dir = Path(args.out) if args.out else Path("validate_out")
        return validation_suite.run_validation(out_dir, quiet=args.quiet)

    handler = {
        "spectrum": cmd_spectrum,
        "response": cmd_response,
        "cross-sections": cmd_cross_sections,
        "medium": cmd_medium,
        "verify": cmd_verify,
    }[args.command]
    try:
        scenario = load_scenario(args.scenario, grid_points_override=args.grid_points)
        out_dir = Path(args.out) if args.out else Path(scenario.output_dir)
        # a non-finite result is named by the writers' own checks, not by numpy warnings
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return handler(Pipeline(scenario), out_dir, args.quiet)
    except (ValueError, OSError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
