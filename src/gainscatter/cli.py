"""Command-line surface: scenario-driven pipelines emitting CSV/JSON.

Subcommands: spectrum, response, cross-sections, medium, verify, validate.
Exit codes: 0 success, 2 validation error (also a grid too large to
allocate), 3 numerical non-convergence.  Every command tabulates the
boundary polarizability alpha(omega + i0+) on the scenario file's grid.

Outputs are deterministic: numbers are written with 17 significant digits
in scientific notation, lines end with \\n, and files are written to a
temporary name and moved into place, so a reader sees the previous file,
no file, or the new complete file, never a partial one.  A file's mode is
0o666 less the umask, as for any file the process creates.  A non-finite
number (NaN in JSON, +-inf anywhere) is a validation error, never an
artifact; NaN in a CSV is the blank "undefined" cell.  A command checks
every one of its outputs before it writes the first, so a failing check
leaves none of them.  CSV files are formatted and streamed in blocks of
about ``CSV_BLOCK_CELLS`` cells (whole rows, at least one), so the
writer's memory is O(block) whatever the row count.  A column is float,
bool or labelled: a labelled column ``(codes, labels)`` writes
``labels[code]`` in each row, so a text column is a few labels and a code
per row (``cross_sections.csv``'s ``band_flag`` is
``(CrossSectionSet.band_flags, scattering.BAND_LABELS)``); any other
column is a TypeError.  A block is one (rows x row-width) byte buffer with
a fixed-width slot per cell: a float cell gets the digits and exponent of
``"%.16e"``, computed in numpy for the whole block, a bool 1/0, a label
its UTF-8.  A cell shorter than its slot (no sign, a 2-digit exponent, a
blank NaN, a short label) is NUL-filled, and the fill is removed from the
finished block.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from . import validate as validation_suite
from .medium import DILUTE_THRESHOLD, extinction_dilute, intensity_profile, medium_response
from .response import alpha_boundary, polarizability_curve
from .scattering import BAND_LABELS, amplifier_bands, cross_sections, sigma_total_optical
from .scenario import Scenario, ScenarioError, load_scenario
from .screen import screen_intensity, verify_optical_theorem
from .spectral import broaden, noise_temperature_samples, symmetric_spectrum

__all__ = ["Pipeline", "main", "run"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NON_CONVERGED = 3


# Cells formatted and written per block: CSV_BLOCK_CELLS // columns rows, or one
# row where a row is wider, so writer memory is O(block) whatever the row count
# and a narrow file pays a block's fixed cost as rarely as a wide one.  8192 is
# 1024 rows of medium.csv's 8 columns.  Measured with the canonical bench on a
# 2-vCPU VM (medians of 8 interleaved runs each): 4096-cell blocks took wall_s
# 7% longer, and 16384-cell blocks were no faster and raised peak RSS 0.7 MiB.
CSV_BLOCK_CELLS = 8192

# A float cell "[-]d.dddddddddddddddde[+-]dd[d]" fills a 24-byte slot; the fast
# path covers |x| in [_FAST_MIN, _FAST_MAX], where |x| * 10**(16 - e) neither
# overflows nor loses bits to subnormals, and the power 10**(16 - e) is in the table.
_FAST_MIN, _FAST_MAX = 1e-250, 1e250
_POW10_MIN, _POW10_MAX = -240, 270
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two 26-bit halves


@cache
def _decimal_tables() -> tuple[np.ndarray, ...]:
    """Tables of the float-cell formatter, built on its first call, not at import.

    10**k for _POW10_MIN <= k <= _POW10_MAX as a double-double hi + lo, with
    hi split into halves, and the exponent field ("+05", "-123") of each
    exponent in [-308, 308] as 4 NUL-filled bytes.  A quotient of Python ints
    is correctly rounded, so hi is 10**k rounded and lo the rest, rounded.
    """
    hi, lo = [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi.append(num / den)
        hi_num, hi_den = hi[-1].as_integer_ratio()
        lo.append((num * hi_den - hi_num * den) / (den * hi_den))
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    fields = b"".join((b"%+03d" % e).ljust(4, b"\0") for e in range(-308, 309))
    quads = b"".join(b"%04d" % i for i in range(10000))
    exponents, digits = (np.frombuffer(text, "<u4") for text in (fields, quads))
    return hi, hi_hi, hi - hi_hi, np.array(lo), exponents, digits


def _scaled(ax: np.ndarray, index: np.ndarray, tables) -> tuple[np.ndarray, np.ndarray]:
    """``ax * 10**(index + _POW10_MIN)`` as ``p + t``: p the rounded product with hi, t the rest.

    t is ``ax * lo`` plus the exact rounding error of p (Dekker's
    two-product); its own error is below 1e-14 where p < 2e17.  The
    arithmetic is in place, so few block-sized arrays live at once; ``ax`` is
    overwritten.
    """
    hi, hi_hi, hi_lo, lo = tables[:4]
    t = lo[index]
    t *= ax
    p = hi[index]
    p *= ax
    ax_hi = ax * _SPLIT
    term = ax_hi - ax
    ax_hi -= term
    ax -= ax_hi  # now the low half of ax
    np.take(hi_hi, index, out=term)
    term *= ax_hi
    term -= p
    t += term
    for table, half in ((hi_lo, ax_hi), (hi_hi, ax), (hi_lo, ax)):
        np.take(table, index, out=term)
        term *= half
        t += term
    return p, t


def _float_cells(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``"%.16e" % v`` of each float ``v`` of ``x`` into ``out[..., :24]``, NUL-filled.

    NaN is 24 NULs (the blank cell).  ``out`` is uint8 of shape x.shape + (24,),
    possibly strided, with its last axis contiguous.  For |x| in the fast
    window the 17 digits are the integer d nearest D = |x| * 10**(16 - e), for
    e = floor(log10 |x|) and D = p + t as in ``_scaled``, where |t| < 20.  A
    cell is formatted by ``%`` instead where p lies within 32 of 1e16 or 1e17
    or beyond them (log10 may be one off near a power of ten, and D may round
    up to 1e17), where t lies within 1e-6 of a half (exact ties, which ``%``
    rounds half-even), or where |x| is outside the window (NaN and zero too).
    """
    tables = _decimal_tables()
    ax = np.abs(x)
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)
    ax[~fast] = 1.0
    index = np.log10(ax)
    index = np.floor(index, out=index).astype(np.int64)  # e
    np.subtract(16 - _POW10_MIN, index, out=index)  # 10**(16 - e) in the tables
    p, t = _scaled(ax, index, tables)
    del ax
    t += 0.5
    rounded = np.floor(t)
    t -= rounded
    t -= 0.5  # within 1e-6 of +-0.5 at a tie
    slow = ~fast | (np.abs(t, out=t) > 0.5 - 1e-6) | (p < 1e16 + 32) | (p > 1e17 - 32)
    del t, fast
    d = p.astype(np.int64)
    d += rounded.astype(np.int64)
    del p, rounded
    high = d // 10**8
    d -= high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    lead *= 256
    lead += np.signbit(x) * 45 + 48 * 256
    out[..., 0:2].view("<u2")[..., 0] = lead  # sign (or NUL) and the first digit
    out[..., 2] = 46  # "."
    for at, digits in ((3, high), (11, d)):  # 8 digits each, 4 per table entry
        quad = digits // 10000
        digits -= quad * 10000
        out[..., at : at + 4].view("<u4")[..., 0] = tables[5][quad]
        out[..., at + 4 : at + 8].view("<u4")[..., 0] = tables[5][digits]
    out[..., 19] = 101  # "e"
    np.subtract(16 - _POW10_MIN + 308, index, out=index)  # e + 308
    out[..., 20:24].view("<u4")[..., 0] = tables[4][index]
    if slow.any():
        cells = [b"" if v != v else b"%.16e" % v for v in x[slow].tolist()]
        out[slow] = np.array(cells, "S24").view(np.uint8).reshape(-1, 24)


def _block_bytes(block: list[np.ndarray]) -> bytearray:
    """CSV rows of one block: 17 significant digits, blank for NaN, 1/0 for bool, labels as UTF-8.

    Every column has a fixed-width slot, followed by its separator, in one
    (rows x row-width) uint8 buffer: 24 bytes for a float, 1 for a bool, the
    longest label's UTF-8 for a labelled column's cells (numpy "S" bytes). A
    cell shorter than its slot is NUL filled, and the fill is removed from
    the finished block, so no text is ever replaced.  A run of float columns
    is formatted in one pass.
    """
    n = len(block[0])
    kinds = [column.dtype.kind for column in block]
    widths = [{"b": 1, "S": column.itemsize}.get(kind, 24) for column, kind in zip(block, kinds)]
    starts = np.cumsum([0] + [width + 1 for width in widths])
    raw = bytearray(n * starts[-1])
    buf = np.frombuffer(raw, np.uint8).reshape(n, -1)
    buf[:, starts[1:-1] - 1] = 44  # ","
    buf[:, -1] = 10  # "\n"
    for j, (column, kind) in enumerate(zip(block, kinds)):
        if kind == "b":
            buf[:, starts[j]] = np.frombuffer(b"01", np.uint8)[column.astype(np.intp)]
        elif kind == "S":
            buf[:, starts[j] : starts[j + 1] - 1] = column.view(np.uint8).reshape(n, -1)
        elif j == 0 or kinds[j - 1] in "bS":  # a run of floats starts: slots 25 bytes apart
            end = next((k for k in range(j, len(block)) if kinds[k] in "bS"), len(block))
            x = np.stack(block[j:end], axis=1, dtype=np.float64)
            slots = (buf[:, starts[j] :], x.shape + (24,), (buf.shape[1], 25, 1))
            _float_cells(x, np.lib.stride_tricks.as_strided(*slots))
    return raw.translate(None, b"\0")


def _atomic_write(path: Path, chunks) -> None:
    """Write the byte ``chunks`` to a temporary file beside ``path`` and move it into place.

    Once the temporary is complete, the file at ``path`` is unlinked (a
    symlink itself, not its target; a name that has vanished by then is no
    error), and ``os.replace`` renames the temporary to ``path``.  So a
    reader sees the previous file, no file, or the new complete file, never
    a partial one; a hard link to the previous version keeps its bytes, and
    a failing write leaves the previous version as it was.  Any failure
    removes the temporary, so a rename that fails after the unlink leaves
    no file at ``path``.  Unlinking first also spares ext4 the writeback it
    starts for a file renamed over another.  The temporary is created 0o666
    and the kernel applies the umask, so its mode is that of any file the
    process creates; the process umask is never changed, so no other
    thread's file can be created in a window without it.
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
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)  # each chunk is released before the next is made
        try:
            os.unlink(path)  # a directory at path is an error here, as it would be for the rename
        except FileNotFoundError:  # a first write, or the name vanished since
            pass
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_chunks(header: list[str], columns: list[np.ndarray]):
    yield (",".join(header) + "\n").encode()
    rows = max(1, CSV_BLOCK_CELLS // len(columns))
    for start in range(0, len(columns[0]), rows):
        yield _block_bytes([column[start : start + rows] for column in columns])


def _checked_columns(path: Path, header: list[str], columns) -> list[np.ndarray]:
    """The columns as the arrays ``_block_bytes`` formats: float, bool, or labels as UTF-8 (numpy "S").

    A labelled column, a tuple ``(codes, labels)``, holds ``labels[code]`` in
    each row, indexed as a sequence is (-1 is the last label).  Any other
    column is a TypeError; +-inf, a NUL in a label (the NUL fill would drop
    it), a code outside the labels or unequal lengths is a ValueError.  Each
    names the file.
    """
    arrays = []
    for name, column in zip(header, columns):
        where = f"{path}: column {name}"
        if isinstance(column, tuple):
            codes, labels = np.asarray(column[0]), column[1]
            if codes.dtype.kind not in "iu" or not all(isinstance(label, str) for label in labels):
                raise TypeError(f"{where} is labelled: it takes integer codes and str labels")
            if any("\0" in label for label in labels):
                raise ValueError(f"{where} has a label holding a NUL character")
            try:
                array = np.array([label.encode() for label in labels], dtype="S")[codes]
            except IndexError:
                raise ValueError(f"{where} holds a code outside its {len(labels)} labels") from None
        else:
            array = np.asarray(column)
            if array.dtype.kind not in "fb":
                raise TypeError(f"{where} has dtype {array.dtype}, not float, bool or labelled")
            if array.dtype.kind == "f" and np.isinf(array).any():
                raise ValueError(f"{where} holds an infinite value")
        arrays.append(array)
    if len({len(array) for array in arrays}) > 1:
        raise ValueError(f"{path}: columns have unequal lengths {[len(array) for array in arrays]}")
    return arrays


def _write_all(*artifacts) -> None:
    """Write each artifact in order: a CSV ``(path, header, columns)`` or a JSON ``(path, payload)``.

    Every one is checked, once, before the first is written, so a check that
    fails on any of them leaves none of them, and what is written is what
    the check produced.  A JSON report is sorted, indented JSON, and NaN or
    +-inf in it is a ValueError naming the file.
    """
    checked = []
    for path, *content in artifacts:
        if len(content) == 2:
            chunks = _csv_chunks(content[0], _checked_columns(path, *content))
        else:
            try:
                text = json.dumps(content[0], indent=2, sort_keys=True, allow_nan=False) + "\n"
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            chunks = [text.encode()]
        checked.append((path, chunks))
    for path, chunks in checked:
        _atomic_write(path, chunks)


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write ``columns`` under ``header``, streamed in blocks of about CSV_BLOCK_CELLS cells.

    ``_checked_columns`` says which columns it takes; NaN is the blank
    "undefined" cell.
    """
    _write_all((path, header, columns))


def write_json(path: Path, payload) -> None:
    """Write ``payload`` as sorted, indented JSON; NaN or +-inf is a ValueError."""
    _write_all((path, payload))


class Pipeline:
    """A scenario's stages, pair -> curve -> cross sections -> medium, each built on first use.

    The pair is the broadened model of the scenario's line set; its S+/S- grid
    samples are summed only when read, and only ``spectrum`` reads them.  So
    is the curve's alpha: ``response`` reads all of it, the cross sections and
    the medium only its omega > 0 half, and no row is summed twice.  Nor is a
    value the run already has: S+ and S- of a sample come from one
    ``spectral._pair_sums`` call, which shares one Lorentzian row when the
    line set is its own reflection, and an omega < 0 sample whose mirror
    sample is its exact negation copies that sample's S-, S+ and
    conj(alpha), with the bits of its own sums (``spectral._mirror_rows``).
    Every summed alpha row is an ``alpha_boundary`` value; ``verify`` reads
    that value at the screen frequency and nothing else.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    @cached_property
    def pair(self):
        scenario = self.scenario
        return broaden(scenario.lines, scenario.grid(), scenario.gamma)

    @cached_property
    def curve(self):
        return polarizability_curve(self.pair)

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
    bands = amplifier_bands(xs, pipeline.pair)
    header = ["omega", "sigma_el", "sigma_tot", "sigma_in", "band_flag"]
    columns = [xs.grid, xs.sigma_el, xs.sigma_tot, xs.sigma_in, (xs.band_flags, BAND_LABELS)]
    _write_all(
        (out_dir / "cross_sections.csv", header, columns),
        (out_dir / "bands.json", [{"lo": lo, "hi": hi} for lo, hi in bands]),
    )
    if not quiet:
        print(f"wrote {out_dir / 'cross_sections.csv'} and bands.json ({len(bands)} band(s))")
    return EXIT_OK


def cmd_medium(pipeline: Pipeline, out_dir: Path, quiet: bool) -> int:
    scenario, curve = pipeline.scenario, pipeline.curve
    med = pipeline.medium
    sigma_tot = sigma_total_optical(curve.positive_alpha, curve.positive_grid)
    h_dilute = extinction_dilute(scenario.medium_density, sigma_tot)
    if not med.dilute_ok.all():  # one stderr line, --quiet or not; the exit code stays 0
        print(
            "warning: extinction_dilute called outside the dilute regime "
            f"(|4 pi n alpha| >= {DILUTE_THRESHOLD:g} somewhere); first-order value returned anyway",
            file=sys.stderr,
        )
    # Slab profile at the frequency of strongest extinction, over two gain or loss
    # lengths 2/|h|, or over [0, 1] where 2/|h| is not finite (h = 0 too).
    idx = int(np.argmax(np.abs(med.h)))
    h = float(med.h[idx])
    z = np.linspace(0.0, 2.0 / abs(h) if abs(h) > 2.0 / sys.float_info.max else 1.0, 101)
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
    omega = pipeline.scenario.screen_omega
    if omega is None:
        raise ScenarioError("screen.omega required: the target has no dipole lines")
    report = verify_optical_theorem(alpha_boundary(pipeline.pair, omega), omega)
    z, r_max = report["z"], report["r_max"]
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
        scenario = load_scenario(args.scenario)
        out_dir = Path(args.out) if args.out else Path(scenario.output_dir)
        # a non-finite result is named by the writers' own checks, not by numpy warnings
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return handler(Pipeline(scenario), out_dir, args.quiet)
    except (ValueError, OSError, MemoryError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
