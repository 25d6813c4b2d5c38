"""The benchmark's three workloads.

Each workload writes its inputs from the seed (``prepare``, part of set-up)
and runs one fixed batch of items as a closed loop with one client: an item
starts only after the previous one has finished and its outputs are checked.

- ``canonical``: the three files in ``scenarios/`` through the five scenario
  subcommands via ``cli.run``.  Physics here takes under a millisecond per
  stage, so this exercises the artifact writers and the screen quadrature and
  bypasses the many-line sums.  Outputs must pass the canonical artifact gate.
- ``ladder``: seeded random thermal ladders at 10, 30 and 60 levels, each at a
  positive and a negative temperature, through the same five subcommands.
  The grid x lines sums in broadening and the polarizability curve dominate;
  the 10-level member guards small targets.
- ``validate``: ``cli.run(["validate", ...])`` in-process.  Its items are the
  suite's checks, so per-call overhead and repeated pipeline builds show here.
"""

from __future__ import annotations

import csv
import json
import shutil
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from artifact_gate import ARTIFACTS, SCENARIOS, SUBCOMMANDS, ArtifactGate, parse_floats
from gainscatter import cli, validate
from layers import Patch

LADDER_LEVELS = (10, 30, 60)
LADDER_TEMPERATURES = (1.0, -1.0)  # both signs of sigma_tot
LADDER_GAMMA = 0.01
LADDER_TOP_ENERGY = 4.2  # every ladder spans [0, 4.2], so grid size is seed-independent
LADDER_SAMPLES_PER_GAMMA = 8
LADDER_DENSITY = 1e-6
# A fixed screen frequency keeps the screen quadrature's node count, which
# grows with omega, the same for every seed.
LADDER_SCREEN_OMEGA = 1.0
IDENTITY_CHAIN_TOL = 1e-8


@dataclass
class Item:
    """One timed call.  ``counted`` items make up attempted, failed and item latency."""

    command: str
    seconds: float
    ok: bool
    counted: bool = True


def _run_cli(argv) -> int | None:
    """Exit code of ``cli.run``, or None when it raised (reported on stderr)."""
    try:
        return cli.run(argv)
    except Exception:
        traceback.print_exc()
        return None


def _read_csv(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return {name: [row[j] for row in rows[1:]] for j, name in enumerate(rows[0])}


class _ScenarioWorkload:
    """Scenario files through the five subcommands; subclasses supply files and checks."""

    nominal_batch_s: float

    def __init__(self, work_dir: Path, seed: int, checkout: Path):
        self.seed = seed
        self.checkout = checkout
        self.in_dir = work_dir / "scenarios"
        self.out_dir = work_dir / "out"
        self.order_rng = np.random.default_rng([seed, 1])
        self.names = sorted(self.scenario_texts())

    def scenario_texts(self) -> dict[str, str]:
        raise NotImplementedError

    def check(self, scenario: str, command: str, out: Path) -> bool:
        raise NotImplementedError

    def prepare(self) -> None:
        shutil.rmtree(self.in_dir, ignore_errors=True)
        self.in_dir.mkdir(parents=True)
        for name, text in self.scenario_texts().items():
            (self.in_dir / f"{name}.txt").write_text(text)

    def _item(self, scenario: str, command: str) -> Item:
        out = self.out_dir / scenario
        argv = [command, "--scenario", str(self.in_dir / f"{scenario}.txt"), "--out", str(out), "--quiet"]
        t0 = perf_counter()
        code = _run_cli(argv)
        seconds = perf_counter() - t0
        try:
            ok = code == 0 and self.check(scenario, command, out)
        except (OSError, ValueError, KeyError):  # a missing or malformed artifact
            ok = False
        return Item(command, seconds, ok)


class Canonical(_ScenarioWorkload):
    nominal_batch_s = 1.0

    def __init__(self, work_dir: Path, seed: int, checkout: Path):
        super().__init__(work_dir, seed, checkout)
        self.gate = ArtifactGate()

    def scenario_texts(self) -> dict[str, str]:
        return {name: (self.checkout / "scenarios" / f"{name}.txt").read_text() for name in SCENARIOS}

    def check(self, scenario: str, command: str, out: Path) -> bool:
        return all(self.gate.check(f"{scenario}/{name}", out / name) for name in ARTIFACTS[command])

    def run_batch(self) -> list[Item]:
        # The 15 items are independent, so the seed shuffles their order.
        pairs = [(s, c) for s in self.names for c in SUBCOMMANDS]
        return [self._item(*pairs[i]) for i in self.order_rng.permutation(len(pairs))]


def ladder_text(rng: np.random.Generator, levels: int, temperature: float) -> str:
    """A thermal ladder scenario with random level gaps and dipole matrix."""
    gaps = rng.uniform(0.5, 1.5, size=levels - 1)
    energies = np.concatenate(([0.0], np.cumsum(gaps))) * (LADDER_TOP_ENERGY / gaps.sum())
    energies[-1] = LADDER_TOP_ENERGY
    d2 = rng.uniform(0.0, 1.0, size=(levels, levels))
    d2 = 0.5 * (d2 + d2.T)
    np.fill_diagonal(d2, 0.0)
    span = LADDER_TOP_ENERGY + 25.0 * LADDER_GAMMA
    points = int(np.ceil(2.0 * span * LADDER_SAMPLES_PER_GAMMA / LADDER_GAMMA)) + 1

    def literal(values) -> str:
        return "[" + ", ".join(repr(float(v)) for v in values) + "]"

    return "\n".join(
        [
            f"# {levels}-level thermal ladder at T = {temperature!r}",
            f"energies = {literal(energies)}",
            "dipole_sq = [" + ", ".join(literal(row) for row in d2) + "]",
            f"temperature = {temperature!r}",
            f"gamma = {LADDER_GAMMA!r}",
            f"grid.min = {-span!r}",
            f"grid.max = {span!r}",
            f"grid.points = {points}",
            f"medium.density_n = {LADDER_DENSITY!r}",
            f"screen.omega = {LADDER_SCREEN_OMEGA!r}",
        ]
    ) + "\n"


def identity_chain_gap(out: Path) -> float:
    """Worst relative gap between optical and spectral sigma_tot where T_n is defined.

    The optical route is ``sigma_tot`` of cross_sections.csv (4 pi omega Im alpha);
    the spectral route is 4 pi^2 omega [1 - exp(-omega/T_n)] S+ from spectrum.csv.
    """
    spectrum = _read_csv(out / "spectrum.csv")
    xs = _read_csv(out / "cross_sections.csv")
    omega = parse_floats(spectrum["omega"])
    positive = omega > 0.0
    if not np.array_equal(parse_floats(xs["omega"]), omega[positive]):
        return np.inf
    omega = omega[positive]
    s_plus = parse_floats(spectrum["s_plus"])[positive]
    t_noise = parse_floats(spectrum["t_noise"])[positive]
    sigma_optical = parse_floats(xs["sigma_tot"])
    defined = ~np.isnan(t_noise)
    x = omega[defined] / t_noise[defined]
    sigma_spectral = 4.0 * np.pi**2 * omega[defined] * -np.expm1(-x) * s_plus[defined]
    nonzero = sigma_spectral != 0.0
    gap = np.abs(sigma_optical[defined] - sigma_spectral)[nonzero] / np.abs(sigma_spectral[nonzero])
    return float(gap.max(initial=0.0))


class Ladder(_ScenarioWorkload):
    nominal_batch_s = 20.0

    def scenario_texts(self) -> dict[str, str]:
        rng = np.random.default_rng(self.seed)
        return {
            f"ladder{levels}_{'pos' if t > 0 else 'neg'}": ladder_text(rng, levels, t)
            for levels in LADDER_LEVELS
            for t in LADDER_TEMPERATURES
        }

    def check(self, scenario: str, command: str, out: Path) -> bool:
        if command == "verify":
            return json.loads((out / "verify.json").read_text())["converged"] is True
        if command == "cross-sections":
            return identity_chain_gap(out) <= IDENTITY_CHAIN_TOL
        return True

    def run_batch(self) -> list[Item]:
        # Subcommands keep their order: the cross-sections check reads spectrum.csv.
        return [
            self._item(self.names[i], command)
            for i in self.order_rng.permutation(len(self.names))
            for command in SUBCOMMANDS
        ]


def _timed(fn, label: str, items: list[Item], counted: bool):
    """``fn`` appending one Item per call; a counted call passes when ``result[0]`` is true."""

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            items.append(Item(label, perf_counter() - t0, False, counted))
            raise
        seconds = perf_counter() - t0
        items.append(Item(label, seconds, bool(result[0]) if counted else True, counted))
        return result

    return timed


class Validate:
    """The built-in validation suite; its inputs are built in, so the seed changes nothing."""

    nominal_batch_s = 2.5

    def __init__(self, work_dir: Path, seed: int, checkout: Path):
        self.out_dir = work_dir / "validate_out"
        checks = sorted(name for name in vars(validate) if name.startswith("check_"))
        # (module, attribute, item label, counted): the checks are the items, and the
        # subcommands its artifact writing runs are timed for the *_p50_s metrics.
        self.bindings = [(validate, name, name[len("check_"):], True) for name in checks] + [
            (cli, "cmd_" + command.replace("-", "_"), command, False) for command in SUBCOMMANDS
        ]

    def prepare(self) -> None:
        pass

    def run_batch(self) -> list[Item]:
        """One ``validate`` call; a check is an item, and the subcommands it runs are timed."""
        items: list[Item] = []
        with Patch(
            (module, attr, _timed(getattr(module, attr), label, items, counted))
            for module, attr, label, counted in self.bindings
        ):
            code = _run_cli(["validate", "--out", str(self.out_dir), "--quiet"])
        # A failing exit with every timed check passing means an untimed check failed.
        if code != 0 and all(item.ok for item in items):
            items.append(Item("exit_code", 0.0, False))
        return items


WORKLOADS = {"canonical": Canonical, "ladder": Ladder, "validate": Validate}
