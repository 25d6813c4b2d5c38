"""What the benchmark's per-layer tracer reads from the package, pinned.

``bench/layers.py`` counts the spans of ``spectral.broaden`` and
``response.polarizability_curve`` from their results (``grid``, ``lines``,
``pair.lines``, ``provenance``).  A refactor of ``SpectralPair`` or
``PolarizabilityCurve`` that drops what it reads breaks ``bench/run.py
--trace 1``; this test fails first.
"""

import sys
from pathlib import Path

from gainscatter.cli import run

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))
import layers  # noqa: E402

SUBCOMMANDS = ("spectrum", "response", "cross-sections", "medium", "verify")


def test_tracer_counts_on_the_canonical_scenarios(tmp_path):
    scenarios = sorted((ROOT / "scenarios").glob("*.txt"))
    assert len(scenarios) == 3
    with layers.Tracer() as tracer:
        for scenario in scenarios:
            for command in SUBCOMMANDS:
                argv = [command, "--scenario", str(scenario), "--out", str(tmp_path / scenario.stem)]
                assert run(argv + ["--quiet"]) == 0
    metrics = layers.layer_metrics(tracer.spans, batches=1, overhead_s=0.0)
    assert metrics["response.line_evals"] == 288_048
    assert metrics["spectral.broaden_calls"] == 15
    # one pair per subcommand run, verify included
    assert metrics["spectral.pair_builds_per_scenario"] == 5
