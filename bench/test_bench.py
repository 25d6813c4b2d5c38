"""Tests for the benchmark's own logic: the artifact gate, the tail rule, the tracer."""

import json
from pathlib import Path

import numpy as np

import gainscatter
from gainscatter import cli, spectral, validate

import artifact_gate
import layers
import run
from workloads import WORKLOADS, Item

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _perturb_csv(text: str, column: str, row: int, factor: float) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[1 + row].split(",")
    j = header.index(column)
    cells[j] = f"{float(cells[j]) * factor:.16e}"
    lines[1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_reference_passes_numeric_comparison():
    # The byte-equality shortcut is bypassed: each artifact is parsed and compared.
    reference = artifact_gate.load_reference()
    assert len(reference) == 24
    for key, data in reference.items():
        if key.endswith(".json"):
            assert artifact_gate._json_close(json.loads(data), json.loads(data)), key
        else:
            assert artifact_gate._csv_close(data.decode(), data.decode()), key


def test_perturbed_artifact_fails_gate():
    want = artifact_gate.load_reference()["amplifier/spectrum.csv"]
    # Row 1600 is omega = -1, the peak of the inverted target's s_plus; row 0 is
    # omega = -3, where s_plus is 2.5e-5 of the peak, so each value must be
    # compared to itself and not to the column's largest magnitude.
    for row in (1600, 0):
        perturbed = _perturb_csv(want.decode(), "s_plus", row, 1.0 + 1e-10).encode()
        assert perturbed != want
        assert not artifact_gate.artifacts_match(perturbed, want, "amplifier/spectrum.csv")
        # a change at the last bit is within the 1e-14 gate
        last_bit = _perturb_csv(want.decode(), "s_plus", row, 1.0 + 2e-16).encode()
        assert artifact_gate.artifacts_match(last_bit, want, "amplifier/spectrum.csv")
    # a reference value of zero must be matched exactly
    assert artifact_gate.arrays_close([0.0, 1.0], [0.0, 1.0])
    assert not artifact_gate.arrays_close([1e-300, 1.0], [0.0, 1.0])


def test_gate_requires_exact_flags():
    want = artifact_gate.load_reference()["amplifier/verify.json"]
    report = json.loads(want)
    assert artifact_gate.artifacts_match(json.dumps(report).encode(), want, "amplifier/verify.json")
    report["sigma_extrapolated"] *= 1.0 + 1e-10
    assert not artifact_gate.artifacts_match(json.dumps(report).encode(), want, "amplifier/verify.json")
    report = json.loads(want)
    report["converged"] = not report["converged"]
    assert not artifact_gate.artifacts_match(json.dumps(report).encode(), want, "amplifier/verify.json")
    flags = artifact_gate.load_reference()["amplifier/cross_sections.csv"].decode()
    changed = flags.replace("amplifying", "absorbing", 1).encode()
    assert not artifact_gate.artifacts_match(changed, flags.encode(), "amplifier/cross_sections.csv")


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(np.random.default_rng(0).permutation(np.arange(1.0, 101.0)))
    value, percentile = run.tail(samples)
    assert value == 90.0  # 91..100 lie beyond it
    assert sum(s > value for s in samples) == 10
    assert percentile == 100.0 * 89 / 99
    value, percentile = run.tail(list(range(12)))
    assert (value, percentile) == (1, 100.0 / 11)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)  # too few samples: the maximum


def test_reexported_binding_records_span():
    original = gainscatter.broaden
    lines = gainscatter.line_spectrum(gainscatter.TargetLevels([0.0, 1.0], [[0, 1], [1, 0]], [1.0, 0.0]))
    grid = np.linspace(-2.0, 2.0, 801)
    with layers.Tracer() as tracer:
        assert gainscatter.broaden is not original
        assert validate.broaden is gainscatter.broaden  # the same wrapper at every binding
        gainscatter.broaden(lines, grid, 0.01)
        validate.check_symmetric_nonneg()  # calls broaden through validate's binding
    assert gainscatter.broaden is original and validate.broaden is original
    assert spectral.broaden is original and cli.broaden is original
    names = [span.name for span in tracer.spans]
    assert names.count("spectral.broaden") == 2
    first = tracer.spans[names.index("spectral.broaden")]
    assert first.parent == -1 and first.info == {"grid": 801, "lines": 1}
    assert first.end > first.start and first.peak > 0
    nested = [s for s in tracer.spans if s.name == "spectral.broaden"][1]
    assert tracer.spans[nested.parent].name == "validate.check_symmetric_nonneg"


def test_self_time_subtracts_child_spans():
    spans = []
    for index, (name, parent, start, end) in enumerate(
        [("validate.check_a", -1, 0.0, 10.0), ("spectral.broaden", 0, 1.0, 4.0), ("validate.x", 0, 5.0, 6.0)]
    ):
        span = layers.Span(name, index, parent)
        span.start, span.end = start, end
        spans.append(span)
    q = layers.SpanIndex(spans)
    assert q.self_seconds(spans[0]) == 6.0
    assert q.layer_self_seconds(spans[0]) == 7.0  # only the other layer's child is removed


def test_names_match_benchmark_json():
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS) == tuple(w["name"] for w in BENCHMARK["workloads"])
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert list(layers.layer_metrics([], 1, 0.0)) == names
    end_to_end = [m["name"] for m in BENCHMARK["end_to_end"]]
    items = [Item(command, 0.1, True) for command in run.COMMAND_METRICS]
    metrics, _ = run.end_to_end_metrics(0.5, [1.0], items)
    assert list(metrics) == end_to_end
