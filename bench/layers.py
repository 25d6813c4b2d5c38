"""Traced run: spans around every public gainscatter function, and per-layer metrics.

The layers are the package's modules.  Modules import each other's names with
``from .x import y``, so a function is wrapped at every module that binds it,
not only where it is defined; a call through any binding then records a span.
Each span keeps its name, start, end, parent and counts computed from its
arguments or result.  Spans stay in memory until the run writes them out.

``tracemalloc`` runs only inside the spans of ``MEMORY_SPANS``, the calls that
build grid x lines temporaries, and gives their peak allocation.  Tracing every
allocation would slow the Python-heavy layers (the CSV writer) about 3.4x and
distort their times.
"""

from __future__ import annotations

import functools
import inspect
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import gainscatter
from gainscatter import cli, medium, response, scattering, scenario, screen, spectral, validate

LAYERS = {
    "cli": cli,
    "spectral": spectral,
    "response": response,
    "scattering": scattering,
    "medium": medium,
    "screen": screen,
    "scenario": scenario,
    "validate": validate,
}
MEMORY_SPANS = frozenset({"spectral.broaden", "response.polarizability_curve"})
# Private functions traced only for the counts their arguments or results give.
COUNTED_PRIVATE = {"response": ("_pv_reconstruct",), "screen": ("_radial_nodes",)}

# Which end-to-end metric each layer's metrics should move, and on which workload.
MOVES = {
    "cli": "item_p50_s and every *_p50_s on canonical; wall_s on validate; little on ladder",
    "spectral": "wall_s, peak_rss_mib and spectrum/response/cross_sections/medium_p50_s on "
    "ladder; wall_s on validate (pair builds); no change on canonical",
    "response": "curve: wall_s and peak_rss_mib on ladder; dispersion and Kramers-Kronig: "
    "wall_s on validate only",
    "scattering": "cross_sections_p50_s on ladder, where each bisection step sums all lines",
    "medium": "medium_p50_s",
    "screen": "verify_p50_s on ladder and canonical",
    "scenario": "item_p50_s, small everywhere",
    "validate": "wall_s on validate",
}

MIB = 2.0**20


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_broaden(args, kwargs, result):
    return {"grid": result.grid.size, "lines": result.lines.n_lines}


def _count_curve(args, kwargs, result):
    closed_form = result.provenance == "closed-form-lorentzian"
    return {"grid": result.grid.size, "lines": result.pair.lines.n_lines if closed_form else 0}


def _count_write_csv(args, kwargs, result):
    path = Path(_arg(args, kwargs, 0, "path"))
    return {"rows": len(_arg(args, kwargs, 2, "columns")[0]), "bytes": path.stat().st_size}


def _count_write_json(args, kwargs, result):
    return {"bytes": Path(_arg(args, kwargs, 0, "path")).stat().st_size}


def _count_command(args, kwargs, result):
    return {"out_dir": str(_arg(args, kwargs, 1, "out_dir"))}


COMMAND_SPANS = tuple(
    f"cli.cmd_{c}" for c in ("spectrum", "response", "cross_sections", "medium", "verify")
)
COUNTERS = {
    "spectral.broaden": _count_broaden,
    "response.polarizability_curve": _count_curve,
    "response._pv_reconstruct": lambda a, k, r: {"eval_points": len(_arg(a, k, 2, "eval_idx"))},
    "screen._radial_nodes": lambda a, k, r: {"nodes": len(r[0])},
    "cli.write_csv": _count_write_csv,
    "cli.write_json": _count_write_json,
    **{name: _count_command for name in COMMAND_SPANS},
}


class Span:
    __slots__ = ("name", "index", "parent", "start", "end", "peak", "info")

    def __init__(self, name: str, index: int, parent: int):
        self.name = name
        self.index = index
        self.parent = parent
        self.peak = None  # bytes, for MEMORY_SPANS
        self.info = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def layer_functions() -> dict:
    """Every public function defined in a layer module, mapped to ``layer.name``."""
    targets = {}
    for layer, module in LAYERS.items():
        private = COUNTED_PRIVATE.get(layer, ())
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and (not attr.startswith("_") or attr in private)
            ):
                targets[value] = f"{layer}.{attr}"
    return targets


class Patch:
    """Context manager: sets ``module.attr = value`` for each (module, attr, value)
    and restores the old bindings on exit."""

    def __init__(self, replacements):
        self.replacements = list(replacements)
        self.saved = []

    def __enter__(self):
        for module, attr, value in self.replacements:
            self.saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self.saved):
            setattr(module, attr, value)
        self.saved.clear()


class Tracer:
    """Context manager: while active, calls into the package record spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patch = None

    def __enter__(self):
        targets = layer_functions()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        self._patch = Patch(
            (module, attr, wrappers[value])
            for module in (gainscatter, *LAYERS.values())
            for attr, value in vars(module).items()
            if inspect.isfunction(value) and value in wrappers
        )
        self._patch.__enter__()
        return self

    def __exit__(self, *exc):
        self._patch.__exit__(*exc)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        measure_memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, len(self.spans), self._stack[-1].index if self._stack else -1)
            self.spans.append(span)
            self._stack.append(span)
            tracing = measure_memory and not tracemalloc.is_tracing()
            if tracing:
                tracemalloc.start()
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                if tracing:
                    span.peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            if count is not None:
                span.info = count(args, kwargs, result)
            return result

        return traced


class SpanIndex:
    """Queries over a finished list of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_name = defaultdict(list)
        self.child_seconds = [0.0] * len(spans)
        self.other_layer_child_seconds = [0.0] * len(spans)
        for span in spans:
            self.by_name[span.name].append(span)
            if span.parent >= 0:
                self.child_seconds[span.parent] += span.seconds
                if spans[span.parent].layer != span.layer:
                    self.other_layer_child_seconds[span.parent] += span.seconds

    def self_seconds(self, span: Span) -> float:
        """Span time minus the time of its child spans."""
        return span.seconds - self.child_seconds[span.index]

    def layer_self_seconds(self, span: Span) -> float:
        """Span time minus child spans of other layers: the time spent in this layer's code."""
        return span.seconds - self.other_layer_child_seconds[span.index]

    def parent_is(self, span: Span, names) -> bool:
        return span.parent >= 0 and self.spans[span.parent].name in names

    def under(self, span: Span, names) -> bool:
        """True when some ancestor of ``span`` has one of ``names``."""
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False

    def of(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def seconds(self, name: str) -> float:
        return sum(span.seconds for span in self.of(name))

    def info_sum(self, name: str, key: str) -> float:
        return sum(span.info[key] for span in self.of(name))


def layer_metrics(spans: list[Span], batches: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics, as totals per traced batch (peaks and ratios as they are)."""
    q = SpanIndex(spans)
    per = 1.0 / batches
    csv_s = q.seconds("cli.write_csv")
    json_s = q.seconds("cli.write_json")
    written = q.info_sum("cli.write_csv", "bytes") + q.info_sum("cli.write_json", "bytes")
    broadens = q.of("spectral.broaden")
    curves = q.of("response.polarizability_curve")
    verify = {"screen.verify_optical_theorem"}
    # One scenario run per output directory per batch; verify's own grid is counted apart.
    scenario_runs = len({s.info["out_dir"] for name in COMMAND_SPANS for s in q.of(name)}) * batches
    pair_builds = sum(1 for s in broadens if q.under(s, COMMAND_SPANS) and not q.under(s, verify))
    checks_s = sum(
        q.seconds(name)
        for name in q.by_name
        if name.startswith("validate.check_") and name != "validate.check_artifact_determinism"
    )
    artifacts = {"validate.check_artifact_determinism"}
    return {
        "cli.write_csv_s": csv_s * per,
        "cli.write_json_s": json_s * per,
        "cli.rows_written": q.info_sum("cli.write_csv", "rows") * per,
        "cli.bytes_written": written * per,
        "cli.write_mb_per_s": written / (csv_s + json_s) / 1e6 if csv_s + json_s else 0.0,
        "spectral.line_spectrum_s": q.seconds("spectral.line_spectrum") * per,
        "spectral.broaden_s": q.seconds("spectral.broaden") * per,
        "spectral.broaden_calls": len(broadens) * per,
        "spectral.line_evals": sum(2 * s.info["grid"] * s.info["lines"] for s in broadens) * per,
        "spectral.temp_bytes": max((8 * s.info["grid"] * s.info["lines"] for s in broadens), default=0),
        "spectral.peak_mib": max((s.peak for s in broadens if s.peak is not None), default=0) / MIB,
        "spectral.pair_builds_per_scenario": pair_builds / scenario_runs if scenario_runs else 0.0,
        "response.curve_s": q.seconds("response.polarizability_curve") * per,
        "response.curve_calls": len(curves) * per,
        "response.line_evals": sum(2 * s.info["grid"] * s.info["lines"] for s in curves) * per,
        "response.peak_mib": max((s.peak for s in curves if s.peak is not None), default=0) / MIB,
        "response.alpha_boundary_s": q.seconds("response.alpha_boundary") * per,
        "response.dispersion_s": q.seconds("response.polarizability_dispersion") * per,
        "response.dispersion_calls": len(q.of("response.polarizability_dispersion")) * per,
        "response.kk_s": q.seconds("response.kramers_kronig_residual") * per,
        "response.kk_eval_points": q.info_sum("response._pv_reconstruct", "eval_points") * per,
        "scattering.cross_sections_s": q.seconds("scattering.cross_sections") * per,
        "scattering.bands_s": q.seconds("scattering.amplifier_bands") * per,
        "scattering.im_alpha_calls": sum(
            1 for s in q.of("response.im_alpha") if q.parent_is(s, {"scattering.amplifier_bands"})
        )
        * per,
        "scattering.spectral_route_s": q.seconds("scattering.sigma_total_spectral") * per,
        "medium.response_s": q.seconds("medium.medium_response") * per,
        "medium.extinction_dilute_s": q.seconds("medium.extinction_dilute") * per,
        "screen.verify_s": sum(q.layer_self_seconds(s) for s in q.of("screen.verify_optical_theorem"))
        * per,
        "screen.missing_intensity_calls": len(q.of("screen.missing_intensity_sigma")) * per,
        "screen.radial_nodes": q.info_sum("screen._radial_nodes", "nodes") * per,
        "screen.throwaway_grid_points": sum(
            s.info["grid"] for s in broadens if q.parent_is(s, verify)
        )
        * per,
        "scenario.parse_s": (
            q.seconds("scenario.load_scenario")
            + sum(s.seconds for s in q.of("scenario.parse_scenario") if not q.under(s, {"scenario.load_scenario"}))
        )
        * per,
        "scenario.calls": len(q.of("scenario.parse_scenario")) * per,
        "validate.checks_s": checks_s * per,
        "validate.artifact_determinism_s": q.seconds("validate.check_artifact_determinism") * per,
        "validate.artifacts_written": sum(
            1 for name in ("cli.write_csv", "cli.write_json") for s in q.of(name) if q.under(s, artifacts)
        )
        * per,
        "trace.overhead_s": overhead_s,
    }


def layer_self_seconds(spans: list[Span], batches: int) -> dict[str, float]:
    """Self time per layer per traced batch: where the traced time went."""
    q = SpanIndex(spans)
    totals = defaultdict(float)
    for span in spans:
        totals[span.layer] += q.self_seconds(span) / batches
    return dict(totals)


def span_records(spans: list[Span]) -> list[list]:
    """Spans as [name, start, end, parent, self_s, peak_bytes, counts], for writing out."""
    q = SpanIndex(spans)
    return [
        [s.name, s.start, s.end, s.parent, q.self_seconds(s), s.peak, s.info] for s in spans
    ]
