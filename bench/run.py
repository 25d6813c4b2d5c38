"""gainscatter benchmark: one workload per run, in a fresh process.

Run from the root of a checkout:

    python3 bench/run.py --workload canonical --seed 1 --seconds 20 --trace 0

Workloads are ``canonical``, ``ladder`` and ``validate`` (see workloads.py);
``--workload all`` runs the three one after another, each in its own process.
Each is a closed loop with one client.  ``--seconds`` sets the amount of work:
the number of fixed batches is ``seconds`` over the workload's nominal batch
time, so every commit measures the same work and the same sample counts.

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it runs half the batches untraced and half
traced, and reports the per-layer metrics (see layers.py).  A readable report
and a provenance line come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Details and
spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("canonical", "ladder", "validate")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_FIRST = 5  # set-up samples before the first batch
SETUP_SPREAD = 10  # then one after a batch whenever a tenth of the run has passed
IMPORT_TIMER = "import time; t0 = time.perf_counter(); import gainscatter; print(time.perf_counter() - t0)"
TAIL_BEYOND = 10
COMMAND_METRICS = {
    "spectrum": "spectrum_p50_s",
    "response": "response_p50_s",
    "cross-sections": "cross_sections_p50_s",
    "medium": "medium_p50_s",
    "verify": "verify_p50_s",
}


def tail(samples) -> tuple[float, float]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    That is the (TAIL_BEYOND + 1)-th largest sample, returned with its
    percentile rank 100 (n - 1 - TAIL_BEYOND) / (n - 1).  With too few
    samples there is no such percentile and the maximum (rank 100) is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND + 1:
        return ordered[-1], 100.0
    k = n - 1 - TAIL_BEYOND
    return ordered[k], 100.0 * k / (n - 1)


def end_to_end_metrics(setup_s: float, walls: list[float], items) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced batches, and the tail's provenance."""
    counted = [item.seconds for item in items if item.counted]
    tail_s, percentile = tail(counted)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "item_p50_s": statistics.median(counted),
        "item_tail_s": tail_s,
    }
    for command, name in COMMAND_METRICS.items():
        metrics[name] = statistics.median(i.seconds for i in items if i.command == command)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, {"percentile": percentile, "samples": len(counted), "beyond": TAIL_BEYOND}


def run_batches(workload, batches: int, between=None) -> tuple[list[float], list]:
    """Run the batches; ``between()`` is called after each, outside its timing."""
    walls, items = [], []
    for _ in range(batches):
        t0 = perf_counter()
        items += workload.run_batch()
        walls.append(perf_counter() - t0)
        if between is not None:
            between()
    return walls, items


class SetupTimer:
    """Set-up time: importing the package in a fresh process plus writing the workload's inputs.

    The import is timed inside the child, so interpreter start-up is left out.
    The machine's speed drifts over seconds, so samples are taken at the start
    and again between batches through the run; ``setup_s`` is their median.
    """

    def __init__(self, workload, src: Path, seconds: float):
        self.workload = workload
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        self.interval = seconds / SETUP_SPREAD
        self.samples: list[float] = []
        self.last = perf_counter()

    def sample(self) -> None:
        child = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=self.env, capture_output=True, text=True, check=True)
        t0 = perf_counter()
        self.workload.prepare()
        self.samples.append(float(child.stdout) + perf_counter() - t0)
        self.last = perf_counter()

    def between_batches(self) -> None:
        if perf_counter() - self.last >= self.interval:
            self.sample()

    @property
    def seconds(self) -> float:
        return statistics.median(self.samples)


def git_commit(checkout: Path) -> str | None:
    """HEAD of the checkout, or None when the checkout is not itself a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=checkout,
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != checkout.resolve():
        return None
    return lines[1]


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "gainscatter").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh process; the exit code is the worst of theirs."""
    codes = []
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        codes.append(subprocess.run([sys.executable, __file__, *argv, "--trace", str(args.trace)]).returncode)
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    checkout = Path.cwd()
    src = checkout / "src"
    if not (src / "gainscatter" / "__init__.py").is_file() or not (checkout / "scenarios").is_dir():
        print("error: run from the root of a gainscatter checkout (src/ and scenarios/)", file=sys.stderr)
        return 2
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

    # numpy reads the BLAS thread caps when it is first imported, below.
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))
    import gainscatter
    import numpy

    if Path(gainscatter.__file__).resolve().parent != (src / "gainscatter").resolve():
        print(f"error: imported gainscatter from {gainscatter.__file__}, not {src}", file=sys.stderr)
        return 2
    import layers
    from workloads import WORKLOADS

    work_dir = checkout / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work_dir, args.seed, checkout)
    setup = SetupTimer(workload, src, args.seconds)
    for _ in range(1 if args.trace else SETUP_FIRST):
        setup.sample()
    batches = max(1, math.ceil(args.seconds / workload.nominal_batch_s))

    report = {}
    if args.trace:
        batches = max(1, batches // 2)
        walls, items = run_batches(workload, batches)
        with layers.Tracer() as tracer:
            traced_walls, traced_items = run_batches(workload, batches)
        items += traced_items
        overhead_s = statistics.median(traced_walls) - statistics.median(walls)
        metrics = layers.layer_metrics(tracer.spans, batches, overhead_s)
        report["layer_self_s"] = layers.layer_self_seconds(tracer.spans, batches)
        report["moves"] = layers.MOVES
        (work_dir / "spans.json").write_text(json.dumps(layers.span_records(tracer.spans)))
        wanted = spec["per_layer"]
    else:
        walls, items = run_batches(workload, batches, setup.between_batches)
        metrics, report["item_tail"] = end_to_end_metrics(setup.seconds, walls, items)
        report["setup_samples"] = len(setup.samples)
        wanted = spec["end_to_end"]

    counted = [item for item in items if item.counted]
    failed = sum(1 for item in counted if not item.ok)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "batches": batches,
        "trace": args.trace,
        "nproc": threads,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(checkout),
        "source_sha256": source_digest(src),
        **report,
    }
    result = {
        "correct": failed == 0 and len(counted) > 0,
        "attempted": len(counted),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (work_dir / "result.json").write_text(json.dumps({"provenance": provenance, **result}, indent=2))

    for name, entry in result["metrics"].items():
        print(f"{name:<36} {entry['value']:>16.6g} {entry['unit']}")
    if not args.trace:
        tail_info = report["item_tail"]
        print(f"{'item_tail_s percentile':<36} {tail_info['percentile']:>16.6g} of {tail_info['samples']} items")
    print(f"{'fail_frac':<36} {failed / max(len(counted), 1):>16.6g} ({failed} of {len(counted)} items failed)")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
