"""pairstats benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) from the root of a source checkout,
importing the program from ``src/``.  The workload is a closed loop in one
process: each op is issued after the previous one returned.  One untimed
warm-up pass comes first; then passes over the workload's fixed op list
repeat for about ``--seconds`` (at least ``MIN_PASSES`` of them).

``--trace 0`` prints the end-to-end metrics: set-up time (the median of
``SETUP_REPEATS`` fresh processes that import the program and make the
inputs), the median pass time, per-op latency percentiles, peak resident
memory and the share of ops that succeeded.  ``--trace 1`` alternates
untraced and traced passes and prints per-layer metrics from the spans of
the traced ones, plus the tracing overhead.  Every op's output is checked;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record with machine
metadata is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# at most nproc; one thread keeps the tiny matrix products steady on a shared box
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 3
# The host this was tuned on alternates between a fast and a slow state for
# seconds at a time (a fixed pure-Python loop takes 11 or 16 ms), which moved
# medians of raw times by up to 30% between runs.  Reported times are
# therefore rescaled by a fixed loop, the probe, timed every PROBE_EVERY_S
# between ops: time * PROBE_REFERENCE_S / (probe time interpolated to the op).
# They read as seconds on a host whose probe takes PROBE_REFERENCE_S, about
# the median of that host.  Raw times stay in the record and on the # lines.
PROBE_LOOP = 100_000
PROBE_REFERENCE_S = 0.007
PROBE_EVERY_S = 0.2

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "share"),
)

PER_LAYER = (
    ("pipeline.simulate_experiment.busy_s", "s"),
    ("pipeline.simulate_experiment.pulses_per_s", "1/s"),
    ("pipeline.simulate_calibration.busy_s", "s"),
    ("pipeline.simulate_calibration.pulses_per_s", "1/s"),
    ("loop_detector.simulate_clicks_batch.busy_s", "s"),
    ("reconstruction.em_reconstruct.calls", "count"),
    ("reconstruction.em_reconstruct.busy_s", "s"),
    ("reconstruction.em_reconstruct.iterations", "count"),
    ("reconstruction.em_reconstruct.us_per_iter", "us"),
    ("reconstruction.em_reconstruct.converged_frac", "share"),
    ("reconstruction.em_reconstruct.kkt_residual_max", "1"),
    ("pipeline.bootstrap_characterize.busy_s", "s"),
    ("pipeline.bootstrap_characterize.replicas", "count"),
    ("analysis.contamination_map.busy_s", "s"),
    ("analysis.contamination_map.cells", "count"),
    ("analysis.contamination_map.nan_cells", "count"),
    ("analysis.characterize.busy_s", "s"),
    ("model.joint_distribution.calls", "count"),
    ("model.joint_distribution.busy_s", "s"),
    ("model.joint_distribution.cells", "count"),
    ("model.suggest_n_max.calls", "count"),
    ("model.suggest_n_max.busy_s", "s"),
    ("loop_detector.response_matrix.calls", "count"),
    ("loop_detector.response_matrix.busy_s", "s"),
    ("loop_detector.response_matrix.failed", "count"),
    ("loop_detector.apply_response.busy_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.spans", "count"),
)


def pin_blas_threads() -> None:
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS


def import_program():
    """Import pairstats from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "pairstats" / "__init__.py").is_file():
        raise SystemExit(f"error: no pairstats sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pairstats

    if Path(pairstats.__file__).resolve().parent != SRC / "pairstats":
        raise SystemExit(f"error: imported pairstats from {pairstats.__file__}, not {SRC}")
    return pairstats


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- host speed ---------------------------------------------------------------

def host_probe() -> tuple[float, float]:
    """(midpoint, duration) of a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    end = time.perf_counter()
    return (start + end) / 2, end - start


def probe_at(probes, t: float) -> float:
    """Probe duration at time t, interpolated between the probes around it."""
    times = [p[0] for p in probes]
    i = bisect.bisect_left(times, t)
    if i == 0:
        return probes[0][1]
    if i == len(probes):
        return probes[-1][1]
    (t0, d0), (t1, d1) = probes[i - 1], probes[i]
    return d0 + (d1 - d0) * (t - t0) / (t1 - t0)


# -- set-up -------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """Import the program and make the workload's inputs; print the time taken,
    raw and rescaled by the mean of a host probe before and after."""
    before = host_probe()[1]
    start = time.perf_counter()
    import_program()
    import workloads

    workloads.WORKLOADS[workload](seed)
    raw = time.perf_counter() - start
    after = host_probe()[1]
    print(json.dumps({"setup_s": raw * PROBE_REFERENCE_S / ((before + after) / 2), "raw_s": raw}))


def measure_setup(workload: str, seed: int) -> list[dict]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


# -- passes -------------------------------------------------------------------

class Results:
    """Everything a run measured and checked."""

    def __init__(self):
        self.walls = {False: [], True: []}  # traced -> pass wall times
        self.latencies: list[list[float]] = []  # per untraced pass, per op
        self.raw_walls: list[float] = []
        self.raw_latencies: list[list[float]] = []
        self.probes: list[list[tuple]] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict = {}  # op label -> reasons, first occurrence
        self.kkt: list[float] = []  # fits visible in op outputs
        self.work = Counter()  # traced passes only
        self.traced_kkt: list[float] = []


def run_pass(ops, results: Results, tracer=None, record=True) -> None:
    from pairstats.errors import PairStatsError

    from checks import Verdict, kkt_residual

    probes = [host_probe()]
    pass_start = time.perf_counter()
    latencies = []
    midpoints = []
    for op in ops:
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            out, verdict = op.call(), None
        except Exception as exc:  # an op that raises is a result to record, not a crash
            # keep only the message: the traceback would hold the op's arrays
            reason = [f"raised {type(exc).__name__}: {exc}"]
            out = None
            verdict = Verdict(flagged=reason) if isinstance(exc, PairStatsError) else Verdict(wrong=reason)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.remove()
        latencies.append(elapsed)
        midpoints.append(start + elapsed / 2)
        kkts = []
        if verdict is None:
            verdict = op.check(out)
            kkts = [kkt_residual(*fit) for fit in op.fits(out)]
        out = None  # so that the next op does not run beside this output
        if record:
            results.attempted += 1
            results.failed += verdict.failed
            results.wrong += bool(verdict.wrong)
            results.kkt.extend(kkts)
            if verdict.failed:
                results.failures.setdefault(op.label, verdict.reasons())
        if time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
            probes.append(host_probe())
    wall = time.perf_counter() - pass_start - sum(d for _, d in probes[1:])
    probes.append(host_probe())
    # peak memory should not depend on when the cyclic collector happens to run
    gc.collect()
    if record:
        durations = [d for _, d in probes]
        results.walls[tracer is not None].append(wall * PROBE_REFERENCE_S / statistics.fmean(durations))
        if tracer is None:
            results.raw_walls.append(wall)
            results.raw_latencies.append(latencies)
            results.probes.append(probes)
            results.latencies.append(
                [x * PROBE_REFERENCE_S / probe_at(probes, t) for x, t in zip(latencies, midpoints)]
            )
        else:
            tally_work(tracer, results)


def tally_work(tracer, results: Results) -> None:
    """Work counts from the arguments and results of kept calls; clears them."""
    from checks import kkt_residual

    work = results.work
    for index, args, kwargs, result in tracer.calls:
        name = tracer.spans[index].name
        if name == "model.joint_distribution":
            work[f"{name}.cells"] += (result.n_max + 1) ** 2
            continue
        fn = tracer.original(name)
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        arg = bound.arguments
        if name == "reconstruction.em_reconstruct":
            work[f"{name}.iterations"] += result.iterations
            work[f"{name}.converged"] += result.converged
            results.traced_kkt.append(kkt_residual(arg["hist"], arg["resp_a"], arg["resp_b"], result))
        elif name == "pipeline.simulate_experiment":
            work[f"{name}.pulses"] += arg["cfg"].pulses
        elif name == "pipeline.simulate_calibration":
            work[f"{name}.pulses"] += arg["cfg"].calibration_pulses
        elif name == "pipeline.bootstrap_characterize":
            work[f"{name}.replicas"] += arg["replicas"]
        elif name == "analysis.contamination_map":
            work[f"{name}.cells"] += result.size
            work[f"{name}.nan_cells"] += int(sum(math.isnan(v) for v in result.ravel()))
    tracer.calls.clear()


def traced_bindings():
    """Every binding the traced run wraps: (module, attribute)."""
    from pairstats import analysis, loop_detector, model, pipeline, reconstruction

    return [
        (pipeline, "run_full"),
        (pipeline, "simulate_experiment"),
        (pipeline, "simulate_calibration"),
        (pipeline, "simulate_clicks_batch"),
        (pipeline, "calibrate"),
        (pipeline, "response_matrix"),
        (pipeline, "em_reconstruct"),
        (pipeline, "characterize"),
        (pipeline, "bootstrap_characterize"),
        (reconstruction, "em_reconstruct"),
        (analysis, "contamination_map"),
        (analysis, "characterize"),
        (analysis, "joint_distribution"),
        (analysis, "suggest_n_max"),
        (model, "joint_distribution"),
        (model, "suggest_n_max"),
        (loop_detector, "response_matrix"),
        (loop_detector, "apply_response"),
    ]


KEPT_CALLS = (
    "reconstruction.em_reconstruct",
    "model.joint_distribution",
    "pipeline.simulate_experiment",
    "pipeline.simulate_calibration",
    "pipeline.bootstrap_characterize",
    "analysis.contamination_map",
)


# -- metrics ------------------------------------------------------------------

def end_to_end_metrics(results: Results, setup_times) -> dict:
    return {
        "setup_s": statistics.median(t["setup_s"] for t in setup_times),
        "wall_s": statistics.median(results.walls[False]),
        "op_p50_ms": 1e3 * percentile([x for p in results.latencies for x in p], 0.5),
        "op_p90_ms": 1e3 * percentile([x for p in results.latencies for x in p], 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - results.failed / results.attempted,
    }


def per_layer_metrics(results: Results, table: dict, spans: int) -> dict:
    passes = len(results.walls[True])
    work = results.work

    def row(name, key):
        return table.get(name, {}).get(key, 0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    em = "reconstruction.em_reconstruct"
    em_calls = row(em, "calls")
    em_iters = work[f"{em}.iterations"] / passes
    values = {}
    for name in ("pipeline.simulate_experiment", "pipeline.simulate_calibration"):
        values[f"{name}.busy_s"] = row(name, "self_s")
        values[f"{name}.pulses_per_s"] = ratio(work[f"{name}.pulses"] / passes, row(name, "total_s"))
    values.update(
        {
            "loop_detector.simulate_clicks_batch.busy_s": row("loop_detector.simulate_clicks_batch", "self_s"),
            f"{em}.calls": em_calls,
            f"{em}.busy_s": row(em, "self_s"),
            f"{em}.iterations": em_iters,
            f"{em}.us_per_iter": 1e6 * ratio(row(em, "self_s"), em_iters),
            f"{em}.converged_frac": ratio(work[f"{em}.converged"] / passes, em_calls),
            f"{em}.kkt_residual_max": max(results.traced_kkt, default=0.0),
            "pipeline.bootstrap_characterize.busy_s": row("pipeline.bootstrap_characterize", "self_s"),
            "pipeline.bootstrap_characterize.replicas": work["pipeline.bootstrap_characterize.replicas"] / passes,
            "analysis.contamination_map.busy_s": row("analysis.contamination_map", "self_s"),
            "analysis.contamination_map.cells": work["analysis.contamination_map.cells"] / passes,
            "analysis.contamination_map.nan_cells": work["analysis.contamination_map.nan_cells"] / passes,
            "analysis.characterize.busy_s": row("analysis.characterize", "self_s"),
            "model.joint_distribution.calls": row("model.joint_distribution", "calls"),
            "model.joint_distribution.busy_s": row("model.joint_distribution", "self_s"),
            "model.joint_distribution.cells": work["model.joint_distribution.cells"] / passes,
            "model.suggest_n_max.calls": row("model.suggest_n_max", "calls"),
            "model.suggest_n_max.busy_s": row("model.suggest_n_max", "self_s"),
            "loop_detector.response_matrix.calls": row("loop_detector.response_matrix", "calls"),
            "loop_detector.response_matrix.busy_s": row("loop_detector.response_matrix", "self_s"),
            "loop_detector.response_matrix.failed": row("loop_detector.response_matrix", "failed"),
            "loop_detector.apply_response.busy_s": row("loop_detector.apply_response", "self_s"),
        }
    )
    values["bench.untraced_wall_s"] = statistics.median(results.walls[False])
    values["bench.traced_wall_s"] = statistics.median(results.walls[True])
    # each traced pass directly follows an untraced one; pairing them cancels
    # most of the host's slower drifts
    values["bench.trace_overhead_s"] = statistics.median(
        t - u for u, t in zip(results.walls[False], results.walls[True])
    )
    values["bench.spans"] = spans / passes
    return values


# -- metadata -----------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": git_commit(),
    }


# -- main ---------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_blas_threads()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_program()
    import spans as spanlib
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    ops = workloads.WORKLOADS[args.workload](args.seed)
    setup_times = measure_setup(args.workload, args.seed)

    results = Results()
    tracer = spanlib.Tracer(traced_bindings(), keep=KEPT_CALLS) if args.trace else None
    run_pass(ops, results, record=False)  # warm-up
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        run_pass(ops, results)
        if tracer is not None:
            run_pass(ops, results, tracer)
        # stop at the round boundary nearest to the budget
        now = time.perf_counter()
        if len(results.walls[False]) >= MIN_PASSES and now - start + (now - round_start) / 2 >= args.seconds:
            break

    meta = metadata(args)
    record = {"metadata": meta, "setup_s_samples": setup_times, "failures": results.failures}
    if tracer is None:
        metrics = end_to_end_metrics(results, setup_times)
        units = dict(END_TO_END)
        record["op_samples"] = len(results.latencies)
    else:
        table = spanlib.summarize(tracer.spans)
        metrics = per_layer_metrics(results, table, len(tracer.spans))
        units = dict(PER_LAYER)
        record["span_table"] = table
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}.tsv"
        spanlib.write_spans(tracer.spans, spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    record["visible_fit_kkt_max"] = max(results.kkt, default=None)
    record["passes"] = {"untraced": len(results.walls[False]), "traced": len(results.walls[True])}
    record["pass_walls_s"] = {"untraced": results.walls[False], "traced": results.walls[True]}
    record["op_latencies_s"] = results.latencies
    record["raw_pass_walls_s"] = results.raw_walls
    record["raw_op_latencies_s"] = results.raw_latencies
    record["probes"] = results.probes
    record["metrics"] = metrics

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print("# " + json.dumps(meta))
    raw_ops = [x for lat in results.raw_latencies for x in lat]
    probes = [d for run in results.probes for _, d in run]
    print(f"# raw (not rescaled): wall_s {statistics.median(results.raw_walls):.4f}"
          f", op_p50_ms {1e3 * percentile(raw_ops, 0.5):.4f}, op_p90_ms {1e3 * percentile(raw_ops, 0.9):.4f}"
          f", setup_s {statistics.median(t['raw_s'] for t in setup_times):.4f}"
          f"; probe median {1e3 * statistics.median(probes):.3f} ms")
    print(f"# passes: {record['passes']}, ops measured: {len(raw_ops)}"
          f", attempted: {results.attempted}, failed: {results.failed}"
          f" (failed_frac {results.failed / results.attempted:.4f})")
    for label, reasons in results.failures.items():
        print(f"# failed op: {label}: {'; '.join(reasons)}")
    if results.kkt:
        print(f"# KKT residual max|g-1| of returned fits: max {max(results.kkt):.3e}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": results.wrong == 0,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
