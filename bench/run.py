"""Benchmark of the thickenings package, end to end and per layer.

    python3 bench/run.py --workload decomp-wide --seed 1 --seconds 36 --trace 0

With ``--trace 0`` it measures the set-up time, then runs the workload for
``--seconds`` in a fresh process with tracing off, and reports the
end-to-end metrics. Every time it reports is scaled by a reference task run
next to it on the same CPU (``workloads.REFERENCE_CODE``), so it reads as
on a machine where that task takes ``REFERENCE_MS``. With ``--trace 1`` it
runs a fixed prefix of the case list three times, each in a fresh process:
once untraced and twice traced.
It reports the per-layer split of the first traced pass, the tracing
overhead, and fails if any exact count differs between the traced passes.

Every answer is checked against the other route. The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record (seed, case-list hash, versions, machine, tail percentile).
The exit code is 0 only when every case passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from tracer import COUNTERS, VERIFY_SUITES, span_names
from workloads import (
    BENCH_DIR,
    REFERENCE_MS,
    ROOT,
    SRC,
    WORKLOADS,
    case_list_sha256,
    pin_to_one_cpu,
    python_env,
    reference_seconds,
    scaled_ms,
)

# Set-up samples taken before the measured pass, and as many after it, so
# that they straddle the slow and fast phases of a shared machine.
SETUP_REPEATS = 6
# Cases in the traced prefix: a few seconds of each workload untraced.
TRACE_CASES = {"decomp-wide": 24, "decomp-sweep": 280, "cli-mixed": 40}
# The highest of 50/75/90/95/99 that leaves at least ten cases beyond it in a
# 36-second run on the machine that defined the benchmark. Fixed per workload
# so that runs and commits compare the same percentile.
TAIL_PERCENTILE = {"decomp-wide": 75, "decomp-sweep": 99, "cli-mixed": 90}
WORKER_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cases_per_s", "1/s", "higher"),
    ("case_p50_ms", "ms", "lower"),
    ("case_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in output order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [
        ("filtration.candidates", "count", "lower"),
        ("filtration.kept", "count", "lower"),
        ("filtration.kept_ratio", "ratio", "higher"),
        ("filtration.weights", "count", "lower"),
        ("schur.weyl_factors", "count", "lower"),
        ("schur.weyl_unit_factor_share", "ratio", "lower"),
        ("schur.weyl_max_bits", "bits", "lower"),
        ("schur.ssyt_leaves", "count", "lower"),
        ("closed_forms.max_bits", "bits", "lower"),
    ]
    for suite in VERIFY_SUITES:
        out += [(f"verify.{suite}.cases", "count", "higher"), (f"verify.{suite}.s", "s", "lower")]
    out += [
        ("bench.self_s", "s", "lower"),
        ("process.self_s", "s", "lower"),
        ("trace.hooks_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return out


def setup_seconds(workload: str, repeats: int) -> list[float]:
    """Times of fresh interpreters importing the package, scaled like case times."""
    module = "thickenings.cli" if workload.startswith("cli") else "thickenings"
    command = [sys.executable, "-c", f"import {module}"]
    env = python_env()
    samples = []
    before = reference_seconds()
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(command, cwd=ROOT, env=env, check=True, timeout=60, capture_output=True)
        elapsed = perf_counter() - start
        after = reference_seconds()
        samples.append(scaled_ms(elapsed, before, after) / 1000.0)
        before = after
    return samples


def run_worker(workload: str, seed: int, *extra: str) -> dict:
    command = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload pass failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(times_ms: list[float], percentile: int) -> tuple[float, int]:
    """(value, cases beyond it) at a nearest-rank percentile of the case times."""
    ordered = sorted(times_ms)
    rank = max(1, math.ceil(percentile * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def exact_counts(trace: dict) -> dict:
    """Everything in a trace that must repeat exactly for one case list."""
    counts = {f"{name}.calls": n for name, n in trace.get("calls", {}).items()}
    counts.update(trace.get("counts", {}))
    return counts


def count_differences(first: dict, second: dict) -> list[str]:
    a, b = exact_counts(first), exact_counts(second)
    return [f"{k}: {a.get(k)} != {b.get(k)}" for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def layer_values(untraced: dict, traced: dict) -> dict:
    trace = traced["trace"]
    calls, self_s = trace.get("calls", {}), trace.get("self_s", {})
    counts, suite_s = trace.get("counts", {}), trace.get("suite_s", {})
    values = {}
    for name in span_names():
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    for key in COUNTERS:
        values[key] = counts.get(key, 0)
    values["filtration.kept_ratio"] = (
        values["filtration.kept"] / values["filtration.candidates"] if values["filtration.candidates"] else 0.0
    )
    values["schur.weyl_unit_factor_share"] = (
        counts.get("schur.weyl_unit_factors", 0) / values["schur.weyl_factors"] if values["schur.weyl_factors"] else 0.0
    )
    values["schur.weyl_max_bits"] = counts.get("schur.weyl_max_bits", 0)
    values["closed_forms.max_bits"] = counts.get("closed_forms.max_bits", 0)
    for suite in VERIFY_SUITES:
        values[f"verify.{suite}.cases"] = counts.get(f"verify.{suite}.cases", 0)
        values[f"verify.{suite}.s"] = suite_s.get(suite, 0.0)
    wall = traced["wall_s"]
    values["bench.self_s"] = traced["bench_s"]
    values["process.self_s"] = traced["process_s"]
    values["trace.hooks_s"] = trace.get("hooks_s", 0.0)
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = untraced["wall_s"]
    # Case times scaled to the reference speed, so that the machine's speed
    # changes between the passes do not land in the overhead.
    traced_s, untraced_s = sum(traced["times_ms"]) / 1000.0, sum(untraced["times_ms"]) / 1000.0
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_share"] = values["trace.overhead_s"] / untraced_s
    return values


def accounted_seconds(values: dict) -> float:
    """Layer self times plus the time outside every layer; equals the traced wall time."""
    return sum(values[f"{name}.self_s"] for name in span_names()) + sum(
        values[key] for key in ("trace.hooks_s", "bench.self_s", "process.self_s")
    )


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "thickenings").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


# The CPUs this process may use, counted before it pins itself to one.
NPROC = len(os.sched_getaffinity(0))


def machine_record() -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "nproc": NPROC,
        "cpu_model": _cpu_model(),
        "reference_ms": REFERENCE_MS,
    }


def measure(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict], dict]:
    """End-to-end metrics of one timed pass, the passes run, and the record."""
    setup_seconds(workload, 1)  # writes the bytecode cache
    setup = setup_seconds(workload, SETUP_REPEATS)
    run = run_worker(workload, seed, "--seconds", str(seconds))
    setup += setup_seconds(workload, SETUP_REPEATS)
    percentile = TAIL_PERCENTILE[workload]
    tail_ms, beyond = tail(run["times_ms"], percentile)
    metrics = {
        "setup_s": statistics.median(setup),
        "cases_per_s": len(run["times_ms"]) / (sum(run["times_ms"]) / 1000.0),
        "case_p50_ms": statistics.median(run["times_ms"]),
        "case_tail_ms": tail_ms,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    record = {
        "setup_samples_s": setup,
        "tail_percentile": percentile,
        "tail_cases_beyond": beyond,
        "wall_s": run["wall_s"],
        "reference_ms_quartiles": statistics.quantiles(run["reference_ms"], n=4),
        "raw_case_p50_ms": statistics.median(run["raw_times_ms"]),
    }
    return metrics, [run], record


def measure_traced(workload: str, seed: int) -> tuple[dict, list[dict], dict]:
    """Per-layer metrics of the traced prefix, the passes run, and the record."""
    prefix = ("--cases", str(TRACE_CASES[workload]))
    untraced = run_worker(workload, seed, *prefix)
    first = run_worker(workload, seed, *prefix, "--trace")
    second = run_worker(workload, seed, *prefix, "--trace")
    metrics = layer_values(untraced, first)
    record = {
        "trace_cases": TRACE_CASES[workload],
        "tracing_overhead_s": metrics["trace.overhead_s"],
        "tracing_overhead_share": metrics["trace.overhead_share"],
        "accounted_s": accounted_seconds(metrics),
        "second_trace_wall_s": second["wall_s"],
        "count_differences": count_differences(first["trace"], second["trace"]),
    }
    return metrics, [untraced, first, second], record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the thickenings package.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "thickenings" / "__init__.py").is_file():
        print(f"no thickenings package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    try:
        if args.trace:
            metrics, passes, extra = measure_traced(args.workload, args.seed)
            units = {name: unit for name, unit, _ in per_layer_metrics()}
        else:
            metrics, passes, extra = measure(args.workload, args.seed, args.seconds)
            units = {name: unit for name, unit, _ in END_TO_END}
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    failed = len(failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "case_list_sha256": case_list_sha256(args.workload, args.seed),
        **machine_record(),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures[:10],
        **extra,
    }
    correct = failed == 0 and not extra.get("count_differences")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
