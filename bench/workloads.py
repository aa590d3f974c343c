"""Workload case lists, one measured pass over them, and the correctness gate.

Each workload turns a seed into an endless, deterministic case list; the
program only sees the generated (m, t, j) values. A pass runs cases one at a
time (a closed loop with one client), either for a number of seconds or for
a fixed number of cases. It times the program's part of each case, scales
that time by a reference task run around it (see ``REFERENCE_CODE``),
checks every answer against the other route, and prints one JSON object:

    PYTHONPATH=src python3 bench/workloads.py --workload decomp-wide --seed 1 --seconds 5
    PYTHONPATH=src python3 bench/workloads.py --workload cli-mixed --seed 1 --cases 20 --trace

With ``--trace`` the decomposition workload runs under the in-process
tracer, and each CLI case runs through ``tracer.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import TRACE_TAG, VERIFY_SUITES, Tracer, merge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("decomp-wide", "decomp-sweep", "cli-mixed")

# Cases hashed into ``case_list_sha256``: every pass runs a prefix of them.
HASHED_CASES = 1000
# A CLI case that runs this long has hung; the pass stops with an error.
CLI_TIMEOUT_S = 120

# The reference task: a fresh, isolated interpreter that runs a fixed
# computation and imports nothing of the program. On a shared host a CPU's
# speed changes by up to 2x from second to second, and the reference slows
# with the cases that share its CPU. So a pass pins itself and its children
# to one CPU and runs the reference between its cases (see REFERENCE_GAP_S).
# A case's time is scaled by REFERENCE_MS over the mean of the two references
# around it: it reads as on a machine where the reference takes REFERENCE_MS,
# about its median time on the 2-vCPU Xeon VM that defined the benchmark.
REFERENCE_CODE = """
x = 1
for i in range(1, 2500):
    x *= i
d = {}
for i in range(5000):
    d[i % 101] = d.get(i % 101, 0) + i
"""
REFERENCE_MS = 75.0
# Cases shorter than this share the references around them: a reference runs
# before the first case and after every run of cases this long.
REFERENCE_GAP_S = 0.15

# decomp-wide: a case costs about t^2 * m^3.3 (t^2/2 weights, m^2/2 Weyl
# factors each, on integers that grow with m), so for each m the t band
# keeps t * m^1.65 within a factor 1.2 and no case costs more than about 1.5
# times another, so that the cases a seed draws hardly move a run's medians.
WIDE_M = range(30, 61)
WIDE_T_AT_60 = 18
WIDE_T_SPREAD = 1.2


def _wide_t_band(m: int) -> range:
    low = math.ceil(WIDE_T_AT_60 * (60 / m) ** 1.65)
    return range(low, math.floor(low * WIDE_T_SPREAD) + 1)


def _shuffled_forever(rng: random.Random, pool: list):
    """The pool in a random order, reshuffled each time it is used up."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


def _decomp_wide(rng):
    pool = [(m, t) for m in WIDE_M for t in _wide_t_band(m)]
    for m, t in _shuffled_forever(rng, pool):
        yield ("decomp", m, t)


# decomp-sweep: each cycle sweeps every m in SWEEP_M once, in a shuffled
# order, each over t = 1..T in ascending order with T drawn from SWEEP_T. A
# sweep costs about T^4, so the band is narrow: the sweeps a seed draws
# hardly move a run's medians.
SWEEP_M = (3, 4, 5, 6)
SWEEP_T = range(68, 73)


def _decomp_sweep(rng):
    while True:
        order = list(SWEEP_M)
        rng.shuffle(order)
        for m in order:
            for t in range(1, rng.choice(SWEEP_T) + 1):
                yield ("decomp", m, t)


def _cli_cycle(rng):
    """One shuffled cycle of the CLI mix: 13 length, 2 decompose, 2 table, 3 verify."""
    cycle = []
    for kind, count in (("finite", 7), ("zero", 3), ("infinite", 3)):
        for _ in range(count):
            m = rng.randint(3, 40)
            if kind == "finite":
                t, j = rng.randint(2, 500), 3
            elif kind == "infinite":
                t, j = rng.randint(1, 500), m + 1
            else:
                t = rng.randint(1, 500)
                j = rng.choice([i for i in range(2 * m + 1) if i not in (3, m + 1)])
            cycle.append(("length", "--m", str(m), "--t", str(t), "--j", str(j), "--json"))
    for _ in range(2):
        m, t = rng.randint(5, 20), rng.randint(20, 60)
        cycle.append(("decompose", "--m", str(m), "--t", str(t), "--json"))
    for fmt in ("csv", "json"):
        m_min = rng.randint(3, 5)
        bounds = (m_min, m_min + rng.randint(8, 12), 1, rng.randint(100, 200))
        cycle.append(
            ("table", "--m-min", str(bounds[0]), "--m-max", str(bounds[1]),
             "--t-min", str(bounds[2]), "--t-max", str(bounds[3]), "--format", fmt)
        )
    cycle.extend([("verify", "--suite", "all")] * 3)
    rng.shuffle(cycle)
    return cycle


def _cli_mixed(rng):
    while True:
        yield from _cli_cycle(rng)


_GENERATORS = {"decomp-wide": _decomp_wide, "decomp-sweep": _decomp_sweep, "cli-mixed": _cli_mixed}


def cases(workload: str, seed: int):
    """The endless case list of a workload; the same seed gives the same list."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def case_list_sha256(workload: str, seed: int) -> str:
    prefix = list(itertools.islice(cases(workload, seed), HASHED_CASES))
    return hashlib.sha256(json.dumps(prefix).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Checks. Each returns None when the answer is right, else a reason. The
# expected values come from the closed forms, computed in this process.


def _opt(argv, flag):
    return int(argv[argv.index(flag) + 1])


def check_decomp(value, m, t, closed):
    expected = closed.cumulative_length(m, t)
    return None if value == expected else f"decomposition gave {value}, closed form {expected}"


def _expected_length(m, t, j, closed):
    if j == m + 1:
        return {"kind": "infinite"}
    value = closed.cumulative_length(m, t) if j == 3 else 0
    return {"kind": "finite", "value": str(value)} if value else {"kind": "zero"}


def _table_rows(argv, closed):
    for m in range(_opt(argv, "--m-min"), _opt(argv, "--m-max") + 1):
        for t in range(_opt(argv, "--t-min"), _opt(argv, "--t-max") + 1):
            yield m, t, str(closed.layer_length_closed(m, t)), str(closed.cumulative_length(m, t))


def check_cli(argv, code, out, closed):
    """Check one CLI invocation's exit code and stdout."""
    if code != 0:
        return f"exit code {code}"
    command = argv[0]
    try:
        if command == "length":
            got = json.loads(out)
            want = _expected_length(_opt(argv, "--m"), _opt(argv, "--t"), _opt(argv, "--j"), closed)
            return None if got == want else f"length gave {got}, expected {want}"
        if command == "table" and argv[-1] == "csv":
            want = ["m,t,layer,cumulative"] + [",".join(map(str, r)) for r in _table_rows(argv, closed)]
            return None if out.splitlines() == want else "table csv differs from closed forms"
        if command == "table":
            got = [(r["m"], r["t"], r["layer"], r["cumulative"]) for r in json.loads(out)]
            return None if got == list(_table_rows(argv, closed)) else "table json differs from closed forms"
        if command == "decompose":
            got = json.loads(out)
            m, t = _opt(argv, "--m"), _opt(argv, "--t")
            closed_form = str(closed.layer_length_closed(m, t))
            ok = (
                got["match"] is True
                and (got["m"], got["t"]) == (m, t)
                and got["closed_form"] == got["total"] == closed_form
                and len(got["summands"]) == t - 1
                and str(sum(int(s["dim"]) for s in got["summands"])) == closed_form
            )
            return None if ok else "decompose summands do not match the closed form"
        if command == "verify":
            found = dict(re.findall(r"^(\w+): PASS \((\d+) cases\)$", out, re.M))
            ok = (
                set(found) == set(VERIFY_SUITES)
                and all(int(n) > 0 for n in found.values())
                and out.rstrip().endswith("all checks passed")
            )
            return None if ok else f"verify output lacks a nonzero PASS per suite: {out!r}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable output: {exc!r}"
    return f"unknown command {command!r}"


# ---------------------------------------------------------------------------
# Running cases.


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference_seconds() -> float:
    """Wall time of one run of the reference task."""
    start = perf_counter()
    subprocess.run([sys.executable, "-I", "-c", REFERENCE_CODE], check=True, capture_output=True, timeout=60)
    return perf_counter() - start


def scaled_ms(elapsed_s: float, before_s: float, after_s: float) -> float:
    """A case's time in ms at the reference speed, from the references around it."""
    return elapsed_s * REFERENCE_MS * 2.0 / (before_s + after_s)


def python_env() -> dict:
    """The environment for a child interpreter that imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(argv, traced, env):
    """Run one CLI command; returns (exit code, stdout, seconds, trace or None)."""
    if traced:
        command = [sys.executable, str(BENCH_DIR / "tracer.py"), *argv]
    else:
        command = [sys.executable, "-m", "thickenings.cli", *argv]
    start = perf_counter()
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    elapsed = perf_counter() - start
    trace = None
    if traced:
        tagged = [line for line in proc.stderr.splitlines() if line.startswith(TRACE_TAG)]
        trace = json.loads(tagged[-1][len(TRACE_TAG):]) if tagged else None
    return proc.returncode, proc.stdout, elapsed, trace


def run_pass(workload, seed, seconds=None, n_cases=None, traced=False):
    """Run cases until ``seconds`` pass or ``n_cases`` are done; returns the pass record."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import thickenings
    import thickenings.closed_forms as closed_module

    # Checks use the closed forms as loaded now, before any tracer wraps them.
    closed = SimpleNamespace(
        cumulative_length=closed_module.cumulative_length,
        layer_length_closed=closed_module.layer_length_closed,
    )
    cli = workload.startswith("cli")
    pin_to_one_cpu()
    tracer = None
    if traced and not cli:
        tracer = Tracer()
        tracer.install()
    merged: dict = {}
    subprocess_s = 0.0
    env = python_env()
    raw_ms, times_ms, failures = [], [], []
    source = cases(workload, seed)
    if n_cases is not None:
        source = itertools.islice(source, n_cases)
    start = perf_counter()
    references = [reference_seconds()]
    group_start, group_s = 0, 0.0  # the cases since the last reference

    def close_group():
        references.append(reference_seconds())
        before, after = references[-2], references[-1]
        times_ms.extend(scaled_ms(raw / 1000.0, before, after) for raw in raw_ms[group_start:])

    for case in source:
        if cli:
            code, out, elapsed, trace = run_cli(list(case), traced, env)
            reason = check_cli(list(case), code, out, closed)
            if traced:
                if trace is None:
                    reason = reason or "traced CLI wrote no trace"
                else:
                    merge(merged, trace)
                    subprocess_s += elapsed
        else:
            _, m, t = case
            case_start = perf_counter()
            try:
                value = thickenings.cumulative_length_via_decomposition(m, t)
            except Exception as exc:  # a raising case is a failed case, not a crash
                elapsed = perf_counter() - case_start
                reason = f"raised {exc!r}"
            else:
                elapsed = perf_counter() - case_start
                reason = check_decomp(value, m, t, closed)
        raw_ms.append(elapsed * 1000.0)
        group_s += elapsed
        if group_s >= REFERENCE_GAP_S:
            close_group()
            group_start, group_s = len(raw_ms), 0.0
        if reason is not None:
            failures.append(f"{list(case)}: {reason}")
        if seconds is not None and perf_counter() - start >= seconds:
            break
    if group_start < len(raw_ms):
        close_group()
    # Wall time of the cases and checks, without the reference runs.
    wall_s = perf_counter() - start - sum(references)
    if tracer is not None:
        tracer.uninstall()
        merged = tracer.snapshot()
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    record = {
        "workload": workload,
        "seed": seed,
        "attempted": len(times_ms),
        "failures": failures,
        "times_ms": times_ms,
        "raw_times_ms": raw_ms,
        "reference_ms": [r * 1000.0 for r in references],
        "wall_s": wall_s,
        # The reference interpreters are children too, but smaller than any CLI case.
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if traced:
        record["trace"] = merged
        # Time outside every span: the loop and checks in this process, and,
        # for CLI cases, each subprocess's start-up, imports and exit.
        record["process_s"] = subprocess_s - merged.get("spanned_s", 0.0) if cli else 0.0
        record["bench_s"] = wall_s - (subprocess_s if cli else merged.get("spanned_s", 0.0))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--seconds", type=float)
    group.add_argument("--cases", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    record = run_pass(args.workload, args.seed, args.seconds, args.cases, args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
