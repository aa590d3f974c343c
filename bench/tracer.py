"""Spans and counters around the public functions of each thickenings module.

The tracer lives outside the package: ``Tracer.install`` replaces each
wrapped function in every loaded ``thickenings`` module that holds it, so a
name imported into another module (``filtration`` imports
``tensor_pair_dim``; ``schur`` calls its own global ``weyl_dim``) is traced
where it is looked up. ``Partition.__init__`` and ``DominantWeight.__init__``
are wrapped on the class, so ``isinstance`` keeps working. CLI commands are
wrapped through their click callbacks. ``uninstall`` puts everything back.

A span's self time is its duration minus the time of the spans it called.
Counters are worked out from the arguments and results seen at the wrapper,
and the time spent working them out is kept apart (``trace.hooks_s``) so it
lands in no layer.

Run as a script, this module runs one ``thickenings`` CLI command under the
tracer and writes the trace as the last line of stderr, after ``TRACE_TAG``;
stdout stays exactly what the CLI prints:

    PYTHONPATH=src python3 bench/tracer.py length --m 3 --t 3 --json
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

TRACE_TAG = "BENCH-TRACE "

# Layer module -> public names wrapped as spans. For ``partitions`` the names
# are classes whose ``__init__`` is wrapped; for ``cli`` they are commands.
SPANS = {
    "partitions": ("Partition", "DominantWeight"),
    "schur": ("weyl_dim", "tensor_pair_dim", "schur_dim", "ssyt_count"),
    "filtration": (
        "filtration_indices",
        "contributing_weights",
        "paired_weight",
        "layer_summands",
        "cumulative_length_via_decomposition",
    ),
    "closed_forms": ("cumulative_length", "layer_length_closed"),
    "cohomology": ("local_cohomology_length",),
    "verify": ("run",),
    "cli": ("length", "table", "decompose", "verify"),
}

# Suites timed inside ``verify.run``; their time stays in its self time.
VERIFY_SUITES = ("schur", "zset", "decomposition", "identities", "catalan")

# Exact counters; the run fails if two traced passes over one case list differ.
COUNTERS = (
    "filtration.candidates",
    "filtration.kept",
    "filtration.weights",
    "schur.weyl_factors",
    "schur.weyl_unit_factors",
    "schur.ssyt_leaves",
)
MAX_BITS = ("schur.weyl_max_bits", "closed_forms.max_bits")


def span_names() -> list[str]:
    return [f"{module}.{name}" for module, names in SPANS.items() for name in names]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_filtration_indices(tr, args, kwargs, result):
    n = _arg(args, kwargs, 0, "n")
    minor_size = _arg(args, kwargs, 1, "minor_size")
    t = _arg(args, kwargs, 2, "t")
    # The search examines every level l < minor_size of every partition with
    # at most n parts, each at most t - 1: C(t - 1 + n, n) partitions.
    tr.counts["filtration.candidates"] += math.comb(t - 1 + n, n) * minor_size
    tr.counts["filtration.kept"] += len(result)


def _count_contributing_weights(tr, args, kwargs, result):
    tr.counts["filtration.weights"] += len(result)


def _count_weyl_dim(tr, args, kwargs, result):
    n = _arg(args, kwargs, 1, "n")
    # A pair of equal entries contributes a factor of exactly 1. The entries
    # of a valid weight are weakly decreasing, so equal ones sit in runs, and
    # the k-th repeat in a run pairs with the k entries before it.
    unit = repeat = 0
    previous = None
    for entry in _arg(args, kwargs, 0, "weight"):
        repeat = repeat + 1 if entry == previous else 0
        unit += repeat
        previous = entry
    tr.counts["schur.weyl_factors"] += n * (n - 1) // 2
    tr.counts["schur.weyl_unit_factors"] += unit
    tr.bump_bits("schur.weyl_max_bits", result)


def _count_ssyt(tr, args, kwargs, result):
    tr.counts["schur.ssyt_leaves"] += result


def _count_closed_form(tr, args, kwargs, result):
    tr.bump_bits("closed_forms.max_bits", result)


HOOKS = {
    "filtration.filtration_indices": _count_filtration_indices,
    "filtration.contributing_weights": _count_contributing_weights,
    "schur.weyl_dim": _count_weyl_dim,
    "schur.ssyt_count": _count_ssyt,
    "closed_forms.cumulative_length": _count_closed_form,
    "closed_forms.layer_length_closed": _count_closed_form,
}


class Tracer:
    """Aggregated spans and counters for one process."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.suite_s: dict[str, float] = defaultdict(float)
        self.hooks_s = 0.0
        # Child-time accumulators, one per open span. The bottom entry sums
        # the top-level spans, so it is the traced part of the process.
        self._stack = [0.0]
        self._undo: list = []

    @property
    def spanned_s(self) -> float:
        return self._stack[0]

    def bump_bits(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts[key], value.bit_length())

    def _span(self, name, fn):
        stack = self._stack
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                stack[-1] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - child
            if hook is not None:
                start = perf_counter()
                hook(self, args, kwargs, result)
                elapsed = perf_counter() - start
                stack[-1] += elapsed
                self.hooks_s += elapsed
            return result

        return wrapper

    def _suite_timer(self, suite, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            self.suite_s[suite] += perf_counter() - start
            self.counts[f"verify.{suite}.cases"] += result.cases
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed name in the thickenings modules loaded so far."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "thickenings" or name.startswith("thickenings."))
        }
        for layer, names in SPANS.items():
            mod = modules.get(f"thickenings.{layer}")
            if mod is None:
                continue
            for name in names:
                span = f"{layer}.{name}"
                if layer == "partitions":
                    cls = getattr(mod, name)
                    self._set(cls, "__init__", self._span(span, cls.__init__))
                elif layer == "cli":
                    command = mod.main.commands[name]
                    self._set(command, "callback", self._span(span, command.callback))
                else:
                    original = getattr(mod, name)
                    self._replace(modules, original, self._span(span, original))
        verify = modules.get("thickenings.verify")
        if verify is not None:
            for suite in VERIFY_SUITES:
                fn = getattr(verify, f"verify_{suite}")
                self._replace(modules, fn, self._suite_timer(suite, fn))

    def _replace(self, modules, original, wrapper) -> None:
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def snapshot(self) -> dict:
        """Plain-JSON view of everything recorded, for merging across processes."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "suite_s": dict(self.suite_s),
            "hooks_s": self.hooks_s,
            "spanned_s": self.spanned_s,
        }


def merge(total: dict, part: dict) -> None:
    """Add one snapshot into another; bit widths combine by maximum."""
    for key in ("calls", "self_s", "counts", "suite_s"):
        bucket = total.setdefault(key, {})
        for name, value in part[key].items():
            if name in MAX_BITS:
                bucket[name] = max(bucket.get(name, 0), value)
            else:
                bucket[name] = bucket.get(name, 0) + value
    for key in ("hooks_s", "spanned_s"):
        total[key] = total.get(key, 0.0) + part[key]


def _run_cli(argv: list[str]) -> int:
    import thickenings.cli

    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        thickenings.cli.main.main(args=argv, prog_name="thickenings")
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        print(TRACE_TAG + json.dumps(tracer.snapshot()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(_run_cli(sys.argv[1:]))
