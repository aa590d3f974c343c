"""The mutation catalogue: faults in ``src/`` that the tier-1 tests must catch.

    python tests/mutants.py

Each row of ``MUTANTS`` is (file in ``src/thickenings``, old text, new text,
what the new text breaks); the old text must occur exactly once in its file.
For each row the script copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory, applies the row, and runs
``python -m pytest -q -x -p no:cacheprovider`` there with that copy's
``src`` first on ``PYTHONPATH``. A mutant whose run passes has survived:
the script names it and exits 1. The unmutated copy runs first and must
pass, so that a copy that cannot run does not count every mutant as caught.

``EQUIVALENT`` lists faults no test can catch, each with the reason; they
are not run, but each must still apply, so rewriting their code updates the
list. A new check adds a row here rather than a line of prose about a
hand-run mutant. Pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    ("schur.py", "num *= c + d", "num *= c + d + 1", "weyl_dim: a one-entry block's factor one too large"),
    ("schur.py", "for e in range(d, d + q):", "for e in range(d + 1, d + q):", "weyl_dim: a run's factors start one entry late"),
    ("schur.py", "for e in range(d, d + q):", "for e in range(d, d + q - 1):", "weyl_dim: a run's last factor dropped"),
    ("schur.py", "num *= comb(c + e, p)", "num *= comb(c + e, q)", "weyl_dim: numerator uses the later run's length"),
    ("schur.py", "if j0 + 1 < n and w[j0 + 1] == y", "if w[j0 + 1] == y", "weyl_dim: run test reads past the last entry"),
    ("schur.py", "w[j0 + 1] == y else 1", "w[j0 + 1] != y else 1", "weyl_dim: run test inverted"),
    ("schur.py", "min(cap, top, lo + spare)", "min(cap, lo + spare)", "ssyt_levels: a strip reaches past the old row above it, so columns only weakly increase"),
    ("schur.py", "tops = bound[:1] + mu[:-1]", "tops = bound[:2] + mu[1:-1]", "ssyt_levels: a strip of 1's allowed into row 1, under an empty row 0"),
    ("schur.py", "for _ in range(n):", "for _ in range(n - 1):", "ssyt_levels: levels stop at n - 1"),
    ("schur.py", "if sum(head) <= size:", "if True:", "ssyt_levels: a level keeps shapes of more than size boxes"),
    (
        "schur.py",
        "    check_integer(\"n\", n, 1)\n    if len(p) > n:\n        return 0\n    for counts",
        "    if len(p) > n:\n        return 0\n    for counts",
        "ssyt_count: n unchecked, and the strip pass it reads checks nothing",
    ),
    ("schur.py", "w[0] - w[1] + 1 if", "w[0] - w[1] if", "weyl_dim: the GL_2 value one too small"),
    ("schur.py", "if n == 2 else 1", "if n == 2 else 0", "weyl_dim: the GL_1 value 0"),
    (
        "schur.py",
        "    w = _as_weight(weight)\n",
        "    w = _as_weight(weight)\n    if n < 3:\n        return w[0] - w[1] + 1 if n == 2 else 1\n",
        "weyl_dim: the GL_1/GL_2 base case taken before the n and length checks",
    ),
    ("schur.py", "weyl_dim(weight_m, len(weight_m)) * weyl_dim", "weyl_dim(weight_m, len(weight_m)) + weyl_dim", "tensor_pair_dim: factors summed"),
    ("closed_forms.py", "m + 1, f\"cumulative length", "m + 2, f\"cumulative length", "cumulative_length: divisor m + 2"),
    ("closed_forms.py", "    if r:\n", "    if False:\n", "exact_quotient: a remainder passes silently"),
    ("closed_forms.py", "(isinstance(value, bool) or not", "(not", "check_integer: a bool passes as an integer"),
    ("closed_forms.py", "type(value) is not int and", "not isinstance(value, int) and", "check_integer: a bool skips the type tests"),
    ("closed_forms.py", "or not isinstance(value, int))", "or True)", "check_integer: an int subclass other than bool refused"),
    ("closed_forms.py", "for e in range(1, b - a + 1))", "for e in range(1, b - a + (a > 0)))", "identity_lhs: the last term dropped at a = 0"),
    ("closed_forms.py", "binom(b + 1, a + 3)\n", "binom(b + 1, a + 3) + (b > 60)\n", "identity_rhs: wrong for b > 60"),
    ("filtration.py", "range(t - 1, -1, -1)", "range(t - 2, -1, -1)", "filtration search: the top z dropped"),
    ("filtration.py", "range(t - 1, -1, -1)", "range(t - 1, 0, -1)", "filtration search: z = 0 dropped"),
    ("filtration.py", "range(t - 1, -1, -1)", "range(t + 1, -1, -1)", "filtration search: the same set from more candidates than its docstring states"),
    ("filtration.py", "(t - z[0]) * l + 1", "(t - z[1]) * l + 1", "filtration search: a one-entry z indexed past its end"),
    ("filtration.py", "lower <= minor_size * t <= upper", "lower <= minor_size * t < upper", "filtration search: strict upper bound"),
    ("filtration.py", "def filtration_indices(", "@cache\ndef filtration_indices(", "filtration_indices: store read before the argument checks"),
    ("filtration.py", "range(lam2, -m + 1)", "range(lam2, -m)", "contributing_weights: the last weight dropped"),
    ("filtration.py", "(w0 + m - 2, w1 + m - 2)", "(w0 + m - 3, w1 + m - 3)", "_paired: shift m - 3"),
    ("filtration.py", "(-2,) * (m - 2)", "(-2,) * (m - 3)", "_paired: pad one -2 short"),
    ("filtration.py", "if l != 1 or z1 != z2:", "if False:", "decomposition route: index shape re-check removed"),
    ("verify.py", "return self.cases > 0 and not self.failures", "return not self.failures", "SuiteResult.passed: a zero-case suite passes"),
    ("verify.py", "self.cases += 1", "self.cases += 0", "SuiteResult.check: cases not counted"),
    ("verify.py", "if suite != \"all\" and suite not in SUITES:", "if False:", "run: an unknown suite reaches SUITES as a KeyError"),
    ("verify.py", "if unknown := sorted(bounds.keys() - BOUNDS):", "if unknown := []:", "run: an unknown bound name reaches BOUNDS as a KeyError"),
    ("verify.py", "    for name, value in given.items():\n        _check_bound(name, value)\n", "", "run: a bound no suite reads goes unchecked"),
    ("verify.py", "\"max_m\": (3, 200),", "\"max_m\": (3, 199),", "BOUNDS: largest max_m one lower"),
    ("verify.py", "\"max_b\": (0, 400),", "\"max_b\": (0, 401),", "BOUNDS: largest max_b one higher"),
    ("verify.py", "\"zset\": {\"max_t\": 20},", "\"zset\": {\"max_t\": 19},", "SUITES: zset's default max_t one lower"),
    ("cli.py", "marker = \"match\" if total == closed else \"MISMATCH\"", "marker = \"match\"", "decompose: a mismatch printed as [match]"),
    ("cli.py", "\"match\": total == closed}", "\"match\": True}", "decompose --json: a mismatch reported as a match"),
    ("cli.py", "len(result.failures) - 5} more", "len(result.failures) - 4} more", "verify: wrong '... and N more' count"),
    ("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())", "pass", "closed pipe: stdout not switched to devnull"),
    ("cli.py", "target = os.path.realpath(path)", "target = path", "table --out: a symlink replaced, not its target"),
    (
        "cli.py",
        "        while batch := list(islice(pieces, 1024)):\n            sys.stdout.write(\"\".join(batch))\n",
        "        sys.stdout.write(\"\".join(pieces))\n",
        "table: stdout in one write, so an unbuffered closed pipe exits 0",
    ),
    ("cli.py", "chain([head, next(items)],", "chain([head],", "table: the first JSON row gets a separator"),
    ("cli.py", "import os\nimport sys\n", "import json\nimport os\nimport sys\n", "cli: json imported at start-up again"),
    ("cli.py", "import os\nimport sys\n", "import argparse\nimport os\nimport sys\n", "cli: argparse imported at start-up again"),
    ("cli.py", "if missing := [flag", "if missing := [] and [flag", "_parse: a missing required flag reaches the command as None"),
    ("cli.py", "value = spec.get(\"type\", str)(value)", "value = value", "_parse: a value reaches the command as a string, not an int"),
    ("cli.py", "if value not in spec.get(\"choices\", [value]):", "if False:", "_parse: a value outside choices accepted"),
    ("cli.py", "raise ValueError(f\"unrecognized arguments: {word}\")", "continue", "_parse: an unknown flag or stray word ignored"),
    ("cli.py", " or value.startswith(\"--\")", "", "_parse: a flag taken as the value of the flag before it"),
    ("cli.py", "    sys.exit(0)\n", "", "--help: help printed, then the run goes on"),
    ("cli.py", "\"value\": \"{value}\"", "\"value\": {value}", "length --json: the finite value printed as a number, not a string"),
    (
        "cli.py",
        "        except BrokenPipeError:\n"
        "            # Point stdout at devnull, so the flush at exit cannot fail again.\n"
        "            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())\n"
        "            sys.exit(1)\n"
        "        except Exception as exc:\n"
        "            print(f\"Error: {exc}\", file=sys.stderr)\n"
        "            sys.exit(1)\n",
        "        except Exception as exc:\n"
        "            print(f\"Error: {exc}\", file=sys.stderr)\n"
        "            sys.exit(1)\n"
        "        except BrokenPipeError:\n"
        "            sys.exit(1)\n",
        "main: the catch-all handler above the closed-pipe one",
    ),
]

EQUIVALENT = [
    ("schur.py", "if q == 1:", "if False:", "the loop over one later entry multiplies the same factor; the branch only saves time"),
    ("schur.py", "if p == 1:", "if False:", "C(c + d, 1) = c + d and C(d, 1) = d; the branch only saves time"),
    ("schur.py", "if n < 3:", "if n < 2:", "the run loop gives w0 - w1 + 1 for n = 2; the base case only saves time"),
    ("schur.py", "lo + spare) + 1)", "lo + spare + 1) + 1)", "the size test drops every shape the wider range adds; the cap only prunes"),
    (
        "verify.py",
        "ssyt_levels((max_size,) * max_rows, max_size, max_dim)",
        "ssyt_levels((max_size,) * max_rows, max_size + 1, max_dim)",
        "a raised size cap changes no count, because counts only flow to larger shapes; the suite reads only its own 53",
    ),
    ("schur.py", "if j0 + 1 < n and", "if j0 + 2 < n and", "a final run of two splits into two one-entry runs, whose block is (0 + 1) / 1"),
    ("schur.py", "spare = size - sum(mu)", "spare = size + sum(mu)", "the size test drops whatever the looser cap lets in"),
    ("closed_forms.py", "for e in range(1, b - a + 1))", "for e in range(1, b - a + 2))", "every added term has b - e < a, so its binomial is 0"),
    ("closed_forms.py", "for e in range(1, b - a + 1))", "for e in range(1, b + a + 1))", "every added term has b - e < a, so its binomial is 0"),
    ("partitions.py", "if self and self[-1] < 0:", "if self and self[-1] <= 0:", "trailing zeros are stripped first, so the last part is never 0"),
    ("partitions.py", "if self and self[-1] < 0:", "if self and self[-1] < 1:", "trailing zeros are stripped first, so the last part is never 0"),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def apply(tree: Path, file: str, old: str, new: str) -> None:
    path = tree / "src" / "thickenings" / file
    text = path.read_text()
    if text.count(old) != 1:
        sys.exit(f"{file}: {old!r} occurs {text.count(old)} times, not once")
    path.write_text(text.replace(old, new))


def run_tests(tree: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        for file, old, _, _ in EQUIVALENT:
            apply(clean, file, old, old)  # only checks that the row still applies
        proc = run_tests(clean)
        if proc.returncode:
            print(proc.stdout[-2000:] + proc.stderr[-2000:])
            print("the unmutated copy fails its tests; no mutant was run")
            return 1
        survived = 0
        for i, (file, old, new, breaks) in enumerate(MUTANTS):
            tree = Path(tmp) / str(i)
            copy_tree(tree)
            apply(tree, file, old, new)
            caught = run_tests(tree).returncode != 0
            print(f"{'caught  ' if caught else 'SURVIVED'} {file}: {breaks}", flush=True)
            survived += not caught
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants caught in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
