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
    ("schur.py", "for e in range(d, d + q):", "for e in range(d + 1, d + q):", "weyl_dim: a run's factors start one entry late"),
    ("schur.py", "for e in range(d, d + q):", "for e in range(d, d + q - 1):", "weyl_dim: a run's last factor dropped"),
    ("schur.py", "num *= comb(c + e, p)", "num *= comb(c + e, q)", "weyl_dim: numerator uses the later run's length"),
    ("schur.py", "if j0 + 1 < n and w[j0 + 1] == y", "if w[j0 + 1] == y", "weyl_dim: run test reads past the last entry"),
    ("schur.py", "w[j0 + 1] == y else 1", "w[j0 + 1] != y else 1", "weyl_dim: run test inverted"),
    ("schur.py", "range(lo, hi + 1)", "range(0, hi + 1)", "ssyt_count: a strip reaches below the next row, so columns only weakly increase"),
    ("schur.py", "free = min(k - 1, len(p))", "free = min(k - 1, len(p) - 1)", "ssyt_count: the last row's boxes all hold n"),
    ("schur.py", "for k in range(n, 0, -1):", "for k in range(n - 1, 0, -1):", "ssyt_count: entries only up to n - 1"),
    ("schur.py", "weyl_dim(weight_m, len(weight_m)) * weyl_dim", "weyl_dim(weight_m, len(weight_m)) + weyl_dim", "tensor_pair_dim: factors summed"),
    ("closed_forms.py", "m + 1, f\"cumulative length", "m + 2, f\"cumulative length", "cumulative_length: divisor m + 2"),
    ("closed_forms.py", "    if r:\n", "    if False:\n", "exact_quotient: a remainder passes silently"),
    ("closed_forms.py", "if isinstance(value, bool) or not", "if not", "check_integer: a bool passes as an integer"),
    ("closed_forms.py", "for e in range(1, b - a + 1))", "for e in range(1, b - a + (a > 0)))", "identity_lhs: the last term dropped at a = 0"),
    ("closed_forms.py", "binom(b + 1, a + 3)\n", "binom(b + 1, a + 3) + (b > 60)\n", "identity_rhs: wrong for b > 60"),
    ("filtration.py", "range(t - 1, -1, -1)", "range(t - 2, -1, -1)", "filtration search: the top z dropped"),
    ("filtration.py", "range(t - 1, -1, -1)", "range(t - 1, 0, -1)", "filtration search: z = 0 dropped"),
    ("filtration.py", "lower <= minor_size * t <= upper", "lower <= minor_size * t < upper", "filtration search: strict upper bound"),
    ("filtration.py", "def filtration_indices(", "@cache\ndef filtration_indices(", "filtration_indices: store read before the argument checks"),
    ("filtration.py", "range(lam2, -m + 1)", "range(lam2, -m)", "contributing_weights: the last weight dropped"),
    ("filtration.py", "(w[0] + m - 2, w[1] + m - 2)", "(w[0] + m - 3, w[1] + m - 3)", "paired_weight: shift m - 3"),
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
    ("cli.py", "\"match\": total == closed,", "\"match\": True,", "decompose --json: a mismatch reported as a match"),
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
    (
        "schur.py",
        "free = min(k - 1, len(p))",
        "free = min(k, len(p))",
        "a strip lowers the row count by at most one, so a nu of k rows never empties in the k - 1 levels left; the cap only prunes",
    ),
    ("schur.py", "return counts[empty]", "return sum(counts.values())", "level 1 keeps no row, so the empty shape is the only state left"),
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
