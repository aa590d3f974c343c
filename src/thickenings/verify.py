"""Brute-force verification suites, shared by the CLI and the test suite.

Each suite replays one family of claims on a bounded grid and reports a
case count plus any failures. All but ``catalan`` compare against a second,
independent route; ``catalan`` compares two rewritings of one closed form.
``SUITES`` gives each suite's bounds with their defaults, ``BOUNDS`` each
bound's range; ``run`` and every suite check against ``BOUNDS``, so library
calls are capped as the CLI is. In the package a new suite is one row plus
its function; the benchmark's tracer keeps its own list of suites
(``bench/tracer.py`` ``VERIFY_SUITES``), which must name it too.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

from .closed_forms import (
    asymptotic_multiplicity,
    binom,
    catalan,
    check_integer,
    cumulative_length,
    identity_lhs,
    identity_rhs,
    layer_length_closed,
)
from .filtration import cumulative_length_via_decomposition, filtration_indices, layer_summands
from .partitions import Partition
from .schur import schur_dim, ssyt_count, weyl_dim

# Suite name, in the order ``run("all")`` runs them -> the bounds its
# ``verify_<name>`` function reads, each with its default.
SUITES = {
    "schur": {},
    "zset": {"max_t": 20},
    "decomposition": {"max_m": 8, "max_t": 12},
    "identities": {"max_b": 40},
    "catalan": {"max_m": 20},
}

# Keyword of ``run`` -> (least, largest). The largest values come from a
# budget of one minute for ``run("all")`` with every bound at its largest, on
# one core: about 18 s for decomposition at (max_m, max_t) = (200, 100), 12 s
# for identities at max_b = 400, and well under a second for zset and
# catalan. A core slowed by other load can take twice that.
BOUNDS = {
    "max_m": (3, 200),
    "max_t": (1, 100),
    "max_b": (0, 400),
}


def _check_bound(name: str, value: object) -> None:
    check_integer(name, value, *BOUNDS[name])


class SuiteResult:
    """The case count and failure details of one suite run, filled by ``check``."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.cases = 0
        self.failures: list[str] = []

    @property
    def passed(self) -> bool:
        """True when at least one case ran and none failed."""
        return self.cases > 0 and not self.failures

    def check(self, ok: bool, detail: str) -> None:
        self.cases += 1
        if not ok:
            self.failures.append(detail)


def verify_schur() -> SuiteResult:
    """Weyl product against tableau counting, plus power closed forms.

    The grid is fixed, so that it pins the golden ``verify-all`` row's 426
    cases; CI's tableau step checks the oracle past it. Its 53 shapes, the
    weakly decreasing 4-tuples with sum at most 8, are enumerated as
    ``filtration_indices`` enumerates its candidates, on C^1 to C^6.
    """
    max_size, max_rows, max_dim = 8, 4, 6
    res = SuiteResult("schur")
    shapes = [
        Partition(z)
        for z in combinations_with_replacement(range(max_size, -1, -1), max_rows)
        if sum(z) <= max_size
    ]
    for shape in shapes:
        for n in range(1, max_dim + 1):
            res.check(
                schur_dim(shape, n) == ssyt_count(shape, n),
                f"weyl/ssyt mismatch for {shape!r} on C^{n}",
            )
    for k in range(max_size + 1):
        row = Partition([k])
        column = Partition([1] * k)
        for n in range(1, max_dim + 1):
            res.check(
                schur_dim(row, n) == binom(n + k - 1, k),
                f"symmetric power mismatch at k={k}, n={n}",
            )
            res.check(
                schur_dim(column, n) == binom(n, k),
                f"exterior power mismatch at k={k}, n={n}",
            )
    return res


def verify_zset(max_t: int) -> SuiteResult:
    """General filtration-index search against the n = 2 characterization.

    ``filtration_indices`` stores each index set, so this compares the search
    itself only for the values of t that no earlier call in the process
    asked for; a fresh ``thickenings verify`` process runs the search for
    every t it checks.
    """
    _check_bound("max_t", max_t)
    res = SuiteResult("zset")
    for t in range(1, max_t + 1):
        expected = {((z, z), 1) for z in range(t)}
        res.check(
            filtration_indices(2, 2, t) == expected,
            f"filtration index set differs from ((z, z), 1), z < t at t={t}",
        )
    return res


def verify_decomposition(max_m: int, max_t: int) -> SuiteResult:
    """Weight-by-weight layer sums against the closed forms.

    Per m: a case for each t's layer, one for the cumulative route at max_t,
    and one for the layer lengths telescoping at every t up to max_t.
    """
    _check_bound("max_m", max_m)
    _check_bound("max_t", max_t)
    res = SuiteResult("decomposition")
    for m in range(3, max_m + 1):
        running, untelescoped_at = 0, None
        for t in range(1, max_t + 1):
            summands = layer_summands(m, t)
            layer = layer_length_closed(m, t)
            running += layer
            if untelescoped_at is None and running != cumulative_length(m, t):
                untelescoped_at = t
            ok = sum(s.dim for s in summands) == layer
            for s in summands:
                e = s.epsilon
                term = (e + 1) ** 2 * binom(m + t - 3, m - 2) * binom(m + t - 4 - e, t - e - 2)
                ok = ok and term == (m - 1) * s.dim
                ok = ok and weyl_dim(s.gl2_weight, 2) == e + 1
            res.check(ok, f"layer decomposition mismatch at m={m}, t={t}")
        res.check(
            cumulative_length_via_decomposition(m, max_t) == cumulative_length(m, max_t),
            f"cumulative decomposition mismatch at m={m}, t={max_t}",
        )
        res.check(
            untelescoped_at is None,
            f"layer sums do not telescope at m={m}, t={untelescoped_at}",
        )
    return res


def verify_identities(max_b: int) -> SuiteResult:
    """Square-weighted binomial identity on the full 0 <= a <= b grid."""
    _check_bound("max_b", max_b)
    res = SuiteResult("identities")
    for b in range(max_b + 1):
        for a in range(b + 1):
            res.check(identity_lhs(a, b) == identity_rhs(a, b), f"identity fails at a={a}, b={b}")
    return res


def verify_catalan(max_m: int) -> SuiteResult:
    """(2m)! times the asymptotic multiplicity equals the m-th Catalan number.

    Both sides rewrite one closed form; the long route is not run. The suite
    stays until a ``certify`` suite replaces it, because ``bench/`` lists it.
    """
    _check_bound("max_m", max_m)
    res = SuiteResult("catalan")
    for m in range(3, max_m + 1):
        res.check(
            math.factorial(2 * m) * asymptotic_multiplicity(m) == catalan(m),
            f"Catalan identity fails at m={m}",
        )
    return res


def run(suite: str, **bounds: int | None) -> list[SuiteResult]:
    """Run one named suite, or all of them, with optional bound overrides.

    Each keyword names a bound in ``BOUNDS``; every bound given is checked
    first, read or not. Each suite is looked up as ``verify_<name>`` at call
    time, so a wrapper installed over it runs, and gets the bounds its
    ``SUITES`` row reads, a bound left as None taking the row's default.
    """
    if unknown := sorted(bounds.keys() - BOUNDS):
        raise TypeError(f"run() got unknown bounds {unknown}; the bounds are {list(BOUNDS)}")
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    given = {b: v for b, v in bounds.items() if v is not None}
    for name, value in given.items():
        _check_bound(name, value)
    return [
        globals()[f"verify_{name}"](**{b: given.get(b, d) for b, d in SUITES[name].items()})
        for name in (SUITES if suite == "all" else (suite,))
    ]
