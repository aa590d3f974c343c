"""Brute-force verification suites, shared by the CLI and the test suite.

Each suite replays one family of claims on a bounded grid and reports a
case count plus any failures; nothing here trusts the code it checks, the
comparisons always run a second, independent route.
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
from .filtration import (
    FiltrationIndex,
    cumulative_length_via_decomposition,
    filtration_indices,
    layer_summands,
)
from .partitions import Partition
from .schur import schur_dim, ssyt_count, weyl_dim

# Suite name -> the bounds of ``run`` that it reads; ``schur`` reads none.
SUITE_BOUNDS = {
    "schur": (),
    "zset": ("max_t",),
    "decomposition": ("max_m", "max_t"),
    "identities": ("max_b",),
    "catalan": ("max_m",),
}
SUITE_NAMES = tuple(SUITE_BOUNDS)


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

    The grid is fixed, because the tableau count is exponential in the
    number of boxes: shapes of at most 8 boxes in at most 4 rows, on C^1 to
    C^6 (426 cases). The 53 shapes are enumerated as ``filtration_indices``
    enumerates its candidates: weakly decreasing 4-tuples with sum at most 8.
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
        row = Partition([k] if k else [])
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


def verify_zset(max_t: int = 20) -> SuiteResult:
    """General filtration-index search against the n = 2 characterization."""
    check_integer("max_t", max_t, 1)
    res = SuiteResult("zset")
    for t in range(1, max_t + 1):
        expected = {FiltrationIndex((z, z), 1) for z in range(t)}
        res.check(
            filtration_indices(2, 2, t) == expected,
            f"filtration index set differs from ((z, z), 1), z < t at t={t}",
        )
    return res


def verify_decomposition(max_m: int = 8, max_t: int = 12) -> SuiteResult:
    """Weight-by-weight layer sums against the closed forms.

    Per m: a case for each t's layer, one for the cumulative route at max_t,
    and one for the layer lengths telescoping at every t up to max_t.
    """
    check_integer("max_m", max_m, 3)
    check_integer("max_t", max_t, 1)
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


def verify_identities(max_b: int = 40) -> SuiteResult:
    """Square-weighted binomial identity on the full 0 <= a <= b grid."""
    check_integer("max_b", max_b, 0)
    res = SuiteResult("identities")
    for b in range(max_b + 1):
        for a in range(b + 1):
            res.check(identity_lhs(a, b) == identity_rhs(a, b), f"identity fails at a={a}, b={b}")
    return res


def verify_catalan(max_m: int = 20) -> SuiteResult:
    """(2m)! times the asymptotic multiplicity equals the m-th Catalan number."""
    check_integer("max_m", max_m, 3)
    res = SuiteResult("catalan")
    for m in range(3, max_m + 1):
        res.check(
            math.factorial(2 * m) * asymptotic_multiplicity(m) == catalan(m),
            f"Catalan identity fails at m={m}",
        )
    return res


def run(
    suite: str,
    max_m: int | None = None,
    max_t: int | None = None,
    max_b: int | None = None,
) -> list[SuiteResult]:
    """Run one named suite, or all of them, with optional bound overrides.

    A bound left as None keeps the suite's default. Each suite is looked up
    as the module attribute ``verify_<name>`` at call time, so a wrapper
    installed over that attribute is the one that runs.
    """
    given = {"max_m": max_m, "max_t": max_t, "max_b": max_b}
    results = []
    for name in SUITE_NAMES if suite == "all" else (suite,):
        if name not in SUITE_BOUNDS:
            raise ValueError(f"unknown suite {name!r}")
        bounds = {b: given[b] for b in SUITE_BOUNDS[name] if given[b] is not None}
        results.append(globals()[f"verify_{name}"](**bounds))
    return results
