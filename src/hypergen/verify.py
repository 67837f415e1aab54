"""Exhaustive grid verification of the closed-form paths against the oracle.

For every parameter triple ``0 <= K <= N <= n_max``, ``0 <= n <= N`` the
grid check compares, with zero tolerance:

* the branch-expanded PGF coefficients against the enumerated ones;
* the direct branch evaluation and every admitted rewrite branch against
  the enumerated polynomial at the sample arguments in :data:`SAMPLE_Z`;
* factorial moments of order ``1 .. min(n, K) + 1`` against the literal
  sums;
* the complement identity relating ``(N, K, n)`` to ``(N, N-K, N-n)``.

Failures are data, not exceptions: the result is a
:class:`VerificationReport` whose JSON shape is
``{"n_checked": int, "n_failed": int, "failures": [{"N", "K", "n",
"check", "detail"}, ...]}`` with the recorded failure list capped at
:data:`MAX_RECORDED_FAILURES` entries (counts are never truncated).
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import distribution, moments, oracle
from .core import DomainError, HypergeomParams
from .distribution import COROLLARY_TAGS, CANONICAL_TAG_ORDER

#: Exact evaluation points used by the grid check.  A polynomial of degree
#: d is pinned down by d+1 distinct points; six rationals spanning negative,
#: fractional, unit, and >1 arguments are redundant on top of the
#: coefficient comparison, by design.
SAMPLE_Z = (
    Fraction(-2),
    Fraction(-1, 2),
    Fraction(1, 3),
    Fraction(1),
    Fraction(2),
    Fraction(7, 5),
)

#: Cap on failure entries carried in a report (counts are still exact).
MAX_RECORDED_FAILURES = 25


@dataclass(frozen=True)
class CheckFailure:
    N: int
    K: int
    n: int
    check: str
    detail: str


@dataclass
class VerificationReport:
    """Outcome of a grid run: triple counts plus the first recorded failures."""

    n_checked: int
    n_failed: int
    failures: list[CheckFailure] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_checked": self.n_checked,
            "n_failed": self.n_failed,
            "failures": [asdict(f) for f in self.failures],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        return cls(
            n_checked=data["n_checked"],
            n_failed=data["n_failed"],
            failures=[CheckFailure(**f) for f in data["failures"]],
        )

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        return cls.from_dict(json.loads(text))


def check_triple(p: HypergeomParams) -> list[CheckFailure]:
    """Run every grid check for one parameter triple; failures come back as data."""
    failures: list[CheckFailure] = []

    def fail(check: str, detail: str) -> None:
        failures.append(CheckFailure(p.N, p.K, p.n, check, detail))

    truth = oracle.oracle_pgf(p, bound=p.N)

    got = distribution.pgf_polynomial(p)
    if got.coeffs != truth.coeffs:
        fail("pgf_coefficients", f"expected {truth.coeffs}, got {got.coeffs}")

    # Each branch's parts are built once and evaluated by the same exact
    # arithmetic that pgf_eval and pgf_eval_branch run.
    admitted = distribution.classify_regions(p)
    direct_parts = distribution._branch_parts(p, distribution.canonical_branch(p))
    rewrites = [
        (tag, distribution._branch_parts(p, tag))
        for tag in CANONICAL_TAG_ORDER
        if tag in COROLLARY_TAGS and tag in admitted
    ]
    for z in SAMPLE_Z:
        want = truth(z)
        direct = distribution._eval_parts(direct_parts, z)
        if direct != want:
            fail("pgf_eval", f"z={z}: expected {want}, got {direct}")
        for tag, parts in rewrites:
            value = distribution._eval_parts(parts, z)
            if value != want:
                fail("corollary_branch", f"{tag.value} at z={z}: expected {want}, got {value}")

    for r in range(1, min(p.n, p.K) + 2):
        want = oracle.oracle_factorial_moment(p, r, bound=p.N)
        got_fm = moments.factorial_moment(p, r)
        if got_fm != want:
            fail("factorial_moment", f"r={r}: expected {want}, got {got_fm}")

    if p.n >= p.N - p.K:
        shift = p.n + p.K - p.N
        partner = HypergeomParams(p.N, p.N - p.K, p.N - p.n)
        theirs = distribution.pgf_polynomial(partner)
        for k in range(len(got.coeffs)):
            lhs = got.coefficient(k)
            rhs = theirs.coefficient(k - shift) if k >= shift else Fraction(0)
            if lhs != rhs:
                fail(
                    "complement_identity",
                    f"coefficient {k}: {lhs} != shifted complement {rhs}",
                )
                break

    return failures


def _check_population(N: int) -> tuple[int, int, list[CheckFailure]]:
    """Check all (K, n) pairs for one population size N."""
    checked = 0
    failed = 0
    failures: list[CheckFailure] = []
    for K in range(N + 1):
        for n in range(N + 1):
            checked += 1
            bad = check_triple(HypergeomParams(N, K, n))
            if bad:
                failed += 1
                failures.extend(bad)
    return checked, failed, failures


def oracle_grid_check(n_max: int, *, bound: int | None = None, jobs: int = 1) -> VerificationReport:
    """Run the full grid up to ``n_max`` and aggregate a deterministic report.

    ``jobs > 1`` spreads population sizes over worker processes, largest
    first; the aggregation order is fixed by N, so the report does not
    depend on ``jobs`` or on scheduling.
    """
    n_max = operator.index(n_max)
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1 (got {n_max})")
    jobs = operator.index(jobs)
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1 (got {jobs})")
    limit = oracle._effective_bound(bound)
    if n_max > limit:
        raise oracle.BoundExceeded(
            f"n_max={n_max} exceeds the oracle bound {limit} "
            "(raise it explicitly if this is intentional)"
        )

    if jobs == 1:
        results = [_check_population(N) for N in range(n_max + 1)]
    else:
        # Imported here: the process pool costs every importer of the
        # package startup time and memory, and only jobs > 1 uses it.
        from concurrent.futures import ProcessPoolExecutor

        # Largest population first, so no worker is left with a big N at
        # the end; the results are put back in N order.
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_check_population, range(n_max, -1, -1)))[::-1]

    n_checked = sum(r[0] for r in results)
    n_failed = sum(r[1] for r in results)
    failures: list[CheckFailure] = []
    for _, _, chunk in results:
        for failure in chunk:
            if len(failures) >= MAX_RECORDED_FAILURES:
                break
            failures.append(failure)
    return VerificationReport(n_checked=n_checked, n_failed=n_failed, failures=failures)
