"""PMF, branch-complete generating functions, and region classification.

The probability-generating function G_X(z) = E[z^X] of the hypergeometric
distribution has two closed-form branches:

* lower branch (``ThmA``), valid for ``n <= N-K``::

    G(z) = (N-n)! (N-K)! / (N! (N-K-n)!) * 2F1(-n, -K; N-K-n+1; z)

* upper branch (``ThmB``), valid for ``n >= N-K``::

    G(z) = n! K! / (N! (n+K-N)!) * z^(n+K-N) * 2F1(n-N, K-N; n+K-N+1; z)

The classical textbook expression is the lower branch alone; its prefactor
and hypergeometric factor both blow up once ``n >= N-K+1``, leaving an
indeterminate inf/inf that :func:`legacy_pgf_prefactor` reports as a typed
error.  Four further rewrites (``Cor1a``..``Cor2b``) expose the sampling
symmetry between drawing ``n`` balls and leaving ``N-n`` behind; their
validity regions on the (n, K) grid overlap, and wherever two formulas are
both defined they agree exactly.

Everything generating-function-shaped funnels through the exact coefficient
polynomial; the MGF/CF/CGF evaluate that one source of truth at a floating
point.
"""

from __future__ import annotations

import cmath
import math
import operator
from enum import Enum
from fractions import Fraction
from math import comb, factorial

from .core import DomainError, HypergenError, HypergeomParams, PgfPolynomial, as_rational, binomial
from .hyp2f1 import Terminating2F1, _horner_pair, eval_terminating_2f1, scaled_terms


class IndeterminateLegacyFormula(HypergenError):
    """The classical one-branch PGF prefactor has no value for these parameters.

    For ``n >= N-K+1`` the factor ``(N-K-n)!`` is a factorial of a negative
    integer and the companion hypergeometric factor has a nonpositive lower
    parameter; the expression is inf/inf rather than a number.
    """


class BranchTag(Enum):
    """Which closed-form expression of the PGF a parameter point admits."""

    THM_A = "ThmA"
    THM_B = "ThmB"
    COR_1A = "Cor1a"
    COR_1B = "Cor1b"
    COR_2A = "Cor2a"
    COR_2B = "Cor2b"


#: Stable presentation order for branch tags (CLI output, reports).
CANONICAL_TAG_ORDER = (
    BranchTag.THM_A,
    BranchTag.THM_B,
    BranchTag.COR_1A,
    BranchTag.COR_1B,
    BranchTag.COR_2A,
    BranchTag.COR_2B,
)

THEOREM_TAGS = frozenset({BranchTag.THM_A, BranchTag.THM_B})
COROLLARY_TAGS = frozenset(
    {BranchTag.COR_1A, BranchTag.COR_1B, BranchTag.COR_2A, BranchTag.COR_2B}
)


def pmf(p: HypergeomParams, k: int) -> Fraction:
    """P(X = k) = C(K,k) C(N-K,n-k) / C(N,n); exactly 0 outside the support."""
    k = operator.index(k)
    return Fraction(
        binomial(p.K, k) * binomial(p.N - p.K, p.n - k),
        binomial(p.N, p.n),
    )


def classify_regions(p: HypergeomParams) -> set[BranchTag]:
    """All branch tags whose validity region contains ``(n, K)``.

    Regions meet at the boundaries: the two main branches overlap on the
    descending diagonal ``n = N-K``, the two inverse-argument rewrites on
    the ascending diagonal ``n = K``, and for even ``N`` the center point
    ``n = K = N/2`` lies in all four rewrite regions at once.
    """
    tags: set[BranchTag] = set()
    if p.n <= p.N - p.K:
        tags |= {BranchTag.THM_A, BranchTag.COR_1A}
    if p.n >= p.N - p.K:
        tags |= {BranchTag.THM_B, BranchTag.COR_2B}
    if p.n >= p.K:
        tags.add(BranchTag.COR_1B)
    if p.n <= p.K:
        tags.add(BranchTag.COR_2A)
    return tags


def canonical_branch(p: HypergeomParams) -> BranchTag:
    """The branch the package computes through: ThmA when valid, ThmB otherwise."""
    return BranchTag.THM_A if p.n <= p.N - p.K else BranchTag.THM_B


def _branch_parts(
    p: HypergeomParams, which: BranchTag
) -> tuple[Fraction, int, Terminating2F1, bool]:
    """(prefactor, z-power, series, inverted) for a branch assumed admissible.

    ``inverted`` marks the two rewrites whose series argument is 1/z.  Each
    prefactor is the paper's four-factorial ratio written as a ratio of two
    binomials, e.g. ``(N-n)! (N-K)! / (N! (N-K-n)!) = C(N-K, n) / C(N, n)``
    for ThmA, which is far cheaper to build at large ``N``.
    """
    N, K, n = p.N, p.K, p.n
    if which is BranchTag.THM_A or which is BranchTag.COR_1A:
        pref = Fraction(comb(N - K, n), comb(N, n))
        return pref, 0, Terminating2F1(-n, -K, N - K - n + 1), False
    if which is BranchTag.THM_B or which is BranchTag.COR_2B:
        pref = Fraction(comb(K, n + K - N), comb(N, n))
        return pref, n + K - N, Terminating2F1(n - N, K - N, n + K - N + 1), False
    if which is BranchTag.COR_1B:
        pref = Fraction(comb(N - K, n - K), comb(N, n))
        return pref, K, Terminating2F1(n - N, -K, n - K + 1), True
    if which is BranchTag.COR_2A:
        pref = Fraction(comb(K, n), comb(N, n))
        return pref, n, Terminating2F1(-n, K - N, K - n + 1), True
    raise DomainError(f"unknown branch tag {which!r}")


#: Up to this many series terms plus z-power factors the numbers stay at a
#: few hundred bits, and one Fraction over the whole product is cheaper than
#: reducing it factor by factor (the two cost the same near 100 at z = 7/5).
_ONE_FRACTION_TERMS = 64


def _eval_parts(parts: tuple[Fraction, int, Terminating2F1, bool], z: Fraction) -> Fraction:
    """``pref * z**power * F(arg)`` for ``parts`` from :func:`_branch_parts`.

    ``arg`` is ``z``, or ``1/z`` for an inverted rewrite (then ``z != 0``).
    A short series runs on one integer pair and ends in a single Fraction.
    A long one is multiplied out as reduced Fractions, whose cross gcds are
    cheaper than one gcd over the whole product once the numbers are big.
    """
    pref, power, f, inverted = parts
    if f.termination_index + power > _ONE_FRACTION_TERMS:
        return pref * z**power * eval_terminating_2f1(f, 1 / z if inverted else z)
    p, q = z.numerator, z.denominator
    u, v = _horner_pair(f, q, p) if inverted else _horner_pair(f, p, q)
    return Fraction(pref.numerator * p**power * u, pref.denominator * q**power * v)


def legacy_pgf_prefactor(p: HypergeomParams) -> Fraction:
    """Prefactor ``(N-n)! (N-K)! / (N! (N-K-n)!)`` of the classical formula.

    Raises :class:`IndeterminateLegacyFormula` exactly when ``n >= N-K+1``,
    the regime where the classical one-branch expression stops being
    defined.
    """
    if p.n >= p.N - p.K + 1:
        raise IndeterminateLegacyFormula(
            f"(N-K-n)! = ({p.N - p.K - p.n})! does not exist: the classical "
            f"PGF formula is indeterminate for n >= N-K+1 "
            f"(N={p.N}, K={p.K}, n={p.n})"
        )
    return _branch_parts(p, BranchTag.THM_A)[0]


def branch_polynomial(p: HypergeomParams, which: BranchTag) -> PgfPolynomial:
    """Expand one of the two main branches into explicit coefficients.

    Coefficient ``shift + k`` is the prefactor times the k-th series term,
    carried as one running product over the series' term ratios.
    """
    if which not in THEOREM_TAGS:
        raise DomainError(f"coefficient expansion is defined for the main branches, not {which.value}")
    if which not in classify_regions(p):
        raise DomainError(
            f"branch {which.value} is not valid for (N={p.N}, K={p.K}, n={p.n})"
        )
    pref, shift, f, _ = _branch_parts(p, which)
    return PgfPolynomial((Fraction(0),) * shift + scaled_terms(f, pref))


def pgf_polynomial(p: HypergeomParams) -> PgfPolynomial:
    """The PGF as an explicit polynomial of degree ``min(n, K)``.

    Coefficient ``k`` equals ``pmf(p, k)``; coefficients below
    ``max(0, n+K-N)`` are exactly zero.
    """
    return branch_polynomial(p, canonical_branch(p))


def pgf_eval(p: HypergeomParams, z) -> Fraction:
    """G_X(z) through the branch-selected series, not the coefficient list.

    This is deliberately a second computation path: the expansion in
    :func:`pgf_polynomial` and this direct evaluation cross-check each
    other.
    """
    return _eval_parts(_branch_parts(p, canonical_branch(p)), as_rational(z))


def pgf_eval_branch(p: HypergeomParams, z, which: BranchTag) -> Fraction:
    """G_X(z) through an explicitly chosen branch.

    The branch must be admitted by :func:`classify_regions`; the two
    inverse-argument rewrites additionally need ``z != 0``.
    """
    if which not in classify_regions(p):
        raise DomainError(
            f"branch {which.value} is not valid for (N={p.N}, K={p.K}, n={p.n})"
        )
    z = as_rational(z)
    parts = _branch_parts(p, which)
    inverted = parts[3]
    if inverted and z == 0:
        raise DomainError(f"branch {which.value} evaluates a series in 1/z; z=0 is invalid")
    return _eval_parts(parts, z)


def pgf_eval_corollary(p: HypergeomParams, z, which: BranchTag) -> Fraction:
    """G_X(z) through one of the four symmetric rewrites (Cor1a..Cor2b)."""
    if which not in COROLLARY_TAGS:
        raise DomainError(f"expected one of the four rewrite tags, got {which!r}")
    return pgf_eval_branch(p, z, which)


def _reject_nan(t: float, name: str) -> None:
    if math.isnan(t):
        raise DomainError(f"{name} is undefined at t=nan")


def mgf_eval(p: HypergeomParams, t: float) -> float:
    """Moment-generating function M_X(t) = G_X(e^t) in double precision."""
    _reject_nan(t, "M_X(t)")
    x = math.exp(t)  # OverflowError for t beyond the float range
    value = pgf_polynomial(p).eval_float(x)
    if not math.isfinite(value):
        raise OverflowError(f"M_X({t}) overflows double precision")
    return value


def cf_eval(p: HypergeomParams, t: float) -> complex:
    """Characteristic function phi_X(t) = G_X(e^{it}); |phi| <= 1 always."""
    _reject_nan(t, "phi_X(t)")
    z = cmath.exp(1j * t)
    value = pgf_polynomial(p).eval_complex(z)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise OverflowError(f"phi_X({t}) produced a non-finite value")
    return value


def cgf_eval(p: HypergeomParams, t: float) -> float:
    """Cumulant-generating function ln M_X(t); zero at t = 0.

    Raises ``OverflowError`` when M_X(t) underflows to 0.0, as it does for
    very negative ``t`` once the support starts above 0.
    """
    _reject_nan(t, "ln M_X(t)")
    value = mgf_eval(p, t)
    if value == 0.0:
        raise OverflowError(
            f"M_X({t}) underflows to 0 in double precision; ln M_X({t}) is out of range"
        )
    return math.log(value)


def legendre_case_pgf(m: int, z) -> Fraction:
    """PGF of the balanced urn ``N = 2m, K = n = m`` in Legendre form.

    Evaluates ``(m!)^2 / (2m)! * (z-1)^m * P_m((z+1)/(z-1))`` with the
    Legendre polynomial taken through its hypergeometric representation
    ``P_m(x) = 2F1(-m, m+1; 1; (1-x)/2)``.  The point ``z = 1`` is a
    removable singularity of this form; evaluate the plain PGF there
    instead.
    """
    m = operator.index(m)
    if m < 1:
        raise DomainError(f"the balanced case needs m >= 1 (got m={m})")
    z = as_rational(z)
    if z == 1:
        raise DomainError("z=1 is a removable singularity of the Legendre form; use pgf_eval")
    x = (z + 1) / (z - 1)
    legendre = eval_terminating_2f1(Terminating2F1(-m, m + 1, 1), (1 - x) / 2)
    return Fraction(factorial(m) ** 2, factorial(2 * m)) * (z - 1) ** m * legendre
