"""PMF, branch-complete generating functions, and region classification.

Every closed form of the probability-generating function G_X(z) = E[z^X]
of the hypergeometric distribution is one expression::

    G(z) = x! y! / (N! (x+y-N)!) * z^s * 2F1(x-N, y-N; x+y-N+1; w)

with ``w = z`` or ``w = 1/z``.  A branch is a row ``(x, y, s, inverted)``
(:func:`_branch_row`) and exists exactly when ``(x+y-N)!`` does, i.e. when
``x + y >= N``.  The lower branch ``ThmA`` (``x, y = N-n, N-K``) is the
classical textbook formula; its prefactor and hypergeometric factor both
blow up once ``n >= N-K+1``, leaving an indeterminate inf/inf that
:func:`legacy_pgf_prefactor` reports as a typed error.  The upper branch
``ThmB`` (``x, y = n, K``) covers the rest.  Four further rewrites
(``Cor1a``..``Cor2b``) expose the sampling symmetry between drawing ``n``
balls and leaving ``N-n`` behind; their validity regions on the (n, K)
grid overlap, and wherever two formulas are both defined they agree
exactly.

Everything generating-function-shaped funnels through the exact coefficient
polynomial; the MGF/CF/CGF evaluate that one source of truth at a floating
point.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import operator
import sys
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
    """Which closed-form expression of the PGF a parameter point admits.

    Members iterate in the fixed order that CLI output and reports use.
    """

    THM_A = "ThmA"
    THM_B = "ThmB"
    COR_1A = "Cor1a"
    COR_1B = "Cor1b"
    COR_2A = "Cor2a"
    COR_2B = "Cor2b"


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


def _branch_row(p: HypergeomParams, which: BranchTag) -> tuple[int, int, int, bool]:
    """Branch ``which`` as its row ``(x, y, s, inverted)``.

    The branch is ``x! y! / (N! (x+y-N)!) * z^s * 2F1(x-N, y-N; x+y-N+1; w)``
    with ``w = 1/z`` when ``inverted``, else ``w = z``; it exists exactly
    when ``x + y >= N``.
    """
    N, K, n = p.N, p.K, p.n
    if which is BranchTag.THM_A or which is BranchTag.COR_1A:
        return N - n, N - K, 0, False
    if which is BranchTag.THM_B or which is BranchTag.COR_2B:
        return n, K, n + K - N, False
    if which is BranchTag.COR_1B:
        return n, N - K, K, True
    if which is BranchTag.COR_2A:
        return N - n, K, n, True
    raise DomainError(f"unknown branch tag {which!r}")


def _branch_parts(
    p: HypergeomParams, which: BranchTag
) -> tuple[Fraction, int, Terminating2F1, bool]:
    """(prefactor, z-power, series, inverted) for branch ``which``.

    This is where a branch is admitted: a row with ``x + y < N`` raises
    :class:`DomainError`.  The factorial prefactor ``x! y! / (N! (x+y-N)!)``
    is built as the binomial ratio ``C(y, N-x) / C(N, N-x)``, which is far
    cheaper at large ``N``.
    """
    x, y, s, inverted = _branch_row(p, which)
    N = p.N
    if x + y < N:
        raise DomainError(f"branch {which.value} is not valid for (N={N}, K={p.K}, n={p.n})")
    pref = Fraction(comb(y, N - x), comb(N, N - x))
    return pref, s, Terminating2F1(x - N, y - N, x + y - N + 1), inverted


def _latex_formula(p: HypergeomParams) -> str:
    """The canonical branch formula with this triple's numbers substituted in."""
    x, y, s, _ = _branch_row(p, canonical_branch(p))
    N = p.N
    frac = f"\\frac{{{x}!\\,{y}!}}{{{N}!\\,{x + y - N}!}}"
    power = f"z^{{{s}}}\\," if s else ""
    series = f"{{}}_2F_1({x - N}, {y - N}; {x + y - N + 1}; z)"
    return f"G(z) = {frac}\\,{power}{series}"


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
    try:
        return _branch_parts(p, BranchTag.THM_A)[0]
    except DomainError:
        raise IndeterminateLegacyFormula(
            f"(N-K-n)! = ({p.N - p.K - p.n})! does not exist: the classical "
            f"PGF formula is indeterminate for n >= N-K+1 "
            f"(N={p.N}, K={p.K}, n={p.n})"
        ) from None


def branch_polynomial(p: HypergeomParams, which: BranchTag) -> PgfPolynomial:
    """Expand one of the two main branches into explicit coefficients.

    Coefficient ``shift + k`` is the prefactor times the k-th series term,
    carried as one running product over the series' term ratios.
    """
    if which in COROLLARY_TAGS:
        raise DomainError(f"coefficient expansion is defined for the main branches, not {which.value}")
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
    parts = _branch_parts(p, which)
    z = as_rational(z)
    if parts[3] and z == 0:
        raise DomainError(f"branch {which.value} evaluates a series in 1/z; z=0 is invalid")
    return _eval_parts(parts, z)


_LOG_MAX = math.log(sys.float_info.max)


def _reject_nan(t: float, name: str) -> None:
    if math.isnan(t):
        raise DomainError(f"{name} is undefined at t=nan")


def _mgf_or_log(p: HypergeomParams, t: float, log: bool) -> tuple[float, str]:
    """M_X(t) as ``(value, form)``, with ``form`` one of ``"M"``, ``"M-1"`` and ``"ln M"``.

    ``"M"`` is the double-precision Horner value at e^t.  Where it lies in
    [1/2, 2], ``log`` of it would lose ln M_X(t) near t = 0, so the value is
    ``M_X(t) - 1 = sum c_k expm1(t k)``: every term has the sign of ``t``, so
    the sum does not cancel, and it is exactly 0 at t = 0.  ``"ln M"``, the
    log-sum-exp of ``t k + ln c_k`` over the nonzero coefficients, is taken
    where e^t overflows or the Horner value is 0, infinite, or subnormal
    while ``log`` asks for ln M_X(t); it is infinite where ``|t| k`` leaves
    the double range.  Its exp() would carry the rounding of ``t k``, so where
    e^t overflows but M_X(t) is a double, M_X(t) is the exact polynomial at
    ``(e^{t/2})^2``.  The polynomial stays local to this helper, so the
    callers' errors do not keep it alive through their tracebacks.
    """
    poly = pgf_polynomial(p)
    if not _LOG_MAX < t < math.inf:  # e^t is a double
        value = poly.eval_float(math.exp(t))
        if not math.isfinite(t):
            return value, "M"
        if 0.5 <= value <= 2.0:
            return math.fsum(float(c) * math.expm1(t * k) for k, c in enumerate(poly.coeffs)), "M-1"
        if 0.0 < value < math.inf and (value >= sys.float_info.min or not log):
            return value, "M"
    logs = [
        t * k + math.log(c.numerator) - math.log(c.denominator)
        for k, c in enumerate(poly.coeffs)
        if c
    ]
    top = max(logs)
    if math.isinf(top):
        return top, "ln M"
    value = top + math.log(math.fsum(math.exp(x - top) for x in logs))
    if not log and t > _LOG_MAX > value:
        with contextlib.suppress(OverflowError):  # e^{t/2} or M_X(t) still overflows
            return float(poly(Fraction(math.exp(t / 2)) ** 2)), "M"
    return value, "ln M"


def mgf_eval(p: HypergeomParams, t: float) -> float:
    """Moment-generating function M_X(t) = G_X(e^t) in double precision."""
    _reject_nan(t, "M_X(t)")
    value, form = _mgf_or_log(p, t, log=False)
    if form == "M-1":
        value += 1.0
    elif form == "ln M":
        value = math.exp(value) if value <= _LOG_MAX else math.inf
    if not math.isfinite(value):
        raise OverflowError(f"M_X({t}) overflows double precision")
    return value


def cf_eval(p: HypergeomParams, t: float) -> complex:
    """Characteristic function phi_X(t) = G_X(e^{it}); |phi| <= 1 always."""
    _reject_nan(t, "phi_X(t)")
    z = cmath.exp(1j * t)
    value = complex(pgf_polynomial(p).eval_float(z))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise OverflowError(f"phi_X({t}) produced a non-finite value")
    return value


def cgf_eval(p: HypergeomParams, t: float) -> float:
    """Cumulant-generating function ln M_X(t); exactly zero at t = 0.

    Where the double-precision M_X(t) is out of range, it is the
    log-sum-exp of :func:`_mgf_or_log`, finite unless ``|t| k`` itself
    leaves the double range for some ``k`` in the support (or ``t`` is
    infinite); there it raises ``OverflowError``.
    """
    _reject_nan(t, "ln M_X(t)")
    value, form = _mgf_or_log(p, t, log=True)
    if form == "M-1":
        value = math.log1p(value)
    elif form == "M":  # only t = -inf or +inf leaves M_X(t) at 0 or inf here
        value = math.log(value) if 0.0 < value < math.inf else math.inf
    if math.isinf(value):
        raise OverflowError(f"ln M_X({t}) is out of double range")
    return value


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
