"""Brute-force ground truth built directly from the mass function.

Everything here is computed by literal summation over the support using
only exact binomial coefficients.  This module deliberately does not import
the hypergeometric-series engine or the closed-form branches; that
independence is what makes it an oracle for them.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, perm

from .core import DomainError, HypergenError, HypergeomParams, PgfPolynomial, binomial

#: Largest population the oracle will enumerate by default.
DEFAULT_N_BOUND = 64


class BoundExceeded(HypergenError):
    """The requested population size is above the configured oracle bound."""


def _effective_bound(bound: int | None) -> int:
    if bound is None:
        return DEFAULT_N_BOUND
    bound = operator.index(bound)
    if bound < 0:
        raise DomainError(f"oracle bound must be >= 0 (got {bound})")
    return bound


def _check_bound(p: HypergeomParams, bound: int | None) -> None:
    limit = _effective_bound(bound)
    if p.N > limit:
        raise BoundExceeded(f"N={p.N} exceeds the oracle bound {limit}")


def _pmf(p: HypergeomParams, k: int) -> Fraction:
    # Same definition as the distribution module, restated here so the
    # oracle shares nothing with the closed-form paths beyond binomial().
    return Fraction(
        binomial(p.K, k) * binomial(p.N - p.K, p.n - k),
        binomial(p.N, p.n),
    )


def oracle_pgf(p: HypergeomParams, bound: int | None = None) -> PgfPolynomial:
    """E[z^X] by direct enumeration: coefficient k is the mass at k."""
    _check_bound(p, bound)
    return PgfPolynomial(tuple(_pmf(p, k) for k in range(p.support_hi + 1)))


def oracle_factorial_moment(p: HypergeomParams, r: int, bound: int | None = None) -> Fraction:
    """E[X(X-1)...(X-r+1)] as the literal sum over the support.

    The sum runs over the integers ``(k)_r C(K,k) C(N-K,n-k)``, the falling
    factorial times the numerator of the mass, and the common denominator
    ``C(N,n)`` is divided out once.
    """
    r = operator.index(r)
    if r < 1:
        raise DomainError(f"factorial moment order must be >= 1 (got r={r})")
    _check_bound(p, bound)
    total = sum(
        perm(k, r) * comb(p.K, k) * comb(p.N - p.K, p.n - k)
        for k in range(p.support_lo, p.support_hi + 1)
    )
    return Fraction(total, comb(p.N, p.n))
