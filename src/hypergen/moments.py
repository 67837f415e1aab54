"""Factorial, raw, and central moments via PGF differentiation.

The r-th factorial moment E[X(X-1)...(X-r+1)] is the r-th derivative of the
PGF at z = 1.  Differentiating the closed form exercises two different
derivative rules depending on the branch:

* lower branch (``n <= N-K``): plain parameter shift of the series;
* upper branch (``n >= N-K+1``): the series carries a ``z^(n+K-N)`` factor,
  so the z-power product rule applies while ``r <= n+K-N`` and its
  supplement rule takes over for ``r >= n+K-N+1``.

Both routes collapse to the same falling-factorial closed form
``(n)_r (K)_r / (N)_r`` (falling), which is also available directly as
:func:`factorial_moment_closed_form`.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .core import DomainError, HypergeomParams
from .distribution import _branch_parts, canonical_branch
from .hyp2f1 import _at_one, _rising, _z_power_derivative


def falling_factorial(x: int, r: int) -> int:
    """``x (x-1) ... (x-r+1)`` with the empty product equal to 1."""
    r = operator.index(r)
    if r < 0:
        raise DomainError(f"falling factorial requires r >= 0 (got r={r})")
    return _rising(x, r, -1)


def factorial_moment(p: HypergeomParams, r: int) -> Fraction:
    """E[X(X-1)...(X-r+1)] computed by differentiating the PGF branch.

    Orders past the polynomial degree return exactly 0.
    """
    r = operator.index(r)
    if r < 1:
        raise DomainError(f"factorial moment order must be >= 1 (got r={r})")
    if r > p.support_hi:
        return Fraction(0)
    pref, power, f, _ = _branch_parts(p, canonical_branch(p))
    num, den, g = _z_power_derivative(f.a, f.b, f.c, power, r)
    vnum, vden = _at_one(*g)
    return Fraction(pref.numerator * num * vnum, pref.denominator * den * vden)


def factorial_moment_closed_form(p: HypergeomParams, r: int) -> Fraction:
    """Falling-factorial closed form ``(n)_r (K)_r / (N)_r``; 0 past the degree."""
    r = operator.index(r)
    if r < 1:
        raise DomainError(f"factorial moment order must be >= 1 (got r={r})")
    if r > p.support_hi:
        return Fraction(0)
    return Fraction(
        falling_factorial(p.n, r) * falling_factorial(p.K, r),
        falling_factorial(p.N, r),
    )


def mean(p: HypergeomParams) -> Fraction:
    """E[X] = nK/N; the empty urn has X identically 0."""
    if p.N == 0:
        return Fraction(0)
    return Fraction(p.n * p.K, p.N)


def variance(p: HypergeomParams) -> Fraction:
    """Var X = n(N-n)K(N-K) / (N^2 (N-1)); 0 for N <= 1."""
    if p.N <= 1:
        return Fraction(0)
    return Fraction(
        p.n * (p.N - p.n) * p.K * (p.N - p.K),
        p.N * p.N * (p.N - 1),
    )


def _stirling2_rows(max_j: int, cut: int):
    """Rows 0..max_j of S(j, s) = s S(j-1, s) + S(j-1, s-1), each cut after column ``cut``."""
    row = [1]
    yield row
    for j in range(1, max_j + 1):
        prev = row + [0]
        row = [0] + [s * prev[s] + prev[s - 1] for s in range(1, min(j, cut) + 1)]
        yield row


def stirling2_triangle(max_j: int) -> list[list[int]]:
    """Rows 0..max_j of Stirling numbers of the second kind, S(j, s), as exact integers."""
    max_j = operator.index(max_j)
    if max_j < 0:
        raise DomainError(f"need max_j >= 0 (got {max_j})")
    return list(_stirling2_rows(max_j, max_j))


def raw_moments(p: HypergeomParams, max_r: int) -> list[Fraction]:
    """E[X^j] for j = 1..max_r via the Stirling-number change of basis.

    ``E[X^j] = sum_s S(j, s) * E[X(X-1)...(X-s+1)]``.
    """
    max_r = operator.index(max_r)
    if max_r < 1:
        raise DomainError(f"max_r must be >= 1 (got {max_r})")
    return raw_moments_from_factorial([factorial_moment(p, s) for s in range(1, max_r + 1)])


def raw_moments_from_factorial(fms: list[Fraction]) -> list[Fraction]:
    """E[X^j] for j = 1..len(fms), given ``fms[s-1] = E[X(X-1)...(X-s+1)]``."""
    # Stirling columns past the last nonzero factorial moment would only multiply zeros
    last = max((s for s, fm in enumerate(fms, 1) if fm), default=0)
    rows = _stirling2_rows(len(fms), last)
    next(rows)  # row 0 belongs to E[X^0]
    return [sum((row[s] * fms[s - 1] for s in range(1, len(row))), Fraction(0)) for row in rows]
