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
from .distribution import BranchTag, _branch_parts, canonical_branch
from .hyp2f1 import (
    derivative_2f1,
    derivative_z_power_2f1,
    gauss_value_at_one,
    prop1_derivative,
)


def falling_factorial(x: int, r: int) -> int:
    """``x (x-1) ... (x-r+1)`` with the empty product equal to 1."""
    r = operator.index(r)
    if r < 0:
        raise DomainError(f"falling factorial requires r >= 0 (got r={r})")
    prod = 1
    for i in range(r):
        prod *= x - i
    return prod


def factorial_moment(p: HypergeomParams, r: int) -> Fraction:
    """E[X(X-1)...(X-r+1)] computed by differentiating the PGF branch.

    Orders past the polynomial degree return exactly 0.
    """
    r = operator.index(r)
    if r < 1:
        raise DomainError(f"factorial moment order must be >= 1 (got r={r})")
    branch = canonical_branch(p)
    pref, _shift, f, _ = _branch_parts(p, branch)
    if branch is BranchTag.THM_A:
        scale, g = derivative_2f1(f, r)
    elif r <= f.c - 1:
        scale, _power, g = derivative_z_power_2f1(f.a, f.b, f.c, r)
    else:
        scale, g = prop1_derivative(f.a, f.b, f.c, r)
    if scale == 0:
        return Fraction(0)
    return pref * scale * gauss_value_at_one(g)


def factorial_moment_closed_form(p: HypergeomParams, r: int) -> Fraction:
    """Falling-factorial closed form ``(n)_r (K)_r / (N)_r``; 0 past the degree."""
    r = operator.index(r)
    if r < 1:
        raise DomainError(f"factorial moment order must be >= 1 (got r={r})")
    if r > min(p.n, p.K):
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


def stirling2_triangle(max_j: int) -> list[list[int]]:
    """Rows 0..max_j of Stirling numbers of the second kind, S(j, s).

    Standard triangular recurrence ``S(j, s) = s S(j-1, s) + S(j-1, s-1)``
    over exact integers.
    """
    max_j = operator.index(max_j)
    if max_j < 0:
        raise DomainError(f"need max_j >= 0 (got {max_j})")
    rows = [[1]]
    for j in range(1, max_j + 1):
        prev = rows[-1]
        row = [0] * (j + 1)
        for s in range(1, j + 1):
            row[s] = s * prev[s] if s < len(prev) else 0
            row[s] += prev[s - 1]
        rows.append(row)
    return rows


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
    stirling = stirling2_triangle(len(fms))
    return [
        sum((stirling[j][s] * fms[s - 1] for s in range(1, j + 1)), Fraction(0))
        for j in range(1, len(fms) + 1)
    ]
