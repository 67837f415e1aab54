"""Domain types and exact-arithmetic primitives for the hypergeometric urn model.

Every closed-form quantity in this package is carried as a
``fractions.Fraction``; floating point enters only through the explicitly
float-valued evaluation paths (MGF/CF/CGF).  All types here are immutable
and all functions are pure, so everything is safe to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, lcm


class HypergenError(Exception):
    """Base class for every error raised by this package."""


class DomainError(HypergenError, ValueError):
    """The caller asked for something outside the valid domain."""


def as_rational(value) -> Fraction:
    """Coerce ``value`` to a Fraction, rejecting floats.

    Floats are refused on purpose: silently converting them would launder
    rounding error into paths that promise exact results.
    """
    if isinstance(value, float):
        raise DomainError(f"exact arithmetic requires int or Fraction, got float {value!r}")
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"not a rational value: {value!r}") from exc


@dataclass(frozen=True)
class HypergeomParams:
    """Urn parameters: ``N`` balls in total, ``K`` of them white, ``n`` drawn.

    The random variable of interest is the number of white balls among the
    ``n`` drawn without replacement.  Degenerate urns (``N=0``, ``n=0``,
    ``K=0``, ``K=N``) are valid and handled by the general formulas.
    """

    N: int
    K: int
    n: int

    def __post_init__(self):
        for name in ("N", "K", "n"):
            raw = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(raw))
            except TypeError:
                raise DomainError(f"{name} must be an integer, got {raw!r}") from None
        if self.N < 0:
            raise DomainError(f"N must satisfy N >= 0 (got N={self.N})")
        if not 0 <= self.K <= self.N:
            raise DomainError(f"K must satisfy 0 <= K <= N (got K={self.K}, N={self.N})")
        if not 0 <= self.n <= self.N:
            raise DomainError(f"n must satisfy 0 <= n <= N (got n={self.n}, N={self.N})")

    @property
    def support_lo(self) -> int:
        return max(0, self.n + self.K - self.N)

    @property
    def support_hi(self) -> int:
        return min(self.n, self.K)


def make_params(N: int, K: int, n: int) -> HypergeomParams:
    """Validate and build urn parameters; raises :class:`DomainError` on bad input."""
    return HypergeomParams(N, K, n)


def support(p: HypergeomParams) -> tuple[int, int]:
    """Inclusive range ``(lo, hi)`` of outcomes with positive probability.

    ``lo = max(0, n+K-N)`` and ``hi = min(n, K)``; ``lo <= hi`` holds for all
    valid parameters.
    """
    return (p.support_lo, p.support_hi)


def binomial(m: int, j: int) -> int:
    """Binomial coefficient ``C(m, j)`` as an exact integer.

    Out-of-range lower indices return 0 (``j < 0`` or ``j > m``), which is
    what zeroes probability-mass terms outside the support.  Negative ``m``
    is a caller bug and raises :class:`DomainError`.
    """
    m = operator.index(m)
    j = operator.index(j)
    if m < 0:
        raise DomainError(f"binomial requires m >= 0 (got m={m})")
    if j < 0 or j > m:
        return 0
    return comb(m, j)


@dataclass(frozen=True)
class PgfPolynomial:
    """Dense polynomial over exact rationals, ``coeffs[k]`` being the z^k term.

    When it represents a probability-generating function E[z^X], the
    coefficients are the probability masses: each lies in [0, 1] and they sum
    to exactly 1.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise DomainError("a polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(as_rational(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of z^k; exactly 0 beyond the stored range."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    @cached_property
    def _integer_form(self) -> tuple[tuple[int, ...], int]:
        """Numerators over one common denominator: ``(nums, den)``."""
        den = lcm(*(c.denominator for c in self.coeffs))
        return tuple(c.numerator * (den // c.denominator) for c in self.coeffs), den

    def __call__(self, z) -> Fraction:
        """Exact Horner evaluation at a rational point.

        Runs on integers: with ``z = p/q`` and degree ``d`` it sums
        ``nums[k] p^k q^(d-k)`` and divides by ``den q^d`` once.
        """
        z = as_rational(z)
        p, q = z.numerator, z.denominator
        nums, den = self._integer_form
        acc, scale = 0, 1
        for c in reversed(nums):
            acc = acc * p + c * scale
            scale *= q
        return Fraction(acc, den * q**self.degree)

    def eval_float(self, x: float) -> float:
        """Horner evaluation in double precision."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def eval_complex(self, z: complex) -> complex:
        """Horner evaluation at a double-precision complex point."""
        acc = 0 + 0j
        for c in reversed(self.coeffs):
            acc = acc * z + float(c)
        return acc
