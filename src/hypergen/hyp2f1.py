"""Terminating Gauss hypergeometric series over exact rationals.

The series ``2F1(a, b; c; z) = sum_k (a)_k (b)_k / (c)_k * z^k / k!``
collapses to a polynomial as soon as ``a`` or ``b`` is a nonpositive
integer.  This module evaluates exactly that polynomial case and the
algebra around it: parameter-shift derivative rules, two argument
transformations, the value at z=1, and the scaled limit that gives
``2F1(a,b;c;z)/Gamma(c)`` meaning at nonpositive integer ``c``, where the
plain series does not exist because ``(c)_k`` vanishes from ``k = |c|+1``
onward.

Validity policy: ``Terminating2F1`` only admits ``c >= 1``.  Parameter sets
with ``c <= 0`` are not silently reinterpreted; callers are routed to
:func:`scaled_limit_2f1`, which is the object that actually exists there.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod

from .core import DomainError, HypergenError, as_rational


class UndefinedHypergeometric(HypergenError):
    """The hypergeometric function does not exist at the requested parameters."""


@dataclass(frozen=True)
class Terminating2F1:
    """Validated parameter triple ``(a, b, c)`` of a terminating series.

    At least one of ``a``, ``b`` must be a nonpositive integer and ``c`` must
    be a positive integer.  ``termination_index`` is the series length: the
    k-sum runs over ``0 <= k <= termination_index - 1``.
    """

    a: int
    b: int
    c: int
    termination_index: int = field(init=False)

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.a > 0 and self.b > 0:
            raise DomainError(
                f"series with a={self.a}, b={self.b} does not terminate; "
                "need a nonpositive integer upper parameter"
            )
        if self.c <= 0:
            raise UndefinedHypergeometric(
                f"2F1 is undefined for c={self.c} <= 0; "
                "use scaled_limit_2f1 for the c -> -m limit"
            )
        stops = [-x for x in (self.a, self.b) if x <= 0]
        object.__setattr__(self, "termination_index", 1 + min(stops))


def pochhammer(a, k: int) -> Fraction:
    """Rising factorial ``(a)_k = a (a+1) ... (a+k-1)``, with ``(a)_0 = 1``.

    ``a`` may be an integer or an exact rational.
    """
    k = operator.index(k)
    if k < 0:
        raise DomainError(f"pochhammer requires k >= 0 (got k={k})")
    if not isinstance(a, int):
        a = as_rational(a)
    # (p/q)_k = p (p+q) ... (p+(k-1)q) / q^k
    p, q = a.numerator, a.denominator
    return Fraction(prod(range(p, p + k * q, q)), q**k)


def eval_terminating_2f1(f: Terminating2F1, z) -> Fraction:
    """Exact value of the terminating series at a rational point.

    Nested Horner form of the running term ratio
    ``term_{k+1} / term_k = (a+k)(b+k) / ((c+k)(k+1)) * z``:
    ``1 + r_0 (1 + r_1 (1 + ... (1 + r_{T-2})))``, evaluated from the last
    term down on an integer pair ``u/v`` with ``z = p/q``, so every step is
    a big-by-small product and the only gcd is the final division.
    """
    z = as_rational(z)
    return Fraction(*_horner_pair(f, z.numerator, z.denominator))


def _horner_pair(f: Terminating2F1, p: int, q: int) -> tuple[int, int]:
    """Unreduced integers ``(u, v)`` with ``u / v`` the series at ``z = p/q``.

    The integer core of :func:`eval_terminating_2f1`; ``q`` may be negative
    but not zero.  Callers that multiply the value by more factors can defer
    the gcd to one final division.
    """
    a, b, c = f.a, f.b, f.c
    u = v = 1
    for k in reversed(range(f.termination_index - 1)):
        v *= (c + k) * (k + 1) * q
        u = v + (a + k) * (b + k) * p * u
    return u, v


def series_coefficients(f: Terminating2F1) -> tuple[Fraction, ...]:
    """Coefficients of the polynomial that the terminating series equals.

    Entry ``k`` is ``(a)_k (b)_k / ((c)_k k!)`` for
    ``0 <= k <= termination_index - 1``.
    """
    return scaled_terms(f, Fraction(1))


def scaled_terms(f: Terminating2F1, first: Fraction) -> tuple[Fraction, ...]:
    """The series terms times ``first``: ``first * (a)_k (b)_k / ((c)_k k!)``.

    A running product of the small term ratios
    ``(a+k)(b+k) / ((c+k)(k+1))``, so that each step cancels only
    big-by-small gcds however large ``first`` is.
    """
    a, b, c = f.a, f.b, f.c
    term = first
    terms = [term]
    for k in range(f.termination_index - 1):
        term *= Fraction((a + k) * (b + k), (c + k) * (k + 1))
        terms.append(term)
    return tuple(terms)


def _shift(a: int, b: int, c: int, r: int) -> tuple[Fraction, Terminating2F1 | None]:
    """The parameter shift ``((a)_r (b)_r / (c)_r, 2F1(a+r, b+r; c+r; z))``.

    The series is ``None`` where it does not terminate: both shifted upper
    parameters are positive.
    """
    scale = pochhammer(a, r) * pochhammer(b, r) / pochhammer(c, r)
    if a + r <= 0 or b + r <= 0:
        return scale, Terminating2F1(a + r, b + r, c + r)
    return scale, None


def scaled_limit_2f1(a: int, b: int, m: int, z) -> Fraction:
    """Value of ``lim_{c -> -m} 2F1(a, b; c; z) / Gamma(c)`` for ``m >= 0``.

    Equals ``(a)_{m+1} (b)_{m+1} / (m+1)! * z^{m+1}
    * 2F1(a+m+1, b+m+1; m+2; z)``, the parameter shift of
    ``2F1(a, b; 1; z)`` by ``m+1``.  The right-hand series must terminate
    (``a <= -(m+1)`` or ``b <= -(m+1)``) unless the leading Pochhammer
    factor or ``z^{m+1}`` already forces the exact value 0.
    """
    a, b, m = map(operator.index, (a, b, m))
    if m < 0:
        raise DomainError(f"scaled limit requires m >= 0 (got m={m})")
    z = as_rational(z)
    pref, g = _shift(a, b, 1, m + 1)
    if pref == 0 or z == 0:
        return Fraction(0)
    if g is None:
        raise UndefinedHypergeometric(
            f"2F1({a + m + 1}, {b + m + 1}; {m + 2}; z) does not terminate; "
            "the scaled limit has no exact finite evaluation here"
        )
    return pref * z ** (m + 1) * eval_terminating_2f1(g, z)


def transform_inverse_arg(f: Terminating2F1, z) -> tuple[Fraction, Terminating2F1, Fraction]:
    """Rewrite ``2F1(-m, b; c; z)`` as a series in ``1/z``.

    Returns ``(prefactor, g, w)`` with
    ``2F1(-m, b; c; z) = prefactor * 2F1(-m, 1-c-m; 1-b-m; w)``,
    ``prefactor = (b)_m / (c)_m * (-z)^m`` and ``w = 1/z``.  The first upper
    parameter of ``f`` plays the role of ``-m``.  Parameter collisions that
    would make the new lower parameter ``1-b-m`` nonpositive are rejected
    rather than assigned a guessed limit.
    """
    if f.a > 0:
        raise DomainError(f"first upper parameter must be nonpositive (got a={f.a})")
    z = as_rational(z)
    if z == 0:
        raise DomainError("the inverse-argument rewrite needs z != 0")
    m = -f.a
    prefactor = pochhammer(f.b, m) / pochhammer(f.c, m) * (-z) ** m
    g = Terminating2F1(f.a, 1 - f.c - m, 1 - f.b - m)
    return prefactor, g, 1 / z


def transform_one_minus_z(f: Terminating2F1, z) -> tuple[Fraction, Terminating2F1, Fraction]:
    """Rewrite ``2F1(-m, b; c; z)`` as a series in ``1/(1-z)``.

    Returns ``(prefactor, g, w)`` with
    ``2F1(-m, b; c; z) = prefactor * 2F1(-m, c-b; 1-b-m; w)``,
    ``prefactor = (b)_m / (c)_m * (1-z)^m`` and ``w = 1/(1-z)``.
    Collisions in the new lower parameter are rejected, as in
    :func:`transform_inverse_arg`.
    """
    if f.a > 0:
        raise DomainError(f"first upper parameter must be nonpositive (got a={f.a})")
    z = as_rational(z)
    if z == 1:
        raise DomainError("the 1-z rewrite needs z != 1")
    m = -f.a
    prefactor = pochhammer(f.b, m) / pochhammer(f.c, m) * (1 - z) ** m
    g = Terminating2F1(f.a, f.c - f.b, 1 - f.b - m)
    return prefactor, g, 1 / (1 - z)


def derivative_2f1(f: Terminating2F1, r: int) -> tuple[Fraction, Terminating2F1 | None]:
    """r-th derivative of the series by parameter shift.

    ``d^r/dz^r 2F1(a,b;c;z) = (a)_r (b)_r / (c)_r * 2F1(a+r, b+r; c+r; z)``;
    returns ``(scale, g)``.  Past the polynomial degree the scale vanishes
    and the shifted triple may no longer terminate, in which case ``g`` is
    ``None`` and the derivative is identically zero.
    """
    r = operator.index(r)
    if r < 0:
        raise DomainError(f"derivative order must be >= 0 (got r={r})")
    return _shift(f.a, f.b, f.c, r)


def derivative_z_power_2f1(a: int, b: int, c: int, r: int) -> tuple[Fraction, int, Terminating2F1]:
    """r-th derivative of ``z^{c-1} 2F1(a, b; c; z)``, valid while ``c - r >= 1``.

    ``d^r/dz^r (z^{c-1} 2F1(a,b;c;z)) = (c-r)_r z^{c-r-1} 2F1(a,b;c-r;z)``;
    returns ``(scale, power, g)`` for those three parts.  Raises
    :class:`DomainError` once ``c - r <= 0``; the supplement rule
    :func:`prop1_derivative` covers that range.
    """
    a = operator.index(a)
    b = operator.index(b)
    c = operator.index(c)
    r = operator.index(r)
    if c < 1:
        raise DomainError(f"c must be a positive integer (got c={c})")
    if r < 0:
        raise DomainError(f"derivative order must be >= 0 (got r={r})")
    if c - r <= 0:
        raise DomainError(
            f"r must satisfy r < c (got r={r}, c={c}); "
            "use prop1_derivative for r >= c"
        )
    scale = pochhammer(c - r, r)
    return scale, c - r - 1, Terminating2F1(a, b, c - r)


def prop1_derivative(a: int, b: int, m: int, r: int) -> tuple[Fraction, Terminating2F1 | None]:
    """Supplement to :func:`derivative_z_power_2f1` for ``r >= m``.

    With ``q = r - m + 1``:
    ``d^r/dz^r (z^{m-1} 2F1(a,b;m;z))
    = (m-1)! (a)_q (b)_q / q! * 2F1(a+q, b+q; q+1; z)``: the z-power rule to
    order ``m-1``, then the parameter shift of ``2F1(a, b; 1; z)``.  Returns
    ``(scale, g)``; as with :func:`derivative_2f1`, ``g`` is ``None`` when
    the derivative is identically zero and the shifted triple no longer
    terminates.
    """
    a, b, m, r = map(operator.index, (a, b, m, r))
    if m < 1:
        raise DomainError(f"m must be a positive integer (got m={m})")
    if r < m:
        raise DomainError(
            f"r must satisfy r >= m (got r={r}, m={m}); "
            "use derivative_z_power_2f1 for r < m"
        )
    q = r - m + 1
    scale, g = _shift(a, b, 1, q)
    scale *= factorial(m - 1)
    if g is None and scale != 0:
        raise UndefinedHypergeometric(f"2F1({a + q}, {b + q}; {q + 1}; z) does not terminate")
    return scale, g


def gauss_value_at_one(f: Terminating2F1) -> Fraction:
    """Exact value of the terminating series at z = 1, with no series summed.

    Chu-Vandermonde (DLMF 15.4.24): with ``-m`` the upper parameter at which
    the series stops and ``b`` the other one,
    ``2F1(-m, b; c; 1) = (c-b)_m / (c)_m``, taken as one quotient of the
    two integer products, so small series pay for a single Fraction.
    """
    m = f.termination_index - 1
    lo = f.c - (f.b if f.a == -m else f.a)
    return Fraction(prod(range(lo, lo + m)), prod(range(f.c, f.c + m)))
