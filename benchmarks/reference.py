"""Reference values computed without hypergen, for checking each op's output.

Exact values use integer arithmetic only: the probability mass at ``k`` is
``C(K,k) C(N-K,n-k) / C(N,n)``, with the binomials from :func:`math.comb` at
the lowest index of the support and the exact integer step
``C(m,j+1) = C(m,j) (m-j) / (j+1)`` above it.  :func:`reduced_masses` keeps
each mass in lowest terms as it steps, using only gcds with small integers.  Float values come from an
``mpmath`` sum of the same masses at :data:`DPS` decimal digits.

Float tolerances (stated in NOTES.md):

* MGF: relative error at most :data:`RTOL`; a true value below the smallest
  normal double may come back as anything within that absolute distance,
  including 0.
* CGF: error at most ``RTOL * max(1, |true value|)``.
* CF: absolute error at most :data:`RTOL` on each part, since ``|phi| <= 1``.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

DPS = 30
RTOL = 1e-9
DBL_MAX = sys.float_info.max
DBL_MIN = sys.float_info.min


def mass_numerators(N: int, K: int, n: int) -> tuple[int, list[int]]:
    """(lo, [C(K,k) C(N-K,n-k) for k in lo..hi]); the masses share C(N,n)."""
    lo, hi = max(0, n + K - N), min(n, K)
    a = math.comb(K, lo)  # C(K, k)
    b = math.comb(N - K, n - lo)  # C(N-K, n-k)
    out = []
    for k in range(lo, hi + 1):
        out.append(a * b)
        if k < hi:
            a = a * (K - k) // (k + 1)
            b = b * (n - k) // (N - K - n + k + 1)
    return lo, out


def branch_label(N: int, K: int, n: int) -> str:
    """Label ``cli pgf --format json`` prints: 3a for ThmA (n <= N-K), else 3b."""
    return "3a" if n <= N - K else "3b"


def reduced_masses(N: int, K: int, n: int) -> tuple[int, list[tuple[int, int]]]:
    """(lo, [(p, q) for k in lo..hi]): the mass at k is p/q in lowest terms.

    Step k -> k+1 multiplies by ``u/v = (K-k)(n-k) / ((k+1)(N-K-n+k+1))``.
    With p/q and u/v each in lowest terms, ``gcd(p u, q v)`` is
    ``gcd(p, v) gcd(u, q)``, so no gcd of two bignums is needed.
    """
    lo, hi = max(0, n + K - N), min(n, K)
    p, q = math.comb(K, lo) * math.comb(N - K, n - lo), math.comb(N, n)
    g = math.gcd(p, q)
    p, q = p // g, q // g
    out = [(p, q)]
    for k in range(lo, hi):
        u, v = (K - k) * (n - k), (k + 1) * (N - K - n + k + 1)
        g = math.gcd(u, v)
        u, v = u // g, v // g
        g_pv, g_uq = math.gcd(p, v), math.gcd(u, q)
        p, q = (p // g_pv) * (u // g_uq), (q // g_uq) * (v // g_pv)
        out.append((p, q))
    return lo, out


def check_pgf_json(N: int, K: int, n: int, text: str) -> bool:
    """Does ``pgf N K n --format json`` output the exact reduced masses?"""
    payload = json.loads(text)
    lo, masses = reduced_masses(N, K, n)
    coeffs = payload["coeffs"]
    if payload["branch"] != branch_label(N, K, n) or len(coeffs) != lo + len(masses):
        return False
    if any(c != "0" for c in coeffs[:lo]):
        return False
    for (p, q), got in zip(masses, coeffs[lo:]):
        num_s, _, den_s = got.partition("/")
        if int(num_s) != p or (int(den_s) if den_s else 1) != q:
            return False
    return True


def pgf_value(N: int, K: int, n: int, z: Fraction) -> Fraction:
    """E[z^X] exactly, by homogeneous Horner's rule over integers."""
    lo, nums = mass_numerators(N, K, n)
    p, q = z.numerator, z.denominator
    acc, qpow = 0, 1
    for c in reversed(nums):  # sum_k c_k p^(k-lo) q^(hi-k)
        acc = acc * p + c * qpow
        qpow *= q
    hi = lo + len(nums) - 1
    return Fraction(acc * p**lo, math.comb(N, n) * q ** (hi - lo) * q**lo)


def raw_moments(N: int, K: int, n: int, max_r: int) -> list[Fraction]:
    lo, nums = mass_numerators(N, K, n)
    den = math.comb(N, n)
    return [
        Fraction(sum(c * (lo + i) ** j for i, c in enumerate(nums)), den)
        for j in range(1, max_r + 1)
    ]


def factorial_moment(N: int, K: int, n: int, r: int) -> Fraction:
    """(n)_r (K)_r / (N)_r with falling factorials; 0 past min(n, K)."""
    return Fraction(math.perm(n, r) * math.perm(K, r), math.perm(N, r))


class FloatReference:
    """High-precision MGF, CGF and CF of one parameter set."""

    def __init__(self, N: int, K: int, n: int):
        from mpmath import mp  # imported here, so that processes that never check floats stay small

        mp.dps = DPS
        self.mp = mp
        self.lo, nums = mass_numerators(N, K, n)
        den = mp.mpf(math.comb(N, n))
        self.weights = [mp.mpf(c) / den for c in nums]

    def _power_sum(self, x):
        acc = 0
        for w in reversed(self.weights):
            acc = acc * x + w
        return acc * x**self.lo

    def mgf(self, t: float):
        return self._power_sum(self.mp.exp(self.mp.mpf(t)))

    def cgf(self, t: float):
        return self.mp.log(self.mgf(t))

    def cf(self, t: float):
        return self._power_sum(self.mp.expj(t))


def float_ok(kind: str, ref: FloatReference, t: float, got, error) -> bool:
    """Is a float-layer result within tolerance, or its OverflowError due?

    ``OverflowError`` is the right answer only when the true value of the
    requested function lies beyond the double range.
    """
    if kind == "cf":
        want = ref.cf(t)
        return error is None and abs(got.real - want.real) <= RTOL and abs(got.imag - want.imag) <= RTOL
    want = ref.mgf(t) if kind == "mgf" else ref.cgf(t)
    if error is not None:
        return isinstance(error, OverflowError) and abs(want) > DBL_MAX
    if kind == "mgf":
        return abs(got - want) <= RTOL * abs(want) or (want < DBL_MIN and abs(got) <= DBL_MIN)
    return abs(got - want) <= RTOL * max(1, abs(want))
