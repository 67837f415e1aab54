"""The float layer at and near t = 0, where M_X(t) is close to 1.

There ``log`` of a Horner M_X(t) would lose ln M_X(t) to the rounding of
the value next to 1, so the layer computes ``M_X(t) - 1`` as a sum of
``c_k expm1(t k)``.  Relative errors are stated in units of
``(d+1) u``, with ``d`` the degree and ``u = 2^-53``.

References are ``mpmath`` at 60 digits.  A plain sum of ``exp(t k)`` is no
reference below |t| of about 1e-50, because 1 + tiny rounds to 1 even
there, so near 1 the reference is ``log1p`` of the ``expm1`` sum; where
M_X(t) is far below 1 that sum loses M_X(t), and the plain log is used.
"""

import math
from fractions import Fraction
from math import comb

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import grid_triples, param_triples
from hypergen import cgf_eval, make_params, mean, mgf_eval
from hypergen.cli import main

U = 2.0**-53


def mp_mgf_and_log(N, K, n, t):
    """``(M_X(t), ln M_X(t))`` at 60 digits."""
    with mpmath.workdps(60):
        t = mpmath.mpf(t)
        masses = [(comb(K, k) * comb(N - K, n - k), k) for k in range(min(n, K) + 1)]
        total = comb(N, n)
        excess = mpmath.fsum(c * mpmath.expm1(t * k) for c, k in masses) / total
        if excess > -0.5:
            return 1 + excess, mpmath.log1p(excess)
        mgf = mpmath.fsum(c * mpmath.exp(t * k) for c, k in masses) / total
        return mgf, mpmath.log(mgf)


def rel_error(got, want):
    return float(abs(mpmath.mpf(got) - want) / abs(want))


def test_zero_t_is_exact_for_every_small_triple():
    for p in grid_triples(30):
        assert cgf_eval(p, 0.0) == 0.0
        assert mgf_eval(p, 0.0) == 1.0


@pytest.mark.parametrize("params", [(1000, 400, 500), (10, 5, 5), (30, 30, 7), (7, 3, 0)])
def test_cli_prints_zero_and_one_at_zero(params, capsys):
    argv = ["eval", *map(str, params), "--at", "0"]
    assert main(argv + ["--kind", "cgf"]) == 0
    assert main(argv + ["--kind", "mgf"]) == 0
    assert capsys.readouterr().out == "0\n1\n"


# (N, K, n), t, ln M_X(t) from mpmath
NEAR_ZERO = [
    ((10, 5, 5), 1e-15, 2.5000000000000004e-15),
    ((10, 5, 5), -1e-15, -2.5e-15),
    ((10, 5, 5), 1e-12, 2.500000000000347e-12),
    ((1000, 400, 500), 1e-15, 2.0000000000000006e-13),
    ((1000, 400, 500), 1e-9, 2.0000000003003004e-07),
    ((1000, 400, 500), 1e-300, 2.0000000000000002e-298),
]


@pytest.mark.parametrize(("params", "t", "expected"), NEAR_ZERO)
def test_table_matches_mpmath(params, t, expected):
    assert float(mp_mgf_and_log(*params, t)[1]) == expected


@pytest.mark.parametrize(("params", "t", "expected"), NEAR_ZERO)
def test_cgf_near_zero_points(params, t, expected):
    p = make_params(*params)
    assert abs(cgf_eval(p, t) - expected) <= 2 * (p.support_hi + 1) * U * abs(expected)


@pytest.mark.parametrize("params", [(10, 5, 5), (30, 15, 15), (1000, 400, 500)])
@pytest.mark.parametrize("t", [5e-324, -5e-324])
def test_smallest_subnormal_t(params, t):
    # ln M_X(t) = mu t up to t^2 terms far below 2^-1074
    p = make_params(*params)
    got = cgf_eval(p, t)
    assert math.copysign(1.0, got) == math.copysign(1.0, t) and got != 0
    assert abs(Fraction(got) - mean(p) * Fraction(t)) <= (p.support_hi + 1) * Fraction(2) ** -1074
    assert mgf_eval(p, t) == 1.0


log_uniform_t = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-300, 0)).map(
    lambda sign_exponent: sign_exponent[0] * 10.0 ** sign_exponent[1]
)


@given(param_triples(max_N=60), log_uniform_t)
def test_relative_error_near_zero_has_no_floor(p, t):
    mgf, log_mgf = mp_mgf_and_log(p.N, p.K, p.n, t)
    bound = 2 * (p.support_hi + 1) * U
    if log_mgf == 0:  # X is constant at 0
        assert cgf_eval(p, t) == 0.0
    else:
        assert rel_error(cgf_eval(p, t), log_mgf) <= bound
    assert rel_error(mgf_eval(p, t), mgf) <= bound
