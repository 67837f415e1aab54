"""The float layer where double-precision Horner leaves the normal range.

Where e^t overflows, or M_X(t) is 0, subnormal or infinite in double
precision, ln M_X(t) is the log-sum-exp of ``t k + ln c_k``.  References
are ``mpmath`` at 50 digits over ``math.comb`` coefficients.
"""

import math
import sys
from math import comb

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import param_triples
from hypergen import cgf_eval, make_params, mgf_eval, pgf_polynomial


def mp_log_mgf(N, K, n, t):
    with mpmath.workdps(50):
        total = sum(
            comb(K, k) * comb(N - K, n - k) * mpmath.exp(mpmath.mpf(t) * k)
            for k in range(min(n, K) + 1)
        )
        return float(mpmath.log(total / comb(N, n)))


# (N, K, n), t, ln M_X(t); the double-precision M_X(t) underflows,
# overflows or is subnormal at every point
OUT_OF_RANGE = [
    ((10, 8, 5), -1000.0, -3001.504077396776),
    ((5000, 2500, 2500), 1.0, 1404.6799542871647),
    ((5, 0, 3), 1000.0, 0.0),
    ((5, 5, 3), 1000.0, 3000.0),
    ((654, 433, 377), -3.784, -744.3531259275765),
    ((3000, 1500, 1500), -20.0, -2075.207850987296),
]


@pytest.mark.parametrize(("params", "t", "expected"), OUT_OF_RANGE)
def test_cgf_out_of_range_points(params, t, expected):
    assert cgf_eval(make_params(*params), t) == pytest.approx(expected, rel=1e-15, abs=1e-300)


@pytest.mark.parametrize(("params", "t", "expected"), OUT_OF_RANGE)
def test_table_matches_mpmath(params, t, expected):
    assert mp_log_mgf(*params, t) == pytest.approx(expected, rel=1e-15, abs=1e-300)


@pytest.mark.parametrize(("params", "t", "expected"), OUT_OF_RANGE)
def test_mgf_is_exp_of_the_cgf_or_names_its_overflow(params, t, expected):
    p = make_params(*params)
    if expected > math.log(sys.float_info.max):
        with pytest.raises(OverflowError, match=r"M_X\("):
            mgf_eval(p, t)
    else:
        assert mgf_eval(p, t) == pytest.approx(math.exp(expected), rel=1e-13, abs=0)


@pytest.mark.parametrize(("params", "t"), [((10, 5, 5), 0.5), ((200, 80, 90), -3.0), ((40, 20, 20), 30.0)])
def test_in_range_keeps_the_horner_bits(params, t):
    p = make_params(*params)
    horner = pgf_polynomial(p).eval_float(math.exp(t))
    assert mgf_eval(p, t) == horner
    assert cgf_eval(p, t) == math.log(horner)


@given(param_triples(max_N=60), st.floats(-2000, 2000))
def test_cgf_matches_mpmath(p, t):
    expected = mp_log_mgf(p.N, p.K, p.n, t)
    assert cgf_eval(p, t) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# |t| k leaves the double range for some k in the support, so ln M_X(t) does
# too: +inf at (5, 5, 3), where X = 3, and -inf at (10, 8, 5), where X >= 3
PAST_DOUBLE_RANGE = [((5, 5, 3), 1e308, "overflow"), ((10, 8, 5), -1e308, 0.0), ((10, 8, 5), 1e308, "overflow")]


@given(param_triples(max_N=60), st.floats(allow_nan=False, allow_infinity=False))
def test_cgf_over_every_finite_t_is_the_mpmath_value_or_a_named_overflow(p, t):
    expected = mp_log_mgf(p.N, p.K, p.n, t)
    if math.isinf(expected):
        with pytest.raises(OverflowError, match=r"ln M_X\("):
            cgf_eval(p, t)
    else:
        assert cgf_eval(p, t) == pytest.approx(expected, rel=1e-12, abs=1e-12)
    try:
        assert not math.isnan(mgf_eval(p, t))
    except OverflowError:
        assert expected > math.log(sys.float_info.max)


@pytest.mark.parametrize(("params", "t", "mgf"), PAST_DOUBLE_RANGE)
def test_log_past_double_range_is_a_named_overflow(params, t, mgf):
    p = make_params(*params)
    with pytest.raises(OverflowError, match=r"ln M_X\("):
        cgf_eval(p, t)
    if mgf == "overflow":
        with pytest.raises(OverflowError, match=r"M_X\("):
            mgf_eval(p, t)
    else:
        assert mgf_eval(p, t) == mgf


def test_log_stays_finite_while_one_term_does():
    # support starts at 0, so ln c_0 keeps the log-sum-exp finite at any t <= 0
    p = make_params(10, 5, 5)
    assert cgf_eval(p, -1e308) == math.log(1 / 252)
    assert mgf_eval(p, -1e308) == 1 / 252


@pytest.mark.parametrize("t", [math.inf, -math.inf])
def test_non_finite_t_keeps_its_behaviour(t):
    p = make_params(10, 8, 5)  # support starts at 3, so M_X(-inf) = 0
    with pytest.raises(OverflowError):
        cgf_eval(p, t)
    if t > 0:
        with pytest.raises(OverflowError):
            mgf_eval(p, t)
    else:
        assert mgf_eval(p, t) == 0.0
    assert cgf_eval(make_params(10, 5, 5), -math.inf) == math.log(1 / 252)
