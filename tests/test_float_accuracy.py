"""The stated accuracy of the float layer over the whole range of t.

With ``u = 2^-53`` and ``d`` the degree, for t of either sign with |t|
from 5e-324 to 2000:

* ``cgf_eval`` and ``mgf_eval`` are within ``2(d+1)u`` relative where the
  true value is a normal double, and within ``(d+1)·2^-1074`` absolute
  where it is subnormal (or rounds to 0);
* ``cf_eval`` is within ``2(d+1)u`` absolute.  |phi_X(t)| <= 1, and it can
  be far below the double resolution, so no relative bound holds.

There is no absolute floor.  ``mgf_eval`` raises by design where M_X(t)
is too large for a double; those points are skipped.  References are
``mpmath`` at 50 digits.  Near M_X(t) = 1 the reference is ``log1p`` of
``sum c_k expm1(k t)``: a plain sum of ``exp(t k)`` loses ``M_X(t) - 1``
below |t| of about 1e-50, even at 50 digits.
"""

import math
import sys
from math import comb

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import param_triples
from hypergen import cf_eval, cgf_eval, make_params, mgf_eval
from hypergen.cli import main

U = 2.0**-53
TINY = 2.0**-1074


def mp_reference(N, K, n, t):
    """``(M_X(t), ln M_X(t), phi_X(t))`` at 50 digits."""
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        masses = [(comb(K, k) * comb(N - K, n - k), k) for k in range(min(n, K) + 1)]
        total = comb(N, n)
        excess = mpmath.fsum(c * mpmath.expm1(t * k) for c, k in masses) / total
        if excess > -0.5:
            mgf, log_mgf = 1 + excess, mpmath.log1p(excess)
        else:
            mgf = mpmath.fsum(c * mpmath.exp(t * k) for c, k in masses) / total
            log_mgf = mpmath.log(mgf)
        cf = mpmath.fsum(c * mpmath.expj(t * k) for c, k in masses) / total
        return mgf, log_mgf, cf


def within_bound(got, want, d):
    error = abs(mpmath.mpf(got) - want)
    if abs(want) >= sys.float_info.min:
        return error <= 2 * (d + 1) * U * abs(want)
    return error <= (d + 1) * TINY


log_uniform_t = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-1074, math.log2(2000))).map(
    lambda sign_exponent: sign_exponent[0] * 2.0 ** sign_exponent[1]
)


@settings(max_examples=300)
@given(param_triples(max_N=60), log_uniform_t)
@example(make_params(6, 4, 3), -706.8654248280031)  # M_X(t) subnormal, e^t normal
@example(make_params(42, 1, 9), 710.8217156770562)  # e^t overflows, M_X(t) does not
@example(make_params(60, 30, 30), -5e-324)
@example(make_params(60, 30, 30), 2000.0)
@example(make_params(20, 2, 5), -1.9e-320)
def test_float_kinds_meet_the_stated_bounds(p, t):
    mgf, log_mgf, cf = mp_reference(p.N, p.K, p.n, t)
    d = p.support_hi
    assert within_bound(cgf_eval(p, t), log_mgf, d)
    try:
        assert within_bound(mgf_eval(p, t), mgf, d)
    except OverflowError:
        assert mgf * (1 - 2 * (d + 1) * U) > sys.float_info.max
    assert abs(mpmath.mpc(cf_eval(p, t)) - cf) <= 2 * (d + 1) * U


@pytest.mark.parametrize("params", [(5, 0, 3), (5, 3, 0), (0, 0, 0)])
@pytest.mark.parametrize("t", [math.inf, -math.inf])
def test_point_mass_at_zero_at_infinite_t(params, t, capsys):
    # X = 0 always, so M_X = 1, ln M_X = 0 and phi_X = 1 at every t
    p = make_params(*params)
    assert mgf_eval(p, t) == 1.0
    assert cgf_eval(p, t) == 0.0
    phi = cf_eval(p, t)
    assert type(phi) is complex and phi == 1
    for kind in ("mgf", "cgf", "cf"):
        assert main(["eval", *map(str, params), f"--at={t}", f"--kind={kind}"]) == 0
    assert capsys.readouterr().out == "1\n0\n1 0\n"


@pytest.mark.parametrize("t", [math.inf, -math.inf])
def test_cf_at_infinite_t_is_an_overflow(t):
    # e^{it} has no value at t = ±inf, so phi_X(t) does not either unless X = 0
    with pytest.raises(OverflowError, match=r"phi_X\("):
        cf_eval(make_params(10, 5, 5), t)
