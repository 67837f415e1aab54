from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import param_triples
from hypergen import (
    DomainError,
    HypergenError,
    HypergeomParams,
    PgfPolynomial,
    make_params,
)
from hypergen.core import as_rational, binomial


class TestAsRational:
    def test_int(self):
        assert as_rational(3) == Fraction(3)

    def test_fraction_passthrough(self):
        assert as_rational(Fraction(2, 7)) == Fraction(2, 7)

    def test_string_ratio(self):
        assert as_rational("1/2") == Fraction(1, 2)

    def test_float_rejected(self):
        with pytest.raises(DomainError):
            as_rational(0.5)

    def test_garbage_rejected(self):
        with pytest.raises(DomainError):
            as_rational("two thirds")


class TestParams:
    @pytest.mark.parametrize("N,K,n", [(0, 0, 0), (5, 0, 0), (5, 5, 5), (4, 2, 3), (1, 0, 1)])
    def test_valid(self, N, K, n):
        p = make_params(N, K, n)
        assert (p.N, p.K, p.n) == (N, K, n)

    @pytest.mark.parametrize(
        "N,K,n,fragment",
        [
            (-1, 0, 0, "N must satisfy"),
            (4, 5, 1, "K must satisfy"),
            (4, -1, 1, "K must satisfy"),
            (4, 2, 5, "n must satisfy"),
            (4, 2, -1, "n must satisfy"),
        ],
    )
    def test_out_of_range(self, N, K, n, fragment):
        with pytest.raises(DomainError, match=fragment):
            make_params(N, K, n)

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            make_params(4, 2.0, 3)
        with pytest.raises(DomainError):
            make_params("4", 2, 3)

    def test_frozen(self):
        p = make_params(4, 2, 3)
        with pytest.raises(AttributeError):
            p.N = 5

    def test_domain_error_is_value_error(self):
        # callers using stdlib idioms should still catch these
        assert issubclass(DomainError, ValueError)
        assert issubclass(DomainError, HypergenError)


class TestSupport:
    @pytest.mark.parametrize(
        "N,K,n,lo,hi",
        [
            (4, 2, 3, 1, 2),
            (10, 3, 5, 0, 3),
            (6, 5, 4, 3, 4),
            (5, 0, 3, 0, 0),
            (5, 5, 3, 3, 3),
            (0, 0, 0, 0, 0),
        ],
    )
    def test_frozen(self, N, K, n, lo, hi):
        p = make_params(N, K, n)
        assert (p.support_lo, p.support_hi) == (lo, hi)

    @given(param_triples())
    def test_bounds(self, p):
        lo, hi = p.support_lo, p.support_hi
        assert lo == max(0, p.n + p.K - p.N)
        assert hi == min(p.n, p.K)
        assert 0 <= lo <= hi <= p.n


class TestBinomial:
    def test_matches_comb_in_range(self):
        for m in range(15):
            for j in range(m + 1):
                assert binomial(m, j) == comb(m, j)

    def test_zero_outside_range(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0
        assert binomial(0, 1) == 0

    def test_negative_m_rejected(self):
        with pytest.raises(DomainError):
            binomial(-1, 0)


class TestPgfPolynomial:
    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            PgfPolynomial(())

    def test_degree_and_coefficients(self):
        poly = PgfPolynomial((Fraction(0), Fraction(1, 2), Fraction(1, 2)))
        assert poly.degree == 2
        assert poly.coefficient(1) == Fraction(1, 2)
        assert poly.coefficient(5) == 0
        assert poly.coefficient(-1) == 0

    def test_call_is_exact(self):
        poly = PgfPolynomial((Fraction(1, 6), Fraction(2, 3), Fraction(1, 6)))
        z = Fraction(7, 5)
        expected = sum(c * z**k for k, c in enumerate(poly.coeffs))
        assert poly(z) == expected

    def test_call_rejects_float(self):
        poly = PgfPolynomial((Fraction(1),))
        with pytest.raises(DomainError):
            poly(0.5)

    def test_float_and_complex_eval(self):
        poly = PgfPolynomial((Fraction(0), Fraction(1, 2), Fraction(1, 2)))
        assert poly.eval_float(2.0) == pytest.approx(3.0, rel=1e-15)
        value = poly.eval_float(1 + 0j)
        assert value.real == pytest.approx(1.0, rel=1e-15)
        assert value.imag == 0.0

    def test_int_coefficients_coerced(self):
        poly = PgfPolynomial((1, 0))
        assert isinstance(poly.coeffs[0], Fraction)

    @given(st.lists(st.fractions(), min_size=1, max_size=8), st.fractions())
    def test_horner_matches_power_sum(self, coeffs, z):
        poly = PgfPolynomial(tuple(coeffs))
        assert poly(z) == sum(c * z**k for k, c in enumerate(coeffs))

    def test_frozen_immutable(self):
        poly = PgfPolynomial((Fraction(1),))
        with pytest.raises(AttributeError):
            poly.coeffs = (Fraction(2),)


@given(param_triples())
def test_params_index_semantics(p):
    # the support properties delimit exactly the outcomes of positive mass
    positive = [k for k in range(p.n + 1) if binomial(p.K, k) * binomial(p.N - p.K, p.n - k)]
    assert positive == list(range(p.support_lo, p.support_hi + 1))
