from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypergen import (
    DomainError,
    Terminating2F1,
    UndefinedHypergeometric,
    UseProposition1,
    derivative_2f1,
    derivative_z_power_2f1,
    eval_terminating_2f1,
    eval_terminating_2f1_float,
    gauss_value_at_one,
    pochhammer,
    prop1_derivative,
    scaled_limit_2f1,
    series_coefficients,
    transform_inverse_arg,
    transform_one_minus_z,
)

SAMPLE_Z = [Fraction(-2), Fraction(-1, 2), Fraction(1, 3), Fraction(1), Fraction(2), Fraction(7, 5)]

small_z = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=9)

# (m, b, c) for 2F1(-m, b; c; z) whose rewritten lower parameter 1-b-m is
# >= 1, i.e. b <= -m: exactly the triples both transformations accept.
rewritable_triples = st.integers(0, 6).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(-6, -m), st.integers(1, 8))
)


def eval_poly(coeffs, z):
    return sum((c * z**k for k, c in enumerate(coeffs)), Fraction(0))


def differentiate(coeffs, r):
    """r-th derivative of a coefficient tuple, term by term."""
    coeffs = tuple(coeffs)
    for _ in range(r):
        coeffs = tuple((k + 1) * coeffs[k + 1] for k in range(len(coeffs) - 1)) or (Fraction(0),)
    return coeffs


class TestConstruction:
    def test_termination_index(self):
        assert Terminating2F1(-2, -3, 1).termination_index == 3
        assert Terminating2F1(-3, 7, 2).termination_index == 4
        assert Terminating2F1(0, -5, 1).termination_index == 1

    def test_non_terminating_rejected(self):
        with pytest.raises(DomainError):
            Terminating2F1(1, 2, 3)

    def test_nonpositive_c_rejected(self):
        with pytest.raises(UndefinedHypergeometric):
            Terminating2F1(-2, 3, 0)
        with pytest.raises(UndefinedHypergeometric):
            Terminating2F1(-2, 3, -4)

    def test_frozen(self):
        f = Terminating2F1(-1, -2, 2)
        with pytest.raises(AttributeError):
            f.a = 0


class TestPochhammer:
    def test_frozen(self):
        assert pochhammer(3, 4) == 360
        assert pochhammer(-3, 5) == 0
        assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
        assert pochhammer(7, 0) == 1

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError):
            pochhammer(2, -1)

    @given(st.integers(-8, 8), st.integers(0, 10))
    def test_recurrence_int(self, a, k):
        assert pochhammer(a, k + 1) == pochhammer(a, k) * (a + k)

    @given(st.fractions(min_value=-9, max_value=9, max_denominator=7), st.integers(0, 8))
    def test_recurrence_fraction(self, a, k):
        assert pochhammer(a, k + 1) == pochhammer(a, k) * (a + k)


class TestEvaluation:
    def test_frozen_values(self):
        f = Terminating2F1(-1, -2, 2)
        assert eval_terminating_2f1(f, 2) == 3
        g = Terminating2F1(-2, -2, 1)
        assert eval_terminating_2f1(g, 1) == 6
        assert eval_terminating_2f1(g, 2) == 13

    def test_zero_upper_parameter_gives_one(self):
        f = Terminating2F1(0, -7, 3)
        for z in SAMPLE_Z:
            assert eval_terminating_2f1(f, z) == 1

    def test_series_coefficients_frozen(self):
        assert series_coefficients(Terminating2F1(-1, -2, 2)) == (Fraction(1), Fraction(1))
        assert series_coefficients(Terminating2F1(-2, -2, 1)) == (
            Fraction(1),
            Fraction(4),
            Fraction(1),
        )

    @given(st.integers(0, 8), st.integers(-8, 8), st.integers(1, 9), small_z)
    def test_series_matches_eval(self, m, b, c, z):
        f = Terminating2F1(-m, b, c)
        assert eval_poly(series_coefficients(f), z) == eval_terminating_2f1(f, z)

    @given(st.integers(0, 8), st.integers(-8, 0), st.integers(1, 9), small_z)
    def test_upper_parameter_symmetry(self, m, b, c, z):
        lhs = eval_terminating_2f1(Terminating2F1(-m, b, c), z)
        rhs = eval_terminating_2f1(Terminating2F1(b, -m, c), z)
        assert lhs == rhs

    def test_float_mirror_close(self):
        f = Terminating2F1(-6, -9, 4)
        for z in SAMPLE_Z:
            exact = float(eval_terminating_2f1(f, z))
            approx = eval_terminating_2f1_float(f, float(z))
            assert approx == pytest.approx(exact, rel=1e-12)

    def test_eval_rejects_float(self):
        with pytest.raises(DomainError):
            eval_terminating_2f1(Terminating2F1(-1, -2, 2), 0.5)


class TestValueAtOne:
    def test_frozen(self):
        assert gauss_value_at_one(Terminating2F1(-1, -2, 2)) == 2
        assert gauss_value_at_one(Terminating2F1(-2, -2, 2)) == Fraction(10, 3)

    @given(st.integers(0, 8), st.integers(-8, 8), st.integers(1, 9))
    def test_chu_vandermonde(self, m, b, c):
        # (c-b)_m / (c)_m for the -m upper parameter
        f = Terminating2F1(-m, b, c)
        assert gauss_value_at_one(f) == pochhammer(c - b, m) / pochhammer(c, m)


class TestScaledLimit:
    def test_frozen_quadratic(self):
        # (-3)_1 (-2)_1 / 1! * z * 2F1(-2, -1; 2; z) = 6 z (1 + z)
        for z in SAMPLE_Z:
            assert scaled_limit_2f1(-3, -2, 0, z) == 6 * z * (1 + z)

    def test_zero_shortcuts(self):
        assert scaled_limit_2f1(0, 5, 2, Fraction(7)) == 0
        assert scaled_limit_2f1(5, 0, 2, Fraction(7)) == 0
        assert scaled_limit_2f1(-1, -1, 3, Fraction(7)) == 0  # (-1)_4 = 0
        assert scaled_limit_2f1(-3, -2, 0, 0) == 0

    def test_negative_m_rejected(self):
        with pytest.raises(DomainError):
            scaled_limit_2f1(-3, -2, -1, 1)

    def test_nonterminating_rejected(self):
        with pytest.raises(UndefinedHypergeometric):
            scaled_limit_2f1(1, 1, 0, 1)

    @given(st.integers(1, 6), st.integers(0, 4), small_z)
    def test_series_identity(self, depth, m, z):
        # with a = -(m+1+j) the limit equals its defining rewrite expanded
        a = -(m + 1 + depth)
        b = -(m + 1)
        value = scaled_limit_2f1(a, b, m, z)
        pref = pochhammer(a, m + 1) * pochhammer(b, m + 1) / factorial(m + 1)
        if z == 0:
            assert value == 0
        else:
            g = Terminating2F1(a + m + 1, b + m + 1, m + 2)
            assert value == pref * z ** (m + 1) * eval_terminating_2f1(g, z)


class TestTransforms:
    def test_inverse_arg_frozen(self):
        f = Terminating2F1(-1, -2, 2)
        pref, g, w = transform_inverse_arg(f, 2)
        assert pref == 2
        assert (g.a, g.b, g.c) == (-1, -2, 2)
        assert w == Fraction(1, 2)
        assert pref * eval_terminating_2f1(g, w) == eval_terminating_2f1(f, 2) == 3

    def test_inverse_arg_rejects_zero(self):
        with pytest.raises(DomainError):
            transform_inverse_arg(Terminating2F1(-1, -2, 2), 0)

    def test_inverse_arg_rejects_positive_a(self):
        with pytest.raises(DomainError):
            transform_inverse_arg(Terminating2F1(3, -2, 1), 1)

    def test_inverse_arg_collision_rejected(self):
        # new lower parameter 1-b-m = -2 has no assigned value
        with pytest.raises(UndefinedHypergeometric):
            transform_inverse_arg(Terminating2F1(-2, 1, 3), 2)

    def test_one_minus_z_frozen(self):
        f = Terminating2F1(-1, -1, 1)
        pref, g, w = transform_one_minus_z(f, 3)
        assert pref * eval_terminating_2f1(g, w) == eval_terminating_2f1(f, 3) == 4
        h = Terminating2F1(-2, -2, 1)
        pref, g, w = transform_one_minus_z(h, 2)
        assert pref * eval_terminating_2f1(g, w) == eval_terminating_2f1(h, 2) == 13

    def test_one_minus_z_rejects_one(self):
        with pytest.raises(DomainError):
            transform_one_minus_z(Terminating2F1(-1, -2, 2), 1)

    @given(rewritable_triples, small_z.filter(lambda z: z != 0))
    def test_inverse_arg_identity(self, mbc, z):
        m, b, c = mbc
        f = Terminating2F1(-m, b, c)
        pref, g, w = transform_inverse_arg(f, z)
        assert pref * eval_terminating_2f1(g, w) == eval_terminating_2f1(f, z)

    @given(rewritable_triples, small_z.filter(lambda z: z != 1))
    def test_one_minus_z_identity(self, mbc, z):
        m, b, c = mbc
        f = Terminating2F1(-m, b, c)
        pref, g, w = transform_one_minus_z(f, z)
        assert pref * eval_terminating_2f1(g, w) == eval_terminating_2f1(f, z)


class TestDerivatives:
    @pytest.mark.parametrize("a,b,c", [(-3, -5, 2), (-1, -2, 2), (-4, 6, 3), (0, -2, 1)])
    @pytest.mark.parametrize("r", [0, 1, 2, 3, 4, 5])
    def test_parameter_shift_rule(self, a, b, c, r):
        f = Terminating2F1(a, b, c)
        scale, g = derivative_2f1(f, r)
        expected = differentiate(series_coefficients(f), r)
        for z in SAMPLE_Z:
            want = eval_poly(expected, z)
            if g is None:
                assert scale == 0
                assert want == 0
            else:
                assert scale * eval_terminating_2f1(g, z) == want

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            derivative_2f1(Terminating2F1(-1, -2, 2), -1)

    @pytest.mark.parametrize("a,b,c", [(-3, -5, 4), (-2, -2, 2), (-1, -4, 3)])
    def test_z_power_rule(self, a, b, c):
        f = Terminating2F1(a, b, c)
        product = (Fraction(0),) * (c - 1) + series_coefficients(f)
        for r in range(c):
            scale, power, g = derivative_z_power_2f1(a, b, c, r)
            expected = differentiate(product, r)
            for z in SAMPLE_Z:
                got = scale * z**power * eval_terminating_2f1(g, z)
                assert got == eval_poly(expected, z)

    def test_z_power_rule_dispatch_boundary(self):
        with pytest.raises(UseProposition1):
            derivative_z_power_2f1(-3, -5, 4, 4)
        with pytest.raises(UseProposition1):
            derivative_z_power_2f1(-3, -5, 4, 7)

    def test_z_power_rule_domain(self):
        with pytest.raises(DomainError):
            derivative_z_power_2f1(-3, -5, 0, 1)
        with pytest.raises(DomainError):
            derivative_z_power_2f1(-3, -5, 4, -1)

    @pytest.mark.parametrize("a,b,m", [(-3, -5, 4), (-2, -2, 2), (-1, -4, 3), (-1, -2, 2)])
    def test_prop1_supplement(self, a, b, m):
        product = (Fraction(0),) * (m - 1) + series_coefficients(Terminating2F1(a, b, m))
        for r in range(m, m + 8):
            scale, g = prop1_derivative(a, b, m, r)
            expected = differentiate(product, r)
            for z in SAMPLE_Z:
                want = eval_poly(expected, z)
                if g is None:
                    assert scale == 0
                    assert want == 0
                else:
                    assert scale * eval_terminating_2f1(g, z) == want

    def test_prop1_domain(self):
        with pytest.raises(DomainError):
            prop1_derivative(-1, -2, 0, 1)
        with pytest.raises(DomainError):
            prop1_derivative(-1, -2, 3, 2)

    def test_prop1_nonterminating_rejected(self):
        with pytest.raises(UndefinedHypergeometric):
            prop1_derivative(1, 1, 1, 1)

    def test_frozen_dispatch_example(self):
        # the r=2 moment of the (4,2,3) urn goes through the supplement rule
        scale, g = prop1_derivative(-1, -2, 2, 2)
        assert scale == 2
        assert g is not None and (g.a, g.b, g.c) == (0, -1, 2)
        assert scale * gauss_value_at_one(g) == 2
