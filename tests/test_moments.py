from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import grid_triples, param_triples
from hypergen import (
    DomainError,
    Terminating2F1,
    derivative_2f1,
    derivative_z_power_2f1,
    factorial_moment,
    factorial_moment_closed_form,
    falling_factorial,
    gauss_value_at_one,
    make_params,
    mean,
    oracle_factorial_moment,
    prop1_derivative,
    raw_moments,
    stirling2_triangle,
    variance,
)
from hypergen.distribution import _branch_parts, canonical_branch


class TestFallingFactorial:
    def test_frozen(self):
        assert falling_factorial(5, 3) == 60
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(3, 5) == 0
        assert falling_factorial(-2, 2) == 6

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            falling_factorial(5, -1)

    @given(st.integers(-10, 10), st.integers(0, 8))
    def test_recurrence(self, x, r):
        assert falling_factorial(x, r + 1) == falling_factorial(x, r) * (x - r)


class TestFactorialMoment:
    def test_frozen(self):
        p = make_params(4, 2, 3)
        assert factorial_moment(p, 1) == Fraction(3, 2)
        assert factorial_moment(p, 2) == 1
        assert factorial_moment(p, 3) == 0

    def test_order_validation(self):
        with pytest.raises(DomainError):
            factorial_moment(make_params(4, 2, 3), 0)
        with pytest.raises(DomainError):
            factorial_moment_closed_form(make_params(4, 2, 3), 0)

    def test_both_derivative_paths(self):
        # (4,2,3) sits on the upper branch with z-power n+K-N = 1:
        # r=1 uses the product rule, r=2 its supplement; they must chain
        # into the same closed form
        p = make_params(4, 2, 3)
        assert factorial_moment(p, 1) == Fraction(
            falling_factorial(3, 1) * falling_factorial(2, 1), falling_factorial(4, 1)
        )
        assert factorial_moment(p, 2) == Fraction(
            falling_factorial(3, 2) * falling_factorial(2, 2), falling_factorial(4, 2)
        )

    def test_lower_branch_path(self):
        p = make_params(5, 2, 2)  # n <= N-K: plain parameter-shift rule
        assert factorial_moment(p, 1) == Fraction(4, 5)
        assert factorial_moment(p, 2) == Fraction(1, 5)

    @pytest.mark.parametrize(
        ("N", "K", "n"),
        [
            (20000, 6666, 10000),  # lower branch: parameter shift
            (20000, 15000, 10000),  # z-power 5000: the z-power rule
            (20000, 10001, 10000),  # z-power 1: the z-power rule, then Prop. 1
        ],
    )
    def test_each_rule_at_large_n(self, N, K, n):
        p = make_params(N, K, n)
        for r in range(1, 4):
            assert factorial_moment(p, r) == factorial_moment_closed_form(p, r)

    def test_matches_oracle_small_grid(self, small_grid):
        for p in small_grid:
            for r in range(1, min(p.n, p.K) + 3):
                assert factorial_moment(p, r) == oracle_factorial_moment(p, r)

    @given(param_triples(), st.integers(1, 8))
    def test_matches_closed_form(self, p, r):
        assert factorial_moment(p, r) == factorial_moment_closed_form(p, r)

    @given(param_triples(), st.integers(1, 6))
    def test_vanishes_past_degree(self, p, r):
        if r > min(p.n, p.K):
            assert factorial_moment(p, r) == 0

    def test_printed_form_negative_control(self):
        # the tempting rearrangement n! K! / (N! (K-r)!) is not the
        # factorial moment; it already disagrees at the first order
        p = make_params(4, 2, 3)
        wrong = Fraction(
            factorial(p.n) * factorial(p.K), factorial(p.N) * factorial(p.K - 1)
        )
        assert wrong == Fraction(1, 2)
        assert factorial_moment(p, 1) == Fraction(3, 2)
        assert wrong != factorial_moment(p, 1)


def by_the_public_rules(p, r):
    """The r-th factorial moment through the public rule that the branch selects."""
    pref, power, f, _ = _branch_parts(p, canonical_branch(p))
    if power == 0:
        scale, g = derivative_2f1(f, r)
    elif r <= power:
        scale, _power, g = derivative_z_power_2f1(f.a, f.b, f.c, r)
    else:
        scale, g = prop1_derivative(f.a, f.b, f.c, r)
    return pref * scale * gauss_value_at_one(g)


def test_factorial_moment_is_the_public_rules_composed():
    for p in grid_triples(14):
        for r in range(1, min(p.n, p.K) + 1):
            assert factorial_moment(p, r) == by_the_public_rules(p, r), (p, r)


def test_an_in_degree_moment_builds_only_the_branch_series(monkeypatch):
    built = []
    real = Terminating2F1.__post_init__

    def counted(self):
        built.append((self.a, self.b, self.c))
        real(self)

    monkeypatch.setattr(Terminating2F1, "__post_init__", counted)
    for p in grid_triples(9):
        f = _branch_parts(p, canonical_branch(p))[2]
        for r in range(1, min(p.n, p.K) + 1):
            built.clear()
            factorial_moment(p, r)
            assert built == [(f.a, f.b, f.c)], (p, r)


class TestMeanVariance:
    def test_frozen(self):
        p = make_params(4, 2, 3)
        assert mean(p) == Fraction(3, 2)
        assert variance(p) == Fraction(1, 4)

    def test_degenerate(self):
        assert mean(make_params(0, 0, 0)) == 0
        assert variance(make_params(0, 0, 0)) == 0
        assert variance(make_params(1, 1, 1)) == 0
        assert variance(make_params(9, 9, 4)) == 0  # all-white urn is deterministic

    @given(param_triples())
    def test_mean_is_first_factorial_moment(self, p):
        assert mean(p) == factorial_moment(p, 1)

    @given(param_triples())
    def test_variance_identity(self, p):
        fm1 = factorial_moment(p, 1)
        fm2 = factorial_moment(p, 2)
        assert variance(p) == fm2 + fm1 - fm1 * fm1


class TestStirlingTriangle:
    def test_frozen_rows(self):
        assert stirling2_triangle(4) == [
            [1],
            [0, 1],
            [0, 1, 1],
            [0, 1, 3, 1],
            [0, 1, 7, 6, 1],
        ]

    def test_row_sums_are_bell_numbers(self):
        rows = stirling2_triangle(7)
        assert [sum(r) for r in rows] == [1, 1, 2, 5, 15, 52, 203, 877]

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            stirling2_triangle(-1)


class TestRawMoments:
    def test_frozen(self):
        assert raw_moments(make_params(4, 2, 3), 2) == [Fraction(3, 2), Fraction(5, 2)]

    def test_validation(self):
        with pytest.raises(DomainError):
            raw_moments(make_params(4, 2, 3), 0)

    @given(param_triples())
    def test_first_two_identities(self, p):
        raw = raw_moments(p, 2)
        assert raw[0] == mean(p)
        assert raw[1] == variance(p) + mean(p) ** 2

    @given(param_triples(max_N=16))
    def test_matches_direct_expectation(self, p):
        from hypergen import pmf

        raw = raw_moments(p, 4)
        for j in range(1, 5):
            direct = sum(
                (Fraction(k**j) * pmf(p, k) for k in range(p.n + 1)), Fraction(0)
            )
            assert raw[j - 1] == direct
