import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import REGIONS_4_ROWS, param_triples
from hypergen import (
    BranchTag,
    DomainError,
    IndeterminateLegacyFormula,
    branch_polynomial,
    canonical_branch,
    cf_eval,
    cgf_eval,
    classify_regions,
    legacy_pgf_prefactor,
    legendre_case_pgf,
    make_params,
    mgf_eval,
    oracle_pgf,
    pgf_eval,
    pgf_eval_branch,
    pgf_polynomial,
    pmf,
)

SAMPLE_Z = [Fraction(-2), Fraction(-1, 2), Fraction(1, 3), Fraction(1), Fraction(2), Fraction(7, 5)]


class TestPmf:
    def test_frozen(self):
        p = make_params(4, 2, 3)
        assert pmf(p, 0) == 0
        assert pmf(p, 1) == Fraction(1, 2)
        assert pmf(p, 2) == Fraction(1, 2)
        assert pmf(p, 3) == 0

    @given(param_triples())
    def test_sums_to_one(self, p):
        total = sum(pmf(p, k) for k in range(p.n + 1))
        assert total == 1

    @given(param_triples())
    def test_nonnegative_and_support(self, p):
        for k in range(-1, p.n + 2):
            mass = pmf(p, k)
            assert mass >= 0
            if not p.support_lo <= k <= p.support_hi:
                assert mass == 0


class TestRegions:
    def test_n4_table(self):
        for row in REGIONS_4_ROWS:
            n, K, tags = row.split(",")
            got = classify_regions(make_params(4, int(K), int(n)))
            want = set(tags.split("|"))
            assert {t.value for t in got} == want, row

    @given(param_triples())
    def test_rule(self, p):
        tags = classify_regions(p)
        assert (BranchTag.THM_A in tags) == (p.n <= p.N - p.K)
        assert (BranchTag.COR_1A in tags) == (p.n <= p.N - p.K)
        assert (BranchTag.THM_B in tags) == (p.n >= p.N - p.K)
        assert (BranchTag.COR_2B in tags) == (p.n >= p.N - p.K)
        assert (BranchTag.COR_1B in tags) == (p.n >= p.K)
        assert (BranchTag.COR_2A in tags) == (p.n <= p.K)

    @given(param_triples())
    def test_at_least_one_main_branch(self, p):
        tags = classify_regions(p)
        assert tags & {BranchTag.THM_A, BranchTag.THM_B}

    def test_canonical_branch_boundary(self):
        # the overlap line n = N-K resolves to the lower branch
        assert canonical_branch(make_params(6, 2, 4)) is BranchTag.THM_A
        assert canonical_branch(make_params(6, 2, 5)) is BranchTag.THM_B


class TestPolynomial:
    def test_frozen(self):
        poly = pgf_polynomial(make_params(4, 2, 3))
        assert poly.coeffs == (Fraction(0), Fraction(1, 2), Fraction(1, 2))
        poly = pgf_polynomial(make_params(5, 2, 2))
        assert poly.coeffs == (Fraction(3, 10), Fraction(3, 5), Fraction(1, 10))

    def test_degenerate(self):
        assert pgf_polynomial(make_params(0, 0, 0)).coeffs == (Fraction(1),)
        assert pgf_polynomial(make_params(7, 0, 4)).coeffs == (Fraction(1),)

    @given(param_triples(max_N=25))
    def test_coefficients_are_masses(self, p):
        poly = pgf_polynomial(p)
        assert poly.degree == p.support_hi
        for k in range(poly.degree + 1):
            assert poly.coefficient(k) == pmf(p, k)

    def test_matches_oracle_small_grid(self, small_grid):
        for p in small_grid:
            assert pgf_polynomial(p).coeffs == oracle_pgf(p).coeffs

    def test_branch_overlap_coefficients(self):
        # on n = N-K both main branches expand to the same polynomial
        for N in range(9):
            for K in range(N + 1):
                p = make_params(N, K, N - K)
                a = branch_polynomial(p, BranchTag.THM_A)
                b = branch_polynomial(p, BranchTag.THM_B)
                assert a.coeffs == b.coeffs

    def test_branch_polynomial_rejects_rewrites(self):
        p = make_params(4, 2, 3)
        with pytest.raises(DomainError):
            branch_polynomial(p, BranchTag.COR_1B)

    def test_branch_polynomial_rejects_invalid_region(self):
        with pytest.raises(DomainError):
            branch_polynomial(make_params(4, 2, 3), BranchTag.THM_A)


class TestEvaluation:
    def test_frozen(self):
        p = make_params(4, 2, 3)
        assert pgf_eval(p, 2) == 3
        assert pgf_eval(p, 0) == 0
        assert pgf_eval(p, Fraction(7, 5)) == Fraction(84, 50)

    @given(param_triples())
    def test_value_one_at_one(self, p):
        assert pgf_eval(p, 1) == 1

    @given(param_triples(max_N=20))
    def test_matches_polynomial(self, p):
        poly = pgf_polynomial(p)
        for z in SAMPLE_Z:
            assert pgf_eval(p, z) == poly(z)

    def test_rejects_float(self):
        with pytest.raises(DomainError):
            pgf_eval(make_params(4, 2, 3), 1.5)


class TestBranchEvaluation:
    def test_all_admitted_branches_agree(self, small_grid):
        for p in small_grid:
            want = pgf_polynomial(p)(Fraction(7, 5))
            for tag in classify_regions(p):
                assert pgf_eval_branch(p, Fraction(7, 5), tag) == want

    def test_invalid_branch_rejected(self):
        with pytest.raises(DomainError):
            pgf_eval_branch(make_params(4, 2, 3), 2, BranchTag.THM_A)
        with pytest.raises(DomainError):
            pgf_eval_branch(make_params(4, 2, 1), 2, BranchTag.COR_1B)

    def test_inverted_branches_reject_zero(self):
        p = make_params(4, 3, 3)  # n >= K admits the 1/z rewrite
        with pytest.raises(DomainError):
            pgf_eval_branch(p, 0, BranchTag.COR_1B)

    def test_cor1b_frozen(self):
        p = make_params(4, 3, 3)
        for z in (Fraction(-2), Fraction(2), Fraction(7, 5)):
            want = Fraction(3, 4) * z**2 + Fraction(1, 4) * z**3
            assert pgf_eval_branch(p, z, BranchTag.COR_1B) == want

    def test_cor2a_frozen(self):
        p = make_params(4, 3, 1)
        for z in (Fraction(-2), Fraction(2), Fraction(7, 5)):
            want = Fraction(1, 4) + Fraction(3, 4) * z
            assert pgf_eval_branch(p, z, BranchTag.COR_2A) == want


class TestLegacyPrefactor:
    def test_frozen(self):
        assert legacy_pgf_prefactor(make_params(4, 2, 2)) == Fraction(1, 6)
        assert legacy_pgf_prefactor(make_params(4, 0, 4)) == 1

    def test_failure_surface_small_grid(self, small_grid):
        for p in small_grid:
            if p.n >= p.N - p.K + 1:
                with pytest.raises(IndeterminateLegacyFormula):
                    legacy_pgf_prefactor(p)
            else:
                assert legacy_pgf_prefactor(p) > 0


class TestFloatKinds:
    def test_values_at_zero(self):
        p = make_params(4, 2, 3)
        assert mgf_eval(p, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert cgf_eval(p, 0.0) == pytest.approx(0.0, abs=1e-15)
        value = cf_eval(p, 0.0)
        assert value.real == pytest.approx(1.0, abs=1e-15)
        assert value.imag == pytest.approx(0.0, abs=1e-15)

    def test_mgf_overflow(self):
        with pytest.raises(OverflowError):
            mgf_eval(make_params(4, 2, 3), 1e4)

    @given(param_triples(max_N=30), st.floats(-10, 10))
    def test_cf_bounded(self, p, t):
        assert abs(cf_eval(p, t)) <= 1 + 1e-12

    def test_cgf_matches_log_mgf(self):
        p = make_params(8, 3, 5)
        for t in (-2.0, -0.5, 0.25, 1.5):
            assert cgf_eval(p, t) == pytest.approx(math.log(mgf_eval(p, t)), rel=1e-14)


class TestLegendreCase:
    def test_frozen(self):
        assert legendre_case_pgf(1, 0) == Fraction(1, 2)
        assert legendre_case_pgf(1, 3) == 2
        assert legendre_case_pgf(2, 2) == Fraction(13, 6)

    def test_matches_balanced_pgf(self):
        for m in range(1, 6):
            p = make_params(2 * m, m, m)
            for z in SAMPLE_Z:
                if z == 1:
                    continue
                assert legendre_case_pgf(m, z) == pgf_eval(p, z)

    def test_domain(self):
        with pytest.raises(DomainError):
            legendre_case_pgf(0, 2)
        with pytest.raises(DomainError):
            legendre_case_pgf(3, 1)
