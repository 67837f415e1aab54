import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given

import hypergen
from conftest import param_triples
from hypergen import (
    BoundExceeded,
    CheckFailure,
    DomainError,
    PgfPolynomial,
    VerificationReport,
    make_params,
    oracle_factorial_moment,
    oracle_grid_check,
    oracle_pgf,
)
from hypergen import distribution
from hypergen.oracle import DEFAULT_N_BOUND
from hypergen.verify import check_triple


class TestIndependence:
    def test_oracle_module_imports_only_core(self):
        # the oracle is ground truth for the series engine, so it must not
        # import it; checked on the source text itself
        source = Path(hypergen.oracle.__file__).read_text()
        tree = ast.parse(source)
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                modules.add(node.module or "")
        assert "core" in modules
        forbidden = {"hyp2f1", "distribution", "moments", "verify", "cli"}
        for name in modules:
            assert not any(part in forbidden for part in name.split(".")), name


class TestOraclePgf:
    def test_frozen(self):
        poly = oracle_pgf(make_params(4, 2, 3))
        assert poly.coeffs == (Fraction(0), Fraction(1, 2), Fraction(1, 2))

    @given(param_triples(max_N=25))
    def test_is_probability_vector(self, p):
        poly = oracle_pgf(p)
        assert sum(poly.coeffs) == 1
        assert all(c >= 0 for c in poly.coeffs)

    def test_default_bound(self):
        with pytest.raises(BoundExceeded):
            oracle_pgf(make_params(DEFAULT_N_BOUND + 1, 1, 1))
        oracle_pgf(make_params(DEFAULT_N_BOUND + 1, 1, 1), bound=DEFAULT_N_BOUND + 1)

    def test_explicit_bound(self):
        with pytest.raises(BoundExceeded):
            oracle_pgf(make_params(11, 2, 3), bound=10)
        with pytest.raises(DomainError):
            oracle_pgf(make_params(4, 2, 3), bound=-1)


class TestOracleFactorialMoment:
    def test_frozen(self):
        p = make_params(4, 2, 3)
        assert oracle_factorial_moment(p, 1) == Fraction(3, 2)
        assert oracle_factorial_moment(p, 2) == 1
        assert oracle_factorial_moment(p, 3) == 0

    def test_order_validation(self):
        with pytest.raises(DomainError):
            oracle_factorial_moment(make_params(4, 2, 3), 0)

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            oracle_factorial_moment(make_params(80, 2, 3), 1)


class TestReport:
    def test_round_trip(self):
        report = VerificationReport(
            n_checked=10,
            n_failed=1,
            failures=[CheckFailure(4, 2, 3, "pgf_coefficients", "expected x, got y")],
        )
        again = VerificationReport.from_json(report.to_json())
        assert again == report
        assert VerificationReport.from_dict(report.to_dict()) == report

    def test_json_shape(self):
        report = VerificationReport(n_checked=5, n_failed=0, failures=[])
        data = json.loads(report.to_json())
        assert data == {"n_checked": 5, "n_failed": 0, "failures": []}

    def test_failure_fields(self):
        report = VerificationReport(
            n_checked=1,
            n_failed=1,
            failures=[CheckFailure(2, 1, 1, "factorial_moment", "r=1: expected a, got b")],
        )
        entry = report.to_dict()["failures"][0]
        assert set(entry) == {"N", "K", "n", "check", "detail"}


class TestGridCheck:
    def test_smallest_grid(self):
        report = oracle_grid_check(1)
        assert report.n_checked == 5  # (0,0,0) plus the four N=1 triples
        assert report.n_failed == 0
        assert report.failures == []

    def test_clean_run(self):
        report = oracle_grid_check(6)
        assert report.n_failed == 0
        assert report.n_checked == sum((N + 1) ** 2 for N in range(7))

    def test_jobs_deterministic(self):
        assert oracle_grid_check(4, jobs=2) == oracle_grid_check(4, jobs=1)

    def test_validation(self):
        with pytest.raises(DomainError):
            oracle_grid_check(0)
        with pytest.raises(DomainError):
            oracle_grid_check(3, jobs=0)
        with pytest.raises(BoundExceeded):
            oracle_grid_check(5, bound=3)

    def test_check_triple_clean(self):
        assert check_triple(make_params(5, 3, 4)) == []

    def test_corruption_is_detected_and_counted(self, monkeypatch):
        real = distribution.pgf_polynomial

        def corrupted(p):
            poly = real(p)
            return PgfPolynomial(poly.coeffs[:-1] + (-poly.coeffs[-1],))

        monkeypatch.setattr(distribution, "pgf_polynomial", corrupted)
        report = oracle_grid_check(3)
        assert report.n_checked == 30
        assert report.n_failed == 30  # every triple trips the coefficient check
        assert len(report.failures) <= 25  # recorded list is capped, counts are not
        assert all(f.check in {"pgf_coefficients", "complement_identity"} for f in report.failures)
