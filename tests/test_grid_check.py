"""The grid check after hoisting branch parts out of the z loop, and the float-layer guards.

Each branch's parts are built once per triple and evaluated at every sample
point, so these tests corrupt one path at a time and make sure the grid
still reports it under the right check name, in the same order for any
``jobs``.
"""

import math
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypergen
from hypergen import (
    COROLLARY_TAGS,
    BranchTag,
    DomainError,
    PgfPolynomial,
    cf_eval,
    cgf_eval,
    make_params,
    mgf_eval,
    oracle_grid_check,
    pgf_eval_branch,
)
from hypergen import distribution, moments


def test_corrupted_rewrite_parts_fail_corollary_branch(monkeypatch):
    real = distribution._branch_parts

    def corrupted(p, which):
        pref, power, f, inverted = real(p, which)
        if which in COROLLARY_TAGS:
            pref *= 2
        return pref, power, f, inverted

    monkeypatch.setattr(distribution, "_branch_parts", corrupted)
    report = oracle_grid_check(3)
    assert report.n_failed == report.n_checked == 30
    assert report.failures
    assert {f.check for f in report.failures} == {"corollary_branch"}


def test_corrupted_inverted_evaluation_fails_grid_and_public_path(monkeypatch):
    # The grid and pgf_eval_branch share _eval_parts, so a fault in the
    # 1/z evaluation shows in both.
    real = distribution._eval_parts

    def corrupted(parts, z):
        value = real(parts, z)
        return value + 1 if parts[3] else value

    monkeypatch.setattr(distribution, "_eval_parts", corrupted)
    report = oracle_grid_check(4)
    assert report.n_failed > 0
    assert {f.check for f in report.failures} == {"corollary_branch"}
    assert all(f.detail.startswith(("Cor1b", "Cor2a")) for f in report.failures)
    p = make_params(4, 2, 3)
    assert pgf_eval_branch(p, 2, BranchTag.COR_1B) != pgf_eval_branch(p, 2, BranchTag.THM_B)


def test_corrupted_factorial_moment_fails_grid(monkeypatch):
    real = moments.factorial_moment
    monkeypatch.setattr(moments, "factorial_moment", lambda p, r: real(p, r) + Fraction(1, 7))
    report = oracle_grid_check(3)
    assert report.n_failed == report.n_checked
    assert {f.check for f in report.failures} == {"factorial_moment"}
    assert report.failures[0].detail.startswith("r=1: ")


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the corruption reaches pool workers only when they are forked",
)
def test_failing_grid_report_does_not_depend_on_jobs(monkeypatch):
    real = distribution.pgf_polynomial

    def corrupted(p):
        poly = real(p)
        if p.K != 1:
            return poly
        return PgfPolynomial(poly.coeffs[:-1] + (poly.coeffs[-1] + 1,))

    monkeypatch.setattr(distribution, "pgf_polynomial", corrupted)
    serial = oracle_grid_check(9)
    assert serial.n_failed > 25
    assert len({f.N for f in serial.failures}) > 2
    assert oracle_grid_check(9, jobs=2) == serial


def _fraction_horner(coeffs, z):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


@given(st.lists(rationals, min_size=1, max_size=12), rationals)
def test_polynomial_call_matches_fraction_horner(coeffs, z):
    assert PgfPolynomial(tuple(coeffs))(z) == _fraction_horner(coeffs, z)


@pytest.mark.parametrize(
    "coeffs",
    [
        (Fraction(0),),
        (Fraction(-3, 4), Fraction(5, 6), Fraction(-7, 10), Fraction(0), Fraction(11, 3)),
        (Fraction(2), Fraction(0), Fraction(0)),
        (1, -2, Fraction(1, 2**40), Fraction(-3, 9)),
    ],
)
@pytest.mark.parametrize("z", [0, 1, -1, Fraction(-2, 3), Fraction(7, 5), 10**6])
def test_polynomial_call_on_non_pgf_coefficients(coeffs, z):
    value = PgfPolynomial(coeffs)(z)
    assert isinstance(value, Fraction)
    assert value == _fraction_horner([Fraction(c) for c in coeffs], Fraction(z))


@pytest.mark.parametrize("fn", [mgf_eval, cf_eval, cgf_eval])
def test_nan_t_is_a_domain_error(fn):
    with pytest.raises(DomainError):
        fn(make_params(10, 5, 5), math.nan)


def test_cgf_underflow_is_an_overflow_error():
    with pytest.raises(OverflowError, match="underflows"):
        cgf_eval(make_params(10, 8, 5), -1000.0)


def _cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(hypergen.__file__).resolve().parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "hypergen", *argv], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "10", "8", "5", "--at=-1000", "--kind", "cgf"),
        ("eval", "10", "5", "5", "--at", "nan", "--kind", "mgf"),
        ("eval", "10", "5", "5", "--at", "nan", "--kind", "cgf"),
        ("eval", "10", "5", "5", "--at", "nan", "--kind", "cf"),
    ],
)
def test_cli_float_layer_errors_exit_2_without_traceback(argv):
    done = _cli(*argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr
    assert "overflows" not in done.stderr
