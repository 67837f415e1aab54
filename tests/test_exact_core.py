"""The exact core at scale: running-product expansion and integer Horner evaluation.

References here come from ``math.comb`` and plain integer arithmetic only,
so they share no code with the series engine they check.
"""

import subprocess
import sys
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypergen
from hypergen import (
    BranchTag,
    Terminating2F1,
    canonical_branch,
    classify_regions,
    eval_terminating_2f1,
    make_params,
    pgf_eval_branch,
    pgf_polynomial,
    series_coefficients,
)
from hypergen.cli import main as cli_main


def binomial_row(m):
    """[C(m, 0), ..., C(m, m)]; one ``math.comb`` call per entry is too slow at m = 7500."""
    row = [1]
    for k in range(m):
        row.append(row[-1] * (m - k) // (k + 1))
    assert row[m // 3] == comb(m, m // 3)
    return row


def comb_pgf_value(N, K, n, z):
    """sum_k C(K,k) C(N-K,n-k) z^k / C(N,n), summed over integers with z = p/q."""
    z = Fraction(z)
    p, q = z.numerator, z.denominator
    white, black = binomial_row(K), binomial_row(N - K)
    lo, hi = max(0, n + K - N), min(n, K)
    num = sum(white[k] * black[n - k] * p**k * q ** (n - k) for k in range(lo, hi + 1))
    return Fraction(num, comb(N, n) * q**n)


@pytest.mark.parametrize(
    "N,K,n,branch",
    [
        (2000, 700, 900, BranchTag.THM_A),
        (2000, 1500, 1200, BranchTag.THM_B),
        (5000, 1800, 2500, BranchTag.THM_A),
        (5000, 3500, 4000, BranchTag.THM_B),
    ],
)
def test_pgf_polynomial_matches_comb_masses(N, K, n, branch):
    p = make_params(N, K, n)
    assert canonical_branch(p) is branch
    coeffs = pgf_polynomial(p).coeffs
    assert isinstance(coeffs, tuple)
    assert len(coeffs) == min(n, K) + 1
    total = comb(N, n)
    for k, c in enumerate(coeffs):
        assert type(c) is Fraction
        mass = comb(K, k) * comb(N - K, n - k)
        g = gcd(mass, total)
        assert (c.numerator, c.denominator) == (mass // g, total // g)


rational_z = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(1)),
    st.fractions(min_value=-5, max_value=-Fraction(1, 9), max_denominator=9),
    st.fractions(min_value=Fraction(1, 9), max_value=Fraction(8, 9), max_denominator=9),
    st.fractions(min_value=Fraction(10, 9), max_value=7, max_denominator=9),
)


@given(st.integers(-30, 0), st.integers(-30, 30), st.integers(1, 40), rational_z)
def test_eval_matches_series_coefficients(a, b, c, z):
    f = Terminating2F1(a, b, c)
    expected = sum((t * z**k for k, t in enumerate(series_coefficients(f))), Fraction(0))
    assert eval_terminating_2f1(f, z) == expected


@pytest.mark.parametrize("N,K,n", [(500, 250, 250), (500, 100, 300), (500, 400, 200), (501, 260, 240)])
@pytest.mark.parametrize("z", [Fraction(-2), Fraction(-3, 7), Fraction(1, 3), Fraction(1), Fraction(7, 5)])
def test_every_admitted_branch_agrees(N, K, n, z):
    p = make_params(N, K, n)
    want = comb_pgf_value(N, K, n, z)
    admitted = classify_regions(p)
    assert len(admitted) >= 3
    if (N, K, n) == (500, 250, 250):
        assert admitted == set(BranchTag)
    for tag in admitted:
        assert pgf_eval_branch(p, z, tag) == want, tag.value


def test_import_leaves_process_pool_unloaded():
    src = str(Path(hypergen.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import hypergen; "
        "print('concurrent.futures.process' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _digits(value):
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return str(value.numerator), str(value.denominator)
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return str(value.numerator), str(value.denominator)
    finally:
        set_limit(limit)


def test_cli_renders_values_past_the_digit_limit(capsys):
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = get_limit()
    assert cli_main(["eval", "15000", "7500", "7500", "--at", "2"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert get_limit() == limit
    num, den = out.strip().split("/")
    assert max(len(num), len(den)) > 4300
    want = comb_pgf_value(15000, 7500, 7500, 2)
    # int() of a long digit string is itself capped; compare digit strings instead.
    assert (num, den) == _digits(want)


def test_cli_refuses_an_over_long_argument(capsys):
    assert cli_main(["eval", "3", "1", "1", "--at", "1/" + "1" * 5000]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: rational argument too long")
