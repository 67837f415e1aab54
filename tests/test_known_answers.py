"""Answers known in advance are not recomputed.

A Fraction is already normalised, factorial moments past the degree
``min(n, K)`` are 0, and the raw-moment change of basis needs no Stirling
column past the last nonzero factorial moment.  The references here use
``math.comb`` and plain integer sums only.
"""

import contextlib
import io
import time
from fractions import Fraction
from math import comb

from conftest import grid_triples
from hypergen import factorial_moment, moments, raw_moments
from hypergen.core import as_rational
from hypergen.cli import main


def test_as_rational_returns_a_fraction_itself():
    x = Fraction(-22, 7)
    assert as_rational(x) is x


def test_raw_moments_past_the_degree_are_the_literal_sums():
    for p in grid_triples(12):
        d = min(p.n, p.K)
        total = comb(p.N, p.n)
        weights = [comb(p.K, k) * comb(p.N - p.K, p.n - k) for k in range(d + 1)]
        expected = [
            Fraction(sum(k**j * w for k, w in enumerate(weights)), total) for j in range(1, d + 6)
        ]
        assert raw_moments(p, d + 5) == expected, p


def test_factorial_moment_past_the_degree_builds_no_branch(monkeypatch):
    def refuse(*args):
        raise AssertionError("branch parts built for an order past the degree")

    monkeypatch.setattr(moments, "_branch_parts", refuse)
    for p in grid_triples(9):
        for r in range(min(p.n, p.K) + 1, min(p.n, p.K) + 4):
            assert factorial_moment(p, r) == 0


def test_moments_table_far_past_the_degree_is_fast():
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["moments", "10", "5", "5", "--max-r", "2000"])
    assert time.perf_counter() - start < 5
    lines = out.getvalue().splitlines()
    assert code == 0
    assert len(lines) == 4002
    assert lines[5] == "fact[6]=0"
    assert lines[1999] == "fact[2000]=0"
    assert Fraction(lines[3999].partition("=")[2]) == sum(
        Fraction(k**2000 * comb(5, k) * comb(5, 5 - k), 252) for k in range(6)
    )
