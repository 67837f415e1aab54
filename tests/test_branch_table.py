"""Every PGF branch is one row ``(x, y, s, inverted)`` of one expression.

The rows must reproduce the paper's formulas and admit a branch exactly
where :func:`classify_regions` does, and ``_branch_parts`` is where a branch
is admitted; the public surface must stay free of stale or repeated
exports.
"""

import argparse
import re

import pytest

import hypergen
from conftest import grid_triples
from hypergen import BranchTag, DomainError, branch_polynomial, classify_regions, make_params, pgf_eval_branch
from hypergen import cli, distribution


def _paper_latex(N, K, n):
    """The paper's two branch formulas, written out for one triple."""
    if n <= N - K:
        frac = f"\\frac{{{N - n}!\\,{N - K}!}}{{{N}!\\,{N - K - n}!}}"
        return f"G(z) = {frac}\\,{{}}_2F_1({-n}, {-K}; {N - K - n + 1}; z)"
    frac = f"\\frac{{{n}!\\,{K}!}}{{{N}!\\,{n + K - N}!}}"
    series = f"{{}}_2F_1({n - N}, {K - N}; {n + K - N + 1}; z)"
    return f"G(z) = {frac}\\,z^{{{n + K - N}}}\\,{series}"


def test_latex_is_the_papers_formula(capsys):
    for N in range(31):
        for K in range(N + 1):
            for n in range(N + 1):
                assert cli.cmd_pgf(argparse.Namespace(N=N, K=K, n=n, format="latex")) == 0
                assert capsys.readouterr().out == _paper_latex(N, K, n) + "\n", (N, K, n)


def test_row_exists_exactly_where_regions_admit():
    for N in range(13):
        for K in range(N + 1):
            for n in range(N + 1):
                p = make_params(N, K, n)
                admitted = classify_regions(p)
                for tag in BranchTag:
                    x, y, _, _ = distribution._branch_row(p, tag)
                    assert (x + y >= N) == (tag in admitted), (N, K, n, tag)


def test_branch_parts_refuse_every_row_regions_do_not_admit():
    for p in grid_triples(8):
        admitted = classify_regions(p)
        for tag in BranchTag:
            if tag not in admitted:
                with pytest.raises(DomainError, match=f"^branch {tag.value} is not valid for "):
                    distribution._branch_parts(p, tag)


def test_public_paths_keep_the_admission_message_and_its_precedence():
    p = make_params(4, 2, 3)
    message = r"^branch ThmA is not valid for \(N=4, K=2, n=3\)$"
    with pytest.raises(DomainError, match=message):
        branch_polynomial(p, BranchTag.THM_A)
    with pytest.raises(DomainError, match=message):
        pgf_eval_branch(p, 1.5, BranchTag.THM_A)  # the branch is refused before z is parsed
    with pytest.raises(DomainError, match="main branches, not Cor1b"):
        branch_polynomial(p, BranchTag.COR_1B)


@pytest.mark.parametrize("which", ["ThmA", None, 0, [], {}])
def test_a_tag_that_is_not_a_branch_tag_is_a_domain_error(which):
    p = make_params(4, 2, 1)
    message = f"unknown branch tag {which!r}"
    with pytest.raises(DomainError, match=re.escape(message)):
        branch_polynomial(p, which)
    with pytest.raises(DomainError, match=re.escape(message)):
        pgf_eval_branch(p, 2, which)


def test_every_export_resolves_once():
    names = hypergen.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(hypergen, name)]
    assert missing == []


def test_the_export_list_is_pinned():
    # Adding or removing a public name takes an edit here.
    assert sorted(hypergen.__all__) == [
        "BoundExceeded",
        "BranchTag",
        "CheckFailure",
        "DomainError",
        "HypergenError",
        "HypergeomParams",
        "IndeterminateLegacyFormula",
        "PgfPolynomial",
        "Terminating2F1",
        "UndefinedHypergeometric",
        "VerificationReport",
        "branch_polynomial",
        "canonical_branch",
        "cf_eval",
        "cgf_eval",
        "classify_regions",
        "derivative_2f1",
        "derivative_z_power_2f1",
        "eval_terminating_2f1",
        "factorial_moment",
        "factorial_moment_closed_form",
        "falling_factorial",
        "gauss_value_at_one",
        "legacy_pgf_prefactor",
        "legendre_case_pgf",
        "make_params",
        "mean",
        "mgf_eval",
        "oracle_factorial_moment",
        "oracle_grid_check",
        "oracle_pgf",
        "pgf_eval",
        "pgf_eval_branch",
        "pgf_polynomial",
        "pmf",
        "pochhammer",
        "prop1_derivative",
        "raw_moments",
        "scaled_limit_2f1",
        "series_coefficients",
        "stirling2_triangle",
        "transform_inverse_arg",
        "transform_one_minus_z",
        "variance",
    ]
