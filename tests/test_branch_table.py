"""Every PGF branch is one row ``(x, y, s, inverted)`` of one expression.

The rows must reproduce the paper's formulas and admit a branch exactly
where :func:`classify_regions` does; the public surface must stay free of
stale or repeated exports.
"""

import argparse

import hypergen
from hypergen import BranchTag, classify_regions, make_params
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


def test_every_export_resolves_once():
    names = hypergen.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(hypergen, name)]
    assert missing == []
