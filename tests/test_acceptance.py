"""Acceptance gate: the eight go/no-go checks, one printed line each.

Every criterion prints ``[acceptance] <name>: PASS|FAIL`` to the real
terminal (bypassing capture) and then asserts.  Tolerances are zero for the
exact paths; the float criterion carries its stated numeric bounds.
"""

import math
import time
from fractions import Fraction

import pytest

from conftest import REGIONS_4_ROWS, grid_triples
from hypergen import (
    BranchTag,
    HypergenError,
    IndeterminateLegacyFormula,
    Terminating2F1,
    branch_polynomial,
    cf_eval,
    classify_regions,
    eval_terminating_2f1,
    factorial_moment,
    factorial_moment_closed_form,
    legacy_pgf_prefactor,
    legendre_case_pgf,
    make_params,
    mean,
    mgf_eval,
    oracle_factorial_moment,
    oracle_pgf,
    pgf_eval,
    pgf_eval_branch,
    pgf_polynomial,
    scaled_limit_2f1,
    transform_inverse_arg,
    transform_one_minus_z,
    variance,
)
from hypergen.cli import main as cli_main
from hypergen.verify import SAMPLE_Z

GRID_N = 30


@pytest.fixture(scope="module")
def full_grid():
    return grid_triples(GRID_N)


@pytest.fixture
def announce(capsys):
    def _announce(name: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
        assert ok, f"acceptance criterion failed: {name}"

    return _announce


def test_1_exhaustive_oracle_equivalence(full_grid, announce):
    start = time.perf_counter()
    mismatches = [
        (p.N, p.K, p.n)
        for p in full_grid
        if pgf_polynomial(p).coeffs != oracle_pgf(p).coeffs
    ]
    elapsed = time.perf_counter() - start
    announce(
        "exhaustive oracle equivalence (N<=30, exact, <60s)",
        mismatches == [] and elapsed < 60.0,
    )


def test_2_legacy_failure_surface(full_grid, announce):
    bad = []
    for p in full_grid:
        try:
            value = legacy_pgf_prefactor(p)
            raised = False
        except IndeterminateLegacyFormula:
            raised = True
        expected = p.n >= p.N - p.K + 1
        if raised != expected or (not raised and value <= 0):
            bad.append((p.N, p.K, p.n))
    announce("legacy formula fails exactly on {n >= N-K+1}", bad == [])


def test_3_branch_overlap(announce):
    ok = True
    for N in range(GRID_N + 1):
        for K in range(N + 1):
            p = make_params(N, K, N - K)
            if branch_polynomial(p, BranchTag.THM_A).coeffs != branch_polynomial(
                p, BranchTag.THM_B
            ).coeffs:
                ok = False
            for z in SAMPLE_Z:
                if pgf_eval_branch(p, z, BranchTag.THM_A) != pgf_eval_branch(
                    p, z, BranchTag.THM_B
                ):
                    ok = False
    announce("branch overlap agreement on n = N-K", ok)


def test_4_corollary_consistency(full_grid, announce, capsys):
    ok = True
    corollaries = {BranchTag.COR_1A, BranchTag.COR_1B, BranchTag.COR_2A, BranchTag.COR_2B}
    for p in full_grid:
        admitted = classify_regions(p) & corollaries
        for z in SAMPLE_Z:
            want = pgf_eval(p, z)
            for tag in admitted:
                if pgf_eval_branch(p, z, tag) != want:
                    ok = False

    code = cli_main(["regions", "4"])
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    if code != 0 or lines[0] != "n,K,tags" or lines[1:] != REGIONS_4_ROWS:
        ok = False
    center = next(line for line in lines if line.startswith("2,2,"))
    if set(center.split(",")[2].split("|")) != {
        "ThmA",
        "ThmB",
        "Cor1a",
        "Cor1b",
        "Cor2a",
        "Cor2b",
    }:
        ok = False
    announce("corollary branches agree; regions N=4 matches hand derivation", ok)


def test_5_moment_identities(full_grid, announce):
    ok = True
    z_power_path_hits = 0
    prop1_path_hits = 0
    for p in full_grid:
        fm1 = factorial_moment(p, 1)
        fm2 = factorial_moment(p, 2)
        if mean(p) != fm1 or variance(p) != fm2 + fm1 - fm1 * fm1:
            ok = False
        for r in range(1, min(p.n, p.K) + 3):
            derived = factorial_moment(p, r)
            if derived != factorial_moment_closed_form(p, r):
                ok = False
            if derived != oracle_factorial_moment(p, r):
                ok = False
            if p.n > p.N - p.K:
                if r <= p.n + p.K - p.N:
                    z_power_path_hits += 1
                else:
                    prop1_path_hits += 1
    if z_power_path_hits == 0 or prop1_path_hits == 0:
        ok = False

    # negative control: the printed rearrangement n!K!/(N!(K-r)!) is a typo
    p = make_params(4, 2, 3)
    for r in (1, 2):
        printed = Fraction(
            math.factorial(p.n) * math.factorial(p.K),
            math.factorial(p.N) * math.factorial(p.K - r),
        )
        if printed == oracle_factorial_moment(p, r):
            ok = False
    announce("moment identities, both derivative paths, typo control", ok)


def test_6_transformation_identities(full_grid, announce):
    ok = True
    transform_applications = 0
    for p in full_grid:
        N, K, n = p.N, p.K, p.n
        instances = []
        if n <= N - K:
            instances.append(Terminating2F1(-n, -K, N - K - n + 1))
        if n >= N - K:
            instances.append(Terminating2F1(n - N, K - N, n + K - N + 1))
        for f in instances:
            for z in SAMPLE_Z:
                if z != 0:
                    try:
                        pref, g, w = transform_inverse_arg(f, z)
                    except HypergenError:
                        pass
                    else:
                        transform_applications += 1
                        if pref * eval_terminating_2f1(g, w) != eval_terminating_2f1(f, z):
                            ok = False
                if z != 1:
                    try:
                        pref, g, w = transform_one_minus_z(f, z)
                    except HypergenError:
                        pass
                    else:
                        transform_applications += 1
                        if pref * eval_terminating_2f1(g, w) != eval_terminating_2f1(f, z):
                            ok = False
    if transform_applications == 0:
        ok = False

    recombinations = 0
    for p in full_grid:
        if p.n < p.N - p.K + 1:
            continue
        m = p.n + p.K - p.N - 1
        pref = Fraction(
            math.factorial(p.N - p.n) * math.factorial(p.N - p.K), math.factorial(p.N)
        )
        for z in SAMPLE_Z:
            recombinations += 1
            if pref * scaled_limit_2f1(-p.n, -p.K, m, z) != pgf_eval(p, z):
                ok = False
    if recombinations == 0:
        ok = False
    announce("argument transformations and scaled-limit recombination", ok)


def test_7_legendre_special_case(announce):
    ok = True
    for m in range(1, 9):
        p = make_params(2 * m, m, m)
        for z in SAMPLE_Z:
            if z == 1:
                continue
            if legendre_case_pgf(m, z) != pgf_eval(p, z):
                ok = False
    announce("Legendre form matches balanced-urn PGF for m = 1..8", ok)


def _float_criterion_triples():
    triples = grid_triples(12)
    for N in (20, 30, 40, 50):
        picks = sorted({0, 1, N // 4, N // 2, 3 * N // 4, N - 1, N})
        for K in picks:
            for n in picks:
                triples.append(make_params(N, K, n))
    return triples


def test_8_float_analytic_properties(announce):
    ok = True
    triples = _float_criterion_triples()
    t_grid = [k / 2 for k in range(-20, 21)]
    for p in triples:
        for t in t_grid:
            if abs(cf_eval(p, t)) > 1 + 1e-12:
                ok = False
        at_zero = cf_eval(p, 0.0)
        if abs(at_zero.real - 1.0) > 1e-14 or abs(at_zero.imag) > 1e-14:
            ok = False

        for t in (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
            exact = float(pgf_eval(p, Fraction(math.exp(t))))
            got = mgf_eval(p, t)
            if abs(got - exact) > 1e-10 * abs(exact):
                ok = False

        h = 1e-5
        fd = (mgf_eval(p, h) - mgf_eval(p, -h)) / (2 * h)
        mu = float(mean(p))
        if mu == 0.0:
            if abs(fd) > 1e-6:
                ok = False
        elif abs(fd - mu) > 1e-6 * abs(mu):
            ok = False
    announce("float-layer analytic properties (cf bound, mgf agreement, mean slope)", ok)
