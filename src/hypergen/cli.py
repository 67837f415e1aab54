"""Command-line front end: evaluation, moment tables, grid verification, regions.

Output is byte-deterministic for fixed inputs and flags.  Exact values are
printed as ``p/q`` rationals (plain ``p`` when the denominator is 1); float
rendering is reserved for the inherently floating MGF/CF/CGF kinds.

Exit codes: 0 success, 1 verification found failures, 2 usage or domain
error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import distribution, moments, verify
from .core import DomainError, HypergenError, make_params
from .distribution import CANONICAL_TAG_ORDER, BranchTag

# integer or p/q with a positive denominator; anything float-shaped is refused
_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise DomainError(
            f"expected an integer or p/q rational, got {text!r} "
            "(floats are not accepted where exactness is required)"
        )
    try:
        return Fraction(text)
    except ValueError as exc:  # more digits than the interpreter's int-from-str limit
        raise DomainError(f"rational argument too long: {exc}") from None


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"expected a float, got {text!r}") from None


@contextlib.contextmanager
def _exact_rendering():
    """Lift the interpreter's int-to-str digit limit while results are printed.

    Exact outputs at large ``N`` have numerators and denominators of tens of
    thousands of digits.  Parsing input stays under the default guard.
    """
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is None:
        yield
        return
    previous = sys.get_int_max_str_digits()
    setter(0)
    try:
        yield
    finally:
        setter(previous)


def _fmt_float(x: float) -> str:
    # repr round-trips; integral values drop the trailing ".0" and -0.0
    # collapses to "0" so equal results print identically
    if x == 0:
        return "0"
    if math.isfinite(x) and x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _branch_label(p) -> str:
    return "3a" if distribution.canonical_branch(p) is BranchTag.THM_A else "3b"


def _latex_formula(p) -> str:
    """The branch formula with this triple's numbers substituted in."""
    N, K, n = p.N, p.K, p.n
    if distribution.canonical_branch(p) is BranchTag.THM_A:
        frac = f"\\frac{{{N - n}!\\,{N - K}!}}{{{N}!\\,{N - K - n}!}}"
        series = f"{{}}_2F_1({-n}, {-K}; {N - K - n + 1}; z)"
        return f"G(z) = {frac}\\,{series}"
    frac = f"\\frac{{{n}!\\,{K}!}}{{{N}!\\,{n + K - N}!}}"
    series = f"{{}}_2F_1({n - N}, {K - N}; {n + K - N + 1}; z)"
    return f"G(z) = {frac}\\,z^{{{n + K - N}}}\\,{series}"


def cmd_pgf(args: argparse.Namespace) -> int:
    p = make_params(args.N, args.K, args.n)
    if args.format == "latex":
        print(_latex_formula(p))
        return 0
    poly = distribution.pgf_polynomial(p)
    with _exact_rendering():
        if args.format == "json":
            payload = {"branch": _branch_label(p), "coeffs": [str(c) for c in poly.coeffs]}
            print(json.dumps(payload, separators=(",", ":")))
        else:
            print(" ".join(str(c) for c in poly.coeffs))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    p = make_params(args.N, args.K, args.n)
    if args.kind == "pgf":
        value = distribution.pgf_eval(p, _parse_rational(args.at))
        with _exact_rendering():
            print(value)
        return 0
    t = _parse_float(args.at)
    if args.kind == "mgf":
        print(_fmt_float(distribution.mgf_eval(p, t)))
    elif args.kind == "cgf":
        print(_fmt_float(distribution.cgf_eval(p, t)))
    else:
        value = distribution.cf_eval(p, t)
        print(f"{_fmt_float(value.real)} {_fmt_float(value.imag)}")
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    p = make_params(args.N, args.K, args.n)
    if args.max_r < 1:
        raise DomainError(f"--max-r must be >= 1 (got {args.max_r})")
    fms = [moments.factorial_moment(p, r) for r in range(1, args.max_r + 1)]
    raws = moments.raw_moments_from_factorial(fms)
    with _exact_rendering():
        for r in range(1, args.max_r + 1):
            print(f"fact[{r}]={fms[r - 1]}")
        for r in range(1, args.max_r + 1):
            print(f"raw[{r}]={raws[r - 1]}")
        print(f"mean={moments.mean(p)}")
        print(f"var={moments.variance(p)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    bound = None
    env = os.environ.get("HYPERGEN_N_MAX")
    if env is not None:
        try:
            bound = int(env)
        except ValueError:
            raise DomainError(f"HYPERGEN_N_MAX must be an integer, got {env!r}") from None
    report = verify.oracle_grid_check(args.n_max, bound=bound, jobs=args.jobs)
    print(f"checked {report.n_checked} triples, {report.n_failed} failures")
    for f in report.failures:
        print(f"FAIL N={f.N} K={f.K} n={f.n} {f.check}: {f.detail}")
    return 0 if report.n_failed == 0 else 1


def cmd_regions(args: argparse.Namespace) -> int:
    if args.N < 0:
        raise DomainError(f"N must be >= 0 (got {args.N})")
    print("n,K,tags")
    for n in range(args.N + 1):
        for K in range(args.N + 1):
            tags = distribution.classify_regions(make_params(args.N, K, n))
            ordered = "|".join(t.value for t in CANONICAL_TAG_ORDER if t in tags)
            print(f"{n},{K},{ordered}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypergen",
        description="Exact hypergeometric-distribution generating functions and moments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pgf = sub.add_parser("pgf", help="print the PGF of (N, K, n)")
    p_pgf.add_argument("N", type=int)
    p_pgf.add_argument("K", type=int)
    p_pgf.add_argument("n", type=int)
    p_pgf.add_argument("--format", choices=("coeffs", "latex", "json"), default="coeffs")
    p_pgf.set_defaults(func=cmd_pgf)

    p_eval = sub.add_parser("eval", help="evaluate a generating function at a point")
    p_eval.add_argument("N", type=int)
    p_eval.add_argument("K", type=int)
    p_eval.add_argument("n", type=int)
    p_eval.add_argument("--at", required=True, help="rational z for pgf, float t otherwise")
    p_eval.add_argument("--kind", choices=("pgf", "mgf", "cf", "cgf"), default="pgf")
    p_eval.set_defaults(func=cmd_eval)

    p_mom = sub.add_parser("moments", help="factorial and raw moment table")
    p_mom.add_argument("N", type=int)
    p_mom.add_argument("K", type=int)
    p_mom.add_argument("n", type=int)
    p_mom.add_argument("--max-r", type=int, default=2)
    p_mom.set_defaults(func=cmd_moments)

    p_ver = sub.add_parser("verify", help="run the oracle grid check")
    p_ver.add_argument("--n-max", type=int, default=30)
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.set_defaults(func=cmd_verify)

    p_reg = sub.add_parser("regions", help="CSV of admitted branch tags per (n, K)")
    p_reg.add_argument("N", type=int)
    p_reg.set_defaults(func=cmd_regions)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (HypergenError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
