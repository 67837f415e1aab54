"""Exact generating functions and moments of the hypergeometric distribution.

The distribution of white-ball counts when drawing ``n`` from ``N`` balls
of which ``K`` are white has a polynomial PGF with two closed-form
branches, four symmetric rewrites, exact factorial and raw moments, and a
brute-force oracle for verifying all of it.  All exact values are
:class:`fractions.Fraction`; floats appear only in the MGF/CF/CGF layer.
"""

from .core import (
    DomainError,
    HypergenError,
    HypergeomParams,
    PgfPolynomial,
    make_params,
)
from .distribution import (
    BranchTag,
    IndeterminateLegacyFormula,
    branch_polynomial,
    canonical_branch,
    cf_eval,
    cgf_eval,
    classify_regions,
    legacy_pgf_prefactor,
    legendre_case_pgf,
    mgf_eval,
    pgf_eval,
    pgf_eval_branch,
    pgf_polynomial,
    pmf,
)
from .hyp2f1 import (
    Terminating2F1,
    UndefinedHypergeometric,
    derivative_2f1,
    derivative_z_power_2f1,
    eval_terminating_2f1,
    gauss_value_at_one,
    pochhammer,
    prop1_derivative,
    scaled_limit_2f1,
    series_coefficients,
    transform_inverse_arg,
    transform_one_minus_z,
)
from .moments import (
    factorial_moment,
    factorial_moment_closed_form,
    falling_factorial,
    mean,
    raw_moments,
    stirling2_triangle,
    variance,
)
from .oracle import (
    BoundExceeded,
    oracle_factorial_moment,
    oracle_pgf,
)
from .verify import (
    CheckFailure,
    VerificationReport,
    oracle_grid_check,
)

__version__ = "0.1.0"

__all__ = [
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
