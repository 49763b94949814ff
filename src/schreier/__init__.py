"""Exact counting and enumeration of min-constrained set families.

A family member at n is a finite set F of positive integers with
max F = n whose minimum is large relative to its size: q·min F ≥ p·|F|
for a fixed ratio p/q.  The package computes family sizes three
independent ways (brute force, a linear recurrence, a direct binomial
sum), exposes the structure-preserving maps that justify the
recurrence, and cross-checks the companion interval-family count
against Turán graph edge counts.  All arithmetic is exact.
"""

from .bfile import BFile, bfile_from_sequence, parse_bfile
from .bijections import (
    DomainError,
    GapSet,
    attach_window,
    collapse_gaps,
    expand_gaps,
    gap_window,
    strip_window,
)
from .counting import (
    count_schreier_direct,
    count_schreier_recurrence,
    schreier_sequence,
)
from .enumeration import (
    INTERVAL_LIMIT,
    ORACLE_LIMIT,
    OracleLimitError,
    count_interval_bruteforce,
    count_schreier_bruteforce,
    enumerate_schreier,
)
from .sets import FiniteSet, Ratio, in_schreier_family
from .turan import (
    interval_count_closed,
    interval_count_sum,
    turan_edges_construction,
    turan_edges_formula,
)
from .verify import (
    VerifyReport,
    formula_suite,
    gap_bijection_suite,
    interval_agreement_suite,
    recurrence_suite,
    run_suite,
    scale_invariance_suite,
    turan_cross_suite,
    turan_identity_suite,
    window_bijection_suite,
)

__version__ = "0.1.0"

__all__ = [
    "BFile",
    "DomainError",
    "FiniteSet",
    "GapSet",
    "INTERVAL_LIMIT",
    "ORACLE_LIMIT",
    "OracleLimitError",
    "Ratio",
    "VerifyReport",
    "attach_window",
    "bfile_from_sequence",
    "collapse_gaps",
    "count_interval_bruteforce",
    "count_schreier_bruteforce",
    "count_schreier_direct",
    "count_schreier_recurrence",
    "enumerate_schreier",
    "expand_gaps",
    "formula_suite",
    "gap_bijection_suite",
    "gap_window",
    "in_schreier_family",
    "interval_agreement_suite",
    "interval_count_closed",
    "interval_count_sum",
    "parse_bfile",
    "recurrence_suite",
    "run_suite",
    "scale_invariance_suite",
    "schreier_sequence",
    "strip_window",
    "turan_cross_suite",
    "turan_edges_construction",
    "turan_edges_formula",
    "turan_identity_suite",
    "window_bijection_suite",
]
