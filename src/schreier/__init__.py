"""Exact counting and enumeration of min-constrained set families.

A family member at n is a finite set F of positive integers with
max F = n whose minimum is large relative to its size: q·min F ≥ p·|F|
for a fixed ratio p/q.  The package computes family sizes three
independent ways (brute force, a linear recurrence, a direct binomial
sum), exposes the structure-preserving maps that justify the
recurrence, and cross-checks the companion interval-family count
against Turán graph edge counts.  All arithmetic is exact.

Each public name, and each submodule (``schreier.verify``, ...), loads on
first use (PEP 562), so ``import schreier`` reads no submodule and a
command line tool imports only the layers its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bfile": ("BFile", "bfile_from_sequence", "parse_bfile"),
    "bijections": (
        "DomainError",
        "GapSet",
        "attach_window",
        "collapse_gaps",
        "expand_gaps",
        "gap_window",
        "strip_window",
    ),
    "counting": (
        "count_schreier_direct",
        "count_schreier_recurrence",
        "schreier_sequence",
    ),
    "enumeration": (
        "INTERVAL_LIMIT",
        "ORACLE_LIMIT",
        "OracleLimitError",
        "count_interval_bruteforce",
        "count_schreier_bruteforce",
        "enumerate_schreier",
    ),
    "sets": ("FiniteSet", "Ratio"),
    "turan": (
        "INTERVAL_SUM_LIMIT",
        "interval_count_closed",
        "interval_count_sum",
        "turan_edges_construction",
        "turan_edges_formula",
    ),
    "verify": (
        "VerifyReport",
        "formula_suite",
        "gap_bijection_suite",
        "interval_agreement_suite",
        "recurrence_suite",
        "run_suite",
        "scale_invariance_suite",
        "turan_cross_suite",
        "turan_identity_suite",
        "window_bijection_suite",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    """A public name read from its submodule, or a submodule, imported on first use.

    Names are not cached here: each read returns what the submodule holds
    now, so a function replaced there (by a tracer, say) is replaced here too.
    """
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if not name.startswith("_"):
        try:
            return import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise  # the submodule exists but needs a module that does not
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
