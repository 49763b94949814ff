"""Self-test of the benchmark's checks, run before every measurement.

Each checker is fed outputs it must reject -- a wrong count, a b-file
that does not round-trip, a passing verify report with 0 cases, a
non-zero exit -- and every rejection must be counted in the failed ops
that fail_frac is computed from.  It also checks the pacing of
timings.  None of this needs schreier.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

from pace import EXPONENT, NOMINAL_S, paced
from reference import SEED_TERMS, Reference, residues_of, small_counts
from workloads import (
    Op,
    Tally,
    check_exit,
    check_report,
    check_residues,
    check_sequence,
)

FIB_100 = 354224848179261915075  # the (1,1) family size at n = 100


def run() -> list[str]:
    """Return a description of every check that misbehaved (empty when all pass)."""
    problems: list[str] = []
    ref = Reference()

    # The reference itself: the definition at small n, a known value far out.
    for p, q in ((1, 1), (2, 3), (6, 1)):
        seeds = small_counts(p, q, SEED_TERMS)
        for n in (1, p + q, SEED_TERMS):
            if ref.residues(p, q, n) != residues_of(seeds[n]):
                problems.append(f"reference disagrees with the definition at ({p},{q}), n={n}")
    if ref.residues(1, 1, 100) != residues_of(FIB_100):
        problems.append("reference misses Fibonacci at n=100")

    fib = ref.residues(1, 1, 100)
    digest = hashlib.sha256(b"55\n").hexdigest()
    report = SimpleNamespace(passed=True, failures=(), cases=288)
    entries = [(1, 1), (2, 1), (3, 2), (4, 3), (5, 5)]
    samples = [(5, residues_of(5))]
    good = [
        check_residues(FIB_100, fib),
        check_sequence(5, [0, 1, 1, 2, 3, 5], entries, samples),
        check_report(report, 288),
        check_exit(0, "55\n", digest),
    ]
    bad = [
        ("a wrong count", check_residues(FIB_100 + 1, fib), "wrong"),
        ("a bool for a count", check_residues(True, residues_of(1)), "wrong"),
        (
            "a b-file that does not round-trip",
            check_sequence(5, [0, 1, 1, 2, 3, 5], entries[:-1] + [(5, 6)], samples),
            "wrong",
        ),
        (
            "a wrong sampled term",
            check_sequence(5, [0, 1, 1, 2, 3, 6], entries[:-1] + [(5, 6)], samples),
            "wrong",
        ),
        (
            "a passing report with 0 cases",
            check_report(SimpleNamespace(passed=True, failures=(), cases=0), 288),
            "wrong",
        ),
        (
            "a failing report",
            check_report(SimpleNamespace(passed=False, failures=("x",), cases=288), 288),
            "wrong",
        ),
        ("a non-zero exit", check_exit(2, "", digest), "error"),
        ("a wrong stdout", check_exit(0, "56\n", digest), "wrong"),
    ]
    for i, failure in enumerate(good):
        if failure is not None:
            problems.append(f"correct output {i} rejected: {failure.detail}")
    tally = Tally()
    op = Op((), "selftest")
    for what, failure, kind in bad:
        if failure is None or failure.kind != kind:
            problems.append(f"{what} was not rejected as {kind}")
        tally.record(op, failure)
    for failure in good:
        tally.record(op, failure)
    expected_frac = len(bad) / (len(bad) + len(good))
    if tally.failed != len(bad) or tally.fail_frac != expected_frac:
        problems.append(
            f"fail_frac is {tally.fail_frac}, expected {expected_frac} "
            f"({tally.failed} of {tally.attempted} counted as failed)"
        )

    # Pacing: an op that ran while the kernel took twice NOMINAL_S reads
    # 2 ** EXPONENT times shorter; one disturbed kernel timing beside it does
    # not move it.
    slow = 2 * NOMINAL_S
    expected = 10.0 / 2**EXPONENT
    got = paced([10.0, 10.0], [slow, slow, 50 * slow])
    if any(abs(ms - expected) > 1e-9 for ms in got):
        problems.append(f"pacing gave {got}, expected {expected} twice")
    return problems


if __name__ == "__main__":
    import sys

    found = run()
    for line in found:
        print(f"self-test: {line}", file=sys.stderr)
    print("self-test:", "FAIL" if found else "pass")
    sys.exit(1 if found else 0)
