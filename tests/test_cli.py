"""Command-line interface: the exit-code contract as one table, and how commands run."""

import io
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import takewhile
from math import comb, isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schreier.cli
import schreier.counting
import schreier.verify
from conftest import forbid, int_digits, patched
from schreier import (
    INTERVAL_LIMIT,
    DomainError,
    INTERVAL_SUM_LIMIT,
    ORACLE_LIMIT,
    Ratio,
    count_schreier_direct,
    enumerate_schreier,
    interval_count_closed,
    parse_bfile,
)
from schreier.cli import build_parser, main
from schreier.verify import SUITES

README = Path(__file__).resolve().parent.parent / "README.md"
WORKFLOW = README.parent / ".github" / "workflows" / "tests.yml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# every counting route a count or a sequence can reach, patched in its home module
ROUTES = {
    f"{schreier._HOME[name]}.{name}": forbid
    for name in [*schreier.cli._COUNT_METHODS.values(), "schreier_sequence"]
}


def _size_terms(n, ratio):
    """C(n - ceil(ps/q), s - 1) for s = 1, 2, ... while it can be nonzero."""
    s = 1
    while (top := n - -(-ratio.p * s // ratio.q)) >= s - 1:
        yield comb(top, s - 1)
        s += 1


def seeded(honest):
    """P's one term at (1, 1) starts at n = 0, not 1."""
    return lambda ratio, n_max: {
        start - (ratio == Ratio(1, 1)) for start in honest(ratio, n_max)
    }


def raising_at_9(error):
    """A gap collapse that raises ``error`` at every gap choice at n = 9."""

    def fault(honest):
        def collapse(batch, gaps):
            if gaps.n == 9:
                raise error
            return honest(batch, gaps)

        return collapse

    return fault


def usage(command, error):
    """argparse's refusal: its usage text, then the pattern ``error``."""
    return re.compile(f"usage: schreier {command} .*\nschreier {command}: error: {error}\n", re.S)


def count_of(n, ratio):
    """A check that stdout is count(n), by the direct sum, read with no digit limit."""

    def check(out):
        with int_digits(0):
            assert out == f"{count_schreier_direct(n, ratio)}\n"

    return check


def listing_of(n, ratio):
    """A check that stdout is the library's listing at n, count(n) lines by the direct sum."""

    def check(out):
        assert out == "".join(f"{member}\n" for member in enumerate_schreier(n, ratio))
        assert out.count("\n") == count_schreier_direct(n, ratio)

    return check


def terms_up_to(n, ratio):
    """A check that stdout lists n terms, the last of them count(n) by the direct sum."""

    def check(out):
        values = out.split(",")
        assert len(values) == n
        assert int(values[-1]) == count_schreier_direct(n, ratio)

    return check


def readme_examples():
    """Each ``$ schreier …`` line of the README, with the lines shown under it.

    Output that starts ``error: `` is a refusal's stderr, with any refusing
    code (the README shows no code); any other is stdout with code 0.
    """
    lines = README.read_text(encoding="utf-8").splitlines()
    for at, line in enumerate(lines):
        if line.startswith("$ schreier "):
            shown = takewhile(lambda text: not text.startswith(("$", "```")), lines[at + 1:])
            text = "".join(f"{shown_line}\n" for shown_line in shown)
            argv = line.removeprefix("$ schreier ")
            if text.startswith("error: "):
                yield f"readme-{at + 1}", argv, None, {}, None, "", text
            else:
                yield f"readme-{at + 1}", argv, None, {}, 0, text, ""


TOO_LONG = (
    "error: count too long to print: it has more decimal digits than "
    "sys.get_int_max_str_digits() = {}\n"
)
TOO_LARGE = "error: instance too large for {}: n={} exceeds the n <= {} guard\n"
POSITIVE = "error: {} must be a positive integer, got 0\n"
NON_NEGATIVE = "error: {} must be a non-negative integer, got -1\n"
OFFSET = "error: --offset {} outside the computed range 0..{}\n"
NO_CASES = "error: {}: the grid {} has no cases\n"
NO_Q_MAX = "error: suite '{}' takes no q_max bound\n"
ORACLE_31 = TOO_LARGE.format("oracle", ORACLE_LIMIT + 1, ORACLE_LIMIT)
SUM_PAST = TOO_LARGE.format("the interval sum", INTERVAL_SUM_LIMIT + 1, INTERVAL_SUM_LIMIT)
ENUM_PAST = TOO_LARGE.format("interval enumeration", INTERVAL_LIMIT + 1, INTERVAL_LIMIT)
ORACLE_SCANS = {"verify._subset_tally": forbid, "verify._listings": forbid}
BIJECTIONS = "verify --suite bijections --pmax 2 --qmax 2 --nmax 10"
GAP_GRID = "62 cases over 1<=p<=2, 1<=q<=2, p+q<=n<=10, all gap choices"
WINDOW_PASS = "window-bijections: pass (64 cases over 1<=p<=2, 1<=q<=2, p+q<=n<=10, 0 failures)\n"
COLLAPSE_RAISED = (  # every gap choice at n = 9 fails
    f"gap-bijections: FAIL ({GAP_GRID}, 8 failures)\n"
    "first counterexample: (p,q)=(1,1), n=9, gaps=(8,): collapse raised {}\n" + WINDOW_PASS
)

# turan --parts n counts the complete graph's n(n - 1)/2 edges: at K they
# print in all 640 digits that limit 640 allows, and one vertex more is refused
K = (1 + isqrt(8 * 10**640 - 7)) // 2
assert 10**639 <= K * (K - 1) // 2 < 10**640 <= (K + 1) * K // 2
# F(3065) has 641 digits, but no term of its size sum reaches 10^640 before
# n = 3072: the one-term check passes, and the computed count is refused
assert all(term < 10**640 for term in _size_terms(3065, Ratio(1, 1)))

# (id, argv, digit limit, {dotted name: fault}, exit code, stdout, stderr)
# The digit limit None leaves the interpreter's.  stdout is a check where the
# answer is too long to hold, and stderr a pattern for argparse's refusals,
# whose wording of choices differs across Python versions.
CONTRACT = [
    ("count", "count --p 1 --q 1 --n 10 --method recurrence", None, {}, 0, "55\n", ""),
    ("count-oracle", "count --p 1 --q 2 --n 4 --method oracle", None, {}, 0, "5\n", ""),
    ("count-direct-none", "count --p 2 --q 1 --n 1 --method direct", None, {}, 0, "0\n", ""),
    ("count-deep-none", "count --p 4000 --q 1 --n 5", None, {}, 0, "0\n", ""),
    ("count-deep-equal", "count --p 20000 --q 20000 --n 5", None, {}, 0, "5\n", ""),
    ("count-deep-coprime", "count --p 20000 --q 20001 --n 5", None, {}, 0, "5\n", ""),
    # n = 0 has no members on every route
    ("count-oracle-n0", "count --p 1 --q 1 --n 0 --method oracle", None, {}, 0, "0\n", ""),
    ("count-routes-oracle", "count --p 2 --q 3 --n 14 --method oracle", None, {}, 0, "799\n", ""),
    ("count-routes-recurrence", "count --p 2 --q 3 --n 14", None, {}, 0, "799\n", ""),
    ("count-routes-direct", "count --p 2 --q 3 --n 14 --method direct", None, {}, 0, "799\n", ""),
    # the default route and a forced one each give the direct sum's count at the
    # cell; (50, 51) runs the engine at depth 101, and (1, 200) prints 4204 digits
    *[(f"count-{method or 'default'}-{p}-{q}-{n}",
       f"count --p {p} --q {q} --n {n}" + (f" --method {method}" if method else ""), None, {}, 0,
       count_of(n, Ratio(p, q)), "")
      for forced, cells in [
          ("direct", [(3, 2, 9), (3, 2, 10), (3, 2, 4000), (3, 2, 4001), (50, 50, 20000),
                      (50, 51, 20000), (1, 200, 14000), (7, 3, 3001)]),
          ("oracle", [(3, 2, 16), (2, 3, 12)])]
      for p, q, n in cells for method in (None, forced)],
    ("sequence", "sequence --p 1 --q 1 --max 6 --format csv", None, {}, 0, "1,1,2,3,5,8\n", ""),
    ("sequence-max-1", "sequence --p 1 --q 1 --max 1 --format csv", None, {}, 0, "1\n", ""),
    ("sequence-bfile", "sequence --p 1 --q 2 --max 5 --format bfile", None, {}, 0,
     "1 1\n2 2\n3 3\n4 5\n5 9\n", ""),
    ("sequence-offset-0", "sequence --p 1 --q 1 --max 5 --offset 0", None, {}, 0,
     "0,1,1,2,3,5\n", ""),
    ("sequence-offset-0-max-6", "sequence --p 1 --q 1 --max 6 --offset 0", None, {}, 0,
     "0,1,1,2,3,5,8\n", ""),
    ("sequence-deep-offset-0", "sequence --p 20000 --q 20000 --max 5 --offset 0", None, {}, 0,
     "0,1,1,2,3,5\n", ""),
    ("sequence-bfile-offset-4", "sequence --p 1 --q 1 --max 6 --format bfile --offset 4", None,
     {}, 0, "4 3\n5 5\n6 8\n", ""),
    ("enumerate", "enumerate --p 1 --q 1 --n 3", None, {}, 0, "{3}\n{2,3}\n", ""),
    ("enumerate-n1", "enumerate --p 1 --q 1 --n 1", None, {}, 0, "{1}\n", ""),
    ("enumerate-none", "enumerate --p 3 --q 1 --n 2", None, {}, 0, "", ""),
    ("enumerate-n0", "enumerate --p 1 --q 1 --n 0", None, {}, 0, "", ""),
    *[(f"enumerate-{p}-{q}-{n}", f"enumerate --p {p} --q {q} --n {n}", None, {}, 0,
       listing_of(n, Ratio(p, q)), "") for p, q, n in [(2, 3, 12), (3, 2, 16)]],
    ("turan-formula", "turan --n 5 --parts 2 --method formula", None, {}, 0, "6\n", ""),
    ("turan-graph", "turan --n 7 --parts 3 --method graph", None, {}, 0, "16\n", ""),
    ("turan-one-part", "turan --n 3 --parts 1", None, {}, 0, "0\n", ""),
    ("turan-more-parts-than-vertices", "turan --n 3 --parts 5", None, {}, 0, "3\n", ""),
    # part sizes are counted, not listed: 10^12 of them need no memory
    ("turan-graph-10^12-parts", f"turan --n 3 --parts {10**12} --method graph", None, {}, 0,
     "3\n", ""),
    ("interval-closed", "interval-count --n 3 --p 2 --method closed", None, {}, 0, "5\n", ""),
    ("interval-sum", "interval-count --n 1 --p 9 --method sum", None, {}, 0, "1\n", ""),
    ("interval-enum", "interval-count --n 3 --p 5 --method enum", None, {}, 0, "6\n", ""),
    ("interval-default", "interval-count --n 3 --p 5", None, {}, 0, "6\n", ""),
    # the closed form has no guard
    ("interval-closed-10^12", f"interval-count --p 1 --n {10**12}", None, {}, 0,
     f"{interval_count_closed(10**12, 1)}\n", ""),
    ("verify-pass", "verify --suite recurrence --pmax 2 --qmax 2 --nmax 10", None, {}, 0,
     "recurrence: pass (40 cases over 1<=p<=2, 1<=q<=2, 1<=n<=10, 0 failures)\n", ""),
    ("verify-recurrence-nmax-16", "verify --suite recurrence --pmax 4 --qmax 4 --nmax 16", None,
     {}, 0, "recurrence: pass (256 cases over 1<=p<=4, 1<=q<=4, 1<=n<=16, 0 failures)\n", ""),
    ("verify-formula-nmax-1000", "verify --suite formula --pmax 2 --qmax 2 --nmax 1000", None,
     {}, 0, "formula: pass (4000 cases over 1<=p<=2, 1<=q<=2, 1<=n<=1000, 0 failures)\n", ""),
    ("verify-bijections", BIJECTIONS, None, {}, 0,
     f"gap-bijections: pass ({GAP_GRID}, 0 failures)\n" + WINDOW_PASS, ""),
    ("verify-turan-identity", "verify --suite turan-identity --pmax 5 --nmax 60", None, {}, 0,
     "turan-identity: pass (290 cases over 1<=p<=5, p<=n<=60, enumeration leg up to n=60, "
     "0 failures)\n", ""),
    # exit 1: a suite's failures, printed with its first counterexample
    ("verify-fault", "verify --suite recurrence --pmax 1 --qmax 1 --nmax 6", None,
     {"counting._starts": seeded}, 1,
     "recurrence: FAIL (6 cases over 1<=p<=1, 1<=q<=1, 1<=n<=6, 5 failures)\n"
     "first counterexample: (p,q)=(1,1), n=2: recurrence 2 != oracle 1\n", ""),
    # a map that raises is a failure at its cell, not a usage error or a traceback
    ("verify-collapse-raises-domain", BIJECTIONS, None,
     {"verify._collapse": raising_at_9(DomainError("boom domain"))}, 1,
     COLLAPSE_RAISED.format("DomainError: boom domain"), ""),
    ("verify-collapse-raises-runtime", BIJECTIONS, None,
     {"verify._collapse": raising_at_9(RuntimeError("boom postcondition"))}, 1,
     COLLAPSE_RAISED.format("RuntimeError: boom postcondition"), ""),
    # exit 2: a value out of range, refused by its own flag's name before any work
    ("count-p-0", "count --p 0 --q 1 --n 3", None, {}, 2, "", POSITIVE.format("--p")),
    ("count-q-0", "count --p 1 --q 0 --n 3", None, {}, 2, "", POSITIVE.format("--q")),
    ("count-n-minus-1", "count --p 1 --q 1 --n -1", None, {}, 2, "", NON_NEGATIVE.format("--n")),
    ("sequence-p-0", "sequence --p 0 --q 1 --max 3", None, {}, 2, "", POSITIVE.format("--p")),
    ("sequence-q-0", "sequence --p 1 --q 0 --max 3", None, {}, 2, "", POSITIVE.format("--q")),
    ("sequence-max-0", "sequence --p 1 --q 1 --max 0", None, {}, 2, "", POSITIVE.format("--max")),
    # --offset has no minimum of its own: it must lie in 0..--max
    ("sequence-offset-below-0", "sequence --p 1 --q 1 --max 5 --offset -1", None, {}, 2, "",
     OFFSET.format(-1, 5)),
    ("sequence-offset-past-max", "sequence --p 1 --q 1 --max 5 --offset 6", None, {}, 2, "",
     OFFSET.format(6, 5)),
    ("sequence-offset-far-past-max", "sequence --p 1 --q 1 --max 4 --offset 9", None, {}, 2, "",
     OFFSET.format(9, 4)),
    ("enumerate-p-0", "enumerate --p 0 --q 1 --n 3", None, {}, 2, "", POSITIVE.format("--p")),
    ("enumerate-q-0", "enumerate --p 1 --q 0 --n 3", None, {}, 2, "", POSITIVE.format("--q")),
    ("enumerate-n-minus-1", "enumerate --p 1 --q 1 --n -1", None, {}, 2, "",
     NON_NEGATIVE.format("--n")),
    ("turan-n-0", "turan --n 0 --parts 2", None, {}, 2, "", POSITIVE.format("--n")),
    ("turan-parts-0", "turan --n 5 --parts 0", None, {}, 2, "", POSITIVE.format("--parts")),
    ("interval-n-0", "interval-count --n 0 --p 1", None, {}, 2, "", POSITIVE.format("--n")),
    ("interval-p-0", "interval-count --n 3 --p 0", None, {}, 2, "", POSITIVE.format("--p")),
    ("verify-pmax-minus-1", "verify --pmax -1", None, {}, 2, "", NON_NEGATIVE.format("--pmax")),
    ("verify-qmax-minus-1", "verify --suite formula --qmax -1", None, {}, 2, "",
     NON_NEGATIVE.format("--qmax")),
    ("verify-nmax-minus-1", "verify --suite formula --nmax -1", None, {}, 2, "",
     NON_NEGATIVE.format("--nmax")),
    ("verify-turan-cross-nmax-minus-1", "verify --suite turan-cross --nmax -1", None, {}, 2, "",
     NON_NEGATIVE.format("--nmax")),
    # exit 2: a verify grid with no cases, or a bound the suite does not take
    ("verify-all-pmax-0", "verify --pmax 0", None, {}, 2, "",
     NO_CASES.format("recurrence", "1<=p<=0, 1<=q<=4, 1<=n<=20")),
    ("verify-turan-cross-pmax-0", "verify --suite turan-cross --pmax 0", None, {}, 2, "",
     NO_CASES.format("turan-cross", "1<=p<=0, p<=n<=300; two parts up to n=100")),
    ("verify-turan-cross-nmax-0", "verify --suite turan-cross --nmax 0", None, {}, 2, "",
     NO_CASES.format("turan-cross", "1<=p<=20, p<=n<=0; two parts up to n=100")),
    # no p, so no cell: the interval scan's guard is never reached
    ("verify-interval-pmax-0", f"verify --suite interval-agreement --pmax 0 --nmax "
     f"{INTERVAL_LIMIT + 1}", None, {}, 2, "",
     NO_CASES.format("interval-agreement", f"1<=p<=0, 1<=n<={INTERVAL_LIMIT + 1}")),
    ("verify-turan-cross-qmax", "verify --suite turan-cross --qmax 0", None, {}, 2, "",
     NO_Q_MAX.format("turan-cross")),
    ("verify-turan-identity-qmax", "verify --suite turan-identity --qmax 3 --pmax 3 --nmax 20",
     None, {}, 2, "", NO_Q_MAX.format("turan-identity")),
    # exit 2 from argparse itself: a flag missing, a choice or an int it cannot read
    ("count-n-missing", "count --p 1 --q 1", None, {}, 2, "",
     usage("count", "the following arguments are required: --n")),
    ("count-method-unknown", "count --p 1 --q 1 --n 4 --method psychic", None, {}, 2, "",
     usage("count", r"argument --method: invalid choice: 'psychic' \(choose from .*\)")),
    ("count-n-unreadable", "count --p 1 --q 1 --n ten", None, {}, 2, "",
     usage("count", "argument --n: invalid int value: 'ten'")),
    ("verify-suite-unknown", "verify --suite bogus", None, {}, 2, "",
     usage("verify", r"argument --suite: invalid choice: 'bogus' \(choose from .*\)")),
    # exit 3: a size guard, before any output or any cell
    ("count-oracle-past-guard", f"count --p 1 --q 1 --n {ORACLE_LIMIT + 1} --method oracle",
     None, {}, 3, "", ORACLE_31),
    ("enumerate-past-guard", f"enumerate --p 1 --q 1 --n {ORACLE_LIMIT + 1}", None, {}, 3, "",
     ORACLE_31),
    ("enumerate-n99", "enumerate --p 1 --q 1 --n 99", None, {}, 3, "",
     TOO_LARGE.format("oracle", 99, ORACLE_LIMIT)),
    ("interval-enum-at-guard", f"interval-count --p 2 --method enum --n {INTERVAL_LIMIT}", None,
     {}, 0, f"{interval_count_closed(INTERVAL_LIMIT, 2)}\n", ""),
    ("interval-enum-past-guard", f"interval-count --p 2 --method enum --n {INTERVAL_LIMIT + 1}",
     None, {}, 3, "", ENUM_PAST),
    ("interval-enum-past-guard-p1",
     f"interval-count --n {INTERVAL_LIMIT + 1} --p 1 --method enum", None, {}, 3, "", ENUM_PAST),
    ("interval-sum-past-guard", f"interval-count --p 1 --method sum --n {INTERVAL_SUM_LIMIT + 1}",
     None, {}, 3, "", SUM_PAST),
    ("interval-sum-10^12", f"interval-count --p 1 --method sum --n {10**12}", None, {}, 3, "",
     TOO_LARGE.format("the interval sum", 10**12, INTERVAL_SUM_LIMIT)),
    # at its guard, each brute-force route meets the closed form
    *[(f"interval-{method}-at-guard-p{p}", f"interval-count --n {n} --p {p} --method {method}",
       None, {}, 0, f"{interval_count_closed(n, p)}\n", "")
      for method, n, ps in [("enum", INTERVAL_LIMIT, (1, 7, 2001)),
                            ("sum", INTERVAL_SUM_LIMIT, (1, 3))]
      for p in ps],
    # the suites meet the same guards before their first cell
    ("verify-interval-past-guard",
     f"verify --suite interval-agreement --nmax {INTERVAL_LIMIT + 1}", None, {}, 3, "", ENUM_PAST),
    ("verify-turan-identity-past-sum-guard",
     f"verify --suite turan-identity --pmax 1 --nmax {INTERVAL_SUM_LIMIT + 1}", None,
     {"verify.interval_count_sum": forbid}, 3, "", SUM_PAST),
    *[(f"verify-{suite}-past-oracle-guard", f"verify --suite {suite} --nmax {ORACLE_LIMIT + 1}",
       None, ORACLE_SCANS, 3, "", ORACLE_31) for suite in ("recurrence", "bijections", "all")],
    # exit 4 under limit 640: F(4000) has 836 digits, and the Turán and interval
    # counts at n = 10^330 have 659; no counting route may run before the refusal
    *[(row_id, argv, 640, ROUTES, 4, "", TOO_LONG.format(640)) for row_id, argv in [
        ("digits-count", "count --p 1 --q 1 --n 4000"),
        ("digits-sequence-csv", "sequence --p 1 --q 1 --max 4000 --format csv"),
        ("digits-sequence-bfile", "sequence --p 1 --q 1 --max 4000 --format bfile"),
        ("digits-count-direct", "count --p 1 --q 1 --n 4000 --method direct"),
        ("digits-turan", f"turan --n {10**330} --parts 2"),
        ("digits-interval", f"interval-count --n {10**330} --p 1"),
    ]],
    ("digits-turan-at-limit", f"turan --n {K} --parts {K}", 640, {}, 0,
     f"{K * (K - 1) // 2}\n", ""),
    ("digits-turan-past-limit", f"turan --n {K + 1} --parts {K + 1}", 640, {}, 4, "",
     TOO_LONG.format(640)),
    # T(10^2199, 2) = 10^4398 / 4 has 4398 digits
    ("digits-turan-past-default-limit", f"turan --n {10**2199} --parts 2", 4300, {}, 4, "",
     TOO_LONG.format(4300)),
    # just past the limit: the route runs, and its count is refused
    *[(row_id, argv, 640, {}, 4, "", TOO_LONG.format(640)) for row_id, argv in [
        ("digits-just-past-count", "count --p 1 --q 1 --n 3065"),
        ("digits-just-past-count-direct", "count --p 1 --q 1 --n 3065 --method direct"),
        ("digits-just-past-sequence", "sequence --p 1 --q 1 --max 3065"),
    ]],
    # one term of the size sum refuses under limit 4300 before any route runs,
    # however deep (10^6 + 1) or wide (a pass 10^6 sums wide) or large n is
    *[(f"digits-one-term-{p}-{q}-{n}", f"count --p {p} --q {q} --n {n}", 4300, ROUTES, 4, "",
       TOO_LONG.format(4300))
      for p, q, n in [(6, 6, 10**6), (6, 6, 10**12), (1000000, 1, 10**9),
                      (1, 1000000, 2 * 10**6), (1000, 1, 10**7), (1, 300, 10**5)]],
    # the terms up to --max 300000 at (100000, 1) have 6 digits; no engine at
    # depth 100001 may size them first
    ("digits-deep-sequence", "sequence --p 100000 --q 1 --max 300000", 4300,
     {"counting.count_schreier_recurrence": forbid}, 0, terms_up_to(300000, Ratio(100000, 1)),
     ""),
    # a limit of 0 means no limit: the early check must not refuse anything
    ("digits-no-limit", "count --p 1 --q 1 --n 30000", 0, {}, 0, count_of(30000, Ratio(1, 1)), ""),
    *readme_examples(),
]

CODES = {
    "count": {0, 2, 3, 4},
    "sequence": {0, 2, 4},
    "enumerate": {0, 2, 3},
    "turan": {0, 2, 4},
    "interval-count": {0, 2, 3, 4},
    "verify": {0, 1, 2, 3},
}
"""The exit codes each command can return."""


@pytest.mark.parametrize(
    "argv, digit_limit, patches, code, out, err",
    [row[1:] for row in CONTRACT],
    ids=[row[0] for row in CONTRACT],
)
def test_each_input_gets_its_answer_or_its_refusal(
    capsys, monkeypatch, argv, digit_limit, patches, code, out, err
):
    with int_digits(digit_limit):
        patched(monkeypatch, patches)
        try:
            returned = main(argv.split())
        except SystemExit as exc:  # argparse refuses by exiting
            returned = exc.code
    stdout, stderr = capsys.readouterr()
    assert returned in {0, 1, 2, 3, 4}
    assert returned != 0 or stderr == ""
    assert returned not in {2, 3, 4} or stdout == ""
    assert "Traceback" not in stderr
    assert returned == code or code is None and returned in {2, 3, 4}
    if callable(out):
        out(stdout)
    else:
        assert stdout == out
    if isinstance(err, re.Pattern):
        assert err.fullmatch(stderr)
    else:
        assert stderr == err


def test_every_command_has_a_row_for_each_code_it_can_return():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(CODES) == set(sub.choices)
    rows = {(argv.split()[0], code) for _, argv, _, _, code, *_ in CONTRACT if code is not None}
    assert rows == {(command, code) for command, codes in CODES.items() for code in codes}


def test_every_cli_call_of_the_workflow_is_a_contract_row():
    # a CLI check lives here, so CI cannot grow a second copy of the contract;
    # a call's argv runs up to the first quote, bracket, pipe or redirection
    calls = re.findall(
        r"(?<![\w.])(?<!from )(?<!import )schreier(?![\w.])((?: +(?!\d*[<>])[^\s\"')|<>;&]+)*)",
        WORKFLOW.read_text(encoding="utf-8"),
    )
    rows = {tuple(argv.split()) for _, argv, *_ in CONTRACT}
    assert calls
    assert [call.strip() for call in calls if tuple(call.split()) not in rows] == []


def test_sequence_bfile_roundtrips(capsys):
    _, out, _ = run_cli(
        capsys, "sequence", "--p", "2", "--q", "3", "--max", "40", "--format", "bfile"
    )
    parsed = parse_bfile(out)
    assert parsed.entries[0][0] == 1
    assert parsed.entries[-1][0] == 40
    assert [v for _, v in parsed.entries] == [
        schreier.counting.count_schreier_recurrence(n, Ratio(2, 3))
        for n in range(1, 41)
    ]


def test_enumerate_streams_the_listing_byte_for_byte(capsys):
    for p in range(1, 4):
        for q in range(1, 4):
            for n in range(13):
                code, out, _ = run_cli(
                    capsys, "enumerate", "--p", str(p), "--q", str(q), "--n", str(n)
                )
                assert code == 0
                listing = enumerate_schreier(n, Ratio(p, q))
                assert out == "".join(f"{member}\n" for member in listing)


def test_enumerate_holds_one_member_at_a_time(monkeypatch):
    # every one of the 2**15 sets at n = 16 is a member for p/q = 1/100
    argv = ["enumerate", "--p", "1", "--q", "100", "--n", "16"]
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            streamed_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    listing = enumerate_schreier(16, Ratio(1, 100))
    # what the whole tuple holds: the members and their element tuples
    held = sys.getsizeof(listing) + sum(
        sys.getsizeof(fs) + sys.getsizeof(fs.elements) for fs in listing
    )
    assert len(listing) == 1 << 15
    assert streamed_peak * 20 < held


def child_env():
    """This package's directory first on PYTHONPATH; stdout buffered, as in a shell."""
    src = str(Path(schreier.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize(
    "argv, first_line",
    [
        # 2**17 members at n = 18 overrun any pipe buffer after the first line
        (["enumerate", "--p", "1", "--q", "100", "--n", "18"], b"{18}\n"),
        # a short answer is still in stdout's buffer when its command returns
        (["count", "--p", "1", "--q", "1", "--n", "10"], None),
    ],
    ids=["mid-listing", "at-the-last-flush"],
)
def test_a_closed_pipe_exits_141_without_a_traceback(argv, first_line):
    with subprocess.Popen(
        [sys.executable, "-m", "schreier", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    ) as child:
        if first_line is not None:
            assert child.stdout.readline() == first_line
        child.stdout.close()
        assert child.wait(timeout=60) == 141
        assert child.stderr.read() == b""


@pytest.mark.parametrize(
    "argv, out",
    [
        (["count", "--p", "1", "--q", "100000000", "--n", "5"], "16\n"),
        (["sequence", "--p", "1", "--q", "100000000", "--max", "3"], "1,2,4\n"),
    ],
    ids=["count", "sequence"],
)
def test_a_head_far_below_a_huge_depth_answers_within_10_s(argv, out):
    # depth 10^8 + 1: the pass builds only the running sums that n reaches
    child = subprocess.run(
        [sys.executable, "-m", "schreier", *argv],
        capture_output=True, text=True, env=child_env(), timeout=10,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, out, "")


def fresh_child(code):
    """stdout of ``code`` run by a new interpreter, which must exit 0 in silence."""
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert (child.returncode, child.stderr) == (0, "")
    return child.stdout


def test_importing_the_cli_leaves_the_verify_layers_unloaded():
    # measured against a bare interpreter, whatever its site start-up preloads;
    # only a listing merges strides, so no other command pays for heapq
    probe = "import sys{}; print(*sorted(sys.modules))"
    bare = set(fresh_child(probe.format("")).split())
    loaded = set(fresh_child(probe.format(", schreier.cli")).split())
    assert not {
        "schreier.verify", "schreier.bijections", "schreier.bfile", "dataclasses", "inspect",
        "heapq",
    } & (loaded - bare)
    assert {name for name in loaded if name.split(".")[0] == "schreier"} == {
        "schreier", "schreier.cli", "schreier.sets",
    }
    # the verify layers build their records on sets.Frozen, not dataclasses,
    # and run_suite reads the suites' bounds from __kwdefaults__, not inspect
    layers = ", schreier.verify, schreier.bijections, schreier.bfile"
    loaded = set(fresh_child(probe.format(layers)).split())
    assert not {"dataclasses", "inspect"} & (loaded - bare)


@pytest.mark.parametrize(
    "argv, layers",
    [
        ("count --p 1 --q 1 --n 10", {"counting"}),
        ("count --p 1 --q 1 --n 10 --method direct", {"counting"}),
        ("count --p 1 --q 1 --n 10 --method oracle", {"enumeration"}),
        ("sequence --p 1 --q 1 --max 6", {"counting"}),
        ("sequence --p 1 --q 1 --max 6 --format bfile", {"counting", "bfile"}),
        ("enumerate --p 1 --q 1 --n 4", {"enumeration"}),
        ("turan --n 5 --parts 2", {"turan"}),
        ("interval-count --n 3 --p 2 --method enum", {"enumeration"}),
        ("--help", set()),
    ],
    ids=["count", "count-direct", "count-oracle", "sequence-csv", "sequence-bfile",
         "enumerate", "turan", "interval-enum", "help"],
)
def test_each_command_loads_only_the_layers_it_runs(argv, layers):
    # the last line lists the package's modules, after the command's output
    # (--help exits 0 through the finally)
    out = fresh_child(
        "import sys\n"
        "from schreier.cli import main\n"
        "try:\n"
        f"    main({argv.split()!r})\n"
        "finally:\n"
        "    print(*sorted(m for m in sys.modules if m.split('.')[0] == 'schreier'))\n"
    )
    loaded = set(out.splitlines()[-1].split())
    assert loaded == {"schreier", "schreier.cli", "schreier.sets"} | {
        f"schreier.{layer}" for layer in layers
    }


def test_importing_the_package_loads_no_submodule_until_a_name_is_read():
    out = fresh_child(
        "import sys, schreier\n"
        "print(*[m for m in sys.modules if m.startswith('schreier.')])\n"
        "print(schreier.verify is sys.modules['schreier.verify'])\n"
        "print([n for n in schreier.__all__ if not hasattr(schreier, n)])"
    )
    assert out == "\nTrue\n[]\n"


def test_star_import_dir_and_unknown_names():
    out = fresh_child(
        "import schreier\n"
        "space = {}\n"
        "exec('from schreier import *', space)\n"
        "print(sorted(set(space) - {'__builtins__'}) == sorted(schreier.__all__))\n"
        "print(set(schreier.__all__) <= set(dir(schreier)))\n"
        "for name in ('no_such_name', 'no_such_module', '_private'):\n"
        "    try:\n"
        "        getattr(schreier, name)\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n"
    )
    assert out.splitlines() == [
        "True",
        "True",
        "module 'schreier' has no attribute 'no_such_name'",
        "module 'schreier' has no attribute 'no_such_module'",
        "module 'schreier' has no attribute '_private'",
    ]


def test_verify_suite_choices_come_from_the_registry():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    (suite,) = [a for a in sub.choices["verify"]._actions if a.dest == "suite"]
    assert list(suite.choices) == [*SUITES, "all"]


def test_verify_usage_names_every_registered_suite(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # the suite list on one help line
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "bogus"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "bogus" in err
    listed = err.rsplit("(choose from ", 1)[1].rstrip(")\n").split(", ")
    assert [name.strip("'") for name in listed] == [*SUITES, "all"]
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "-h"])
    assert excinfo.value.code == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines() if "one of" in line]
    assert line.split("one of ", 1)[1].split(", ") == [*SUITES, "all"]


def test_count_runs_the_engine_once_and_direct_never(capsys, monkeypatch):
    honest = schreier.counting.count_schreier_recurrence
    sized = []

    def recording(n, ratio):
        sized.append(n)
        return honest(n, ratio)

    monkeypatch.setattr(schreier.counting, "count_schreier_recurrence", recording)
    with int_digits(4300):
        code, out, _ = run_cli(capsys, "count", "--p", "6", "--q", "6", "--n", "20000")
        assert (code, sized) == (0, [20000])
        patched(monkeypatch, {"counting.count_schreier_recurrence": forbid,
                              "counting.schreier_sequence": forbid})
        assert run_cli(
            capsys, "count", "--p", "6", "--q", "6", "--n", "20000", "--method", "direct"
        ) == (0, out, "")


@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(0, 4000),
    st.sampled_from(["recurrence", "direct"]),
)
@example(1, 1, 3064, "recurrence")  # the largest n whose count fits
@example(1, 1, 3065, "direct")  # past the limit, though every term still fits
@example(1, 1, 3072, "recurrence")  # the first n with a term past the limit
@example(1, 40, 2153, "recurrence")
@settings(max_examples=60, deadline=None)
@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this interpreter has no int-to-str digit limit",
)
def test_count_exits_4_exactly_past_the_limit_and_early_on_a_long_term(p, q, n, method):
    # the lowest limit CPython allows is 640 digits; no size-sum term may
    # reach 10^640 unless the count does, and once one does, no route runs
    ratio = Ratio(p, q)
    count = count_schreier_direct(n, ratio)
    long_term = any(term >= 10**640 for term in _size_terms(n, ratio))
    assert not long_term or count >= 10**640
    with pytest.MonkeyPatch.context() as patch, int_digits(640):
        if long_term:
            patched(patch, ROUTES)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["count", "--p", str(p), "--q", str(q), "--n", str(n), "--method", method])
    if count >= 10**640:
        assert (code, out.getvalue()) == (4, "")
        assert "sys.get_int_max_str_digits() = 640" in err.getvalue()
    else:
        assert (code, out.getvalue()) == (0, f"{count}\n")
