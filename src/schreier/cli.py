"""Command-line front end.

Subcommands: ``count``, ``sequence``, ``enumerate``, ``turan``,
``interval-count``, ``verify``.  Counts are printed in full decimal --
exactness is the point.  Exit codes are a stable contract: 0 success,
1 verification failure, 2 usage error, 3 size guard exceeded,
4 count too long for the interpreter's int-to-decimal digit limit,
141 output pipe closed by its reader (128 + SIGPIPE, as a shell reports).
Each command's integer flags and their minimums sit in one table that
``main`` checks under each flag's name; ``sequence --offset``, whose
range is 0..``--max``, is declared apart and checked by ``cmd_sequence``.

A command imports only the layers it runs: the b-file writer loads
inside ``sequence --format bfile`` and the verification suites inside
``verify``, so building the parser and running a small count stay cheap.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from math import comb, lgamma, log

from .counting import (
    count_schreier_direct,
    count_schreier_recurrence,
    schreier_sequence,
)
from .enumeration import (
    INTERVAL_LIMIT,
    ORACLE_LIMIT,
    OracleLimitError,
    _members,
    count_interval_bruteforce,
    count_schreier_bruteforce,
)
from .sets import Ratio, _shown, require_int
from .turan import (
    INTERVAL_SUM_LIMIT,
    interval_count_closed,
    interval_count_sum,
    turan_edges_construction,
    turan_edges_formula,
)

_TURAN_METHODS = {
    "formula": turan_edges_formula,
    "graph": turan_edges_construction,
}
_INTERVAL_METHODS = {
    "sum": interval_count_sum,
    "closed": interval_count_closed,
    "enum": count_interval_bruteforce,
}


class _SuiteNames:
    """The ``--suite`` choices: every name in verify.SUITES, then "all".

    The registry is read when argparse first looks, which only a
    ``verify`` command or its help does.
    """

    def __iter__(self) -> Iterator[str]:
        from .verify import SUITES

        return iter([*SUITES, "all"])


class _DigitLimitError(Exception):
    """A count has more decimal digits than the interpreter will convert."""


def _digit_limit() -> int:
    """The interpreter's int-to-str digit limit; 0 (no limit) where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _within_limit(value: int) -> int:
    """``value`` unchanged, or _DigitLimitError if it is too long to print.

    CPython (3.10.7 onward) refuses to convert an int of more than
    sys.get_int_max_str_digits() decimal digits (0: no limit).  The limit
    is reported, not lifted, as the conversion it guards is quadratic.
    """
    limit = _digit_limit()
    if limit and value >= 10**limit:
        raise _DigitLimitError(
            "count too long to print: it has more decimal digits than "
            f"sys.get_int_max_str_digits() = {limit}"
        )
    return value


def _refuse_a_long_term(n: int, ratio: Ratio) -> None:
    """Exit 4 if a term of count(n) = sum_s C(n - ceil(ps/q), s - 1) is too long.

    A member of size s has min m >= ceil(ps/q) and its other s - 2 elements
    strictly between m and n, so each term is a lower bound on count(n).
    Floats only skip terms clearly below 10^D; the first exact term >= 10^D refuses.
    """
    limit = _digit_limit()
    k = 0  # the size s, less one
    while limit and (top := n + ratio.p * (k + 1) // -ratio.q) >= k:
        # log of top (top - 1) ... (top - k + 1); top^k bounds it from top = 2^32 on
        falling = lgamma(top + 1) - lgamma(top - k + 1) if top < 2**32 else k * log(top)
        if falling - lgamma(k + 1) > limit * log(10) - 1:
            _within_limit(comb(top, k))
        k += 1


def cmd_count(args: argparse.Namespace) -> int:
    ratio = Ratio(args.p, args.q)
    if args.method == "oracle":
        # it refuses n > ORACLE_LIMIT (exit 3), so its counts are always printable
        value = count_schreier_bruteforce(args.n, ratio)
    else:
        _refuse_a_long_term(args.n, ratio)
        direct = args.method == "direct"
        route = count_schreier_direct if direct else count_schreier_recurrence
        value = _within_limit(route(args.n, ratio))
    print(value)
    return 0


def cmd_sequence(args: argparse.Namespace) -> int:
    ratio = Ratio(args.p, args.q)
    start = args.offset
    if not 0 <= start <= args.max:
        raise ValueError(f"--offset {start} outside the computed range 0..{args.max}")
    # counts never decrease in n, so the term at --max is the longest one printed
    _refuse_a_long_term(args.max, ratio)
    sequence = schreier_sequence(ratio, args.max)
    _within_limit(sequence[-1])
    if args.format == "csv":
        print(",".join(map(str, sequence[start:])))
    else:
        from .bfile import bfile_from_sequence

        print(bfile_from_sequence(sequence, offset=start).render(), end="")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    # each member is printed as the scan finds it; the guard runs before the first
    for member in _members(args.n, Ratio(args.p, args.q)):
        print(_shown(member))
    return 0


def cmd_turan(args: argparse.Namespace) -> int:
    print(_within_limit(_TURAN_METHODS[args.method](args.n, args.parts)))
    return 0


def cmd_interval_count(args: argparse.Namespace) -> int:
    print(_within_limit(_INTERVAL_METHODS[args.method](args.n, args.p)))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite

    reports = run_suite(args.suite, args.pmax, args.qmax, args.nmax)
    for report in reports:
        print(report.summary())
    return 0 if all(report.passed for report in reports) else 1


def _ints(
    parser: argparse.ArgumentParser, minimums: dict[str, int], required: bool = True
) -> None:
    """Add each integer flag of ``minimums``; main checks it against its minimum."""
    for flag in minimums:
        parser.add_argument(flag, type=int, required=required)
    parser.set_defaults(minimums=minimums)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schreier",
        description="Exact counting, enumeration, and verification of "
        "min-constrained set families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="one family size |S(n)| for a ratio p/q")
    _ints(count, {"--p": 1, "--q": 1, "--n": 0})
    count.add_argument(
        "--method",
        choices=("direct", "oracle", "recurrence"),
        default="recurrence",
        help="oracle is exponential and guarded at n <= %d" % ORACLE_LIMIT,
    )
    count.set_defaults(func=cmd_count)

    sequence = sub.add_parser("sequence", help="family sizes for n = 1..max")
    _ints(sequence, {"--p": 1, "--q": 1, "--max": 1})
    sequence.add_argument("--format", choices=("csv", "bfile"), default="csv")
    sequence.add_argument(
        "--offset", type=int, default=1, help="first n emitted (default 1)"
    )
    sequence.set_defaults(func=cmd_sequence)

    enumerate_ = sub.add_parser("enumerate", help="list every family member at n")
    _ints(enumerate_, {"--p": 1, "--q": 1, "--n": 0})
    enumerate_.set_defaults(func=cmd_enumerate)

    turan = sub.add_parser("turan", help="edge count of the Turán graph T(n, parts)")
    _ints(turan, {"--n": 1, "--parts": 1})
    turan.add_argument("--method", choices=list(_TURAN_METHODS), default="formula")
    turan.set_defaults(func=cmd_turan)

    interval = sub.add_parser(
        "interval-count", help="qualifying intervals within {1..n}"
    )
    _ints(interval, {"--n": 1, "--p": 1})
    interval.add_argument(
        "--method",
        choices=sorted(_INTERVAL_METHODS),
        default="closed",
        help="sum is linear and guarded at n <= %d, enum is quadratic and "
        "guarded at n <= %d" % (INTERVAL_SUM_LIMIT, INTERVAL_LIMIT),
    )
    interval.set_defaults(func=cmd_interval_count)

    verify = sub.add_parser("verify", help="run a verification suite over its grid")
    # a metavar, so that argparse does not list the choices (and load the
    # registry) while it builds the parser
    verify.add_argument(
        "--suite",
        choices=_SuiteNames(),
        default="all",
        metavar="SUITE",
        help="one of %(choices)s",
    )
    _ints(verify, {"--pmax": 0, "--qmax": 0, "--nmax": 0}, required=False)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag, minimum in args.minimums.items():
            if (value := getattr(args, flag[2:])) is not None:  # None: not given
                require_int(flag, value, minimum)
        code = args.func(args)
        sys.stdout.flush()  # a reader gone before the last write shows here
        return code
    except BrokenPipeError:
        # not a failure of the answer: the reader stopped reading.  With
        # stdout on devnull the interpreter's final flush stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OracleLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _DigitLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
