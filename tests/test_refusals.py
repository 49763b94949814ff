"""The library's refusals as tables: each int parameter's minimum, and every other refusal.

Every public callable refuses a value of an int parameter that is not a
plain int at or above its minimum, with one ValueError text, before any
work.  ``CALLS`` makes a valid call of each callable and states each such
minimum, and one test puts a bad value in place of each valid one.  A
coverage test holds the parameters that ``CALLS`` refuses to the int
parameters that the signatures declare, so that a new one cannot go
unchecked.  ``REFUSALS`` holds every other refusal, one row each, with its
exact type and text.
"""

import inspect
import re
from functools import reduce

import pytest

import schreier
from conftest import forbid, int_digits, patched
from schreier import (
    INTERVAL_LIMIT,
    INTERVAL_SUM_LIMIT,
    ORACLE_LIMIT,
    DomainError,
    FiniteSet,
    GapSet,
    OracleLimitError,
    Ratio,
)
from schreier.verify import SUITES

R11, HALF, THIRD = Ratio(1, 1), Ratio(1, 2), Ratio(1, 3)
NO_CELL = {"verify._drive": forbid}

# (callable, a valid call's arguments by name, {int parameter: its minimum},
#  {dotted name: fault}), for each callable in schreier.__all__ and each
# public method of a class there.  The faults forbid the callable's work, so
# each refusal must come first.  A selection of run_suite passes only the
# bounds that one of its suites takes; every suite bound has minimum 0.
CALLS = [
    ("Ratio", {"p": 1, "q": 1}, {"p": 1, "q": 1}, {}),
    ("Ratio.scaled", {"self": Ratio(2, 2), "k": 2}, {"k": 1}, {}),
    ("GapSet", {"n": 3, "ratio": R11, "members": [2]}, {"n": 0}, {}),
    ("gap_window", {"n": 3, "ratio": R11}, {"n": 0}, {}),
    ("strip_window", {"fs": FiniteSet([2, 3]), "ratio": R11, "n": 3}, {"n": 0},
     {"bijections._in_family": forbid}),
    ("attach_window", {"fs": FiniteSet([1]), "ratio": R11, "n": 3}, {"n": 0},
     {"bijections._in_family": forbid}),
    ("count_schreier_direct", {"n": 5, "ratio": R11}, {"n": 0}, {}),
    ("count_schreier_recurrence", {"n": 5, "ratio": R11}, {"n": 0},
     {"counting.schreier_sequence": forbid}),
    ("schreier_sequence", {"ratio": R11, "n_max": 5}, {"n_max": 0}, {"counting._starts": forbid}),
    ("count_schreier_bruteforce", {"n": 5, "ratio": R11}, {"n": 0},
     {"enumeration.Counter": forbid}),
    ("enumerate_schreier", {"n": 5, "ratio": R11}, {"n": 0}, {"enumeration._within_cap": forbid}),
    ("count_interval_bruteforce", {"n": 5, "p": 1}, {"n": 1, "p": 1},
     {"enumeration._interval_tally": forbid}),
    ("interval_count_closed", {"n": 5, "p": 1}, {"n": 1, "p": 1}, {}),
    ("interval_count_sum", {"n": 5, "p": 1}, {"n": 1, "p": 1}, {}),
    ("turan_edges_construction", {"n": 5, "p": 2}, {"n": 1, "p": 1}, {}),
    ("turan_edges_formula", {"n": 5, "p": 2}, {"n": 1, "p": 1}, {}),
    ("bfile_from_sequence", {"sequence": (0, 1, 1), "offset": 1}, {"offset": 0},
     {"bfile.BFile": forbid}),
    *[("run_suite", {"name": name, **dict.fromkeys(bounds, 1)}, dict.fromkeys(bounds, 0), NO_CELL)
      for name, suites in [*SUITES.items(), ("all", sum(SUITES.values(), ()))]
      for bounds in [[bound for bound in ("p_max", "q_max", "n_max")
                      if any(bound in suite.__kwdefaults__ for suite in suites)]]],
    *[(suite.__name__, dict.fromkeys(suite.__kwdefaults__, 1),
       dict.fromkeys(suite.__kwdefaults__, 0), NO_CELL)
      for suites in SUITES.values() for suite in suites],
]


def resolve(dotted):
    """The object a dotted name (``Ratio.scaled``, ``enumeration._scan``) names in schreier."""
    return reduce(getattr, dotted.split("."), schreier)


def refusal(call, *args, **kwargs):
    """The type and text of what ``call`` raises; a call that returns fails the test."""
    try:
        returned = call(*args, **kwargs)
    except Exception as error:  # a forbidden name that ran shows as its AssertionError
        return type(error), str(error)
    pytest.fail(f"no refusal: returned {returned!r}")


def int_parameters():
    """(callable, parameter) for every int parameter that a public callable declares."""
    found = set()
    for name in schreier.__all__:
        obj = getattr(schreier, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, BaseException):
            continue  # a constant, or an exception, which takes only its message
        callables = [(name, obj)]
        if isinstance(obj, type):
            callables += [
                (f"{name}.{method}", function)
                for method, function in inspect.getmembers(obj, inspect.isfunction)
                if not method.startswith("_")
            ]
        for label, function in callables:
            found |= {
                (label, param.name)
                for param in inspect.signature(function).parameters.values()
                if param.annotation in ("int", "int | None", int, int | None)
            }
    return found


def test_every_int_parameter_has_a_minimum_and_a_call_that_refuses_below_it():
    refused = {(name, param) for name, _, minimums, _ in CALLS for param in minimums}
    # VerifyReport is exempt: a result record that only verify._drive builds,
    # from the cases it counted; its cases is no input of the package
    assert int_parameters() == refused | {("VerifyReport", "cases")}


@pytest.mark.parametrize(
    "name, param, minimum, valid, patches",
    [
        pytest.param(name, param, minimum, valid, patches, id="-".join(
            filter(None, (name, valid.get("name"), param))  # a run_suite selection's name
        ))
        for name, valid, minimums, patches in CALLS
        for param, minimum in minimums.items()
    ],
)
def test_each_int_parameter_refuses_what_is_not_an_int_at_its_minimum(
    monkeypatch, name, param, minimum, valid, patches
):
    # True and 3.0 equal ints, and 3.0 would pass a comparison with the minimum
    rule = "a positive" if minimum else "a non-negative"
    patched(monkeypatch, patches)
    for value in (True, 2.5, 3.0, "1", minimum - 1):
        assert refusal(resolve(name), **{**valid, param: value}) == (
            ValueError,
            f"{param} must be {rule} integer, got {value!r}",
        )


def constant(value):
    """A fault that returns ``value`` at every call."""
    return lambda honest: lambda *args: value


TOO_LARGE = "instance too large for {}: n={} exceeds the n <= {} guard"
ORACLE_PAST = TOO_LARGE.format("oracle", ORACLE_LIMIT + 1, ORACLE_LIMIT)
ENUM_PAST = TOO_LARGE.format("interval enumeration", INTERVAL_LIMIT + 1, INTERVAL_LIMIT)
SUM_PAST = TOO_LARGE.format("the interval sum", INTERVAL_SUM_LIMIT + 1, INTERVAL_SUM_LIMIT)
NOT_AN_N = "n must be a non-negative integer, got {!r}"
NOT_INTEGERS = "b-file entries must be integers, got {}"
NOT_A_PAIR = "b-file entries must be (index, value) pairs, got {}"
NOT_A_TOKEN = "line {}: non-integer token in {!r}"
OUTSIDER = "{} is not a member of the family at n={} for {}"
NO_CASES = "{}: the grid {} has no cases"
# the scan readers refuse at the call, before the scan's size pass or tally
SCAN_WORK = {"enumeration._within_cap": forbid, "enumeration.Counter": forbid}
ORACLE_SCANS = {"verify._subset_tally": forbid, "verify._listings": forbid}
GAP_3, GAPS_6_8 = GapSet(4, HALF, [3]), GapSet(9, THIRD, [8, 6])

# (id, dotted callable, positional arguments or a dict of keyword ones,
#  {dotted name: fault}, digit limit, exception type, exact text)
# The text is a pattern only where CPython writes it: the digit limit's.
REFUSALS = [
    # a set of positive integers: nonempty, each a plain int >= 1, no repeats
    ("finite-set-empty", "FiniteSet", ([],), {}, None, ValueError, "FiniteSet must be nonempty"),
    ("finite-set-0", "FiniteSet", ([0, 1],), {}, None, ValueError, "elements must be >= 1, got 0"),
    ("finite-set-negative", "FiniteSet", ([-2],), {}, None, ValueError,
     "elements must be >= 1, got -2"),
    ("finite-set-float", "FiniteSet", ([1.5, 2],), {}, None, TypeError,
     "elements must be integers, got 1.5"),
    ("finite-set-str", "FiniteSet", (["a"],), {}, None, TypeError,
     "elements must be integers, got 'a'"),
    ("finite-set-bool", "FiniteSet", ([True, 3],), {}, None, TypeError,
     "elements must be integers, got True"),
    ("finite-set-duplicate", "FiniteSet", ([2, 2, 3],), {}, None, ValueError,
     "duplicate element 2"),
    ("finite-set-duplicate-unsorted", "FiniteSet", ([5, 3, 5],), {}, None, ValueError,
     "duplicate element 5"),
    # b-file records: (index, value) pairs of plain ints whose indices step by 1
    ("bfile-index-skipped", "BFile", (((1, 1), (3, 2)),), {}, None, ValueError,
     "b-file indices must step by 1, got 1 then 3"),
    ("bfile-index-down", "BFile", (((2, 1), (1, 1)),), {}, None, ValueError,
     "b-file indices must step by 1, got 2 then 1"),
    ("bfile-float-index", "BFile", (((1.5, 1), (2.5, 1)),), {}, None, TypeError,
     NOT_INTEGERS.format("1.5")),
    ("bfile-bool-index", "BFile", (((True, 1), (2, 1)),), {}, None, TypeError,
     NOT_INTEGERS.format("True")),
    ("bfile-float-value", "BFile", (((1, 1), (2, 2.0)),), {}, None, TypeError,
     NOT_INTEGERS.format("2.0")),
    *[(f"bfile-{len(entry)}-tuple", "BFile", ([(0, 1), entry],), {}, None, ValueError,
       NOT_A_PAIR.format(entry)) for entry in [(1, 2, 3), (1,), ()]],
    # a value that is not an int is a TypeError, whatever the entry's length
    ("bfile-str-in-triple", "BFile", ([(1, 2, "x")],), {}, None, TypeError,
     NOT_INTEGERS.format("'x'")),
    ("bfile-str-alone", "BFile", ([("x",)],), {}, None, TypeError, NOT_INTEGERS.format("'x'")),
    ("bfile-float-in-pair", "BFile", ([(1, 2.0)],), {}, None, TypeError,
     NOT_INTEGERS.format("2.0")),
    # b-file text: what the records above render to is refused too
    ("parse-float-index", "parse_bfile", ("1.5 1\n2.5 1\n",), {}, None, ValueError,
     NOT_A_TOKEN.format(1, "1.5 1")),
    ("parse-bool-index", "parse_bfile", ("True 1\n2 1\n",), {}, None, ValueError,
     NOT_A_TOKEN.format(1, "True 1")),
    ("parse-float-value", "parse_bfile", ("1 1\n2 2.0\n",), {}, None, ValueError,
     NOT_A_TOKEN.format(2, "2 2.0")),
    ("parse-three-tokens", "parse_bfile", ("1 2 3\n",), {}, None, ValueError,
     "line 1: expected 'index value', got '1 2 3'"),
    ("parse-letter", "parse_bfile", ("1 x\n",), {}, None, ValueError,
     NOT_A_TOKEN.format(1, "1 x")),
    ("parse-superscript", "parse_bfile", ("1 ²\n",), {}, None, ValueError,
     NOT_A_TOKEN.format(1, "1 ²")),
    ("parse-comment-after-data", "parse_bfile", ("1 1\n# too late\n2 2\n",), {}, None,
     ValueError, "line 2: comment after data lines"),
    ("parse-index-skipped", "parse_bfile", ("1 1\n3 9\n",), {}, None, ValueError,
     "b-file indices must step by 1, got 1 then 3"),
    # int() reads each of these, but a b-file never holds one
    ("parse-underscore", "parse_bfile", ("1_0 5\n",), {}, None, ValueError,
     NOT_A_TOKEN.format(1, "1_0 5")),
    ("parse-arabic-indic", "parse_bfile", ("٧ 5\n",), {}, None, ValueError,
     NOT_A_TOKEN.format(1, "٧ 5")),
    ("parse-underscore-value", "parse_bfile", ("1 5\n2 1_000\n",), {}, None, ValueError,
     NOT_A_TOKEN.format(2, "2 1_000")),
    ("parse-fullwidth", "parse_bfile", ("# café data_set\n1 ５\n",), {}, None,
     ValueError, NOT_A_TOKEN.format(2, "1 ５")),
    ("parse-plus", "parse_bfile", ("+1 5\n",), {}, None, ValueError,
     NOT_A_TOKEN.format(1, "+1 5")),
    # a token of digits past the limit: CPython's text, after the line
    ("parse-value-past-digit-limit", "parse_bfile", ("1 5\n2 " + "7" * 700 + "\n",), {}, 640,
     ValueError, re.compile(r"line 2: Exceeds the limit \(640 digits\) .+")),
    ("parse-index-past-digit-limit", "parse_bfile", ("-" + "7" * 700 + " 5\n",), {}, 640,
     ValueError, re.compile(r"line 1: Exceeds the limit \(640 digits\) .+")),
    ("bfile-offset-past-range", "bfile_from_sequence", ((0, 1, 1, 2, 3, 5), 6), {}, None,
     ValueError, "offset 6 outside the computed range 0..5"),
    # the subset scan's guard, at the call of each reader
    ("enumerate-past-guard", "enumerate_schreier", (ORACLE_LIMIT + 1, R11), SCAN_WORK, None,
     OracleLimitError, ORACLE_PAST),
    ("bruteforce-past-guard", "count_schreier_bruteforce", (ORACLE_LIMIT + 1, R11), SCAN_WORK,
     None, OracleLimitError, ORACLE_PAST),
    ("bruteforce-far-past-guard", "count_schreier_bruteforce", (ORACLE_LIMIT + 5, R11),
     SCAN_WORK, None, OracleLimitError, TOO_LARGE.format("oracle", 35, ORACLE_LIMIT)),
    *[(f"{reader.split('._')[1]}-{n}", reader, (n, *rest), SCAN_WORK, None, error, text)
      for reader, rest in [
          ("enumeration._scan", ()),
          ("enumeration._members", (R11,)),
          ("enumeration._subset_tally", ()),
          ("enumeration._listings", ([R11, Ratio(2, 1)],)),
      ]
      for n, error, text in [
          (ORACLE_LIMIT + 1, OracleLimitError, ORACLE_PAST),
          (-1, ValueError, NOT_AN_N.format(-1)),
          (True, ValueError, NOT_AN_N.format(True)),
      ]],
    # the interval scan's and the interval sum's guards
    ("interval-brute-past-guard", "count_interval_bruteforce", (INTERVAL_LIMIT + 1, 3),
     {"enumeration.Counter": forbid}, None, OracleLimitError, ENUM_PAST),
    ("interval-tally-past-guard", "enumeration._interval_tally", (INTERVAL_LIMIT + 1,),
     {"enumeration.Counter": forbid}, None, OracleLimitError, ENUM_PAST),
    ("interval-tally-negative", "enumeration._interval_tally", (-1,), {}, None, ValueError,
     NOT_AN_N.format(-1)),
    ("interval-sum-past-guard", "interval_count_sum", (INTERVAL_SUM_LIMIT + 1, 3), {}, None,
     OracleLimitError, SUM_PAST),
    ("interval-sum-10^100", "interval_count_sum", (10**100, 1), {}, None, OracleLimitError,
     TOO_LARGE.format("the interval sum", 10**100, INTERVAL_SUM_LIMIT)),
    # the window below n, and the gap choices within it
    *[(f"gap-window-n{n}", "gap_window", (n, HALF), {}, None, ValueError,
       f"window needs n >= q + 1, got n={n} with q=2") for n in range(3)],
    ("gapset-empty", "GapSet", (6, THIRD, []), {}, None, ValueError,
     "a GapSet must name at least one window value"),
    ("gapset-n-itself", "GapSet", (6, THIRD, [6]), {}, None, ValueError,
     "gap values [6] fall outside the window 3..5"),
    ("gapset-below-a-one-value-window", "GapSet", (6, R11, [3]), {}, None, ValueError,
     "gap values [3] fall outside the window 5..5"),
    # 3.0 == 3 and True == 1 would pass the window test
    ("gapset-float", "GapSet", (5, HALF, [3.0]), {}, None, TypeError,
     "gap values must be integers, got 3.0"),
    ("gapset-bool", "GapSet", (3, HALF, [True]), {}, None, TypeError,
     "gap values must be integers, got True"),
    ("gapset-int-and-float", "GapSet", (5, HALF, [3, 3.0]), {}, None, TypeError,
     "gap values must be integers, got 3.0"),
    # each map's domain
    ("collapse-meets-the-gap", "collapse_gaps", (FiniteSet([3, 4]), GAP_3), {}, None,
     DomainError, "{3,4} meets the gaps at [3]"),
    ("collapse-meets-both-gaps", "collapse_gaps", (FiniteSet([6, 8, 9]), GAPS_6_8), {}, None,
     DomainError, "{6,8,9} meets the gaps at [6, 8]"),
    ("collapse-meets-one-gap", "collapse_gaps", (FiniteSet([1, 8, 9]), GAPS_6_8), {}, None,
     DomainError, "{1,8,9} meets the gaps at [8]"),
    ("collapse-fails-the-inequality", "collapse_gaps", (FiniteSet([1, 2, 4]), GAP_3), {}, None,
     DomainError, OUTSIDER.format("{1,2,4}", 4, "1/2")),
    ("collapse-wrong-maximum", "collapse_gaps", (FiniteSet([2, 3]), GAP_3), {}, None,
     DomainError, OUTSIDER.format("{2,3}", 4, "1/2")),
    ("expand-non-member", "expand_gaps", (FiniteSet([1, 2, 3]), GAP_3), {}, None, DomainError,
     OUTSIDER.format("{1,2,3}", 3, "1/2")),
    # {3,4} fails 1*3 >= 2*2
    ("strip-non-member", "strip_window", (FiniteSet([3, 4]), Ratio(2, 1), 4), {}, None,
     DomainError, OUTSIDER.format("{3,4}", 4, "2/1")),
    ("strip-misses-the-window", "strip_window", (FiniteSet([2, 4, 5]), HALF, 5), {}, None,
     DomainError, "{2,4,5} misses window values [3]"),
    ("strip-below-p-plus-q", "strip_window", (FiniteSet([1]), R11, 1), {}, None, DomainError,
     "map needs n >= p + q = 2, got n=1"),
    ("attach-non-member", "attach_window", (FiniteSet([1, 2]), R11, 4), {}, None, DomainError,
     OUTSIDER.format("{1,2}", 2, "1/1")),
    ("attach-no-room-below", "attach_window", (FiniteSet([1]), R11, 2), {}, None, DomainError,
     OUTSIDER.format("{1}", 0, "1/1")),
    # {1,3} fails 1*1 >= 1*2
    ("attach-fails-the-inequality", "attach_window", (FiniteSet([1, 3]), R11, 5), {}, None,
     DomainError, OUTSIDER.format("{1,3}", 3, "1/1")),
    # a batch fails as its first refused member does alone (the rows above)
    ("collapse-batch", "bijections._collapse", ([(3, 9), (1, 8, 9), (4, 7, 9), (6, 8, 9)],
     GAPS_6_8), {}, None, DomainError, "{1,8,9} meets the gaps at [8]"),
    ("attach-batch", "bijections._attach", ([(3,), (2, 3), (1, 3), (1, 2)], R11, 5), {}, None,
     DomainError, OUTSIDER.format("{1,3}", 3, "1/1")),
    # a failed postcondition is a bug in the map, not bad input
    ("collapse-postcondition", "collapse_gaps", (FiniteSet([2, 4]), GAP_3),
     {"bijections.bisect_left": constant(0)}, None, RuntimeError,
     "relabeling broke membership: {2,4} -> {2,4} at n=3"),
    ("expand-postcondition", "expand_gaps", (FiniteSet([2, 3]), GAP_3),
     {"bijections.bisect_right": constant(0)}, None, RuntimeError,
     "re-opening gaps produced a non-member: {2,3} -> {2,3}"),
    ("strip-postcondition", "strip_window", (FiniteSet([2, 4, 5]), HALF, 5),
     {"bijections.gap_window": constant(())}, None, RuntimeError,
     "window strip broke membership: {2,4,5} -> {1} at n=2"),
    ("attach-postcondition", "attach_window", (FiniteSet([1]), R11, 3),
     {"bijections.gap_window": constant((0,))}, None, RuntimeError,
     "window attach produced a non-member: {1} -> {2,3}"),
    # run_suite: an unknown name, a grid with no cases, a bound no suite takes
    ("run-suite-unknown", "run_suite", ("no-such-suite",), {}, None, ValueError,
     "unknown suite 'no-such-suite'"),
    ("run-suite-no-p", "run_suite", ("recurrence", 0, 2, 8), {}, None, ValueError,
     NO_CASES.format("recurrence", "1<=p<=0, 1<=q<=2, 1<=n<=8")),
    # turan-cross would still run its quarter squares without a formula cell
    ("turan-cross-no-p", "run_suite", ("turan-cross", 0), {}, None, ValueError,
     NO_CASES.format("turan-cross", "1<=p<=0, p<=n<=300; two parts up to n=100")),
    ("turan-cross-no-n", "run_suite", ("turan-cross", None, None, 0), {}, None, ValueError,
     NO_CASES.format("turan-cross", "1<=p<=20, p<=n<=0; two parts up to n=100")),
    # only q_max is missing anywhere: the interval and Turán suites have no q
    *[(f"{name}-q_max-{'-'.join(map(str, bounds))}", "run_suite", (name, *bounds), NO_CELL,
       None, ValueError, f"suite '{name}' takes no q_max bound")
      for name in ("interval-agreement", "turan-cross", "turan-identity")
      for bounds in [(None, 0, None), (3, 3, 20)]],
    # each suite takes its bounds by keyword only
    *[(f"{suite.__name__}-positional", suite.__name__, (2,), NO_CELL, None, TypeError,
       f"{suite.__name__}() takes 0 positional arguments but 1 was given")
      for suites in SUITES.values() for suite in suites],
    # the suites meet the scans' guards before their first scan, with cells and without
    *[(f"{suite}-p_max-{p_max}-past-oracle-guard", suite,
       {"p_max": p_max, "q_max": 1, "n_max": ORACLE_LIMIT + 1}, ORACLE_SCANS, None,
       OracleLimitError, ORACLE_PAST)
      for suite in ("recurrence_suite", "gap_bijection_suite", "window_bijection_suite")
      for p_max in (1, 0)],
    ("interval-agreement-past-guard", "interval_agreement_suite",
     {"n_max": INTERVAL_LIMIT + 1}, {"verify.interval_count_sum": forbid}, None,
     OracleLimitError, ENUM_PAST),
    ("turan-identity-past-sum-guard", "turan_identity_suite",
     {"p_max": 1, "n_max": INTERVAL_SUM_LIMIT + 1},
     {"verify.interval_count_sum": forbid, "verify._interval_tally": forbid}, None,
     OracleLimitError, SUM_PAST),
]


@pytest.mark.parametrize(
    "name, args, patches, digit_limit, error, text",
    [row[1:] for row in REFUSALS],
    ids=[row[0] for row in REFUSALS],
)
def test_each_refusal_has_its_exact_type_and_text(
    monkeypatch, name, args, patches, digit_limit, error, text
):
    patched(monkeypatch, patches)
    with int_digits(digit_limit):
        call = resolve(name)
        raised, said = refusal(call, **args) if type(args) is dict else refusal(call, *args)
    assert raised is error, said
    if isinstance(text, re.Pattern):
        assert text.fullmatch(said)
    else:
        assert said == text
