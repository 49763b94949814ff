"""Verification suites: green on honest code, red under fault injection."""

import inspect
import re

import pytest

import schreier.counting
import schreier.verify
from schreier import (
    ORACLE_LIMIT,
    DomainError,
    OracleLimitError,
    Ratio,
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


def test_recurrence_suite_small_grid():
    report = recurrence_suite(p_max=2, q_max=2, n_max=12)
    assert report.passed
    assert report.cases == 2 * 2 * 12
    assert report.failures == ()
    assert "recurrence: pass" in report.summary()


def test_formula_suite_small_grid():
    assert formula_suite(p_max=3, q_max=3, n_max=60).passed


def test_scale_invariance_suite_small_grid():
    report = scale_invariance_suite(p_max=2, q_max=2, n_max=50)
    assert report.passed
    assert report.cases == 2 * 2 * 3 * 51


def test_bijection_suites_small_grid():
    assert gap_bijection_suite(p_max=2, q_max=2, n_max=10).passed
    assert window_bijection_suite(p_max=2, q_max=2, n_max=10).passed


def test_interval_and_turan_suites_small_grid():
    assert interval_agreement_suite(p_max=4, n_max=50).passed
    assert turan_cross_suite(p_max=6, n_max=60, quarter_n_max=40).passed
    assert turan_identity_suite(p_max=6, n_max=60, enum_limit=40).passed


def test_run_suite_dispatch():
    every_suite = [
        "recurrence",
        "formula",
        "scale-invariance",
        "gap-bijections",
        "window-bijections",
        "interval-agreement",
        "turan-cross",
        "turan-identity",
    ]
    for name, suites in [
        ("bijections", ["gap-bijections", "window-bijections"]),
        ("all", every_suite),
    ]:
        reports = run_suite(name, 2, 2, 8)
        assert [r.suite for r in reports] == suites
        assert all(r.passed for r in reports)
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_run_suite_refuses_an_empty_grid():
    with pytest.raises(ValueError, match="no cases"):
        run_suite("recurrence", 0, 2, 8)
    # turan-cross would still run its quarter squares without a formula cell.
    for bounds, grid in [
        ((0, None, None), "1<=p<=0, p<=n<=300"),
        ((None, None, 0), "1<=p<=20, p<=n<=0"),
    ]:
        message = f"turan-cross: the grid {grid}; two parts up to n=100 has no cases"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_suite("turan-cross", *bounds)


def test_run_suite_refuses_a_bound_none_of_its_suites_takes():
    # only q_max is missing anywhere: the interval and Turán suites have no q
    for name in ("interval-agreement", "turan-cross", "turan-identity"):
        for bounds in [(None, 0, None), (3, 3, 20)]:
            message = f"suite '{name}' takes no q_max bound"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run_suite(name, *bounds)


@pytest.mark.parametrize("value", [True, 2.5, -1])
@pytest.mark.parametrize("position", range(3))
def test_run_suite_refuses_a_bound_that_is_not_a_non_negative_int(
    monkeypatch, position, value
):
    def drive(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(schreier.verify, "_drive", drive)
    bounds = [None, None, None]
    bounds[position] = value
    bound = ("p_max", "q_max", "n_max")[position]
    message = f"{bound} must be a non-negative integer, got {value!r}"
    # run_suite leaves the value to the selection's first suite, which
    # must take every bound that any suite of the selection takes
    selections = dict(schreier.verify.SUITES)
    selections["all"] = sum(selections.values(), ())
    for name, suites in selections.items():
        if any(bound in suite.__kwdefaults__ for suite in suites):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run_suite(name, *bounds)


@pytest.mark.parametrize("value", [True, 2.5, -1])
@pytest.mark.parametrize(
    "suite,bound",
    [
        (suite, bound)
        for group in schreier.verify.SUITES.values()
        for suite in group
        for bound in suite.__kwdefaults__
    ],
    ids=lambda arg: getattr(arg, "__name__", arg),
)
def test_every_suite_refuses_a_bound_that_is_not_a_non_negative_int(
    monkeypatch, suite, bound, value
):
    # called directly, not through run_suite: the check comes before any cell
    def drive(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(schreier.verify, "_drive", drive)
    message = f"{bound} must be a non-negative integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        suite(**{bound: value})


def test_run_suite_defaults_apply_when_bounds_are_missing():
    (report,) = run_suite("recurrence", None, None, 6)
    assert report.grid == "1<=p<=4, 1<=q<=4, 1<=n<=6"



@pytest.mark.parametrize(
    "suite",
    [suite for group in schreier.verify.SUITES.values() for suite in group],
    ids=lambda suite: suite.__name__,
)
def test_suite_bounds_are_keyword_only(suite):
    with pytest.raises(TypeError, match="takes 0 positional arguments"):
        suite(2)


SIGNATURES = {
    "recurrence_suite": "(*, p_max: 'int' = 4, q_max: 'int' = 4, n_max: 'int' = 20)",
    "formula_suite": "(*, p_max: 'int' = 6, q_max: 'int' = 6, n_max: 'int' = 300)",
    "scale_invariance_suite": "(*, p_max: 'int' = 3, q_max: 'int' = 3, n_max: 'int' = 200)",
    "gap_bijection_suite": "(*, p_max: 'int' = 3, q_max: 'int' = 3, n_max: 'int' = 14)",
    "window_bijection_suite": "(*, p_max: 'int' = 3, q_max: 'int' = 3, n_max: 'int' = 14)",
    "interval_agreement_suite": "(*, p_max: 'int' = 10, n_max: 'int' = 200)",
    "turan_cross_suite": (
        "(*, p_max: 'int' = 20, n_max: 'int' = 300, quarter_n_max: 'int' = 100)"
    ),
    "turan_identity_suite": (
        "(*, p_max: 'int' = 50, n_max: 'int' = 500, enum_limit: 'int' = 500)"
    ),
}


def test_suite_signatures_are_pinned():
    # keyword-only bounds, their defaults, and a report as the return value
    suites = [suite for group in schreier.verify.SUITES.values() for suite in group]
    assert {suite.__name__: str(inspect.signature(suite)) for suite in suites} == {
        name: f"{bounds} -> 'VerifyReport'" for name, bounds in SIGNATURES.items()
    }


@pytest.mark.parametrize(
    "suite,layer",
    [
        (recurrence_suite, "_subset_tally"),
        (gap_bijection_suite, "_listings"),
        (window_bijection_suite, "_listings"),
    ],
    ids=lambda arg: getattr(arg, "__name__", arg),
)
def test_oracle_suites_refuse_an_nmax_past_the_guard_before_any_scan(
    monkeypatch, suite, layer
):
    def scanned(*args):
        raise AssertionError("the oracle scanned")

    monkeypatch.setattr(schreier.verify, layer, scanned)
    n = ORACLE_LIMIT + 1
    message = f"instance too large for oracle: n={n} exceeds the n <= {ORACLE_LIMIT} guard"
    for p_max in (1, 0):  # with cells and without
        with pytest.raises(OracleLimitError, match=f"^{re.escape(message)}$"):
            suite(p_max=p_max, q_max=1, n_max=n)


def test_turan_identity_grid_names_the_enumeration_leg_it_ran():
    report = turan_identity_suite(p_max=3, n_max=10, enum_limit=200)
    assert report.grid.endswith("enumeration leg up to n=10")


# The fault catalogue: which suites catch each fault.  A fault takes the
# honest function and returns the faulty one, which is patched in where the
# suites read it: as schreier.verify imports it, or in schreier.counting for
# what the recurrence calls there.


def plus_one(*cell):
    """The honest value, plus one where the arguments are ``cell``."""
    return lambda honest: lambda *args: honest(*args) + (args == cell)


def none(honest):
    """None at every call: a wrong count like any other."""
    return lambda *args: None


def core(cell, images):
    """A bijection core whose images at ``cell`` are images(batch, honest images).

    A gap map's cell is its GapSet's (n, ratio, members); a window map's
    is its (ratio, n), the arguments after the batch.
    """

    def fault(honest):
        def faulty(batch, *args):
            mapped = honest(batch, *args)
            if len(args) == 1:
                args = args[0].n, args[0].ratio, args[0].members
            return images(batch, mapped) if args == cell else mapped

        return faulty

    return fault


def raising(error):
    def images(batch, mapped):
        raise error

    return images


def merging(source):
    """The second element of the source's image lands on the first."""
    return lambda batch, mapped: [
        i[:1] * 2 + i[2:] if t == source else i for t, i in zip(batch, mapped)
    ]


def listing(cell, change):
    """The grid listing, with the family at ``cell`` = (n, ratio) changed."""

    def fault(honest):
        def faulty(n, ratios):
            families = honest(n, ratios)
            return [
                change(family) if (n, ratio) == cell else family
                for ratio, family in zip(ratios, families)
            ]

        return faulty

    return fault


def seeded(honest):
    """P's coefficient of x at (1, 1) one too large: every count inherits it."""

    def skewed(ratio, length):
        coeffs = honest(ratio, length)
        if ratio == Ratio(1, 1) and length > 1:
            coeffs[1] += 1
        return coeffs

    return skewed


def lossy(honest):
    """The oracle tally without the class of {n} alone: size 1, smallest n."""
    return lambda n: tuple(row for row in honest(n) if row[1:] != (1, n))


def scaled(honest):
    """The forward pass at the unreduced (2, 6) one too large at n = 9."""

    def skewed(ratio, n_max):
        counts = honest(ratio, n_max)
        if ratio == Ratio(2, 6):
            return counts[:9] + (counts[9] + 1,) + counts[10:]
        return counts

    return skewed


def miscounted(honest):
    """The scan's reader counts one interval too many at (n=9, p=2)."""

    def skewed(tally, p):
        counts = honest(tally, p)
        counts[9] += p == 2
        return counts

    return skewed


def misfiled(honest):
    """The scan files [3, 9] at k = 4 instead of k = 3 (3 = ceil(7 / 3)).

    The count at p = 3 falls by one from n = 9 on, and no other p sees it.
    """

    def skewed(n_max):
        tally = honest(n_max)
        ks, counts = tally[9]
        counts[ks.index(3)] -= 1
        counts[ks.index(4)] += 1
        return tally

    return skewed


GRID = (3, 3, 12)
"""run_suite("all") bounds for the catalogue: they hold every fault's cell."""

HALF, GAP = Ratio(1, 2), (9, Ratio(1, 2), (7,))
COLLAPSED = "collapse image differs from the family at n=8"
STRIPPED = "(p,q)=(1,2), n=11: strip image differs from the family at n=8"

# (fault id, (dotted names patched), fault, {each suite that fails: (failures, *texts)})
# No other suite may fail.  The texts are all of a suite's failures, or
# the first of them when there are more than three.
CATALOGUE = [
    ("seed", ("counting._numerator",), seeded, {
        "recurrence": (36, "(p,q)=(1,1), n=1: recurrence 2 != oracle 1"),
        "formula": (12, "(p,q)=(1,1), n=1: recurrence 2 != direct 1"),
        "scale-invariance": (36, "(p,q)=(1,1), k=2, n=1: 2 != 1"),
        "window-bijections": (27, "(p,q)=(1,1), n=2: layer 1 is 1, expected 2"),
    }),
    # the tap C(3, 1) of every engine past its head at q = 3
    ("tap", ("counting.comb",), plus_one(3, 1), {
        "recurrence": (8, "(p,q)=(1,3), n=8: engine 167 != recurrence 70"),
        "window-bijections": (6, "(p,q)=(1,3), n=9: layer 1 is 210, expected 501"),
    }),
    # {n} is a member wherever q*n >= p, and the oracle then reads one short
    ("oracle-tally", ("verify._subset_tally",), lossy, {
        "recurrence": (104, "(p,q)=(1,1), n=1: recurrence 1 != oracle 0"),
    }),
    ("engine", ("verify.count_schreier_recurrence",), plus_one(12, Ratio(2, 3)), {
        "recurrence": (1, "(p,q)=(2,3), n=12: engine 274 != recurrence 273"),
    }),
    # count(7) weighs layer 1 at n = 8 (times C(2, 1)) and layer 2 at n = 9
    ("engine-in-the-recount", ("verify.count_schreier_recurrence",), plus_one(7, HALF), {
        "recurrence": (1, "(p,q)=(1,2), n=7: engine 29 != recurrence 28"),
        "window-bijections": (
            2,
            "(p,q)=(1,2), n=8: layer 1 is 56, expected 58",
            "(p,q)=(1,2), n=9: layer 2 is 28, expected 29",
        ),
    }),
    ("direct", ("verify.count_schreier_direct",), plus_one(9, HALF), {
        "formula": (1, "(p,q)=(1,2), n=9: recurrence 86 != direct 87"),
    }),
    ("scaled-pass", ("verify.schreier_sequence",), scaled, {
        "scale-invariance": (1, "(p,q)=(1,3), k=2, n=9: 129 != 130"),
    }),
    # {2, 8} misses both window values 6 and 7, so layer 1 at n = 8 loses
    # C(2, 1) = 2, and the strip at n = 11 lands on the short family
    ("listing-lost", ("verify._listings",), listing((8, HALF), lambda f: f - {(2, 8)}), {
        "gap-bijections": (6, "(p,q)=(1,2), n=8, gaps=(6,): "
                              "collapse image differs from the family at n=7"),
        "window-bijections": (2, "(p,q)=(1,2), n=8: layer 1 is 54, expected 56", STRIPPED),
    }),
    # not a member (2*1 < 1*4); it holds the whole window {6, 7} at n = 8,
    # so no gap choice there lets it through
    ("listing-padded-full-window", ("verify._listings",),
     listing((8, HALF), lambda f: f | {(1, 6, 7, 8)}), {
        "gap-bijections": (
            3,
            f"(p,q)=(1,2), n=9, gaps=(7,): {COLLAPSED}",
            f"(p,q)=(1,2), n=9, gaps=(8,): {COLLAPSED}",
            f"(p,q)=(1,2), n=10, gaps=(8, 9): {COLLAPSED}",
        ),
        "window-bijections": (
            2,
            "(p,q)=(1,2), n=8: strip raised DomainError: "
            "{1,6,7,8} is not a member of the family at n=8 for 1/2",
            STRIPPED,
        ),
    }),
    # not a member (2*1 < 1*3); it misses both window values at n = 8, so
    # layer 1 gains C(2, 1) = 2
    ("listing-padded-empty-window", ("verify._listings",),
     listing((8, HALF), lambda f: f | {(1, 2, 8)}), {
        "gap-bijections": (6, "(p,q)=(1,2), n=8, gaps=(6,): collapse raised DomainError: "
                              "{1,2,8} is not a member of the family at n=8 for 1/2"),
        "window-bijections": (2, "(p,q)=(1,2), n=8: layer 1 is 58, expected 56", STRIPPED),
    }),
    # every avoider lands on {8}
    ("collapse-not-injective", ("verify._collapse",), core(GAP, lambda b, m: [(8,)] * len(b)), {
        "gap-bijections": (1, "(p,q)=(1,2), n=9, gaps=(7,): collapse is not injective"),
    }),
    # every image re-opens to {9}: only the way back is wrong
    ("expand-not-inverse", ("verify._expand",), core(GAP, lambda b, m: [(9,)] * len(b)), {
        "gap-bijections": (1, "(p,q)=(1,2), n=9, gaps=(7,): expand does not invert collapse"),
    }),
    # every full-window member lands on {8}
    ("strip-not-injective", ("verify._strip",), core((HALF, 11), lambda b, m: [(8,)] * len(b)), {
        "window-bijections": (1, "(p,q)=(1,2), n=11: strip is not injective"),
    }),
    # {11} holds no window value 9 or 10: only the way back is wrong
    ("attach-not-inverse", ("verify._attach",), core((HALF, 11), lambda b, m: [(11,)] * len(b)), {
        "window-bijections": (1, "(p,q)=(1,2), n=11: attach does not invert strip"),
    }),
    ("collapse-raises", ("verify._collapse",), core(GAP, raising(DomainError("boom domain"))), {
        "gap-bijections": (1, "(p,q)=(1,2), n=9, gaps=(7,): "
                              "collapse raised DomainError: boom domain"),
    }),
    ("expand-raises", ("verify._expand",), core(GAP, raising(RuntimeError("boom check"))), {
        "gap-bijections": (1, "(p,q)=(1,2), n=9, gaps=(7,): "
                              "expand raised RuntimeError: boom check"),
    }),
    ("strip-raises", ("verify._strip",), core((HALF, 9), raising(DomainError("boom domain"))), {
        "window-bijections": (1, "(p,q)=(1,2), n=9: strip raised DomainError: boom domain"),
    }),
    ("attach-raises", ("verify._attach",),
     core((HALF, 9), raising(ValueError("duplicate element 9"))), {
        "window-bijections": (
            1, "(p,q)=(1,2), n=9: attach raised ValueError: duplicate element 9"
        ),
    }),
    # (3, 4, 9) -> (3, 4, 8), merged to (3, 3, 8): on the tuple path only
    # the comparison with the family at the target n catches it
    ("collapse-merges", ("verify._collapse",), core(GAP, merging((3, 4, 9))), {
        "gap-bijections": (1, f"(p,q)=(1,2), n=9, gaps=(7,): {COLLAPSED}"),
    }),
    # (3, 4, 9, 10, 11) -> (2, 3, 8), merged to (2, 2, 8)
    ("strip-merges", ("verify._strip",), core((HALF, 11), merging((3, 4, 9, 10, 11))), {
        "window-bijections": (1, STRIPPED),
    }),
    # the identity reads the edge legs at T(n+1, p+1): T(9, 3) is n=8, p=2
    ("edge-formula", ("verify.turan_edges_formula",), plus_one(9, 3), {
        "turan-cross": (1, "n=9, p=3: formula 28 != construction 27"),
        "turan-identity": (1, "n=8, p=2: intervals closed 27 / sum 27 / enum 27, "
                              "edges formula 28 / construction 27"),
    }),
    ("edge-construction", ("verify.turan_edges_construction",), plus_one(9, 3), {
        "turan-cross": (1, "n=9, p=3: formula 27 != construction 28"),
        "turan-identity": (1, "n=8, p=2: intervals closed 27 / sum 27 / enum 27, "
                              "edges formula 27 / construction 28"),
    }),
    # both edge legs agree on a wrong T(7, 2): the quarter squares and the
    # interval legs see it
    ("quarter-square", ("verify.turan_edges_formula", "verify.turan_edges_construction"),
     plus_one(7, 2), {
        "turan-cross": (1, "n=7, p=2: 13 != floor(n^2/4) = 12"),
        "turan-identity": (1, "n=6, p=1: intervals closed 12 / sum 12 / enum 12, "
                              "edges formula 13 / construction 13"),
    }),
    ("interval-closed", ("verify.interval_count_closed",), plus_one(9, 2), {
        "interval-agreement": (1, "n=9, p=2: sum 33, closed 34, brute 33"),
        "turan-identity": (1, "n=9, p=2: intervals closed 34 / sum 33 / enum 33, "
                              "edges formula 33 / construction 33"),
    }),
    ("interval-sum", ("verify.interval_count_sum",), plus_one(9, 2), {
        "interval-agreement": (1, "n=9, p=2: sum 34, closed 33, brute 33"),
        "turan-identity": (1, "n=9, p=2: intervals closed 33 / sum 34 / enum 33, "
                              "edges formula 33 / construction 33"),
    }),
    ("scan-reader", ("verify._interval_counts",), miscounted, {
        "interval-agreement": (1, "n=9, p=2: sum 33, closed 33, brute 34"),
        "turan-identity": (1, "n=9, p=2: intervals closed 33 / sum 33 / enum 34, "
                              "edges formula 33 / construction 33"),
    }),
    # n = 9..12 at p = 3
    ("scan-misfiled", ("verify._interval_tally",), misfiled, {
        "interval-agreement": (4, "n=9, p=3: sum 37, closed 37, brute 36"),
        "turan-identity": (4, "n=9, p=3: intervals closed 37 / sum 37 / enum 36, "
                              "edges formula 37 / construction 37"),
    }),
    # the quarter squares read the formula too: 33 + 100 cells
    ("edge-formula-none", ("verify.turan_edges_formula",), none, {
        "turan-cross": (133, "n=1, p=1: formula None != construction 0"),
        "turan-identity": (33, "n=1, p=1: intervals closed 1 / sum 1 / enum 1, "
                               "edges formula None / construction 1"),
    }),
    ("edge-construction-none", ("verify.turan_edges_construction",), none, {
        "turan-cross": (33, "n=1, p=1: formula 0 != construction None"),
        "turan-identity": (33, "n=1, p=1: intervals closed 1 / sum 1 / enum 1, "
                               "edges formula 1 / construction None"),
    }),
    ("interval-closed-none", ("verify.interval_count_closed",), none, {
        "interval-agreement": (36, "n=1, p=1: sum 1, closed None, brute 1"),
        "turan-identity": (33, "n=1, p=1: intervals closed None / sum 1 / enum 1, "
                               "edges formula 1 / construction 1"),
    }),
    ("interval-sum-none", ("verify.interval_count_sum",), none, {
        "interval-agreement": (36, "n=1, p=1: sum None, closed 1, brute 1"),
        "turan-identity": (33, "n=1, p=1: intervals closed 1 / sum None / enum 1, "
                               "edges formula 1 / construction 1"),
    }),
]


@pytest.fixture(scope="module")
def clean():
    """Each suite's case count at GRID, from a run that must pass."""
    reports = run_suite("all", *GRID)
    assert [report.failures for report in reports] == [()] * len(reports)
    return {report.suite: report.cases for report in reports}


@pytest.mark.parametrize(
    "names, fault, caught", [row[1:] for row in CATALOGUE], ids=[row[0] for row in CATALOGUE]
)
def test_each_fault_fails_exactly_its_suites(monkeypatch, clean, names, fault, caught):
    for target in names:
        module_name, name = target.split(".")
        module = getattr(schreier, module_name)
        # raising=True, the default: a name that is gone fails the row
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
    reports = run_suite("all", *GRID)
    # the other cells still ran: every suite counts the clean run's cases
    assert {report.suite: report.cases for report in reports} == clean
    failed = {
        report.suite: (len(failures), *failures[: 1 if len(failures) > 3 else 3])
        for report in reports
        if (failures := report.failures)
    }
    assert failed == caught


def test_every_suite_is_caught_by_some_fault(clean):
    # a suite that no fault fails could pass with nothing checked
    assert len(clean) == sum(map(len, schreier.verify.SUITES.values()))
    assert set().union(*(caught for *_, caught in CATALOGUE)) == set(clean)


@pytest.mark.parametrize(
    "name, fault, failing",
    [
        # above enum_max = 30 the four other legs still decide the cell
        ("interval_count_closed", plus_one(35, 2), (
            1,
            "n=35, p=2: intervals closed 433 / sum 432 / enum None, "
            "edges formula 432 / construction 432",
        )),
        # the scan is read only up to enum_max: 30 + 29 + 28 + 27 of 154 cells
        ("_interval_counts", lambda honest: lambda tally, p: [None] * len(tally), (
            114,
            "n=1, p=1: intervals closed 1 / sum 1 / enum None, edges formula 1 / construction 1",
        )),
        # a leg that reads None fails every cell, the 40 above enum_max too
        ("interval_count_closed", none, (
            154,
            "n=1, p=1: intervals closed None / sum 1 / enum 1, edges formula 1 / construction 1",
        )),
        ("interval_count_sum", none, (
            154,
            "n=1, p=1: intervals closed 1 / sum None / enum 1, edges formula 1 / construction 1",
        )),
        ("turan_edges_formula", none, (
            154,
            "n=1, p=1: intervals closed 1 / sum 1 / enum 1, edges formula None / construction 1",
        )),
        ("turan_edges_construction", none, (
            154,
            "n=1, p=1: intervals closed 1 / sum 1 / enum 1, edges formula 1 / construction None",
        )),
    ],
    ids=[
        "closed-above-enum",
        "enum-tally-none",
        "closed-none",
        "sum-none",
        "edge-formula-none",
        "edge-construction-none",
    ],
)
def test_above_enum_limit_the_four_other_legs_decide_the_cell(
    monkeypatch, name, fault, failing
):
    # outside the catalogue: run_suite cannot set enum_limit below n_max
    monkeypatch.setattr(schreier.verify, name, fault(getattr(schreier.verify, name)))
    report = turan_identity_suite(p_max=4, n_max=40, enum_limit=30)
    assert (report.cases, len(report.failures), report.failures[0]) == (154, *failing)
