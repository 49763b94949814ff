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


def test_corrupted_base_case_is_caught(monkeypatch):
    # Sabotage one coefficient of the generating function's numerator; the
    # whole recurrence inherits one bad seed and the oracle comparison must
    # flag it with a counterexample.
    honest = schreier.counting._numerator

    def corrupted(ratio, length):
        coeffs = honest(ratio, length)
        if (ratio.p, ratio.q) == (1, 1) and length > 1:
            coeffs[1] += 1
        return coeffs

    monkeypatch.setattr(schreier.counting, "_numerator", corrupted)
    report = recurrence_suite(p_max=1, q_max=1, n_max=6)
    assert not report.passed
    assert report.failures
    assert "(p,q)=(1,1)" in report.failures[0]
    assert "FAIL" in report.summary()


def test_engine_skewed_at_one_cell_is_caught_by_the_recurrence_suite(monkeypatch):
    honest = schreier.verify.count_schreier_recurrence

    def skewed(n, ratio):
        return honest(n, ratio) + ((n, ratio.p, ratio.q) == (12, 2, 3))

    monkeypatch.setattr(schreier.verify, "count_schreier_recurrence", skewed)
    report = recurrence_suite(p_max=4, q_max=4, n_max=20)
    assert report.cases == 320
    (failure,) = report.failures
    engine = honest(12, Ratio(2, 3))
    assert failure == f"(p,q)=(2,3), n=12: engine {engine + 1} != recurrence {engine}"


def test_tally_missing_a_class_is_caught_by_the_oracle_leg(monkeypatch):
    honest = schreier.verify._subset_tally

    def lossy(n):
        # drop the class of {n} alone: size 1, smallest n
        return tuple(row for row in honest(n) if row[1:] != (1, n))

    monkeypatch.setattr(schreier.verify, "_subset_tally", lossy)
    report = recurrence_suite(p_max=2, q_max=2, n_max=10)
    assert not report.passed
    # {n} is a member whenever q*n >= p; the oracle then reads one short
    assert report.failures[0] == "(p,q)=(1,1), n=1: recurrence 1 != oracle 0"
    assert len(report.failures) == 2 * 2 * 10 - 1  # (2,1) at n=1 has no members


def test_skewed_count_is_caught_by_the_window_recount(monkeypatch):
    honest = schreier.verify.count_schreier_recurrence

    def skewed(n, ratio):
        return honest(n, ratio) + ((n, ratio) == (7, Ratio(1, 2)))

    # count(7) weighs layer 1 at n = 8 (times C(2, 1)) and layer 2 at n = 9.
    monkeypatch.setattr(schreier.verify, "count_schreier_recurrence", skewed)
    report = window_bijection_suite()
    assert report.failures == (
        "(p,q)=(1,2), n=8: layer 1 is 56, expected 58",
        "(p,q)=(1,2), n=9: layer 2 is 28, expected 29",
    )


def per_cell(fault):
    """The grid listing at n, with ``fault`` applied to each ratio's listing.

    A listing is the frozenset of its members' element tuples.
    """
    honest = schreier.verify._listings

    def faulty(n, ratios):
        listings = honest(n, ratios)
        return [fault(n, ratio, listing) for ratio, listing in zip(ratios, listings)]

    return faulty


def test_missing_member_is_caught_by_the_window_recount(monkeypatch):
    lost = (2, 8)

    @per_cell
    def lossy(n, ratio, listing):
        if (n, ratio) == (8, Ratio(1, 2)):
            return listing - {lost}
        return listing

    # {2, 8} misses both window values 6 and 7, so layer 1 at n = 8 loses
    # C(2, 1) = 2; stripping the window at n = 11 lands on the short listing.
    monkeypatch.setattr(schreier.verify, "_listings", lossy)
    report = window_bijection_suite(p_max=2, q_max=2, n_max=12)
    assert report.failures == (
        "(p,q)=(1,2), n=8: layer 1 is 54, expected 56",
        "(p,q)=(1,2), n=11: strip image differs from the family at n=8",
    )


def test_stray_member_is_caught_by_the_gap_image_check(monkeypatch):
    stray = (1, 6, 7, 8)  # 2*1 < 1*4: not a member at n = 8

    @per_cell
    def padded(n, ratio, listing):
        return listing | {stray} if (n, ratio) == (8, Ratio(1, 2)) else listing

    # The stray holds the whole window {6, 7} at n = 8, so no gap choice
    # there lets it through; every cell whose image is the family at
    # n = 8 compares with the padded listing.
    monkeypatch.setattr(schreier.verify, "_listings", padded)
    report = gap_bijection_suite(p_max=2, q_max=2, n_max=10)
    assert report.failures == tuple(
        f"(p,q)=(1,2), {cell}: collapse image differs from the family at n=8"
        for cell in ["n=9, gaps=(7,)", "n=9, gaps=(8,)", "n=10, gaps=(8, 9)"]
    )


def test_stray_member_is_caught_by_the_strip_image_check(monkeypatch):
    stray = (1, 2, 8)  # 2*1 < 1*3: not a member at n = 8

    @per_cell
    def padded(n, ratio, listing):
        return listing | {stray} if (n, ratio) == (8, Ratio(1, 2)) else listing

    # The stray misses both window values 6 and 7 at n = 8, so layer 1
    # gains C(2, 1) = 2; stripping the window at n = 11 lands on the
    # padded listing.
    monkeypatch.setattr(schreier.verify, "_listings", padded)
    report = window_bijection_suite(p_max=2, q_max=2, n_max=12)
    assert report.failures == (
        "(p,q)=(1,2), n=8: layer 1 is 58, expected 56",
        "(p,q)=(1,2), n=11: strip image differs from the family at n=8",
    )


def test_broken_gap_map_is_caught_at_its_cell(monkeypatch):
    honest = schreier.verify._collapse

    def broken(batch, gaps):
        if (gaps.n, gaps.ratio, gaps.members) == (9, Ratio(1, 2), (7,)):
            return [(gaps.n - 1,)] * len(batch)  # every avoider lands on {8}
        return honest(batch, gaps)

    monkeypatch.setattr(schreier.verify, "_collapse", broken)
    report = gap_bijection_suite(p_max=2, q_max=2, n_max=10)
    assert report.failures == ("(p,q)=(1,2), n=9, gaps=(7,): collapse is not injective",)


def test_broken_gap_inverse_is_caught_at_its_cell(monkeypatch):
    honest = schreier.verify._expand

    def broken(batch, gaps):
        if (gaps.n, gaps.ratio, gaps.members) == (9, Ratio(1, 2), (7,)):
            return [(gaps.n,)] * len(batch)  # every image re-opens to {9}
        return honest(batch, gaps)

    # the collapse still bijects onto the family at n = 8; only the way
    # back is wrong, and only at this one choice
    monkeypatch.setattr(schreier.verify, "_expand", broken)
    report = gap_bijection_suite(p_max=2, q_max=2, n_max=10)
    assert report.failures == (
        "(p,q)=(1,2), n=9, gaps=(7,): expand does not invert collapse",
    )


def test_broken_strip_map_is_caught_at_its_cell(monkeypatch):
    honest = schreier.verify._strip

    def broken(batch, ratio, n):
        if (ratio, n) == (Ratio(1, 2), 11):
            return [(n - 3,)] * len(batch)  # every full-window member lands on {8}
        return honest(batch, ratio, n)

    monkeypatch.setattr(schreier.verify, "_strip", broken)
    report = window_bijection_suite(p_max=2, q_max=2, n_max=12)
    assert report.failures == ("(p,q)=(1,2), n=11: strip is not injective",)


def test_broken_attach_map_is_caught_at_its_cell(monkeypatch):
    honest = schreier.verify._attach

    def broken(batch, ratio, n):
        if (ratio, n) == (Ratio(1, 2), 11):
            return [(n,)] * len(batch)  # {11} holds no window value 9 or 10
        return honest(batch, ratio, n)

    # the strip still bijects onto the family at n = 8; only the way back
    # is wrong, and only at this one cell
    monkeypatch.setattr(schreier.verify, "_attach", broken)
    report = window_bijection_suite(p_max=2, q_max=2, n_max=12)
    assert report.failures == ("(p,q)=(1,2), n=11: attach does not invert strip",)


def cell_of(args):
    """The cell of a core's call, from its arguments after the batch.

    A gap map's cell is its GapSet's (n, ratio, members); a window map's
    is its (ratio, n).
    """
    if len(args) == 1:
        (gaps,) = args
        return gaps.n, gaps.ratio, gaps.members
    return args


@pytest.mark.parametrize(
    "core, cell, error, failure",
    [
        (
            "_collapse",
            (9, Ratio(1, 2), (7,)),
            DomainError("boom domain"),
            "(p,q)=(1,2), n=9, gaps=(7,): collapse raised DomainError: boom domain",
        ),
        (
            "_expand",
            (9, Ratio(1, 2), (7,)),
            RuntimeError("boom check"),
            "(p,q)=(1,2), n=9, gaps=(7,): expand raised RuntimeError: boom check",
        ),
        (
            "_strip",
            (Ratio(1, 2), 9),
            DomainError("boom domain"),
            "(p,q)=(1,2), n=9: strip raised DomainError: boom domain",
        ),
        (
            "_attach",
            (Ratio(1, 2), 9),
            ValueError("duplicate element 9"),
            "(p,q)=(1,2), n=9: attach raised ValueError: duplicate element 9",
        ),
    ],
    ids=["collapse", "expand", "strip", "attach"],
)
def test_a_map_that_raises_is_a_failure_at_its_cell(
    monkeypatch, core, cell, error, failure
):
    honest = getattr(schreier.verify, core)

    def raising(batch, *args):
        if cell_of(args) == cell:
            raise error
        return honest(batch, *args)

    # the other cells still run: the report counts every case, one failing
    monkeypatch.setattr(schreier.verify, core, raising)
    if core in ("_collapse", "_expand"):
        report, cases = gap_bijection_suite(p_max=2, q_max=2, n_max=10), 62
    else:
        report, cases = window_bijection_suite(p_max=2, q_max=2, n_max=10), 64
    assert (report.cases, report.failures) == (cases, (failure,))


@pytest.mark.parametrize(
    "core, cell, source, failure",
    [
        (
            "_collapse",
            (9, Ratio(1, 2), (7,)),
            (3, 4, 9),  # -> (3, 4, 8), merged to (3, 3, 8)
            "(p,q)=(1,2), n=9, gaps=(7,): collapse image differs from the family at n=8",
        ),
        (
            "_strip",
            (Ratio(1, 2), 11),
            (3, 4, 9, 10, 11),  # -> (2, 3, 8), merged to (2, 2, 8)
            "(p,q)=(1,2), n=11: strip image differs from the family at n=8",
        ),
    ],
    ids=["collapse", "strip"],
)
def test_a_core_that_merges_two_elements_is_caught_at_its_cell(
    monkeypatch, core, cell, source, failure
):
    honest = getattr(schreier.verify, core)

    def merging(batch, *args):
        images = honest(batch, *args)
        if cell_of(args) != cell:
            return images
        # the second element of the source's image lands on the first
        return [i[:1] * 2 + i[2:] if t == source else i for t, i in zip(batch, images)]

    # FiniteSet would refuse the repeated element; on the tuple path the
    # comparison with the listing at the target n is what catches it
    monkeypatch.setattr(schreier.verify, core, merging)
    suite = gap_bijection_suite if core == "_collapse" else window_bijection_suite
    report = suite(p_max=2, q_max=2, n_max=12)
    assert report.failures == (failure,)


def test_corrupted_edge_formula_is_caught(monkeypatch):
    honest = schreier.verify.turan_edges_formula

    def skewed(n, p):
        value = honest(n, p)
        return value + (1 if (n, p) == (40, 3) else 0)

    # The suite resolves the formula through its own module namespace.
    monkeypatch.setattr(schreier.verify, "turan_edges_formula", skewed)
    report = turan_cross_suite(p_max=4, n_max=50, quarter_n_max=10)
    assert not report.passed
    assert "n=40, p=3" in report.failures[0]


@pytest.mark.parametrize(
    "name, cell, label",
    [
        # The edge legs are read at T(n+1, p+1), so (18, 4) is the cell n=17, p=3.
        ("turan_edges_formula", (18, 4), "n=17, p=3"),
        ("turan_edges_construction", (18, 4), "n=17, p=3"),
        ("interval_count_sum", (17, 3), "n=17, p=3"),
        # Above enum_limit the four other legs still decide the cell.
        ("interval_count_closed", (35, 2), "n=35, p=2"),
    ],
    ids=["edge-formula", "edge-construction", "interval-sum", "closed-above-enum"],
)
def test_corrupted_identity_leg_is_caught_at_its_cell(monkeypatch, name, cell, label):
    honest = getattr(schreier.verify, name)

    def skewed(n, p):
        return honest(n, p) + ((n, p) == cell)

    monkeypatch.setattr(schreier.verify, name, skewed)
    report = turan_identity_suite(p_max=4, n_max=40, enum_limit=30)
    assert len(report.failures) == 1
    assert report.failures[0].startswith(f"{label}:")
    assert ("/ enum None," in report.failures[0]) == (cell == (35, 2))


@pytest.mark.parametrize(
    "name, stub, failing",
    [
        ("interval_count_closed", lambda n, p: None, 154),
        ("interval_count_sum", lambda n, p: None, 154),
        ("turan_edges_formula", lambda n, p: None, 154),
        ("turan_edges_construction", lambda n, p: None, 154),
        # the scan is read only up to enum_max = 30: 30 + 29 + 28 + 27 cells
        ("_interval_counts", lambda tally, p: [None] * len(tally), 114),
    ],
    ids=["closed", "sum", "edge-formula", "edge-construction", "enum-tally"],
)
def test_an_identity_leg_that_reads_none_fails_its_cells(monkeypatch, name, stub, failing):
    # None is a wrong count like any other: no leg is left out for its value
    monkeypatch.setattr(schreier.verify, name, stub)
    report = turan_identity_suite(p_max=4, n_max=40, enum_limit=30)
    assert (report.cases, len(report.failures)) == (154, failing)


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


def miscounted(honest):
    """The reader counts one interval too many at the cell (n=17, p=3)."""

    def skewed(tally, p):
        counts = honest(tally, p)
        if p == 3:
            counts[17] += 1
        return counts

    return skewed


def misfiled(honest):
    """The scan files one interval of maximum 17 at k = 4 instead of k = 3.

    [5, 17] is one: its least p is ceil(13 / 5) = 3.  The count at p = 3
    falls by one from n = 17 on, and no other p sees it.
    """

    def skewed(n_max):
        tally = honest(n_max)
        ks, counts = tally[17]
        counts[ks.index(3)] -= 1
        counts[ks.index(4)] += 1
        return tally

    return skewed


INTERVAL_SUITES = [
    ("interval-agreement", lambda: interval_agreement_suite(p_max=4, n_max=30)),
    ("turan-identity", lambda: turan_identity_suite(p_max=4, n_max=40, enum_limit=30)),
]


@pytest.mark.parametrize(
    "suite, name, fault, failing",
    [
        pytest.param(suite, "_interval_counts", miscounted, 1, id=label)
        for label, suite in INTERVAL_SUITES
    ]
    + [
        pytest.param(suite, "_interval_tally", misfiled, 14, id=f"{label}-scan")
        for label, suite in INTERVAL_SUITES
    ],
)
def test_corrupted_interval_tally_is_caught_at_its_cell(
    monkeypatch, suite, name, fault, failing
):
    # Both suites take the brute-force leg from one scan, read for every p;
    # a misfiled interval fails n = 17..30 at p = 3, the first cell first.
    monkeypatch.setattr(schreier.verify, name, fault(getattr(schreier.verify, name)))
    report = suite()
    assert len(report.failures) == failing
    assert report.failures[0].startswith("n=17, p=3:")
