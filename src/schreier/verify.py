"""Grid verification suites: every identity checked over explicit ranges.

Each suite sweeps a parameter grid in sorted order, compares two or
more independently computed values per cell, and returns a
:class:`VerifyReport` listing any disagreements.  A suite is written as
a generator under :func:`_suite`: it yields its grid description, then
one ``(label, problem)`` pair per case, ``problem`` being None when the
case agrees, and runs any size guard before its first case.  The
decorator checks the bounds first; :func:`_drive` counts the cases and
collects the failures.  Suites never stop at the first failure; the report
carries them all, so a regression shows its full extent.  A grid with
no cases is refused rather than reported as a pass.  Everything here is
deterministic -- same bounds, same report.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import cache, wraps
from itertools import combinations, product
from math import comb

from .bijections import GapSet, _attach, _collapse, _expand, _strip, gap_window
from .counting import (
    count_schreier_direct,
    count_schreier_recurrence,
    schreier_sequence,
)
from .enumeration import (
    ORACLE_LIMIT,
    _interval_counts,
    _interval_tally,
    _listings,
    _subset_tally,
    _tally_count,
    refuse_above,
)
from .sets import Elements, Frozen, Ratio, require_int
from .turan import (
    INTERVAL_SUM_LIMIT,
    interval_count_closed,
    interval_count_sum,
    turan_edges_construction,
    turan_edges_formula,
)


class VerifyReport(Frozen):
    """Outcome of one suite run: grid size, case count, failures."""

    suite: str
    grid: str
    cases: int
    failures: tuple[str, ...]

    def __init__(
        self, suite: str, grid: str, cases: int, failures: tuple[str, ...] = ()
    ) -> None:
        super().__init__(suite=suite, grid=grid, cases=cases, failures=failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        head = (
            f"{self.suite}: {status} "
            f"({self.cases} cases over {self.grid}, {len(self.failures)} failures)"
        )
        if self.failures:
            return head + f"\nfirst counterexample: {self.failures[0]}"
        return head


Cases = Iterator["str | tuple[str, str | None]"]  # the grid, then (label, problem)s
Listings = tuple[frozenset[Elements], ...]  # family members, indexed by n from 0


def _drive(suite: str, cases: Cases) -> VerifyReport:
    """Run every case of one suite and gather its report.

    ``cases`` yields the grid description, then the cases.  An empty grid
    raises ValueError: a pass over zero cases checks nothing and must
    not read as evidence.
    """
    grid = next(cases)
    failures: list[str] = []
    count = 0
    for count, (label, problem) in enumerate(cases, 1):
        if problem is not None:
            failures.append(f"{label}: {problem}")
    if not count:
        raise ValueError(f"{suite}: the grid {grid} has no cases")
    return VerifyReport(suite, grid, count, tuple(failures))


def _suite(name: str) -> Callable[[Callable[..., Cases]], Callable[..., VerifyReport]]:
    """The suite ``name`` from its generator, with the generator's bounds and docstring.

    A bound that is not a non-negative int is refused before the generator starts.
    """

    def wrap(generator: Callable[..., Cases]) -> Callable[..., VerifyReport]:
        @wraps(generator)
        def suite(**bounds: int) -> VerifyReport:
            for bound, value in bounds.items():
                require_int(bound, value, 0)
            return _drive(name, generator(**bounds))

        suite.__kwdefaults__ = generator.__kwdefaults__  # the bounds run_suite reads
        # signature() reads the generator's annotations, through __wrapped__
        generator.__annotations__["return"] = "VerifyReport"
        return suite

    return wrap


def _mismatch(template: str, *legs: object) -> str | None:
    """None when every leg is equal, else ``template`` filled with the legs in order."""
    return None if legs.count(legs[0]) == len(legs) else template.format(*legs)


def _bijection(
    forward: tuple[str, Callable[..., list[Elements]]],
    inverse: tuple[str, Callable[..., list[Elements]]],
    sources: list[Elements],
    target: frozenset[Elements],
    m: int,
    *args: object,
) -> str | None:
    """None when ``forward`` bijects ``sources`` onto ``target``, else the problem.

    Each map is a (name, core) pair, and each core runs once on the whole
    cell, as core(sources, *args) and then inverse_core(images, *args).
    The images must be distinct and make up ``target``, the family at
    n = m, and ``inverse`` must map them back to ``sources`` in order.  A
    failure names the map at fault; a core that refuses a member or fails
    its own postcondition reads ``"{name} raised {error type}: {error}"``.
    """
    (name, core), (inverse_name, inverse_core) = forward, inverse
    running = name
    try:
        images = core(sources, *args)
        image_set = set(images)
        if len(image_set) != len(images):
            return f"{name} is not injective"
        if image_set != target:
            return f"{name} image differs from the family at n={m}"
        running = inverse_name
        back = inverse_core(images, *args)
    except (ValueError, RuntimeError) as error:
        return f"{running} raised {type(error).__name__}: {error}"
    return None if back == sources else f"{inverse_name} does not invert {name}"


def _ratios(p_max: int, q_max: int) -> Iterator[tuple[str, Ratio]]:
    for p, q in product(range(1, p_max + 1), range(1, q_max + 1)):
        yield f"(p,q)=({p},{q})", Ratio(p, q)


def _sequence_cells(
    p_max: int, q_max: int, n_max: int
) -> Iterator[tuple[str, Ratio, int, int]]:
    """(label, ratio, n, count(n) by the forward pass) for 1 <= n <= n_max."""
    for label, ratio in _ratios(p_max, q_max):
        fast = schreier_sequence(ratio, n_max)
        for n in range(1, n_max + 1):
            yield f"{label}, n={n}", ratio, n, fast[n]


def _window_cells(
    p_max: int, q_max: int, n_max: int
) -> Iterator[tuple[str, Ratio, int, Listings]]:
    """(label, ratio, n, listings by n) for every cell with p + q <= n <= n_max.

    The listings at each n come from one pass for the whole grid: each
    ratio's family there is a frozenset of element tuples, and the ratios
    that admit a member share its tuple.  A ratio's listings run from the
    empty one at n = 0 up; the cells scan them and compare images with them.
    """
    refuse_above(n_max, ORACLE_LIMIT, "oracle")
    grid = list(_ratios(p_max, q_max))
    ratios = [ratio for _, ratio in grid]
    by_n = [_listings(m, ratios) for m in range(n_max + 1)]
    for (label, ratio), listings in zip(grid, zip(*by_n)):
        for n in range(ratio.p + ratio.q, n_max + 1):
            yield f"{label}, n={n}", ratio, n, listings


@_suite("recurrence")
def recurrence_suite(*, p_max: int = 4, q_max: int = 4, n_max: int = 20) -> Cases:
    """Recurrence and single-count engine against the brute-force oracle, cell by cell.

    The oracle scans every subset at n once, on the first cell that
    needs n, and tallies the subsets by (size, smallest element); each
    ratio's count is read off that tally.  The tallies live only for
    this call, so every run of the suite scans afresh, and an n_max past
    the oracle's guard is refused before the first.  Where the forward
    pass meets the oracle, the engine must meet the pass.
    """
    refuse_above(n_max, ORACLE_LIMIT, "oracle")
    yield f"1<=p<={p_max}, 1<=q<={q_max}, 1<=n<={n_max}"
    tally = cache(_subset_tally)
    for label, ratio, n, fast in _sequence_cells(p_max, q_max, n_max):
        oracle = _tally_count(tally(n), ratio)
        engine = count_schreier_recurrence(n, ratio)
        problem = _mismatch("recurrence {} != oracle {}", fast, oracle)
        yield label, problem or _mismatch("engine {} != recurrence {}", engine, fast)


@_suite("formula")
def formula_suite(*, p_max: int = 6, q_max: int = 6, n_max: int = 300) -> Cases:
    """Recurrence against the independent direct formula."""
    yield f"1<=p<={p_max}, 1<=q<={q_max}, 1<=n<={n_max}"
    for label, ratio, n, fast in _sequence_cells(p_max, q_max, n_max):
        direct = count_schreier_direct(n, ratio)
        yield label, _mismatch("recurrence {} != direct {}", fast, direct)


SCALE_FACTORS = (2, 3, 5)
"""The factors k by which scale_invariance_suite scales each ratio."""


@_suite("scale-invariance")
def scale_invariance_suite(*, p_max: int = 3, q_max: int = 3, n_max: int = 200) -> Cases:
    """(p, q) and (kp, kq) must produce identical sequences, k in SCALE_FACTORS.

    Both sides are forward passes, which keep the ratio as given: the
    scaled one runs the recurrence at depth k(p + q), the base one at
    p + q, so this is a real cross-check, not a tautology.  (The
    single-count engine reduces a ratio first, so it would run both
    sides at the same depth.)
    """
    yield f"1<=p<={p_max}, 1<=q<={q_max}, 0<=n<={n_max}, k in {SCALE_FACTORS}"
    for label, ratio in _ratios(p_max, q_max):
        base = schreier_sequence(ratio, n_max)
        for k in SCALE_FACTORS:
            scaled = schreier_sequence(ratio.scaled(k), n_max)
            for n in range(n_max + 1):
                yield f"{label}, k={k}, n={n}", _mismatch("{} != {}", base[n], scaled[n])


@_suite("gap-bijections")
def gap_bijection_suite(*, p_max: int = 3, q_max: int = 3, n_max: int = 14) -> Cases:
    """Gap-collapsing maps checked as actual bijections.

    For every grid cell and every nonempty gap choice: the map on the
    gap-avoiding members must be injective, land exactly on the
    enumerated family at n - k, and round-trip through its inverse.
    The maps run on element tuples, through the cores behind
    ``collapse_gaps`` and ``expand_gaps``.
    """
    yield f"1<=p<={p_max}, 1<=q<={q_max}, p+q<=n<={n_max}, all gap choices"
    for label, ratio, n, listings in _window_cells(p_max, q_max, n_max):
        for size in range(1, ratio.q + 1):
            for chosen in combinations(gap_window(n, ratio), size):
                avoids = set(chosen).isdisjoint
                avoiders = [t for t in listings[n] if avoids(t)]
                yield f"{label}, gaps={chosen}", _bijection(
                    ("collapse", _collapse),
                    ("expand", _expand),
                    avoiders,
                    listings[n - size],
                    n - size,
                    GapSet(n, ratio, chosen),
                )


@_suite("window-bijections")
def window_bijection_suite(*, p_max: int = 3, q_max: int = 3, n_max: int = 14) -> Cases:
    """Window strip/attach maps and the layer recount, same grid.

    Two cases per cell.  The strip map must biject the full-window
    members onto the family at n - p - q (vacuously when there are
    none), and every inclusion-exclusion layer i must weigh C(q, i)
    times the recurrence's count at n - i.  Layer i is the number of
    (choice of i window values, member avoiding them) pairs, counted
    from the listing at n by window occupancy, never through the maps:
    a member missing k window values avoids C(k, i) such choices.  The
    alternating sum of the layers on top of the full-window members
    equals the family size for any listing whatever, so it is not
    checked; the layers are where a fault shows.  The maps run on
    element tuples, through the cores behind ``strip_window`` and
    ``attach_window``.
    """

    def recount(ratio: Ratio, n: int, listings: Listings) -> str | None:
        misses = set(gap_window(n, ratio)).difference
        missed = [len(misses(t)) for t in listings[n]]
        for i in range(1, ratio.q + 1):
            # a member missing k window values avoids C(k, i) of the i-choices
            layer = sum(comb(k, i) for k in missed)
            expected = comb(ratio.q, i) * count_schreier_recurrence(n - i, ratio)
            if layer != expected:
                return f"layer {i} is {layer}, expected {expected}"
        return None

    yield f"1<=p<={p_max}, 1<=q<={q_max}, p+q<=n<={n_max}"
    for label, ratio, n, listings in _window_cells(p_max, q_max, n_max):
        holds = set(gap_window(n, ratio)).issubset
        holders = [t for t in listings[n] if holds(t)]
        m = n - ratio.p - ratio.q
        yield label, _bijection(
            ("strip", _strip), ("attach", _attach), holders, listings[m], m, ratio, n
        )
        yield label, recount(ratio, n, listings)


@_suite("interval-agreement")
def interval_agreement_suite(*, p_max: int = 10, n_max: int = 200) -> Cases:
    """Interval counts three ways: summed, closed form, brute force.

    The brute force is one scan of every interval of {1..n_max}, read
    for each p in turn.  A grid with no p has no cell and is not scanned.
    """
    yield f"1<=p<={p_max}, 1<=n<={n_max}"
    if not p_max:
        return
    tally = _interval_tally(n_max)
    for p in range(1, p_max + 1):
        brute = _interval_counts(tally, p)
        for n in range(1, n_max + 1):
            summed, closed = interval_count_sum(n, p), interval_count_closed(n, p)
            yield f"n={n}, p={p}", _mismatch(
                "sum {}, closed {}, brute {}", summed, closed, brute[n]
            )


@_suite("turan-cross")
def turan_cross_suite(
    *, p_max: int = 20, n_max: int = 300, quarter_n_max: int = 100
) -> Cases:
    """Edge formula against the from-parts count, plus quarter squares.

    The second leg pins the two-part column to floor(n^2 / 4).  It runs
    only when the first leg has a cell, so a grid without one yields no
    cases and is refused, not passed on quarter squares alone.
    """
    yield f"1<=p<={p_max}, p<=n<={n_max}; two parts up to n={quarter_n_max}"
    for p in range(1, p_max + 1):
        for n in range(p, n_max + 1):
            yield f"n={n}, p={p}", _mismatch(
                "formula {} != construction {}",
                turan_edges_formula(n, p),
                turan_edges_construction(n, p),
            )
    if min(p_max, n_max) < 1:  # the first leg had no cell
        return
    for n in range(1, quarter_n_max + 1):
        yield f"n={n}, p=2", _mismatch(
            "{} != floor(n^2/4) = {}", turan_edges_formula(n, 2), n * n // 4
        )


@_suite("turan-identity")
def turan_identity_suite(
    *, p_max: int = 50, n_max: int = 500, enum_limit: int = 500
) -> Cases:
    """Interval count vs Turán edges over the full claimed range.

    Each cell (n, p) compares the interval closed form, sum and brute
    force with the edge formula and from-parts count of T(n+1, p+1).
    The brute force is one scan of every interval of {1..enum_max},
    enum_max = min(enum_limit, n_max), read for every p; above it the
    other four legs decide the cell, and a failure reads "enum None".
    An n_max past the interval sum's guard is refused before the first
    cell.  A grid with no p has no cell and is not scanned.
    """
    refuse_above(n_max, INTERVAL_SUM_LIMIT, "the interval sum")
    enum_max = min(enum_limit, n_max)
    yield f"1<=p<={p_max}, p<=n<={n_max}, enumeration leg up to n={enum_max}"
    if not p_max:
        return
    ran = "intervals closed {} / sum {} / enum {}, edges formula {} / construction {}"
    skipped = ran.replace("enum {}", "enum None")
    tally = _interval_tally(enum_max)
    for p in range(1, p_max + 1):
        brute = _interval_counts(tally, p)
        for n in range(p, n_max + 1):
            closed, summed = interval_count_closed(n, p), interval_count_sum(n, p)
            formula = turan_edges_formula(n + 1, p + 1)
            parts = turan_edges_construction(n + 1, p + 1)
            yield f"n={n}, p={p}", (
                _mismatch(ran, closed, summed, brute[n], formula, parts)
                if n <= enum_max
                else _mismatch(skipped, closed, summed, formula, parts)
            )


SUITES: dict[str, tuple[Callable[..., VerifyReport], ...]] = {
    "recurrence": (recurrence_suite,),
    "formula": (formula_suite,),
    "scale-invariance": (scale_invariance_suite,),
    "bijections": (gap_bijection_suite, window_bijection_suite),
    "interval-agreement": (interval_agreement_suite,),
    "turan-cross": (turan_cross_suite,),
    "turan-identity": (turan_identity_suite,),
}
"""Registered suite names, in run order, and the suites each one runs."""


def run_suite(
    name: str,
    p_max: int | None = None,
    q_max: int | None = None,
    n_max: int | None = None,
) -> list[VerifyReport]:
    """Run one registered suite (or 'all' of them), with optional bound overrides.

    A bound reaches only the suites whose keyword bounds name it; one that
    none of them names is refused, not dropped, before any suite runs.  The
    first suite takes every bound of its selection, and its own check refuses
    a value that is not a non-negative int before any case.  A bound left as
    None falls back to each suite's default, a grid the package ships with.
    """
    if name == "all":
        suites = [suite for group in SUITES.values() for suite in group]
    elif name in SUITES:
        suites = SUITES[name]
    else:
        raise ValueError(f"unknown suite {name!r}")
    bounds = {"p_max": p_max, "q_max": q_max, "n_max": n_max}
    accepted = [suite.__kwdefaults__ for suite in suites]
    for bound, value in bounds.items():
        if value is not None and not any(bound in params for params in accepted):
            raise ValueError(f"suite {name!r} takes no {bound} bound")
    return [
        suite(**{k: v for k, v in bounds.items() if v is not None and k in params})
        for suite, params in zip(suites, accepted)
    ]
