"""Acceptance suite: ten end-to-end checks with pinned grids and budgets.

Each test prints a single PASS/FAIL line (run ``pytest -s`` to see them
on a green run).  Grids and time budgets are fixed; loosening either to
make a failing check pass defeats the point of the suite.
"""

import time

from schreier import (
    ORACLE_LIMIT,
    OracleLimitError,
    Ratio,
    count_schreier_bruteforce,
    count_schreier_direct,
    count_schreier_recurrence,
    formula_suite,
    gap_bijection_suite,
    interval_agreement_suite,
    recurrence_suite,
    scale_invariance_suite,
    schreier_sequence,
    turan_cross_suite,
    turan_identity_suite,
    window_bijection_suite,
)

FIB_30 = 832040


class Stopwatch:
    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.started


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{status}] {name}{suffix}")
    assert ok, f"criterion {number} failed: {name} {suffix}"


def test_criterion_01_fibonacci_specialization():
    ratio = Ratio(1, 1)
    with Stopwatch() as watch:
        seq = schreier_sequence(ratio, 30)
        fib = [0, 1, 1]
        while len(fib) < 31:
            fib.append(fib[-1] + fib[-2])
        ok = list(seq) == fib
        # seeds straight from the oracle, so the two routes stay independent
        ok = ok and count_schreier_bruteforce(1, ratio) == 1
        ok = ok and count_schreier_bruteforce(2, ratio) == 1
        ok = ok and seq[30] == FIB_30
        ok = ok and count_schreier_direct(30, ratio) == FIB_30
    ok = ok and watch.seconds < 1.0
    report(1, "Fibonacci specialization at (1,1) up to n=30", ok,
           f"{watch.seconds:.3f}s")


def test_criterion_02_recurrence_matches_oracle_grid():
    with Stopwatch() as watch:
        result = recurrence_suite(p_max=4, q_max=4, n_max=20)
    ok = result.passed and watch.seconds < 60.0
    report(2, "recurrence equals brute force on (p,q)<=(4,4), n<=20", ok,
           f"{result.cases} cases, {watch.seconds:.1f}s")


def test_criterion_03_recurrence_matches_direct_formula_grid():
    with Stopwatch() as watch:
        result = formula_suite(p_max=6, q_max=6, n_max=300)
    ok = result.passed and watch.seconds < 60.0
    report(3, "recurrence equals direct formula on (p,q)<=(6,6), n<=300", ok,
           f"{result.cases} cases, {watch.seconds:.1f}s")


def test_criterion_04_representation_independence():
    result = scale_invariance_suite(p_max=3, q_max=3, n_max=200)
    report(4, "scaled ratios (kp,kq) reproduce every sequence value", result.passed,
           f"{result.cases} comparisons")


def test_criterion_05_gap_maps_are_bijections():
    with Stopwatch() as watch:
        result = gap_bijection_suite(p_max=3, q_max=3, n_max=14)
    report(5, "gap-collapsing maps biject onto the smaller families",
           result.passed, f"{result.cases} gap choices, {watch.seconds:.1f}s")


def test_criterion_06_window_map_and_recount():
    with Stopwatch() as watch:
        result = window_bijection_suite(p_max=3, q_max=3, n_max=14)
    report(6, "window strip/attach bijections and layered recount", result.passed,
           f"{result.cases} cases, {watch.seconds:.1f}s")


def test_criterion_07_interval_three_way_agreement():
    result = interval_agreement_suite(p_max=10, n_max=200)
    report(7, "interval counts agree: sum, closed form, brute force",
           result.passed, f"{result.cases} cases")


def test_criterion_08_interval_turan_identity():
    with Stopwatch() as watch:
        result = turan_identity_suite(p_max=50, n_max=500, enum_limit=200)
    ok = result.passed and watch.seconds < 30.0
    report(8, "interval count equals Turan edges, p<=50, n<=500", ok,
           f"{result.cases} cases, {watch.seconds:.1f}s")


def test_criterion_09_turan_formula_vs_construction():
    result = turan_cross_suite(p_max=20, n_max=300, quarter_n_max=100)
    report(9, "Turan edge formula equals from-parts construction", result.passed,
           f"{result.cases} cases")


def test_criterion_10_linear_time_scaling_with_guarded_oracle():
    ratio = Ratio(3, 2)
    with Stopwatch() as watch:
        value = count_schreier_recurrence(10_000, ratio)
    guarded = False
    try:
        count_schreier_bruteforce(10_000, ratio)
    except OracleLimitError:
        guarded = True
    ok = watch.seconds < 5.0 and guarded and value > 10 ** 1000
    report(10, f"n=10000 recurrence beats the n<={ORACLE_LIMIT} oracle guard", ok,
           f"{watch.seconds:.2f}s, {len(str(value))} digits")
