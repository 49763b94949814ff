"""Turán edge counts, interval counts, and the identity tying them together."""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import forbid, patched
from schreier import (
    INTERVAL_SUM_LIMIT,
    count_interval_bruteforce,
    interval_count_closed,
    interval_count_sum,
    turan_edges_construction,
    turan_edges_formula,
    turan_identity_suite,
)


def test_edge_formula_known_values():
    assert turan_edges_formula(4, 3) == 5
    assert turan_edges_formula(5, 2) == 6
    assert turan_edges_formula(4, 4) == 6  # complete K_4


def test_edge_construction_known_values():
    assert turan_edges_construction(7, 3) == 16
    assert turan_edges_construction(5, 3) == 8
    assert turan_edges_construction(3, 1) == 0


def test_more_parts_than_vertices_gives_the_complete_graph(monkeypatch):
    assert turan_edges_construction(3, 5) == 3

    # The formula never needs the leg it is checked against.
    patched(monkeypatch, {"turan.turan_edges_construction": forbid})
    assert turan_edges_formula(3, 5) == 3  # r = n, so only r(r-1)/2 remains
    for n in range(1, 31):
        for p in range(31, 41):
            assert turan_edges_formula(n, p) == n * (n - 1) // 2


def vertex_pair_count(n, p):
    """Literal oracle: vertex v goes to block v % p, cross pairs counted one by one."""
    return sum(1 for a, b in combinations(range(n), 2) if a % p != b % p)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_edge_counts_match_a_literal_graph(p):
    for n in range(1, 30):
        assert turan_edges_formula(n, p) == vertex_pair_count(n, p)
        assert turan_edges_construction(n, p) == vertex_pair_count(n, p)


def test_interval_sum_known_values():
    assert interval_count_sum(3, 2) == 5
    assert interval_count_sum(1, 1) == 1
    assert interval_count_sum(3, 5) == 6
    # the sum's guard admits n = INTERVAL_SUM_LIMIT itself
    assert interval_count_sum(INTERVAL_SUM_LIMIT, 3) == interval_count_closed(
        INTERVAL_SUM_LIMIT, 3
    )


def compare_every_term(n, p):
    """Reference: the interval sum with one comparison per term, to m = n."""
    total = 0
    for budget, room in zip(range(p, p * n + 1, p), range(n, 0, -1)):
        total += budget if budget < room else room
    return total


def test_interval_sum_matches_the_compare_every_term_loop():
    ns = range(1, 1001)
    cells = {(n, p) for n in ns for p in range(1, 41)}
    # (p + 1) | (n + 1): budget meets room exactly, at m = (n + 1) / (p + 1)
    cells |= {(n, p) for n in ns for p in range(1, n + 1) if (n + 1) % (p + 1) == 0}
    # p > n: the room is below the budget from m = 1 on
    cells |= {(n, p) for n in ns for p in (n + 1, 2 * n + 1, 10**6)}
    assert [
        cell for cell in sorted(cells) if interval_count_sum(*cell) != compare_every_term(*cell)
    ] == []


def test_the_sum_and_the_scan_never_reach_the_closed_form(monkeypatch):
    patched(monkeypatch, {"turan.interval_count_closed": forbid})
    for n, p, expected in [(3, 2, 5), (4, 2, 8), (17, 3, 121), (2, 9, 3), (1000, 7, 438_375)]:
        assert interval_count_sum(n, p) == expected
        assert count_interval_bruteforce(n, p) == expected


def test_interval_closed_known_values():
    assert interval_count_closed(3, 2) == 5
    assert interval_count_closed(4, 2) == 8
    assert interval_count_closed(2, 9) == 3


def test_interval_three_way_agreement_small_grid():
    for p in range(1, 7):
        for n in range(1, 40):
            summed = interval_count_sum(n, p)
            assert summed == interval_count_closed(n, p)
            assert summed == count_interval_bruteforce(n, p)


def test_identity_known_reports():
    report = turan_identity_suite(p_max=2, n_max=3)
    assert report.passed
    assert report.cases == 5  # (n, p) with 1 <= p <= n <= 3, p <= 2
    assert (
        interval_count_closed(3, 2)
        == interval_count_sum(3, 2)
        == count_interval_bruteforce(3, 2)
        == turan_edges_formula(4, 3)
        == turan_edges_construction(4, 3)
        == 5
    )
    assert turan_edges_formula(5, 5) == 10
    assert interval_count_closed(4, 2) == 8


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
def test_formula_and_construction_always_agree(n, p):
    assert turan_edges_formula(n, p) == turan_edges_construction(n, p)


@given(st.integers(min_value=1, max_value=80))
def test_two_part_column_is_quarter_squares(n):
    assert turan_edges_formula(n, 2) == n * n // 4


@given(st.integers(min_value=1, max_value=50))
def test_identity_along_the_diagonal(n):
    # At n = p both sides degenerate to C(n+1, 2), along all five legs.
    assert {
        interval_count_closed(n, n),
        interval_count_sum(n, n),
        count_interval_bruteforce(n, n),
        turan_edges_formula(n + 1, n + 1),
        turan_edges_construction(n + 1, n + 1),
    } == {n * (n + 1) // 2}


def test_identity_holds_below_the_diagonal():
    # with n < p every interval qualifies and T(n+1, p+1) is complete: all
    # five legs read C(n+1, 2)
    for p in range(2, 41):
        for n in range(1, p):
            assert {
                interval_count_closed(n, p),
                interval_count_sum(n, p),
                count_interval_bruteforce(n, p),
                turan_edges_formula(n + 1, p + 1),
                turan_edges_construction(n + 1, p + 1),
            } == {n * (n + 1) // 2}


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=40))
def test_interval_sum_matches_the_closed_form_and_the_enumeration(n, p):
    summed = interval_count_sum(n, p)
    assert summed == interval_count_closed(n, p)
    assert summed == count_interval_bruteforce(n, p)
