"""Fast counting: recurrence and direct formula, against each other and the oracle."""

import tracemalloc
from itertools import accumulate
from math import comb, gcd
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schreier.counting
from conftest import forbid, patched
from schreier import (
    Ratio,
    count_schreier_bruteforce,
    count_schreier_direct,
    count_schreier_recurrence,
    enumerate_schreier,
    schreier_sequence,
)


def test_recurrence_known_values():
    assert count_schreier_recurrence(10, Ratio(1, 1)) == 55
    assert count_schreier_recurrence(5, Ratio(2, 1)) == 2
    # The q=2 recurrence gives 2*5 - 3 + 2 = 9 here, matching the oracle.
    assert count_schreier_recurrence(5, Ratio(1, 2)) == 9


def test_direct_known_values():
    assert count_schreier_direct(3, Ratio(1, 1)) == 2
    assert count_schreier_direct(4, Ratio(1, 2)) == 5
    assert count_schreier_direct(1, Ratio(3, 1)) == 0


def test_n_zero_counts_nothing():
    assert count_schreier_recurrence(0, Ratio(1, 1)) == 0
    assert count_schreier_direct(0, Ratio(2, 3)) == 0
    assert count_schreier_bruteforce(0, Ratio(1, 2)) == 0
    assert enumerate_schreier(0, Ratio(1, 2)) == ()


def test_sequence_known_prefixes():
    assert schreier_sequence(Ratio(1, 1), 6) == (0, 1, 1, 2, 3, 5, 8)
    assert schreier_sequence(Ratio(1, 2), 5) == (0, 1, 2, 3, 5, 9)
    assert schreier_sequence(Ratio(2, 1), 4) == (0, 0, 1, 1, 1)


def test_sequence_indexing_and_length():
    seq = schreier_sequence(Ratio(1, 1), 10)
    assert len(seq) == 11
    assert seq[10] == 55
    assert list(seq)[:3] == [0, 1, 1]


def test_sequence_agrees_with_point_queries():
    # below n = 2(p + q)/gcd(p, q) the engine returns the pass's own value;
    # from there on it powers, so up to n = 200 the pass cross-checks it
    for p in range(1, 7):
        for q in range(1, 7):
            ratio = Ratio(p, q)
            seq = schreier_sequence(ratio, 200)
            for n in range(201):
                assert seq[n] == count_schreier_recurrence(n, ratio)
    ratio = Ratio(3, 2)
    seq = schreier_sequence(ratio, 5000)
    for n in range(4990, 5001):
        assert seq[n] == count_schreier_recurrence(n, ratio)
    # passes that end below the depth p + q: only the terms of P that
    # start by n_max enter, at q far above n_max too
    for ratio in [Ratio(1, 10**5), Ratio(3, 10**4), Ratio(1, 1000)]:
        seq = schreier_sequence(ratio, 300)
        assert seq == tuple(count_schreier_direct(n, ratio) for n in range(301))
    for p in range(1, 9):
        for q in range(1, 9):
            ratio = Ratio(p, q)
            direct = tuple(count_schreier_direct(n, ratio) for n in range(p + q))
            for n_max in range(p + q):
                assert schreier_sequence(ratio, n_max) == direct[: n_max + 1]


def test_engine_finish_matches_the_forward_pass_at_its_boundaries():
    # n in 0..4(p + q) covers both parities, floor(n/2) below and above the
    # depth, and the handoff at n = 2(p + q), where the powering starts
    for p in range(1, 9):
        for q in range(1, 9):
            ratio = Ratio(p, q)
            seq = schreier_sequence(ratio, 4 * (p + q))
            engine = [count_schreier_recurrence(n, ratio) for n in range(len(seq))]
            assert engine == list(seq)


def _largest_below(ratio, bound):
    """The largest n with count(n) < bound, found with the engine: double, then bisect."""
    high = 1
    while count_schreier_recurrence(high, ratio) < bound:
        high *= 2
        assert high < 2**22, f"no count below n = {high} reaches {bound}"
    low = high // 2  # counts never fall as n grows (shift every member up by one)
    while high - low > 1:
        mid = (low + high) // 2
        if count_schreier_recurrence(mid, ratio) < bound:
            low = mid
        else:
            high = mid
    return low


def _assert_engine_meets_the_direct_sum_at(ratio, digits):
    # the engine at its last n below 10^digits, and that edge itself, by the direct sum
    n = _largest_below(ratio, 10**digits)
    assert count_schreier_recurrence(n, ratio) == count_schreier_direct(n, ratio)
    assert count_schreier_direct(n + 1, ratio) >= 10**digits


def test_engine_matches_the_direct_sum_where_counts_reach_a_thousand_digits():
    for p in range(1, 7):
        for q in range(1, 7):
            _assert_engine_meets_the_direct_sum_at(Ratio(p, q), 1000)


@pytest.mark.parametrize("p, q", [(1, 1), (3, 2), (1, 3)])
def test_engine_matches_the_direct_sum_at_the_cli_digit_limit(p, q):
    _assert_engine_meets_the_direct_sum_at(Ratio(p, q), 4300)


def test_engine_matches_the_direct_sum_at_a_deep_ratio():
    # (50, 50) reduces to (1, 1); the coprime (50, 51) powers at depth 101,
    # and (1000, 1) at depth 1001, where the count has 681 digits
    for ratio, n in [
        (Ratio(50, 50), 20000),
        (Ratio(50, 51), 20000),
        (Ratio(1000, 1), 300000),
    ]:
        assert count_schreier_recurrence(n, ratio) == count_schreier_direct(n, ratio)


def test_engine_powers_at_the_reduced_depth(monkeypatch):
    # (6, 4) reduces to (3, 2): the head comes from the pass at (3, 2), and
    # every fold runs at depth 5, not 10
    heads, depths = [], []
    sequence, fold = schreier.counting.schreier_sequence, schreier.counting._fold

    def spy_sequence(ratio, n_max):
        heads.append((ratio, n_max))
        return sequence(ratio, n_max)

    def spy_fold(poly, taps, depth):
        depths.append(depth)
        return fold(poly, taps, depth)

    monkeypatch.setattr(schreier.counting, "schreier_sequence", spy_sequence)
    monkeypatch.setattr(schreier.counting, "_fold", spy_fold)
    n = 1000
    assert count_schreier_recurrence(n, Ratio(6, 4)) == sequence(Ratio(6, 4), n)[n]
    assert heads == [(Ratio(3, 2), 9)]
    assert depths and set(depths) == {5}


def test_engine_matches_the_unreduced_pass():
    # the engine runs at (p + q)/gcd, the pass at the ratio as given: a
    # cross-depth check from the head through the powering, both parities
    for p in range(1, 7):
        for q in range(1, 7):
            for k in range(2, 5):
                ratio = Ratio(p, q).scaled(k)
                seq = schreier_sequence(ratio, 4 * k * (p + q))
                engine = [count_schreier_recurrence(n, ratio) for n in range(len(seq))]
                assert engine == list(seq), ratio


PRIME = 2**61 - 1


def berlekamp_massey(terms):
    """Taps c_1..c_L of the shortest recurrence s(n) = sum_k c_k s(n - k) mod PRIME."""
    current, previous = [1], [1]  # connection polynomials, lowest degree first
    length, shift, last = 0, 1, 1
    for i in range(len(terms)):
        discrepancy = sum(map(mul, current, reversed(terms[: i + 1]))) % PRIME
        if not discrepancy:
            shift += 1
            continue
        scale = discrepancy * pow(last, -1, PRIME) % PRIME
        update = current + [0] * (len(previous) + shift - len(current))
        for j, c in enumerate(previous):
            update[j + shift] = (update[j + shift] - scale * c) % PRIME
        if 2 * length <= i:
            previous, length, last, shift = current, i + 1 - length, discrepancy, 1
        else:
            shift += 1
        current = update
    current += [0] * (length + 1 - len(current))
    return [-c % PRIME for c in current[1 : length + 1]]


def test_the_reduced_recurrence_is_the_minimal_one():
    # the shortest recurrence that the direct sum's counts obey, fitted over
    # 4d + 8 terms (twice what pins a length up to 2d + 4), has the reduced
    # depth d = (p + q)/g and the reduced ratio's taps; a shorter one over
    # the integers would reduce to a shorter one mod PRIME
    for p in range(1, 13):
        for q in range(1, 13):
            g = gcd(p, q)
            depth, q_g = (p + q) // g, q // g
            counts = [count_schreier_direct(n, Ratio(p, q)) for n in range(4 * depth + 8)]
            taps = [(-1) ** (k + 1) * comb(q_g, k) for k in range(1, q_g + 1)]
            taps += [0] * (depth - q_g - 1) + [1]
            fitted = berlekamp_massey([c % PRIME for c in counts])
            assert fitted == [c % PRIME for c in taps], (p, q)


def test_recurrence_routes_never_call_the_direct_sum(monkeypatch):
    # the recurrence's initial terms come from its generating function, so
    # agreement with the direct sum is never the direct sum against itself
    patched(monkeypatch, {"counting.count_schreier_direct": forbid})
    assert count_schreier_recurrence(30, Ratio(1, 1)) == 832040
    assert schreier_sequence(Ratio(1, 1), 30)[30] == 832040
    for ratio, prefix in [
        (Ratio(1, 2), (0, 1, 2, 3, 5, 9)),
        (Ratio(2, 1), (0, 0, 1, 1, 1)),
    ]:
        assert schreier_sequence(ratio, len(prefix) - 1) == prefix
        for n, count in enumerate(prefix):
            assert count_schreier_recurrence(n, ratio) == count
    assert count_schreier_recurrence(5, Ratio(4000, 1)) == 0


def test_initial_terms_match_the_oracle():
    # every n < p + q, on a grid beyond the (6,6) of the verify suites
    for p in range(1, 9):
        for q in range(1, 9):
            ratio = Ratio(p, q)
            oracle = tuple(count_schreier_bruteforce(n, ratio) for n in range(p + q))
            assert schreier_sequence(ratio, p + q - 1) == oracle


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (1, 4)])
def test_recurrence_matches_oracle_on_small_grid(p, q):
    ratio = Ratio(p, q)
    for n in range(1, 15):
        assert count_schreier_recurrence(n, ratio) == count_schreier_bruteforce(n, ratio)


def test_q_one_specialization():
    # For q = 1 the recurrence collapses to count(n-1) + count(n-p-1).
    for p in range(1, 6):
        seq = schreier_sequence(Ratio(p, 1), 60)
        for n in range(p + 1, 61):
            assert seq[n] == seq[n - 1] + seq[n - p - 1]


def quadratic_direct_sum(n, ratio):
    """Reference: sum over m of the row sum of C(t, j), j <= cap, each row from scratch.

    Saturated rows (cap >= t) sum to 2^t; a partial row builds C(t, j)
    from C(t, j - 1).  O(n^2) small steps, and no state carried between rows.
    """
    p, q = ratio.p, ratio.q
    total = 1 if q * n >= p else 0
    for m in range(1, n):
        cap = q * m // p - 2
        t = n - m - 1
        if cap >= t:
            total += 1 << t
        elif cap >= 0:
            term = acc = 1
            for j in range(1, cap + 1):
                term = term * (t - j + 1) // j
                acc += term
            total += acc
    return total


def test_direct_sum_matches_the_quadratic_reference():
    for p in range(1, 7):
        for q in range(1, 7):
            ratio = Ratio(p, q)
            for n in range(121):
                assert count_schreier_direct(n, ratio) == quadratic_direct_sum(n, ratio)
    # deep into partial rows, where the walk narrows c most often
    for p, q in [(1, 1), (3, 2), (6, 6), (1, 6), (6, 1)]:
        for n in (1000, 1001):
            ratio = Ratio(p, q)
            assert count_schreier_direct(n, ratio) == quadratic_direct_sum(n, ratio)


def pascal_prefix_sums(t_max):
    """prefix[t][c] = C(t, 0) + ... + C(t, c) for 0 <= c <= t <= t_max, row from row."""
    prefix, row = [], [1]
    for _ in range(t_max + 1):
        prefix.append(list(accumulate(row)))
        row = [1, *map(add, row, row[1:]), 1]
    return prefix


def table_direct_sum(n, ratio, prefix):
    """Reference: quadratic_direct_sum's row sums, each read off one prefix-sum table."""
    p, q = ratio.p, ratio.q
    total = 1 if q * n >= p else 0
    for m in range(1, n):
        cap, t = q * m // p - 2, n - m - 1
        if cap >= 0:
            total += prefix[t][min(cap, t)]
    return total


def test_saturated_rows_summed_in_one_term_match_the_quadratic_reference():
    # rows t <= T = min((q(n-1) - 2p) // (p+q), n - 2) hold every subset of
    # their gap and are added as 2^(T+1) - 1; n <= 150 takes in n = 0, 1, 2
    # (no row at all) and every n where T moves, at every ratio
    prefix = pascal_prefix_sums(150)
    for p in range(1, 13):
        for q in range(1, 13):
            ratio = Ratio(p, q)
            for n in range(151):
                assert count_schreier_direct(n, ratio) == table_direct_sum(n, ratio, prefix)
    # q far above p: almost every row is saturated, the walk starts late
    for p, q in [(1, 40), (1, 200), (3, 500)]:
        ratio = Ratio(p, q)
        for n in [*range(601), 1000, 1001]:
            assert count_schreier_direct(n, ratio) == quadratic_direct_sum(n, ratio)


def test_direct_sum_imports_nothing_from_the_recurrence(monkeypatch):
    patched(monkeypatch, {
        "counting._starts": forbid, "counting._fold": forbid, "counting.comb": forbid
    })
    assert count_schreier_direct(30, Ratio(1, 1)) == 832040
    assert count_schreier_direct(5, Ratio(1, 2)) == 9


def test_counts_below_the_depth_build_no_taps(monkeypatch):
    # n = 5 is far below the depth p + q = 40001 of the coprime ratio: only
    # count(0..5) is built, and the q binomial taps, which would need comb,
    # are never made
    patched(monkeypatch, {"counting.comb": forbid})
    ratio = Ratio(20000, 20001)
    assert count_schreier_recurrence(5, ratio) == 5
    assert schreier_sequence(ratio, 5) == (0, 1, 1, 2, 3, 5)
    assert count_schreier_recurrence(5, Ratio(1, 10**8)) == 16


def test_a_short_prefix_at_a_huge_depth_holds_only_its_own_sums():
    # the pass holds min(q, n_max) + 1 levels: 6 here, not the q + 1 of
    # the whole chain, which would take megabytes at q = 10^6
    tracemalloc.start()
    try:
        counts = schreier_sequence(Ratio(1, 10**6), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == (0, 1, 2, 4, 8, 16)
    assert peak < 64 * 1024


def test_engine_reads_its_whole_head_off_the_forward_pass(monkeypatch):
    # every n < 2(p + q) is answered from the pass, before any tap is built;
    # (100, 101) is coprime, so n = 401 is just below 2 * 201
    patched(monkeypatch, {"counting.comb": forbid})
    ratio = Ratio(100, 101)
    assert count_schreier_recurrence(401, ratio) == count_schreier_direct(401, ratio)


ratios = st.builds(
    Ratio, st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5)
)


@given(ratios, st.integers(min_value=0, max_value=120))
@settings(max_examples=60)
def test_recurrence_and_direct_agree(ratio, n):
    assert count_schreier_recurrence(n, ratio) == count_schreier_direct(n, ratio)


@given(
    st.builds(
        Ratio, st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40)
    ),
    st.integers(min_value=0, max_value=1500),
)
@settings(max_examples=60, deadline=None)
def test_direct_and_recurrence_agree_beyond_the_verify_grid(ratio, n):
    assert count_schreier_direct(n, ratio) == count_schreier_recurrence(n, ratio)


@given(ratios, st.integers(min_value=1, max_value=150))
@settings(max_examples=40)
def test_sequence_values_never_go_negative(ratio, n_max):
    # The alternating signs in the recurrence must never undershoot zero.
    assert all(v >= 0 for v in schreier_sequence(ratio, n_max))


@given(ratios, st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=80))
@settings(max_examples=40)
def test_counts_ignore_the_ratio_representation(ratio, k, n):
    # the engine reduces (kp, kq); the pass runs at depth k(p + q)
    scaled = ratio.scaled(k)
    assert count_schreier_recurrence(n, scaled) == schreier_sequence(scaled, n)[n]
