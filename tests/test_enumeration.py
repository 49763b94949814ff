"""Brute-force enumerators: cross-checked against a second, even dumber oracle."""

import hashlib
import tracemalloc
from itertools import combinations, product
from math import comb

import pytest

from conftest import forbid, patched
from schreier.enumeration import (
    _interval_counts,
    _interval_tally,
    _listings,
    _members,
    _scan,
    _subset_tally,
)
from schreier.sets import _in_family

from schreier import (
    INTERVAL_LIMIT,
    ORACLE_LIMIT,
    FiniteSet,
    Ratio,
    count_interval_bruteforce,
    count_schreier_bruteforce,
    count_schreier_direct,
    enumerate_schreier,
    interval_count_closed,
)


def listing_strings(listing):
    return [str(fs) for fs in listing]


def test_known_listings():
    assert listing_strings(enumerate_schreier(3, Ratio(1, 1))) == ["{3}", "{2,3}"]
    assert listing_strings(enumerate_schreier(1, Ratio(1, 1))) == ["{1}"]
    assert listing_strings(enumerate_schreier(4, Ratio(1, 2))) == [
        "{4}",
        "{1,4}",
        "{2,4}",
        "{3,4}",
        "{2,3,4}",
    ]


def test_known_counts():
    assert count_schreier_bruteforce(2, Ratio(1, 1)) == 1
    assert count_schreier_bruteforce(5, Ratio(2, 1)) == 2
    assert count_schreier_bruteforce(4, Ratio(1, 2)) == 5


def test_count_matches_listing_length():
    for p, q in [(1, 1), (1, 2), (2, 1), (3, 2)]:
        for n in range(1, 11):
            ratio = Ratio(p, q)
            assert count_schreier_bruteforce(n, ratio) == len(
                enumerate_schreier(n, ratio)
            )


def combinations_oracle(n, ratio):
    """Second oracle: grow subsets of {1..n-1} around the forced maximum.

    Uses itertools.combinations instead of bitmasks, so it shares no
    mechanics with the package's subset scan.
    """
    found = set()
    pool = range(1, n)
    for size in range(0, n):
        for rest in combinations(pool, size):
            fs = FiniteSet(rest + (n,))
            if _in_family(fs.elements, ratio, n):
                found.add(fs)
    return found


def bitmask(fs):
    return sum(1 << (x - 1) for x in fs)


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 1)])
def test_listing_agrees_with_combinations_oracle(p, q):
    # the listing and the count both read the strided scan, so each is
    # held against the combinations oracle on its own
    ratio = Ratio(p, q)
    for n in range(1, 12):
        listing = enumerate_schreier(n, ratio)
        expected = combinations_oracle(n, ratio)
        # ascending-bitmask order: bit i-1 holds element i
        assert list(listing) == sorted(expected, key=bitmask)
        assert count_schreier_bruteforce(n, ratio) == len(expected)


def test_grid_listing_is_the_stream_and_the_predicate_filter():
    # one pass lists every ratio of the grid: each listing is the set of the
    # streamed members, and the stream is the filter of every subset of
    # {1..n} by the predicate, in order, as plain element tuples
    ratios = [Ratio(p, q) for p in range(1, 5) for q in range(1, 5)]
    subsets = []  # every nonempty subset of {1..n}, in ascending-bitmask order
    for n in range(17):
        if n:  # the masks with bit n-1 set follow, in the same order
            subsets += [(n,)]
            subsets += [t + (n,) for t in subsets[:-1]]
        for ratio, listing in zip(ratios, _listings(n, ratios), strict=True):
            members = list(_members(n, ratio))
            assert all(type(t) is tuple for t in members)
            masks = list(map(bitmask, members))
            assert masks == sorted(set(masks))  # ascending, each member once
            assert members == [t for t in subsets if _in_family(t, ratio, n)]
            assert type(listing) is frozenset
            assert listing == frozenset(members)


def test_ratios_that_admit_a_mask_share_its_member():
    wide, narrow = _listings(12, [Ratio(1, 3), Ratio(2, 3)])
    by_elements = {t: t for t in wide}
    assert 0 < len(narrow) < len(wide)
    assert all(by_elements[t] is t for t in narrow)
    same, scaled = _listings(10, [Ratio(1, 2), Ratio(2, 4)])
    by_elements = {t: t for t in same}
    assert same and same == scaled and all(by_elements[t] is t for t in scaled)


def test_a_grid_listing_holds_only_what_it_admits():
    # at (50, 1) no mask at n = 18 is admitted: the 2**17 masks stream
    # through the size pass, and none of them is held, nor a whole stride
    tracemalloc.start()
    try:
        (listing,) = _listings(18, [Ratio(50, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert listing == frozenset()
    assert peak < 1_000_000


def test_an_empty_grid_sizes_no_stride(monkeypatch):
    # an empty grid at the oracle's limit is listed at once, not after 2**29 masks
    patched(monkeypatch, {"enumeration._within_cap": forbid})
    assert _listings(ORACLE_LIMIT, []) == []


# sha256 of the members' element tuples, one line per (p, q, n) with p and q
# up to 6 and n up to 18, in that nesting order: the listings' content and
# order, whatever the grid listing holds inside
LISTINGS_DIGEST = "21f612727cf33f877827233256207afec647115b35a23683ebc6955214296d28"


def test_enumerate_schreier_output_is_pinned():
    digest = hashlib.sha256()
    for p, q in product(range(1, 7), repeat=2):
        for n in range(19):
            listing = enumerate_schreier(n, Ratio(p, q))
            assert type(listing) is tuple
            assert all(type(fs) is FiniteSet for fs in listing)
            digest.update(repr([fs.elements for fs in listing]).encode() + b"\n")
    assert digest.hexdigest() == LISTINGS_DIGEST


def test_every_member_satisfies_the_family_predicate():
    for n in range(1, 12):
        for fs in enumerate_schreier(n, Ratio(1, 2)):
            assert _in_family(fs.elements, Ratio(1, 2), n)


def test_fibonacci_prefix_for_the_classical_ratio():
    ratio = Ratio(1, 1)
    counts = [count_schreier_bruteforce(n, ratio) for n in range(1, 13)]
    assert counts[0] == counts[1] == 1
    for i in range(2, len(counts)):
        assert counts[i] == counts[i - 1] + counts[i - 2]


def test_scaled_ratio_gives_the_same_counts():
    for k in (2, 3):
        for n in range(1, 13):
            assert count_schreier_bruteforce(n, Ratio(1, 2)) == count_schreier_bruteforce(
                n, Ratio(k, 2 * k)
            )


def test_members_of_each_size_number_one_binomial():
    # the lemma behind the CLI's digit-limit refusal: a member of size s has
    # min m >= ceil(ps/q) and its other s - 2 elements strictly between m and
    # n, so the admitted classes of size s number C(n - ceil(ps/q), s - 1)
    for n in range(19):
        tally = _subset_tally(n)
        for p in range(1, 9):
            for q in range(1, 9):
                for size in range(1, n + 1):
                    admitted = sum(
                        count for count, k, s in tally if k == size and q * s >= p * k
                    )
                    top = n - -(-p * size // q)
                    assert admitted == (comb(top, size - 1) if top >= 0 else 0)


def test_tally_count_matches_the_direct_sum():
    # the tally's classes cover every mask of the scan once; the direct sum
    # counts by binomial rows and shares no code with the scan
    for n in range(17):
        assert sum(count for count, _, _ in _subset_tally(n)) == (1 << n >> 1)
        for p in range(1, 7):
            for q in range(1, 7):
                ratio = Ratio(p, q)
                assert count_schreier_bruteforce(n, ratio) == count_schreier_direct(
                    n, ratio
                )


def test_strides_partition_the_masks_by_smallest_element():
    for n in range(15):
        strides = _scan(n)
        assert [s for s, _ in strides] == list(range(1, n + 1))
        masks = sorted(mask for _, stride in strides for mask in stride)
        assert masks == (list(range(1 << (n - 1), 1 << n)) if n else [])
        for s, stride in strides:
            assert all((mask & -mask).bit_length() == s for mask in stride)


def test_interval_counts():
    assert count_interval_bruteforce(3, 2) == 5
    assert count_interval_bruteforce(3, 5) == 6
    assert count_interval_bruteforce(1, 7) == 1
    # the scan's guard admits n = INTERVAL_LIMIT itself
    assert count_interval_bruteforce(INTERVAL_LIMIT, 3) == interval_count_closed(
        INTERVAL_LIMIT, 3
    )


def per_n_interval_count(n, p):
    """Reference: the intervals within {1..n} for one n, by their own double loop."""
    total = 0
    for lo in range(1, n + 1):
        lo_weight = p * lo
        for hi in range(lo, n + 1):
            if lo_weight >= hi - lo + 1:
                total += 1
    return total


def test_interval_tally_matches_the_per_n_double_loop():
    # one scan serves every p; from p = 200 on every interval of {1..200} qualifies
    tally = _interval_tally(200)
    assert len(tally) == 201
    for p in [*range(1, 13), 200, 201, 10**6]:
        assert _interval_counts(tally, p) == [per_n_interval_count(n, p) for n in range(201)]
    assert _interval_counts(_interval_tally(0), 3) == [0]


def test_interval_tally_holds_classes_not_a_square_table():
    # a row holds under 2*sqrt(hi) + 1 classes: about 41,000 in all at
    # n_max = 1000, where a table of one count per (n, p) would hold a
    # million and take 8 MB in its list slots alone
    tracemalloc.start()
    try:
        tally = _interval_tally(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert _interval_counts(tally, 7)[1000] == interval_count_closed(1000, 7)
