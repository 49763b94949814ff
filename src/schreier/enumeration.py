"""Brute-force enumeration: the ground-truth oracles.

Every fast method in this package is validated against the functions
here.  They visit every candidate set and apply the defining
predicate, with no pruning and no shortcuts, so that their
correctness is evident by inspection.  The family listing and every
family count read one strided subset scan: the bitmasks of the sets
with maximum n, split by smallest element s into strides that a
``range`` steps through, so every mask is visited once and its size is
its bit count.  The predicate q*min F >= p*|F| then reads as a size
cap, |F| <= q*s // p.  The listings apply it mask by mask, and every
count applies it class by class to the scan's (size, smallest) tally.
A member is its strictly increasing tuple of elements.  One ordered
stream lists a family; one pass lists a whole grid of ratios at one n,
as a set of members per ratio.  It sizes each stride once, keeping the
masks within the grid's loosest cap sorted by size, so that every
ratio's members there are a prefix, and it builds one tuple per
admitted mask, shared by every ratio that admits it.  FiniteSet is
built only for the public listing.  The scan is exponential in n;
``ORACLE_LIMIT`` keeps instances desk-sized.  The interval scan visits
every interval of {1..n} once and tallies it by its maximum and the
least p that admits it, so one scan serves every p, as the subset
tally serves every ratio.  It is quadratic in n and has its own guard,
``INTERVAL_LIMIT``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import accumulate, compress
from operator import floordiv

from .sets import (
    INTERVAL_LIMIT,
    ORACLE_LIMIT,
    Elements,
    FiniteSet,
    OracleLimitError,  # noqa: F401  (also read as enumeration.OracleLimitError)
    Ratio,
    refuse_above,
    require_int,
)

Tally = tuple[tuple[int, int, int], ...]  # (count, size, smallest) per class
IntervalTally = list[tuple[list[int], list[int]]]  # per maximum: (k's, counts)


def _scan(n: int) -> list[tuple[int, range]]:
    """The one subset scan: (s, the masks of every F with min F = s) for s = 1..n.

    F runs over the subsets of {1..n} with max F = n; bit i-1 of a mask
    holds element i, so bit n-1 is always set.  Stride s holds the masks
    whose lowest set bit is bit s-1: top | 1<<(s-1) stepped by 1<<s up
    to 2*top, with top = 1<<(n-1); at s = n that is top alone, the set
    {n}.  The strides partition all 2**(n-1) masks, each in ascending
    order, and no mask is skipped.  Refuses n outside 0..ORACLE_LIMIT at
    the call, before any work.
    """
    require_int("n", n, 0)
    refuse_above(n, ORACLE_LIMIT, "oracle")
    if not n:  # no set of positive integers has maximum 0
        return []
    top = 1 << (n - 1)
    return [(s, range(top | 1 << (s - 1), 2 * top, 1 << s)) for s in range(1, n + 1)]


def _cap(smallest: int, ratio: Ratio) -> int:
    """The largest |F| that q*min F >= p*|F| admits when min F = ``smallest``.

    The one form of the family predicate: an integer size meets
    q*smallest >= p*size exactly when it is at most q*smallest // p.
    """
    return ratio.q * smallest // ratio.p


def _subset_tally(n: int) -> Tally:
    """The scan at n counted by (size, smallest): (count, size, smallest) per class.

    The family predicate reads only those two numbers, so every ratio's
    count at n is the sum of the admitted classes' counts; one scan
    serves them all.  At most n**2 classes, whatever the scan's length.
    """
    return tuple(
        (count, size, s)
        for s, masks in _scan(n)
        for size, count in Counter(map(int.bit_count, masks)).items()
    )


def _tally_count(tally: Tally, ratio: Ratio) -> int:
    """The family size at the tally's n: the counts of the admitted classes."""
    return sum(count for count, size, s in tally if size <= _cap(s, ratio))


def _elements(mask: int) -> Elements:
    """The set a mask holds, one set bit at a time from the lowest."""
    elements = []
    while mask:
        low = mask & -mask
        elements.append(low.bit_length())
        mask ^= low
    return tuple(elements)


def _within_cap(masks: range, cap: int) -> Iterator[int]:
    """The masks of one stride whose size is at most ``cap``, in ascending order."""
    return compress(masks, map(cap.__ge__, map(int.bit_count, masks)))


def _members(n: int, ratio: Ratio) -> Iterator[Elements]:
    """Every family member at n as its element tuple, in ascending-bitmask order.

    The one ordered listing.  Each stride is filtered by its size cap on
    its own and ``heapq.merge`` interleaves the strides, so members stream
    in order without a sort.  The scan's guard runs at the call, before
    the first member.
    """
    from heapq import merge  # here, not at the top: only a listing needs it

    admitted = [_within_cap(masks, _cap(s, ratio)) for s, masks in _scan(n)]
    return map(_elements, merge(*admitted))


def _listings(n: int, ratios: Iterable[Ratio]) -> list[frozenset[Elements]]:
    """The family at n for each ratio in turn, each as a set of element tuples.

    One scan serves every ratio, with one size pass per stride: the masks
    within the grid's loosest cap there, sorted by size, so each ratio
    takes a prefix of them.  One tuple is built per mask that any ratio
    admits, and the ratios that admit a mask share its object.  A grid
    only scans and compares its families, so they come unordered.
    """
    strides, ratios = _scan(n), list(ratios)
    if not ratios:  # no cap to size a stride against
        return []
    families: list[list[Elements]] = [[] for _ in ratios]
    for s, masks in strides:
        caps = [_cap(s, ratio) for ratio in ratios]
        loosest = sorted(_within_cap(masks, max(caps)), key=int.bit_count)
        sizes = list(map(int.bit_count, loosest))
        members = list(map(_elements, loosest))
        for family, cap in zip(families, caps):
            family += members[: bisect_right(sizes, cap)]
    return list(map(frozenset, families))


def enumerate_schreier(n: int, ratio: Ratio) -> tuple[FiniteSet, ...]:
    """List every F within {1..n} with max F = n and q*min F >= p*|F|.

    Members come out in ascending-bitmask order (bit i-1 holds element
    i), so listings are deterministic and diffable.
    """
    return tuple(map(FiniteSet, _members(n, ratio)))


def count_schreier_bruteforce(n: int, ratio: Ratio) -> int:
    """|enumerate_schreier(n, ratio)|, read off the scan's (size, smallest) tally."""
    return _tally_count(_subset_tally(n), ratio)


def _interval_tally(n_max: int) -> IntervalTally:
    """Every interval [lo, hi] of {1..n_max}, counted by its maximum and its least p.

    [lo, hi] meets p*lo >= hi - lo + 1 exactly when p is at least
    k = ceil((hi - lo + 1) / lo), so its class (hi, k) decides it for
    every p, and one scan serves them all.  Row hi visits each lo = 1..hi
    once, with no early break.  Entry hi holds the row's classes sorted
    by k, as (the k's, the interval count of each); entry 0 is empty.  A
    row has fewer than 2*sqrt(hi) + 1 classes (k is hi // lo), so the
    tally grows as n_max**1.5, not as an n_max-square table.  Refuses
    n_max > INTERVAL_LIMIT before any work.
    """
    require_int("n_max", n_max, 0)
    refuse_above(n_max, INTERVAL_LIMIT, "interval enumeration")
    tally: IntervalTally = []
    for hi in range(n_max + 1):
        # floor(-length / lo) is -k, at lo = 1..hi with length = hi + 1 - lo
        negated = Counter(map(floordiv, range(-hi, 0), range(1, hi + 1)))
        classes = sorted((-minus_k, count) for minus_k, count in negated.items())
        tally.append(([k for k, _ in classes], [count for _, count in classes]))
    return tally


def _interval_counts(tally: IntervalTally, p: int) -> list[int]:
    """Entry n: the intervals within {1..n} with p*min F >= |F|, off the tally.

    Row hi contributes its classes with k <= p, a prefix of the row.
    """
    return list(
        accumulate(sum(counts[: bisect_right(ks, p)]) for ks, counts in tally)
    )


def count_interval_bruteforce(n: int, p: int) -> int:
    """Intervals F within {1..n} (any maximum) with p*min F >= |F|, off the scan."""
    require_int("n", n)
    require_int("p", p)
    return _interval_counts(_interval_tally(n), p)[n]
