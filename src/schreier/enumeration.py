"""Brute-force enumeration: the ground-truth oracles.

Every fast method in this package is validated against the functions
here.  They visit candidate sets exhaustively and apply the defining
predicate to each one, with no pruning and no shortcuts, so that their
correctness is evident by inspection.  The family count, the family
listing and the class tally share one subset scan, which is exponential
in n; ``ORACLE_LIMIT`` keeps instances desk-sized.  The interval tally
is quadratic in n and has its own guard, ``INTERVAL_LIMIT``.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, Iterator

from .sets import FiniteSet, Ratio, require_int

ORACLE_LIMIT = 30
"""Largest n the subset-scanning oracles accept (2**(n-1) candidates)."""

INTERVAL_LIMIT = 2000
"""Largest n the interval enumeration accepts (about n**2 / 2 candidates)."""

Tally = tuple[tuple[int, int, int], ...]  # (count, size, smallest) per class


class OracleLimitError(RuntimeError):
    """Instance too large for a brute-force oracle."""


def _scan(n: int) -> Iterator[tuple[int, int, int]]:
    """The one subset scan: (mask, |F|, min F) for every F within {1..n} with max F = n.

    Walks all 2**(n-1) such sets in ascending bitmask order (bit i-1
    holds element i, so bit n-1 is always set), reading |F| from the
    bit count and min F from the lowest set bit, mask & -mask; no mask
    is skipped.  Refuses n outside 0..ORACLE_LIMIT before any work.
    """
    require_int("n", n, 0, "a non-negative integer")
    if n > ORACLE_LIMIT:
        raise OracleLimitError(
            f"instance too large for oracle: n={n} exceeds the n <= {ORACLE_LIMIT} guard"
        )
    # no set of positive integers has maximum 0
    masks = range(1 << (n - 1), 1 << n) if n else range(0)
    return ((mask, mask.bit_count(), (mask & -mask).bit_length()) for mask in masks)


def _admitted(rows: Iterable[tuple[int, int, int]], ratio: Ratio) -> Iterator[int]:
    """The first field of every (x, size, smallest) row with q*smallest >= p*size."""
    p, q = ratio.p, ratio.q
    return (x for x, size, smallest in rows if q * smallest >= p * size)


def _subset_tally(n: int) -> Tally:
    """The scan at n counted by (size, smallest): (count, size, smallest) per class.

    The family predicate reads only those two numbers, so every ratio's
    count at n is the sum of the admitted classes' counts; one scan
    serves them all.  At most n**2 classes, whatever the scan's length.
    """
    classes = Counter(map(itemgetter(1, 2), _scan(n)))
    return tuple((count, size, smallest) for (size, smallest), count in classes.items())


def _tally_count(tally: Tally, ratio: Ratio) -> int:
    """The family size at the tally's n: the counts of the admitted classes."""
    return sum(_admitted(tally, ratio))


def _members(n: int, ratio: Ratio) -> Iterator[FiniteSet]:
    """Every family member at n, one at a time, in ascending-bitmask order."""
    return (
        FiniteSet([i + 1 for i in range(n) if (mask >> i) & 1])
        for mask in _admitted(_scan(n), ratio)
    )


def enumerate_schreier(n: int, ratio: Ratio) -> tuple[FiniteSet, ...]:
    """List every F within {1..n} with max F = n and q*min F >= p*|F|.

    Members come out in ascending-bitmask order (bit i-1 holds element
    i), so listings are deterministic and diffable; a FiniteSet is
    built for members only.
    """
    return tuple(_members(n, ratio))


def count_schreier_bruteforce(n: int, ratio: Ratio) -> int:
    """|enumerate_schreier(n, ratio)| without materializing the listing."""
    return sum(1 for _ in _admitted(_scan(n), ratio))


def interval_counts_bruteforce(n_max: int, p: int) -> list[int]:
    """Intervals F within {1..n} with p*min F >= |F|, for every n <= n_max at once.

    Visits every interval [lo, hi] of {1..n_max} once, applies the
    predicate to each (no early break), and tallies it by its maximum
    hi.  Entry n of the returned prefix sums counts the intervals
    within {1..n}.  Refuses n_max > INTERVAL_LIMIT before any work.
    """
    require_int("n", n_max, 0, "a non-negative integer")
    require_int("p", p)
    if n_max > INTERVAL_LIMIT:
        raise OracleLimitError(
            "instance too large for interval enumeration: "
            f"n={n_max} exceeds the n <= {INTERVAL_LIMIT} guard"
        )
    by_max = [0] * (n_max + 1)
    for lo in range(1, n_max + 1):
        lo_weight = p * lo
        for hi in range(lo, n_max + 1):
            if lo_weight >= hi - lo + 1:
                by_max[hi] += 1
    return list(accumulate(by_max))


def count_interval_bruteforce(n: int, p: int) -> int:
    """Intervals F within {1..n} (any maximum) with p*min F >= |F|, one by one."""
    require_int("n", n)
    return interval_counts_bruteforce(n, p)[n]
