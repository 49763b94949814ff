"""Brute-force enumeration: the ground-truth oracles.

Every fast method in this package is validated against the functions
here.  They visit candidate sets exhaustively and apply the defining
predicate to each one, with no pruning and no shortcuts, so that their
correctness is evident by inspection.  The family count and the family
listing share one subset scan, which is exponential in n;
``ORACLE_LIMIT`` keeps instances desk-sized.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator

from .sets import FiniteSet, Ratio, require_int

ORACLE_LIMIT = 30
"""Largest n the subset-scanning oracles accept (2**(n-1) candidates)."""


class OracleLimitError(RuntimeError):
    """Instance too large for the brute-force oracle."""


def _member_masks(n: int, ratio: Ratio) -> Iterator[int]:
    """The one subset scan: masks of {1..n-1} whose set plus n is a member.

    Walks all 2**(n-1) masks in ascending order (bit i-1 holds element
    i, n itself is always present) and applies q*min >= p*|F| to each,
    reading min from the lowest set bit and |F| from the bit count.
    """
    require_int("n", n, 0, "a non-negative integer")
    if n > ORACLE_LIMIT:
        raise OracleLimitError(
            f"instance too large for oracle: n={n} exceeds the n <= {ORACLE_LIMIT} guard"
        )
    if n == 0:
        return  # no set of positive integers has maximum 0
    p, q = ratio.p, ratio.q
    for mask in range(1 << (n - 1)):
        size = mask.bit_count() + 1
        smallest = (mask & -mask).bit_length() if mask else n
        if q * smallest >= p * size:
            yield mask


def enumerate_schreier(n: int, ratio: Ratio) -> tuple[FiniteSet, ...]:
    """List every F within {1..n} with max F = n and q*min F >= p*|F|.

    Members come out in ascending-bitmask order (bit i-1 holds element
    i), so listings are deterministic and diffable; a FiniteSet is
    built for members only.
    """
    return tuple(
        FiniteSet([i + 1 for i in range(n - 1) if (mask >> i) & 1] + [n])
        for mask in _member_masks(n, ratio)
    )


def count_schreier_bruteforce(n: int, ratio: Ratio) -> int:
    """|enumerate_schreier(n, ratio)| without materializing the listing."""
    return sum(1 for _ in _member_masks(n, ratio))


def interval_counts_bruteforce(n_max: int, p: int) -> list[int]:
    """Intervals F within {1..n} with p*min F >= |F|, for every n <= n_max at once.

    Visits every interval [lo, hi] of {1..n_max} once, applies the
    predicate to each (no early break), and tallies it by its maximum
    hi.  Entry n of the returned prefix sums counts the intervals
    within {1..n}.
    """
    require_int("n", n_max, 0, "a non-negative integer")
    require_int("p", p)
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
