"""Brute-force enumeration: the ground-truth oracles.

Every fast method in this package is validated against the functions
here.  They visit candidate sets exhaustively and apply the defining
predicate to each one, with no pruning and no shortcuts, so that their
correctness is evident by inspection.  The subset scan is exponential
in n; ``ORACLE_LIMIT`` keeps instances desk-sized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .sets import FiniteSet, Ratio, is_generalized_schreier, require_int

ORACLE_LIMIT = 30
"""Largest n the subset-scanning oracles accept (2**(n-1) candidates)."""


class OracleLimitError(RuntimeError):
    """Instance too large for the brute-force oracle."""


@dataclass(frozen=True)
class FamilyListing:
    """Deterministic listing of one family instance.

    ``params`` is the Ratio of the max-anchored family, or the bare
    integer p of the interval family.
    """

    n: int
    params: Ratio | int
    members: tuple[FiniteSet, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[FiniteSet]:
        return iter(self.members)


def _check_oracle_size(n: int) -> None:
    if n > ORACLE_LIMIT:
        raise OracleLimitError(
            f"instance too large for oracle: n={n} exceeds the n <= {ORACLE_LIMIT} guard"
        )


def enumerate_schreier(n: int, ratio: Ratio) -> FamilyListing:
    """List every F within {1..n} with max F = n and q*min F >= p*|F|.

    Scans all 2**(n-1) subsets of {1..n-1} with n forced present, in
    ascending-bitmask order (bit i-1 holds element i), so listings are
    deterministic and diffable.
    """
    require_int("n", n)
    _check_oracle_size(n)
    members = []
    for mask in range(1 << (n - 1)):
        elems = [i + 1 for i in range(n - 1) if (mask >> i) & 1]
        elems.append(n)
        fs = FiniteSet(elems)
        if is_generalized_schreier(fs, ratio):
            members.append(fs)
    return FamilyListing(n, ratio, tuple(members))


def count_schreier_bruteforce(n: int, ratio: Ratio) -> int:
    """|enumerate_schreier(n, ratio)| without materializing the listing."""
    require_int("n", n)
    _check_oracle_size(n)
    p, q = ratio.p, ratio.q
    total = 0
    for mask in range(1 << (n - 1)):
        # bit i-1 holds element i; n itself is always present
        size = mask.bit_count() + 1
        smallest = (mask & -mask).bit_length() if mask else n
        if q * smallest >= p * size:
            total += 1
    return total


def enumerate_interval_family(n: int, p: int) -> FamilyListing:
    """List every interval F within {1..n} satisfying p*min F >= |F|.

    Unlike the max-anchored family there is no max F = n requirement:
    all qualifying intervals inside {1..n} appear, ordered by
    (minimum, length), which is lexicographic order on element
    sequences.
    """
    require_int("n", n)
    require_int("p", p)
    members = []
    for lo in range(1, n + 1):
        for hi in range(lo, n + 1):
            if p * lo >= hi - lo + 1:
                members.append(FiniteSet(range(lo, hi + 1)))
    return FamilyListing(n, p, tuple(members))


def count_interval_bruteforce(n: int, p: int) -> int:
    """|enumerate_interval_family(n, p)|, testing every interval one by one."""
    require_int("n", n)
    require_int("p", p)
    total = 0
    for lo in range(1, n + 1):
        lo_weight = p * lo
        for hi in range(lo, n + 1):
            if lo_weight >= hi - lo + 1:
                total += 1
    return total
