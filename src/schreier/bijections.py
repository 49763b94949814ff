"""Structure-preserving moves between families at different n.

The counting recurrence rests on two facts about the window of q
values just below n:

* members that avoid a prescribed nonempty set of window values
  correspond one-to-one with the family at a smaller n (close the
  gaps: each value drops by the number of gap values below it);
* members that contain the entire window correspond one-to-one with
  the family at n - p - q (strip the top of the set, shift down by p).

Both correspondences are implemented in both directions, with explicit
domain checks (``DomainError``) and postcondition re-checks (plain
``RuntimeError`` -- a failure there is a bug, not bad input).
:func:`schreier.verify.gap_bijection_suite` and
:func:`schreier.verify.window_bijection_suite` check them as bijections
on enumerated families; the window suite also counts each
inclusion-exclusion layer by window occupancy and compares it with
C(q, i) times the count i steps down, so the claimed class sizes are
tested, not assumed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable

from .sets import FiniteSet, Frozen, Ratio, in_schreier_family, require_int


class DomainError(ValueError):
    """Argument lies outside the domain of the requested map."""


def gap_window(n: int, ratio: Ratio) -> tuple[int, ...]:
    """The q consecutive values {n-q, ..., n-1} just below n."""
    require_int("n", n, 0)
    if n < ratio.q + 1:
        raise ValueError(f"window needs n >= q + 1, got n={n} with q={ratio.q}")
    return tuple(range(n - ratio.q, n))


class GapSet(Frozen):
    """A nonempty choice of values to vacate from the window below n."""

    n: int
    ratio: Ratio
    members: tuple[int, ...]

    def __init__(self, n: int, ratio: Ratio, members: Iterable[int]) -> None:
        window = gap_window(n, ratio)  # also validates n against q
        members = tuple(members)
        if bad := [g for g in members if type(g) is not int]:  # refuses bool
            raise TypeError(f"gap values must be integers, got {bad[0]!r}")
        chosen = tuple(sorted(set(members)))
        if not chosen:
            raise ValueError("a GapSet must name at least one window value")
        stray = [g for g in chosen if g not in window]
        if stray:
            raise ValueError(
                f"gap values {stray} fall outside the window {window[0]}..{window[-1]}"
            )
        super().__init__(n=n, ratio=ratio, members=chosen)

    def __len__(self) -> int:
        return len(self.members)


def _require_domain(fs: FiniteSet, ratio: Ratio, n: int, source_n: int) -> None:
    """Refuse n < p + q (no claimed map) and an fs outside the family at source_n."""
    if n < ratio.p + ratio.q:
        raise DomainError(f"map needs n >= p + q = {ratio.p + ratio.q}, got n={n}")
    if not in_schreier_family(fs, ratio, source_n):
        raise DomainError(
            f"{fs} is not a member of the family at n={source_n} for {ratio}"
        )


def collapse_gaps(fs: FiniteSet, gaps: GapSet) -> FiniteSet:
    """Map a gap-avoiding family member at n to a member at n - k.

    Each element x moves down by the number of gap values below it: the
    order-preserving relabeling of {1..n} minus the gaps onto {1..n-k}
    (gaps {3} within 1..4 send {2, 4} to {2, 3}).  ``fs`` must belong
    to the family at n = gaps.n, miss every gap value, and n must be at
    least p + q (below that the correspondence is not claimed).
    """
    n, ratio = gaps.n, gaps.ratio
    _require_domain(fs, ratio, n, n)
    if not set(gaps.members).isdisjoint(fs.elements):
        collision = sorted(set(fs) & set(gaps.members))
        raise DomainError(f"{fs} meets the gaps at {collision}")
    # gaps.members is sorted, so bisect_left counts the gap values below x
    image = FiniteSet([x - bisect_left(gaps.members, x) for x in fs.elements])
    if not in_schreier_family(image, ratio, n - len(gaps)):
        raise RuntimeError(
            f"relabeling broke membership: {fs} -> {image} at n={n - len(gaps)}"
        )
    return image


def expand_gaps(fs: FiniteSet, gaps: GapSet) -> FiniteSet:
    """Inverse of :func:`collapse_gaps`: re-open the gaps.

    ``fs`` must belong to the family at n - k; each element y goes back
    to the y-th value outside the gaps.  The i-th smallest gap g
    (counting from 0) has g - 1 - i values outside the gaps below it,
    so it lies below that value exactly when g - i <= y, and those g - i
    never decrease.
    """
    n, ratio = gaps.n, gaps.ratio
    _require_domain(fs, ratio, n, n - len(gaps))
    lifted = [g - i for i, g in enumerate(gaps.members)]
    image = FiniteSet([y + bisect_right(lifted, y) for y in fs.elements])
    reopened = set(gaps.members).isdisjoint(image.elements)
    if not (in_schreier_family(image, ratio, n) and reopened):
        raise RuntimeError(f"re-opening gaps produced a non-member: {fs} -> {image}")
    return image


def strip_window(fs: FiniteSet, ratio: Ratio, n: int) -> FiniteSet:
    """Map a member containing the whole window down to n - p - q.

    Drops the top q elements {n-q+1, ..., n} and shifts the remainder
    down by p.  The new maximum is the old window floor n - q, moved to
    n - p - q; the size bound transfers exactly, in both directions.
    """
    p, q = ratio.p, ratio.q
    _require_domain(fs, ratio, n, n)
    missing = [w for w in gap_window(n, ratio) if w not in fs]
    if missing:
        raise DomainError(f"{fs} misses window values {missing}")
    image = FiniteSet(x - p for x in fs if x <= n - q)
    if not in_schreier_family(image, ratio, n - p - q):
        raise RuntimeError(
            f"window strip broke membership: {fs} -> {image} at n={n - p - q}"
        )
    return image


def attach_window(fs: FiniteSet, ratio: Ratio, n: int) -> FiniteSet:
    """Inverse of :func:`strip_window`: shift up by p, restore the top.

    ``fs`` must belong to the family at n - p - q; the result belongs
    to the family at n and contains all of {n-q, ..., n}.
    """
    p, q = ratio.p, ratio.q
    _require_domain(fs, ratio, n, n - p - q)
    image = FiniteSet([x + p for x in fs] + list(range(n - q + 1, n + 1)))
    window = gap_window(n, ratio)
    if not in_schreier_family(image, ratio, n) or any(w not in image for w in window):
        raise RuntimeError(f"window attach produced a non-member: {fs} -> {image}")
    return image
