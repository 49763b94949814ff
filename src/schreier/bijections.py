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
``RuntimeError`` -- a failure there is a bug, not bad input).  Each map
is one core on a batch of sets, each given as its strictly increasing
tuple of elements.  It first refuses the map at n (n not a non-negative
int, or n < p + q), whatever the batch size, empty included.  Then it
checks the members in order, each as a lone call would, and returns
their images; the first member refused raises the error that a lone
call on it raises.  What every member shares (the gap set or window,
and a relabel table over the at most q + 1 values from the lowest gap
up) is set up once per call.  The public map runs its core on a
one-member batch, ``FiniteSet`` in and out.
:func:`schreier.verify.gap_bijection_suite` and
:func:`schreier.verify.window_bijection_suite` check the cores as
bijections, through one shared check that calls each core once per
cell, on enumerated families held as sets of element tuples; the
window suite also counts each inclusion-exclusion layer by window
occupancy and compares it with C(q, i) times the count i steps down, so
the claimed class sizes are tested, not assumed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence

from .sets import Elements, FiniteSet, Frozen, Ratio, _in_family, _shown, require_int


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


def _refuse_below_p_plus_q(ratio: Ratio, n: int) -> None:
    """Refuse a bad n, then n < p + q (no correspondence is claimed below it)."""
    require_int("n", n, 0)
    if n < ratio.p + ratio.q:
        raise DomainError(f"map needs n >= p + q = {ratio.p + ratio.q}, got n={n}")


def _outsider(elements: Elements, ratio: Ratio, n: int) -> DomainError:
    """The refusal of a set that is not a member of the family at n."""
    return DomainError(
        f"{_shown(elements)} is not a member of the family at n={n} for {ratio}"
    )


def _collapse(batch: Sequence[Elements], gaps: GapSet) -> list[Elements]:
    """:func:`collapse_gaps` on each tuple of ``batch``, with every check it makes."""
    n, ratio, members = gaps.n, gaps.ratio, gaps.members
    _refuse_below_p_plus_q(ratio, n)
    m, vacated = n - len(members), set(members)
    # members is sorted, so bisect_left counts the gap values below x; the
    # values below the lowest gap keep their labels
    relabel = {x: x - bisect_left(members, x) for x in range(members[0], n + 1)}
    images = []
    for t in batch:
        if not _in_family(t, ratio, n):
            raise _outsider(t, ratio, n)
        if not vacated.isdisjoint(t):
            collision = sorted(vacated.intersection(t))
            raise DomainError(f"{_shown(t)} meets the gaps at {collision}")
        # built at its final size: a tuple that tuple(map(...)) shrinks goes
        # back to a free list that no later image draws from, and RSS grows
        image = tuple([*map(relabel.get, t, t)])
        if not _in_family(image, ratio, m):
            raise RuntimeError(
                f"relabeling broke membership: {_shown(t)} -> {_shown(image)} at n={m}"
            )
        images.append(image)
    return images


def _expand(batch: Sequence[Elements], gaps: GapSet) -> list[Elements]:
    """:func:`expand_gaps` on each tuple of ``batch``, with every check it makes."""
    n, ratio, members = gaps.n, gaps.ratio, gaps.members
    _refuse_below_p_plus_q(ratio, n)
    m, vacated = n - len(members), set(members)
    lifted = [g - i for i, g in enumerate(members)]
    # lifted[0] is the lowest gap: the values below it keep their labels
    relabel = {y: y + bisect_right(lifted, y) for y in range(lifted[0], m + 1)}
    images = []
    for t in batch:
        if not _in_family(t, ratio, m):
            raise _outsider(t, ratio, m)
        image = tuple([*map(relabel.get, t, t)])  # at its final size, as in _collapse
        if not (_in_family(image, ratio, n) and vacated.isdisjoint(image)):
            raise RuntimeError(
                "re-opening gaps produced a non-member: "
                f"{_shown(t)} -> {_shown(image)}"
            )
        images.append(image)
    return images


def _strip(batch: Sequence[Elements], ratio: Ratio, n: int) -> list[Elements]:
    """:func:`strip_window` on each tuple of ``batch``, with every check it makes."""
    _refuse_below_p_plus_q(ratio, n)
    p, q = ratio.p, ratio.q
    m, floor, window = n - p - q, n - q, gap_window(n, ratio)
    held = set(window).issubset
    images = []
    for t in batch:
        if not _in_family(t, ratio, n):
            raise _outsider(t, ratio, n)
        if not held(t):
            missing = [w for w in window if w not in t]
            raise DomainError(f"{_shown(t)} misses window values {missing}")
        image = tuple([x - p for x in t if x <= floor])
        if not _in_family(image, ratio, m):
            raise RuntimeError(
                f"window strip broke membership: {_shown(t)} -> {_shown(image)}"
                f" at n={m}"
            )
        images.append(image)
    return images


def _attach(batch: Sequence[Elements], ratio: Ratio, n: int) -> list[Elements]:
    """:func:`attach_window` on each tuple of ``batch``, with every check it makes."""
    _refuse_below_p_plus_q(ratio, n)
    p, q = ratio.p, ratio.q
    m, top = n - p - q, tuple(range(n - q + 1, n + 1))
    held = set(gap_window(n, ratio)).issubset
    images = []
    for t in batch:
        if not _in_family(t, ratio, m):
            raise _outsider(t, ratio, m)
        # every element is at most n - p - q, so the shifted ones stay below the top
        image = tuple([x + p for x in t]) + top
        if not (_in_family(image, ratio, n) and held(image)):
            raise RuntimeError(
                "window attach produced a non-member: "
                f"{_shown(t)} -> {_shown(image)}"
            )
        images.append(image)
    return images


def collapse_gaps(fs: FiniteSet, gaps: GapSet) -> FiniteSet:
    """Map a gap-avoiding family member at n to a member at n - k.

    Each element x moves down by the number of gap values below it: the
    order-preserving relabeling of {1..n} minus the gaps onto {1..n-k}
    (gaps {3} within 1..4 send {2, 4} to {2, 3}).  ``fs`` must belong
    to the family at n = gaps.n, miss every gap value, and n must be at
    least p + q (below that the correspondence is not claimed).
    """
    return FiniteSet(_collapse([fs.elements], gaps)[0])


def expand_gaps(fs: FiniteSet, gaps: GapSet) -> FiniteSet:
    """Inverse of :func:`collapse_gaps`: re-open the gaps.

    ``fs`` must belong to the family at n - k; each element y goes back
    to the y-th value outside the gaps.  The i-th smallest gap g
    (counting from 0) has g - 1 - i values outside the gaps below it,
    so it lies below that value exactly when g - i <= y, and those g - i
    never decrease.
    """
    return FiniteSet(_expand([fs.elements], gaps)[0])


def strip_window(fs: FiniteSet, ratio: Ratio, n: int) -> FiniteSet:
    """Map a member containing the whole window down to n - p - q.

    Drops the top q elements {n-q+1, ..., n} and shifts the remainder
    down by p.  The new maximum is the old window floor n - q, moved to
    n - p - q; the size bound transfers exactly, in both directions.
    """
    return FiniteSet(_strip([fs.elements], ratio, n)[0])


def attach_window(fs: FiniteSet, ratio: Ratio, n: int) -> FiniteSet:
    """Inverse of :func:`strip_window`: shift up by p, restore the top.

    ``fs`` must belong to the family at n - p - q; the result belongs
    to the family at n and contains all of {n-q, ..., n}.
    """
    return FiniteSet(_attach([fs.elements], ratio, n)[0])
