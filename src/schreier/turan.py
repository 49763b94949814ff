"""Turán graphs and the interval-family count that matches them.

The number of intervals [lo, hi] within {1..n} satisfying
p * lo >= hi - lo + 1 equals the edge count of the Turán graph
T(n+1, p+1) at every n >= 1.  Below n = p both sides are n(n+1)/2:
every interval qualifies, and T(n+1, p+1) is the complete graph.
This module holds the independent
routes on both sides: a closed form and a count from the balanced
part sizes for the graph, a closed form and a term-by-term sum for
the intervals.  The brute-force interval count lives in
:mod:`schreier.enumeration`, and
:func:`schreier.verify.turan_identity_suite` lines all five up.  No
route falls back on another: each closed form covers p > n as written.
"""

from __future__ import annotations

from .enumeration import refuse_above
from .sets import require_int

INTERVAL_SUM_LIMIT = 10**7
"""Largest n the interval sum accepts (n terms; about 0.4 s at the limit at p = 1,
where the most are compared, on CPython 3.11 and a shared 2-vCPU VM)."""


def turan_edges_construction(n: int, p: int) -> int:
    """Edge count of T(n, p) from its balanced part sizes.

    The p parts are as equal as possible: with n = base*p + r, r parts
    hold base + 1 vertices and p - r hold base (empty when p > n, so
    the graph is complete).  Every pair of vertices is adjacent except
    the pairs inside a part, so the count is (n^2 - sum of squared part
    sizes) / 2; the numerator is always even.  The parts of each size
    are counted, not listed, so memory does not grow with p.
    """
    require_int("n", n)
    require_int("p", p)
    base, r = divmod(n, p)
    squares = r * (base + 1) ** 2 + (p - r) * base * base
    return (n * n - squares) // 2


def turan_edges_formula(n: int, p: int) -> int:
    """Edge count of T(n, p) in closed form.

    With r = n - p * floor(n / p),

        edges = (p - 1)(n^2 - r^2) / (2p) + r(r - 1)/2.

    For p > n, r = n and the first term vanishes, leaving the complete
    graph's n(n - 1)/2.  The division is always exact; a remainder
    would mean the implementation is wrong, hence ArithmeticError
    rather than a rounded result.
    """
    require_int("n", n)
    require_int("p", p)
    r = n - p * (n // p)
    head, leftover = divmod((p - 1) * (n * n - r * r), 2 * p)
    if leftover:
        raise ArithmeticError(
            f"edge formula lost exactness at n={n}, p={p}: remainder {leftover}"
        )
    return head + r * (r - 1) // 2


def interval_count_sum(n: int, p: int) -> int:
    """Qualifying intervals in {1..n}, summed minimum by minimum.

    An interval starting at m may extend to any of min(p*m, n+1-m)
    right endpoints, so the total is sum over m of that minimum.  The
    budget p*m only rises and the room n+1-m only falls, so they are
    compared over m = 1, 2, ... only until the room is at most the
    budget: every later term is its room, and those rooms, room down
    to 1, are added by one sum over a range.  The crossing is found by
    that comparison, never from the closed form's split.  Refuses
    n > INTERVAL_SUM_LIMIT before any work.
    """
    require_int("n", n)
    require_int("p", p)
    refuse_above(n, INTERVAL_SUM_LIMIT, "the interval sum")
    total = 0
    for budget, room in zip(range(p, p * n + 1, p), range(n, 0, -1)):
        if room <= budget:  # reached by m = n at the latest, where the room is 1
            break
        total += budget
    return total + sum(range(room, 0, -1))


def interval_count_closed(n: int, p: int) -> int:
    """Qualifying intervals in {1..n}, in closed form.

    The sum splits at d = (n + 1) // (p + 1), the number of minima m
    whose budget p*m stays below the room n + 1 - m: p*d(d+1)/2 from
    those capped minima plus (n-d+1)(n-d)/2 from the roomy ones.  For
    p > n, d = 0: no interval is long enough to fail, n(n+1)/2 in all.
    """
    require_int("n", n)
    require_int("p", p)
    d = (n + 1) // (p + 1)
    return p * (d + 1) * d // 2 + (n - d + 1) * (n - d) // 2
