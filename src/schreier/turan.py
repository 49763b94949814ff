"""Turán graphs and the interval-family count that matches them.

The number of intervals [lo, hi] within {1..n} satisfying
p * lo >= hi - lo + 1 equals the edge count of the Turán graph
T(n+1, p+1) whenever n >= p.  Both sides are computed by independent
routes (a closed form and a from-parts count for the graph; a closed
form, a term-by-term sum, and brute enumeration for the intervals),
and :func:`verify_turan_identity` lines all five up.  No leg falls
back on another: each closed form covers p > n as written.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import Count
from .enumeration import count_interval_bruteforce
from .sets import require_int


def balanced_part_sizes(n: int, p: int) -> tuple[int, ...]:
    """Sizes of the p parts of T(n, p): as equal as possible, descending.

    When p > n the trailing parts are empty (size 0); the graph is then
    complete on its n vertices.
    """
    require_int("n", n)
    require_int("p", p)
    base, r = divmod(n, p)
    return tuple([base + 1] * r + [base] * (p - r))


def turan_edges_construction(n: int, p: int) -> Count:
    """Edge count of T(n, p) built from its balanced part sizes.

    Every pair of vertices is adjacent except the pairs inside a part,
    so the count is (n^2 - sum of squared part sizes) / 2, and the
    numerator is always even.
    """
    sizes = balanced_part_sizes(n, p)
    return (n * n - sum(s * s for s in sizes)) // 2


def turan_edges_formula(n: int, p: int) -> Count:
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


def interval_count_sum(n: int, p: int) -> Count:
    """Qualifying intervals in {1..n}, summed minimum by minimum.

    An interval starting at m may extend to any of min(p*m, n+1-m)
    right endpoints, so the total is sum over m of that minimum.
    """
    require_int("n", n)
    require_int("p", p)
    total = 0
    for m in range(1, n + 1):
        total += min(p * m, n + 1 - m)
    return total


def interval_count_closed(n: int, p: int) -> Count:
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


@dataclass(frozen=True)
class TuranIdentityReport:
    """The five legs of the interval/Turán comparison at one (n, p).

    ``passed`` holds when all five are the same number.
    """

    n: int
    p: int
    interval_closed: Count
    interval_sum: Count
    interval_enumeration: Count
    turan_formula: Count
    turan_construction: Count

    @property
    def passed(self) -> bool:
        intervals = {self.interval_closed, self.interval_sum, self.interval_enumeration}
        return len(intervals | {self.turan_formula, self.turan_construction}) == 1


def verify_turan_identity(n: int, p: int) -> TuranIdentityReport:
    """Compare the interval count at (n, p) with the edges of T(n+1, p+1).

    The identity is claimed only for n >= p; calls outside that range
    are rejected.  All five legs run, the brute-force one in O(n^2).
    """
    require_int("n", n)
    require_int("p", p)
    if n < p:
        raise ValueError(f"identity requires n >= p, got n={n} < p={p}")
    return TuranIdentityReport(
        n,
        p,
        interval_count_closed(n, p),
        interval_count_sum(n, p),
        count_interval_bruteforce(n, p),
        turan_edges_formula(n + 1, p + 1),
        turan_edges_construction(n + 1, p + 1),
    )
