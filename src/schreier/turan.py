"""Turán graphs and the interval-family count that matches them.

The number of intervals [lo, hi] within {1..n} satisfying
p * lo >= hi - lo + 1 equals the edge count of the Turán graph
T(n+1, p+1) whenever n >= p.  Both sides are computed by independent
routes (a closed form and a from-parts count for the graph; a closed
form, a term-by-term sum, and brute enumeration for the intervals),
and :func:`verify_turan_identity` lines all five up.
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

    The division is exact whenever p <= n; a remainder would mean the
    implementation is wrong, hence ArithmeticError rather than a
    rounded result.  For p > n the graph is complete on n vertices and
    the count is taken from the construction, which handles the empty
    parts directly.
    """
    require_int("n", n)
    require_int("p", p)
    if p > n:
        return turan_edges_construction(n, p)
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

    * p > n: no interval is long enough to fail, n(n+1)/2 in all;
    * otherwise the sum splits at d = (n + 1) // (p + 1), the number of
      minima m whose budget p*m stays below the room n + 1 - m:
      p*d(d+1)/2 from those capped minima plus (n-d+1)(n-d)/2 from the
      roomy ones.
    """
    require_int("n", n)
    require_int("p", p)
    if p > n:
        return n * (n + 1) // 2
    d = (n + 1) // (p + 1)
    return p * (d + 1) * d // 2 + (n - d + 1) * (n - d) // 2


@dataclass(frozen=True)
class TuranIdentityReport:
    """All computed legs of the interval/Turán comparison at one (n, p).

    ``interval_enumeration`` is None when the quadratic brute-force leg
    was skipped; ``passed`` compares the legs that were computed.
    """

    n: int
    p: int
    interval_closed: Count
    interval_sum: Count
    interval_enumeration: Count | None
    turan_formula: Count
    turan_construction: Count

    @property
    def passed(self) -> bool:
        legs = [
            self.interval_closed,
            self.interval_sum,
            self.turan_formula,
            self.turan_construction,
        ]
        if self.interval_enumeration is not None:
            legs.append(self.interval_enumeration)
        return len(set(legs)) == 1


def verify_turan_identity(
    n: int, p: int, include_enumeration: bool = True
) -> TuranIdentityReport:
    """Compare the interval count at (n, p) with the edges of T(n+1, p+1).

    The identity is claimed only for n >= p; calls outside that range
    are rejected.  The enumeration leg costs O(n^2) per call and can be
    switched off for large n.
    """
    require_int("n", n)
    require_int("p", p)
    if n < p:
        raise ValueError(f"identity requires n >= p, got n={n} < p={p}")
    closed = interval_count_closed(n, p)
    direct = interval_count_sum(n, p)
    enum_leg = count_interval_bruteforce(n, p) if include_enumeration else None
    return TuranIdentityReport(
        n,
        p,
        closed,
        direct,
        enum_leg,
        turan_edges_formula(n + 1, p + 1),
        turan_edges_construction(n + 1, p + 1),
    )
