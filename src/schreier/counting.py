"""Fast counting of min-constrained families.

Two independent methods are provided on purpose:

* :func:`count_schreier_direct` sums binomial rows grouped by the
  minimum element: the leading rows, which hold every subset of their
  gap, in one term, then each row sum from the last in O(1) big-int
  steps.  It is self-contained.
* The recurrence of depth d = p + q, read off the generating function
  P(x)/Q(x), which groups the members by size, not by minimum (see
  :func:`_starts`).  Every count comes from one forward pass,
  :func:`schreier_sequence`: a chain of running sums that P's q terms
  start in one by one, then fed the counts themselves, O(n * min(q, n))
  big-int additions for the whole prefix (a plain tuple indexed by n).
  :func:`count_schreier_recurrence` first reduces the ratio by
  g = gcd(p, q), which is exact because q*min F >= p*|F| is the same
  predicate at (p/g, q/g), so it runs at the family's minimal depth
  d = (p + q)/g.  It takes count(0..2d-1) from the pass and reaches
  any larger n in O(d^2 log n) big-int multiplications by polynomial
  powering with a Hankel finish.  The pass and the direct sum keep the
  ratio as given, so at a reducible ratio the engine beyond its head
  cross-checks a pass of g times its depth.

They share no code beyond the input checks, so agreement between them
(and with the brute-force oracle) is meaningful evidence.  Counts are
exact arbitrary-precision integers throughout.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, gcd
from operator import mul

from .sets import Ratio, require_int

def count_schreier_direct(n: int, ratio: Ratio) -> int:
    """Count by summing, for each minimum m, the ways to fill the gap.

    A member with min m < n picks its remaining elements from the
    t = n - m - 1 values strictly between m and n; the size bound
    q*m >= p*|F| caps how many may be picked at cap = floor(qm/p) - 2,
    so min m contributes the row sum S(t, c) = sum_{j <= c} C(t, j),
    c = min(cap, t).  The lone singleton {n} contributes when q*n >= p.

    The rows are walked with m falling, so t rises by one per row and
    cap only falls.  Row t is saturated (cap >= t: every subset of the
    gap fits) exactly when t <= T = min(floor((q(n-1) - 2p)/(p+q)), n-2),
    so rows 0..T add 2^0 + ... + 2^T = 2^(T+1) - 1 in one term.  Past T,
    cap - t only falls, so no row saturates again; each later row follows
    from the last in O(1) big-int steps, O(n p/(p+q)) row steps in all.
    Pascal's rule gives
    S(t + 1, c) = 2 S(t, c) - C(t, c) and C(t + 1, c) = C(t, c) (t + 1) / (t + 1 - c);
    each unit drop of c subtracts C(t, c), and C(t, c - 1) = C(t, c) c / (t - c + 1).
    The walk stops at the first cap < 0, since cap never rises again.
    """
    require_int("n", n, 0)
    p, q = ratio.p, ratio.q
    total = 1 if q * n >= p else 0
    last = min((q * (n - 1) - 2 * p) // (p + q), n - 2)  # T, the last saturated row
    if last < 0:
        return total
    total += (2 << last) - 1
    row, top, c = 1 << last, 1, last  # S(T, T), C(T, T) and c, at t = T
    for t in range(last + 1, n - 1):
        cap = q * (n - 1 - t) // p - 2  # extra elements beyond {m, n}, m = n - 1 - t
        if cap < 0:
            break
        row = 2 * row - top
        top = top * t // (t - c)
        while c > cap:
            row -= top
            top = top * c // (t - c + 1)
            c -= 1
        total += row
    return total


def _starts(ratio: Ratio, n_max: int) -> set[int]:
    """The step e_r at which each of P's terms r <= min(q, n_max) starts.

    The members of size s = qk + r (1 <= r <= q) have maximum n and
    minimum at least ceil(ps/q) = pk + ceil(pr/q), so they contribute
    x^(ceil(ps/q) + s - 1) / (1 - x)^s; the sum over k is geometric, so
    count's generating function is P/Q, with

        P(x) = sum_{r=1}^{q} x^(e_r) (1 - x)^(q - r),  e_r = ceil(pr/q) + r - 1,
        Q(x) = (1 - x)^q - x^(p + q).

    The e_r rise strictly from e_1 >= 1 to e_q = p + q - 1, and e_r >= r:
    count(0 .. n_max) sees no term r > n_max.
    """
    p, q = ratio.p, ratio.q
    return {-(-p * r // q) + r - 1 for r in range(1, min(q, n_max) + 1)}


def _fold(poly: list[int], taps: list[tuple[int, int]], depth: int) -> list[int]:
    """Reduce ``poly`` (coefficients, lowest first) below degree ``depth``.

    Each x^i with i >= depth is rewritten as sum_k c * x^(i - k) over the
    taps (k, c), top term first, so every term it feeds is folded in turn.
    """
    for i in range(len(poly) - 1, depth - 1, -1):
        top = poly[i]
        if top:
            for k, c in taps:
                poly[i - k] += c * top
    del poly[depth:]
    return poly


def count_schreier_recurrence(n: int, ratio: Ratio) -> int:
    """Count via the recurrence, in O(d^2 log n) big-int multiplications.

    The depth is d = (p + q)/g, g = gcd(p, q): (p, q) and (p/g, q/g)
    define the family by the same predicate, so the engine runs on the
    reduced ratio, whose recurrence is the family's minimal one.  The
    forward pass at that ratio gives the head count(0 .. 2d - 1) and
    answers every n < 2d; from n = 2d on, the engine powers.  With
    Q = 1 - sum_k c_k x^k, the linear map L sending x^k to count(k)
    vanishes on multiples of the characteristic polynomial
    x^d - sum_k c_k x^(d-k) - 1, so L(x^k mod it) = count(k)
    (Fiduccia).  Binary powering builds
    u = x^h mod it, h = floor(n / 2).  It starts from x^(h >> r), r the
    least shift that leaves fewer bits than d has, so that power needs no
    fold; each of the r low bits of h then costs one schoolbook square,
    one degree higher on a 1 bit, and one fold through the taps.
    As x^n = u^2 x^b (b = n mod 2), linearity gives the Hankel form
    count(n) = sum_{i,j < d} u_i u_j count(i + j + b) on the head.
    """
    require_int("n", n, 0)
    g = gcd(ratio.p, ratio.q)
    ratio = Ratio(ratio.p // g, ratio.q // g)
    depth = ratio.p + ratio.q
    head = schreier_sequence(ratio, min(n, 2 * depth - 1))
    if n < 2 * depth:
        return head[n]
    q = ratio.q
    taps = [(k, (-1) ** (k + 1) * comb(q, k)) for k in range(1, q + 1)] + [(depth, 1)]
    half = n >> 1
    low = half.bit_length() - depth.bit_length() + 1
    power = [0] * depth
    power[half >> low] = 1  # fewer bits than depth: below it
    for k in reversed(range(low)):
        square = [0] * (2 * depth - 1)
        for i, a in enumerate(power):
            if a:
                square[2 * i] += a * a
                twice = a + a
                for j in range(i + 1, depth):
                    square[i + j] += twice * power[j]
        if half >> k & 1:
            square.insert(0, 0)  # times x
        power = _fold(square, taps, depth)
    odd = n & 1
    return sum(a * sum(map(mul, power, head[i + odd :])) for i, a in enumerate(power))


def schreier_sequence(ratio: Ratio, n_max: int) -> tuple[int, ...]:
    """Counts for 0 <= n <= n_max, indexed by n (O(n_max * min(q, n_max)) additions).

    With d = p + q, count's generating function (see :func:`_starts`) is
    sum_r x^(e_r) / (1 - x)^r + x^d count / (1 - x)^q: the top of a chain
    of running sums.  Below d, the chain gains one sum just above its
    input at each start e_r, where the input is 1 (0 elsewhere), so term r
    enters r sums below the top.  From d on, it holds all q sums, and its
    input is count(n - d), read back from its output.  No step multiplies.
    """
    require_int("n_max", n_max, 0)
    depth = ratio.p + ratio.q
    starts = _starts(ratio, n_max)
    levels = [0]  # levels[0]: the input at n; levels[k]: the k-th running sum
    counts = []
    for n in range(min(n_max + 1, depth)):
        levels[:1] = (1, 0) if n in starts else (0,)  # a start: input 1 under one more sum
        levels = list(accumulate(levels))
        counts.append(levels[-1])
    for n in range(n_max + 1 - depth):
        levels[0] = counts[n]
        levels = list(accumulate(levels))
        counts.append(levels[-1])
    return tuple(counts)
