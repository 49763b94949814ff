"""Fast counting of min-constrained families.

Two independent methods are provided on purpose:

* :func:`count_schreier_direct` sums binomial rows grouped by the
  minimum element, stepping from one row sum to the next in O(n)
  big-int steps.  It is self-contained.
* :func:`count_schreier_recurrence` evaluates the constant-coefficient
  linear recurrence of depth d = p + q at one n by polynomial powering:
  it reduces u = x^(n // 2) modulo the recurrence's characteristic
  polynomial in O(d^2 log n) big-int multiplications, and finishes with
  the Hankel form count(n) = sum_{i,j} u_i u_j count(i + j + n % 2) in
  place of a last squaring.  That is exact because the linear map
  sending x^k to count(k) vanishes on multiples of the polynomial.
  :func:`schreier_sequence` steps the same recurrence forward instead,
  in O(n * q) big-int additions for the whole prefix (a plain tuple
  indexed by n), and so cross-checks the single-term engine.  Both take
  the recurrence's taps and its d seeds from the generating function
  P(x)/Q(x), which groups the members by size, not by minimum (see
  :func:`_recurrence`).

They share no code beyond the input checks, so agreement between them
(and with the brute-force oracle) is meaningful evidence.  Counts are
exact arbitrary-precision integers throughout.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb

from .sets import Ratio, require_int

def count_schreier_direct(n: int, ratio: Ratio) -> int:
    """Count by summing, for each minimum m, the ways to fill the gap.

    A member with min m < n picks its remaining elements from the
    t = n - m - 1 values strictly between m and n; the size bound
    q*m >= p*|F| caps how many may be picked at cap = floor(qm/p) - 2,
    so min m contributes the row sum S(t, c) = sum_{j <= c} C(t, j),
    c = min(cap, t).  The lone singleton {n} contributes when q*n >= p.

    The rows are walked with m falling, so t rises by one per row and
    cap only falls, and each row follows from the last in O(1) big-int
    steps, O(n) in all.  Pascal's rule gives
    S(t + 1, c) = 2 S(t, c) - C(t, c) and C(t + 1, c) = C(t, c) (t + 1) / (t + 1 - c);
    a row that stays saturated (c = t + 1) adds its new top term 1; each
    unit drop of c subtracts C(t, c), and C(t, c - 1) = C(t, c) c / (t - c + 1).
    The walk stops at the first cap < 0, since cap never rises again.
    """
    require_int("n", n, 0, "a non-negative integer")
    p, q = ratio.p, ratio.q
    total = 1 if q * n >= p else 0
    row, top, c = 1, 1, 0  # S(t, c), C(t, c) and c, from t = 0
    for t, m in enumerate(range(n - 1, 0, -1)):
        cap = q * m // p - 2  # extra elements allowed beyond {m, n}
        if cap < 0:
            break
        if t:
            row = 2 * row - top
            top = top * t // (t - c)
            if cap > c:  # only a saturated row (c = t - 1) can widen
                row += 1
                top = 1
                c = t
        while c > cap:
            row -= top
            top = top * c // (t - c + 1)
            c -= 1
        total += row
    return total


def _recurrence(ratio: Ratio, n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The recurrence's q + 1 nonzero taps (k, c_k) and count(m), m <= min(n, p+q-1).

    Both come from one generating function.  The members of size s have
    maximum n and minimum at least ceil(ps/q), so they contribute
    x^(ceil(ps/q) + s - 1) / (1 - x)^s.  With s = qk + r (1 <= r <= q),
    ceil(ps/q) = pk + ceil(pr/q), and the sum over k is geometric:

        GF = P(x) / Q(x),  P(x) = sum_{r=1}^{q} x^(ceil(pr/q) + r - 1) (1 - x)^(q - r),
                           Q(x) = (1 - x)^q - x^(p + q) = 1 - sum_k c_k x^k.

    P has degree p + q - 1, so count(n) = sum_k c_k count(n - k) for n >= p + q.
    Below x^(p + q), Q agrees with (1 - x)^q and P / Q is the sum over r of
    x^(ceil(pr/q) + r - 1) / (1 - x)^r, built from r = q down: add the
    monomial, then divide by 1 - x as a running sum.  That is O((p + q) q)
    additions, where dividing by Q's binomial taps would multiply big ints.
    For n < p + q only count(0..n) is built and there are no taps: the
    monomials rise with r, so every r whose monomial lies past n is skipped.
    """
    p, q = ratio.p, ratio.q
    depth = p + q
    terms = [0] * min(n + 1, depth)
    for r in range(q, 0, -1):
        first = -(-p * r // q) + r - 1
        if first < len(terms):
            terms[first] += 1
            terms = list(accumulate(terms))
    if n < depth:
        return [], terms
    taps = [(k, (-1) ** (k + 1) * comb(q, k)) for k in range(1, q + 1)]
    return [*taps, (depth, 1)], terms


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
    """Count via the recurrence, in O(d^2 log n) big-int multiplications (d = p + q).

    The recurrence makes x^d equal to sum_k c_k x^(d-k) + 1 modulo its
    characteristic polynomial x^d - sum_k c_k x^(d-k) - 1.  So the linear
    map L sending x^k to count(k) vanishes on multiples of it, and
    L(x^k mod it) = count(k) (Fiduccia's polynomial powering).  Binary
    powering builds u = x^h mod it, h = floor(n / 2): one schoolbook
    square per bit of h, and one shift for each 1 bit.  The last level
    never squares: x^n = u^2 x^b (b = n mod 2), so by linearity
    count(n) = sum_{i,j < d} u_i u_j count(i + j + b), a Hankel form on
    the head count(0..2d-1), stepped from the seeds with the taps.
    """
    require_int("n", n, 0, "a non-negative integer")
    taps, head = _recurrence(ratio, n)
    depth = len(head)
    if n < depth:
        return head[n]
    for m in range(depth, 2 * depth):
        head.append(sum(c * head[m - k] for k, c in taps))
    power = [1] + [0] * (depth - 1)  # x^0
    for bit in bin(n >> 1)[2:]:
        square = [0] * (2 * depth - 1)
        for i, a in enumerate(power):
            if a:
                square[2 * i] += a * a
                twice = a + a
                for j in range(i + 1, depth):
                    square[i + j] += twice * power[j]
        power = _fold(square, taps, depth)
        if bit == "1":
            power.insert(0, 0)  # times x
            power = _fold(power, taps, depth)
    odd = n & 1
    return sum(
        a * sum(b * h for b, h in zip(power, head[i + odd :]))
        for i, a in enumerate(power)
    )


def schreier_sequence(ratio: Ratio, n_max: int) -> tuple[int, ...]:
    """Counts for 0 <= n <= n_max, indexed by n (O(n_max * q) additions in all).

    Q(x) = (1 - x)^q - x^(p + q) makes the q-th backward difference of
    count at n >= p + q equal to count(n - p - q).  So the pass keeps the
    latest backward difference of each order below q and adds its way up
    from count(n - p - q), never multiplying by Q's binomial taps.
    """
    require_int("n", n_max, 0, "a non-negative integer")
    _, values = _recurrence(ratio, n_max)
    depth = len(values)
    levels, row = [0], values[-ratio.q :]
    while row:  # levels[k]: the (q - k)-th backward difference at depth - 1
        levels.insert(1, row[-1])
        row = [b - a for a, b in zip(row, row[1:])]
    for n in range(depth, n_max + 1):
        levels[0] = values[n - depth]  # the q-th difference at n
        levels = list(accumulate(levels))
        values.append(levels[-1])
    return tuple(values)
