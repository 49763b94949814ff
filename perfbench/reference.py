"""Reference family sizes for the benchmark's checks, sharing no code with schreier.

Small sizes come straight from the definition.  A set F with min F = m,
max F = n and |F| = s picks its other s - 2 elements from the n - m - 1
values strictly between m and n, and belongs to the family when
q*m >= p*s.  Berlekamp-Massey over a prime finds the shortest linear
recurrence that those small sizes obey, and powering x modulo that
recurrence (Fiduccia's method) gives the size at any n modulo the prime.

Checks compare residues modulo two Mersenne primes, so a huge count is
never converted to decimal and no recurrence is taken from the program.
"""

from __future__ import annotations

from math import comb

MODULI = ((1 << 61) - 1, (1 << 89) - 1)

# Recurrences here have depth at most p + q = 12; Berlekamp-Massey needs
# twice the depth, and the rest over-determines the fit.
SEED_TERMS = 40


def small_counts(p: int, q: int, n_max: int) -> list[int]:
    """Family sizes for 0 <= n <= n_max, from the definition (size 0 at n = 0)."""
    counts = [0]
    for n in range(1, n_max + 1):
        total = 1 if q * n >= p else 0  # the singleton {n}
        for m in range(1, n):
            for s in range(2, n - m + 2):
                if q * m < p * s:
                    break
                total += comb(n - m - 1, s - 2)
        counts.append(total)
    return counts


def berlekamp_massey(seq: list[int], modulus: int) -> list[int]:
    """Shortest c with seq[i] = sum_j c[j-1] * seq[i-j] (mod modulus) for i >= len(c)."""
    conn, prev = [1], [1]
    length, shift, prev_disc = 0, 1, 1
    for i, value in enumerate(seq):
        disc = value
        for j in range(1, length + 1):
            disc += conn[j] * seq[i - j]
        disc %= modulus
        if disc == 0:
            shift += 1
            continue
        coef = disc * pow(prev_disc, modulus - 2, modulus) % modulus
        saved = conn[:]
        conn = conn + [0] * max(0, len(prev) + shift - len(conn))
        for j, b in enumerate(prev):
            conn[j + shift] = (conn[j + shift] - coef * b) % modulus
        if 2 * length <= i:
            length, prev, prev_disc, shift = i + 1 - length, saved, disc, 1
        else:
            shift += 1
    return [(-c) % modulus for c in conn[1 : length + 1]]


def nth_term_mod(rec: list[int], init: list[int], n: int, modulus: int) -> int:
    """seq[n] mod modulus, for seq obeying rec from index len(rec) on."""
    depth = len(rec)
    if n < depth:
        return init[n] % modulus

    def mulmod(a: list[int], b: list[int]) -> list[int]:
        prod = [0] * (2 * depth - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for k in range(2 * depth - 2, depth - 1, -1):
            top = prod[k] % modulus
            if top:
                for j in range(1, depth + 1):
                    prod[k - j] += top * rec[j - 1]
        return [x % modulus for x in prod[:depth]]

    power = [1] + [0] * (depth - 1)
    base = [0, 1] + [0] * (depth - 2) if depth > 1 else [rec[0] % modulus]
    while n:
        if n & 1:
            power = mulmod(power, base)
        base = mulmod(base, base)
        n >>= 1
    return sum(c * s for c, s in zip(power, init)) % modulus


class Reference:
    """Residues of family sizes modulo MODULI, one fitted recurrence per ratio."""

    def __init__(self) -> None:
        self._fits: dict[tuple[int, int], list[tuple[list[int], list[int]]]] = {}

    def _fit(self, p: int, q: int) -> list[tuple[list[int], list[int]]]:
        if (p, q) not in self._fits:
            seeds = small_counts(p, q, SEED_TERMS)
            fits = []
            for modulus in MODULI:
                rec = berlekamp_massey([c % modulus for c in seeds], modulus)
                if not 0 < 2 * len(rec) < len(seeds):
                    raise RuntimeError(f"no over-determined recurrence for ({p},{q})")
                fits.append((rec, seeds[: len(rec)]))
            self._fits[(p, q)] = fits
        return self._fits[(p, q)]

    def residues(self, p: int, q: int, n: int) -> tuple[int, ...]:
        return tuple(
            nth_term_mod(rec, init, n, modulus)
            for (rec, init), modulus in zip(self._fit(p, q), MODULI)
        )


def residues_of(value: int) -> tuple[int, ...]:
    return tuple(value % modulus for modulus in MODULI)
