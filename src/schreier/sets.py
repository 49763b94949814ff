"""Set types and the membership predicate for min-constrained set families.

A finite set F of positive integers is *generalized Schreier* for a
ratio p/q when q*min(F) >= p*|F|: the minimum must be large relative to
the cardinality.  The classical Schreier condition min(F) >= |F| is the
ratio 1/1.  The family at n holds the generalized Schreier sets with
max F = n.  Inside the package a member is its strictly increasing
tuple of elements, which ``_in_family`` tests; FiniteSet is the form
the public functions take and return.  The interval families of the
Turán identity apply the same inequality to intervals of consecutive
integers.  The package's refusals live here too: the int validator,
and the size guards of the brute-force scans and the interval sum with
the exception they raise.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import total_ordering


def require_int(name: str, value: object, minimum: int = 1) -> None:
    """Raise ValueError unless ``value`` is a plain int >= ``minimum``.

    ``bool`` is refused although it subclasses int: ``True`` as a size
    or bound is a caller's mistake, not the number 1.  The message words
    the minimum, 1 or 0, as "a positive" or "a non-negative integer".
    """
    if type(value) is not int or value < minimum:
        rule = "a positive integer" if minimum else "a non-negative integer"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


ORACLE_LIMIT = 30
"""Largest n the subset-scanning oracles accept (2**(n-1) candidates)."""

INTERVAL_LIMIT = 2000
"""Largest n the interval enumeration accepts (about n**2 / 2 candidates)."""

INTERVAL_SUM_LIMIT = 10**7
"""Largest n the interval sum accepts (n terms; about 0.4 s at the limit at p = 1,
where the most are compared, on CPython 3.11 and a shared 2-vCPU VM)."""


class OracleLimitError(RuntimeError):
    """Instance too large for a brute-force oracle or the interval sum."""


def refuse_above(n: int, limit: int, what: str) -> None:
    """The one size guard: OracleLimitError, naming ``what``, when n > limit."""
    if n > limit:
        msg = f"instance too large for {what}: n={n} exceeds the n <= {limit} guard"
        raise OracleLimitError(msg)


class Frozen:
    """Base of the package's value types: records whose fields are set once.

    Subclasses pass their fields, in order, as keywords to ``Frozen.__init__``,
    which stores them in the instance ``__dict__``; any later assignment or
    deletion raises AttributeError.  The ``__dict__`` is what lets pickle and
    ``copy.deepcopy`` rebuild an instance without calling ``__setattr__``.
    The record rules read it too, in the order ``__init__`` sets the
    fields: an instance equals only one of its own class with equal
    fields, hashes as its field tuple and prints as ``Name(field=value,
    ...)``.
    """

    def __init__(self, **fields: object) -> None:
        self.__dict__.update(fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"


@total_ordering
class FiniteSet(Frozen):
    """Nonempty set of positive integers, stored as a strictly increasing tuple.

    Accepts any iterable of distinct positive ints (``bool`` is refused); elements are
    sorted on construction.  Instances are immutable, hashable, and
    ordered lexicographically by their element sequence.
    """

    elements: tuple[int, ...]

    def __init__(self, elements: Iterable[int]):
        elems = tuple(sorted(elements))
        if not elems:
            raise ValueError("FiniteSet must be nonempty")
        for x in elems:
            if type(x) is not int:  # refuses bool, which subclasses int
                raise TypeError(f"elements must be integers, got {x!r}")
        if elems[0] < 1:
            raise ValueError(f"elements must be >= 1, got {elems[0]}")
        for a, b in zip(elems, elems[1:]):
            if a == b:
                raise ValueError(f"duplicate element {a}")
        super().__init__(elements=elems)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.elements < other.elements
        return NotImplemented

    @property
    def min(self) -> int:
        return self.elements[0]

    @property
    def max(self) -> int:
        return self.elements[-1]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: object) -> bool:
        return x in self.elements

    def __str__(self) -> str:
        return _shown(self.elements)


class Ratio(Frozen):
    """Parameter pair (p, q) of the defining inequality q*min(F) >= p*|F|.

    Kept unreduced: (2, 4) and (1, 2) describe the same family, and that
    equivalence is a tested property of the package rather than a
    normalization performed here; only the single-count engine reduces
    the ratio it is given, to run at the family's minimal depth.
    """

    p: int
    q: int

    def __init__(self, p: int, q: int):
        require_int("p", p)
        require_int("q", q)
        super().__init__(p=p, q=q)

    def scaled(self, k: int) -> Ratio:
        """The same ratio written with both parts multiplied by ``k``."""
        require_int("k", k)
        return Ratio(k * self.p, k * self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


Elements = tuple[int, ...]  # a set as its strictly increasing elements


def _shown(elements: Elements) -> str:
    """A set, given as its increasing elements, printed as ``{2,4}``."""
    return "{%s}" % ",".join(map(str, elements))


def _in_family(elements: Elements, ratio: Ratio, n: int) -> bool:
    """The family predicate on a set given as its strictly increasing elements."""
    return elements[-1] == n and ratio.q * elements[0] >= ratio.p * len(elements)
