"""Reading and writing integer sequences in OEIS b-file form.

A b-file is plain text: one "index value" pair per line with indices
stepping by exactly 1, and a trailing newline.  Values may be
arbitrarily large.  Comment lines starting with '#' may precede the
data; the parser skips them, and rendering writes none.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

from .sets import Frozen, require_int


class BFile(Frozen):
    """Parsed or to-be-rendered b-file content."""

    entries: tuple[tuple[int, int], ...]

    def __init__(self, entries: Iterable[Iterable[int]]) -> None:
        entries = tuple(map(tuple, entries))  # a list of lists makes the same record
        if not {int}.issuperset(map(type, chain.from_iterable(entries))):  # no bool
            bad = next(x for x in chain.from_iterable(entries) if type(x) is not int)
            raise TypeError(f"b-file entries must be integers, got {bad!r}")
        try:
            indices = [i for i, _ in entries]
        except ValueError:  # an entry that does not unpack as a pair
            bad = next(entry for entry in entries if len(entry) != 2)
            msg = f"b-file entries must be (index, value) pairs, got {bad!r}"
            raise ValueError(msg) from None
        if indices and indices != list(range(indices[0], indices[0] + len(indices))):
            prev, cur = next(p for p in zip(indices, indices[1:]) if p[1] != p[0] + 1)
            raise ValueError(f"b-file indices must step by 1, got {prev} then {cur}")
        super().__init__(entries=entries)

    def render(self) -> str:
        return "\n".join(f"{i} {v}" for i, v in self.entries) + "\n"


def parse_bfile(text: str) -> BFile:
    """Parse b-file text, enforcing the index-step rule.

    Leading '#' lines are skipped; one after the data is refused.
    """
    entries: list[tuple[int, int]] = []
    # int() also takes '_' separators, a '+' sign and non-ASCII digits; b-file
    # text has none, so only text that holds one checks its tokens' characters
    strict = not text.isascii() or "_" in text or "+" in text
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if entries:
                raise ValueError(f"line {lineno}: comment after data lines")
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected 'index value', got {raw!r}")
        if strict and not all(set("-0123456789").issuperset(t) for t in tokens):
            raise ValueError(f"line {lineno}: non-integer token in {raw!r}")
        try:
            index, value = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            if all(t.removeprefix("-").isdecimal() for t in tokens):
                raise ValueError(f"line {lineno}: {exc}") from None  # digit limit
            raise ValueError(f"line {lineno}: non-integer token in {raw!r}") from None
        entries.append((index, value))
    return BFile(entries)


def bfile_from_sequence(sequence: tuple[int, ...], offset: int = 1) -> BFile:
    """b-file entries (n, sequence[n]) for offset <= n <= the sequence end."""
    require_int("offset", offset, 0)
    n_max = len(sequence) - 1
    if offset > n_max:
        raise ValueError(f"offset {offset} outside the computed range 0..{n_max}")
    return BFile(enumerate(sequence[offset:], start=offset))
