"""b-file rendering and parsing."""

import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schreier.bfile
from schreier import BFile, Ratio, bfile_from_sequence, parse_bfile, schreier_sequence


def test_render_plain_entries():
    bf = BFile(((1, 1), (2, 2), (3, 3)))
    assert bf.render() == "1 1\n2 2\n3 3\n"


def test_parse_skips_leading_comments():
    assert parse_bfile("# family sizes for 1/1\n#\n5 8\n") == BFile(((5, 8),))


def test_parse_roundtrip():
    bf = BFile(((0, 0), (1, 1), (2, 2)))
    assert parse_bfile(bf.render()) == bf


def test_parse_accepts_blank_lines_and_padding():
    parsed = parse_bfile("# note\n\n 1 10 \n2 20\n")
    assert parsed.entries == ((1, 10), (2, 20))


def test_from_sequence_default_offset_skips_zero():
    seq = schreier_sequence(Ratio(1, 1), 6)
    bf = bfile_from_sequence(seq)
    assert bf.entries == ((1, 1), (2, 1), (3, 2), (4, 3), (5, 5), (6, 8))


def test_from_sequence_with_offset_zero():
    seq = schreier_sequence(Ratio(2, 1), 4)
    bf = bfile_from_sequence(seq, offset=0)
    assert bf.entries == ((0, 0), (1, 0), (2, 1), (3, 1), (4, 1))


def test_sequence_bfile_roundtrip_preserves_big_values():
    seq = schreier_sequence(Ratio(1, 3), 400)  # values overflow machine words
    bf = bfile_from_sequence(seq)
    parsed = parse_bfile(bf.render())
    assert parsed == bf
    assert parsed.entries[-1] == (400, seq[400])


def test_parse_keeps_underscores_and_non_ascii_in_comments():
    parsed = parse_bfile("# café data_set\n1 5\n2 6\n")
    assert parsed.entries == ((1, 5), (2, 6))


def joined(bf):
    """The b-file text as its lines joined, the form render once took."""
    return "\n".join(f"{i} {v}" for i, v in bf.entries) + "\n"


def test_render_matches_the_joined_lines():
    bfiles = [BFile(()), BFile(((-2, -7), (-1, 0), (0, 10**50)))] + [
        bfile_from_sequence(schreier_sequence(Ratio(p, q), 400), offset=0)
        for p in range(1, 7)
        for q in range(1, 7)
    ]
    for bf in bfiles:
        assert bf.render() == joined(bf)


# every character that str.splitlines ends a line at
BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_breaks_are_every_character_that_ends_a_line():
    ends = {c for c in map(chr, range(0x10000)) if len(f"a{c}b".splitlines()) == 2}
    assert ends == set("".join(BREAKS))


@given(
    st.lists(st.one_of(st.sampled_from(BREAKS), st.text("ab 7", max_size=3)), max_size=30),
    st.integers(1, 5),
)
@example(["a", "\r\n", "\r\n", "b", "\n", "\n", "\r"], 2)  # cuts next to "\r\n" and in a run
@example(["\r", "\n"], 1)
@settings(max_examples=300)
def test_the_block_reader_yields_what_splitlines_does(pieces, block):
    text = "".join(pieces)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schreier.bfile, "_BLOCK_CHARS", block)
        assert list(schreier.bfile._lines(text)) == text.splitlines()


def traced_peak(call, *args):
    """What ``call(*args)`` returns, and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_render_and_parse_hold_at_most_one_copy_of_the_text():
    # (1, 1) up to 6000: 3.8 MB of text, spread over values of up to 1254 digits
    bf = bfile_from_sequence(schreier_sequence(Ratio(1, 1), 6000))
    text, render_peak = traced_peak(BFile.render, bf)
    assert render_peak <= 1.25 * sys.getsizeof(text)
    parsed, parse_peak = traced_peak(parse_bfile, text)
    assert parsed == bf
    assert parse_peak <= sys.getsizeof(text)
