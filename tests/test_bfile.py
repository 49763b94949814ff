"""b-file rendering and parsing."""

import re
import sys

import pytest

from schreier import BFile, Ratio, bfile_from_sequence, parse_bfile, schreier_sequence


def test_render_plain_entries():
    bf = BFile(((1, 1), (2, 2), (3, 3)))
    assert bf.render() == "1 1\n2 2\n3 3\n"


def test_parse_skips_leading_comments():
    assert parse_bfile("# family sizes for 1/1\n#\n5 8\n") == BFile(((5, 8),))


def test_indices_must_step_by_one():
    with pytest.raises(ValueError):
        BFile(((1, 1), (3, 2)))
    with pytest.raises(ValueError):
        BFile(((2, 1), (1, 1)))


@pytest.mark.parametrize(
    "entries, text, bad",
    [
        (((1.5, 1), (2.5, 1)), "1.5 1\n2.5 1\n", "1.5"),
        (((True, 1), (2, 1)), "True 1\n2 1\n", "True"),
        (((1, 1), (2, 2.0)), "1 1\n2 2.0\n", "2.0"),
    ],
    ids=["float-index", "bool-index", "float-value"],
)
def test_entries_must_be_plain_ints(entries, text, bad):
    # entries whose indices step by 1, but whose rendering parse_bfile refuses
    with pytest.raises(TypeError, match=f"^b-file entries must be integers, got {bad}$"):
        BFile(entries)
    with pytest.raises(ValueError, match="non-integer token"):
        parse_bfile(text)


@pytest.mark.parametrize("entry", [(1, 2, 3), (1,), ()])
def test_entries_must_be_index_value_pairs(entry):
    message = f"b-file entries must be (index, value) pairs, got {entry!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BFile([(0, 1), entry])


def test_a_non_int_in_an_entry_of_any_length_is_still_a_type_error():
    for entries in ([(1, 2, "x")], [("x",)], [(1, 2.0)]):
        with pytest.raises(TypeError, match="^b-file entries must be integers, got "):
            BFile(entries)


def test_parse_roundtrip():
    bf = BFile(((0, 0), (1, 1), (2, 2)))
    assert parse_bfile(bf.render()) == bf


def test_parse_accepts_blank_lines_and_padding():
    parsed = parse_bfile("# note\n\n 1 10 \n2 20\n")
    assert parsed.entries == ((1, 10), (2, 20))


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_bfile("1 2 3\n")
    with pytest.raises(ValueError):
        parse_bfile("1 x\n")
    with pytest.raises(ValueError):
        parse_bfile("1 1\n# too late\n2 2\n")
    with pytest.raises(ValueError):
        parse_bfile("1 1\n3 9\n")  # skipped index


def test_parse_names_the_digit_limit_for_an_over_long_value():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError, match=r"^line 2: Exceeds the limit \(640 digits\)"):
            parse_bfile("1 5\n2 " + "7" * 700 + "\n")
        with pytest.raises(ValueError, match=r"^line 1: Exceeds the limit"):
            parse_bfile("-" + "7" * 700 + " 5\n")
    finally:
        sys.set_int_max_str_digits(saved)
    for text in ("1 x\n", "1 \u00b2\n"):
        with pytest.raises(ValueError, match="non-integer token"):
            parse_bfile(text)


def test_from_sequence_default_offset_skips_zero():
    seq = schreier_sequence(Ratio(1, 1), 6)
    bf = bfile_from_sequence(seq)
    assert bf.entries == ((1, 1), (2, 1), (3, 2), (4, 3), (5, 5), (6, 8))


def test_from_sequence_with_offset_zero():
    seq = schreier_sequence(Ratio(2, 1), 4)
    bf = bfile_from_sequence(seq, offset=0)
    assert bf.entries == ((0, 0), (1, 0), (2, 1), (3, 1), (4, 1))


def test_from_sequence_rejects_out_of_range_offsets():
    seq = schreier_sequence(Ratio(1, 1), 5)
    with pytest.raises(ValueError):
        bfile_from_sequence(seq, offset=6)
    with pytest.raises(ValueError):
        bfile_from_sequence(seq, offset=-1)


@pytest.mark.parametrize("offset", [True, 1.5, "1", -1])
def test_from_sequence_refuses_an_offset_that_is_not_a_non_negative_int(offset):
    seq = schreier_sequence(Ratio(1, 1), 5)
    message = f"offset must be a non-negative integer, got {offset!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bfile_from_sequence(seq, offset=offset)


def test_from_sequence_names_the_range_for_an_offset_past_it():
    seq = schreier_sequence(Ratio(1, 1), 5)
    message = "offset 6 outside the computed range 0..5"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bfile_from_sequence(seq, offset=6)


def test_sequence_bfile_roundtrip_preserves_big_values():
    seq = schreier_sequence(Ratio(1, 3), 400)  # values overflow machine words
    bf = bfile_from_sequence(seq)
    parsed = parse_bfile(bf.render())
    assert parsed == bf
    assert parsed.entries[-1] == (400, seq[400])


@pytest.mark.parametrize(
    "text, line",
    [
        ("1_0 5\n", "'1_0 5'"),  # int() reads it as 10
        ("٧ 5\n", "'٧ 5'"),  # Arabic-Indic seven: int() reads 7
        ("1 5\n2 1_000\n", "'2 1_000'"),
        ("# café data_set\n1 ５\n", "'1 ５'"),  # fullwidth five
        ("+1 5\n", "'+1 5'"),  # int() reads it as 1
    ],
)
def test_parse_refuses_what_int_reads_but_a_bfile_never_holds(text, line):
    with pytest.raises(ValueError, match=f"non-integer token in {re.escape(line)}"):
        parse_bfile(text)


def test_parse_keeps_underscores_and_non_ascii_in_comments():
    parsed = parse_bfile("# café data_set\n1 5\n2 6\n")
    assert parsed.entries == ((1, 5), (2, 6))
