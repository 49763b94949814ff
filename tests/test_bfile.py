"""b-file rendering and parsing."""

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
