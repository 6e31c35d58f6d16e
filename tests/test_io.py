import networkx as nx
import pytest

from bruteforce import brute_graph6, coloring_from_pairs
from fanram.coloring import BLACK, WHITE, Coloring
from fanram.errors import ColoringFormatError
from fanram.io import (
    _pair_at,
    load_coloring,
    parse_2col,
    parse_coloring,
    parse_graph6,
    save_2col,
    write_2col,
)
from fanram.oracle import random_coloring


# every row width from a single vertex up, 23 and 24, and n=70, where
# graph6 switches to the four-byte size prefix
_EDGE_WIDTHS = (*range(1, 13), 23, 24, 70)


def _black_graph(c):
    g = nx.Graph()
    g.add_nodes_from(range(c.N))
    for u in range(c.N):
        for v in range(u + 1, c.N):
            if c.pair_color(u, v) is BLACK:
                g.add_edge(u, v)
    return g


def test_2col_roundtrip():
    for N in _EDGE_WIDTHS:
        for seed in range(8):
            c = random_coloring(N, seed, 0.4)
            assert parse_2col(write_2col(c)) == c


def test_2col_single_vertex():
    c = coloring_from_pairs(1, [])
    assert parse_2col(write_2col(c)) == c


def test_2col_accepts_scattered_whitespace():
    text = "p 2col 3\nB W\n  B\n"
    c = parse_2col(text)
    assert c.pair_color(0, 1) is BLACK
    assert c.pair_color(0, 2) is WHITE
    assert c.pair_color(1, 2) is BLACK
    # a tab, a vertical tab (a line break to splitlines) and an empty line
    assert parse_2col("p 2col 3\nB\tW\x0bB\n").pair_bits() == 5
    assert parse_2col("p 2col 2\n\nW") == Coloring.complete(2, WHITE)


def test_2col_header_errors():
    with pytest.raises(ColoringFormatError):
        parse_2col("")
    with pytest.raises(ColoringFormatError):
        parse_2col("q 2col 3\nBBB")
    with pytest.raises(ColoringFormatError):
        parse_2col("p 2col x\nBBB")
    # a text with no non-blank line has no header to find
    for text in ("\n\n", "   ", " \n\t\n"):
        with pytest.raises(ColoringFormatError) as exc:
            parse_2col(text)
        assert str(exc.value) == "expected header 'p 2col N' (line 1, offset 0)"


def test_2col_bad_character_position():
    for text, line, offset in (
        ("p 2col 3\nBX\nB\n", 2, 1),
        ("p 2col 3\nBB B X\n", 2, 5),
    ):
        with pytest.raises(ColoringFormatError, match="character 'X'") as exc:
            parse_2col(text)
        assert (exc.value.line, exc.value.offset) == (line, offset)


def test_2col_too_few_and_too_many():
    with pytest.raises(ColoringFormatError):
        parse_2col("p 2col 3\nBB\n")
    with pytest.raises(ColoringFormatError):
        parse_2col("p 2col 3\nBBBB\n")
    for text, line, offset in (("p 2col 3\nBBBBX", 2, 3), ("p 2col 3\nBW\n\nBW", 4, 1)):
        with pytest.raises(ColoringFormatError, match="more than 3") as exc:
            parse_2col(text)
        assert (exc.value.line, exc.value.offset) == (line, offset)
    with pytest.raises(ColoringFormatError, match=r"first missing pair is \(1,3\)"):
        parse_2col("p 2col 4\nBBB\nW\n")


_BAD_2COL = "unexpected character "
_BAD_GRAPH6 = "byte out of graph6 range"


@pytest.mark.parametrize(
    "parse, text, line, offset, message",
    [
        (parse_2col, "p 2col 3\nB\udc80B\n", 2, 1, _BAD_2COL + "'\\udc80'"),
        (parse_2col, "p 2col 3\nB\u00e9 B\n", 2, 1, _BAD_2COL + "'\u00e9'"),
        (parse_2col, "p 2col 3\nB1B\n", 2, 1, _BAD_2COL + "'1'"),
        (parse_2col, "p 2col 3\nB_B\n", 2, 1, _BAD_2COL + "'_'"),
        (parse_graph6, "D\udc80\x7f", 1, 1, _BAD_GRAPH6),
        (parse_graph6, "D\u00e9?", 1, 1, _BAD_GRAPH6),
        (parse_graph6, "D?\x7f", 1, 2, _BAD_GRAPH6),
    ],
    ids=[
        "2col-surrogate",
        "2col-accent",
        "2col-digit",
        "2col-underscore",
        "graph6-surrogate",
        "graph6-accent",
        "graph6-del",
    ],
)
def test_hostile_text_keeps_its_error(parse, text, line, offset, message):
    # non-ASCII text (a lone surrogate cannot even be encoded) and ASCII
    # that is neither a pair letter nor graph6 are named where they stand;
    # a '1' or '_' never reaches the int() that reads the digits
    with pytest.raises(ColoringFormatError) as exc:
        parse(text)
    assert str(exc.value) == f"{message} (line {line}, offset {offset})"
    assert (exc.value.line, exc.value.offset) == (line, offset)


def test_2col_huge_header_short_body():
    # 16 bytes declaring N = 3e6: rejected from the entry count alone,
    # without listing the 4.5e12 pairs the header promises
    text = "p 2col 3000000\nB"
    assert len(text.encode()) == 16
    with pytest.raises(ColoringFormatError) as exc:
        parse_2col(text)
    assert "only 1 of 4499998500000 pair entries" in str(exc.value)
    assert "first missing pair is (0,2)" in str(exc.value)


@pytest.mark.parametrize("digits", [21, 4000, 5000])
def test_2col_overlong_header_count(digits):
    # int() stops at 4300 digits, and 4000 digits make an 8000-digit pair
    # count to report; a count of more than 20 digits is refused first
    message = f"^bad vertex count '9{{{digits}}}'"
    with pytest.raises(ColoringFormatError, match=message) as exc:
        parse_2col("p 2col " + "9" * digits + "\nB\n")
    assert (exc.value.line, exc.value.offset) == (1, 0)


def test_2col_twenty_digit_header_count():
    # N = 10^19 still reads, and its 5e37 - 5e18 pairs are reported
    need = "49999999999999999995" + "0" * 18
    with pytest.raises(ColoringFormatError, match=f"^only 1 of {need} pair entries"):
        parse_2col("p 2col 1" + "0" * 19 + "\nB\n")


def test_graph6_against_networkx():
    for N in _EDGE_WIDTHS:
        for seed in range(10):
            c = random_coloring(N, seed, 0.5)
            text = nx.to_graph6_bytes(_black_graph(c), header=False).decode().strip()
            assert parse_graph6(text) == c
            # the writer the larger tests use, checked against networkx
            assert brute_graph6(N, lambda u, v: c.pair_color(u, v) is BLACK) == text


def test_largest_file_roundtrip():
    # N = 856 is the largest order the benchmark parses; no other test
    # reaches it.  The graph6 text is written one digit per pair.
    c = random_coloring(856, 1, 0.5)
    assert parse_2col(write_2col(c)) == c
    text = brute_graph6(c.N, lambda u, v: c.pair_color(u, v) is BLACK)
    assert parse_graph6(text) == c


def test_pair_at_matches_canonical_order():
    for N in range(1, 41):
        pairs = [(u, v) for u in range(N) for v in range(u + 1, N)]
        assert [_pair_at(N, k) for k in range(len(pairs))] == pairs


def test_graph6_long_size_prefix():
    # n >= 63 switches graph6 to the four-byte size form
    g = nx.complete_graph(70)
    text = nx.to_graph6_bytes(g, header=False).decode().strip()
    assert parse_graph6(text) == Coloring.complete(70, BLACK)


def test_graph6_header_accepted():
    g = nx.complete_graph(5)
    text = nx.to_graph6_bytes(g).decode().strip()
    assert parse_graph6(text) == Coloring.complete(5, BLACK)


def test_graph6_errors():
    with pytest.raises(ColoringFormatError):
        parse_graph6("")
    with pytest.raises(ColoringFormatError):
        parse_graph6("D" + chr(40))  # truncated body


def test_parse_coloring_sniffs_format(tmp_path):
    c = random_coloring(8, 3, 0.5)
    assert parse_coloring(write_2col(c)) == c
    text = nx.to_graph6_bytes(_black_graph(c), header=False).decode().strip()
    assert parse_coloring(text) == c
    path = tmp_path / "x.2col"
    save_2col(c, path)
    assert load_coloring(path) == c


@pytest.mark.parametrize("sep", ["\t", "  ", " \t", "\t\t"])
def test_2col_header_with_any_whitespace_loads(tmp_path, sep):
    want = parse_2col("p 2col 3\nBBW\n")
    text = f"p{sep}2col{sep}3\nBBW\n"
    assert parse_2col(text) == want
    assert parse_coloring(text) == want
    path = tmp_path / "tab.2col"
    path.write_text(text)
    assert load_coloring(path) == want


@pytest.mark.parametrize("lead", ["\n", " \n ", "\n\n\t", "  "])
def test_2col_header_after_blank_lines_loads(tmp_path, lead):
    # parse_coloring sniffs past leading whitespace, so parse_2col must
    # find the header there too
    want = parse_2col("p 2col 3\nBBW\n")
    text = f"{lead}p 2col 3\nBBW\n"
    assert parse_coloring(text) == want
    path = tmp_path / "lead.2col"
    path.write_text(text)
    assert load_coloring(path) == want


@pytest.mark.parametrize(
    "text, message, line, offset",
    [
        ("\np 2col 3\nBXW\n", "unexpected character 'X'", 3, 1),
        (" \n p 2col 3\nBBWB\n", "more than 3 pair entries", 3, 3),
        ("\n\np 2col 3\nBB\n", "only 2 of 3 pair entries", 4, 0),
        ("\np 2col 3x\nBBW\n", "bad vertex count '3x'", 2, 0),
    ],
)
def test_2col_error_lines_count_leading_blank_lines(
    tmp_path, text, message, line, offset
):
    path = tmp_path / "lead.2col"
    path.write_text(text)
    for read in (parse_coloring, lambda _: load_coloring(path)):
        with pytest.raises(ColoringFormatError, match=message) as exc:
            read(text)
        assert (exc.value.line, exc.value.offset) == (line, offset)


def test_graph6_starting_with_p_is_graph6():
    # N = 49 is the size character "p"
    c = random_coloring(49, 7, 0.5)
    text = nx.to_graph6_bytes(_black_graph(c), header=False).decode()
    assert text[0] == "p"
    assert parse_coloring(text) == c


@pytest.mark.parametrize("count", ["1_0", "+3", "-0", "\u0663", "3.0", " 3x"])
def test_2col_vertex_count_is_ascii_digits(count):
    text = f"p 2col {count}\nBBW\n"
    with pytest.raises(ColoringFormatError, match="bad vertex count") as exc:
        parse_coloring(text)
    assert exc.value.line == 1


def test_write_is_canonical():
    c = coloring_from_pairs(
        3, [(0, 1, BLACK), (0, 2, WHITE), (1, 2, BLACK)]
    )
    assert write_2col(c) == "p 2col 3\nBW\nB\n"
