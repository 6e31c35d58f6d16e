"""Reading and writing colorings.

Native format ".2col": the first non-blank line is ``p 2col N``; the rest
of the file is exactly N(N-1)/2 characters ``B``/``W`` separated by
arbitrary whitespace, in canonical pair order (0,1), (0,2), ..., (0,N-1),
(1,2), ...  Written out, line u+2 is vertex u's upper-neighbour row.

Standard graph6 is also accepted for the black subgraph; the white pairs
are the complement.  Its column v is vertex v's lower-neighbour row.
"""

from __future__ import annotations

import os
from math import isqrt

from .coloring import BLACK, Coloring
from .errors import ColoringFormatError


# a row's bit string is written lowest vertex first
_TO_LETTERS = str.maketrans("10", "BW")
_TO_BITS = bytes.maketrans(b"BW", b"10")
_GRAPH6_CHARS = bytes(range(63, 127))
# table i maps a graph6 character to the digit of its value's bit 5 - i
_GRAPH6_DIGITS = [
    bytes.maketrans(_GRAPH6_CHARS, bytes(48 + (v >> 5 - i & 1) for v in range(64)))
    for i in range(6)
]


def write_2col(c: Coloring) -> str:
    """Canonical text form: header plus one line per upper-triangle row."""
    lines = [f"p 2col {c.N}"]
    for u in range(c.N - 1):
        row = c.neighborhood(u, BLACK) >> (u + 1)
        lines.append(format(row, f"0{c.N - 1 - u}b")[::-1].translate(_TO_LETTERS))
    return "\n".join(lines) + "\n"


def parse_2col(text: str) -> Coloring:
    lines = text.splitlines()
    if not lines:
        raise ColoringFormatError("empty file", line=1)
    # the header is the first non-blank line, as parse_coloring sniffs it;
    # body is its 1-based line number, so lines[body:] is the body and
    # error line numbers still count every line of the text
    body = next((i for i, line in enumerate(lines, 1) if line.strip()), 1)
    header = lines[body - 1].split()
    if len(header) != 3 or header[0] != "p" or header[1] != "2col":
        raise ColoringFormatError("expected header 'p 2col N'", line=body)
    # int() alone would also take "1_0", "+3" and non-ASCII digits; past
    # 20 digits the pair count would pass Python's int-string limit
    if not (header[2].isascii() and header[2].isdigit()) or len(header[2]) > 20:
        raise ColoringFormatError(f"bad vertex count {header[2]!r}", line=body)
    N = int(header[2])
    if N < 1:
        raise ColoringFormatError(f"bad vertex count {N}", line=body)

    need = N * (N - 1) // 2
    entries = "".join("".join(lines[body:]).split())
    k = len(entries)
    # a non-ASCII character, even a lone surrogate, is encoded as "?"
    letters = entries.encode("ascii", "replace")
    if letters.translate(None, b"BW") or k > need:
        raise _first_fault(lines, body, need)
    if k < need:
        u, v = _pair_at(N, k)
        raise ColoringFormatError(
            f"only {k} of {need} pair entries; first missing pair is ({u},{v})",
            line=len(lines),
        )
    # entry k is pair k, and bit k of the int
    return Coloring.from_pair_bits(N, int(letters[::-1].translate(_TO_BITS) or b"0", 2))


def _first_fault(lines: list[str], body: int, need: int) -> ColoringFormatError:
    """The error at the first bad character or surplus entry of the body,
    which starts at lines[body]."""
    k = 0
    for lineno, line in enumerate(lines[body:], start=body + 1):
        for offset, ch in enumerate(line):
            if ch.isspace():
                continue
            if ch not in "BW":
                return ColoringFormatError(
                    f"unexpected character {ch!r}", line=lineno, offset=offset
                )
            if k == need:
                return ColoringFormatError(
                    f"more than {need} pair entries", line=lineno, offset=offset
                )
            k += 1
    raise AssertionError("body has no fault")


def _pair_at(N: int, k: int) -> tuple[int, int]:
    """The k-th pair in canonical order, without listing the pairs before
    it: counted from the end, row N-2-j holds the j+1 pairs with reverse
    index in [j(j+1)/2, (j+1)(j+2)/2)."""
    r = N * (N - 1) // 2 - 1 - k
    j = (isqrt(8 * r + 1) - 1) // 2
    return N - 2 - j, N - 1 - (r - j * (j + 1) // 2)


def parse_graph6(text: str) -> Coloring:
    """Decode one graph6 line; its edges become the black pairs."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ColoringFormatError("empty graph6 input", line=1)
    if not s.isascii() or s.encode().translate(None, _GRAPH6_CHARS):
        offset = next(i for i, ch in enumerate(s) if not "?" <= ch <= "~")
        raise ColoringFormatError("byte out of graph6 range", line=1, offset=offset)
    if s[0] != "~":
        N = ord(s[0]) - 63
        body = s[1:]
    elif len(s) >= 4 and s[1] != "~":
        N = int(_graph6_digits(s[1:4]), 2)
        body = s[4:]
    else:
        raise ColoringFormatError("unsupported graph6 size prefix", line=1)
    if N < 1:
        raise ColoringFormatError("graph6 graph needs at least one vertex", line=1)
    npairs = N * (N - 1) // 2
    if len(body) != (npairs + 5) // 6:
        raise ColoringFormatError(
            f"graph6 body length {len(body)} does not match n={N}", line=1
        )
    # graph6 bit order is column-major: (0,1), (0,2), (1,2), (0,3), ...,
    # so column v is the v digits from v(v-1)/2 on, lowest vertex first:
    # the mirrored rows of Coloring._from_digits
    return Coloring._from_digits(N, _graph6_digits(body), mirrored=True)


def _graph6_digits(chars: str) -> str:
    """The six binary digits of each graph6 character, highest first."""
    raw = chars.encode()
    digits = bytearray(6 * len(raw))
    for i, table in enumerate(_GRAPH6_DIGITS):
        digits[i::6] = raw.translate(table)
    return digits.decode()


def parse_coloring(text: str) -> Coloring:
    """Sniff the format: 'p' and then whitespace opens a .2col header,
    anything else is read as graph6.  A graph6 line holds no whitespace,
    though one for N = 49 starts with 'p'."""
    stripped = text.lstrip()
    if stripped[:1] == "p" and stripped[1:2].isspace():
        return parse_2col(text)
    return parse_graph6(text)


def load_coloring(path: str | os.PathLike) -> Coloring:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse_coloring(data.decode("ascii"))
    except UnicodeDecodeError as exc:
        # a stand-in for the bad byte keeps its own line last
        lines = (data[: exc.start].decode("ascii") + "?").splitlines()
        message = f"non-ASCII byte {data[exc.start]:#04x}"
        raise ColoringFormatError(message, len(lines), len(lines[-1]) - 1) from None


def save_2col(c: Coloring, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(write_2col(c))
