"""Immutable 2-colourings of complete graphs.

A coloring assigns each unordered pair of distinct vertices in [0, N) one
of two colors.  Black plays the role of "edge" and white of "non-edge",
but every operation is color-symmetric, so either color can be treated as
the edge set.  Storage is one black-adjacency bitmask per vertex; white
adjacency is the complement.  Colorings are immutable after construction
and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .bitset import bits
from .errors import PreconditionViolated


class Color(Enum):
    BLACK = "black"
    WHITE = "white"

    def swap(self) -> "Color":
        return Color.WHITE if self is Color.BLACK else Color.BLACK


BLACK = Color.BLACK
WHITE = Color.WHITE


def _upper_digits(rows) -> str:
    """The digit string Coloring._from_digits reads, from rows whose bits
    above each vertex are its black neighbours there: vertices N-2, ..., 0,
    each highest neighbour first.  Read as one binary int it is pair_bits()."""
    N = len(rows)
    return "".join(
        [format(rows[u] >> u + 1, f"0{N - 1 - u}b") for u in range(N - 2, -1, -1)]
    )


class Coloring:
    """A 2-coloring of the complete graph on N vertices."""

    __slots__ = ("N", "_black")

    def __init__(self, N: int, black_adj: tuple[int, ...]):
        if N < 1:
            raise PreconditionViolated(f"need at least one vertex, got N={N}")
        if len(black_adj) != N:
            raise PreconditionViolated("adjacency length does not match N")
        full = (1 << N) - 1
        for v, row in enumerate(black_adj):
            if row & ~full or row >> v & 1:
                raise PreconditionViolated(f"bad adjacency row for vertex {v}")
            for u in bits(row):
                if not black_adj[u] >> v & 1:
                    raise PreconditionViolated(f"asymmetric adjacency {u},{v}")
        self.N = N
        self._black = tuple(black_adj)

    @classmethod
    def _raw(cls, N: int, black_adj: tuple[int, ...]) -> "Coloring":
        """Trusted fast path: caller guarantees a valid symmetric adjacency."""
        self = object.__new__(cls)
        self.N = N
        self._black = black_adj
        return self

    @classmethod
    def _from_digits(cls, N: int, digits: str, mirrored: bool = False) -> "Coloring":
        """Trusted fast path: the one transpose of every coloring.

        digits holds a triangle's rows, shortest first: row t is the t
        binary digits from t(t-1)/2 on.  Row t lists the black neighbours
        above vertex N-1-t, highest first (digit j is vertex N-1-j), or
        mirrored, those below vertex t, lowest first (digit j is vertex j).
        Padded to width N, the rows form an N x N grid in which a vertex's
        other neighbours are its column below the diagonal, so each
        adjacency is a row joined to a stride slice and read by one int():
        about 1 ms at N = 428, with no Python-level step per pair.
        """
        rows = [digits[t * (t - 1) // 2 : t * (t + 1) // 2] for t in range(N)]
        pad = "0" * N
        grid = "".join([row + pad[t:] for t, row in enumerate(rows)])
        spans = (row + grid[t * N + t :: N] for t, row in enumerate(rows))
        if mirrored:
            return cls._raw(N, tuple(int(span[::-1], 2) for span in spans))
        return cls._raw(N, tuple(int(span, 2) for span in spans)[::-1])

    @classmethod
    def from_pair_bits(cls, N: int, black_bits: int) -> "Coloring":
        """Build from an int whose bit k says pair k (canonical order) is black.

        Formatted highest pair first, the int lists the rows of vertices
        N-1, ..., 0, each highest neighbour first, as _from_digits reads them.
        """
        if N < 1:
            raise PreconditionViolated(f"need at least one vertex, got N={N}")
        K = N * (N - 1) // 2
        if black_bits >> K:
            raise PreconditionViolated("bit pattern longer than the pair count")
        # digits holds exactly K digits, and format(0, "00b") is "0", not ""
        return cls._from_digits(N, format(black_bits, f"0{K}b") if K else "")

    @classmethod
    def complete(cls, N: int, color: Color) -> "Coloring":
        """All pairs in one color."""
        if N < 1:
            raise PreconditionViolated(f"need at least one vertex, got N={N}")
        if color is BLACK:
            full = (1 << N) - 1
            return cls._raw(N, tuple(full ^ (1 << v) for v in range(N)))
        return cls._raw(N, (0,) * N)

    @property
    def vertex_mask(self) -> int:
        return (1 << self.N) - 1

    def pair_color(self, u: int, v: int) -> Color:
        if u == v:
            raise PreconditionViolated(f"no color for self-pair ({u},{v})")
        if not (0 <= u < self.N and 0 <= v < self.N):
            raise PreconditionViolated(f"pair ({u},{v}) out of range")
        return BLACK if self._black[u] >> v & 1 else WHITE

    def neighborhood(self, v: int, color: Color) -> int:
        """Bitmask of vertices joined to v by a pair of the given color."""
        if not 0 <= v < self.N:
            raise PreconditionViolated(f"vertex {v} out of range")
        if color is BLACK:
            return self._black[v]
        return self.vertex_mask & ~self._black[v] & ~(1 << v)

    def degree(self, v: int, color: Color) -> int:
        return self.neighborhood(v, color).bit_count()

    def swap_colors(self) -> "Coloring":
        full = self.vertex_mask
        return Coloring._raw(
            self.N, tuple(full & ~row & ~(1 << v) for v, row in enumerate(self._black))
        )

    def pair_bits(self) -> int:
        """Inverse of from_pair_bits."""
        return int(_upper_digits(self._black) or "0", 2)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coloring)
            and self.N == other.N
            and self._black == other._black
        )

    def __hash__(self) -> int:
        return hash((self.N, self._black))

    def __repr__(self) -> str:
        return f"Coloring(N={self.N}, black_pairs={self.pair_bits():#x})"


@dataclass(frozen=True)
class Context:
    """Global degree context for an extraction run.

    d is the largest degree seen in either color; 2d >= N-1 always.  The
    witness is the lowest vertex attaining d, black checked before white.
    """

    d: int
    d_witness: tuple[int, Color]


def context_of(c: Coloring) -> Context:
    best = -1
    witness = (0, BLACK)
    others = c.N - 1
    for v, row in enumerate(c._black):
        black = row.bit_count()
        if black > best:
            best, witness = black, (v, BLACK)
        if others - black > best:
            best, witness = others - black, (v, WHITE)
    return Context(d=best, d_witness=witness)
