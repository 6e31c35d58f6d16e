"""Ground truth at desk scale: exhaustive enumeration, known-value checks,
lower-bound constructions, and seeded generators.

Exhaustive enumeration walks colorings by their pair-bit encodings in
ascending order (bit k of the counter is pair k of the canonical order),
so runs are deterministic and the index space can be partitioned across
workers with the start/stop arguments.

The exhaustive fan check does not walk every coloring.  Fan-freeness is
hereditary, so it grows the fan-free colorings of K_N from those of K_1
one vertex at a time, searching only the fans through the new vertex.
The new vertex takes the lowest pair bits, so each level comes out in
ascending pair-bit order and the check reports the same examples, in the
same order, as a walk over every coloring would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coloring import BLACK, WHITE, Coloring
from .errors import PreconditionViolated
from .io import write_2col
from .rng import SplitMix64
from .structures import find_mono_fan

MAX_EXHAUSTIVE_N = 7
FAN_FREE_EXAMPLE_CAP = 10


@dataclass
class EnumerationReport:
    N: int
    n: int | None
    total: int
    all_contain: bool
    fan_free_examples: list[Coloring] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "n": self.n,
            "total": self.total,
            "all_contain": self.all_contain,
            "fan_free_examples": [
                write_2col(c).replace("\n", " ").strip()
                for c in self.fan_free_examples
            ],
        }


def enumerate_colorings(
    N: int, visitor, *, start: int = 0, stop: int | None = None
) -> EnumerationReport:
    """Invoke visitor(coloring) once per coloring of K_N.

    Order is ascending pair-bit encoding.  start/stop bound the encoding
    range so callers can split the space across workers; the default
    covers everything.
    """
    if N > MAX_EXHAUSTIVE_N:
        raise PreconditionViolated(
            f"exhaustive enumeration capped at N={MAX_EXHAUSTIVE_N}, got {N}"
        )
    if N < 1:
        raise PreconditionViolated(f"need at least one vertex, got N={N}")
    limit = 1 << (N * (N - 1) // 2)
    stop = limit if stop is None else min(stop, limit)
    count = 0
    for bits_value in range(start, stop):
        visitor(Coloring.from_pair_bits(N, bits_value))
        count += 1
    return EnumerationReport(N=N, n=None, total=count, all_contain=False)


def exhaustive_ramsey_check(N: int, n: int) -> EnumerationReport:
    """Do all colorings of K_N contain a monochromatic fan with n blades?

    Exhaustive for N <= MAX_EXHAUSTIVE_N and n <= 2: grows the fan-free
    colorings of K_1, K_2, ..., K_N one vertex at a time (see _grow).
    Every other coloring of K_N contains a fan, because a fan appeared
    in its restriction to the last m vertices for some m.  total counts
    the colorings decided, 2^(N(N-1)/2), not the candidates tested.  The
    fan-free colorings come out in ascending pair-bit order, as a walk
    over every coloring would meet them, so the first
    FAN_FREE_EXAMPLE_CAP of them are the examples.
    """
    if n > 2:
        raise PreconditionViolated(f"exhaustive check capped at n=2, got n={n}")
    if n < 1:
        raise PreconditionViolated(f"fan parameter must be >= 1, got {n}")
    if N > MAX_EXHAUSTIVE_N:
        raise PreconditionViolated(
            f"exhaustive enumeration capped at N={MAX_EXHAUSTIVE_N}, got {N}"
        )
    if N < 1:
        raise PreconditionViolated(f"need at least one vertex, got N={N}")
    level = [0]
    for m in range(2, N + 1):
        level = _grow(level, m, n)
    return EnumerationReport(
        N=N,
        n=n,
        total=1 << N * (N - 1) // 2,
        all_contain=not level,
        fan_free_examples=[
            Coloring.from_pair_bits(N, h) for h in level[:FAN_FREE_EXAMPLE_CAP]
        ],
    )


def _grow(level: list[int], m: int, n: int) -> list[int]:
    """Pair bits of the fan-free colorings of K_m, ascending, from those
    of K_{m-1} (level, ascending).

    A fan-free coloring of K_m restricts to a fan-free coloring on
    vertices 1..m-1, so it is some h in level, renumbered up by one, plus
    a new vertex 0 whose pairs (0, v) are the bits r: the candidate
    h << (m-1) | r, since those pairs are the lowest m-1 bits of the
    canonical order.  Ascending h, then r, gives ascending candidates.
    As h is fan-free, a fan in the candidate passes through vertex 0: it
    is centred at 0 or at a neighbour of 0 in the fan's color, and only
    those centers are searched.
    """
    width = m - 1
    full = (1 << m) - 1
    out = []
    for h in level:
        sub = Coloring.from_pair_bits(width, h)
        shifted = [sub.neighborhood(v, BLACK) << 1 for v in range(width)]
        base = h << width
        for r in range(1 << width):
            black0 = r << 1
            c = Coloring._raw(
                m, (black0, *[row | r >> v & 1 for v, row in enumerate(shifted)])
            )
            if (
                find_mono_fan(c, BLACK, n, centers=1 | black0) is None
                and find_mono_fan(c, WHITE, n, centers=full ^ black0) is None
            ):
                out.append(base | r)
    return out


def bipartite_lower_bound(n: int) -> Coloring:
    """The 4n-vertex coloring with no monochromatic fan of n blades:
    black across the two halves, white inside them.

    The black graph is bipartite (triangle-free, so no black fan) and the
    white graph splits into two cliques of 2n vertices, one short of the
    2n+1 a fan needs.
    """
    if n < 1:
        raise PreconditionViolated(f"fan parameter must be >= 1, got {n}")
    N = 4 * n
    half = (1 << 2 * n) - 1
    return Coloring._raw(N, (half << 2 * n,) * (2 * n) + (half,) * (2 * n))


def random_coloring(N: int, seed: int, p_black: float) -> Coloring:
    """Independent pair colors, black with probability p_black.

    One SplitMix64 draw per pair in canonical order; fully determined by
    (N, seed, p_black).
    """
    if not 0.0 <= p_black <= 1.0:
        raise PreconditionViolated(f"p_black={p_black} outside [0, 1]")
    if N < 1:
        raise PreconditionViolated(f"need at least one vertex, got N={N}")
    rng = SplitMix64(seed)
    rows = [0] * N
    for u in range(N):
        for v in range(u + 1, N):
            if rng.next_float() < p_black:
                rows[u] |= 1 << v
    return Coloring._from_triangle(N, rows)


ADVERSARIAL_KINDS = ("bipartite_blowup", "pentagon_blowup", "clique_plus_noise")

_BIPARTITE_FLIP = 0.05
_PENTAGON_INSIDE = 0.10
_CLIQUE_NOISE = 0.50


def adversarial_coloring(kind: str, N: int, seed: int) -> Coloring:
    """Structured stress colorings with seeded perturbation.

    bipartite_blowup: black across two near-equal halves, every pair then
    flipped with probability 0.05.  pentagon_blowup: five near-equal
    parts, black exactly between cyclically adjacent parts, pairs inside
    a part black with probability 0.10.  clique_plus_noise: pairs inside
    the first ceil(7N/12) vertices always black, the rest fair coin.  One
    draw per pair in canonical order regardless of whether the pair is
    forced, so structure never shifts the stream.
    """
    if N < 5:
        raise PreconditionViolated(f"adversarial colorings need N >= 5, got {N}")
    if kind not in ADVERSARIAL_KINDS:
        raise PreconditionViolated(f"unknown adversarial kind {kind!r}")
    rng = SplitMix64(seed)
    rows = [0] * N

    if kind == "bipartite_blowup":
        half = (N + 1) // 2

        def black(u, v, roll):
            return ((u < half) != (v < half)) != (roll < _BIPARTITE_FLIP)

    elif kind == "pentagon_blowup":
        size, extra = divmod(N, 5)
        part = [i for i in range(5) for _ in range(size + (i < extra))]

        def black(u, v, roll):
            pu, pv = part[u], part[v]
            if pu == pv:
                return roll < _PENTAGON_INSIDE
            return (pu - pv) % 5 in (1, 4)

    else:
        planted = -(-7 * N // 12)

        def black(u, v, roll):
            return (u < planted and v < planted) or roll < _CLIQUE_NOISE

    for u in range(N):
        for v in range(u + 1, N):
            roll = rng.next_float()
            if black(u, v, roll):
                rows[u] |= 1 << v
    return Coloring._from_triangle(N, rows)
