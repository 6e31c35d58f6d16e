"""Ground truth at desk scale: exhaustive enumeration, known-value checks,
lower-bound constructions, and seeded generators.

Exhaustive enumeration walks colorings by their pair-bit encodings in
ascending order (bit k of the counter is pair k of the canonical order),
so runs are deterministic.

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


def enumerate_colorings(N: int, visitor) -> EnumerationReport:
    """Invoke visitor(coloring) once per coloring of K_N, in ascending
    pair-bit order."""
    if N > MAX_EXHAUSTIVE_N:
        raise PreconditionViolated(
            f"exhaustive enumeration capped at N={MAX_EXHAUSTIVE_N}, got {N}"
        )
    if N < 1:
        raise PreconditionViolated(f"need at least one vertex, got N={N}")
    total = 1 << N * (N - 1) // 2
    for bits_value in range(total):
        visitor(Coloring.from_pair_bits(N, bits_value))
    return EnumerationReport(N=N, n=None, total=total, all_contain=False)


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


def _cross_rows(N: int, k: int) -> tuple[int, ...]:
    """Rows of the complete bipartite graph between [0, k) and [k, N)."""
    low = (1 << k) - 1
    high = (1 << N) - 1 ^ low
    return (high,) * k + (low,) * (N - k)


def bipartite_lower_bound(n: int) -> Coloring:
    """The 4n-vertex coloring with no monochromatic fan of n blades:
    black across the two halves, white inside them.

    The black graph is bipartite (triangle-free, so no black fan) and the
    white graph splits into two cliques of 2n vertices, one short of the
    2n+1 a fan needs.
    """
    if n < 1:
        raise PreconditionViolated(f"fan parameter must be >= 1, got {n}")
    return Coloring._raw(4 * n, _cross_rows(4 * n, 2 * n))


def _draws(N: int, seed: int, p: float) -> int:
    """Pair bits of one SplitMix64 draw per pair in canonical order: bit k
    is set iff draw k's next_float() is below p."""
    next_float = SplitMix64(seed).next_float
    digits = ["1" if next_float() < p else "0" for _ in range(N * (N - 1) // 2)]
    digits.reverse()
    return int("0" + "".join(digits), 2)


def random_coloring(N: int, seed: int, p_black: float) -> Coloring:
    """Independent pair colors, black with probability p_black.

    The black pairs are the pair bits of _draws: one SplitMix64 draw per
    pair in canonical order, so the coloring is fully determined by
    (N, seed, p_black).
    """
    if not 0.0 <= p_black <= 1.0:
        raise PreconditionViolated(f"p_black={p_black} outside [0, 1]")
    if N < 1:
        raise PreconditionViolated(f"need at least one vertex, got N={N}")
    return Coloring.from_pair_bits(N, _draws(N, seed, p_black))


# each adversarial kind and the probability its draws are taken at
_DRAW_P = {
    "bipartite_blowup": 0.05,
    "pentagon_blowup": 0.10,
    "clique_plus_noise": 0.50,
}
ADVERSARIAL_KINDS = tuple(_DRAW_P)


def adversarial_coloring(kind: str, N: int, seed: int) -> Coloring:
    """Structured stress colorings with seeded perturbation.

    Each kind is its structure rows combined with the rows of _draws at
    the kind's probability.  bipartite_blowup: black across two
    near-equal halves (the first ceil(N/2) vertices and the rest), XOR
    draws(0.05), so every pair flips with probability 0.05.
    pentagon_blowup: five near-equal consecutive parts, black exactly
    between cyclically adjacent parts, OR draws(0.10) inside a part.
    clique_plus_noise: the first ceil(7N/12) vertices form a black clique,
    OR draws(0.5).  Every pair takes one draw in canonical order whether
    or not the structure forces it, so structure never shifts the stream.
    """
    if N < 5:
        raise PreconditionViolated(f"adversarial colorings need N >= 5, got {N}")
    if kind not in _DRAW_P:
        raise PreconditionViolated(f"unknown adversarial kind {kind!r}")
    draws = Coloring.from_pair_bits(N, _draws(N, seed, _DRAW_P[kind]))._black

    if kind == "bipartite_blowup":
        rows = [c ^ d for c, d in zip(_cross_rows(N, (N + 1) // 2), draws)]
    elif kind == "pentagon_blowup":
        size, extra = divmod(N, 5)
        part = [i for i in range(5) for _ in range(size + (i < extra))]
        own = [0] * 5
        for v, i in enumerate(part):
            own[i] |= 1 << v
        rows = [
            own[i - 1] | own[(i + 1) % 5] | own[i] & d for i, d in zip(part, draws)
        ]
    else:
        planted = -(-7 * N // 12)
        clique = (1 << planted) - 1
        rows = [
            (clique ^ 1 << v if v < planted else 0) | d for v, d in enumerate(draws)
        ]
    return Coloring._raw(N, tuple(rows))
