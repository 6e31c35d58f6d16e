"""Independent reference implementations used as test oracles.

Nothing here shares code with the package's search algorithms: matchings
are found by exhaustive recursion over vertex masks, deficiencies by
subset dynamic programming, fans and cliques by direct enumeration, and
seeded colorings by deciding one pair per SplitMix64 draw.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from fanram.bitset import bit_list, bits, lowest
from fanram.coloring import BLACK, WHITE, Coloring
from fanram.rng import SplitMix64


def brute_max_matching(c: Coloring, col, scope: int) -> int:
    @lru_cache(maxsize=None)
    def rec(mask: int) -> int:
        if not mask:
            return 0
        v = lowest(mask)
        rest = mask ^ (1 << v)
        best = rec(rest)
        for u in bits(c.neighborhood(v, col) & rest):
            best = max(best, 1 + rec(rest ^ (1 << u)))
        return best

    return rec(scope)


def brute_max_bipartite(c: Coloring, col, X: int, Y: int) -> int:
    xs = bit_list(X)

    def rec(i: int, avail_y: int) -> int:
        if i == len(xs):
            return 0
        best = rec(i + 1, avail_y)
        for y in bits(c.neighborhood(xs[i], col) & avail_y):
            best = max(best, 1 + rec(i + 1, avail_y ^ (1 << y)))
        return best

    return rec(0, Y)


def brute_max_deficiency(c: Coloring, col, X: int, Y: int) -> int:
    xs = bit_list(X)
    masks = [c.neighborhood(v, col) & Y for v in xs]
    best = 0
    nbr = [0] * (1 << len(xs))
    for S in range(1, 1 << len(xs)):
        low = S & -S
        nbr[S] = nbr[S ^ low] | masks[low.bit_length() - 1]
        best = max(best, S.bit_count() - nbr[S].bit_count())
    return best


def brute_fan_exists(
    c: Coloring, col, n: int, scope: int | None = None, *, centers: int | None = None
) -> bool:
    if scope is None:
        scope = c.vertex_mask
    if centers is None:
        centers = scope
    for v in bits(scope & centers):
        nb = c.neighborhood(v, col) & scope
        if nb.bit_count() >= 2 * n and brute_max_matching(c, col, nb) >= n:
            return True
    return False


def brute_fan_exists_enumerated(c: Coloring, col, n: int) -> bool:
    """Fully literal enumeration over centers and blade sets; slow, only
    for tiny instances."""
    verts = range(c.N)
    for center in verts:
        nb = [v for v in verts if v != center and c.pair_color(center, v) is col]
        for chosen in combinations(nb, 2 * n):
            if _has_perfect_mono_matching(c, col, list(chosen)):
                return True
    return False


def _has_perfect_mono_matching(c: Coloring, col, verts: list[int]) -> bool:
    if not verts:
        return True
    a = verts[0]
    for i in range(1, len(verts)):
        b = verts[i]
        if c.pair_color(a, b) is col:
            rest = verts[1:i] + verts[i + 1 :]
            if _has_perfect_mono_matching(c, col, rest):
                return True
    return False


def brute_clique_exists(c: Coloring, col, size: int, scope: int) -> bool:
    verts = bit_list(scope)
    if len(verts) < size:
        return False
    for chosen in combinations(verts, size):
        if all(
            c.pair_color(u, v) is col for u, v in combinations(chosen, 2)
        ):
            return True
    return False


def _per_pair(N: int, seed: int, black) -> Coloring:
    """Pair (u, v) is black iff black(u, v, roll), where roll is the next
    draw, one per pair in canonical order."""
    rng = SplitMix64(seed)
    return Coloring.from_pair_list(
        N,
        [
            (u, v, BLACK if black(u, v, rng.next_float()) else WHITE)
            for u in range(N)
            for v in range(u + 1, N)
        ],
    )


def brute_random_coloring(N: int, seed: int, p: float) -> Coloring:
    return _per_pair(N, seed, lambda u, v, roll: roll < p)


def brute_adversarial_coloring(kind: str, N: int, seed: int) -> Coloring:
    if kind == "bipartite_blowup":
        # black across the first ceil(N/2) vertices and the rest, each pair
        # flipped with probability 0.05
        half = (N + 1) // 2
        return _per_pair(
            N, seed, lambda u, v, roll: ((u < half) != (v < half)) != (roll < 0.05)
        )
    if kind == "pentagon_blowup":
        # five consecutive parts, the first N mod 5 one vertex larger; black
        # between cyclically adjacent parts, with probability 0.10 inside one
        size, extra = divmod(N, 5)
        part = [i for i in range(5) for _ in range(size + (i < extra))]
        return _per_pair(
            N,
            seed,
            lambda u, v, roll: (
                roll < 0.10
                if part[u] == part[v]
                else (part[u] - part[v]) % 5 in (1, 4)
            ),
        )
    assert kind == "clique_plus_noise"
    # a black clique on the first ceil(7N/12) vertices, the rest a fair coin
    planted = -(-7 * N // 12)
    return _per_pair(
        N, seed, lambda u, v, roll: u < planted and v < planted or roll < 0.5
    )
