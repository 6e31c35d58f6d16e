"""Independent reference implementations used as test oracles.

Nothing here shares code with the package's search algorithms: matchings
are found by exhaustive recursion over vertex masks, deficiencies by
subset dynamic programming, fans and cliques by direct enumeration,
seeded colorings by deciding one pair per SplitMix64 draw and setting
both rows of each black pair for the checked constructor, and graph6
text by writing one digit per pair.  reference_clique is the clique
search as it stood before its coloring bound, kept as the witness the
bounded search must reproduce.  reference_grow is the oracle's growth
step as it stood before its matching-number tables, two find_mono_fan
searches per candidate, kept as the levels the tables must reproduce.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from fanram.bitset import bit_list, bits, lowest
from fanram.coloring import BLACK, WHITE, Coloring
from fanram.rng import SplitMix64
from fanram.structures import find_mono_fan


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


def reference_clique(c: Coloring, col, size: int, scope: int) -> int | None:
    """First col-clique of `size` vertices in a depth-first search over a
    static degree-descending order, pruned only by counting candidates;
    its members as a mask, or None."""
    verts = bit_list(scope)
    if len(verts) < size:
        return None
    adj = {v: c.neighborhood(v, col) & scope for v in verts}
    order = sorted(verts, key=lambda v: (-adj[v].bit_count(), v))

    def expand(chosen: list[int], cand: int) -> list[int] | None:
        if len(chosen) >= size:
            return chosen
        for v in order:
            if not cand >> v & 1:
                continue
            if len(chosen) + cand.bit_count() < size:
                return None
            cand &= ~(1 << v)
            found = expand(chosen + [v], cand & adj[v])
            if found is not None:
                return found
        return None

    found = expand([], scope)
    return None if found is None else sum(1 << v for v in found)


def reference_grow(level: list[int], m: int, n: int) -> list[int]:
    """Pair bits of the fan-free colorings of K_m, ascending, from those
    of K_{m-1} (level, ascending): each h in level renumbered up by one,
    plus a new vertex 0 joined in black to the bits r of each candidate
    h << (m-1) | r.  As h is fan-free, a fan in the candidate is centred
    at 0 or at a neighbour of 0 in the fan's color, and only those
    centres are searched."""
    width = m - 1
    full = (1 << m) - 1
    pairs = [(u, v) for u in range(width) for v in range(u + 1, width)]
    out = []
    for h in level:
        sub = coloring_from_pairs(
            width,
            [(u, v, BLACK if h >> k & 1 else WHITE) for k, (u, v) in enumerate(pairs)],
        )
        shifted = [sub.neighborhood(v, BLACK) << 1 for v in range(width)]
        base = h << width
        for r in range(1 << width):
            black0 = r << 1
            c = Coloring(
                m, (black0, *[row | r >> v & 1 for v, row in enumerate(shifted)])
            )
            if (
                find_mono_fan(c, BLACK, n, centers=1 | black0) is None
                and find_mono_fan(c, WHITE, n, centers=full ^ black0) is None
            ):
                out.append(base | r)
    return out


def coloring_from_pairs(N: int, pairs) -> Coloring:
    """The coloring whose black pairs are the (u, v, BLACK) triples of
    pairs; every other pair is white.  Nothing is checked here: Coloring()
    checks the rows."""
    rows = [0] * N
    for u, v, color in pairs:
        if color is BLACK:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Coloring(N, tuple(rows))


def _per_pair(N: int, seed: int, black) -> Coloring:
    """Pair (u, v) is black iff black(u, v, roll), where roll is the next
    draw, one per pair in canonical order."""
    rng = SplitMix64(seed)
    return coloring_from_pairs(
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


def brute_graph6(N: int, black) -> str:
    """graph6 text of the graph on [0, N) whose edges are the pairs u < v
    with black(u, v): one digit per pair in column-major order, zero-padded
    to whole 6-digit characters, after the 1- or 4-character size prefix."""
    digits = "".join(
        "1" if black(u, v) else "0" for v in range(N) for u in range(v)
    )
    digits += "0" * (-len(digits) % 6)
    size = [N] if N < 63 else [63, N >> 12, N >> 6 & 63, N & 63]
    chunks = [int(digits[i : i + 6], 2) for i in range(0, len(digits), 6)]
    return "".join(chr(63 + value) for value in size + chunks)
