"""Deterministic colorings engineered to reach specific code paths."""

from __future__ import annotations

from fanram.bitset import mask_of
from fanram.coloring import BLACK, Coloring
from fanram.extractor import min_order
from fanram.structures import CliqueWitness


def cover_gadget(groups: int, group_size: int, blob: int, n: int):
    """A black clique whose greedy cover has length exactly `groups`.

    The clique A consists of `groups` contiguous groups of `group_size`
    vertices.  Each clique vertex m owns a private blob of `blob` extra
    vertices joined in black to every member of m's group and to nothing
    else; the blob zone is white inside.  Every shadow construction then
    fails its fan attempt, the shadow of v lies in v's group blobs,
    and the contact set of v is exactly v's group, so the greedy cover
    picks one representative per group.

    Parameter constraints for the shadow records to exist:
    degree  (groups*group_size - 1) + group_size*blob > 2n, the fan
    attempt count group_size - 1 + (groups-1)*group_size // 2 < n, and
    2n >= groups*group_size + group_size - 1.
    """
    a_size = groups * group_size
    N = a_size + a_size * blob
    adj = [0] * N

    def join(u, v):
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    for u in range(a_size):
        for v in range(u + 1, a_size):
            join(u, v)
    for m in range(a_size):
        grp = m // group_size
        for j in range(blob):
            x = a_size + m * blob + j
            for u in range(grp * group_size, (grp + 1) * group_size):
                join(x, u)
    c = Coloring(N, tuple(adj))
    return c, CliqueWitness(BLACK, (1 << a_size) - 1)


def circulant(N: int, offsets) -> Coloring:
    """Black exactly between vertices at a cyclic distance in offsets."""
    offs = set()
    for s in offsets:
        offs.add(s % N)
        offs.add(-s % N)
    offs.discard(0)
    adj = [0] * N
    for v in range(N):
        for s in offs:
            adj[v] |= 1 << ((v + s) % N)
    return Coloring(N, tuple(adj))


def blocker_fixture(s1_size: int, cross_black: bool, s2_size: int | None = None, t_size: int = 10):
    """Hand-built coloring for the blocker and residue constructions.

    A black triangle {0,1,2} plays the covered clique with v3 = 2; two
    white cliques S1, S2 sit inside the white neighborhood of vertex 2
    along with a black t_size-clique T whose pairs into the shadows are
    all black (empty white boundary).  Every other vertex is
    black-adjacent to 2 so the white neighborhood is exactly S1 u S2 u T.
    cross_black=True makes every S1-S2 pair black, which forces the
    residue carving to come out empty.
    """
    if s2_size is None:
        s2_size = s1_size
    s1 = list(range(10, 10 + s1_size))
    s2 = list(range(10 + s1_size, 10 + s1_size + s2_size))
    t = list(range(10 + s1_size + s2_size, 10 + s1_size + s2_size + t_size))
    N = 10 + s1_size + s2_size + t_size
    white_to_2 = set(s1) | set(s2) | set(t)
    adj = [0] * N

    def join(u, v):
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    for u in (0, 1, 2):
        for v in (0, 1, 2):
            if u < v:
                join(u, v)
    for v in range(3, N):
        if v not in white_to_2:
            join(2, v)
    for i, u in enumerate(t):
        for v in t[i + 1 :]:
            join(u, v)
    for u in t:
        for v in s1 + s2:
            join(u, v)
    if cross_black:
        for u in s1:
            for v in s2:
                join(u, v)
    c = Coloring(N, tuple(adj))
    return c, mask_of(s1), mask_of(s2), mask_of(t)


def split_fixture(n: int, d: int) -> Coloring:
    """A coloring of K_N, N = min_order(n), whose faithful extraction finds
    the black clique of find_unavoidable_structure (needs d <= 3n - 1).

    Vertex 0 plays w.  Its black neighbourhood H = 1..d splits into a black
    clique X = 1..n-1, black to w and to all of Y, and a white clique
    Y = n..d, black to w.  The rest R = d+1..N-1 is white to w and to X.
    Each Y vertex takes d - n black neighbours in R, handed out round-robin,
    and R carries a black circulant of degree k = d - 1 - floor(E / |R|)
    for the E pairs between Y and R (offsets 1..k//2, plus the antipodal
    matching when k is odd).  When k is odd and |R| is too, the first few Y
    vertices take one neighbour fewer, so that E drops to the multiple of
    |R| below it and k turns even.  So every black degree is d - 1 or d,
    and context_of picks (0, BLACK) with degree d.
    """
    N = min_order(n)
    R = range(d + 1, N)
    Y = range(n, d + 1)
    E = len(Y) * (d - n)
    if (d - 1 - E // len(R)) % 2 and len(R) % 2:
        E -= E % len(R) + 1
    short = len(Y) * (d - n) - E
    if short > len(Y):
        raise ValueError(f"no parity fix for n={n}, d={d}")
    k = d - 1 - E // len(R)
    adj = [0] * N

    def join(u, v):
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    for u in range(1, d + 1):
        join(0, u)
        for v in range(1, min(u, n)):
            join(u, v)  # u's pairs to the X vertices below it
    slot = 0
    for i, y in enumerate(Y):
        for _ in range(d - n - (i < short)):
            join(y, R[slot % len(R)])
            slot += 1
    offsets = list(range(1, k // 2 + 1))
    if k % 2:
        offsets.append(len(R) // 2)  # the antipodal matching
    ring = circulant(len(R), offsets)
    for i, u in enumerate(R):
        adj[u] |= ring.neighborhood(i, BLACK) << R[0]
    return Coloring(N, tuple(adj))
