"""Benchmark-owned inputs and independent checks.

The two gadget constructions are frozen copies of the ones the test suite
uses, so an edit to the tests cannot shift a workload.  The graph6 writer
and the literal fan check exist because the package has no graph6 writer
and the oracle's fan-free answers must be re-checked by code that does
not share `find_mono_fan`.
"""

from __future__ import annotations

from itertools import combinations

from fanram.coloring import BLACK, Coloring
from fanram.structures import CliqueWitness


def cover_gadget(groups: int, group_size: int, blob: int, n: int):
    """A black clique whose greedy cover has length exactly `groups`.

    The clique consists of `groups` contiguous groups of `group_size`
    vertices.  Each clique vertex owns a private blob of `blob` extra
    vertices joined in black to every member of its group and to nothing
    else; the blob zone is white inside.  Every shadow construction then
    fails its fan attempt and the greedy cover picks one vertex per group.
    n is accepted for a uniform signature with the cover call.
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
    return Coloring(N, tuple(adj)), CliqueWitness(BLACK, (1 << a_size) - 1)


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


def graph6_of(c: Coloring) -> str:
    """Standard graph6 text of the black graph (N < 258048)."""
    N = c.N
    head = [N] if N < 63 else [63, N >> 12 & 63, N >> 6 & 63, N & 63]
    bitstream = []
    for v in range(1, N):
        row = c.neighborhood(v, BLACK)
        bitstream.extend(row >> u & 1 for u in range(v))
    bitstream.extend([0] * (-len(bitstream) % 6))
    body = [
        int("".join(map(str, bitstream[i : i + 6])), 2)
        for i in range(0, len(bitstream), 6)
    ]
    return "".join(chr(63 + x) for x in head + body) + "\n"


def literal_has_fan(text: str, blades: int) -> bool:
    """Does the coloring in `p 2col N` text hold a monochromatic fan?

    Parses the text itself and enumerates every center and every set of
    `blades` candidate blades; meant for the oracle's tiny examples only.
    """
    tokens = text.split()
    if tokens[:2] != ["p", "2col"]:
        raise ValueError(f"not a 2col text: {text[:20]!r}")
    N = int(tokens[2])
    flat = "".join(tokens[3:])
    if len(flat) != N * (N - 1) // 2 or set(flat) - set("BW"):
        raise ValueError(f"bad 2col body for N={N}")
    color = {}
    k = 0
    for u in range(N):
        for v in range(u + 1, N):
            color[u, v] = color[v, u] = flat[k]
            k += 1
    for col in "BW":
        for z in range(N):
            others = [v for v in range(N) if v != z]
            options = [
                (a, b)
                for a, b in combinations(others, 2)
                if color[z, a] == color[z, b] == color[a, b] == col
            ]
            for chosen in combinations(options, blades):
                used = [v for blade in chosen for v in blade]
                if len(set(used)) == len(used):
                    return True
    return False
