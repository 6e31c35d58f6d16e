"""Matchings inside color-induced subgraphs, with deficiency certificates.

All entry points take a coloring, the color whose pairs count as edges, and
bitmask vertex sets, and read neighbourhoods straight off the coloring's
masks.  Tie-breaking is lexicographic everywhere, so results are
reproducible: greedy matchings repeatedly take the smallest available edge,
and search orders are by ascending vertex index.

The general maximum matching starts from the greedy one and augments along
blossom paths (Edmonds 1965) only when the greedy matching falls short.
The bipartite maximum matching is Hopcroft-Karp (1973).  The Hall violator
of maximum deficiency is read off a maximum bipartite matching the caller
already holds, by one alternating search, so no instance is solved twice.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .bitset import bit_list, bits, lowest, mask_of
from .coloring import Color, Coloring
from .errors import InternalError, PreconditionViolated


@dataclass(frozen=True)
class Matching:
    """Vertex-disjoint pairs, all of one color."""

    color: Color
    edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.edges)

    def vertex_mask(self) -> int:
        return mask_of(v for edge in self.edges for v in edge)


def _closure(c: Coloring, col: Color, S: int) -> int:
    """All vertices joined to some member of S by a col pair."""
    out = 0
    for v in bits(S):
        out |= c.neighborhood(v, col)
    return out


def _checked_scope(c: Coloring, scope: int) -> None:
    if scope & ~c.vertex_mask:
        raise PreconditionViolated("scope contains out-of-range vertices")


def _checked_sides(c: Coloring, X: int, Y: int) -> None:
    _checked_scope(c, X | Y)
    if X & Y:
        raise PreconditionViolated("bipartition sides overlap")


def greedy_maximal_matching(c: Coloring, col: Color, scope: int) -> Matching:
    """Maximal matching by repeatedly taking the smallest available edge."""
    _checked_scope(c, scope)
    edges = []
    avail = scope
    while avail:
        v = lowest(avail)
        avail ^= 1 << v
        cand = c.neighborhood(v, col) & avail
        if cand:
            u = lowest(cand)
            avail ^= 1 << u
            edges.append((v, u))
    return Matching(col, tuple(edges))


def greedy_bipartite_matching(c: Coloring, col: Color, X: int, Y: int) -> Matching:
    """Maximal (not maximum) X-Y matching: each X vertex in ascending order
    takes its lowest free Y neighbour.  Edges are (x, y) pairs in X order."""
    _checked_sides(c, X, Y)
    edges = []
    avail = Y
    for x in bits(X):
        cand = c.neighborhood(x, col) & avail
        if cand:
            y = lowest(cand)
            avail ^= 1 << y
            edges.append((x, y))
    return Matching(col, tuple(edges))


def maximum_matching_general(
    c: Coloring, col: Color, scope: int, *, stop_at: int | None = None
) -> Matching:
    """Maximum matching of the color-induced graph on scope.

    With stop_at=k the search ends as soon as k edges are matched; the
    returned matching is then maximum if smaller than k.  The greedy
    maximal matching is returned unchanged when it already has k edges;
    otherwise it seeds an augmenting-path search with blossom contraction,
    O(V^3).
    """
    greedy = greedy_maximal_matching(c, col, scope)
    size = greedy.size
    if stop_at is not None and size >= stop_at:
        return greedy
    verts = bit_list(scope)
    N = c.N
    match = [-1] * N
    for u, v in greedy.edges:
        match[u] = v
        match[v] = u
    p = [-1] * N
    base = list(range(N))

    def lca(a: int, b: int) -> int:
        seen = [False] * N
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
        nonlocal p, base
        used = [False] * N
        p = [-1] * N
        base = list(range(N))
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in bits(c.neighborhood(v, col) & scope):
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(v, to)
                    blossom = [False] * N
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    for i in verts:
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        while to != -1:
                            pv = p[to]
                            ppv = match[pv]
                            match[to] = pv
                            match[pv] = to
                            to = ppv
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    for v in verts:
        if stop_at is not None and size >= stop_at:
            break
        if match[v] == -1 and find_path(v):
            size += 1
    return Matching(col, tuple((v, match[v]) for v in verts if v < match[v]))


def bipartite_maximum_matching(
    c: Coloring, col: Color, X: int, Y: int
) -> Matching:
    """Maximum matching using only col-colored X-Y pairs (Hopcroft-Karp).

    Edges are ordered by their X endpoint, each written low vertex first.
    """
    _checked_sides(c, X, Y)
    xs = bit_list(X)
    mate = [-1] * c.N
    INF = float("inf")
    dist = [INF] * c.N

    def bfs() -> bool:
        q = deque()
        for x in xs:
            if mate[x] == -1:
                dist[x] = 0
                q.append(x)
            else:
                dist[x] = INF
        reachable_free = False
        while q:
            x = q.popleft()
            for y in bits(c.neighborhood(x, col) & Y):
                x2 = mate[y]
                if x2 == -1:
                    reachable_free = True
                elif dist[x2] == INF:
                    dist[x2] = dist[x] + 1
                    q.append(x2)
        return reachable_free

    def dfs(x: int) -> bool:
        for y in bits(c.neighborhood(x, col) & Y):
            x2 = mate[y]
            if x2 == -1 or (dist[x2] == dist[x] + 1 and dfs(x2)):
                mate[x] = y
                mate[y] = x
                return True
        dist[x] = INF
        return False

    while bfs():
        for x in xs:
            if mate[x] == -1:
                dfs(x)
    edges = tuple(
        (x, y) if x < y else (y, x) for x in xs if (y := mate[x]) != -1
    )
    return Matching(col, edges)


@dataclass(frozen=True)
class DeficiencyCertificate:
    """A set S in the X side together with N(S) in the Y side.

    deficiency = |S| - |N(S)|.  For the certificate produced by
    max_deficiency_certificate this equals |X| - (maximum matching size),
    the largest deficiency over all subsets of X.
    """

    S: int
    NS: int
    deficiency: int


def max_deficiency_certificate(
    c: Coloring, mp: Matching, X: int, Y: int
) -> DeficiencyCertificate:
    """Hall violator of maximum deficiency, from a maximum X-Y matching mp
    in the color mp.color.

    S is the set of X-vertices reachable by alternating paths from the
    X-vertices mp leaves unmatched; that set is the same for every maximum
    matching, so S and N(S) do not depend on which one mp is.  S is empty
    exactly when mp matches all of X (deficiency 0).
    """
    _checked_sides(c, X, Y)
    col = mp.color
    mate = [-1] * c.N
    for a, b in mp.edges:
        x, y = (a, b) if X >> a & 1 else (b, a)
        if not (X >> x & 1 and Y >> y & 1 and c.neighborhood(x, col) >> y & 1):
            raise PreconditionViolated(f"matching edge {a},{b} is not an X-Y edge")
        mate[y] = x
    S = frontier = X & ~mp.vertex_mask()
    NS = 0
    while frontier:
        reach = _closure(c, col, frontier) & Y & ~NS
        NS |= reach
        frontier = 0
        for y in bits(reach):
            if mate[y] == -1:
                raise PreconditionViolated(
                    "alternating path reaches a free Y vertex: matching not maximum"
                )
            frontier |= 1 << mate[y]
        S |= frontier
    deficiency = S.bit_count() - NS.bit_count()
    if deficiency != X.bit_count() - mp.size:
        raise InternalError("deficiency certificate disagrees with matching size")
    return DeficiencyCertificate(S=S, NS=NS, deficiency=deficiency)
