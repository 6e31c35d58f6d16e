"""Matchings inside color-induced subgraphs, with deficiency certificates.

All entry points take a coloring, the color whose pairs count as edges, and
bitmask vertex sets, and read neighbourhoods straight off the coloring's
masks.  Tie-breaking is lexicographic everywhere, so results are
reproducible: greedy matchings repeatedly take the smallest available edge,
and search orders are by ascending vertex index.

The general maximum matching starts from the greedy one and augments along
blossom paths (Edmonds 1965) only when the greedy matching falls short;
with stop_at=k it is the one test for a k-edge matching.  Its search keeps
the visited, ancestor and blossom vertex sets as bitmasks too; only the
mate, parent and base maps are per-vertex lists.
The bipartite maximum matching and the Hall violator of maximum deficiency
are two readings of one alternating search: the matching grows the greedy
one along its augmenting paths, and the violator is read off a maximum
matching the caller already holds, so no instance is solved twice.
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

    With stop_at=k it answers whether scope holds a k-edge matching: with
    exactly k edges when one exists, with fewer when none does.  A greedy
    maximal matching of k or more edges answers with its first k; one of
    fewer than k/2 is returned unchanged, as a maximum matching has at most
    twice the edges of a maximal one.  Otherwise the greedy matching seeds
    an augmenting-path search with blossom contraction, O(V^3), that stops
    at k edges.  A negative stop_at is a PreconditionViolated.
    """
    if stop_at is not None and stop_at < 0:
        raise PreconditionViolated(f"stop_at must be >= 0, got {stop_at}")
    greedy = greedy_maximal_matching(c, col, scope)
    size = greedy.size
    if stop_at is not None:
        if size >= stop_at:
            return Matching(col, greedy.edges[:stop_at])
        if 2 * size < stop_at:
            return greedy
    verts = bit_list(scope)
    N = c.N
    match = [-1] * N
    for u, v in greedy.edges:
        match[u] = v
        match[v] = u
    p = base = []  # find_path rebinds both for each root

    def lca(a: int, b: int) -> int:
        seen = 0
        while True:
            a = base[a]
            seen |= 1 << a
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if seen >> b & 1:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int) -> int:
        blossom = 0
        while base[v] != b:
            blossom |= 1 << base[v] | 1 << base[match[v]]
            p[v] = child
            child = match[v]
            v = p[match[v]]
        return blossom

    def find_path(root: int) -> bool:
        nonlocal p, base
        used = 1 << root
        p = [-1] * N
        base = list(range(N))
        q = deque([root])
        while q:
            v = q.popleft()
            for to in bits(c.neighborhood(v, col) & scope):
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(v, to)
                    blossom = mark_path(v, curbase, to) | mark_path(to, curbase, v)
                    for i in verts:
                        if blossom >> base[i] & 1:
                            base[i] = curbase
                            if not used >> i & 1:
                                used |= 1 << i
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        while to != -1:
                            pv = p[to]
                            match[to], match[pv], to = pv, to, match[pv]
                        return True
                    used |= 1 << match[to]
                    q.append(match[to])
        return False

    for v in verts:
        if stop_at is not None and size >= stop_at:
            break
        if match[v] == -1 and find_path(v):
            size += 1
    return Matching(col, tuple((v, match[v]) for v in verts if v < match[v]))


def _alternating_layers(
    c: Coloring, col: Color, mate: list[int], xs: int, Y: int
) -> tuple[list[tuple[int, int]], int]:
    """Breadth-first alternating search from the X vertices xs: each Y layer
    is the unseen col neighbours in Y of its X layer, and the next X layer
    the mates of that Y layer.  Returns the (X, Y) layers and the mateless
    vertices of the last Y layer, where the search stops (0 if it ran dry).
    """
    layers = []
    seen = 0
    while xs:
        ys = _closure(c, col, xs) & Y & ~seen
        seen |= ys
        layers.append((xs, ys))
        ends = xs = 0
        for y in bits(ys):
            if mate[y] == -1:
                ends |= 1 << y
            else:
                xs |= 1 << mate[y]
        if ends:
            return layers, ends
    return layers, 0


def bipartite_maximum_matching(c: Coloring, col: Color, X: int, Y: int) -> Matching:
    """Maximum matching using only col-colored X-Y pairs.

    Grows greedy_bipartite_matching: while the alternating search from the
    unmatched X vertices ends at an unmatched y (the lowest), walk back
    through its layers, in each taking the lowest X vertex adjacent to y,
    and swap mates along that shortest augmenting path.  Once the search
    runs dry no augmenting path is left, so the matching is maximum (Berge).
    Edges are ordered by their X endpoint, each written low vertex first.
    """
    greedy = greedy_bipartite_matching(c, col, X, Y)
    mate = [-1] * c.N
    for x, y in greedy.edges:
        mate[x], mate[y] = y, x
    free = X & ~greedy.vertex_mask()
    while free:
        layers, ends = _alternating_layers(c, col, mate, free, Y)
        if not ends:
            break
        y = lowest(ends)
        for xs, _ in reversed(layers):
            x = lowest(xs & c.neighborhood(y, col))
            mate[y], mate[x], y = x, y, mate[x]  # y moves on to x's old mate
        free ^= 1 << x
    edges = tuple(
        (x, y) if x < y else (y, x) for x in bits(X) if (y := mate[x]) != -1
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
    layers, ends = _alternating_layers(c, col, mate, X & ~mp.vertex_mask(), Y)
    if ends:
        raise PreconditionViolated(
            "alternating path reaches a free Y vertex: matching not maximum"
        )
    S = NS = 0
    for xs, ys in layers:
        S |= xs
        NS |= ys
    deficiency = S.bit_count() - NS.bit_count()
    if deficiency != X.bit_count() - mp.size:
        raise InternalError("deficiency certificate disagrees with matching size")
    return DeficiencyCertificate(S=S, NS=NS, deficiency=deficiency)
