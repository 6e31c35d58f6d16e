import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bruteforce import (
    brute_max_bipartite,
    brute_max_deficiency,
    brute_max_matching,
    coloring_from_pairs,
)
from fanram.bitset import bits, mask_of
from fanram.coloring import BLACK, WHITE, Coloring
from fanram.errors import PreconditionViolated
from fanram.matching import (
    Matching,
    bipartite_maximum_matching,
    greedy_bipartite_matching,
    greedy_maximal_matching,
    max_deficiency_certificate,
    maximum_matching_general,
)
from fanram.oracle import random_coloring
from test_coloring import colorings


def _pentagon():
    edges = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    pairs = [
        (u, v, BLACK if (u, v) in edges else WHITE)
        for u in range(5)
        for v in range(u + 1, 5)
    ]
    return coloring_from_pairs(5, pairs)


def test_greedy_all_black_k4():
    m = greedy_maximal_matching(Coloring.complete(4, BLACK), BLACK, 0b1111)
    assert m.edges == ((0, 1), (2, 3))


def test_greedy_empty_when_no_edges():
    c = Coloring.complete(4, WHITE)
    m = greedy_maximal_matching(c, BLACK, 0b1111)
    assert m.edges == ()
    # the unmatched scope is then complete in the other color
    rest = 0b1111 & ~m.vertex_mask()
    for u in bits(rest):
        assert c.neighborhood(u, WHITE) & rest & ~(1 << u) == rest & ~(1 << u)


@given(colorings(min_n=2, max_n=12))
def test_greedy_is_maximal(c):
    scope = c.vertex_mask
    m = greedy_maximal_matching(c, BLACK, scope)
    rest = scope & ~m.vertex_mask()
    for u in bits(rest):
        assert c.neighborhood(u, BLACK) & rest & ~(1 << u) == 0


def test_greedy_takes_lexicographically_smallest_edges():
    pairs = [(1, 2), (0, 9)]
    cols = [
        (u, v, BLACK if (u, v) in pairs else WHITE)
        for u in range(10)
        for v in range(u + 1, 10)
    ]
    c = coloring_from_pairs(10, cols)
    m = greedy_maximal_matching(c, BLACK, c.vertex_mask)
    assert m.edges == ((0, 9), (1, 2))


def test_maximum_pentagon():
    assert maximum_matching_general(_pentagon(), BLACK, 0b11111).size == 2


def test_maximum_all_black_k4():
    assert maximum_matching_general(Coloring.complete(4, BLACK), BLACK, 0b1111).size == 2


@given(colorings(min_n=1, max_n=10))
def test_maximum_matches_bruteforce(c):
    scope = c.vertex_mask
    got = maximum_matching_general(c, BLACK, scope)
    assert got.size == brute_max_matching(c, BLACK, scope)


def test_maximum_matches_bruteforce_seeded():
    for seed in range(60):
        c = random_coloring(9, seed, 0.35 + 0.05 * (seed % 7))
        got = maximum_matching_general(c, BLACK, c.vertex_mask).size
        assert got == brute_max_matching(c, BLACK, c.vertex_mask)


def test_maximum_matches_networkx_on_larger_graphs():
    for seed in range(25):
        c = random_coloring(22, seed, 0.3 + 0.02 * seed)
        g = nx.Graph()
        g.add_nodes_from(range(c.N))
        for u in range(c.N):
            for v in range(u + 1, c.N):
                if c.pair_color(u, v) is BLACK:
                    g.add_edge(u, v)
        expect = len(nx.max_weight_matching(g, maxcardinality=True))
        assert maximum_matching_general(c, BLACK, c.vertex_mask).size == expect


def _from_edges(N, edges):
    es = {(min(u, v), max(u, v)) for u, v in edges}
    pairs = [
        (u, v, BLACK if (u, v) in es else WHITE)
        for u in range(N)
        for v in range(u + 1, N)
    ]
    return coloring_from_pairs(N, pairs)


def test_maximum_on_blossom_structures():
    # odd cycles force contractions
    for k in (5, 7, 9, 11):
        cyc = _from_edges(k, [(i, (i + 1) % k) for i in range(k)])
        assert maximum_matching_general(cyc, BLACK, cyc.vertex_mask).size == k // 2
    # a flower: triangles pinned to a central path
    flower = _from_edges(
        10,
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6), (6, 7), (7, 8), (8, 6), (8, 9)],
    )
    assert (
        maximum_matching_general(flower, BLACK, flower.vertex_mask).size
        == brute_max_matching(flower, BLACK, flower.vertex_mask)
    )
    # the Petersen graph has a perfect matching
    petersen = _from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )
    assert maximum_matching_general(petersen, BLACK, petersen.vertex_mask).size == 5


def test_maximum_respects_scope_and_stop():
    c = Coloring.complete(10, BLACK)
    assert maximum_matching_general(c, BLACK, 0b1111).size == 2
    early = maximum_matching_general(c, BLACK, c.vertex_mask, stop_at=2)
    assert early.size >= 2


@given(colorings(min_n=1, max_n=12), st.integers(0, 6), st.sampled_from([BLACK, WHITE]))
def test_stop_at_returns_greedy_when_it_suffices(c, k, col):
    # the greedy matching seeds the search: its first k edges answer once it
    # has k, and it is returned unchanged below k/2, where no k-matching fits
    greedy = greedy_maximal_matching(c, col, c.vertex_mask)
    got = maximum_matching_general(c, col, c.vertex_mask, stop_at=k)
    brute = brute_max_matching(c, col, c.vertex_mask)
    if greedy.size >= k:
        assert got.edges == greedy.edges[:k]
    elif 2 * greedy.size < k:
        assert got == greedy
        assert brute < k
    else:
        assert got.size == min(k, brute)


def test_negative_stop_at_rejected():
    c = Coloring.complete(4, BLACK)
    with pytest.raises(PreconditionViolated):
        maximum_matching_general(c, BLACK, c.vertex_mask, stop_at=-1)


@given(colorings(min_n=2, max_n=11))
def test_greedy_maximum_ratio(c):
    scope = c.vertex_mask
    g = greedy_maximal_matching(c, BLACK, scope).size
    m = maximum_matching_general(c, BLACK, scope).size
    assert g <= m <= 2 * g


def test_bipartite_examples():
    c = coloring_from_pairs(
        4,
        [
            (0, 1, WHITE),
            (0, 2, BLACK),
            (0, 3, BLACK),
            (1, 2, BLACK),
            (1, 3, BLACK),
            (2, 3, WHITE),
        ],
    )
    m = bipartite_maximum_matching(c, BLACK, 0b0011, 0b1100)
    assert m.size == 2
    none = bipartite_maximum_matching(c, WHITE, 0b0011, 0b1100)
    assert none.size == 0


def test_bipartite_rejects_overlap():
    c = Coloring.complete(4, BLACK)
    with pytest.raises(PreconditionViolated):
        bipartite_maximum_matching(c, BLACK, 0b0111, 0b1100)


def test_bipartite_matches_bruteforce():
    # equal sides, and nine X vertices above five Y vertices so that edges
    # are written Y end first
    sides = [
        (mask_of(range(7)), mask_of(range(7, 14))),
        (mask_of(range(5, 14)), mask_of(range(5))),
    ]
    grown = 0
    for p in (0.4, 0.25):
        for X, Y in sides:
            for seed in range(40):
                c = random_coloring(14, seed, p)
                m = bipartite_maximum_matching(c, BLACK, X, Y)
                assert m.size == brute_max_bipartite(c, BLACK, X, Y)
                x_ends = []
                for a, b in m.edges:
                    x, y = (a, b) if X >> a & 1 else (b, a)
                    assert a < b and X >> x & 1 and Y >> y & 1
                    assert c.pair_color(a, b) is BLACK
                    x_ends.append(x)
                assert x_ends == sorted(x_ends)
                grown += m.size - greedy_bipartite_matching(c, BLACK, X, Y).size >= 2
    # instances needing two or more augmentations past the greedy seed
    assert grown >= 5


def test_deficiency_star_example():
    # three X-vertices all adjacent only to one Y-vertex
    pairs = []
    for u in range(5):
        for v in range(u + 1, 5):
            black = (u in (0, 1, 2) and v == 3)
            pairs.append((u, v, BLACK if black else WHITE))
    c = coloring_from_pairs(5, pairs)
    X, Y = 0b00111, 0b11000
    cert = max_deficiency_certificate(c, bipartite_maximum_matching(c, BLACK, X, Y), X, Y)
    assert cert.S == 0b00111
    assert cert.NS == 0b01000
    assert cert.deficiency == 2


def test_deficiency_zero_for_perfect_matching():
    c = Coloring.complete(6, BLACK)
    X, Y = 0b000111, 0b111000
    cert = max_deficiency_certificate(c, bipartite_maximum_matching(c, BLACK, X, Y), X, Y)
    assert cert.deficiency == 0
    assert cert.S == 0 and cert.NS == 0


def test_deficiency_matches_subset_bruteforce():
    for seed in range(50):
        c = random_coloring(16, seed, 0.3)
        X = mask_of(range(8))
        Y = mask_of(range(8, 16))
        cert = max_deficiency_certificate(c, bipartite_maximum_matching(c, BLACK, X, Y), X, Y)
        assert cert.deficiency == brute_max_deficiency(c, BLACK, X, Y)
        # the certificate's own set attains its stated deficiency
        assert cert.deficiency == cert.S.bit_count() - cert.NS.bit_count()


@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 6))
def test_defect_formula(seed, nx_size, ny_size):
    c = random_coloring(nx_size + ny_size, seed, 0.45)
    X = mask_of(range(nx_size))
    Y = mask_of(range(nx_size, nx_size + ny_size))
    mp = bipartite_maximum_matching(c, BLACK, X, Y)
    assert max_deficiency_certificate(c, mp, X, Y).deficiency == nx_size - mp.size


def test_matching_exists_iff_deficiency_bounded():
    # both directions of the defect condition on small instances
    for seed in range(30):
        c = random_coloring(10, seed, 0.4)
        X = mask_of(range(5))
        Y = mask_of(range(5, 10))
        mp = bipartite_maximum_matching(c, BLACK, X, Y)
        nu = mp.size
        dmax = max_deficiency_certificate(c, mp, X, Y).deficiency
        for t in range(6):
            assert (nu >= 5 - t) == (dmax <= t)


def test_greedy_bipartite_is_maximal_in_x_order():
    for seed in range(40):
        c = random_coloring(14, seed, 0.3)
        X = mask_of(range(0, 14, 2))
        Y = mask_of(range(1, 14, 2))
        m = greedy_bipartite_matching(c, BLACK, X, Y)
        assert m.color is BLACK
        xs = [x for x, _ in m.edges]
        assert xs == sorted(xs)
        for x, y in m.edges:
            assert X >> x & 1 and Y >> y & 1
            assert c.pair_color(x, y) is BLACK
        # maximal: no black pair joins two unmatched sides
        free = ~m.vertex_mask()
        for x in bits(X & free):
            assert c.neighborhood(x, BLACK) & Y & free == 0


def test_greedy_bipartite_takes_lowest_free_partner():
    c = Coloring.complete(6, BLACK)
    m = greedy_bipartite_matching(c, BLACK, 0b111000, 0b000111)
    assert m.edges == ((3, 0), (4, 1), (5, 2))


def test_deficiency_rejects_non_maximum_matching():
    c = Coloring.complete(6, BLACK)
    X, Y = 0b000111, 0b111000
    with pytest.raises(PreconditionViolated):
        max_deficiency_certificate(c, Matching(BLACK, ()), X, Y)


def test_deficiency_rejects_edge_inside_x():
    c = Coloring.complete(6, BLACK)
    X, Y = 0b000111, 0b111000
    with pytest.raises(PreconditionViolated):
        max_deficiency_certificate(c, Matching(BLACK, ((0, 1),)), X, Y)
    with pytest.raises(PreconditionViolated):
        max_deficiency_certificate(c, Matching(WHITE, ((0, 3),)), X, Y)


def test_deficiency_same_for_every_maximum_matching():
    # S and N(S) do not depend on which maximum matching is handed in
    c = Coloring.complete(6, BLACK)
    X, Y = 0b001111, 0b110000
    for edges in (((0, 4), (1, 5)), ((2, 4), (3, 5)), ((0, 5), (3, 4))):
        cert = max_deficiency_certificate(c, Matching(BLACK, edges), X, Y)
        assert (cert.S, cert.NS, cert.deficiency) == (X, Y, 2)
