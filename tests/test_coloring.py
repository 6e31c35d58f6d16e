import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bruteforce import brute_graph6, coloring_from_pairs
from fanram.bitset import bit_list, mask_of
from fanram.coloring import BLACK, WHITE, Color, Coloring, context_of
from fanram.errors import PreconditionViolated
from fanram.io import parse_2col, parse_graph6, write_2col


@st.composite
def colorings(draw, min_n=1, max_n=9):
    N = draw(st.integers(min_n, max_n))
    bits = draw(st.integers(0, (1 << (N * (N - 1) // 2)) - 1))
    return Coloring.from_pair_bits(N, bits)


def test_color_swap_involution():
    assert BLACK.swap() is WHITE
    assert WHITE.swap() is BLACK
    for col in Color:
        assert col.swap().swap() is col


def test_from_pair_bits_needs_a_vertex():
    for N in (0, -3):
        with pytest.raises(PreconditionViolated, match="at least one vertex"):
            Coloring.from_pair_bits(N, 0)


def test_single_vertex_coloring_is_legal():
    c = coloring_from_pairs(1, [])
    assert c.N == 1
    assert c.degree(0, BLACK) == 0 and c.degree(0, WHITE) == 0


def test_swap_colors_complete():
    c = Coloring.complete(4, BLACK)
    s = c.swap_colors()
    assert s == Coloring.complete(4, WHITE)


@given(colorings())
def test_swap_colors_involution(c):
    assert c.swap_colors().swap_colors() == c


@given(colorings())
def test_swap_colors_exchanges_degrees(c):
    s = c.swap_colors()
    for v in range(c.N):
        assert c.degree(v, BLACK) == s.degree(v, WHITE)
        assert c.degree(v, WHITE) == s.degree(v, BLACK)


@given(colorings())
def test_degrees_sum_to_n_minus_1(c):
    for v in range(c.N):
        assert c.degree(v, BLACK) + c.degree(v, WHITE) == c.N - 1


@given(colorings())
def test_neighborhood_duality(c):
    s = c.swap_colors()
    for v in range(c.N):
        assert s.neighborhood(v, BLACK) == c.neighborhood(v, WHITE)


def _bipartite_black(parts_a, parts_b, N):
    pairs = []
    a, b = set(parts_a), set(parts_b)
    for u in range(N):
        for v in range(u + 1, N):
            col = BLACK if ((u in a) != (v in a)) else WHITE
            pairs.append((u, v, col))
    return coloring_from_pairs(N, pairs)


def test_neighborhood_examples():
    k5 = Coloring.complete(5, BLACK)
    assert k5.neighborhood(0, BLACK) == mask_of([1, 2, 3, 4])
    assert k5.neighborhood(0, WHITE) == 0
    c = _bipartite_black([0, 1], [2, 3], 4)
    assert c.neighborhood(0, BLACK) == mask_of([2, 3])


def test_neighborhood_range_error():
    with pytest.raises(PreconditionViolated, match="vertex 3 out of range"):
        Coloring.complete(3, BLACK).neighborhood(3, BLACK)


def test_context_all_black_k7():
    ctx = context_of(Coloring.complete(7, BLACK))
    assert ctx.d == 6
    assert ctx.d_witness == (0, BLACK)


def test_context_bipartite_k44():
    c = _bipartite_black(range(4), range(4, 8), 8)
    ctx = context_of(c)
    assert ctx.d == 4
    assert ctx.d_witness == (0, BLACK)
    assert 2 * ctx.d >= c.N - 1


@given(colorings(min_n=2, max_n=10))
def test_context_matches_direct_recount(c):
    # independent recount straight from pair colors
    best = -1
    for v in range(c.N):
        for col in (BLACK, WHITE):
            deg = sum(
                1 for u in range(c.N) if u != v and c.pair_color(u, v) is col
            )
            best = max(best, deg)
    ctx = context_of(c)
    assert ctx.d == best
    wv, wc = ctx.d_witness
    assert c.degree(wv, wc) == best


@given(colorings())
def test_context_invariant_under_swap(c):
    assert context_of(c).d == context_of(c.swap_colors()).d


@given(colorings())
def test_pair_bits_roundtrip(c):
    assert Coloring.from_pair_bits(c.N, c.pair_bits()) == c
    assert parse_2col(write_2col(c)) == c


def test_constructor_validates_symmetry():
    # the one checked way to hand-build a coloring names what it refuses
    refused = [
        (0, (), "need at least one vertex, got N=0"),
        (2, (0,), "adjacency length does not match N"),
        (2, (0b01, 0b01), "bad adjacency row for vertex 0"),
        (2, (0b100, 0b00), "bad adjacency row for vertex 0"),
        (2, (0b10, 0b00), "asymmetric adjacency 1,0"),
    ]
    for N, rows, message in refused:
        with pytest.raises(PreconditionViolated, match=f"^{message}$"):
            Coloring(N, rows)


def test_vertex_sets_are_masks():
    c = Coloring.complete(5, BLACK)
    nb = c.neighborhood(2, BLACK)
    assert bit_list(nb) == [0, 1, 3, 4]
    assert nb & (1 << 2) == 0


def test_builders_match_checked_constructor():
    # every trusted builder against the validating constructor, which
    # rejects asymmetric or diagonal bits: from_pair_bits and parse_2col
    # (upper rows into _from_digits) and parse_graph6 (mirrored lower rows
    # into _from_digits); pair_bits() against the int built pair by pair.
    # N = 1..40 covers the smallest triangles, 64 the long graph6 size prefix
    for N in (*range(1, 41), 64, 118, 428):
        rng = random.Random(N)
        full = (1 << N) - 1
        draws = {
            "random": [rng.getrandbits(N) & full << (u + 1) for u in range(N)],
            "zero": [0] * N,
            "one": [full << (u + 1) & full for u in range(N)],
        }
        for name, upper in draws.items():
            adj = [0] * N
            pair_bits = 0
            k = 0
            for u in range(N):
                for v in range(u + 1, N):
                    black = upper[u] >> v & 1
                    if black:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
                        pair_bits |= 1 << k
                    k += 1
            want = Coloring(N, tuple(adj))
            text = brute_graph6(N, lambda u, v: upper[u] >> v & 1)
            c = Coloring.from_pair_bits(N, pair_bits)
            assert c == want, (N, name)
            assert parse_2col(write_2col(want)) == want, (N, name)
            assert parse_graph6(text) == want, (N, name)
            assert want.pair_bits() == pair_bits, (N, name)
            assert Coloring.from_pair_bits(N, c.pair_bits()) == c, (N, name)
