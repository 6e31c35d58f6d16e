import random
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bruteforce import (
    brute_clique_exists,
    brute_fan_exists,
    brute_fan_exists_enumerated,
    coloring_from_pairs,
    reference_clique,
)
from fanram.bitset import bit_list, mask_of
from fanram.coloring import BLACK, WHITE, Coloring
from fanram.errors import PreconditionViolated
from fanram.matching import max_deficiency_certificate
from fanram.oracle import random_coloring
from fanram.structures import (
    CliqueWitness,
    FanCertificate,
    _FanBuilder,
    clique_violation,
    fan_from_clique,
    fan_violation,
    find_clique,
    find_mono_fan,
    find_unavoidable_structure,
    split_fan_blade_target,
    split_graph_fan,
    verify_fan,
)
from test_coloring import colorings


def test_clique_violation_names_the_first_bad_pair():
    rng = random.Random(5)
    outcomes = {True: 0, False: 0}
    for seed in range(300):
        N = rng.randint(1, 12)
        c = random_coloring(N, seed, rng.choice((0.5, 0.9)))
        members = rng.getrandbits(N) & rng.getrandbits(N)
        for col in (BLACK, WHITE):
            want = next(
                (
                    f"pair ({u},{v}) is not {col.value}"
                    for u, v in combinations(bit_list(members), 2)
                    if c.pair_color(u, v) is not col
                ),
                None,
            )
            assert clique_violation(c, CliqueWitness(col, members)) == want
            outcomes[want is None] += 1
    assert min(outcomes.values()) > 100


def _pentagon():
    edges = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    pairs = [
        (u, v, BLACK if (u, v) in edges else WHITE)
        for u in range(5)
        for v in range(u + 1, 5)
    ]
    return coloring_from_pairs(5, pairs)


def _bipartite_blowup(half):
    N = 2 * half
    pairs = [
        (u, v, BLACK if (u < half) != (v < half) else WHITE)
        for u in range(N)
        for v in range(u + 1, N)
    ]
    return coloring_from_pairs(N, pairs)


def test_verify_fan_valid():
    c = Coloring.complete(5, BLACK)
    cert = FanCertificate(BLACK, 0, ((1, 2), (3, 4)), 2)
    assert verify_fan(c, cert)


def test_verify_fan_reports_recolored_blade():
    pairs = [
        (u, v, WHITE if (u, v) == (1, 2) else BLACK)
        for u in range(5)
        for v in range(u + 1, 5)
    ]
    c = coloring_from_pairs(5, pairs)
    cert = FanCertificate(BLACK, 0, ((1, 2), (3, 4)), 2)
    msg = fan_violation(c, cert)
    assert msg is not None and "(1,2)" in msg and "white" in msg


def test_verify_fan_reports_repeated_vertex():
    c = Coloring.complete(6, BLACK)
    cert = FanCertificate(BLACK, 0, ((1, 2), (2, 3)), 2)
    msg = fan_violation(c, cert)
    assert msg is not None and "reused" in msg


def test_verify_fan_range_and_claim_checks():
    c = Coloring.complete(4, BLACK)
    assert fan_violation(c, FanCertificate(BLACK, 9, (), 0)) is not None
    assert fan_violation(c, FanCertificate(BLACK, 0, ((1, 2),), 2)) is not None
    for k in (0, -3):
        got = fan_violation(c, FanCertificate(BLACK, 0, (), k))
        assert got == f"n_claimed={k} must be >= 1"


def test_certificate_json_roundtrip():
    cert = FanCertificate(WHITE, 3, ((1, 2), (4, 5)), 2)
    assert FanCertificate.from_json(cert.to_json()) == cert


def test_certificate_json_rejects_malformed_fields():
    good = {"color": "white", "center": 3, "blades": [[1, 2]], "n_claimed": 1}
    for bad in (
        {"center": "3"},
        {"center": 1.5},
        {"blades": [[1, 2, 4]]},
        {"blades": 7},
        {"color": None},
    ):
        with pytest.raises(PreconditionViolated, match="malformed certificate"):
            FanCertificate.from_json_dict({**good, **bad})
    with pytest.raises(PreconditionViolated):
        FanCertificate.from_json_dict([])


def test_find_mono_fan_complete_graph():
    c = Coloring.complete(7, BLACK)
    cert = find_mono_fan(c, BLACK, 3)
    assert cert is not None and cert.center == 0
    assert len(cert.blades) == 3
    assert verify_fan(c, cert)


def test_find_mono_fan_pentagon_has_no_triangle():
    c = _pentagon()
    assert find_mono_fan(c, BLACK, 1) is None
    assert find_mono_fan(c, WHITE, 1) is None
    # agreement with the literal enumeration oracle
    assert not brute_fan_exists_enumerated(c, BLACK, 1)
    assert not brute_fan_exists_enumerated(c, WHITE, 1)


def test_find_mono_fan_bipartite_lower_bound_pattern():
    c = _bipartite_blowup(4)
    assert find_mono_fan(c, BLACK, 2) is None
    assert find_mono_fan(c, WHITE, 2) is None


@given(colorings(min_n=2, max_n=9), st.integers(1, 3))
def test_find_mono_fan_matches_bruteforce(c, n):
    cert = find_mono_fan(c, BLACK, n)
    assert (cert is not None) == brute_fan_exists(c, BLACK, n)
    if cert is not None:
        assert verify_fan(c, cert)
        assert cert.n_claimed == n


@given(colorings(min_n=2, max_n=8), st.integers(1, 2))
def test_find_mono_fan_color_duality(c, n):
    direct = find_mono_fan(c, WHITE, n)
    swapped = find_mono_fan(c.swap_colors(), BLACK, n)
    assert (direct is None) == (swapped is None)
    if swapped is not None:
        mapped = FanCertificate(WHITE, swapped.center, swapped.blades, n)
        assert verify_fan(c, mapped)


def test_find_clique_complete():
    c = Coloring.complete(6, BLACK)
    w = find_clique(c, BLACK, 6, c.vertex_mask)
    assert w is not None and w.members == 0b111111


def test_find_clique_bipartite_triangle_free():
    c = _bipartite_blowup(4)
    assert find_clique(c, BLACK, 3, c.vertex_mask) is None


@given(
    colorings(min_n=1, max_n=12),
    st.sampled_from([BLACK, WHITE]),
    st.integers(1, 7),
    st.one_of(st.just(-1), st.integers(0, (1 << 12) - 1)),  # -1: every vertex
)
def test_find_clique_matches_bruteforce(c, col, size, scope):
    # the coloring bound prunes only subtrees holding no clique of the
    # target size, so the first clique found is the reference search's
    scope &= c.vertex_mask
    got = find_clique(c, col, size, scope)
    assert (got is not None) == brute_clique_exists(c, col, size, scope)
    if got is not None:
        assert got.size >= size
    assert (None if got is None else got.members) == reference_clique(
        c, col, size, scope
    )


def test_find_clique_witness_matches_reference_up_to_40_vertices():
    rng = random.Random(21)
    found = 0
    for seed in range(300):
        N = rng.randint(8, 40)
        c = random_coloring(N, seed, rng.choice((0.5, 0.7, 0.9)))
        scope = rng.getrandbits(N) | rng.getrandbits(N)
        size = rng.randint(1, 8)
        for col in (BLACK, WHITE):
            got = find_clique(c, col, size, scope)
            want = reference_clique(c, col, size, scope)
            assert (None if got is None else got.members) == want
            found += want is not None
    assert 150 < found < 550


def test_find_clique_respects_scope():
    c = Coloring.complete(8, BLACK)
    w = find_clique(c, BLACK, 3, 0b00011101)
    assert w is not None and w.members & ~0b00011101 == 0


def test_fan_from_clique():
    c = Coloring.complete(9, BLACK)
    cert = fan_from_clique(c, CliqueWitness(BLACK, c.vertex_mask), 4)
    assert verify_fan(c, cert) and len(cert.blades) == 4
    with pytest.raises(PreconditionViolated):
        fan_from_clique(c, CliqueWitness(BLACK, 0b1111), 2)


def test_match_into_orders_blades_and_keeps_parts_apart():
    # center 0 is black to everything; inside T = {1,2,3,4} only 1-2 is
    # black, 3 and 4 both reach only vertex 5 of the parts P1 = {5..8} and
    # P2 = {9,10,11}, each a black clique, and P1-P2 pairs are white
    T, P1, P2 = mask_of(range(1, 5)), mask_of(range(5, 9)), mask_of(range(9, 12))
    adj = [0] * 12

    def join(u, v):
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    for v in range(1, 12):
        join(0, v)
    join(1, 2)
    join(3, 5)
    join(4, 5)
    for part in (P1, P2):
        for u in bit_list(part):
            for v in bit_list(part):
                if u < v:
                    join(u, v)
    c = Coloring(12, tuple(adj))

    fb = _FanBuilder(c, BLACK, 0)
    M, Mp, X, Y = fb.match_into(T, P1, P2)
    assert M.edges == ((1, 2),)
    assert Mp.edges == ((3, 5),)
    assert (X, Y) == (0b11000, P1 | P2)
    # the leftovers 6, 7, 8 of P1 and 9, 10, 11 of P2 pair within their
    # own part: 8 and 11 stay unused rather than pair across
    assert fb.blades == [(1, 2), (3, 5), (6, 7), (9, 10)]
    assert verify_fan(c, fb.build(4))
    assert fb.build(5) is None
    defc = max_deficiency_certificate(c, Mp, X, Y)
    assert (defc.S, defc.NS, defc.deficiency) == (X, 1 << 5, 1)


def test_structure_search_all_black():
    scope = (1 << 14) - 1
    c = Coloring.complete(14, BLACK)
    kind, m = find_unavoidable_structure(c, BLACK, scope, 4, 2)
    assert kind == "matching"
    assert m.size == 4


def test_structure_search_all_white():
    c = Coloring.complete(14, WHITE)
    kind, fan = find_unavoidable_structure(c, BLACK, (1 << 14) - 1, 4, 2)
    assert kind == "complement_fan"
    assert verify_fan(c, fan)
    assert fan.color is WHITE


def test_structure_search_preconditions():
    c = Coloring.complete(14, BLACK)
    with pytest.raises(PreconditionViolated):
        find_unavoidable_structure(c, BLACK, (1 << 14) - 1, 4, 0)
    with pytest.raises(PreconditionViolated):
        find_unavoidable_structure(c, BLACK, (1 << 13) - 1, 4, 2)
    with pytest.raises(PreconditionViolated):
        find_unavoidable_structure(c, BLACK, (1 << 14) - 1, 4, 3)


def _verified_structure(c, kind, w, n, cc):
    if kind == "matching":
        assert w.size >= n
        for a, b in w.edges:
            assert c.pair_color(a, b) is BLACK
        verts = [v for e in w.edges for v in e]
        assert len(set(verts)) == len(verts)
    elif kind == "complement_fan":
        assert w.color is WHITE
        assert verify_fan(c, w)
    else:
        assert w.size >= 2 * n - 2 * cc
        col = BLACK if kind == "clique" else WHITE
        assert w.color is col
        verts = bit_list(w.members)
        for i, u in enumerate(verts):
            for v in verts[i + 1 :]:
                assert c.pair_color(u, v) is col


def test_structure_search_randomized():
    for seed in range(60):
        n = 4 + seed % 5
        cc = 1 + seed % max(1, (5 * n) // 8 - 1)
        size = 3 * n - cc + 4
        c = random_coloring(size, seed, (0.15, 0.5, 0.85)[seed % 3])
        kind, w = find_unavoidable_structure(c, BLACK, c.vertex_mask, n, cc)
        _verified_structure(c, kind, w, n, cc)


def test_split_fan_blade_target_values():
    assert [split_fan_blade_target(k) for k in range(3, 13)] == [
        1, 2, 3, 3, 4, 5, 6, 6, 7, 8,
    ]


def _split_instance(k, cross):
    """A = first k vertices (black clique), B = next k (white clique);
    cross(u, b_index) decides black pairs across."""
    N = 2 * k
    pairs = []
    for u in range(N):
        for v in range(u + 1, N):
            if v < k:
                col = BLACK
            elif u >= k:
                col = WHITE
            else:
                col = BLACK if cross(u, v - k) else WHITE
            pairs.append((u, v, col))
    return coloring_from_pairs(N, pairs)


def test_split_graph_fan_all_cross_black():
    c = _split_instance(4, lambda u, b: True)
    cert = split_graph_fan(c, BLACK, 0b1111, 0b11110000)
    assert verify_fan(c, cert)
    assert cert.color is BLACK
    assert len(cert.blades) >= 2
    assert 0b1111 >> cert.center & 1


def test_split_graph_fan_no_cross_black():
    c = _split_instance(4, lambda u, b: False)
    cert = split_graph_fan(c, BLACK, 0b1111, 0b11110000)
    assert verify_fan(c, cert)
    assert cert.color is WHITE
    assert len(cert.blades) >= 2


def test_split_graph_fan_k8_random_meets_target():
    hits = 0
    for seed in range(40):
        c = random_coloring(16, seed, 0.5)
        # force the split shape on top of the random cross pattern
        adj = list(c._black)
        for u in range(8):
            for v in range(u + 1, 8):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        for u in range(8, 16):
            for v in range(u + 1, 16):
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
        c = Coloring(16, tuple(adj))
        cert = split_graph_fan(c, BLACK, 0xFF, 0xFF00)
        assert verify_fan(c, cert)
        assert len(cert.blades) >= 5
        hits += 1
        # the certificate is consistent with the enumeration oracle
        assert brute_fan_exists(c, cert.color, len(cert.blades))
    assert hits == 40


def test_split_graph_fan_preconditions():
    c = _split_instance(4, lambda u, b: True)
    with pytest.raises(PreconditionViolated):
        split_graph_fan(c, BLACK, 0b11, 0b1100)  # k < 3
    with pytest.raises(PreconditionViolated):
        split_graph_fan(c, BLACK, 0b1111, 0b111100000)  # unequal after range
    with pytest.raises(PreconditionViolated):
        split_graph_fan(c, BLACK, 0b1111, 0b1111)  # overlap
    with pytest.raises(PreconditionViolated):
        split_graph_fan(c, BLACK, 0b10000111, 0b01111000)  # A not a clique


@given(st.integers(0, 20_000))
# these seeds reach the Hall-violator branch, directly or with the roles
# exchanged; random seeds rarely do
@example(1911)
@example(4310)
@example(8190)
@example(9116)
@example(11544)
def test_split_graph_fan_is_color_symmetric(seed):
    # a black A against a white B in c, and a white A against a black B in
    # the swapped coloring, give the same fan in the opposite color
    rng = random.Random(seed)
    k = rng.randint(3, 9)
    p = rng.random()
    cross = {(u, b): rng.random() < p for u in range(k) for b in range(k)}
    c = _split_instance(k, lambda u, b: cross[u, b])
    A = (1 << k) - 1
    B = A << k
    black = split_graph_fan(c, BLACK, A, B)
    white = split_graph_fan(c.swap_colors(), WHITE, A, B)
    assert white.color is black.color.swap()
    assert (white.center, white.blades) == (black.center, black.blades)


@given(st.integers(0, 2_000), st.integers(3, 10))
def test_split_graph_fan_random_cross(seed, k):
    rc = random_coloring(2 * k, seed, 0.5)
    adj = list(rc._black)
    for u in range(k):
        for v in range(u + 1, k):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    for u in range(k, 2 * k):
        for v in range(u + 1, 2 * k):
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
    c = Coloring(2 * k, tuple(adj))
    A = (1 << k) - 1
    B = ((1 << k) - 1) << k
    cert = split_graph_fan(c, BLACK, A, B)
    assert verify_fan(c, cert)
    assert len(cert.blades) >= split_fan_blade_target(k)
