"""Exact-arithmetic audit of the extractor's thresholds.

Pins every fractional constant the case analysis relies on, and records
which dispatch bands are reachable at all for each fan parameter given
the guaranteed order: since d is at least ceil((N-1)/2), small n can
never leave the high-degree case, and the two-clique endgame's internal
carving only becomes self-consistent around n = 49.

It also pins where find_unavoidable_structure can first return a clique.
Lemma: a 2-colored K_h with h = 3n - cc + 4 and cc <= 4 that has no black
n-matching has a white fan with n blades.  (Tutte-Berge gives a set U
whose removal leaves k >= n - cc + 6 + |U| odd black components, so
|U| <= n - 1; a vertex v of a smallest component, of size s <= 2, is
white to the complete multipartite white graph on the other components,
and leaving out its largest part leaves at least k - 2 >= n + |U|
vertices, enough for n blades at v.)  So the clique branches need
cc = 3n + 4 - d >= 5, and at cc = 5 the bound is tight.
"""

from fractions import Fraction

from fanram.coloring import BLACK, WHITE, Coloring
from fanram.extractor import _thr_big, _thr_high, _thr_low, min_order
from fanram.matching import maximum_matching_general
from fanram.structures import find_mono_fan


def _dmin(n: int) -> int:
    return -(-(min_order(n) - 1) // 2)


def test_thresholds_at_reference_n():
    n = 12
    assert _thr_high(n) == 38
    assert _thr_low(n) == 38
    assert _thr_big(n) == 19
    assert Fraction(5 * n, 12) + 6 == 11  # blocker threshold, mid variant
    assert Fraction(n, 2) + 5 == 11  # blocker threshold, big3 variant


def test_minimum_possible_d_dominates_high_band_for_small_n():
    # below the high-d threshold only d = (N-1)/2 exactly could fit for
    # n <= 14, and that forces a regular graph of odd total degree, which
    # parity forbids; so every real coloring routes to the high-d case
    for n in range(1, 15):
        window = [
            d for d in range(_dmin(n), 3 * n + 1) if d < _thr_high(n)
        ]
        assert window in ([], [_dmin(n)])
        for d in window:
            assert 2 * d == min_order(n) - 1
            assert (min_order(n) * d) % 2 == 1
    # n = 15 admits an honest mid-band coloring (degrees 45/46 on 92)
    assert _thr_low(15) <= 46 < _thr_high(15)
    assert 2 * 46 > min_order(15) - 1
    # n = 16 opens the low band with a realizable even degree
    assert _dmin(16) < _thr_low(16)
    assert (min_order(16) * _dmin(16)) % 2 == 0


def test_high_d_fan_count_identity():
    # 3/4 |A| + (t-1)(19n/6 - d + 12) >= 13n/2 - 3d/2 + 30 >= 2n + 30
    # at the extreme point |A| = 2d - 4n - 8, t = 4, d <= 3n
    for n in range(4, 60):
        for d in range(int(_thr_high(n)) + 1, 3 * n + 1):
            size = 2 * d - 4 * n - 8
            total = Fraction(3, 4) * size + 3 * (Fraction(19 * n, 6) - d + 12)
            assert total >= Fraction(13 * n, 2) - Fraction(3 * d, 2) + 30
            assert Fraction(13 * n, 2) - Fraction(3 * d, 2) + 30 >= 2 * n + 30


def test_t4_fan_count_instantiation():
    # t = 4, |A| = n + 1, n = 12: 3/4 * 13 + 3 * (5*12/12 + 7) = 45.75
    n = 12
    total = Fraction(3, 4) * (n + 1) + 3 * (Fraction(5 * n, 12) + 7)
    assert total == Fraction(183, 4)
    assert total >= 2 * n + 21


def test_mid_final_count_identity():
    # 4n/3+4 + n/2+5 + n/6 = 2n+9 termwise
    for n in range(1, 100):
        lhs = (Fraction(4 * n, 3) + 4) + (Fraction(n, 2) + 5) + Fraction(n, 6)
        assert lhs == 2 * n + 9


def test_big3_final_count_identity():
    # 7n/6+5 + n/2+7 + n/3 = 2n+12 termwise
    for n in range(1, 100):
        lhs = (Fraction(7 * n, 6) + 5) + (Fraction(n, 2) + 7) + Fraction(n, 3)
        assert lhs == 2 * n + 12


def test_residue_size_chains():
    # shadow sum bound plus twice the blocker advantage minus 2n + 6
    for n in range(1, 100):
        mid = Fraction(17 * n, 9) + 10 + 2 * (Fraction(5 * n, 12) + 6) - 2 * n - 6
        assert mid == Fraction(13 * n, 18) + 16
        big = Fraction(16 * n, 9) + 16 + 2 * (Fraction(n, 2) + 5) - 2 * n - 6
        assert big == Fraction(7 * n, 9) + 20


def test_two_cover_shadow_sum_identity():
    # 2d - 8n - 8 + 2(31n/6 + 13 - d) = 7n/3 + 18 for every d
    for n in range(1, 60):
        for d in range(2 * n, 3 * n):
            val = (2 * d - 4 * n - 8) + 2 * (Fraction(31 * n, 6) + 13 - d) - 4 * n
            assert val == Fraction(7 * n, 3) + 18


def test_two_cover_blade_floor_identity():
    # |S(v1)| + |A \ C(v1)| >= |A| + n/2 + 7 >= 5n/3 + 15 once |A| >= 7n/6 + 8
    for n in range(1, 100):
        assert (Fraction(7 * n, 6) + 8) + (Fraction(n, 2) + 7) == Fraction(5 * n, 3) + 15


def test_two_cover_carving_self_consistency_starts_at_49():
    # the carved |A| must reach half the target yet stay below 4n/3 + 1;
    # floors make the condition non-monotone: it first holds at n = 49,
    # fails once more at exactly n = 51, then holds for good
    def consistent(n: int) -> bool:
        target = 7 * n // 3 + 18
        return -(-target // 2) < Fraction(4 * n, 3) + 1

    assert not any(consistent(n) for n in range(1, 49))
    assert consistent(49) and consistent(50)
    assert not consistent(51)
    assert all(consistent(n) for n in range(52, 200))


def test_blocker_deficiency_slack():
    # if the v3 fan misses, the deficiency exceeds the threshold strictly:
    # white degree - 2n clears 5n/12+6 in the mid band and n/2+5 below it
    for n in range(13, 120):
        mid_white_floor = Fraction(31 * n, 6) + 14 - (_thr_high(n)) - 1
        assert mid_white_floor - 2 * n > Fraction(5 * n, 12) + 6
        low_white_floor = Fraction(31 * n, 6) + 14 - (_thr_low(n)) - 1
        assert low_white_floor - 2 * n > Fraction(n, 2) + 5


def _band(n: int, d: int) -> str:
    if d >= _thr_high(n):
        return "high_d"
    return "mid" if d >= _thr_low(n) else "low"


def test_first_clique_reachable_order_per_band():
    # cc = 3n + 4 - d >= 5 means d <= 3n - 1, and d >= ceil((N - 1)/2);
    # the low entry has d = (N - 1)/2 exactly, a 56-regular coloring of K_113
    first = {}
    for n in range(1, 60):
        for d in range(_dmin(n), 3 * n):
            first.setdefault(_band(n, d), (n, min_order(n), d, 3 * n + 4 - d))
    assert first == {
        "low": (19, 113, 56, 5),
        "mid": (21, 123, 62, 5),
        "high_d": (24, 139, 71, 5),
    }
    assert 2 * 56 == 113 - 1 and 113 * 56 % 2 == 0


def test_unbalanced_vertex_search_has_no_clique_below_27():
    # _unbalanced_vertex searches with cc = n // 3 - 4
    assert [n for n in range(1, 100) if n // 3 - 4 < 5] == list(range(1, 27))


def _no_matching_means_fan(N: int, n: int, bits: int) -> bool | None:
    c = Coloring.from_pair_bits(N, bits)
    if maximum_matching_general(c, BLACK, c.vertex_mask, stop_at=n).size == n:
        return None
    return find_mono_fan(c, WHITE, n) is not None


def test_lemma_exhaustive_at_n2_cc4():
    # h = 3n - cc + 4 = 6: every coloring of K_6 without a black 2-matching
    # (its black edges are a star or a triangle) has a white 2-fan
    outcomes = [_no_matching_means_fan(6, 2, bits) for bits in range(1 << 15)]
    assert outcomes.count(False) == 0
    assert outcomes.count(True) == 192


def _split(n: int) -> Coloring:
    """A black clique X on n - 1 vertices, black to a white clique Y on 2n."""
    h = 3 * n - 1
    X = (1 << n - 1) - 1
    everyone = (1 << h) - 1
    return Coloring(h, tuple((everyone if v < n - 1 else X) & ~(1 << v) for v in range(h)))


def test_lemma_is_tight_at_cc5():
    # h = 3n - 1: every black edge meets X, so a black matching has at most
    # n - 1 edges, and a white fan would need 2n + 1 vertices of Y
    for n in range(2, 9):
        c = _split(n)
        assert c.N == 3 * n - 5 + 4
        assert maximum_matching_general(c, BLACK, c.vertex_mask).size == n - 1
        assert find_mono_fan(c, WHITE, n) is None
        assert find_mono_fan(c, BLACK, n) is None
