import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bruteforce import brute_fan_exists
from fanram.coloring import BLACK, WHITE, Coloring
from fanram.errors import PreconditionViolated
from fanram.oracle import (
    FAN_FREE_EXAMPLE_CAP,
    EnumerationReport,
    _grow,
    adversarial_coloring,
    bipartite_lower_bound,
    enumerate_colorings,
    exhaustive_ramsey_check,
    random_coloring,
)
from fanram.rng import SplitMix64
from fanram.structures import find_mono_fan, verify_fan
from test_coloring import colorings


def test_enumeration_counts():
    for N, expect in ((3, 8), (5, 1024), (6, 32768)):
        seen = []
        report = enumerate_colorings(N, seen.append)
        assert report.total == expect
        assert len(seen) == expect


def test_enumeration_order_and_partition():
    first = []
    enumerate_colorings(3, first.append, stop=4)
    assert [c.pair_bits() for c in first] == [0, 1, 2, 3]
    rest = []
    enumerate_colorings(3, rest.append, start=4)
    assert len(rest) == 4


def test_enumeration_rejects_large_n():
    with pytest.raises(PreconditionViolated):
        enumerate_colorings(8, lambda c: None)


def test_ramsey_value_for_one_blade():
    t0 = time.monotonic()
    yes = exhaustive_ramsey_check(6, 1)
    assert yes.all_contain and yes.total == 32768
    no = exhaustive_ramsey_check(5, 1)
    assert not no.all_contain and no.total == 1024
    assert no.fan_free_examples
    # the pentagon witness: both color degree sequences all twos
    assert any(
        all(c.degree(v, BLACK) == 2 and c.degree(v, WHITE) == 2 for v in range(5))
        for c in no.fan_free_examples
    )
    assert time.monotonic() - t0 < 10.0


def test_ramsey_four_vertices_fail():
    report = exhaustive_ramsey_check(4, 1)
    assert not report.all_contain


def test_ramsey_check_caps():
    for N, n in ((5, 3), (5, 0), (8, 2), (10**9, 1), (0, 1), (-3, 1)):
        with pytest.raises(PreconditionViolated):
            exhaustive_ramsey_check(N, n)


def _grown_levels(N, n):
    """Pair bits of the fan-free colorings of K_1, ..., K_N."""
    levels = [[0]]
    for m in range(2, N + 1):
        levels.append(_grow(levels[-1], m, n))
    return levels


# fan-free colorings of K_1, ..., K_6, counted per level of the growth
@pytest.mark.parametrize(
    "n, counts", [(1, [1, 2, 6, 18, 12, 0]), (2, [1, 2, 8, 64, 762, 8480])]
)
def test_grown_level_counts_are_frozen(n, counts):
    assert [len(level) for level in _grown_levels(6, n)] == counts


def _brute_force(N, n):
    """Every coloring of K_N, two full fan searches each: the fan-free
    ones' pair bits and the report the walk gives."""
    fan_free = []
    report = EnumerationReport(N=N, n=n, total=0, all_contain=True)

    def visit(c):
        report.total += 1
        if find_mono_fan(c, BLACK, n) is None and find_mono_fan(c, WHITE, n) is None:
            fan_free.append(c.pair_bits())
            report.all_contain = False
            if len(report.fan_free_examples) < FAN_FREE_EXAMPLE_CAP:
                report.fan_free_examples.append(c)

    enumerate_colorings(N, visit)
    return fan_free, report


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("N", range(1, 7))
def test_grown_report_matches_brute_force(N, n):
    fan_free, brute = _brute_force(N, n)
    assert _grown_levels(N, n)[-1] == fan_free
    grown = exhaustive_ramsey_check(N, n)
    assert grown.to_json_dict() == brute.to_json_dict()


@st.composite
def colorings_with_centers(draw):
    c = draw(colorings(min_n=2, max_n=9))
    return c, draw(st.integers(0, c.vertex_mask))


@given(colorings_with_centers(), st.integers(1, 3))
def test_find_mono_fan_restricted_centers_matches_bruteforce(cc, n):
    c, centers = cc
    for col in (BLACK, WHITE):
        cert = find_mono_fan(c, col, n, centers=centers)
        assert (cert is not None) == brute_fan_exists(c, col, n, centers=centers)
        if cert is not None:
            assert centers >> cert.center & 1
            assert verify_fan(c, cert)


def test_report_json():
    report = exhaustive_ramsey_check(4, 1)
    doc = report.to_json_dict()
    assert doc["N"] == 4 and doc["n"] == 1
    assert doc["total"] == 64
    assert isinstance(doc["fan_free_examples"], list)
    assert all(isinstance(s, str) for s in doc["fan_free_examples"])


def test_lower_bound_structure():
    c = bipartite_lower_bound(1)
    assert c.N == 4
    assert find_mono_fan(c, BLACK, 1) is None
    assert find_mono_fan(c, WHITE, 1) is None
    c2 = bipartite_lower_bound(2)
    assert c2.N == 8
    assert find_mono_fan(c2, BLACK, 2) is None
    assert find_mono_fan(c2, WHITE, 2) is None
    for v in range(8):
        assert c2.degree(v, BLACK) == 4


def test_random_coloring_determinism():
    a = random_coloring(5, 42, 0.5)
    b = random_coloring(5, 42, 0.5)
    assert a == b
    assert random_coloring(5, 43, 0.5) != a or True  # different seed may differ
    assert random_coloring(5, 42, 1.0) == Coloring.complete(5, BLACK)
    assert random_coloring(5, 42, 0.0) == Coloring.complete(5, WHITE)


def test_random_coloring_bounds():
    with pytest.raises(PreconditionViolated):
        random_coloring(5, 1, 1.5)


def test_splitmix_reference_values():
    # golden values for the documented generator: seed 0, first outputs
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    rng2 = SplitMix64(1)
    assert rng2.next_u64() == 0x910A2DEC89025CC1


def test_adversarial_pentagon_structure():
    c = adversarial_coloring("pentagon_blowup", 45, seed=9)
    part = lambda v: v // 9
    for u in range(45):
        for v in range(u + 1, 45):
            if part(u) != part(v):
                expect = (part(u) - part(v)) % 5 in (1, 4)
                assert (c.pair_color(u, v) is BLACK) == expect


def test_adversarial_clique_planted():
    c = adversarial_coloring("clique_plus_noise", 46, seed=7)
    planted = -(-7 * 46 // 12)
    for u in range(planted):
        for v in range(u + 1, planted):
            assert c.pair_color(u, v) is BLACK


def test_adversarial_bipartite_mostly_cross():
    c = adversarial_coloring("bipartite_blowup", 46, seed=3)
    half = 23
    cross_black = sum(
        1
        for u in range(half)
        for v in range(half, 46)
        if c.pair_color(u, v) is BLACK
    )
    assert cross_black > 0.85 * half * half


def test_adversarial_determinism_and_errors():
    a = adversarial_coloring("bipartite_blowup", 46, 5)
    assert a == adversarial_coloring("bipartite_blowup", 46, 5)
    with pytest.raises(PreconditionViolated):
        adversarial_coloring("nope", 46, 5)
    with pytest.raises(PreconditionViolated):
        adversarial_coloring("pentagon_blowup", 4, 5)
