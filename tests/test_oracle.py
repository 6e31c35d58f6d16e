import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bruteforce import (
    brute_adversarial_coloring,
    brute_fan_exists,
    brute_random_coloring,
    reference_grow,
)
from fanram import oracle
from fanram.cli import _TRIAL_FAMILIES, trial_coloring
from fanram.coloring import BLACK, WHITE, Coloring
from fanram.errors import InternalError, PreconditionViolated
from fanram.matching import maximum_matching_general
from fanram.oracle import (
    FAN_FREE_EXAMPLE_CAP,
    EnumerationReport,
    _grow,
    _matching_numbers,
    adversarial_coloring,
    bipartite_lower_bound,
    enumerate_colorings,
    exhaustive_ramsey_check,
    random_coloring,
)
from fanram.rng import _BLOCK, SplitMix64, bits_below
from fanram.structures import find_mono_fan, verify_fan
from test_coloring import colorings


def test_enumeration_counts():
    for N, expect in ((3, 8), (5, 1024), (6, 32768)):
        seen = []
        report = enumerate_colorings(N, seen.append)
        assert report.total == expect
        assert len(seen) == expect


def test_enumeration_order():
    seen = []
    enumerate_colorings(3, seen.append)
    assert [c.pair_bits() for c in seen] == list(range(8))


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


# fan-free labelled colorings of K_1, ..., K_7, counted per level of the
# growth
@pytest.mark.parametrize(
    "n, counts",
    [(1, [1, 2, 6, 18, 12, 0, 0]), (2, [1, 2, 8, 64, 762, 8480, 65800])],
)
def test_grown_level_counts_are_frozen(n, counts):
    assert [len(level) for level in _grown_levels(7, n)] == counts


# (7, 2) is left out: the reference takes about 9 s there
@pytest.mark.parametrize("N, n", [(6, 1), (6, 2), (7, 1)])
def test_grow_matches_reference(N, n):
    levels = _grown_levels(N, n)
    for m in range(2, N + 1):
        assert levels[m - 1] == reference_grow(levels[m - 2], m, n)


@given(colorings(max_n=6), st.integers(1, 3))
def test_matching_numbers_match_blossom(c, cap):
    for col in (BLACK, WHITE):
        rows = [c.neighborhood(v, col) for v in range(c.N)]
        nu = _matching_numbers(rows, c.N, cap)
        assert nu == [
            min(cap, maximum_matching_general(c, col, S).size)
            for S in range(1 << c.N)
        ]


@pytest.mark.parametrize("h, col", [(0b111, "black"), (0, "white")])
def test_grown_examples_are_rechecked(monkeypatch, h, col):
    # a growth step that lets a monochromatic triangle through
    monkeypatch.setattr(oracle, "_grow", lambda level, m, n: [h])
    with pytest.raises(InternalError, match=f"holds a {col} fan"):
        exhaustive_ramsey_check(3, 1)


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
    assert random_coloring(5, 43, 0.5) != a
    assert random_coloring(5, 42, 1.0) == Coloring.complete(5, BLACK)
    assert random_coloring(5, 42, 0.0) == Coloring.complete(5, WHITE)


@pytest.mark.parametrize("N", range(5, 41))
def test_trial_families_match_per_pair_definitions(N):
    for family, p in _TRIAL_FAMILIES:
        for seed in (0, 1, 2**63 + 12345, 2**64 - 1):
            expect = (
                brute_random_coloring(N, seed, p)
                if family == "random"
                else brute_adversarial_coloring(family, N, seed)
            )
            assert trial_coloring(family, p, N, 1, seed) == expect


def test_random_coloring_tiny_and_extreme_p_match_definition():
    for N in (1, 2):
        for p in (0.0, 0.5, 1.0):
            for seed in (0, 7, 2**64 - 1):
                assert random_coloring(N, seed, p) == brute_random_coloring(N, seed, p)


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


def test_bits_below_reference_values():
    # seed 0's draws above: 0xE220A839... is 0.88 and 0x6E789E6A... is 0.43
    assert bits_below(0, 2, 0.5) == 0b10
    assert bits_below(0, 64, 0.5) == 0x6133CEFB8C850576
    # bits _BLOCK-16 .. _BLOCK+15 straddle the first block boundary
    assert bits_below(2**64 - 1, _BLOCK + 16, 0.5) >> _BLOCK - 16 == 0x6892B0EA


def _draw_loop(seed, count, p):
    rng = SplitMix64(seed)
    return sum(1 << k for k in range(count) if rng.next_float() < p)


@pytest.mark.parametrize(
    "count", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]
)
def test_bits_below_matches_draw_loop_at_block_boundaries(count):
    for seed in (0, 1, -1, 2**64 - 5, 2**64 - 1):
        for p in (0.0, 5e-324, 0.05, 0.1, 0.5, 1 - 2**-53, 1.0):
            assert bits_below(seed, count, p) == _draw_loop(seed, count, p)


@given(st.integers(0, 3 * _BLOCK), st.integers(0, 2**64 - 1), st.floats(0.0, 1.0))
def test_bits_below_matches_draw_loop(count, seed, p):
    assert bits_below(seed, count, p) == _draw_loop(seed, count, p)


def test_bits_below_threshold_is_exact():
    # p equal to a draw leaves its bit clear; the next float above sets it
    rng = SplitMix64(5)
    draws = [rng.next_float() for _ in range(_BLOCK + 1)]
    for k in (0, 1, 2, _BLOCK - 1, _BLOCK):
        assert bits_below(5, k + 1, draws[k]) >> k & 1 == 0
        assert bits_below(5, k + 1, math.nextafter(draws[k], 2.0)) >> k & 1 == 1


def test_bits_below_rejects_p_outside_unit_interval():
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            bits_below(0, 1, p)


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
