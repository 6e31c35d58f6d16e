from dataclasses import replace

import pytest

from fanram.bitset import bit_list, lowest, mask_of
from fanram.coloring import BLACK, WHITE, Coloring
from fanram.covering import (
    CoverRecord,
    build_sc,
    check_cover_invariants,
    compute_cover,
    cover_violation,
    sc_violation,
)
from fanram.errors import PreconditionViolated
from fanram.oracle import adversarial_coloring
from fanram.structures import CliqueWitness, FanCertificate, find_mono_fan, verify_fan
from gadgets import cover_gadget


def test_build_sc_fan_branch_all_black():
    c = Coloring.complete(6, BLACK)
    A = CliqueWitness(BLACK, 0b000111)
    out = build_sc(c, A, 0, 2)
    assert isinstance(out, FanCertificate)
    assert out.center == 0 and out.color is BLACK
    assert verify_fan(c, out)


def test_build_sc_rejects_small_clique():
    c = Coloring.complete(6, BLACK)
    with pytest.raises(PreconditionViolated):
        build_sc(c, CliqueWitness(BLACK, 0b11), 0, 2)


def test_build_sc_rejects_low_degree():
    # vertex 0 in a black triangle with nothing else black
    pairs = []
    for u in range(6):
        for v in range(u + 1, 6):
            black = u < 3 and v < 3
            pairs.append((u, v, BLACK if black else WHITE))
    c = Coloring.from_pair_list(6, pairs)
    with pytest.raises(PreconditionViolated):
        build_sc(c, CliqueWitness(BLACK, 0b111), 0, 1)


def test_build_sc_rejects_outside_vertex():
    c = Coloring.complete(6, BLACK)
    with pytest.raises(PreconditionViolated):
        build_sc(c, CliqueWitness(BLACK, 0b111), 5, 2)


def test_build_sc_record_from_seeded_search():
    # first seed whose pentagon blow-up stays black-triangle-free, found
    # by a seeded scan with the fan search as the filter
    seed = 0
    c = adversarial_coloring("pentagon_blowup", 10, 1, seed)
    assert find_mono_fan(c, BLACK, 1) is None
    u = 0
    v = lowest(c.neighborhood(0, BLACK))
    A = CliqueWitness(BLACK, mask_of([u, v]))
    out = build_sc(c, A, u, 1)
    assert not isinstance(out, FanCertificate)
    assert sc_violation(c, out, 1) is None
    assert out.S.bit_count() == 3 and out.C == 1 << u
    # the stated inequality holds with the recorded degree
    assert out.S.bit_count() >= out.C.bit_count() + out.deg_v - 2


def test_build_sc_prunes_to_inclusion_minimal():
    seed = 0
    c = adversarial_coloring("pentagon_blowup", 10, 1, seed)
    u = 0
    v = lowest(c.neighborhood(0, BLACK))
    A = CliqueWitness(BLACK, mask_of([u, v]))
    rec = build_sc(c, A, u, 1)
    target = rec.deg_v + 1 - 2
    Y = A.members & ~(1 << u)

    def deficiency(mask):
        nb = 0
        for x in bit_list(mask):
            nb |= c.neighborhood(x, BLACK)
        return mask.bit_count() - (nb & Y).bit_count()

    assert deficiency(rec.S) >= target
    for x in bit_list(rec.S):
        assert deficiency(rec.S & ~(1 << x)) < target


def test_compute_cover_gadget_t4():
    c, A = cover_gadget(4, 3, 8, 11)
    out = compute_cover(c, A, 11)
    assert isinstance(out, CoverRecord)
    assert out.t == 4
    assert [v for v, _ in out.sequence] == [0, 3, 6, 9]
    for v, rec in out.sequence:
        assert rec.C == 0b111 << (v // 3 * 3)
        assert rec.S.bit_count() == 16
    assert check_cover_invariants(c, out, 11)


def test_compute_cover_threshold_t3():
    # 9-vertex clique at n=6 sits above the two-thirds threshold, so any
    # cover needs at least three steps
    c, A = cover_gadget(3, 3, 2, 6)
    out = compute_cover(c, A, 6)
    assert isinstance(out, CoverRecord)
    assert out.t >= 3
    assert check_cover_invariants(c, out, 6)


def test_compute_cover_contact_cap():
    # every contact set obeys |C| <= 2n+1-|A| = 3 at n=5, |A|=8
    c, A = cover_gadget(4, 2, 2, 5)
    out = compute_cover(c, A, 5)
    assert isinstance(out, CoverRecord)
    for _, rec in out.sequence:
        assert rec.C.bit_count() <= 3
    assert check_cover_invariants(c, out, 5)


def test_compute_cover_propagates_fan():
    c = Coloring.complete(12, BLACK)
    out = compute_cover(c, CliqueWitness(BLACK, 0b1111), 3)
    assert isinstance(out, FanCertificate)
    assert verify_fan(c, out)


def test_compute_cover_preconditions():
    c = Coloring.complete(12, BLACK)
    with pytest.raises(PreconditionViolated):
        compute_cover(c, CliqueWitness(BLACK, 0b111), 3)  # |A| = n
    with pytest.raises(PreconditionViolated):
        compute_cover(c, CliqueWitness(BLACK, 0b1111111), 3)  # |A| = 2n+1


def test_compute_cover_deterministic():
    c, A = cover_gadget(4, 3, 8, 11)
    a = compute_cover(c, A, 11)
    b = compute_cover(c, A, 11)
    assert a == b


def test_compute_cover_sink_collects_records():
    c, A = cover_gadget(3, 3, 2, 6)
    seen = []
    out = compute_cover(c, A, 6, sink=seen.append)
    assert isinstance(out, CoverRecord)
    assert sum(isinstance(r, CoverRecord) for r in seen) == 1
    assert sum(not isinstance(r, CoverRecord) for r in seen) == A.size


def test_cover_invariants_reject_mutations():
    c, A = cover_gadget(4, 3, 8, 11)
    rec = compute_cover(c, A, 11)
    assert check_cover_invariants(c, rec, 11)

    # move one shadow vertex into another record's shadow
    (v1, r1), (v2, r2) = rec.sequence[0], rec.sequence[1]
    moved = lowest(r1.S)
    r2_bad = replace(r2, S=r2.S | 1 << moved)
    seq = (rec.sequence[0], (v2, r2_bad)) + rec.sequence[2:]
    assert not check_cover_invariants(c, CoverRecord(rec.A, rec.t, seq), 11)

    # truncate a contact set so coverage fails
    r1_bad = replace(r1, C=r1.C & ~(1 << lowest(r1.C & ~(1 << v1))))
    seq = ((v1, r1_bad),) + rec.sequence[1:]
    assert not check_cover_invariants(c, CoverRecord(rec.A, rec.t, seq), 11)

    # drop a whole step
    assert not check_cover_invariants(
        c, CoverRecord(rec.A, rec.t - 1, rec.sequence[:-1]), 11
    )


def test_cover_violation_messages():
    c, A = cover_gadget(4, 3, 8, 11)
    rec = compute_cover(c, A, 11)
    assert cover_violation(c, rec, 11) is None
    bad = CoverRecord(rec.A, rec.t - 1, rec.sequence[:-1])
    assert "cover" in cover_violation(c, bad, 11)
