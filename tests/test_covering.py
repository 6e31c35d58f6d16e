import random
from dataclasses import replace

import pytest

from bruteforce import coloring_from_pairs
from fanram import covering
from fanram.bitset import bit_list, bits, lowest, mask_of
from fanram.coloring import BLACK, WHITE, Coloring
from fanram.covering import (
    CoverRecord,
    build_sc,
    compute_cover,
    cover_violation,
    sc_violation,
)
from fanram.errors import PreconditionViolated
from fanram.matching import Matching
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
    c = coloring_from_pairs(6, pairs)
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
    c = adversarial_coloring("pentagon_blowup", 10, seed)
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
    c = adversarial_coloring("pentagon_blowup", 10, seed)
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


def _deficiency(c, rec, mask):
    """|mask| minus its neighbours in the record's Y side, A minus v."""
    nb = 0
    for x in bits(mask):
        nb |= c.neighborhood(x, rec.clique.color)
    return mask.bit_count() - (nb & rec.clique.members & ~(1 << rec.v)).bit_count()


def _sparse_shadow_instance(seed):
    """A black clique on the first k vertices and a seeded outside that is
    sparse inside and thinly joined to the clique, so that many shadow
    constructions fall short of a fan."""
    rng = random.Random(seed)
    k, m = rng.randint(3, 7), rng.randint(10, 30)
    to_clique, inside = rng.uniform(0.05, 0.4), rng.uniform(0, 0.05)
    adj = [0] * (k + m)
    for u in range(k + m):
        for w in range(u + 1, k + m):
            p = 1 if w < k else to_clique if u < k else inside
            if rng.random() < p:
                adj[u] |= 1 << w
                adj[w] |= 1 << u
    return Coloring(k + m, tuple(adj)), CliqueWitness(BLACK, (1 << k) - 1)


def _seeded_records():
    for seed in range(150):
        c, A = _sparse_shadow_instance(seed)
        for v in bits(A.members):
            for n in range(1, A.size):
                if c.degree(v, BLACK) > 2 * n:
                    out = build_sc(c, A, v, n)
                    if not isinstance(out, FanCertificate):
                        yield c, out, n


def _shadow_records():
    """(coloring, record, n) for the pentagon record, every record of three
    cover gadgets, and the seeded sparse records."""
    c = adversarial_coloring("pentagon_blowup", 10, 0)
    A = CliqueWitness(BLACK, mask_of([0, lowest(c.neighborhood(0, BLACK))]))
    yield c, build_sc(c, A, 0, 1), 1
    for args in ((4, 3, 8, 11), (3, 3, 2, 6), (4, 2, 2, 5)):
        c, A = cover_gadget(*args)
        for v in bits(A.members):
            yield c, build_sc(c, A, v, args[3]), args[3]
    yield from _seeded_records()


def test_build_sc_shadow_is_exact_capped_and_minimal():
    count = brute = 0
    for c, rec, n in _shadow_records():
        target = rec.deg_v + 1 - 2 * n
        assert _deficiency(c, rec, rec.S) == target
        assert rec.C.bit_count() <= 2 * n + 1 - rec.clique.size
        count += 1
        if rec.S.bit_count() > 12:
            continue
        brute += 1
        verts = bit_list(rec.S)
        for pick in range((1 << len(verts)) - 1):
            sub = mask_of(x for i, x in enumerate(verts) if pick >> i & 1)
            assert _deficiency(c, rec, sub) < target
    assert count >= 150 and brute >= 140


def test_sc_violation_names_each_corruption():
    # Not reachable by corrupting a real record: "S is not independent"
    # (S lies in X, which is independent once M is maximal) and the two
    # size caps, which follow from the checks before them because
    # |S| <= |N(v) minus A| = deg + 1 - |A|.
    c, A = cover_gadget(4, 3, 8, 11)
    rec = build_sc(c, A, 0, 11)
    assert sc_violation(c, rec, 11) is None
    blob = 12  # 12 and 13 are vertex 0's first blob vertices, white inside
    cases = [
        (replace(rec, v=blob), f"vertex {blob} not in the clique"),
        (
            replace(rec, clique=CliqueWitness(BLACK, A.members | 1 << blob)),
            "clique witness is not a clique",
        ),
        (replace(rec, deg_v=rec.deg_v + 1), "recorded degree is wrong"),
        (
            replace(rec, M=Matching(BLACK, ((1, 2),))),
            "matching edge (1,2) leaves N(v) minus A",
        ),
        (
            replace(rec, M=Matching(BLACK, ((blob, blob + 1),))),
            f"matching edge ({blob},{blob + 1}) has the wrong color",
        ),
        (replace(rec, S=rec.S | 1 << 1), "S leaves N(v) minus A and the matching"),
        (replace(rec, C=rec.C & ~(1 << 1)), "C is not the neighborhood of S inside A"),
        (replace(rec, S=1 << lowest(rec.S)), "|S|=1 < |C|+deg-2n=16"),
    ]
    for bad, message in cases:
        assert sc_violation(c, bad, 11) == message

    c, rec, n = next(r for r in _seeded_records() if r[1].M.edges)
    assert sc_violation(c, rec, n) is None
    assert (
        sc_violation(c, replace(rec, M=Matching(BLACK, ())), n)
        == "M is not maximal: an edge survives outside it"
    )


def _uneven_gadget(sizes, blob):
    """cover_gadget with groups of the given sizes: each clique vertex
    owns blob vertices joined in black to its whole group only."""
    a_size = sum(sizes)
    groups = []
    for size in sizes:
        first = sum(len(g) for g in groups)
        groups.append(range(first, first + size))
    adj = [0] * (a_size + a_size * blob)
    for u in range(a_size):
        adj[u] |= (1 << a_size) - 1 & ~(1 << u)
    for group in groups:
        for m in group:
            for j in range(blob):
                x = a_size + m * blob + j
                for u in group:
                    adj[x] |= 1 << u
                    adj[u] |= 1 << x
    return Coloring(len(adj), tuple(adj)), CliqueWitness(BLACK, (1 << a_size) - 1)


def test_cover_violation_names_each_corruption():
    # Not reachable by corrupting a real cover: "shadows ... intersect"
    # (a shared shadow vertex puts v_j in C_i, so v_j was already
    # covered), "marginal ... beats" (greedy maximality plus the
    # already-covered check) and "forces t >= ..." (|C| <= 2n+1-|A| per
    # record and coverage give t >= |A| / (2n+1-|A|), which is that bound).
    c, A = cover_gadget(4, 3, 8, 11)
    rec = compute_cover(c, A, 11)
    assert cover_violation(c, rec, 11) is None
    by_v = {v: build_sc(c, A, v, 11) for v in bits(A.members)}
    seq = rec.sequence
    cases = [
        (replace(rec, A=CliqueWitness(BLACK, 0b111)), "|A|=3 outside (n, 2n+1)"),
        (replace(rec, t=rec.t + 1), "t differs from the sequence length"),
        (replace(rec, t=0, sequence=()), "empty sequence"),
        (
            replace(rec, sequence=((3, by_v[0]),) + seq[1:]),
            "sequence entry for 3 is mislabeled",
        ),
        (
            replace(rec, sequence=(seq[0], (3, replace(by_v[3], deg_v=0))) + seq[2:]),
            "record at 3: recorded degree is wrong",
        ),
        (
            replace(rec, sequence=(seq[0], (1, by_v[1])) + seq[2:]),
            "v_2=1 already covered",
        ),
        (
            replace(rec, t=rec.t - 1, sequence=seq[:-1]),
            "contact sets do not cover the clique",
        ),
    ]
    for bad, message in cases:
        assert cover_violation(c, bad, 11) == message

    # the same cover checked against a coloring where vertex 1 also owns
    # 11 black blade pairs, so its shadow construction finds a fan
    adj = list(c._black) + [0] * 22
    for x in range(c.N, c.N + 22):
        adj[x] |= 1 << 1 | 1 << (x ^ 1)
        adj[1] |= 1 << x
    with_fan = Coloring(len(adj), tuple(adj))
    assert cover_violation(with_fan, rec, 11) == "fan available at 1; no cover should exist"

    c, A = _uneven_gadget((3, 3, 2), 2)
    rec = compute_cover(c, A, 5)
    assert [v for v, _ in rec.sequence] == [0, 3, 6]
    assert cover_violation(c, rec, 5) is None
    r6 = build_sc(c, A, 6, 5)  # C = {6, 7}
    bad = replace(rec, sequence=((6, r6),) + rec.sequence[1:])
    assert cover_violation(c, bad, 5) == "step 1 picked 6 but 0 covers more"


@pytest.mark.parametrize("args", [(4, 3, 8, 11), (5, 6, 8, 18), (4, 8, 8, 20)])
def test_cover_violation_builds_each_record_at_most_once(args, monkeypatch):
    c, A = cover_gadget(*args)
    n = args[3]
    rec = compute_cover(c, A, n)
    built = []

    def spy(*call):
        built.append(call[2])
        return build_sc(*call)

    monkeypatch.setattr(covering, "build_sc", spy)
    assert cover_violation(c, rec, n) is None
    assert len(built) == len(set(built)) <= A.members.bit_count()


def test_compute_cover_gadget_t4():
    c, A = cover_gadget(4, 3, 8, 11)
    out = compute_cover(c, A, 11)
    assert isinstance(out, CoverRecord)
    assert out.t == 4
    assert [v for v, _ in out.sequence] == [0, 3, 6, 9]
    for v, rec in out.sequence:
        assert rec.C == 0b111 << (v // 3 * 3)
        assert rec.S.bit_count() == 16
    assert cover_violation(c, out, 11) is None


def test_compute_cover_threshold_t3():
    # 9-vertex clique at n=6 sits above the two-thirds threshold, so any
    # cover needs at least three steps
    c, A = cover_gadget(3, 3, 2, 6)
    out = compute_cover(c, A, 6)
    assert isinstance(out, CoverRecord)
    assert out.t >= 3
    assert cover_violation(c, out, 6) is None


def test_compute_cover_contact_cap():
    # every contact set obeys |C| <= 2n+1-|A| = 3 at n=5, |A|=8
    c, A = cover_gadget(4, 2, 2, 5)
    out = compute_cover(c, A, 5)
    assert isinstance(out, CoverRecord)
    for _, rec in out.sequence:
        assert rec.C.bit_count() <= 3
    assert cover_violation(c, out, 5) is None


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


def test_compute_cover_rejects_a_non_clique_witness():
    c, A = cover_gadget(4, 3, 8, 11)
    adj = list(c._black)
    adj[0] &= ~(1 << 1)
    adj[1] &= ~(1 << 0)
    broken = Coloring(c.N, tuple(adj))  # pair (0,1) made white
    # a bad witness is the caller's error, not a bug-class InternalError
    # from build_sc or a fan in the unclaimed color; the message is the one
    # the cover command prints
    message = r"^not a {0} clique: pair \(0,1\) is not {0}$"
    with pytest.raises(PreconditionViolated, match=message.format("black")):
        compute_cover(broken, A, 11)
    with pytest.raises(PreconditionViolated, match=message.format("white")):
        compute_cover(c, CliqueWitness(WHITE, A.members), 11)


def test_cover_invariants_reject_mutations():
    c, A = cover_gadget(4, 3, 8, 11)
    rec = compute_cover(c, A, 11)
    assert cover_violation(c, rec, 11) is None

    # move one shadow vertex into another record's shadow
    (v1, r1), (v2, r2) = rec.sequence[0], rec.sequence[1]
    moved = lowest(r1.S)
    r2_bad = replace(r2, S=r2.S | 1 << moved)
    seq = (rec.sequence[0], (v2, r2_bad)) + rec.sequence[2:]
    assert cover_violation(c, CoverRecord(rec.A, rec.t, seq), 11) is not None

    # truncate a contact set so coverage fails
    r1_bad = replace(r1, C=r1.C & ~(1 << lowest(r1.C & ~(1 << v1))))
    seq = ((v1, r1_bad),) + rec.sequence[1:]
    assert cover_violation(c, CoverRecord(rec.A, rec.t, seq), 11) is not None

    # drop a whole step
    assert (
        cover_violation(c, CoverRecord(rec.A, rec.t - 1, rec.sequence[:-1]), 11)
        is not None
    )


def test_cover_violation_messages():
    c, A = cover_gadget(4, 3, 8, 11)
    rec = compute_cover(c, A, 11)
    assert cover_violation(c, rec, 11) is None
    bad = CoverRecord(rec.A, rec.t - 1, rec.sequence[:-1])
    assert "cover" in cover_violation(c, bad, 11)
