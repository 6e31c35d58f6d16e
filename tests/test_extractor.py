import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from fanram.bitset import bit_list, mask_of
from fanram.coloring import BLACK, WHITE, Coloring, context_of
from fanram.covering import CoverRecord, SCRecord, compute_cover
from fanram.errors import PreconditionViolated, UnreachableBranch
from fanram.extractor import (
    BlockerClique,
    ExtractionTrace,
    ResidueClique,
    _build_residue,
    _clique_pipeline,
    _find_blocker,
    _t4,
    _tail34,
    _two_cover,
    extract_fan,
    min_order,
)
from fanram.io import load_coloring, write_2col
from fanram.matching import Matching
from fanram.oracle import adversarial_coloring, random_coloring
from fanram.structures import CliqueWitness, FanCertificate, verify_fan
from gadgets import blocker_fixture, circulant, cover_gadget, split_fixture


def test_min_order_values():
    assert [min_order(n) for n in (1, 3, 6, 12)] == [20, 30, 46, 77]


def test_extract_all_black_fast_mode():
    c = Coloring.complete(46, BLACK)
    cert, trace = extract_fan(c, 6, mode="fast")
    assert cert.center == 0 and cert.color is BLACK
    assert len(cert.blades) == 6
    assert verify_fan(c, cert)
    assert trace.labels() == ["fast"]


def test_fast_mode_without_a_fan_is_unreachable(monkeypatch):
    # find_mono_fan is exact, so a miss at N >= min_order(n) is a bug the
    # case analysis must not hide behind another certificate
    monkeypatch.setattr("fanram.extractor.find_mono_fan", lambda *a, **k: None)
    with pytest.raises(UnreachableBranch) as exc:
        extract_fan(Coloring.complete(46, BLACK), 6, mode="fast")
    assert exc.value.label == "fast.no_fan"
    assert exc.value.details == {"N": 46, "n": 6}


def test_extract_all_black_faithful():
    c = Coloring.complete(46, BLACK)
    cert, trace = extract_fan(c, 6, mode="faithful")
    assert verify_fan(c, cert)
    assert "high_d.matching" in trace.labels()


def test_extract_all_white_is_symmetric():
    c = Coloring.complete(46, WHITE)
    cert, _ = extract_fan(c, 6, mode="faithful")
    assert cert.color is WHITE
    assert verify_fan(c, cert)


def test_extract_rejects_small_order():
    c = Coloring.complete(45, BLACK)
    with pytest.raises(PreconditionViolated):
        extract_fan(c, 6)
    # the one check of n: context_of takes only the coloring
    with pytest.raises(PreconditionViolated, match="^fan parameter must be >= 1, got 0$"):
        extract_fan(Coloring.complete(46, BLACK), 0)
    with pytest.raises(PreconditionViolated):
        extract_fan(Coloring.complete(46, BLACK), 6, mode="bogus")


def test_extract_seeded_random_corpus():
    for seed in range(30):
        c = random_coloring(46, seed, (0.2, 0.5, 0.8)[seed % 3])
        cert, trace = extract_fan(c, 6, mode="faithful")
        assert verify_fan(c, cert)
        assert len(cert.blades) == 6


def test_extract_perspective_symmetry():
    for seed in range(10):
        c = random_coloring(46, seed, 0.5)
        cert, _ = extract_fan(c, 6, mode="faithful")
        swapped_cert, _ = extract_fan(c.swap_colors(), 6, mode="faithful")
        mapped = FanCertificate(
            swapped_cert.color.swap(),
            swapped_cert.center,
            swapped_cert.blades,
            swapped_cert.n_claimed,
        )
        assert verify_fan(c, cert)
        assert verify_fan(c, mapped)


def test_extract_deterministic():
    for seed in (1, 17):
        c = adversarial_coloring("clique_plus_noise", 46, seed)
        a_cert, a_trace = extract_fan(c, 6, mode="faithful")
        b_cert, b_trace = extract_fan(c, 6, mode="faithful")
        assert a_cert.to_json() == b_cert.to_json()
        assert a_trace.to_json() == b_trace.to_json()


def test_extract_adversarial_families():
    for kind in ("bipartite_blowup", "pentagon_blowup", "clique_plus_noise"):
        for seed in range(6):
            c = adversarial_coloring(kind, 46, seed)
            cert, _ = extract_fan(c, 6, mode="faithful")
            assert verify_fan(c, cert)


def test_fast_and_faithful_agree_on_existence():
    # both modes must always succeed above the guaranteed order, even if
    # the certificates differ
    for kind in ("bipartite_blowup", "pentagon_blowup", "clique_plus_noise"):
        c = adversarial_coloring(kind, 46, seed=11)
        fast_cert, fast_trace = extract_fan(c, 6, mode="fast")
        faithful_cert, _ = extract_fan(c, 6, mode="faithful")
        assert verify_fan(c, fast_cert) and verify_fan(c, faithful_cert)
        assert fast_trace.labels()[0] == "fast"


def test_mid_band_dispatch_on_regular_circulant():
    # all degrees 45/46 on 92 vertices: d = 46 sits inside the mid band
    c = circulant(92, list(range(1, 23)) + [46])
    ctx = context_of(c)
    assert Fraction(8 * 15, 3) + 6 <= ctx.d < Fraction(11 * 15, 4) + 5
    cert, trace = extract_fan(c, 15, mode="faithful")
    assert verify_fan(c, cert)
    assert "mid.search" in trace.labels()


def test_low_band_dispatch_on_regular_circulant():
    c = circulant(97, range(1, 25))
    ctx = context_of(c)
    assert ctx.d < Fraction(8 * 16, 3) + 6
    cert, trace = extract_fan(c, 16, mode="faithful")
    assert verify_fan(c, cert)
    assert "low.search" in trace.labels()


@pytest.mark.parametrize(
    "n, d, band", [(20, 59, "low"), (21, 62, "mid"), (24, 71, "high_d")]
)
def test_split_fixture_reaches_the_clique_branch(n, d, band):
    # cc = 3n + 4 - d = 5, the first cc at which find_unavoidable_structure
    # can return a clique; without the clique search's coloring bound the
    # n = 20 search walks every subset of the n - 1 black clique X
    c = split_fixture(n, d)
    assert c.N == min_order(n)
    assert {c.degree(v, BLACK) for v in range(c.N)} == {d - 1, d}
    assert context_of(c).d_witness == (0, BLACK)
    cert, trace = extract_fan(c, n, mode="faithful")
    assert verify_fan(c, cert)
    assert trace.labels() == ["context", f"{band}.search", "clique", "cover_fan"]


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("n, d", [(20, 59), (21, 62), (24, 71)])
def test_frozen_split_fixture_files(n, d):
    # the only digest over the clique and cover_fan steps: the .2col file
    # is the fixture's text, and its faithful extraction is the frozen
    # certificate and trace, byte for byte
    stem = DATA / f"split_{n}_{d}"
    path = stem.with_suffix(".2col")
    assert write_2col(split_fixture(n, d)).encode() == path.read_bytes()
    cert, trace = extract_fan(load_coloring(path), n, "faithful")
    assert cert.to_json().encode() == stem.with_suffix(".cert.json").read_bytes()
    assert trace.to_json().encode() == stem.with_suffix(".trace.json").read_bytes()


def test_extract_dispatch_follows_d_band():
    # the d band alone picks the case, whichever color the witness has
    mid = circulant(92, list(range(1, 23)) + [46])
    low = circulant(97, range(1, 25))
    for c, n, step in (
        (mid, 15, "mid.search"),
        (mid.swap_colors(), 15, "mid.search"),
        (low, 16, "low.search"),
        (low.swap_colors(), 16, "low.search"),
    ):
        cert, trace = extract_fan(c, n, mode="faithful")
        assert verify_fan(c, cert)
        assert trace.labels() == ["context", step]


def test_case_high_d_direct():
    # d = 45 at n=6 is far above every band threshold: the high-d case
    # answers at once in either witness color and never reaches big3
    for col in (BLACK, WHITE):
        c = Coloring.complete(46, col)
        cert, trace = extract_fan(c, 6, mode="faithful")
        assert cert.color is col and verify_fan(c, cert)
        assert trace.labels() == ["context", "high_d.matching"]


def test_case_big3_wrapper_validates():
    # big3 needs d below the low threshold and a big clique: a 3-step
    # cover of a 9-clique at n=6 (big means >= 7n/6+5 = 12) reaches big3
    # neither from the high-d band nor from the low band, in either color
    c, A = cover_gadget(3, 3, 2, 6)
    for cw, clique in ((c, A), (c.swap_colors(), CliqueWitness(WHITE, A.members))):
        cover = compute_cover(cw, clique, 6)
        assert isinstance(cover, CoverRecord) and cover.t == 3
        for band, label in (("high_d", "high_d.cover_t"), ("low", "low.t3_not_big")):
            trace = ExtractionTrace(6, cw.N, "case")
            with pytest.raises(UnreachableBranch, match=label):
                _clique_pipeline(cw, 6, clique, trace, band)
            assert not any(s.startswith("big3") for s in trace.labels())


def test_high_d_white_fan_fallback():
    # a black star over an otherwise white graph: the witness has full
    # black degree but its neighborhood is black-matching-free, so the
    # fallback must find the white fan inside the neighborhood
    N = 46
    adj = [0] * N
    adj[0] = ((1 << N) - 1) ^ 1
    for v in range(1, N):
        adj[v] = 1
    c = Coloring(N, tuple(adj))
    cert, trace = extract_fan(c, 6, mode="faithful")
    assert verify_fan(c, cert)
    assert cert.color is WHITE
    assert "high_d.white_fan" in trace.labels()


def test_case_t4_on_cover_gadget():
    c, A = cover_gadget(4, 3, 8, 11)
    cover = compute_cover(c, A, 11)
    assert isinstance(cover, CoverRecord) and cover.t == 4
    cert = _t4(c, 11, A, cover, ExtractionTrace(11, c.N, "case"))
    assert verify_fan(c, cert)
    assert cert.color is WHITE
    assert cert.center == cover.sequence[-1][0]
    # the pipeline routes this cover to the same step
    trace = ExtractionTrace(11, c.N, "case")
    assert _clique_pipeline(c, 11, A, trace, "low") == cert
    assert trace.labels() == ["clique", "cover", "t4"]


def test_case_t4_unreachable_when_shadows_stripped():
    # a gutted cover cannot carry n blades, and the failure is loud
    c, A = cover_gadget(4, 3, 8, 11)
    cover = compute_cover(c, A, 11)
    seq = tuple(
        (v, replace(r, S=mask_of(bit_list(r.S)[:2]))) for v, r in cover.sequence
    )
    gutted = CoverRecord(A, cover.t, seq)
    with pytest.raises(UnreachableBranch) as exc:
        _t4(c, 11, A, gutted, ExtractionTrace(11, c.N, "case"))
    assert exc.value.label == "t4.count"


def _fake_cover(A, s1, s2, c1, c2, c3):
    def rec(v, S, C):
        return (
            v,
            SCRecord(
                v=v,
                clique=A,
                S=S,
                C=C,
                M=Matching(BLACK, ()),
                Mp=Matching(BLACK, ()),
                deg_v=0,
            ),
        )

    return CoverRecord(A=A, t=3, sequence=(rec(0, s1, c1), rec(1, s2, c2), rec(2, 0, c3)))


def _blocker(c, cover):
    trace = ExtractionTrace(7, c.N, "case")
    return _find_blocker(c, 7, cover, Fraction(5 * 7, 12) + 6, trace, "mid")


def test_find_T_witness_returns_blocker():
    c, S1, S2, T = blocker_fixture(6, cross_black=False)
    A = CliqueWitness(BLACK, 0b111)
    cover = _fake_cover(A, S1, S2, 1 << 0, 1 << 1, 1 << 2)
    out = _blocker(c, cover)
    assert isinstance(out, BlockerClique)
    assert out.members == T
    assert out.boundary == 0
    assert out.members.bit_count() - out.boundary.bit_count() > out.threshold


def test_find_T_witness_returns_fan_when_shadows_are_rich():
    c, S1, S2, _ = blocker_fixture(8, cross_black=False)
    A = CliqueWitness(BLACK, 0b111)
    cover = _fake_cover(A, S1, S2, 1 << 0, 1 << 1, 1 << 2)
    out = _blocker(c, cover)
    assert isinstance(out, FanCertificate)
    assert out.center == 2 and out.color is WHITE
    assert verify_fan(c, out)


def test_find_T_witness_white_perspective():
    # the same instance seen through swapped colors with a white clique
    # witness must produce the identical blocker
    c, S1, S2, T = blocker_fixture(6, cross_black=False)
    cs = c.swap_colors()
    A = CliqueWitness(WHITE, 0b111)
    cover = _fake_cover(A, S1, S2, 1 << 0, 1 << 1, 1 << 2)
    out = _blocker(cs, cover)
    assert isinstance(out, BlockerClique)
    assert out.members == T


def test_find_T_witness_requires_three_cover():
    # the pipeline reaches the blocker search only through the 3-cover
    # endgame
    for args, t in (((4, 3, 8, 11), 4), ((2, 7, 4, 12), 2), ((3, 9, 3, 18), 3)):
        c, A = cover_gadget(*args)
        trace = ExtractionTrace(args[3], c.N, "case")
        assert verify_fan(c, _clique_pipeline(c, args[3], A, trace, "low"))
        assert trace.steps[1] == {"case": "cover", "t": t, "size": A.size}
        blocker_steps = [x for x in trace.labels() if ".blocker" in x]
        assert blocker_steps == (["big3.blocker_fan"] if t == 3 else [])


def test_build_C_witness_residue():
    c, S1, S2, T = blocker_fixture(6, cross_black=False)
    blocker = BlockerClique(members=T, boundary=0, threshold=Fraction(8))
    trace = ExtractionTrace(7, c.N, "case")
    out = _build_residue(c, BLACK, 7, S1, S2, blocker, trace, "mid")
    assert isinstance(out, ResidueClique)
    assert out.members == S1 | S2
    assert out.removed_matching == ()


def test_build_C_witness_black_fan_when_carving_fails():
    c, S1, S2, T = blocker_fixture(6, cross_black=True)
    blocker = BlockerClique(members=T, boundary=0, threshold=Fraction(8))
    trace = ExtractionTrace(7, c.N, "case")
    out = _build_residue(c, BLACK, 7, S1, S2, blocker, trace, "mid")
    assert isinstance(out, FanCertificate)
    assert out.color is BLACK
    assert T >> out.center & 1
    assert verify_fan(c, out)


def test_tail34_final_construction_end_to_end():
    # s1=5, s2=7, |T|=9 at n=6: the v3 fan misses by one, the blocker and
    # residue land, and the first final construction reaches 6 blades
    c, S1, S2, T = blocker_fixture(5, cross_black=False, s2_size=7, t_size=9)
    A = CliqueWitness(BLACK, 0b111)
    cover = _fake_cover(A, S1, S2, 1 << 0, 1 << 1, 1 << 2)
    trace = ExtractionTrace(6, c.N, "case")
    cert = _tail34(c, 6, A, cover, trace, "big3")
    assert verify_fan(c, cert)
    assert cert.color is WHITE
    assert cert.center == bit_list(S1)[0]
    assert "big3.final1" in trace.labels()
    assert "big3.blocker" in trace.labels()
    assert "big3.residue" in trace.labels()


def test_tail34_residual_fan_when_third_contact_is_marginal():
    # zero third-step marginal at big3 pairs the two shadows directly
    c, S1, S2, T = blocker_fixture(7, cross_black=False, s2_size=7, t_size=9)
    A = CliqueWitness(BLACK, 0b111)
    cover = _fake_cover(A, S1, S2, 1 << 0, 1 << 1, 1 << 0)
    trace = ExtractionTrace(6, c.N, "case")
    cert = _tail34(c, 6, A, cover, trace, "big3")
    assert verify_fan(c, cert)
    assert cert.center == 2
    assert "big3.residual_fan" in trace.labels()


def test_two_cover_carves_and_resolves():
    # a two-step cover at n=12: the carved clique's own shadow
    # construction finds the fan while covering
    c, A = cover_gadget(2, 7, 4, 12)
    cover = compute_cover(c, A, 12)
    assert isinstance(cover, CoverRecord) and cover.t == 2
    trace = ExtractionTrace(12, c.N, "case")
    cert = _two_cover(c, 12, A, cover, trace)
    assert verify_fan(c, cert)
    assert "two_cover.pair" in trace.labels()
    assert "two_cover.cover_a_fan" in trace.labels()


def test_two_cover_shadow_fan_branch():
    # at n=9 the carve target exceeds 2n+1, so one shadow already holds a
    # whole fan as a white clique
    c, A = cover_gadget(2, 5, 5, 9)
    cover = compute_cover(c, A, 9)
    assert isinstance(cover, CoverRecord) and cover.t == 2
    trace = ExtractionTrace(9, c.N, "case")
    cert = _two_cover(c, 9, A, cover, trace)
    assert verify_fan(c, cert)
    assert cert.color is WHITE
    assert "two_cover.shadow_fan" in trace.labels()


def _pipeline_on_gadget(groups, group_size, blob, n):
    c, A = cover_gadget(groups, group_size, blob, n)

    def run(cc, col):
        trace = ExtractionTrace(n, cc.N, "case")
        out = _clique_pipeline(cc, n, CliqueWitness(col, A.members), trace, "low")
        return out, trace

    return c, run


def _blocker_then_residue(s1_size, cross_black):
    c, S1, S2, _ = blocker_fixture(s1_size, cross_black=cross_black)
    n = 7

    def run(cc, col):
        trace = ExtractionTrace(n, cc.N, "case")
        cover = _fake_cover(CliqueWitness(col, 0b111), S1, S2, 1 << 0, 1 << 1, 1 << 2)
        out = _find_blocker(cc, n, cover, Fraction(5 * n, 12) + 6, trace, "mid")
        if isinstance(out, BlockerClique):
            out = _build_residue(cc, col, n, S1, S2, out, trace, "mid")
        return out, trace

    return c, run


@pytest.mark.parametrize(
    "make, args",
    [
        (_pipeline_on_gadget, (4, 3, 8, 11)),
        (_pipeline_on_gadget, (2, 7, 4, 12)),
        (_pipeline_on_gadget, (2, 5, 5, 9)),
        (_pipeline_on_gadget, (3, 9, 3, 18)),
        (_blocker_then_residue, (6, False)),
        (_blocker_then_residue, (6, True)),
        (_blocker_then_residue, (8, False)),
    ],
    ids=[
        "t4",
        "two_cover.cover_a_fan",
        "two_cover.shadow_fan",
        "big3.blocker_fan",
        "blocker.residue",
        "blocker.residue_fan",
        "blocker_fan",
    ],
)
def test_steps_are_color_symmetric(make, args):
    # a black clique in c and a white clique in the swapped coloring take
    # the same steps to the same fan, in the opposite color
    c, run = make(*args)
    out_b, trace_b = run(c, BLACK)
    out_w, trace_w = run(c.swap_colors(), WHITE)
    if isinstance(out_b, FanCertificate):
        assert verify_fan(c, out_b)
        out_b = replace(out_b, color=out_b.color.swap())
    assert out_w == out_b
    assert trace_w.steps == trace_b.steps


def test_trace_json_shape():
    c = Coloring.complete(46, BLACK)
    cert, trace = extract_fan(c, 6, mode="faithful")
    doc = json.loads(trace.to_json())
    assert doc["mode"] == "faithful"
    assert doc["certificate"] == cert.to_json_dict()
    assert all("case" in step for step in doc["steps"])
    assert doc["steps"][0]["case"] == "context"
