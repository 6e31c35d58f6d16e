"""Constructive fan extraction from large 2-colored complete graphs.

Any coloring on at least floor(31n/6) + 15 vertices contains a
monochromatic fan with n blades, and the argument behind that bound is a
case analysis on d, the largest degree in either color, driven by clique
covers.  This module walks that analysis constructively: each step either
assembles a verified FanCertificate directly or produces the witness the
next step consumes (a clique, a cover, a blocker clique, a residue
clique).  Counting steps that can never fail on valid inputs raise
UnreachableBranch when they do; one of those firing is a bug report, not
an answer.

All fractional thresholds are compared in exact rational arithmetic.
The color of the d-witness is the one perspective boundary: the degree
cases read it as black, so _faithful swaps the coloring once when the
witness is white and maps the certificate color back on exit.  Every step
below the degree cases takes its colors from the clique or cover it is
handed (col, and opp = col.swap()) and builds its certificates directly
in the coloring it receives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .bitset import bit_list, lowest, mask_of
from .coloring import BLACK, WHITE, Coloring, context_of
from .covering import CoverRecord, compute_cover
from .errors import InternalError, PreconditionViolated, UnreachableBranch
from .matching import greedy_bipartite_matching, max_deficiency_certificate
from .structures import (
    CliqueWitness,
    FanCertificate,
    _FanBuilder,
    _must_verify,
    fan_from_clique,
    fan_violation,
    find_mono_fan,
    find_unavoidable_structure,
    is_clique,
    split_graph_fan,
)


def min_order(n: int) -> int:
    """Smallest N the extractor accepts: floor(31n/6) + 15."""
    return 31 * n // 6 + 15


def _thr_high(n: int) -> Fraction:
    return Fraction(11 * n, 4) + 5


def _thr_low(n: int) -> Fraction:
    return Fraction(8 * n, 3) + 6


def _thr_big(n: int) -> Fraction:
    return Fraction(7 * n, 6) + 5


@dataclass(frozen=True)
class BlockerClique:
    """A clique in the cover's color inside the last cover vertex's
    opposite neighborhood whose opposite boundary into the first two
    shadows is small: its size exceeds the boundary size by more than the
    threshold."""

    members: int
    boundary: int
    threshold: Fraction


@dataclass(frozen=True)
class ResidueClique:
    """The opposite-color clique left after deleting the blocker boundary
    and a maximal matching in the cover's color between the two shadows."""

    members: int
    removed_boundary: int
    removed_matching: tuple[tuple[int, int], ...]


class ExtractionTrace:
    """Ordered step log of one extraction, plus the covers it used.

    steps is JSON-ready; records holds (working coloring, CoverRecord) for
    each cover a step dispatched on, for invariant audits.  The working
    coloring is the swapped one when the d-witness is white.  This module
    is the only writer of both.
    """

    def __init__(self, n: int, N: int, mode: str):
        self.n = n
        self.N = N
        self.mode = mode
        self.steps: list[dict] = []
        self.certificate: FanCertificate | None = None
        self.records: list[tuple[Coloring, CoverRecord]] = []

    def record(self, case: str, **info) -> None:
        self.steps.append({"case": case, **info})

    def labels(self) -> list[str]:
        return [s["case"] for s in self.steps]

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.n,
            "N": self.N,
            "steps": self.steps,
            "certificate": (
                self.certificate.to_json_dict() if self.certificate else None
            ),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _finish(
    fb: _FanBuilder, n: int, trace: ExtractionTrace, label: str, short: str, **details
) -> FanCertificate:
    """The verified fan of fb, recorded on trace as label; falling short of
    n blades is the unreachable branch named short."""
    cert = fb.build(n)
    if cert is None:
        raise UnreachableBranch(short, blades=fb.count(), **details)
    trace.record(label, center=fb.center)
    return cert


def extract_fan(
    c: Coloring, n: int, mode: str = "faithful"
) -> tuple[FanCertificate, ExtractionTrace]:
    """Extract a verified monochromatic fan with n blades.

    Requires N >= floor(31n/6) + 15.  fast mode scans for any fan per
    color; faithful mode runs the case analysis.
    """
    if n < 1:
        raise PreconditionViolated(f"fan parameter must be >= 1, got {n}")
    if mode not in ("fast", "faithful"):
        raise PreconditionViolated(f"unknown mode {mode!r}")
    need = min_order(n)
    if c.N < need:
        raise PreconditionViolated(
            f"N={c.N} is below the guaranteed order {need} for n={n}"
        )
    trace = ExtractionTrace(n=n, N=c.N, mode=mode)

    if mode == "faithful":
        cert = _faithful(c, n, trace)
    else:
        for col in (BLACK, WHITE):
            cert = find_mono_fan(c, col, n)
            if cert is not None:
                trace.record("fast", color=col.value, center=cert.center)
                break
        else:
            # find_mono_fan is exact and N >= min_order(n) holds a fan
            raise UnreachableBranch("fast.no_fan", N=c.N, n=n)

    violation = fan_violation(c, cert)
    if violation is not None:
        raise InternalError(f"extractor produced a bad certificate: {violation}")
    trace.certificate = cert
    return cert, trace


def _faithful(c: Coloring, n: int, trace: ExtractionTrace) -> FanCertificate:
    ctx = context_of(c)
    w, col = ctx.d_witness
    trace.record("context", d=ctx.d, witness=w, witness_color=col.value)
    cw = c if col is BLACK else c.swap_colors()
    if ctx.d >= _thr_high(n):
        cert = _high_d(cw, n, ctx.d, w, trace)
    else:
        band = "mid" if ctx.d >= _thr_low(n) else "low"
        cert = _band_entry(cw, n, ctx.d, w, trace, band)
    if col is BLACK:
        return cert
    return FanCertificate(cert.color.swap(), cert.center, cert.blades, cert.n_claimed)


def _high_d(cw: Coloring, n: int, d: int, w: int, trace: ExtractionTrace):
    H = cw.neighborhood(w, BLACK)
    if d > 3 * n:
        # a scope beyond 3n vertices always has a black n-matching or a
        # white fan; the witness turns the matching into a black fan
        found = find_mono_fan(cw, BLACK, n, centers=1 << w)
        if found is not None:
            trace.record("high_d.matching", center=w)
            return found
        found = find_mono_fan(cw, WHITE, n, H)
        if found is not None:
            trace.record("high_d.white_fan", center=found.center)
            return found
        raise UnreachableBranch("high_d.small_ramsey", d=d, n=n)
    return _band_entry(cw, n, d, w, trace, "high_d")


def _band_entry(
    cw: Coloring, n: int, d: int, w: int, trace: ExtractionTrace, band: str
):
    H = cw.neighborhood(w, BLACK)
    cc = 3 * n + 4 - d
    if not (0 < cc < Fraction(5 * n, 8)) or H.bit_count() != 3 * n - cc + 4:
        raise UnreachableBranch(f"{band}.search_window", d=d, cc=cc)
    kind, found = find_unavoidable_structure(cw, BLACK, H, n, cc)
    trace.record(f"{band}.search", cc=cc, outcome=kind)
    if kind == "matching":
        return _must_verify(cw, FanCertificate(BLACK, w, found.edges, n))
    if kind == "complement_fan":
        return found
    return _clique_pipeline(cw, n, found, trace, band)


def _clique_pipeline(
    c: Coloring, n: int, clique: CliqueWitness, trace: ExtractionTrace, band: str
):
    """Route a discovered monochromatic clique: a huge clique is already a
    fan; otherwise cover it and dispatch on the cover length."""
    size = clique.size
    trace.record("clique", size=size, band=band)
    if size >= 2 * n + 1:
        trace.record("clique_fan")
        return fan_from_clique(c, clique, n)
    cover = compute_cover(c, clique, n)
    if isinstance(cover, FanCertificate):
        trace.record("cover_fan")
        return cover
    trace.records.append((c, cover))
    trace.record("cover", t=cover.t, size=size)
    if cover.t >= 4:
        return _t4(c, n, clique, cover, trace)
    if band == "high_d":
        raise UnreachableBranch("high_d.cover_t", t=cover.t, size=size)
    if band == "mid":
        if cover.t == 3:
            return _tail34(c, n, clique, cover, trace, "mid")
        raise UnreachableBranch("mid.cover_t", t=cover.t, size=size)
    if cover.t == 3:
        if size >= _thr_big(n):
            return _tail34(c, n, clique, cover, trace, "big3")
        raise UnreachableBranch("low.t3_not_big", size=size, n=n)
    return _two_cover(c, n, clique, cover, trace)


def _t4(
    c: Coloring,
    n: int,
    A: CliqueWitness,
    cover: CoverRecord,
    trace: ExtractionTrace,
):
    """Cover of length >= 4: the last cover vertex centers a fan in the
    opposite color whose blades pair up each earlier shadow internally."""
    vt = cover.sequence[-1][0]
    fb = _FanBuilder(c, A.color.swap(), vt)
    for _, rec in cover.sequence[:-1]:
        fb.pair_within(rec.S)
    cert = fb.build(n)
    if cert is None:
        raise UnreachableBranch(
            "t4.count", blades=fb.count(), need=n, t=cover.t, size=A.size
        )
    trace.record("t4", t=cover.t, center=vt)
    return cert


def _unbalanced_vertex(
    c: Coloring, n: int, A: CliqueWitness, vi: int, trace: ExtractionTrace
):
    """A cover vertex with low degree in A's color has a huge opposite
    neighborhood; search it with the opposite color as the working color
    and convert every outcome."""
    col = A.color
    opp = col.swap()
    cc = n // 3 - 4
    need = 3 * n - cc + 4
    NW = c.neighborhood(vi, opp)
    if cc < 1 or NW.bit_count() < need:
        raise UnreachableBranch(
            "mid.unbalanced.window", vertex=vi, cc=cc, white_degree=NW.bit_count()
        )
    scope = mask_of(bit_list(NW)[:need])
    kind, found = find_unavoidable_structure(c, opp, scope, n, cc)
    trace.record("mid.unbalanced", vertex=vi, outcome=kind)
    if kind == "matching":
        # an opp matching: blades for an opp fan at vi, whose opp
        # neighborhood contains the scope
        return _must_verify(c, FanCertificate(opp, vi, found.edges, n))
    if kind == "complement_fan":
        return found
    if kind == "clique":
        # an opp clique; pair it against A, which is disjoint from the
        # scope
        B = found.members
        if B & A.members:
            raise InternalError("opposite-neighborhood clique meets the base clique")
        k = min(A.size, B.bit_count())
        sub_a = mask_of(bit_list(A.members)[:k])
        sub_b = mask_of(bit_list(B)[:k])
        cert = split_graph_fan(c, col, sub_a, sub_b)
        if len(cert.blades) < n:
            raise UnreachableBranch(
                "mid.unbalanced.split_short", blades=len(cert.blades), need=n
            )
        return _must_verify(
            c, FanCertificate(cert.color, cert.center, cert.blades[:n], n)
        )
    raise UnreachableBranch(
        "mid.unbalanced.black_clique",
        vertex=vi,
        clique_size=found.size,
        base_size=A.size,
    )


def _find_blocker(
    c: Coloring,
    n: int,
    cover: CoverRecord,
    threshold: Fraction,
    trace: ExtractionTrace,
    label: str,
):
    """Opp fan at the last cover vertex, or the blocker clique that
    obstructs it (col is the cover's clique color, opp the other).

    The fan is _FanBuilder.match_into(T', S1, S2): a maximal opp matching
    M inside T' (the opp neighborhood of v3 minus both shadows), a maximum
    opp matching M' from the rest of T' into the shadows, and the shadow
    leftovers paired up.
    If that falls short of n blades, the Hall violator of the M' instance
    is a col clique whose advantage over its opp boundary exceeds the
    threshold.
    """
    col = cover.A.color
    opp = col.swap()
    (v1, r1), (v2, r2), (v3, r3) = cover.sequence[:3]
    fb = _FanBuilder(c, opp, v3)
    Tp = c.neighborhood(v3, opp) & ~(r1.S | r2.S)
    _, Mp, X, S12 = fb.match_into(Tp, r1.S, r2.S)
    cert = fb.build(n)
    if cert is not None:
        trace.record(f"{label}.blocker_fan", center=v3)
        return cert
    defc = max_deficiency_certificate(c, Mp, X, S12)
    T, NT = defc.S, defc.NS
    if not T or T.bit_count() - NT.bit_count() <= threshold:
        raise UnreachableBranch(
            f"{label}.blocker_deficiency",
            deficiency=defc.deficiency,
            blades=fb.count(),
        )
    if not is_clique(c, col, T):
        raise InternalError("unmatched side of a maximal matching is not a clique")
    trace.record(
        f"{label}.blocker", size=T.bit_count(), boundary=NT.bit_count()
    )
    return BlockerClique(members=T, boundary=NT, threshold=threshold)


def _build_residue(
    c: Coloring,
    col,
    n: int,
    S1: int,
    S2: int,
    blocker: BlockerClique,
    trace: ExtractionTrace,
    label: str,
):
    """The large opp clique carved out of the shadows, or the col fan
    centered in the blocker that materializes when the carving is small
    (col is the cover's clique color, the blocker's color)."""
    opp = col.swap()
    T, NT = blocker.members, blocker.boundary
    S12 = S1 | S2
    mb = greedy_bipartite_matching(c, col, S1 & ~NT, S2 & ~NT)
    removed = mb.vertex_mask()
    Cset = S12 & ~NT & ~removed
    size_t = T.bit_count()
    bound = (
        S1.bit_count() + S2.bit_count() - NT.bit_count() - 2 * n + 2 * size_t - 6
    )
    if Cset.bit_count() >= bound:
        if not (Cset & S1) or not (Cset & S2):
            raise UnreachableBranch(
                f"{label}.residue_sides", size=Cset.bit_count(), bound=bound
            )
        if not is_clique(c, opp, Cset):
            raise InternalError("residue set is not a clique")
        trace.record(f"{label}.residue", size=Cset.bit_count(), bound=bound)
        return ResidueClique(
            members=Cset, removed_boundary=NT, removed_matching=mb.edges
        )
    # carving came out small: a col fan at any blocker vertex is due
    z = lowest(T)
    fb = _FanBuilder(c, col, z)
    if size_t <= n + 3:
        fb.add_edges(mb.edges)
        fb.pair_across(T, S12 & ~NT & ~removed)
        fb.pair_within(T)
    else:
        fb.pair_across(T, S12 & ~NT)
        fb.pair_within(T)
    return _finish(
        fb,
        n,
        trace,
        f"{label}.residue_fan",
        f"{label}.residue_count",
        blocker=size_t,
        boundary=NT.bit_count(),
        shadow_sum=S1.bit_count() + S2.bit_count(),
    )


def _tail34(
    c: Coloring,
    n: int,
    A: CliqueWitness,
    cover: CoverRecord,
    trace: ExtractionTrace,
    variant: str,
):
    """Shared endgame for covers of length exactly 3.

    variant "mid" is the band 8n/3+6 <= d < 11n/4+5 (larger clique,
    degree claim enforced constructively); "big3" is d < 8n/3+6 with a
    big clique.  Thresholds differ; the shape is the same: find the
    blocker clique, carve the residue clique, then center an opp fan at
    a residue vertex inside one of the shadows.
    """
    col = A.color
    opp = col.swap()
    members = A.members
    (v1, r1), (v2, r2), (v3, r3) = cover.sequence
    S1, S2 = r1.S, r2.S
    C1, C2, C3 = r1.C, r2.C, r3.C

    if variant == "mid":
        floor_deg = Fraction(5 * n, 2) + 5
        for vi, ri in cover.sequence:
            if ri.deg_v < floor_deg:
                return _unbalanced_vertex(c, n, A, vi, trace)
        threshold = Fraction(5 * n, 12) + 6
        split = Fraction(n, 6)
    else:
        threshold = Fraction(n, 2) + 5
        split = Fraction(n, 3)
        marg3 = (C3 & ~(C1 | C2)).bit_count()
        if marg3 < Fraction(n, 6):
            # the third contact set adds little, so the first two shadows
            # alone carry an opp fan at v3
            fb = _FanBuilder(c, opp, v3)
            fb.pair_within(S1)
            fb.pair_within(S2)
            return _finish(
                fb, n, trace, "big3.residual_fan", "big3.residual_count", marg3=marg3
            )

    blocker = _find_blocker(c, n, cover, threshold, trace, variant)
    if isinstance(blocker, FanCertificate):
        return blocker
    residue = _build_residue(c, col, n, S1, S2, blocker, trace, variant)
    if isinstance(residue, FanCertificate):
        return residue
    Cm = residue.members

    if (Cm & S2).bit_count() > split:
        a1 = lowest(Cm & S1)
        if S1.bit_count() <= (members & ~C1).bit_count():
            raise UnreachableBranch(
                f"{variant}.s1_vs_rest",
                s1=S1.bit_count(),
                rest=(members & ~C1).bit_count(),
            )
        fb = _FanBuilder(c, opp, a1)
        fb.pair_across(members & ~C1, S1)
        fb.pair_within(S1)
        fb.pair_within(Cm & S2)
        return _finish(fb, n, trace, f"{variant}.final1", f"{variant}.final1_count")

    a2 = lowest(Cm & S2)
    if variant == "big3" and C2.bit_count() < Fraction(5 * n, 18):
        fb = _FanBuilder(c, opp, a2)
        fb.pair_across(C3 & ~(C1 | C2), Cm & S1)
        fb.pair_within(Cm & S1)
        fb.pair_across(S2, members & ~C2)
        fb.pair_within(S2)
        return _finish(fb, n, trace, "big3.final3", "big3.final3_count")

    fb = _FanBuilder(c, opp, a2)
    fb.pair_across(S2, members & ~C2)
    fb.pair_within(S2)
    fb.pair_within(Cm & S1)
    return _finish(fb, n, trace, f"{variant}.final2", f"{variant}.final2_count")


def _two_cover(
    c: Coloring,
    n: int,
    C0: CliqueWitness,
    cover2: CoverRecord,
    trace: ExtractionTrace,
):
    """Cover of length 2 in the low band: carve two same-colored cliques
    out of the two shadows and intersect their own shadows."""
    (u1, q1), (u2, q2) = cover2.sequence
    if q1.S.bit_count() < q2.S.bit_count():
        q1, q2 = q2, q1
    target = 7 * n // 3 + 18
    total = q1.S.bit_count() + q2.S.bit_count()
    if total < target:
        raise UnreachableBranch("two_cover.shadow_sum", total=total, target=target)
    size_a = max(-(-target // 2), target - q2.S.bit_count())
    # the shadows are independent in C0's color: the carved cliques live
    # in the opposite color
    carved = C0.color.swap()
    if size_a >= 2 * n + 1:
        trace.record("two_cover.shadow_fan")
        sub = mask_of(bit_list(q1.S)[: 2 * n + 1])
        return fan_from_clique(c, CliqueWitness(carved, sub), n)
    A = mask_of(bit_list(q1.S)[:size_a])
    B = mask_of(bit_list(q2.S)[: target - size_a])
    trace.record("two_cover.pair", a=size_a, b=target - size_a)
    return _two_cover_core(c, carved, n, A, B, trace)


def _two_cover_core(
    c: Coloring, col, n: int, A: int, B: int, trace: ExtractionTrace
):
    """Cover the two carved col cliques A and B, and center an opp fan in
    the intersection of their first overlapping shadows."""
    opp = col.swap()
    Aw = CliqueWitness(col, A)
    cover_a = compute_cover(c, Aw, n)
    if isinstance(cover_a, FanCertificate):
        trace.record("two_cover.cover_a_fan")
        return cover_a
    trace.records.append((c, cover_a))
    if cover_a.t >= 4:
        return _t4(c, n, Aw, cover_a, trace)
    if cover_a.t == 3:
        # the carve was big, so a 3-cover re-enters the big-clique endgame
        return _tail34(c, n, Aw, cover_a, trace, "big3")

    if B.bit_count() < n + 1:
        raise UnreachableBranch("two_cover.b_small", b=B.bit_count(), n=n)
    Bw = CliqueWitness(col, B)
    cover_b = compute_cover(c, Bw, n)
    if isinstance(cover_b, FanCertificate):
        trace.record("two_cover.cover_b_fan")
        return cover_b
    trace.records.append((c, cover_b))
    if cover_b.t >= 4:
        return _t4(c, n, Bw, cover_b, trace)

    v1, p1 = cover_a.sequence[0]
    hit = None
    for wi, pwi in cover_b.sequence:
        if pwi.S & p1.S:
            hit = (wi, pwi)
            break
    if hit is None:
        raise UnreachableBranch(
            "two_cover.disjoint_shadows",
            a=A.bit_count(),
            b=B.bit_count(),
            s_v1=p1.S.bit_count(),
            s_w=[p.S.bit_count() for _, p in cover_b.sequence],
        )
    wi, pwi = hit
    a = lowest(pwi.S & p1.S)

    if (B & ~pwi.C).bit_count() >= Fraction(n, 3):
        fb = _FanBuilder(c, opp, a)
        fb.pair_across(B & ~pwi.C, pwi.S, cap=-(-n // 3))
        fb.pair_across(A & ~p1.C, p1.S)
        fb.pair_within(p1.S)
        fb.pair_within(pwi.S)
        return _finish(fb, n, trace, "two_cover.fan_wide", "two_cover.wide_count")

    inter = p1.S & pwi.S
    if inter.bit_count() >= Fraction(4 * n, 3) + 1:
        # the shadow intersection is itself a big opp clique; reroute it
        return _clique_pipeline(c, n, CliqueWitness(opp, inter), trace, "low")
    fb = _FanBuilder(c, opp, a)
    fb.pair_across(B & ~pwi.C, pwi.S)
    fb.pair_across(A & ~p1.C, p1.S)
    fb.pair_within(p1.S)
    fb.pair_within(pwi.S)
    return _finish(fb, n, trace, "two_cover.fan_tight", "two_cover.tight_count")
