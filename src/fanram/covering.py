"""Shadow sets of clique vertices and greedy clique covers.

For a monochromatic clique A with more than n vertices, every vertex v of
A with degree above 2n (in A's color) yields either a fan with n blades
centered at v, or a record pairing an independent set S in v's
neighborhood outside A with its contact set C = N(S) within A, such that
|S| >= |C| + deg(v) - 2n.  Covers chain these records greedily until the
contact sets exhaust A; their combinatorics (disjoint shadows, bounded
contacts, non-increasing marginals) drive every later fan construction.
The fan attempt behind each record is structures._FanBuilder.match_into,
the same one the extractor's blocker step makes.

Nothing here logs: compute_cover returns the cover or the fan.  The
extractor keeps each cover a step dispatched on, with the working coloring
it lives in, in ExtractionTrace.records; the cover holds its chosen shadow
records, and cover_violation rebuilds the unchosen ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

from .bitset import bit_list, bits, mask_of
from .coloring import Coloring
from .errors import InternalError, PreconditionViolated
from .matching import Matching, _closure, max_deficiency_certificate
from .structures import (
    CliqueWitness,
    FanCertificate,
    _FanBuilder,
    clique_violation,
    is_clique,
)


@dataclass(frozen=True)
class SCRecord:
    """The pair S(v, A), C(v, A) with the matchings that witness them.

    S is an independent set (in A's color) inside N(v) minus A and the
    maximal matching M; C is the neighborhood of S inside A, which always
    contains v.  Mp is the maximum matching from N(v) \\ (A u V(M)) into
    A \\ {v} whose deficiency produced S.
    """

    v: int
    clique: CliqueWitness
    S: int
    C: int
    M: Matching
    Mp: Matching
    deg_v: int

    def to_json_dict(self) -> dict:
        return {
            "v": self.v,
            "deg_v": self.deg_v,
            "S": bit_list(self.S),
            "C": bit_list(self.C),
            "M": [list(e) for e in self.M.edges],
            "Mp": [list(e) for e in self.Mp.edges],
        }


@dataclass(frozen=True)
class CoverRecord:
    """A greedy cover sequence v_1..v_t of a clique by contact sets."""

    A: CliqueWitness
    t: int
    sequence: tuple[tuple[int, SCRecord], ...]

    def to_json_dict(self) -> dict:
        return {
            "color": self.A.color.value,
            "clique": bit_list(self.A.members),
            "t": self.t,
            "sequence": [r.to_json_dict() for _, r in self.sequence],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def sc_violation(c: Coloring, rec: SCRecord, n: int) -> str | None:
    """First violated SCRecord invariant, or None."""
    col = rec.clique.color
    A = rec.clique.members
    if not A >> rec.v & 1:
        return f"vertex {rec.v} not in the clique"
    if clique_violation(c, rec.clique) is not None:
        return "clique witness is not a clique"
    if rec.deg_v != c.degree(rec.v, col):
        return "recorded degree is wrong"
    nb = c.neighborhood(rec.v, col)
    outside = nb & ~A
    for a, b in rec.M.edges:
        if not (outside >> a & 1 and outside >> b & 1):
            return f"matching edge ({a},{b}) leaves N(v) minus A"
        if c.pair_color(a, b) is not col:
            return f"matching edge ({a},{b}) has the wrong color"
    X = outside & ~rec.M.vertex_mask()
    for u in bits(X):
        if c.neighborhood(u, col) & X & ~(1 << u):
            return "M is not maximal: an edge survives outside it"
    if rec.S & ~X:
        return "S leaves N(v) minus A and the matching"
    if not is_clique(c, col.swap(), rec.S):
        return "S is not independent"
    if rec.C != _closure(c, col, rec.S) & A:
        return "C is not the neighborhood of S inside A"
    size_a = A.bit_count()
    s, csize = rec.S.bit_count(), rec.C.bit_count()
    if s < csize + rec.deg_v - 2 * n:
        return f"|S|={s} < |C|+deg-2n={csize + rec.deg_v - 2 * n}"
    if csize > 2 * n + 1 - size_a:
        return f"|C|={csize} > 2n+1-|A|={2 * n + 1 - size_a}"
    if s > rec.deg_v + 1 - size_a:
        return f"|S|={s} > deg+1-|A|={rec.deg_v + 1 - size_a}"
    return None


def build_sc(
    c: Coloring, A: CliqueWitness, v: int, n: int
) -> SCRecord | FanCertificate:
    """Construct S(v, A) and C(v, A), or the fan that preempts them.

    The fan attempt is _FanBuilder.match_into(N(v) minus A, A minus {v}):
    the greedy maximal matching M inside N(v) outside A, the maximum
    bipartite matching Mp from X = N(v) minus (A u V(M)) into Y = A minus
    {v}, and the rest of Y paired up; when that reaches n blades there is
    nothing left to record.

    Otherwise start is the lowest target = deg + 1 - 2n vertices of X that
    Mp leaves unmatched, and S is their alternating reach: Mp stays a
    maximum matching once X shrinks to start plus Mp's own X ends, so
    max_deficiency_certificate on that instance returns it.  Why S is a
    valid shadow:

    - Every x in S outside start is matched by Mp to its own neighbour in
      Y, so def(S) = |S| - |N(S) & Y| = |start| = target exactly, and
      |S| = |C| + deg - 2n since C = (N(S) & Y) u {v}.
    - Any T inside S with def(T) >= target contains start and is closed
      under "take a neighbour, then its mate", so T = S: S is
      inclusion-minimal among the sets reaching target.
    - N(S) & Y lies among Mp's Y ends.  The fan fell short, so
      |M| + |Mp| + floor((|A| - 1 - |Mp|) / 2) <= n - 1, which gives
      |Mp| <= 2n - |A| and so |C| <= 2n + 1 - |A|.
    """
    col = A.color
    members = A.members
    if not members >> v & 1:
        raise PreconditionViolated(f"vertex {v} not in the clique")
    size_a = members.bit_count()
    if size_a <= n:
        raise PreconditionViolated(f"|A|={size_a} must exceed n={n}")
    deg = c.degree(v, col)
    if deg <= 2 * n:
        raise PreconditionViolated(f"deg({v})={deg} must exceed 2n={2 * n}")

    fb = _FanBuilder(c, col, v)
    outside = c.neighborhood(v, col) & ~members
    M, Mp, X, Y = fb.match_into(outside, members & ~(1 << v))
    cert = fb.build(n)
    if cert is not None:
        return cert

    target = deg + 1 - 2 * n
    unmatched = X & ~Mp.vertex_mask()
    start = mask_of(bit_list(unmatched)[:target])
    defc = max_deficiency_certificate(c, Mp, X & ~unmatched | start, Y)
    if defc.deficiency < target:
        raise InternalError(
            f"no fan at {v} yet deficiency {defc.deficiency} < {target}"
        )
    S = defc.S

    rec = SCRecord(
        v=v,
        clique=A,
        S=S,
        C=_closure(c, col, S) & members,
        M=M,
        Mp=Mp,
        deg_v=deg,
    )
    violation = sc_violation(c, rec, n)
    if violation is not None:
        raise InternalError(f"built a bad shadow record: {violation}")
    return rec


def compute_cover(
    c: Coloring, A: CliqueWitness, n: int
) -> CoverRecord | FanCertificate:
    """Greedy cover of A by contact sets, deterministic given (c, A, n).

    v_1 maximizes |C(v, A)|; each later v_i is drawn from the uncovered
    part of A and maximizes the marginal coverage, ties to the lowest
    index.  Any fan produced by a shadow construction is propagated
    instead.  A must be a clique in its color.
    """
    bad = clique_violation(c, A)
    if bad is not None:
        raise PreconditionViolated(f"not a {A.color.value} clique: {bad}")
    members = A.members
    size_a = members.bit_count()
    if not n < size_a < 2 * n + 1:
        raise PreconditionViolated(f"|A|={size_a} outside (n, 2n+1) for n={n}")
    col = A.color
    for v in bits(members):
        if c.degree(v, col) <= 2 * n:
            raise PreconditionViolated(
                f"deg({v})={c.degree(v, col)} must exceed 2n={2 * n}"
            )

    recs: dict[int, SCRecord] = {}
    for v in bits(members):
        out = build_sc(c, A, v, n)
        if isinstance(out, FanCertificate):
            return out
        recs[v] = out

    covered = 0
    sequence = []
    while covered != members:
        v = max(
            bits(members & ~covered), key=lambda z: (recs[z].C & ~covered).bit_count()
        )
        sequence.append((v, recs[v]))
        covered |= recs[v].C

    rec = CoverRecord(A=A, t=len(sequence), sequence=tuple(sequence))
    violation = cover_violation(c, rec, n, _all_records=recs)
    if violation is not None:
        raise InternalError(f"built a bad cover: {violation}")
    return rec


def cover_violation(
    c: Coloring,
    rec: CoverRecord,
    n: int,
    *,
    _all_records: dict[int, SCRecord] | None = None,
) -> str | None:
    """First violated cover invariant, or None.

    Verifies every member record, coverage, the greedy maximality of each
    step (recomputing the contact set of each unchosen vertex once), shadow
    disjointness, non-increasing marginals, and the cover-length bound
    forced by the contact-size cap.
    """
    members = rec.A.members
    size_a = members.bit_count()
    if not n < size_a < 2 * n + 1:
        return f"|A|={size_a} outside (n, 2n+1)"
    if rec.t != len(rec.sequence):
        return "t differs from the sequence length"
    if rec.t < 1:
        return "empty sequence"

    @cache
    def contact_of(z: int) -> int | None:
        out = build_sc(c, rec.A, z, n) if _all_records is None else _all_records[z]
        return None if isinstance(out, FanCertificate) else out.C

    for v, sc in rec.sequence:
        if sc.v != v or sc.clique != rec.A:
            return f"sequence entry for {v} is mislabeled"
        bad = sc_violation(c, sc, n)
        if bad is not None:
            return f"record at {v}: {bad}"

    covered = 0
    for i, (v, sc) in enumerate(rec.sequence):
        if i > 0 and covered >> v & 1:
            return f"v_{i + 1}={v} already covered"
        gain = (sc.C & ~covered).bit_count()
        for z in bits(members & ~covered):
            cz = contact_of(z)
            if cz is None:
                return f"fan available at {z}; no cover should exist"
            if (cz & ~covered).bit_count() > gain:
                return f"step {i + 1} picked {v} but {z} covers more"
        covered |= sc.C
    if covered != members:
        return "contact sets do not cover the clique"

    for i, (_, ri) in enumerate(rec.sequence):
        for j in range(i + 1, rec.t):
            if ri.S & rec.sequence[j][1].S:
                return f"shadows {i + 1} and {j + 1} intersect"

    prior = 0
    for j1 in range(rec.t):
        here = (rec.sequence[j1][1].C & ~prior).bit_count()
        for j2 in range(j1 + 1, rec.t):
            later = (rec.sequence[j2][1].C & ~prior).bit_count()
            if later > here:
                return f"marginal at step {j2 + 1} beats step {j1 + 1}"
        prior |= rec.sequence[j1][1].C

    # |A| > (k-1)/k * (2n+1) is equivalent to k * (2n+1-|A|) < 2n+1, so the
    # binding case is the largest such k.
    cap = 2 * n + 1 - size_a
    kmax = -(-(2 * n + 1) // cap) - 1
    if rec.t < kmax:
        return f"|A|={size_a} forces t >= {kmax} but t={rec.t}"
    return None
