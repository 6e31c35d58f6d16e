"""Fans, cliques, and the guaranteed structure searches built on them.

A fan with n blades is a vertex (the center) plus n vertex-disjoint pairs
(the blades) such that every blade pair and both of its edges to the center
carry one color.  Certificates are self-contained and are re-checked
against the coloring by verify_fan, so third parties can validate them
without trusting the search code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import index

from .bitset import bits, lowest
from .coloring import Color, Coloring
from .errors import InternalError, PreconditionViolated
from .matching import (
    Matching,
    _closure,
    bipartite_maximum_matching,
    greedy_maximal_matching,
    max_deficiency_certificate,
    maximum_matching_general,
)


def _json_int(x) -> int:
    """x as an int; JSON true and false are not integers here."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not an integer")
    return index(x)


@dataclass(frozen=True)
class FanCertificate:
    color: Color
    center: int
    blades: tuple[tuple[int, int], ...]
    n_claimed: int

    def to_json_dict(self) -> dict:
        return {
            "color": self.color.value,
            "center": self.center,
            "blades": [list(b) for b in self.blades],
            "n_claimed": self.n_claimed,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FanCertificate":
        """Read a certificate; a malformed one is a PreconditionViolated."""
        try:
            return cls(
                color=Color(d["color"]),
                center=_json_int(d["center"]),
                blades=tuple((_json_int(a), _json_int(b)) for a, b in d["blades"]),
                n_claimed=_json_int(d["n_claimed"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PreconditionViolated(f"malformed certificate: {exc!r}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FanCertificate":
        return cls.from_json_dict(json.loads(text))


def fan_violation(c: Coloring, cert: FanCertificate) -> str | None:
    """First violated fan invariant, or None if the certificate is valid."""
    N = c.N
    if not 0 <= cert.center < N:
        return f"center {cert.center} out of range"
    if cert.n_claimed < 1:
        return f"n_claimed={cert.n_claimed} must be >= 1"
    if len(cert.blades) < cert.n_claimed:
        return f"{len(cert.blades)} blades but {cert.n_claimed} claimed"
    seen = 1 << cert.center
    for a, b in cert.blades:
        for v in (a, b):
            if not 0 <= v < N:
                return f"blade vertex {v} out of range"
        if a == b:
            return f"degenerate blade ({a},{b})"
        pair_mask = 1 << a | 1 << b
        if seen & pair_mask:
            return f"vertex reused in blade ({a},{b})"
        seen |= pair_mask
        for u, v in ((cert.center, a), (cert.center, b), (a, b)):
            got = c.pair_color(u, v)
            if got is not cert.color:
                return f"pair ({u},{v}) is {got.value}, expected {cert.color.value}"
    return None


def verify_fan(c: Coloring, cert: FanCertificate) -> bool:
    return fan_violation(c, cert) is None


@dataclass(frozen=True)
class CliqueWitness:
    """A vertex set whose internal pairs all have one color.

    A white clique is an independent set of the black graph and vice
    versa.
    """

    color: Color
    members: int

    @property
    def size(self) -> int:
        return self.members.bit_count()


def clique_violation(c: Coloring, w: CliqueWitness) -> str | None:
    if w.members & ~c.vertex_mask:
        return "clique contains out-of-range vertices"
    # missing pairs are symmetric, so the first u with one has all of its
    # missing partners above it
    for u in bits(w.members):
        missing = w.members & ~c.neighborhood(u, w.color) & ~(1 << u)
        if missing:
            v = lowest(missing)
            return f"pair ({u},{v}) is not {w.color.value}"
    return None


def is_clique(c: Coloring, col: Color, members: int) -> bool:
    return clique_violation(c, CliqueWitness(col, members)) is None


def fan_from_clique(c: Coloring, w: CliqueWitness, n: int) -> FanCertificate:
    """A clique on >= 2n+1 vertices contains a fan: center its lowest
    vertex and pair up the rest."""
    if w.size < 2 * n + 1:
        raise PreconditionViolated("clique too small to pair into a fan")
    fb = _FanBuilder(c, w.color, lowest(w.members))
    fb.pair_within(w.members)
    return fb.build(n)


def _must_verify(c: Coloring, cert: FanCertificate) -> FanCertificate:
    violation = fan_violation(c, cert)
    if violation is not None:
        raise InternalError(f"built an invalid fan: {violation}")
    return cert


class _FanBuilder:
    """Accumulates vertex-disjoint blades for a fan at a fixed center.

    add_edges is the one place a blade is recorded: match_into feeds it
    matching edges, pair_across zips the free vertices of two sides in
    ascending order (at most cap pairs), and pair_within pairs the free
    vertices of one side in ascending order, dropping an odd one out.
    Blade validity is not checked while pairing; build() verifies the
    finished certificate, so an invalid pairing program surfaces as a
    construction failure instead of a bad certificate.
    """

    def __init__(self, c: Coloring, color: Color, center: int):
        self.c = c
        self.color = color
        self.center = center
        self.used = 1 << center
        self.blades: list[tuple[int, int]] = []

    def add_edges(self, edges) -> None:
        for a, b in edges:
            self.blades.append((a, b))
            self.used |= 1 << a | 1 << b

    def pair_across(self, xs_mask: int, ys_mask: int, cap: int | None = None) -> None:
        xs_mask &= ~self.used
        ys_mask &= ~self.used & ~xs_mask
        self.add_edges(islice(zip(bits(xs_mask), bits(ys_mask)), cap))

    def pair_within(self, mask: int) -> None:
        vs = bits(mask & ~self.used)
        self.add_edges(zip(vs, vs))

    def match_into(self, T: int, *parts: int) -> tuple[Matching, Matching, int, int]:
        """The shared fan attempt: blades from a greedy maximal matching M
        inside T, then a maximum matching Mp from X = T minus V(M) into
        Y = the union of parts, then the leftovers of each part paired
        within that part.

        Returns (M, Mp, X, Y); when the fan falls short, the Hall violator
        of the (Mp, X, Y) instance is the caller's next witness.
        """
        Y = 0
        for part in parts:
            Y |= part
        M = greedy_maximal_matching(self.c, self.color, T)
        X = T & ~M.vertex_mask()
        Mp = bipartite_maximum_matching(self.c, self.color, X, Y)
        self.add_edges(M.edges)
        self.add_edges(Mp.edges)
        for part in parts:
            self.pair_within(part)
        return M, Mp, X, Y

    def count(self) -> int:
        return len(self.blades)

    def build(self, n: int) -> FanCertificate | None:
        if len(self.blades) < n:
            return None
        return _must_verify(
            self.c, FanCertificate(self.color, self.center, tuple(self.blades[:n]), n)
        )


def find_mono_fan(
    c: Coloring,
    col: Color,
    n: int,
    scope: int | None = None,
    *,
    centers: int | None = None,
) -> FanCertificate | None:
    """Exact fan detection.

    A fan with n blades centered at v exists inside scope exactly when the
    color-induced graph on v's in-scope neighborhood has a matching of n
    edges, so the test scans centers in ascending order and asks
    maximum_matching_general(stop_at=n) of each.  Only the in-scope
    vertices of centers (default: all of scope) are tried as the center.
    Returns a verified certificate for the lowest viable center, or None
    when no such fan exists.
    """
    if n < 1:
        raise PreconditionViolated(f"fan parameter must be >= 1, got {n}")
    if scope is None:
        scope = c.vertex_mask
    if centers is None:
        centers = scope
    for v in bits(centers & scope):
        nb = c.neighborhood(v, col) & scope
        if nb.bit_count() < 2 * n:
            continue
        m = maximum_matching_general(c, col, nb, stop_at=n)
        if m.size == n:
            return _must_verify(c, FanCertificate(col, v, m.edges, n))
    return None


def find_clique(
    c: Coloring, col: Color, size: int, scope: int
) -> CliqueWitness | None:
    """Exact search for a col-clique of at least `size` vertices in scope.

    Branch and bound over a static degree-descending vertex order with a
    counting prune; returns the first clique found (deterministic) or None
    when none of that size exists.  Each node is first bounded by a greedy
    coloring of its candidates (Tomita & Seki 2003): a clique meets every
    color class at most once, so a node whose classes cannot complete
    `size` holds no such clique.  That prune skips only empty subtrees, so
    the first clique found is the same as without it.
    """
    if size < 1:
        raise PreconditionViolated(f"clique size must be >= 1, got {size}")
    if scope.bit_count() < size:
        return None
    adj = {v: c.neighborhood(v, col) & scope for v in bits(scope)}
    order = sorted(adj, key=lambda v: (-adj[v].bit_count(), v))

    def colorable_below(cand: int, need: int) -> bool:
        # each class takes the lowest vertex left, then the lowest one
        # col-joined to none taken so far, and so on
        while cand:
            need -= 1
            if need == 0:
                return False
            avail = cand
            while avail:
                low = avail & -avail
                cand ^= low
                avail &= ~(adj[low.bit_length() - 1] | low)
        return True

    def expand(chosen: int, cand: int) -> int | None:
        need = size - chosen.bit_count()
        if need <= 0:
            return chosen
        if colorable_below(cand, need):
            return None
        for v in order:
            if not cand >> v & 1:
                continue
            if chosen.bit_count() + cand.bit_count() < size:
                return None
            cand &= ~(1 << v)
            found = expand(chosen | 1 << v, cand & adj[v])
            if found is not None:
                return found
        return None

    found = expand(0, scope)
    if found is None:
        return None
    w = CliqueWitness(col, found)
    violation = clique_violation(c, w)
    if violation is not None:
        raise InternalError(f"clique search produced a non-clique: {violation}")
    return w


def find_unavoidable_structure(
    c: Coloring, col: Color, scope: int, n: int, cc: int
) -> tuple[str, Matching | FanCertificate | CliqueWitness]:
    """Search a scope of exactly 3n - cc + 4 vertices (0 < cc < 5n/8) for,
    in fixed priority order: a col matching of n edges, a fan with n
    blades in the opposite color, a col clique on 2n - 2cc vertices, or an
    opposite-color clique on 2n - 2cc vertices.

    Returns (kind, witness): ("matching", Matching), ("complement_fan",
    FanCertificate), ("clique", CliqueWitness) or ("complement_clique",
    CliqueWitness).

    At these sizes at least one of the four always exists, so exhausting
    all four raises InternalError, which signals a bug rather than a
    legitimate outcome.
    """
    if not (0 < cc < Fraction(5 * n, 8)):
        raise PreconditionViolated(f"cc={cc} outside (0, 5n/8) for n={n}")
    if scope.bit_count() != 3 * n - cc + 4:
        raise PreconditionViolated(
            f"scope has {scope.bit_count()} vertices, need {3 * n - cc + 4}"
        )

    m = maximum_matching_general(c, col, scope, stop_at=n)
    if m.size == n:
        return "matching", m

    fan = find_mono_fan(c, col.swap(), n, scope)
    if fan is not None:
        return "complement_fan", fan

    target = 2 * n - 2 * cc
    clique = find_clique(c, col, target, scope)
    if clique is not None:
        return "clique", clique

    clique = find_clique(c, col.swap(), target, scope)
    if clique is not None:
        return "complement_clique", clique

    raise InternalError(
        f"no structure found in scope of {scope.bit_count()} vertices "
        f"(n={n}, cc={cc}); this should be impossible"
    )


def split_fan_blade_target(k: int) -> int:
    """Guaranteed blade count for split_graph_fan: ceil(3k/4 - 3/2)."""
    return -(-(3 * k - 6) // 4)


def split_graph_fan(c: Coloring, col: Color, A: int, B: int) -> FanCertificate:
    """Fan extraction from a split pair: A a col clique, B a clique of the
    other color, both of size k >= 3 and disjoint.

    Returns a verified fan with at least ceil(3k/4 - 3/2) blades.  Looks
    at the densest side first (the A side on a tie; a denser B side runs
    with the roles and colors exchanged): if the heaviest A-to-B vertex z
    admits a low-deficiency matching from its B-neighborhood into A, that
    matching plus leftover pairs of A forms a col fan at z; otherwise the
    Hall violator U gives a fan of the other color centered in U with
    partners drawn from the A-vertices untouched by U and the rest of B.
    """
    opp = col.swap()
    k = A.bit_count()
    if k < 3 or B.bit_count() != k:
        raise PreconditionViolated("sides must have equal size k >= 3")
    if A & B:
        raise PreconditionViolated("sides overlap")
    if clique_violation(c, CliqueWitness(col, A)) is not None:
        raise PreconditionViolated(f"A side is not a {col.value} clique")
    if clique_violation(c, CliqueWitness(opp, B)) is not None:
        raise PreconditionViolated(f"B side is not a {opp.value} clique")

    d_ab = max(((c.neighborhood(v, col) & B).bit_count(), -v) for v in bits(A))
    d_ba = max(((c.neighborhood(w, opp) & A).bit_count(), -w) for w in bits(B))
    if d_ab[0] < d_ba[0]:
        return split_graph_fan(c, opp, B, A)

    z = -d_ab[1]
    target = split_fan_blade_target(k)
    # B is an opp clique, so the greedy matching inside X is always empty
    fb = _FanBuilder(c, col, z)
    _, mp, X, Y = fb.match_into(c.neighborhood(z, col) & B, A & ~(1 << z))
    if fb.count() >= target:
        return _must_verify(c, FanCertificate(col, z, tuple(fb.blades), target))

    U = max_deficiency_certificate(c, mp, X, Y).S
    if not U:
        raise InternalError("matching branch short yet no Hall violator")
    fb = _FanBuilder(c, opp, lowest(U))
    fb.pair_across(A & ~_closure(c, col, U), U)
    fb.pair_within(B)
    if fb.count() < target:
        raise InternalError(f"violator branch yields {fb.count()} < {target} blades")
    return _must_verify(c, FanCertificate(opp, fb.center, tuple(fb.blades), target))
