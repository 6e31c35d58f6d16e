"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time
from collections import Counter

import pytest

from bruteforce import (
    brute_fan_exists,
    brute_fan_exists_enumerated,
    brute_max_deficiency,
    brute_max_matching,
)
from fanram.bitset import bits, mask_of
from fanram.coloring import BLACK, WHITE, Coloring
from fanram.covering import (
    CoverRecord,
    build_sc,
    compute_cover,
    cover_violation,
    sc_violation,
)
from fanram.errors import InternalError, UnreachableBranch
from fanram.extractor import extract_fan, min_order
from fanram.matching import (
    bipartite_maximum_matching,
    max_deficiency_certificate,
    maximum_matching_general,
)
from fanram.oracle import (
    bipartite_lower_bound,
    exhaustive_ramsey_check,
    random_coloring,
)
from fanram.structures import (
    FanCertificate,
    find_mono_fan,
    find_unavoidable_structure,
    split_fan_blade_target,
    split_graph_fan,
    verify_fan,
)
from gadgets import cover_gadget
from fanram.cli import trial_coloring, _TRIAL_FAMILIES


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_defect_hall_equivalence():
    t0 = time.monotonic()
    checked = 0
    for seed in range(1000):
        nx_size = 1 + seed % 12
        ny_size = 1 + (seed * 7) % 12
        p = (0.2, 0.5, 0.8)[seed % 3]
        c = random_coloring(nx_size + ny_size, seed, p)
        X = mask_of(range(nx_size))
        Y = mask_of(range(nx_size, nx_size + ny_size))
        mp = bipartite_maximum_matching(c, BLACK, X, Y)
        got = max_deficiency_certificate(c, mp, X, Y).deficiency
        want = brute_max_deficiency(c, BLACK, X, Y)
        assert got == want, f"seed {seed}: {got} != {want}"
        checked += 1
    elapsed = time.monotonic() - t0
    _report(
        1,
        checked == 1000 and elapsed < 10.0,
        f"{checked} bipartite instances match the subset brute force in {elapsed:.2f}s",
    )


def test_criterion_2_matching_oracle_equivalence():
    checked = 0
    for seed in range(500):
        N = 4 + seed % 7
        p = (0.25, 0.5, 0.75)[seed % 3]
        c = random_coloring(N, seed, p)
        scope = c.vertex_mask
        got = maximum_matching_general(c, BLACK, scope).size
        want = brute_max_matching(c, BLACK, scope)
        assert got == want, f"seed {seed}: {got} != {want}"
        checked += 1
    _report(2, checked == 500, f"{checked} matchings equal exhaustive enumeration")


def test_criterion_3_fan_detection_exactness():
    checked = 0
    for seed in range(500):
        N = 5 + seed % 5
        n = 1 + seed % 3
        p = (0.3, 0.5, 0.7)[seed % 3]
        c = random_coloring(N, seed, p)
        for col in (BLACK, WHITE):
            cert = find_mono_fan(c, col, n)
            assert (cert is not None) == brute_fan_exists(c, col, n), f"seed {seed}"
            if seed % 5 == 0:
                # literal center-and-blade-set enumeration on a sub-sample
                assert (cert is not None) == brute_fan_exists_enumerated(
                    c, col, n
                ), f"seed {seed}"
            if cert is not None:
                assert verify_fan(c, cert)
        checked += 1
    _report(3, checked == 500, f"{checked} colorings agree with blade enumeration")


def test_criterion_4_smallest_fan_ramsey_value():
    t0 = time.monotonic()
    yes = exhaustive_ramsey_check(6, 1)
    no = exhaustive_ramsey_check(5, 1)
    elapsed = time.monotonic() - t0
    pentagon = any(
        all(c.degree(v, BLACK) == 2 for v in range(5))
        for c in no.fan_free_examples
    )
    _report(
        4,
        yes.all_contain and not no.all_contain and pentagon and elapsed < 1.0,
        f"all 32768 colorings of K6 contain a one-blade fan, K5 has the "
        f"pentagon escape, in {elapsed:.2f}s",
    )


def test_criterion_5_bipartite_lower_bound():
    t0 = time.monotonic()
    for n in range(1, 13):
        c = bipartite_lower_bound(n)
        assert c.N == 4 * n
        assert find_mono_fan(c, BLACK, n) is None, f"black fan at n={n}"
        assert find_mono_fan(c, WHITE, n) is None, f"white fan at n={n}"
    elapsed = time.monotonic() - t0
    _report(
        5,
        elapsed < 5.0,
        f"4n-vertex constructions fan-free for n=1..12 in {elapsed:.2f}s",
    )


def test_criterion_6_split_graph_fan_bound():
    failures = 0
    checked = 0
    for seed in range(1000):
        k = 4 + seed % 9
        rc = random_coloring(2 * k, seed, (0.2, 0.5, 0.8)[seed % 3])
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
        try:
            cert = split_graph_fan(c, BLACK, A, B)
        except InternalError:
            failures += 1
            continue
        assert verify_fan(c, cert), f"seed {seed}"
        assert len(cert.blades) >= split_fan_blade_target(k), f"seed {seed}"
        checked += 1
    _report(
        6,
        checked == 1000 and failures == 0,
        f"{checked} split instances met the ceil(3k/4 - 3/2) blade bound, "
        f"{failures} construction failures",
    )


def test_criterion_7_unavoidable_structure_search():
    failures = 0
    checked = 0
    for seed in range(500):
        n = 4 + seed % 5
        cc_limit = (5 * n) // 8 if (5 * n) % 8 else (5 * n) // 8 - 1
        cc = 1 + (seed * 13) % cc_limit
        size = 3 * n - cc + 4
        c = random_coloring(size, seed, (0.15, 0.5, 0.85)[seed % 3])
        try:
            kind, w = find_unavoidable_structure(c, BLACK, c.vertex_mask, n, cc)
        except InternalError:
            failures += 1
            continue
        if kind == "matching":
            assert w.size >= n
            assert all(c.pair_color(a, b) is BLACK for a, b in w.edges)
        elif kind == "complement_fan":
            assert verify_fan(c, w) and w.color is WHITE
        else:
            assert w.size >= 2 * n - 2 * cc
        checked += 1
    _report(
        7,
        checked == 500 and failures == 0,
        f"{checked} searches returned a verified structure, {failures} failures",
    )


@pytest.fixture(scope="module")
def corpus():
    """Criterion 8 run: 200 seeded colorings per n in 3..8, faithful mode."""
    results = []
    t0 = time.monotonic()
    for n in range(3, 9):
        N = min_order(n)
        for i in range(200):
            family, p = _TRIAL_FAMILIES[i % len(_TRIAL_FAMILIES)]
            seed = i
            c = trial_coloring(family, p, N, n, seed)
            label = family if p is None else f"{family}_p{p}"
            entry = {
                "n": n,
                "family": label,
                "seed": seed,
                "coloring": c,
                "unreachable": None,
            }
            try:
                cert, trace = extract_fan(c, n, mode="faithful")
            except UnreachableBranch as exc:
                entry["unreachable"] = exc.label
                results.append(entry)
                continue
            entry["ok"] = verify_fan(c, cert)
            entry["cert_json"] = cert.to_json()
            entry["trace_json"] = trace.to_json()
            entry["labels"] = trace.labels()
            entry["records"] = trace.records
            results.append(entry)
    return {"results": results, "elapsed": time.monotonic() - t0}


def test_criterion_8_extractor_property_form(corpus):
    results = corpus["results"]
    elapsed = corpus["elapsed"]
    unreachable = [r for r in results if r["unreachable"]]
    bad = [r for r in results if not r.get("ok")]
    coverage = Counter()
    for r in results:
        if r.get("labels"):
            for label in r["labels"]:
                coverage[label] += 1
    print("branch coverage over the corpus:")
    print(json.dumps(dict(sorted(coverage.items())), indent=2))
    _report(
        8,
        len(results) == 1200 and not unreachable and not bad and elapsed < 300.0,
        f"{len(results)} extractions verified in {elapsed:.1f}s, "
        f"{len(unreachable)} unreachable branches, {len(bad)} bad certificates",
    )


def test_criterion_9_covering_invariants(corpus):
    violations = 0
    sc_count = 0
    cover_count = 0
    for r in corpus["results"]:
        # each cover carries its chosen shadow records, and the cover
        # check runs sc_violation on every one of them
        for coloring, cover in r.get("records", []):
            cover_count += 1
            sc_count += cover.t
            if cover_violation(coloring, cover, r["n"]) is not None:
                violations += 1
    # engineered instances keep the check non-vacuous: the corpus at small
    # n resolves inside the high-degree case without building covers; each
    # gadget contributes its cover and the shadow record of every vertex
    extra_sc = 0
    extra_cover = 0
    for args, n in (((4, 3, 8, 11), 11), ((3, 3, 2, 6), 6), ((4, 2, 2, 5), 5)):
        c, A = cover_gadget(*args)
        out = compute_cover(c, A, n)
        assert isinstance(out, CoverRecord)
        extra_cover += 1
        if cover_violation(c, out, n) is not None:
            violations += 1
        for v in bits(A.members):
            rec = build_sc(c, A, v, n)
            assert not isinstance(rec, FanCertificate)
            extra_sc += 1
            if sc_violation(c, rec, n) is not None:
                violations += 1
    _report(
        9,
        violations == 0,
        f"{sc_count}+{extra_sc} shadow records and {cover_count}+{extra_cover} "
        f"covers pass every invariant, {violations} violations",
    )


def test_criterion_10_determinism(corpus):
    mismatches = 0
    reran = 0
    for r in corpus["results"]:
        if not r.get("ok"):
            continue
        cert, trace = extract_fan(r["coloring"], r["n"], mode="faithful")
        if cert.to_json() != r["cert_json"] or trace.to_json() != r["trace_json"]:
            mismatches += 1
        reran += 1
    _report(
        10,
        reran == 1200 and mismatches == 0,
        f"{reran} reruns byte-identical in certificates and traces, "
        f"{mismatches} mismatches",
    )
