"""The determinism contract, frozen across commits.

The same input and seed must give byte-identical certificates, traces and
cover records, and the same coloring must give byte-identical file text
and pair-bit encodings.  Fan assembly (split pairs, cliques, the blocker
and residue steps, the clique pipeline) is pinned on its own inputs too,
including the labels of the errors it raises.  The digests below were captured from a
known-good build; a change that alters any of these bytes must say so and
update them.
"""

import hashlib
import json
import random

import networkx as nx

from fanram.bitset import mask_of
from fanram.cli import _TRIAL_FAMILIES, trial_coloring
from fanram.coloring import BLACK, WHITE, Coloring
from fanram.covering import compute_cover
from fanram.errors import FanRamseyError, UnreachableBranch
from fanram.extractor import ExtractionTrace, _clique_pipeline, extract_fan, min_order
from fanram.io import parse_graph6, write_2col
from fanram.oracle import enumerate_colorings, random_coloring
from fanram.structures import CliqueWitness, fan_from_clique, split_graph_fan
from gadgets import circulant, cover_gadget
from test_extractor import _blocker_then_residue
from test_io import _black_graph
from test_structures import _split_instance

FORMAT_SHA256 = "7701bece23740d57d80752740637002c304adac95614410cec2c2ab8fb184cfc"
FROZEN_SHA256 = "6ced70dd99734f7b0ccf53ac67fd0ec8a521d96d9c386118973232fb50bd3d44"
FAN_SHA256 = "f5c7b1527421dc8e5fcc817b36db5b41959d21f2ac387dd4434cb8327fb75bfc"


def _trial_colorings():
    for n in (6, 20):
        N = min_order(n)
        for family, p in _TRIAL_FAMILIES:
            for seed in (1, 2):
                yield n, trial_coloring(family, p, N, n, seed)


def _corpus_bytes() -> str:
    out = []
    for n, c in _trial_colorings():
        for mode in ("fast", "faithful"):
            cert, trace = extract_fan(c, n, mode=mode)
            out.append(cert.to_json() + trace.to_json())
    for N, offsets, n in ((92, list(range(1, 23)) + [46], 15), (97, range(1, 25), 16)):
        c = circulant(N, offsets)
        for oriented in (c, c.swap_colors()):
            cert, trace = extract_fan(oriented, n, mode="faithful")
            out.append(cert.to_json() + trace.to_json())
    for groups, size, blob, n in ((4, 3, 8, 11), (5, 6, 8, 18), (4, 8, 8, 20)):
        c, A = cover_gadget(groups, size, blob, n)
        out.append(compute_cover(c, A, n).to_json())
    return "".join(out)


def test_certificates_traces_and_covers_are_frozen():
    digest = hashlib.sha256(_corpus_bytes().encode("ascii")).hexdigest()
    assert digest == FROZEN_SHA256


def _format_bytes() -> str:
    out = []
    for _, c in _trial_colorings():
        out.append(write_2col(c))
        text = nx.to_graph6_bytes(_black_graph(c), header=False).decode().strip()
        out.append(f"{parse_graph6(text).pair_bits():x}\n")
    enumerate_colorings(6, lambda c: out.append(f"{c.pair_bits():x}\n"), stop=2000)
    return "".join(out)


def test_file_text_and_pair_bits_are_frozen():
    digest = hashlib.sha256(_format_bytes().encode("ascii")).hexdigest()
    assert digest == FORMAT_SHA256


def _forced_split(seed: int) -> tuple[Coloring, int, int]:
    """Acceptance criterion 6's instance: a random coloring of K_2k with
    the first k vertices made a black clique and the last k a white one."""
    k = 4 + seed % 9
    adj = list(random_coloring(2 * k, seed, (0.2, 0.5, 0.8)[seed % 3])._black)
    A = (1 << k) - 1
    for u in range(2 * k):
        adj[u] = adj[u] | A & ~(1 << u) if u < k else adj[u] & A
    return Coloring(2 * k, tuple(adj)), A, A << k


def _violator_split(seed: int) -> tuple[Coloring, int, int]:
    """The split pair test_split_graph_fan_is_color_symmetric draws."""
    rng = random.Random(seed)
    k = rng.randint(3, 9)
    p = rng.random()
    cross = {(u, b): rng.random() < p for u in range(k) for b in range(k)}
    A = (1 << k) - 1
    return _split_instance(k, lambda u, b: cross[u, b]), A, A << k


def _text(out) -> str:
    return (out.to_json() if hasattr(out, "to_json") else repr(out)) + "\n"


def _outcome(call) -> str:
    try:
        return _text(call())
    except UnreachableBranch as exc:
        return f"!{exc.label}\n"
    except FanRamseyError as exc:
        return f"!{type(exc).__name__}: {exc}\n"


def _traced(trace: ExtractionTrace) -> str:
    records = [json.dumps(r.to_json_dict(), sort_keys=True) for _, r in trace.records]
    return trace.to_json() + "".join(records) + "\n"


def _fan_bytes() -> str:
    out = []
    splits = [_forced_split(seed) for seed in range(200)]
    splits += [_violator_split(s) for s in (1911, 4310, 8190, 9116, 11544)]
    for c, A, B in splits:
        out.append(_outcome(lambda: split_graph_fan(c, BLACK, A, B)))
        out.append(_outcome(lambda: split_graph_fan(c.swap_colors(), WHITE, A, B)))
    for N in range(3, 20):
        k_n, w = Coloring.complete(N, BLACK), CliqueWitness(BLACK, (1 << N) - 1)
        for n in range(1, (N - 1) // 2 + 1):
            out.append(_outcome(lambda: fan_from_clique(k_n, w, n)))
    for args in ((6, False), (6, True), (8, False)):
        c, run = _blocker_then_residue(*args)
        for cc, col in ((c, BLACK), (c.swap_colors(), WHITE)):
            got, trace = run(cc, col)
            out.append(_text(got) + _traced(trace))
    for args in ((4, 3, 8, 11), (2, 7, 4, 12), (2, 5, 5, 9), (3, 9, 3, 18), (3, 3, 2, 6)):
        c, A = cover_gadget(*args)
        n = args[3]
        for cc, col in ((c, BLACK), (c.swap_colors(), WHITE)):
            for band in ("high_d", "mid", "low"):
                trace = ExtractionTrace(n, cc.N, "case")
                clique = CliqueWitness(col, A.members)
                out.append(_outcome(lambda: _clique_pipeline(cc, n, clique, trace, band)))
                out.append(_traced(trace))
    return "".join(out)


def test_fan_assembly_is_frozen():
    digest = hashlib.sha256(_fan_bytes().encode("ascii")).hexdigest()
    assert digest == FAN_SHA256
