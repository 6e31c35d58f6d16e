"""The determinism contract, frozen across commits.

The same input and seed must give byte-identical certificates, traces and
cover records, and the same coloring must give byte-identical file text
and pair-bit encodings.  The digests below were captured from a
known-good build; a change that alters any of these bytes must say so and
update them.
"""

import hashlib

import networkx as nx

from fanram.cli import _TRIAL_FAMILIES, trial_coloring
from fanram.covering import compute_cover
from fanram.extractor import extract_fan, min_order
from fanram.io import parse_graph6, write_2col
from fanram.oracle import enumerate_colorings
from gadgets import circulant, cover_gadget
from test_io import _black_graph

FORMAT_SHA256 = "7701bece23740d57d80752740637002c304adac95614410cec2c2ab8fb184cfc"
FROZEN_SHA256 = "30ee1784eb6ec98fb6bae6df4d21361a3e6035f11594c9db33b734dc64bc0531"


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
