"""The determinism contract, frozen across commits.

The same input and seed must give byte-identical certificates, traces and
cover records.  The digest below was captured from a known-good build; a
change that alters any of these bytes must say so and update it.
"""

import hashlib

from fanram.cli import _TRIAL_FAMILIES, trial_coloring
from fanram.covering import compute_cover
from fanram.extractor import extract_fan, min_order
from gadgets import circulant, cover_gadget

FROZEN_SHA256 = "30ee1784eb6ec98fb6bae6df4d21361a3e6035f11594c9db33b734dc64bc0531"


def _corpus_bytes() -> str:
    out = []
    for n in (6, 20):
        N = min_order(n)
        for family, p in _TRIAL_FAMILIES:
            for seed in (1, 2):
                c = trial_coloring(family, p, N, n, seed)
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
