"""The four closed-loop workloads: one client, one process, one op at a time.

A workload's `build(seed, workdir, timed)` returns its ops; each step
that makes or writes an input runs as `timed(fn, *args)`, which times it
as set-up.  An op is the unit
timed: `run()` makes the calls into fanram and returns their raw results;
`finish(result, first)` runs outside the timed region and returns the
op's output bytes (compared across passes: the determinism contract) and
an error string or None.  A check too slow for every pass runs when
`first` is set; later passes must then reproduce the checked bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import fanram.cli as fcli
import fanram.covering as fcovering
import fanram.extractor as fextractor
import fanram.io as fio
import fanram.structures as fstructures
from fanram.coloring import BLACK, Coloring

from inputs import circulant, cover_gadget, graph6_of, literal_has_fan

FAMILIES = (
    ("random", 0.2),
    ("random", 0.5),
    ("random", 0.8),
    ("bipartite_blowup", None),
    ("pentagon_blowup", None),
    ("clique_plus_noise", None),
)
SIZES = (20, 80)  # n; N = floor(31n/6) + 15 is 118 and 428


class Op:
    def __init__(self, label, run, finish, colorings=1):
        self.label = label
        self.run = run
        self.finish = finish
        self.colorings = colorings


def call_main(argv):
    """In-process CLI call with stdout captured; the module attribute is
    looked up per call so a tracing wrapper sees it."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fcli.main(argv)
    return code, buf.getvalue()


def untimed(fn, *args):
    return fn(*args)


def family_colorings(seed, timed):
    """(label, n, coloring) for the six trial families at both sizes."""
    out = []
    for n in SIZES:
        N = fextractor.min_order(n)
        for i, (family, p) in enumerate(FAMILIES):
            c = timed(fcli.trial_coloring, family, p, N, n, seed * 1000 + n * 10 + i)
            label = family if p is None else f"{family}{p}"
            out.append((f"{label}-N{N}", n, c))
    return out


def _fan_error(c, cert, n):
    if cert.n_claimed != n:
        return f"certificate claims {cert.n_claimed} blades, asked {n}"
    return fstructures.fan_violation(c, cert)


# --------------------------------------------------------------- cli_files


def _write_text(path, text):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def build_cli_files(seed, workdir, timed):
    corpus = family_colorings(seed, timed)
    N = fextractor.min_order(80)
    corpus.append((f"all_black-N{N}", 80, timed(Coloring.complete, N, BLACK)))
    files = []
    for label, n, c in corpus:
        path = os.path.join(workdir, label + ".2col")
        timed(fio.save_2col, c, path)
        files.append((label, n, c, path))
    label, n, c, _ = next(f for f in files if f[0] == f"random0.5-N{N}")
    g6 = os.path.join(workdir, label + ".g6")
    timed(_write_text, g6, timed(graph6_of, c))
    files.append((label + "-graph6", n, c, g6))
    return [_cli_op(i, workdir, *f) for i, f in enumerate(files)]


def _cli_op(i, workdir, label, n, c, path):
    trace_path = os.path.join(workdir, f"trace{i}.json")
    cert_path = os.path.join(workdir, f"cert{i}.json")

    def run():
        code, out = call_main(
            ["extract", "--in", path, "--n", str(n), "--trace", trace_path]
        )
        with open(cert_path, "w", encoding="ascii") as fh:
            fh.write(out)
        vcode, vout = call_main(["verify", "--in", path, "--cert", cert_path])
        return code, out, vcode, vout

    def finish(result, first):
        code, out, vcode, vout = result
        rendered = f"{code}\n{out}{vcode}\n{vout}"
        if code != 0:
            return rendered, f"extract exit {code}: {out[:200]}"
        doc = json.loads(out)
        bad = _fan_error(c, fstructures.FanCertificate.from_json_dict(doc), n)
        if bad:
            return rendered, f"bad certificate: {bad}"
        if vcode != 0 or json.loads(vout) != {"valid": True, "violation": None}:
            return rendered, f"verify exit {vcode}: {vout[:200]}"
        with open(trace_path, encoding="ascii") as fh:
            trace = json.load(fh)
        if trace["mode"] != "fast" or trace["certificate"] != doc:
            return rendered, "trace file disagrees with the printed certificate"
        return rendered, None

    return Op(label, run, finish)


# ----------------------------------------------------------------- library

BAND_CIRCULANTS = (
    ("circulant_mid-N92", 92, tuple(range(1, 23)) + (46,), 15),
    ("circulant_low-N97", 97, tuple(range(1, 25)), 16),
)
COVER_GADGETS = ((4, 3, 8, 11), (5, 6, 8, 18), (4, 8, 8, 20))
# One library op extracts from three draws of a family at one size, so its
# cost does not hinge on a single seeded coloring.
FAMILY_DRAWS = 3


def build_library(seed, workdir, timed):
    draws = [
        family_colorings(seed * FAMILY_DRAWS + j, timed) for j in range(FAMILY_DRAWS)
    ]
    ops = [
        _extract_op(label, n, [draw[i][2] for draw in draws])
        for i, (label, n, _) in enumerate(draws[0])
    ]
    for label, N, offsets, n in BAND_CIRCULANTS:
        ops.append(_extract_op(label, n, [timed(circulant, N, offsets)]))
    for groups, size, blob, n in COVER_GADGETS:
        c, clique = timed(cover_gadget, groups, size, blob, n)
        ops.append(_cover_op(f"cover{groups}x{size}-N{c.N}", c, clique, n, groups))
    return ops


def _extract_op(label, n, colorings):
    def run():
        out = []
        for c in colorings:
            cert, trace = fextractor.extract_fan(c, n, mode="faithful")
            out.append((cert, trace, fstructures.fan_violation(c, cert)))
        return out

    def finish(results, first):
        rendered = "".join(c.to_json() + t.to_json() for c, t, _ in results)
        for c, (cert, _, violation) in zip(colorings, results):
            bad = violation or _fan_error(c, cert, n)
            if bad:
                return rendered, f"bad certificate: {bad}"
        return rendered, None

    return Op(label, run, finish, colorings=len(colorings))


def _cover_op(label, c, clique, n, groups):
    def run():
        return fcovering.compute_cover(c, clique, n)

    def finish(rec, first):
        if not isinstance(rec, fcovering.CoverRecord):
            return repr(rec), "expected a cover, got a fan"
        rendered = rec.to_json()
        if rec.t != groups:
            return rendered, f"cover length {rec.t}, construction forces {groups}"
        if first:
            bad = fcovering.cover_violation(c, rec, n)
            if bad:
                return rendered, f"bad cover: {bad}"
        return rendered, None

    return Op(label, run, finish)


# ------------------------------------------------------------ trials_batch

TRIALS_PER_PASS = 10
TRIAL_TASKS = 6


def build_trials_batch(seed, workdir, timed):
    os.environ["FANRAM_WORKERS"] = "1"
    return [
        _trials_op(seed * 1000 + TRIAL_TASKS * j, 20, TRIAL_TASKS)
        for j in range(TRIALS_PER_PASS)
    ]


def _trials_op(s, n, count):
    argv = ["trials", "--n", str(n), "--count", str(count), "--seed", str(s)]

    def run():
        return call_main(argv)

    def finish(result, first):
        code, out = result
        if code != 0:
            return out, f"trials exit {code}: {out[:300]}"
        doc = json.loads(out)
        if doc["failures"] or doc["unreachable"]:
            return out, f"trials failures {doc['failures']} {doc['unreachable']}"
        done = sum(f["successes"] for f in doc["families"].values())
        if doc["count"] != count or done != count:
            return out, f"{done} of {count} trials succeeded"
        return out, None

    return Op(f"trials-seed{s}", run, finish, colorings=count)


# ------------------------------------------------------- oracle_exhaustive

# R(F_1) = R(K_3) = 6; F_2-free colorings of K_5 and K_6 exist because the
# 8-vertex bipartite lower-bound coloring for n=2 is fan-free.
ORACLE_KNOWN = {(5, 1): False, (6, 1): True, (5, 2): False, (6, 2): False}
EXAMPLE_CAP = 10


def build_oracle_exhaustive(seed, workdir, timed):
    scopes = sorted(ORACLE_KNOWN)
    random.Random(seed).shuffle(scopes)
    return [_oracle_op(N, k) for N, k in scopes]


def _oracle_op(N, k):
    argv = ["oracle", "ramsey", "--N", str(N), "--n", str(k)]
    total = 1 << N * (N - 1) // 2

    def run():
        return call_main(argv)

    def finish(result, first):
        code, out = result
        if code != 0:
            return out, f"oracle exit {code}: {out[:200]}"
        doc = json.loads(out)
        if doc["total"] != total:
            return out, f"visited {doc['total']} of {total} colorings"
        if doc["all_contain"] is not ORACLE_KNOWN[N, k]:
            return out, f"all_contain={doc['all_contain']} for N={N}, n={k}"
        examples = doc["fan_free_examples"]
        if doc["all_contain"] == bool(examples) or len(examples) > EXAMPLE_CAP:
            return out, f"{len(examples)} fan-free examples"
        for text in examples:
            if int(text.split()[2]) != N or literal_has_fan(text, k):
                return out, f"example is not a fan-free K_{N}: {text}"
        return out, None

    return Op(f"oracle-N{N}-n{k}", run, finish, colorings=total)


# Per-sample tail percentile (printed in the detail line), and the fewest
# passes a run makes.  The percentile is the highest multiple of 5 that
# leaves at least ten samples beyond it at that many passes; the passes
# also steady each op's median.
WORKLOADS = {
    "cli_files": (build_cli_files, 90, 8),
    "library": (build_library, 95, 12),
    "trials_batch": (build_trials_batch, 95, 20),
    "oracle_exhaustive": (build_oracle_exhaustive, 85, 18),
}
