"""Run one fanram benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli_files --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

Run from any directory; the package is imported from the `src` directory
next to this one.  --trace 0 measures the end-to-end metrics with nothing
wrapped.  --trace 1 alternates plain passes with traced passes, for which
alone the wrappers are installed, and prints the per-layer metrics, the tracing overhead, the N=856 parse time
and the trials pool speed-up.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds details (per-sample percentiles, sample counts, failures).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

IMPORT_REPEATS = 15
BUILD_REPEATS = 3
WALL_LIMIT_S = 140.0  # stop adding passes so a run ends well within 180 s
N856_SEED_OFFSET = 856
POOL_ARGV = ["trials", "--n", "20", "--count", "48"]
REF_REPS = 2  # reference timings before and after each op or build step
FRESH_IMPORT = os.path.join(HERE, "fresh_import.py")


def _import_fanram():
    sys.path.insert(0, SRC)
    try:
        import fanram
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fanram from {SRC}: {exc}")
    if not os.path.abspath(fanram.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: fanram came from {fanram.__file__}, not {SRC}")


_import_fanram()

import fanram.io as fio  # noqa: E402
import fanram.oracle as foracle  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from reference import reference_seconds, speed_scale  # noqa: E402

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)


def fresh_import_seconds() -> float:
    """Import time of fanram in a new interpreter, which times itself
    against the reference loop on its own core (see fresh_import.py)."""
    done = subprocess.run(
        [sys.executable, "-I", FRESH_IMPORT],
        capture_output=True, text=True, timeout=60,
    )
    if done.returncode != 0:
        sys.exit(f"perfbench: fresh import failed:\n{done.stderr}")
    return float(done.stdout)


class Stopwatch:
    """Sums the time of build steps, each rescaled by reference timings
    taken just before and after it: a build lasts seconds, long enough
    for the machine's speed to change several times."""

    def __init__(self):
        self.total = 0.0

    def __call__(self, fn, *args):
        refs = [reference_seconds() for _ in range(REF_REPS)]
        t0 = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t0
        refs += [reference_seconds() for _ in range(REF_REPS)]
        self.total += dt * speed_scale(refs)
        return out


def build_inputs(build, seed, workdir):
    """The inputs, and the median time of BUILD_REPEATS builds of them."""
    builds = []
    for _ in range(BUILD_REPEATS):
        watch = Stopwatch()
        ops = build(seed, workdir, watch)
        builds.append(watch.total)
    return ops, statistics.median(builds)


class Tally:
    def __init__(self):
        self.samples = {}
        self.wall = 0.0
        self.scaled = 0.0
        self.attempted = 0
        self.failures = []
        self.first_output = {}

    def record(self, label, error=None):
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{label}: {error}")


def run_pass(ops, tally, tracer=None) -> list:
    """One op after another, each checked; returns each op's factor to the
    reference speed, taken from reference timings just before and after it."""
    scales = []
    for i, op in enumerate(ops):
        refs = [reference_seconds() for _ in range(REF_REPS)]
        error = None
        if tracer is not None:
            tracer.op_id += 1
            tracer.active = True
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # counted as a failed op, never hidden
            error = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        refs += [reference_seconds() for _ in range(REF_REPS)]
        scale = speed_scale(refs)
        scales.append(scale)
        tally.samples.setdefault(i, []).append(dt * scale)
        tally.wall += dt
        tally.scaled += dt * scale
        if error is None:
            first = i not in tally.first_output
            try:
                rendered, error = op.finish(result, first)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            if error is None and tally.first_output.setdefault(i, rendered) != rendered:
                error = "output differs from the first pass"
        tally.record(op.label, error)
    return scales


def nearest_rank(sorted_values, pct):
    """The pct-th percentile as a real sample, and how many lie beyond it."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(name, seed, seconds, workdir, detail):
    """Untraced passes.  The bounded latency figures summarize each op by
    its median over the passes; the plain percentiles over every sample
    go to the detail line."""
    build, tail_pct, min_passes = workloads.WORKLOADS[name]
    ops, build_s = build_inputs(build, seed, workdir)
    imports = []
    tally = Tally()
    passes = 0
    started = perf_counter()
    while (passes < min_passes or tally.wall < seconds) and (
        passes == 0 or perf_counter() - started < WALL_LIMIT_S
    ):
        run_pass(ops, tally)
        passes += 1
        # The fresh imports are spread between the passes: the machine's
        # speed drifts over seconds, and consecutive imports share one state.
        due = min(IMPORT_REPEATS, math.ceil(IMPORT_REPEATS * tally.wall / seconds))
        imports += [fresh_import_seconds() for _ in range(due - len(imports))]
    imports += [fresh_import_seconds() for _ in range(IMPORT_REPEATS - len(imports))]
    setup_s = statistics.median(imports) + build_s
    per_op = [statistics.median(tally.samples[i]) for i in range(len(ops))]
    samples = sorted(t for times in tally.samples.values() for t in times)
    tail, beyond = nearest_rank(samples, tail_pct)
    colorings = passes * sum(op.colorings for op in ops)
    detail.update(
        passes=passes,
        ops_per_pass=len(ops),
        samples=len(samples),
        op_p50_ms=statistics.median(samples) * 1e3,
        op_tail_ms=tail * 1e3,
        op_tail_pct=tail_pct,
        samples_beyond_tail=beyond,
        fail_rate=len(tally.failures) / tally.attempted,
        wall_s=tally.wall,
        wall_ops_per_s=len(samples) / tally.wall,
        slowdown_vs_reference=tally.wall / tally.scaled,
    )
    if name == "trials_batch":
        detail["tasks_per_s"] = colorings / tally.scaled
    ok = tally.attempted - len(tally.failures)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(samples) / tally.scaled, "1/s"),
        "typical_op_ms": (statistics.median(per_op) * 1e3, "ms"),
        "slowest_op_ms": (max(per_op) * 1e3, "ms"),
        "ok_rate": (ok / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "colorings_per_s": (colorings / tally.scaled, "1/s"),
    }
    return tally, metrics


def pool_speedup(seed, tally):
    """trials wall time at one worker over the same at two, median of 3."""
    argv = POOL_ARGV + ["--seed", str(seed)]
    times = {1: [], 2: []}
    reference = None
    for order in ((1, 2), (2, 1), (1, 2)):
        for workers in order:
            os.environ["FANRAM_WORKERS"] = str(workers)
            t0 = perf_counter()
            code, out = workloads.call_main(argv)
            times[workers].append(perf_counter() - t0)
            reference = reference or out
            error = None
            if code != 0:
                error = f"exit {code}: {out[:200]}"
            elif out != reference:
                error = "output depends on the worker count"
            tally.record(f"pool trials at {workers} workers", error)
    return statistics.median(times[1]) / statistics.median(times[2])


def parse_n856(seed, workdir, tally):
    """One parse of an N=856 random file, rescaled to the reference speed:
    too slow to repeat inside ops."""
    c = foracle.random_coloring(856, seed + N856_SEED_OFFSET, 0.5)
    path = os.path.join(workdir, "n856.2col")
    fio.save_2col(c, path)
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    watch = Stopwatch()
    parsed = watch(fio.parse_2col, text)
    tally.record("n856", None if parsed == c else "parsed coloring differs")
    return watch.total


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(name, seed, seconds, workdir, detail):
    build, _, _ = workloads.WORKLOADS[name]
    ops = build(seed, workdir, workloads.untimed)
    tally = Tally()
    tracer = tracing.Tracer()
    plain = traced = 0.0
    op_scale = []
    pairs = 0
    started = perf_counter()
    # Plain passes run with no wrapper installed, so the overhead ratio
    # compares traced time with untraced time.
    while (pairs == 0 or tally.wall < seconds) and (
        pairs == 0 or perf_counter() - started < WALL_LIMIT_S
    ):
        before = tally.scaled
        run_pass(ops, tally)
        plain += tally.scaled - before
        before = tally.scaled
        tracer.install()
        try:
            op_scale += run_pass(ops, tally, tracer)
        finally:
            tracer.uninstall()
        traced += tally.scaled - before
        pairs += 1
    summary = tracer.summary(pairs, op_scale)
    errors = tracing.coverage_errors(name, summary, tracer.sites)
    if errors:
        sys.exit("perfbench: coverage self-check failed:\n  " + "\n  ".join(errors))

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{name}.csv.gz")
    detail.update(
        traced_passes=pairs,
        spans=tracer.write(spans_path),
        spans_file=os.path.relpath(spans_path, ROOT),
        binding_sites=tracer.sites,
        per_pass="calls, self_ms and total_ms are per traced pass of the workload",
        unwrapped=tracing.UNWRAPPED_NOTE,
    )

    metrics = {}
    for fn, row in summary.items():
        metrics[f"{fn}.calls"] = (row["calls"], "count/pass")
        metrics[f"{fn}.self_ms"] = (row["self_ms"], "ms/pass")
        metrics[f"{fn}.total_ms"] = (row["total_ms"], "ms/pass")
    k = tracer.counters
    total_s = {fn: row["total_ms"] * pairs / 1e3 for fn, row in summary.items()}
    calls = {fn: row["calls"] * pairs for fn, row in summary.items()}
    gen_s = total_s["oracle.random_coloring"] + total_s["oracle.adversarial_coloring"]
    metrics.update(
        {
            "io.parse_2col.mb_per_s": (
                _ratio(k.parse_bytes / 1e6, total_s["io.parse_2col"]),
                "MB/s",
            ),
            "io.parse_2col.n856_ms": (parse_n856(seed, workdir, tally) * 1e3, "ms"),
            "oracle.generators.pairs_per_s": (_ratio(k.generated_pairs, gen_s), "1/s"),
            "matching.maximum_matching_general.scope_vertices": (
                _ratio(k.mmg_scope_vertices, calls["matching.maximum_matching_general"]),
                "count",
            ),
            "matching.maximum_matching_general.hit_rate": (
                _ratio(k.mmg_stop_reached, k.mmg_stop_given),
                "ratio",
            ),
            "structures.find_mono_fan.hit_rate": (
                _ratio(k.fan_found, calls["structures.find_mono_fan"]),
                "ratio",
            ),
            "covering.build_sc.fan_rate": (
                _ratio(k.sc_fans, calls["covering.build_sc"]),
                "ratio",
            ),
            "extractor.fast_hit_rate": (_ratio(k.fast_hits, k.fast_calls), "ratio"),
            "cli.trials.pool_speedup": (pool_speedup(seed, tally), "ratio"),
            "trace.overhead_ratio": (traced / plain, "ratio"),
        }
    )
    return tally, metrics


def run_all(args):
    """Every workload, untraced then traced, each in its own interpreter."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
            if done.returncode != 0:
                sys.exit(f"perfbench: {name} trace={trace} failed:\n{done.stderr}")
            lines = done.stdout.strip().splitlines()
            print(f"# {name} trace={trace}: {lines[-2]}")
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for key, value in result["metrics"].items():
                metrics[f"{name}.{key}"] = value
                print(f"{name:18} {key:52} {value['value']:>14.6g} {value['unit']}")
    return correct, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        correct, attempted, failed, metrics = run_all(args)
    else:
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
        }
        os.makedirs(WORK, exist_ok=True)
        workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            measure = per_layer if args.trace else end_to_end
            tally, raw = measure(args.workload, args.seed, args.seconds, workdir, detail)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        detail["failures"] = tally.failures[:10]
        print(json.dumps(detail, sort_keys=True))
        attempted, failed = tally.attempted, len(tally.failures)
        correct = failed == 0
        metrics = {key: {"value": v, "unit": u} for key, (v, u) in raw.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
