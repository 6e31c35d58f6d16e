"""Outside-in tracing of fanram's layer functions.

Each listed function is replaced by a timing wrapper at every place it is
bound: its defining module, each fanram module that imported it by name,
and the package namespace.  Two methods of `Coloring` are patched on the
class.  Nothing inside `src/fanram` changes.

Hot helpers (`bitset.bits`, `Coloring.neighborhood`, `Coloring.pair_color`)
are deliberately not wrapped: their time lands in the caller's self time.

Spans live in compact arrays while the run lasts (op id, parent span,
layer index, start, end) and are written out once at the end.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

import fanram.structures

# (layer, module, attribute); a dotted attribute names a method of a class
# in that module.
LAYERS = (
    ("cli", "fanram.cli", "main"),
    ("io", "fanram.io", "load_coloring"),
    ("io", "fanram.io", "parse_2col"),
    ("io", "fanram.io", "parse_graph6"),
    ("io", "fanram.io", "write_2col"),
    ("coloring", "fanram.coloring", "Coloring.from_pair_bits"),
    ("coloring", "fanram.coloring", "context_of"),
    ("coloring", "fanram.coloring", "Coloring.swap_colors"),
    ("oracle", "fanram.oracle", "random_coloring"),
    ("oracle", "fanram.oracle", "adversarial_coloring"),
    ("oracle", "fanram.oracle", "enumerate_colorings"),
    ("oracle", "fanram.oracle", "exhaustive_ramsey_check"),
    ("matching", "fanram.matching", "greedy_maximal_matching"),
    ("matching", "fanram.matching", "maximum_matching_general"),
    ("matching", "fanram.matching", "bipartite_maximum_matching"),
    ("matching", "fanram.matching", "max_deficiency_certificate"),
    ("structures", "fanram.structures", "find_mono_fan"),
    ("structures", "fanram.structures", "find_clique"),
    ("structures", "fanram.structures", "find_unavoidable_structure"),
    ("structures", "fanram.structures", "fan_violation"),
    ("structures", "fanram.structures", "split_graph_fan"),
    ("covering", "fanram.covering", "build_sc"),
    ("covering", "fanram.covering", "compute_cover"),
    ("covering", "fanram.covering", "cover_violation"),
    ("extractor", "fanram.extractor", "extract_fan"),
)

NAMES = tuple(f"{layer}.{attr}" for layer, _, attr in LAYERS)

UNWRAPPED_NOTE = (
    "bitset.bits, Coloring.neighborhood and Coloring.pair_color are not "
    "wrapped; their time is in the calling function's self_ms"
)

# Which workload must call which function, per the layer table in README.md.
# A zero here means a rename or a new import site escaped the wrappers.
EXERCISED = {
    "io.parse_2col": ("cli_files",),
    "coloring.Coloring.from_pair_bits": ("oracle_exhaustive", "cli_files"),
    "oracle.random_coloring": ("trials_batch",),
    "oracle.adversarial_coloring": ("trials_batch",),
    "matching.maximum_matching_general": ("library", "trials_batch"),
    "matching.bipartite_maximum_matching": ("library",),
    "matching.max_deficiency_certificate": ("library",),
    "covering.build_sc": ("library",),
    "structures.find_mono_fan": ("oracle_exhaustive",),
    "matching.greedy_maximal_matching": ("oracle_exhaustive",),
    "extractor.extract_fan": ("library", "trials_batch"),
    "coloring.Coloring.swap_colors": ("library", "trials_batch"),
    "cli.main": ("cli_files", "oracle_exhaustive"),
}
COVERING_ONLY_IN = "library"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Counters:
    """Ratios measured at the wrapped boundaries."""

    def __init__(self):
        self.parse_bytes = 0
        self.generated_pairs = 0
        self.mmg_scope_vertices = 0
        self.mmg_stop_given = 0
        self.mmg_stop_reached = 0
        self.fan_found = 0
        self.sc_fans = 0
        self.fast_calls = 0
        self.fast_hits = 0

    def observer(self, name):
        return getattr(self, "_on_" + name.replace(".", "_"), None)

    def _on_io_parse_2col(self, args, kwargs, out):
        self.parse_bytes += len(_arg(args, kwargs, 0, "text"))

    def _on_oracle_random_coloring(self, args, kwargs, out):
        self.generated_pairs += out.N * (out.N - 1) // 2

    _on_oracle_adversarial_coloring = _on_oracle_random_coloring

    def _on_matching_maximum_matching_general(self, args, kwargs, out):
        self.mmg_scope_vertices += _arg(args, kwargs, 2, "scope").bit_count()
        stop_at = kwargs.get("stop_at")
        if stop_at is not None:
            self.mmg_stop_given += 1
            self.mmg_stop_reached += out.size >= stop_at

    def _on_structures_find_mono_fan(self, args, kwargs, out):
        self.fan_found += out is not None

    def _on_covering_build_sc(self, args, kwargs, out):
        self.sc_fans += isinstance(out, fanram.structures.FanCertificate)

    def _on_extractor_extract_fan(self, args, kwargs, out):
        if _arg(args, kwargs, 2, "mode", "faithful") == "fast":
            self.fast_calls += 1
            steps = out[1].steps
            self.fast_hits += bool(steps) and steps[0]["case"] == "fast"


class Tracer:
    """Installs the wrappers and records spans while `active` is set."""

    def __init__(self):
        self.op_of = array("q")
        self.parent = array("q")
        self.layer = array("h")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.active = False
        self.counters = Counters()
        self.sites = {}
        self._undo = []

    def _wrap(self, index, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = len(tracer.start)
            tracer.op_of.append(tracer.op_id)
            tracer.parent.append(tracer.stack[-1])
            tracer.layer.append(index)
            tracer.end.append(0.0)
            tracer.stack.append(span)
            tracer.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[span] = perf_counter()
                tracer.stack.pop()
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return traced

    def install(self):
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fanram" or name.startswith("fanram."))
        ]
        for index, ((_, modname, attr), name) in enumerate(zip(LAYERS, NAMES)):
            observe = self.counters.observer(name)
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(index, raw.__func__, observe))
                else:
                    new = self._wrap(index, raw, observe)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                self.sites[name] = 1
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(index, orig, observe)
            count = 0
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))
                        count += 1
            self.sites[name] = count

    def uninstall(self):
        self.active = False
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def summary(self, passes: int, op_scale) -> dict:
        """Per-pass calls, self_ms and total_ms for every listed function;
        op_scale[op] rescales the spans of each op to the reference speed."""
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        total_s = [0.0] * len(NAMES)
        child = array("d", bytes(8 * len(self.start)))
        # children always come after their parent, so walking backwards
        # finishes every child before its parent is reached
        for span in reversed(range(len(self.start))):
            d = (self.end[span] - self.start[span]) * op_scale[self.op_of[span]]
            if self.parent[span] >= 0:
                child[self.parent[span]] += d
            i = self.layer[span]
            calls[i] += 1
            total_s[i] += d
            self_s[i] += d - child[span]
        return {
            name: {
                "calls": calls[i] / passes,
                "self_ms": self_s[i] * 1e3 / passes,
                "total_ms": total_s[i] * 1e3 / passes,
            }
            for i, name in enumerate(NAMES)
        }

    def write(self, path) -> int:
        """Spans as gzip CSV: op,span,parent,function,start_us,end_us."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("op,span,parent,function,start_us,end_us\n")
            for span in range(len(self.start)):
                fh.write(
                    f"{self.op_of[span]},{span},{self.parent[span]},"
                    f"{NAMES[self.layer[span]]},"
                    f"{(self.start[span] - t0) * 1e6:.1f},"
                    f"{(self.end[span] - t0) * 1e6:.1f}\n"
                )
        return len(self.start)


def coverage_errors(workload: str, summary: dict, sites: dict) -> list[str]:
    """Empty when every wrapped function that must run here did run."""
    errors = [f"{name}: no binding site found" for name, k in sites.items() if not k]
    for name, workloads in EXERCISED.items():
        if workload in workloads and summary[name]["calls"] == 0:
            errors.append(f"{name}: 0 calls on {workload}")
    if workload != COVERING_ONLY_IN:
        for name in NAMES:
            if name.startswith("covering.") and summary[name]["calls"]:
                errors.append(f"{name}: called on {workload}")
    return errors
