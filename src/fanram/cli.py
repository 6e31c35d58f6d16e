"""Command-line interface.

Subcommands: extract, verify, oracle ramsey, lowerbound, cover, trials.
Every command prints one JSON document on stdout and human-readable
diagnostics on stderr.  Exit codes: 0 success, 1 negative verification or
extraction result, 2 usage or precondition error, 3 an unreachable branch
fired (bug class).  FANRAM_WORKERS caps the trial worker processes.
trials and lowerbound refuse to generate a coloring of more than
MAX_GENERATED_N vertices.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .bitset import mask_of
from .coloring import BLACK, WHITE, Coloring
from .covering import compute_cover
from .errors import (
    ColoringFormatError,
    FanRamseyError,
    PreconditionViolated,
    UnreachableBranch,
)
from .extractor import extract_fan, min_order
from .io import load_coloring, save_2col
from .oracle import (
    ADVERSARIAL_KINDS,
    adversarial_coloring,
    bipartite_lower_bound,
    exhaustive_ramsey_check,
    random_coloring,
)
from .structures import (
    CliqueWitness,
    FanCertificate,
    fan_violation,
    find_mono_fan,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNREACHABLE = 3

# about 2.5x N = 1668, the largest order timed so far; a larger coloring
# would take hours to generate or search, so it is refused up front
MAX_GENERATED_N = 4096


@dataclass
class CommandResult:
    exit_code: int
    payload: dict
    diagnostics: str = ""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """Built once per process; parse_args returns a fresh namespace each call."""
    parser = _Parser(prog="fanram", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract a verified fan certificate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["fast", "faithful"], default="fast")
    p.add_argument("--trace", dest="tracefile")

    p = sub.add_parser("verify", help="check a fan certificate against a coloring")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cert", required=True)

    p = sub.add_parser("oracle", help="exhaustive ground-truth checks")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    p2 = osub.add_parser("ramsey", help="exhaustive fan check over all colorings")
    p2.add_argument("--N", type=int, required=True)
    p2.add_argument("--n", type=int, required=True)

    p = sub.add_parser("lowerbound", help="write the fan-free bipartite coloring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", dest="outfile")

    p = sub.add_parser("cover", help="greedy cover of a monochromatic clique")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--clique", required=True, help="comma-separated vertices")
    p.add_argument("--color", choices=["B", "W"], required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("trials", help="batch extractions with branch coverage")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--family", choices=["random", *ADVERSARIAL_KINDS])
    return parser


def run(argv: list[str]) -> CommandResult:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        return CommandResult(EXIT_USAGE, {"error": "usage", "message": str(exc)})
    try:
        return _COMMANDS[args.command](args)
    except ColoringFormatError as exc:
        return CommandResult(
            EXIT_USAGE,
            {
                "error": "format",
                "message": str(exc),
                "line": exc.line,
                "offset": exc.offset,
            },
        )
    except UnreachableBranch as exc:
        return CommandResult(
            EXIT_UNREACHABLE,
            {"error": "unreachable_branch", "label": exc.label, "message": str(exc)},
            diagnostics="bug-class failure; please report the input",
        )
    except (PreconditionViolated, OSError) as exc:
        return CommandResult(EXIT_USAGE, {"error": "precondition", "message": str(exc)})
    except FanRamseyError as exc:
        return CommandResult(
            EXIT_UNREACHABLE,
            {"error": type(exc).__name__, "message": str(exc)},
            diagnostics="bug-class failure; please report the input",
        )


def _cmd_extract(args) -> CommandResult:
    coloring = load_coloring(args.infile)
    cert, trace = extract_fan(coloring, args.n, mode=args.mode)
    if args.tracefile:
        with open(args.tracefile, "w", encoding="ascii") as fh:
            fh.write(trace.to_json())
    return CommandResult(EXIT_OK, cert.to_json_dict())


def _cmd_verify(args) -> CommandResult:
    coloring = load_coloring(args.infile)
    with open(args.cert, "r", encoding="ascii", errors="replace") as fh:
        try:
            cert = FanCertificate.from_json_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise PreconditionViolated(f"certificate is not JSON: {exc}") from None
    violation = fan_violation(coloring, cert)
    payload = {"valid": violation is None, "violation": violation}
    return CommandResult(EXIT_OK if violation is None else EXIT_NEGATIVE, payload)


def _cmd_oracle(args) -> CommandResult:
    report = exhaustive_ramsey_check(args.N, args.n)
    return CommandResult(EXIT_OK, report.to_json_dict())


def _check_generated_order(N: int) -> None:
    if N > MAX_GENERATED_N:
        raise PreconditionViolated(
            f"coloring order N={N} above the cap N={MAX_GENERATED_N}"
        )


def _cmd_lowerbound(args) -> CommandResult:
    _check_generated_order(4 * args.n)
    coloring = bipartite_lower_bound(args.n)
    fan_free = (
        find_mono_fan(coloring, BLACK, args.n) is None
        and find_mono_fan(coloring, WHITE, args.n) is None
    )
    payload = {"n": args.n, "N": coloring.N, "fan_free": fan_free}
    if args.outfile:
        save_2col(coloring, args.outfile)
        payload["file"] = args.outfile
    return CommandResult(EXIT_OK if fan_free else EXIT_NEGATIVE, payload)


def _cmd_cover(args) -> CommandResult:
    coloring = load_coloring(args.infile)
    try:
        vertices = [int(tok) for tok in args.clique.split(",") if tok.strip() != ""]
    except ValueError:
        raise PreconditionViolated(f"bad clique list {args.clique!r}") from None
    for v in vertices:
        if not 0 <= v < coloring.N:
            raise PreconditionViolated(f"clique vertex {v} outside [0, {coloring.N})")
    color = BLACK if args.color == "B" else WHITE
    out = compute_cover(coloring, CliqueWitness(color, mask_of(vertices)), args.n)
    if isinstance(out, FanCertificate):
        return CommandResult(
            EXIT_OK, {"result": "fan", "certificate": out.to_json_dict()}
        )
    return CommandResult(EXIT_OK, {"result": "cover", "cover": out.to_json_dict()})


_TRIAL_FAMILIES = (
    ("random", 0.2),
    ("random", 0.5),
    ("random", 0.8),
    ("bipartite_blowup", None),
    ("pentagon_blowup", None),
    ("clique_plus_noise", None),
)


def trial_coloring(family: str, p: float | None, N: int, n: int, seed: int) -> Coloring:
    if family == "random":
        return random_coloring(N, seed, p)
    return adversarial_coloring(family, N, seed)


def _run_trial(task: tuple) -> dict:
    family, p, n, seed = task
    N = min_order(n)
    coloring = trial_coloring(family, p, N, n, seed)
    out = {
        "family": family if p is None else f"{family}_p{p}",
        "seed": seed,
        "ok": False,
    }
    try:
        cert, trace = extract_fan(coloring, n, mode="faithful")
    except UnreachableBranch as exc:
        out["error"] = "unreachable_branch"
        out["label"] = exc.label
        return out
    except Exception as exc:
        # one bad task, even a RecursionError or MemoryError, must not end
        # the batch; it is reported as a failure
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    out["ok"] = fan_violation(coloring, cert) is None
    out["labels"] = trace.labels()
    return out


def _worker_count() -> int:
    env = os.environ.get("FANRAM_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise PreconditionViolated(f"bad FANRAM_WORKERS {env!r}") from None
    return os.cpu_count() or 1


def _cmd_trials(args) -> CommandResult:
    if args.count < 1:
        raise PreconditionViolated("count must be positive")
    if args.n < 1:
        raise PreconditionViolated(f"fan parameter must be >= 1, got {args.n}")
    _check_generated_order(min_order(args.n))
    chosen = [f for f in _TRIAL_FAMILIES if args.family in (None, f[0])]
    tasks = [
        (*chosen[i % len(chosen)], args.n, args.seed + i) for i in range(args.count)
    ]

    workers = min(_worker_count(), len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_trial, tasks, chunksize=8))
    else:
        results = [_run_trial(t) for t in tasks]

    families: dict[str, dict] = {}
    coverage: dict[str, int] = {}
    failures = []
    unreachable = []
    for r in results:
        fam = families.setdefault(r["family"], {"runs": 0, "successes": 0})
        fam["runs"] += 1
        if r["ok"]:
            fam["successes"] += 1
            for label in r["labels"]:
                coverage[label] = coverage.get(label, 0) + 1
        elif r.get("error") == "unreachable_branch":
            unreachable.append({"seed": r["seed"], "label": r["label"]})
        else:
            failures.append({"seed": r["seed"], "error": r.get("error", "bad cert")})
    payload = {
        "n": args.n,
        "N": min_order(args.n),
        "count": args.count,
        "seed": args.seed,
        "families": families,
        "branch_coverage": coverage,
        "failures": failures,
        "unreachable": unreachable,
    }
    if unreachable:
        code = EXIT_UNREACHABLE
    elif failures:
        code = EXIT_NEGATIVE
    else:
        code = EXIT_OK
    return CommandResult(code, payload)


_COMMANDS = {
    "extract": _cmd_extract,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "lowerbound": _cmd_lowerbound,
    "cover": _cmd_cover,
    "trials": _cmd_trials,
}


def main(argv: list[str] | None = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    try:
        print(json.dumps(result.payload, indent=2, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early; with stdout on devnull the interpreter's
        # exit flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if result.diagnostics:
        print(result.diagnostics, file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
