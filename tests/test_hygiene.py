"""Source hygiene: every import in fanram is used and sits at module level,
and only the extractor writes the extraction trace.

An import that outlives the code using it, or one tucked inside a
function, is easy to miss after code moves between modules; this test
parses each module with ast and names every such import.  The same parse
keeps the layering: lower modules return witnesses and never take a trace
or a record sink, only the extractor raises UnreachableBranch, and the
k-matching question goes to maximum_matching_general from the two
structure searches alone.  SplitMix64 is spelled once: its constants and
its per-draw calls appear in rng.py and nowhere else in fanram.  A fan's
blades are recorded in one place, _FanBuilder.add_edges.  errors.py has
one class per kind of fault and nothing else.  Coloring(N, rows) is the
one checked way to hand-build a coloring, and the test oracles build
theirs through it rather than through the trusted transpose.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fanram"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "annotations":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_used(path):
    if path.name == "__init__.py":
        return  # its imports are the package's re-exports
    tree = _tree(path)
    used = _used_names(tree)
    unused = [
        f"{path.name}:{line} {name}"
        for name, line in _imported_names(tree).items()
        if name not in used
    ]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    tree = _tree(path)
    top = set(map(id, tree.body))
    nested = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert nested == []


TRACE_WRITERS = {"extractor.py"}
UNREACHABLE_IMPORTERS = {"extractor.py", "cli.py", "__init__.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_extractor_takes_a_trace(path):
    if path.name in TRACE_WRITERS:
        return
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, funcs):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            found += [
                f"{path.name}:{node.lineno} {p.arg}"
                for p in params
                if p is not None and p.arg in ("trace", "sink")
            ]
    assert found == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_extractor_and_cli_import_unreachable_branch(path):
    if path.name in UNREACHABLE_IMPORTERS:
        return
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "UnreachableBranch" for alias in node.names)
    ]
    assert found == []


K_MATCHING_ASKERS = {"find_mono_fan", "find_unavoidable_structure"}


def _calls(node: ast.AST) -> set[str]:
    return {
        n.func.id
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    }


def test_k_matching_asked_in_one_place():
    # maximum_matching_general(stop_at=k) builds its own greedy matching, so
    # a caller that also builds one repeats it
    askers = {}
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.FunctionDef):
                calls = _calls(node)
                if "maximum_matching_general" in calls:
                    askers[node.name] = "greedy_maximal_matching" in calls
    assert askers == dict.fromkeys(K_MATCHING_ASKERS, False)


SPLITMIX_CONSTANTS = {0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_splitmix_lives_in_rng(path):
    # rng.bits_below draws a whole block per step with the same constants as
    # SplitMix64; a copy of them or a per-draw loop elsewhere is a second
    # stream that can drift from the first
    if path.name == "rng.py":
        return
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Constant) and node.value in SPLITMIX_CONSTANTS
        or isinstance(node, ast.Attribute) and node.attr in ("next_float", "next_u64")
    ]
    assert found == []


def _blade_appenders(tree: ast.AST, prefix: str) -> list[str]:
    """Qualified names of the functions and classes whose own statements
    call blades.append or <anything>.blades.append."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _blade_appenders(node, f"{prefix}{node.name}.")
        elif any(
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "append"
            and (
                isinstance(n.func.value, ast.Attribute) and n.func.value.attr == "blades"
                or isinstance(n.func.value, ast.Name) and n.func.value.id == "blades"
            )
            for n in ast.walk(node)
        ):
            found.append(prefix.rstrip("."))
    return sorted(set(found))


def test_blades_are_recorded_in_one_place():
    # pair_across, pair_within and match_into all feed add_edges, so the
    # used-vertex mask is kept in step with the blade list in one spot
    found = [
        f"{path.name}:{name}"
        for path in MODULES
        for name in _blade_appenders(_tree(path), "")
    ]
    assert found == ["structures.py:_FanBuilder.add_edges"]


ERROR_CLASSES = {
    "FanRamseyError",
    "PreconditionViolated",
    "ColoringFormatError",
    "InternalError",
    "UnreachableBranch",
}


def test_one_error_class_per_kind_of_fault():
    # the CLI maps each kind to one exit code; a subclass no caller catches
    # apart from its parent is a name to keep in step for nothing
    tree = _tree(SRC / "errors.py")
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert defined == ERROR_CLASSES


def test_one_checked_constructor():
    # from_pair_bits serves the parsers, generators and oracle and complete
    # the one-color case; any other hand-built coloring goes through
    # Coloring(N, rows), which checks the rows itself
    tree = _tree(SRC / "coloring.py")
    (cls,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Coloring"
    ]
    public = {
        node.name
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and any(
            isinstance(dec, ast.Name) and dec.id == "classmethod"
            for dec in node.decorator_list
        )
    }
    assert public == {"from_pair_bits", "complete"}
    oracle = (Path(__file__).parent / "bruteforce.py").read_text(encoding="utf-8")
    assert "from_pair_bits" not in oracle and "_from_digits" not in oracle
