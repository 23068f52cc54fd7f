"""The import layers of ``src/repro``, read from the source.

Every top-level package (or module) of ``repro`` sits in one layer of
:data:`LAYERS`, lowest first. A module-scope import may point down or
sideways, never up, and the package graph has no cycle, so the stack can be
read bottom to top. Imports under ``if TYPE_CHECKING:`` never run and are
left out. An import inside a function is deferred to call time, usually to
dodge a load-order problem; those are counted, and the count may only fall.
"""

import ast
import os
from collections import defaultdict
from typing import Dict, List, Set, Tuple

import repro

ROOT = os.path.dirname(repro.__file__)

#: The layer order, lowest first; a package may import its own layer and
#: the ones below it.
LAYERS = (
    ("errors",),
    ("faults", "geometry", "obs", "rdf"),
    ("cache", "cluster", "raster", "resilience"),
    ("datasets", "hopsfs", "soak", "sparql"),
    ("datacube", "durability", "federation", "geosparql", "ml", "serving"),
    ("apps", "catalog", "geotriples", "interlinking", "sextant"),
    ("obda", "pipeline"),
    ("soaks",),
)
LAYER = {name: level for level, names in enumerate(LAYERS) for name in names}

#: Function-scope ``repro`` import statements; lower it when one goes.
MAX_DEFERRED_IMPORTS = 30

Edges = Dict[Tuple[str, str], List[str]]


def _is_type_checking(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
        or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
    )


def _targets(node: ast.AST, module: str, is_package: bool) -> List[str]:
    """The ``repro`` modules (or module attributes) one import names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        base = node.module or ""
        if node.level:
            parts = module.split(".")
            parts = parts[: len(parts) - node.level + is_package]
            base = ".".join(parts + ([base] if base else []))
        names = [f"{base}.{alias.name}" for alias in node.names]
    return [name for name in names if name.startswith("repro.")]


def _package(module: str) -> str:
    return module.split(".")[1]


def scan(root: str = ROOT) -> Tuple[Edges, List[Tuple[str, str]]]:
    """``(edges, deferred)``: each module-scope package edge with the
    ``file:line`` sites behind it, and every function-scope import as
    ``(site, target package)``."""
    edges: Edges = defaultdict(list)
    deferred: List[Tuple[str, str]] = []
    top = os.path.dirname(root)
    for directory, _, files in os.walk(root):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            relative = os.path.relpath(path, top)
            is_package = filename == "__init__.py"
            module = os.path.dirname(relative) if is_package else relative[:-3]
            module = module.replace(os.sep, ".")
            if module == "repro":
                continue
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)

            def walk(node: ast.AST, in_function: bool) -> None:
                for child in ast.iter_child_nodes(node):
                    if _is_type_checking(child):
                        for branch in child.orelse:
                            visit(branch, in_function)
                    else:
                        visit(child, in_function)

            def visit(node: ast.AST, in_function: bool) -> None:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    site = f"{relative}:{node.lineno}"
                    targets = {
                        _package(name)
                        for name in _targets(node, module, is_package)
                    }
                    if targets and in_function:
                        deferred.extend((site, target) for target in targets)
                    elif targets:
                        for target in targets - {_package(module)}:
                            edges[(_package(module), target)].append(site)
                    return
                walk(node, in_function or isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ))

            walk(tree, False)
    return edges, deferred


def upward(edges: Edges) -> List[str]:
    """Every edge from a package to one in a higher layer."""
    return [
        f"{source} -> {target} ({', '.join(sites)})"
        for (source, target), sites in sorted(edges.items())
        if LAYER[target] > LAYER[source]
    ]


def cycles(edges: Edges) -> List[List[str]]:
    """The package groups that import one another, round and round."""
    graph: Dict[str, Set[str]] = defaultdict(set)
    for source, target in edges:
        graph[source].add(target)
    reach: Dict[str, Set[str]] = {}
    for start in list(graph):
        seen, stack = set(), [start]
        while stack:
            for nxt in graph[stack.pop()] - seen:
                seen.add(nxt)
                stack.append(nxt)
        reach[start] = seen
    groups = {
        tuple(sorted({a} | {b for b in reach[a] if a in reach.get(b, ())}))
        for a in reach
        if a in reach[a]
    }
    return sorted(list(group) for group in groups)


EDGES, DEFERRED = scan()


def test_every_package_has_a_layer():
    found = {
        name[:-3] if name.endswith(".py") else name
        for name in os.listdir(ROOT)
        if name.endswith(".py") and name != "__init__.py"
        or os.path.isfile(os.path.join(ROOT, name, "__init__.py"))
    }
    assert found == set(LAYER)


def test_no_module_scope_import_points_up_a_layer():
    assert upward(EDGES) == []


def test_no_package_cycle():
    assert cycles(EDGES) == []


def test_the_checks_fire_on_a_mutated_edge_list():
    mutated = defaultdict(list, {e: list(s) for e, s in EDGES.items()})
    # Up a layer, which also closes a cycle with soaks -> serving.
    mutated[("serving", "soaks")].append("up.py:1")
    # Sideways within one layer: no upward edge, only a cycle.
    mutated[("sparql", "hopsfs")].append("side.py:1")
    mutated[("hopsfs", "sparql")].append("side.py:2")
    assert upward(mutated) == ["serving -> soaks (up.py:1)"]
    assert cycles(mutated) == [["hopsfs", "sparql"], ["serving", "soaks"]]


def test_no_library_module_imports_the_soak_drivers():
    drivers = os.path.join("repro", "soaks", "")
    library = [
        site for (source, target), sites in EDGES.items()
        if target == "soaks" and source != "soaks" for site in sites
    ] + [
        site for site, target in DEFERRED
        if target == "soaks" and not site.startswith(drivers)
    ]
    assert library == []


def test_function_scope_imports_only_fall():
    statements = {site for site, _ in DEFERRED}
    assert len(statements) <= MAX_DEFERRED_IMPORTS, sorted(statements)
