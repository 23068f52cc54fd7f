"""Tier-1 pin for the frozen benchmark's view of ``src/``.

``bench/`` may not be edited outside a ``[benchmark]`` PR, so every name it
imports from ``repro`` is API that has to keep working (``zipf_weights``,
``DEFAULT_MIX``, ``seeded_queries``/``oracle_select``/``DatacubeBenchConfig``,
``Backend``, ``execute_tree``, ``compile_vector_plan``, ``build_plan``, ...).
The list is not written down here: it is read from ``bench/*.py`` itself, so
a deletion or rename under ``src/`` fails in this suite and not only in the
bench smoke, and the pin can never drift from what the bench really imports.
"""

import ast
import importlib
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def repro_imports():
    """Every ``(module, name)`` a ``bench/*.py`` file imports from repro."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module == "repro" or (node.module or "").startswith("repro.")
            ):
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update(
                    (alias.name, None) for alias in node.names
                    if alias.name.split(".")[0] == "repro"
                )
    return sorted(found, key=str)


IMPORTS = repro_imports()


def test_the_walk_finds_the_known_surface():
    assert ("repro.serving.workload", "zipf_weights") in IMPORTS
    assert ("repro.hopsfs.workload", "DEFAULT_MIX") in IMPORTS
    assert ("repro.sparql.vector", "execute_tree") in IMPORTS
    assert ("repro.sparql.dist", "build_plan") in IMPORTS
    assert len(IMPORTS) > 40


@pytest.mark.parametrize("module, name", IMPORTS)
def test_bench_import_resolves(module, name):
    imported = importlib.import_module(module)
    if name is not None:
        assert hasattr(imported, name), f"bench/ imports {module}.{name}"


def test_backend_keeps_supports_budget():
    # Read as an attribute by bench/sparql_workloads.py, not imported.
    from repro.serving.gateway import Backend

    assert hasattr(Backend, "supports_budget")
