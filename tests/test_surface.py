"""The public surface: what each module exports, and what the package does."""

import ast
import importlib
from pathlib import Path

import pytest

import rydcorr

SOURCES = sorted(Path(rydcorr.__file__).parent.parent.rglob("*.py"))
MODULES = ("algebra", "correlators", "liouville", "model", "pqs", "trajectories")

PACKAGE_NAMES = {
    "ModelParams", "PairOperator", "sigma", "pair_hamiltonian", "jump_operators",
    "Liouvillian", "build_liouvillian", "build_adjoint_liouvillian", "steady_state",
    "propagate", "spectrum",
    "CorrelationSeries", "g2", "g15", "g3", "g25", "amplitude_ratio", "dominant_frequency",
    "g3_via_pqs", "g25_via_pqs",
    "ClickRecord", "TrajectoryBatch", "mcwf_run", "estimate_g2",
}


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"rydcorr.{name}")
    exports = module.__all__
    assert len(set(exports)) == len(exports)
    assert [n for n in exports if not hasattr(module, n)] == []


def test_package_exports_are_exactly_the_public_api():
    """A stale export, or a new one, shows up here as a diff."""
    assert len(PACKAGE_NAMES) == 24
    assert sorted(rydcorr.__all__) == sorted(PACKAGE_NAMES | {"__version__"})
    assert [n for n in rydcorr.__all__ if not hasattr(rydcorr, n)] == []


def unused_imports(path):
    """Names a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_source_modules_import_nothing_unused(path):
    """An import kept only for a test to patch, or left behind when its last
    caller went, shows up here; no linter runs on the package."""
    assert unused_imports(path) == []
