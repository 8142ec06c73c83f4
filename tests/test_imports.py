"""No unused imports in the library: a linter's F401 check, with ast."""

import ast
import importlib.util
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "robustbo"
PERFBENCH = SRC.parents[1] / "perfbench"


def _imports(source: str):
    """(name an import binds, line, whether its statement carries "# noqa: F401") for every import."""
    tree, lines = ast.parse(source), source.splitlines()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        kept = any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0], node.lineno, kept


def _read_names(source: str) -> set[str]:
    return {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """The names an import binds and the module never reads.  __init__'s
    imports are its public surface, so the caller skips it; an import whose
    statement carries "# noqa: F401" is kept on purpose."""
    imported = {name: line for name, line, kept in _imports(source) if not kept}
    read = _read_names(source)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def read_kept_imports(source: str) -> list[str]:
    """The names bound by a "# noqa: F401" import that the module reads all the same."""
    read = _read_names(source)
    return [f"line {line}: {name}" for name, line, kept in _imports(source) if kept and name in read]


def kept_imports(source: str) -> list[str]:
    """The names bound by imports whose statement carries "# noqa: F401"."""
    return [name for name, _, kept in _imports(source) if kept]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_kept_import_is_read(module):
    # "# noqa: F401" exempts a binding only the tracer reads; a name the module reads goes in a checked import
    assert read_kept_imports((SRC / module).read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import math\nfrom dataclasses import dataclass, field\n\n\n@dataclass\nclass A:\n    x = math.pi\n"
    assert unused_imports(source) == ["line 2: field"]
    assert unused_imports("from dataclasses import field  # noqa: F401\n") == []
    assert kept_imports(source) == []
    assert kept_imports("import math\nfrom dataclasses import field  # noqa: F401\n") == ["field"]
    assert read_kept_imports(source) == []
    assert read_kept_imports("from math import pi, tau  # noqa: F401\n\nx = 2 * pi\n") == ["line 1: pi"]


def test_every_kept_import_is_a_binding_the_tracer_wraps():
    # an import is exempt from the check above only to give perfbench's tracer a binding to wrap,
    # so every exempt name must be such a binding; a used name goes in a checked import
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = {(owner.__name__, attribute) for owner, attribute, _, _ in tracing.layer_targets()
               if isinstance(owner, types.ModuleType)}
    kept = {(f"robustbo.{p.stem}", name) for p in SRC.glob("*.py") if p.name != "__init__.py"
            for name in kept_imports(p.read_text())}
    assert sorted(kept - wrapped) == []
