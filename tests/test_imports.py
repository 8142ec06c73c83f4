"""No unused imports in the library: a linter's F401 check, with ast."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "robustbo"


def unused_imports(source: str) -> list[str]:
    """The names an import binds and the module never reads.  __init__'s
    imports are its public surface, so the caller skips it; an import whose
    statement carries "# noqa: F401" is kept on purpose."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import math\nfrom dataclasses import dataclass, field\n\n\n@dataclass\nclass A:\n    x = math.pi\n"
    assert unused_imports(source) == ["line 2: field"]
    assert unused_imports("from dataclasses import field  # noqa: F401\n") == []
