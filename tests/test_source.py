"""Checks on the library's source text."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mfcontrast"


def unused_imports(source: str) -> list:
    """Names an ``import`` binds that no expression of the module reads; a
    name only a docstring mentions counts as unused."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_the_scan_finds_an_import_only_a_docstring_names():
    source = '"""Replays an ``nn.Tape``."""\nimport numpy as np\nfrom . import nn\nnp.zeros(1)\n'
    assert unused_imports(source) == ["nn (line 3)"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_import_is_read(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
