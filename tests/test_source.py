"""Checks on the library's source text."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mfcontrast"


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


def unread_definitions(package: dict, readers: dict) -> list:
    """Top-level functions and classes of the ``package`` sources (file name
    -> text) whose name no other top-level statement of ``package`` or
    ``readers`` reads, as a name or an attribute. A definition's reads of
    its own name (recursion) do not count."""
    reads, defined = [], []
    for origin, sources in (("package", package), ("reader", readers)):
        for name, source in sources.items():
            for stmt in ast.parse(source).body:
                read = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
                read |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
                reads.append((stmt, read))
                if origin == "package" and isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.append((name, stmt))
    return sorted(f"{name}:{stmt.name}" for name, stmt in defined
                  if not any(stmt.name in read for other, read in reads if other is not stmt))


def test_the_scan_finds_a_definition_only_itself_reads():
    package = {"a.py": "def used():\n    return 1\n\n"
                       "def orphan(n):\n    return orphan(n - 1) if n else used()\n",
               "b.py": "class Kept:\n    pass\n"}
    readers = {"bench.py": "from a import Kept\nKept()\n"}
    assert unread_definitions(package, readers) == ["a.py:orphan"]


def test_every_definition_is_read_by_the_library_or_the_benchmark():
    # a function or class only tests reach belongs in the tests
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = {p.name: p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))
               if not p.name.startswith("test_")}
    assert unread_definitions(package, readers) == []


def readers_of(name: str, package: dict) -> list:
    """Files of ``package`` (file name -> text) whose code reads ``name``,
    as a name or an attribute; a definition or a docstring is no read."""
    return sorted(file for file, source in package.items() if any(
        isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
        and (n.id if isinstance(n, ast.Name) else n.attr) == name
        for n in ast.walk(ast.parse(source))))


def test_the_scan_finds_reads_as_names_and_attributes():
    package = {"a.py": '"""Calls ``f``."""\ndef f():\n    return 1\n',
               "b.py": "from . import a\nx = a.f()\n",
               "c.py": "from .a import f\ny = f\n",
               "d.py": "f = 2\n"}
    assert readers_of("f", package) == ["b.py", "c.py"]


@pytest.mark.parametrize("name, readers", [
    # how many threads a share of work gets is parallel.deal's decision alone
    ("usable_cpus", ["parallel.py"]),
    # a set number of threads at once is the two-shard training step's alone
    ("on_threads", ["parallel.py", "trainer.py"])])
def test_the_thread_helpers_are_read_only_where_they_belong(name, readers):
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert readers_of(name, package) == readers
