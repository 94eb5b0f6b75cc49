"""No module of the package reads another package module's private names.

A private name (one with a leading underscore) may change with its own
module at any time; a reader in another module would pin it or break.
Public names such as `harness.stream` and `hierarchy.sample_actions` exist
so that no module needs to.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "metabandit"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _in_package(node):
    return node.level > 0 or (node.module or "").split(".")[0] == "metabandit"


def private_reads(source):
    """`module.name` for every private name of a package module that
    `source` imports or reads as an attribute of a package module."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _in_package(node):
            for alias in node.names:
                if node.module in (None, "metabandit"):
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_private_reads_finds_imports_and_attributes():
    source = (
        "from . import harness as h\n"
        "from .agents import _fuse, ts_select\n"
        "h._stream(None)\n"
        "h.stream(1, 'tasks', '', 0)\n"
        "h.__name__\n"
    )
    assert sorted(private_reads(source)) == ["agents._fuse", "h._stream"]


def test_no_module_reads_another_modules_private_names():
    reads = {path.name: private_reads(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert "cli.py" in reads
    assert {name: found for name, found in reads.items() if found} == {}
