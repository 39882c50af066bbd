"""Source hygiene: every module-level import in the package is used, and
no module reads another package module's private names."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "policyprobe"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression in
    the module reads (`from __future__` imports bind nothing)."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_import_detector():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom a import b, c\n"
              "def f(x: b) -> None:\n    return np.ones(3)\n")
    assert unused_imports(source) == ["os", "c"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def private_reads(source: str) -> list[str]:
    """`module._name` reads of a package module bound by a relative import,
    and private names imported from one (dunders are not private)."""
    tree = ast.parse(source)
    modules, reads = set(), []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:
                modules |= {a.asname or a.name for a in node.names}
            else:
                reads += [f"{node.module}.{a.name}" for a in node.names
                          if _private(a.name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            reads.append(f"{node.value.id}.{node.attr}")
    return reads


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_private_read_detector():
    source = ("from . import harness, nn as n\n"
              "from .envs import _bfs, make_env\nimport numpy as np\n"
              "x = harness._view(n._relu, np._core, harness.__name__)\n"
              "self._cache = n.forward\n")
    assert sorted(private_reads(source)) == ["envs._bfs", "harness._view",
                                             "n._relu"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    assert private_reads(path.read_text()) == []
