"""Source hygiene: every module-level import in the package is used."""
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
