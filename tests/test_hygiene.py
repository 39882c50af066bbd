"""Source hygiene: every module-level import in the package and the
scripts is used, no module reads another package module's private
names, the on-disk formats live in checkpoint alone, and nn imports no
other package module."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "policyprobe"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py"))
                         + sorted((ROOT / "scripts").glob("*.py")),
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


def string_literals(source: str) -> list[str]:
    """Every string constant in the module, f-string parts included."""
    return [node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "checkpoint.py"],
                         ids=lambda p: p.name)
def test_only_checkpoint_spells_a_file_format(path):
    """A float format or a schema header outside checkpoint is a second
    writer or reader of a format checkpoint owns."""
    found = [s for s in string_literals(path.read_text())
             if ".17g" in s or "schema=" in s]
    assert found == []


def test_nn_imports_no_other_package_module():
    tree = ast.parse((SRC / "nn.py").read_text())
    relative = [node.module or "." for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    named = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names if a.name.startswith("policyprobe")]
    assert relative + named == []


# Manifest-settable dataclasses, by defining module: a field no expression
# reads is an option that does nothing.
SETTINGS = {"config.py": ("ProbeSettings", "SweepSettings",
                          "SpectrumSettings"),
            "qlearning.py": ("TrainConfig",),
            "attack.py": ("AttackSpec",),
            "perturb.py": ("PerturbationSpec",)}


def unread_fields(sources: list[str], owner: str, name: str) -> list[str]:
    """Fields of dataclass `name`, defined in source `owner`, that no
    attribute load in `sources` reads other than through `self`."""
    cls = next(node for node in ast.parse(owner).body
               if isinstance(node, ast.ClassDef) and node.name == name)
    fields = [s.target.id for s in cls.body
              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    reads = {node.attr for source in sources
             for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)
             and not (isinstance(node.value, ast.Name)
                      and node.value.id == "self")}
    return [f for f in fields if f not in reads]


def test_unread_field_detector():
    owner = ("@dataclass\nclass S:\n    a: int\n    b: int = 0\n"
             "    c: int = 1\n    def f(self):\n        return self.b\n")
    user = "def g(s):\n    s.c = 2\n    return s.a\n"
    assert unread_fields([owner, user], owner, "S") == ["b", "c"]


@pytest.mark.parametrize("module,name",
                         [(m, n) for m, names in SETTINGS.items()
                          for n in names], ids=lambda v: v)
def test_every_manifest_field_is_read(module, name):
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unread_fields(sources, (SRC / module).read_text(), name) == []
