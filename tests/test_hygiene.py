"""Source hygiene: every module-level import in the package and the
scripts is used, no module reads another package module's private
names, the on-disk formats live in checkpoint alone, nn imports no
other package module, every float a manifest sets is refused when it
is not finite, and every int, bool and str it sets is refused when it
is of another type."""
import ast
import dataclasses
import math
from pathlib import Path

import pytest

from policyprobe import attack, config, perturb
from policyprobe import qlearning as ql
from policyprobe.envs import make_spec

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
    if name == "PerturbationSpec":
        # apply and label() read a spec's fields by name through FAMILIES,
        # out of the AST check's sight: every field but family must be one
        # a family reads, and every field a family reads must exist
        read = {f for _, reads, _ in perturb.FAMILIES.values() for f in reads}
        assert {f.name for f in dataclasses.fields(perturb.PerturbationSpec)
                if f.name != "family"} == read
        return
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unread_fields(sources, (SRC / module).read_text(), name) == []


# A valid instance of each manifest dataclass, by name. PerturbationSpec
# has one per family, since a spec refuses fields its family does not
# read. The sweep runs over shift's circular flag, which no spec check
# refuses at NaN: the grid's own check must.
VALID = {"ProbeSettings": [config.ProbeSettings(perturb.PerturbationSpec())],
         "SweepSettings": [config.SweepSettings(
             "shift", "circular", (0.0,), (("vanilla", "v.txt"),))],
         "SpectrumSettings": [config.SpectrumSettings(
             (perturb.PerturbationSpec(),))],
         "TrainConfig": [ql.TrainConfig()],
         "AttackSpec": [attack.AttackSpec(method="cw")],
         "PerturbationSpec": [perturb.PerturbationSpec(family)
                              for family in perturb.FAMILIES],
         "EnvSpec": [make_spec("pixelgrid")]}


def non_finite_cases():
    """(valid instance, float field, non-finite value) for every float
    field of every manifest dataclass; a tuple field gets a one-value
    tuple. The one non-finite value allowed is AttackSpec.p = inf, the
    inf-norm."""
    names = [n for names in SETTINGS.values() for n in names] + ["EnvSpec"]
    for name in names:
        for valid in VALID[name]:
            reads = perturb.FAMILIES[valid.family][1] \
                if name == "PerturbationSpec" else None
            for f in dataclasses.fields(valid):
                if "float" not in str(f.type) \
                        or (reads is not None and f.name not in reads):
                    continue
                for value in (math.nan, math.inf, -math.inf):
                    if (name, f.name, value) == ("AttackSpec", "p", math.inf):
                        continue
                    label = name if reads is None else valid.family
                    yield pytest.param(
                        valid, f.name,
                        (value,) if "tuple" in str(f.type) else value,
                        id=f"{label}.{f.name}={value}")


@pytest.mark.parametrize("valid,name,value", list(non_finite_cases()))
def test_manifest_floats_must_be_finite(valid, name, value):
    with pytest.raises(ValueError):
        dataclasses.replace(valid, **{name: value})



# Where each manifest dataclass's fields sit in a manifest: by name, the
# section that sets key k to value v in an otherwise valid manifest, d
# being a direction's family. EnvSpec's keys are the env section's.
PLACED = {
    "ProbeSettings": lambda k, v, d: {
        "probe": {"direction": {"family": "identity"}, k: v}},
    "SweepSettings": lambda k, v, d: {
        "sweep": {"family": "shift", "parameter": "ti", "values": [0.0],
                  "policies": {"vanilla": "v.txt"}, k: v}},
    "SpectrumSettings": lambda k, v, d: {
        "spectrum": {"directions": [{"family": "identity"}], k: v}},
    "TrainConfig": lambda k, v, d: {"train": {k: v}},
    "AttackSpec": lambda k, v, d: {
        "probe": {"direction": {"method": "cw", k: v}}},
    "PerturbationSpec": lambda k, v, d: {
        "probe": {"direction": {"family": d, k: v}}},
    "EnvSpec": lambda k, v, d: {"env": {"id": "pixelgrid", k: v}},
    "manifest": lambda k, v, d: {k: v}}
ENV_KEYS = {"env_id": "id", "size": "size", "seed": "seed"}
SETTINGS_NAMES = [n for names in SETTINGS.values() for n in names]


def typed_fields():
    """(dataclass name, manifest key, field type, family) for every field a
    manifest sets: a PerturbationSpec field under each family that reads
    it (family itself once), and the top level's seed and output_dir."""
    yield from [("manifest", "seed", "int", None),
                ("manifest", "output_dir", "str", None)]
    for name in SETTINGS_NAMES + ["EnvSpec"]:
        for valid in VALID[name]:
            family = valid.family if name == "PerturbationSpec" else None
            if name == "EnvSpec":
                settable = ENV_KEYS
            elif family is not None:
                settable = perturb.FAMILIES[family][1] \
                    + ("family",) * (family == "identity")
            else:
                settable = [f.name for f in dataclasses.fields(valid)]
            for f in dataclasses.fields(valid):
                if f.name in settable:
                    yield (name, ENV_KEYS.get(f.name, f.name), str(f.type),
                           family)


def wrong_type_cases():
    """(manifest, key, value) setting 1.5, true, null and "3" on every int,
    bool and str field of every manifest dataclass: each value but the
    one of the field's own type."""
    for name, key, kind, family in typed_fields():
        if kind not in ("int", "bool", "str"):
            continue
        for value in (1.5, True, None, "3"):
            if type(value).__name__ != kind:
                raw = {"env": {"id": "pixelgrid"},
                       **PLACED[name](key, value, family)}
                yield pytest.param(raw, key, value,
                                   id=f"{family or name}.{key}={value!r}")


@pytest.mark.parametrize("raw,key,value", list(wrong_type_cases()))
def test_manifest_values_must_have_their_fields_type(raw, key, value):
    """Refused while the manifest is read, by a message naming the key."""
    with pytest.raises(ValueError, match=f"{key} must be an? "):
        config.build_run_config(raw)
