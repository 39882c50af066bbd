"""Run manifests: one JSON file describes a whole run.

Sections map one-to-one onto the owning modules' config dataclasses (env ->
EnvSpec, train -> TrainConfig, probe/sweep/spectrum -> command settings), so
every numeric field is validated by the owning module's own preconditions
while the manifest is parsed — before any work starts. Before that, each
value is checked once against its field's type (see `_typed`). CLI flags are
merged into the manifest first, which keeps the echoed config sufficient to
re-run the command bit-identically.

A relative path a manifest sets (output_dir, probe.checkpoint,
spectrum.checkpoint, each sweep.policies value) is read against the
manifest file's directory, and one a flag sets against the working
directory. Both are stored absolute, so the echo re-runs from anywhere.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from . import attack, perturb
from .envs import EnvSpec, make_spec
from .qlearning import TrainConfig

Direction = perturb.PerturbationSpec | attack.AttackSpec


class ConfigError(ValueError):
    """Manifest is structurally wrong: unknown keys, missing sections."""


def _cast(name: str, kind: str, value):
    """A manifest value for a field of type `kind`: an int follows
    perturb.as_int, a float is any number but a bool, a float tuple a list
    of floats, and a bool, str or dict its own type; others pass as given."""
    if kind == "int":
        return perturb.as_int(name, value)
    if kind == "tuple[float, ...]" and type(value) is list:
        return tuple(_cast(name, "float", v) for v in value)
    allowed = {"float": (int, float), "bool": (bool,), "str": (str,),
               "dict": (dict,), "tuple[float, ...]": ()}.get(kind)
    if allowed is not None and type(value) not in allowed:
        raise ValueError(f"{name} must be a {kind}, got {value!r}")
    return float(value) if kind == "float" else value


def _typed(section: str, types: dict[str, str], mapping) -> dict:
    """A manifest mapping, its keys checked against `types` (field name ->
    type) and each value cast to its field's type."""
    unknown = set(mapping) - set(types)
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")
    return {k: _cast(f"{section}.{k}", types[k], v) for k, v in mapping.items()}


def _build(section: str, settings: type, mapping):
    """The settings dataclass a manifest section describes (see _typed)."""
    kwargs = _typed(section, {f.name: f.type for f in fields(settings)},
                    mapping)
    try:
        return settings(**kwargs)
    except TypeError as exc:   # a required field is missing
        raise ConfigError(f"bad {section} section: {exc}") from exc


def parse_direction(mapping: dict) -> Direction:
    """A direction is either a fixed perturbation ({"family": ...}) or an
    attack ({"method": ...}); field validity is the owning spec's business."""
    if not isinstance(mapping, dict):
        raise ConfigError("direction must be a mapping")
    if "family" in mapping:
        return _build("direction", perturb.PerturbationSpec, mapping)
    if "method" in mapping:
        p = mapping.get("p", "inf")
        inf = p in ("inf", "Inf", "infinity")   # strict JSON has no inf
        kwargs = {**mapping, "p": math.inf if inf else p}
        return _build("direction", attack.AttackSpec, kwargs)
    raise ConfigError("direction needs a 'family' or 'method' key")


@dataclass(frozen=True)
class ProbeSettings:
    direction: Direction
    runs: int = 10
    rollout: bool = False          # attack command: also run a rollout probe
    checkpoint: str = ""

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("probe runs must be >= 1")


@dataclass(frozen=True)
class SweepSettings:
    family: str
    parameter: str
    values: tuple[float, ...]
    policies: tuple[tuple[str, str], ...]   # (label, checkpoint path)
    runs: int = 10

    def __post_init__(self):
        if not self.values:
            raise ValueError("sweep grid must be non-empty")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("sweep grid values must be finite")
        if any(b >= a for a, b in zip(self.values[1:], self.values)):
            raise ValueError("sweep grid must be strictly increasing")
        if not self.policies:
            raise ValueError("sweep needs at least one policy")
        for label, path in self.policies:
            if not path:
                raise ValueError(f"sweep.policies.{label} must name a "
                                 "checkpoint file")
        if self.runs < 1:
            raise ValueError("sweep runs must be >= 1")
        for value in self.values:   # surface bad grid points before any work
            perturb.spec_with(self.family, self.parameter, value)


@dataclass(frozen=True)
class SpectrumSettings:
    directions: tuple[Direction, ...]
    source: str = "reset"          # "reset" | "rollout"
    samples: int = 10
    checkpoint: str = ""    # needed by a rollout source or an attack

    def __post_init__(self):
        if self.source not in ("reset", "rollout"):
            raise ValueError(f"unknown spectrum source {self.source!r}")
        if self.samples < 1:
            raise ValueError("spectrum needs at least one sample")
        if not self.directions:
            raise ValueError("spectrum needs at least one direction")
        if not self.checkpoint and self.source == "rollout":
            raise ValueError("a rollout spectrum needs a checkpoint "
                             "(--checkpoint or spectrum.checkpoint)")
        if not self.checkpoint and any(isinstance(d, attack.AttackSpec)
                                       for d in self.directions):
            raise ValueError("attack directions in a spectrum run need a "
                             "checkpoint (--checkpoint or spectrum.checkpoint)")
        labels = [d.label() for d in self.directions]
        for i, label in enumerate(labels):
            if label in labels[:i]:  # their output files would collide
                raise ValueError(f"two spectrum directions share the label "
                                 f"{label!r}")


@dataclass(frozen=True)
class RunConfig:
    seed: int
    env: EnvSpec
    train: TrainConfig
    probe: ProbeSettings | None
    sweep: SweepSettings | None
    spectrum: SpectrumSettings | None
    output_dir: str
    echo: str                      # effective manifest, pretty-printed JSON


_TOP_TYPES = {"seed": "int", "output_dir": "str", "env": "dict",
              "train": "dict", "probe": "dict", "sweep": "dict",
              "spectrum": "dict"}
# the env section's keys: make_spec's arguments, with the env id as "id"
_ENV_TYPES = {"id": "str", "size": "int", "seed": "int", "gamma": "float"}


def build_run_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("manifest must be a JSON object")
    top = _typed("manifest", _TOP_TYPES, raw)
    seed = top.get("seed", 0)
    if "id" not in top.get("env", {}):
        raise ConfigError("manifest needs an 'env' section with an 'id'")
    env_args = _typed("env", _ENV_TYPES, {"seed": seed, **top["env"]})
    env = make_spec(env_args.pop("id"), **env_args)

    train_raw = dict(raw.get("train", {}))
    train_raw.setdefault("seed", seed)
    train_raw.setdefault("gamma", env.gamma)
    train = _build("train", TrainConfig, train_raw)

    probe = None
    if "probe" in raw:
        probe_raw = dict(raw["probe"])
        if "direction" not in probe_raw:
            raise ConfigError("probe section needs a 'direction'")
        probe_raw["direction"] = parse_direction(probe_raw["direction"])
        probe = _build("probe", ProbeSettings, probe_raw)

    sweep = None
    if "sweep" in raw:
        sweep_raw = dict(raw["sweep"])
        policies = sweep_raw.get("policies")
        if not isinstance(policies, dict):
            raise ConfigError("sweep section needs a 'policies' mapping "
                              "of label -> checkpoint path")
        sweep_raw["policies"] = tuple(sorted(
            (label, _cast(f"sweep.policies.{label}", "str", path))
            for label, path in policies.items()))
        sweep = _build("sweep", SweepSettings, sweep_raw)

    spectrum = None
    if "spectrum" in raw:
        spec_raw = dict(raw["spectrum"])
        directions = spec_raw.get("directions")
        if not isinstance(directions, list) or not directions:
            raise ConfigError("spectrum section needs a 'directions' list")
        spec_raw["directions"] = tuple(parse_direction(d) for d in directions)
        spectrum = _build("spectrum", SpectrumSettings, spec_raw)

    _check_frames(env, probe, sweep, spectrum)
    echo = json.dumps(raw, indent=2, sort_keys=True)
    return RunConfig(seed=seed, env=env, train=train, probe=probe,
                     sweep=sweep, spectrum=spectrum,
                     output_dir=top.get("output_dir", ""), echo=echo)


def _check_frames(env: EnvSpec, probe: ProbeSettings | None,
                  sweep: SweepSettings | None,
                  spectrum: SpectrumSettings | None) -> None:
    """Refuse, before any work starts, a perturbation (the probe's, each
    sweep point's, each spectrum direction's) that cannot apply to the
    environment's frames."""
    directions: list[Direction] = []
    if probe is not None:
        directions.append(probe.direction)
    if sweep is not None:
        directions += [perturb.spec_with(sweep.family, sweep.parameter, v)
                       for v in sweep.values]
    if spectrum is not None:
        directions += spectrum.directions
    h, w = env.obs_shape[:2]
    for d in directions:
        if isinstance(d, perturb.PerturbationSpec):
            d.check_frame(h, w)


def _absolute_paths(raw: dict, base: Path | str) -> None:
    """Make each relative path raw sets absolute against base, in place.
    An empty path stays empty, and a value that is not a string is left
    for the type checks to name."""
    slots = [(raw, "output_dir")]
    slots += [(raw[name], "checkpoint") for name in ("probe", "spectrum")
              if isinstance(raw.get(name), dict)]
    sweep = raw.get("sweep")
    policies = sweep.get("policies") if isinstance(sweep, dict) else None
    if isinstance(policies, dict):
        slots += [(policies, label) for label in policies]
    for mapping, key in slots:
        value = mapping.get(key)
        if isinstance(value, str) and value:
            mapping[key] = os.path.abspath(os.path.join(base, value))


def load_run_config(path: Path | str,
                    overrides: dict[str, object] | None = None) -> RunConfig:
    """Parse a manifest file, apply the overrides that are not None, each
    a top-level key or a "section.key" (e.g. "train.total_steps"), and
    validate everything. Paths resolve as the module docstring says."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("manifest must be a JSON object")
    _absolute_paths(raw, Path(path).parent)
    for dotted, value in (overrides or {}).items():
        if value is None:
            continue
        head, _, key = dotted.rpartition(".")
        section = raw.setdefault(head, {}) if head else raw
        if not isinstance(section, dict):
            raise ConfigError(f"manifest section {head!r} must be a JSON "
                              f"object, got {section!r}")
        section[key] = value
    _absolute_paths(raw, Path.cwd())   # the flags' paths; others are absolute
    return build_run_config(raw)
