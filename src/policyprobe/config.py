"""Run manifests: one JSON file describes a whole run.

Sections map one-to-one onto the owning modules' config dataclasses (env ->
EnvSpec, train -> TrainConfig, probe/sweep/spectrum -> command settings), so
every numeric field is validated by the owning module's own preconditions
while the manifest is parsed — before any work starts. CLI flags are merged
into the manifest first, which keeps the echoed config sufficient to re-run
the command bit-identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from . import attack, perturb
from .envs import EnvSpec, make_spec
from .qlearning import TrainConfig

Direction = perturb.PerturbationSpec | attack.AttackSpec


class ConfigError(ValueError):
    """Manifest is structurally wrong: unknown keys, missing sections."""


def _check_keys(section: str, mapping: dict, allowed: set[str]) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")


def _field_names(settings: type) -> set[str]:
    """The keys of a manifest section: its dataclass's fields."""
    return {f.name for f in fields(settings)}


def parse_direction(mapping: dict) -> Direction:
    """A direction is either a fixed perturbation ({"family": ...}) or an
    attack ({"method": ...}); field validity is the owning spec's business."""
    if not isinstance(mapping, dict):
        raise ConfigError("direction must be a mapping")
    if "family" in mapping:
        kwargs = {k: perturb.cast_field(k, v) for k, v in mapping.items()}
        try:
            return perturb.PerturbationSpec(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad perturbation direction: {exc}") from exc
    if "method" in mapping:
        kwargs = dict(mapping)
        p = kwargs.get("p", "inf")
        kwargs["p"] = math.inf if p in ("inf", "Inf", "infinity") else float(p)
        try:
            return attack.AttackSpec(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad attack direction: {exc}") from exc
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
        if self.runs < 1:
            raise ValueError("sweep runs must be >= 1")
        for value in self.values:   # surface bad grid points before any work
            perturb.spec_with(self.family, self.parameter, value)


@dataclass(frozen=True)
class SpectrumSettings:
    directions: tuple[Direction, ...]
    source: str = "reset"          # "reset" | "rollout"
    samples: int = 10
    checkpoint: str = ""           # needed when source == "rollout"

    def __post_init__(self):
        if self.source not in ("reset", "rollout"):
            raise ValueError(f"unknown spectrum source {self.source!r}")
        if self.samples < 1:
            raise ValueError("spectrum needs at least one sample")
        if not self.directions:
            raise ValueError("spectrum needs at least one direction")
        for d in self.directions:
            if isinstance(d, attack.AttackSpec) and not self.checkpoint \
                    and self.source == "reset":
                raise ValueError("attack directions in a spectrum run "
                                 "need a checkpoint")
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


_TOP_KEYS = {"seed", "env", "train", "probe", "sweep", "spectrum",
             "output_dir"}
_ENV_KEYS = {"id", "size", "seed", "gamma"}


def build_run_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("manifest must be a JSON object")
    _check_keys("<top level>", raw, _TOP_KEYS)
    seed = int(raw.get("seed", 0))

    env_raw = raw.get("env")
    if not isinstance(env_raw, dict) or "id" not in env_raw:
        raise ConfigError("manifest needs an 'env' section with an 'id'")
    _check_keys("env", env_raw, _ENV_KEYS)
    env = make_spec(env_raw["id"], size=int(env_raw.get("size", 8)),
                    seed=int(env_raw.get("seed", seed)),
                    gamma=float(env_raw.get("gamma", 0.9)))

    train_raw = dict(raw.get("train", {}))
    _check_keys("train", train_raw, _field_names(TrainConfig))
    train_raw.setdefault("seed", seed)
    train_raw.setdefault("gamma", env.gamma)
    try:
        train = TrainConfig(**train_raw)
    except TypeError as exc:
        raise ConfigError(f"bad train section: {exc}") from exc

    probe = None
    if "probe" in raw:
        probe_raw = dict(raw["probe"])
        _check_keys("probe", probe_raw, _field_names(ProbeSettings))
        if "direction" not in probe_raw:
            raise ConfigError("probe section needs a 'direction'")
        probe_raw["direction"] = parse_direction(probe_raw["direction"])
        probe = ProbeSettings(**probe_raw)

    sweep = None
    if "sweep" in raw:
        sweep_raw = dict(raw["sweep"])
        _check_keys("sweep", sweep_raw, _field_names(SweepSettings))
        policies = sweep_raw.get("policies")
        if not isinstance(policies, dict):
            raise ConfigError("sweep section needs a 'policies' mapping "
                              "of label -> checkpoint path")
        sweep_raw["policies"] = tuple(sorted(policies.items()))
        sweep_raw["values"] = tuple(float(v) for v in
                                    sweep_raw.get("values", ()))
        sweep = SweepSettings(**sweep_raw)

    spectrum = None
    if "spectrum" in raw:
        spec_raw = dict(raw["spectrum"])
        _check_keys("spectrum", spec_raw, _field_names(SpectrumSettings))
        directions = spec_raw.get("directions")
        if not isinstance(directions, list) or not directions:
            raise ConfigError("spectrum section needs a 'directions' list")
        spec_raw["directions"] = tuple(parse_direction(d) for d in directions)
        spectrum = SpectrumSettings(**spec_raw)

    _check_frames(env, probe, sweep, spectrum)
    echo = json.dumps(raw, indent=2, sort_keys=True)
    return RunConfig(seed=seed, env=env, train=train, probe=probe,
                     sweep=sweep, spectrum=spectrum,
                     output_dir=str(raw.get("output_dir", "")), echo=echo)


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


def _set_path(raw: dict, dotted: str, value) -> None:
    head, _, rest = dotted.partition(".")
    if rest:
        raw.setdefault(head, {})
        _set_path(raw[head], rest, value)
    else:
        raw[head] = value


def load_run_config(path: Path | str,
                    overrides: dict[str, object] | None = None) -> RunConfig:
    """Parse a manifest file, apply dotted-path CLI overrides (e.g.
    "train.total_steps"), and validate everything."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"manifest {path} is not valid JSON: {exc}") from exc
    for dotted, value in (overrides or {}).items():
        if value is not None:
            _set_path(raw, dotted, value)
    return build_run_config(raw)
