"""On-disk formats: checkpoints, reports, CSV tables, PGM dumps.

Everything is plain text. Checkpoints embed the environment spec, the full
training config, the training curve, and the parameters in one versioned
file; loading is bit-exact (save -> load -> save reproduces the identical
byte stream) and refuses version mismatches and truncated files loudly.

All writes go through an atomic write-to-temp-then-rename so a crashed run
never leaves a half-written artifact. Output roots resolve through the
POLICYPROBE_OUT environment variable; run directories are timestamped so
repeated commands never collide or overwrite.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from . import nn
from .envs import EnvSpec
from .harness import ProbeReport, SweepResult
from .qlearning import Checkpoint, TrainConfig

CHECKPOINT_VERSION = "checkpoint v1"
OUTPUT_ROOT_ENV = "POLICYPROBE_OUT"
DEFAULT_OUTPUT_ROOT = "runs"

REPORT_CSV_HEADER = ("schema=probe_runs_v1,"
                     "run,episode_seed,score,mean_similarity")
SWEEP_CSV_HEADER = ("schema=sweep_v1,"
                    "policy,parameter,value,run,episode_seed,score,"
                    "mean_similarity,impact_point")
CURVE_CSV_HEADER = "schema=train_curve_v1,episode,return"
SPECTRUM_CSV_HEADER = "schema=band_energy_v1,f,e_base,e_pert,delta"
ATTACK_CSV_HEADER = ("schema=attack_states_v1,"
                     "state,action_clean,action_adv,distance,success,"
                     "similarity")


class CheckpointFormatError(ValueError):
    """Raised for version mismatches, truncation, or mangled fields."""


# ---------------------------------------------------------------------------
# Atomic filesystem helpers
# ---------------------------------------------------------------------------

def atomic_write_text(path: Path | str, text: str) -> Path:
    """Write via temp file + rename so readers never see partial content."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def output_root() -> Path:
    return Path(os.environ.get(OUTPUT_ROOT_ENV, DEFAULT_OUTPUT_ROOT))


def run_directory(command: str, root: Path | None = None) -> Path:
    """Fresh timestamped directory under the output root."""
    base = root if root is not None else output_root()
    stamp = time.strftime("%Y%m%d-%H%M%S")
    candidate = base / f"{stamp}-{command}"
    suffix = 0
    while candidate.exists():
        suffix += 1
        candidate = base / f"{stamp}-{command}.{suffix}"
    candidate.mkdir(parents=True)
    return candidate


# ---------------------------------------------------------------------------
# Checkpoint codec
# ---------------------------------------------------------------------------

def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _config_lines(prefix: str, obj) -> list[str]:
    return [f"{prefix}.{f.name} = {_format_value(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)]


def serialize_checkpoint(ck: Checkpoint) -> str:
    out = io.StringIO()
    out.write(f"{CHECKPOINT_VERSION}\n")
    out.write(f"trained_steps = {ck.trained_steps}\n")
    for line in _config_lines("env", ck.env_spec):
        out.write(line + "\n")
    for line in _config_lines("train", ck.config):
        out.write(line + "\n")
    out.write(f"curve {len(ck.curve)}\n")
    for episode, ret in ck.curve:
        out.write(f"{episode} {ret:.17g}\n")
    out.write(nn.serialize_params(ck.params, kind="qnet"))
    out.write("end checkpoint\n")
    return out.getvalue()


def checkpoint_id(text: str) -> str:
    """Content hash naming the checkpoint; stable across save/load cycles."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_FIELD_PARSERS = {"int": int, "float": float, "str": str,
                  "bool": lambda s: s == "True"}


def _parse_config(cls, prefix: str, fields: dict[str, str]):
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = f"{prefix}.{f.name}"
        if key not in fields:
            raise CheckpointFormatError(f"missing field {key}")
        raw = fields.pop(key)
        type_name = f.type if isinstance(f.type, str) else f.type.__name__
        if f.name == "obs_shape":   # the one tuple-typed field
            kwargs[f.name] = tuple(int(v) for v in
                                   raw.strip("()").split(",") if v.strip())
        elif type_name not in _FIELD_PARSERS:
            raise CheckpointFormatError(
                f"cannot parse field {key} of type {type_name}")
        else:
            kwargs[f.name] = _FIELD_PARSERS[type_name](raw)
    return cls(**kwargs)


def parse_checkpoint(text: str) -> Checkpoint:
    lines = text.splitlines()
    if not lines or lines[0] != CHECKPOINT_VERSION:
        head = lines[0] if lines else "<empty>"
        raise CheckpointFormatError(
            f"not a {CHECKPOINT_VERSION} file (header {head!r})")
    if not lines[-1] == "end checkpoint":
        raise CheckpointFormatError("truncated checkpoint: missing end marker")
    pos = 1
    fields: dict[str, str] = {}
    trained_steps = None
    while pos < len(lines) and " = " in lines[pos]:
        key, _, value = lines[pos].partition(" = ")
        if key == "trained_steps":
            trained_steps = int(value)
        else:
            fields[key] = value
        pos += 1
    if trained_steps is None:
        raise CheckpointFormatError("missing trained_steps")
    env_spec = _parse_config(EnvSpec, "env", fields)
    config = _parse_config(TrainConfig, "train", fields)
    if fields:
        raise CheckpointFormatError(f"unrecognized fields {sorted(fields)}")
    if pos >= len(lines) or not lines[pos].startswith("curve "):
        raise CheckpointFormatError("missing curve section")
    n_curve = int(lines[pos].split()[1])
    pos += 1
    curve = []
    for i in range(n_curve):
        episode, ret = lines[pos + i].split()
        curve.append((int(episode), float(ret)))
    pos += n_curve
    params, kind = nn.parse_params("\n".join(lines[pos:-1]) + "\n")
    if kind != "qnet":
        raise CheckpointFormatError(f"unexpected parameter kind {kind!r}")
    return Checkpoint(params, env_spec, config, curve, trained_steps)


def save_checkpoint(path: Path | str, ck: Checkpoint) -> str:
    """Write the checkpoint; returns its content id."""
    text = serialize_checkpoint(ck)
    atomic_write_text(path, text)
    return checkpoint_id(text)


def load_checkpoint(path: Path | str) -> tuple[Checkpoint, str]:
    """Read a checkpoint and its content id; rejects damage loudly."""
    text = Path(path).read_text()
    return parse_checkpoint(text), checkpoint_id(text)


# ---------------------------------------------------------------------------
# CSV and report writers
# ---------------------------------------------------------------------------

def curve_csv(curve: list[tuple[int, float]]) -> str:
    rows = [CURVE_CSV_HEADER]
    rows += [f"{episode},{ret:.17g}" for episode, ret in curve]
    return "\n".join(rows) + "\n"


def report_csv(report: ProbeReport) -> str:
    rows = [REPORT_CSV_HEADER]
    for i, run in enumerate(report.runs):
        rows.append(f"{i},{run.episode_seed},{run.score:.17g},"
                    f"{run.mean_similarity:.17g}")
    return "\n".join(rows) + "\n"


def report_text(report: ProbeReport, config_echo: str = "") -> str:
    """Self-contained probe summary: direction, provenance, aggregates,
    and (when given) the indented config echo that reproduces the run."""
    out = io.StringIO()
    out.write("probe report v1\n")
    out.write(f"direction = {report.direction}\n")
    out.write(f"env = {report.env_id}\n")
    out.write(f"checkpoint = {report.checkpoint_id}\n")
    out.write(f"featurenet = {report.featurenet_version}\n")
    out.write(f"runs = {len(report.runs)}\n")
    out.write(f"episode_seeds = {','.join(str(s) for s in report.seeds)}\n")
    out.write(f"score_clean = {report.score_clean:.17g}\n")
    out.write(f"score_min_fixed = {report.score_min_fixed:.17g}\n")
    out.write(f"mean_score = {report.mean_score:.17g}\n")
    out.write(f"sem_score = {report.sem_score:.17g}\n")
    out.write(f"mean_similarity = {report.mean_similarity:.17g}\n")
    out.write(f"sem_similarity = {report.sem_similarity:.17g}\n")
    out.write(f"impact = {report.impact:.17g}\n")
    if config_echo:
        out.write("config_echo:\n")
        for line in config_echo.rstrip("\n").splitlines():
            out.write(f"  {line}\n")
    out.write("end report\n")
    return out.getvalue()


def summary_line(report: ProbeReport) -> str:
    return (f"{report.env_id} {report.direction}: "
            f"impact {report.impact:+.4f} "
            f"score {report.mean_score:.4f} (sem {report.sem_score:.4f}) "
            f"similarity {report.mean_similarity:.5f} "
            f"(sem {report.sem_similarity:.5f})")


def sweep_csv(result: SweepResult) -> str:
    """One row per (policy, grid value, run), plus the point impact."""
    rows = [SWEEP_CSV_HEADER]
    for pt in result.points:
        for i, run in enumerate(pt.report.runs):
            rows.append(
                f"{pt.policy},{result.parameter},{pt.value:.17g},{i},"
                f"{run.episode_seed},{run.score:.17g},"
                f"{run.mean_similarity:.17g},{pt.report.impact:.17g}")
    return "\n".join(rows) + "\n"


def spectrum_csv(rows: list[tuple[int, float, float, float]]) -> str:
    out = [SPECTRUM_CSV_HEADER]
    out += [f"{f},{eb:.17g},{ep:.17g},{d:.17g}" for f, eb, ep, d in rows]
    return "\n".join(out) + "\n"


def attack_csv(rows: list[tuple[int, int, int, float, bool, float]]) -> str:
    out = [ATTACK_CSV_HEADER]
    for state, a_clean, a_adv, dist, success, sim in rows:
        dist_s = "inf" if math.isinf(dist) else f"{dist:.17g}"
        out.append(f"{state},{a_clean},{a_adv},{dist_s},"
                   f"{int(success)},{sim:.17g}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Observation dumps
# ---------------------------------------------------------------------------

def pgm_text(obs: np.ndarray) -> str:
    """Plain portable graymap (P2) for a single-channel uint8 observation."""
    img = np.asarray(obs)
    if img.ndim == 3:
        if img.shape[2] != 1:
            raise ValueError("pgm dump needs a single-channel image")
        img = img[:, :, 0]
    h, w = img.shape
    rows = [" ".join(str(int(v)) for v in row) for row in img]
    return f"P2\n{w} {h}\n255\n" + "\n".join(rows) + "\n"
