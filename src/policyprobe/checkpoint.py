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
    """One value of any file written here: floats at 17 significant digits,
    which round-trip (inf is "inf"), and bools as 0/1."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _config_lines(prefix: str, obj) -> list[str]:
    return [f"{prefix}.{f.name} = {_format_value(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)]


def serialize_checkpoint(ck: Checkpoint) -> str:
    lines = [CHECKPOINT_VERSION, f"trained_steps = {ck.trained_steps}",
             *_config_lines("env", ck.env_spec),
             *_config_lines("train", ck.config), f"curve {len(ck.curve)}"]
    lines += [" ".join(map(_format_value, row)) for row in ck.curve]
    return ("\n".join(lines) + "\n"
            + nn.serialize_params(ck.params, kind="qnet") + "end checkpoint\n")


def checkpoint_id(text: str) -> str:
    """Content hash naming the checkpoint; stable across save/load cycles."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_FIELD_PARSERS = {"int": int, "float": float, "str": str}


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

def csv_text(header: str, rows) -> str:
    """Every CSV table: the schema header, then one line per row of values
    (see _format_value)."""
    lines = [header] + [",".join(map(_format_value, row)) for row in rows]
    return "\n".join(lines) + "\n"


def curve_csv(curve: list[tuple[int, float]]) -> str:
    return csv_text(CURVE_CSV_HEADER, curve)


def report_csv(report: ProbeReport) -> str:
    return csv_text(REPORT_CSV_HEADER,
                    [(i, run.episode_seed, run.score, run.mean_similarity)
                     for i, run in enumerate(report.runs)])


def report_text(report: ProbeReport, config_echo: str = "") -> str:
    """Self-contained probe summary: direction, provenance, aggregates,
    and (when given) the indented config echo that reproduces the run."""
    lines = ["probe report v1",
             f"direction = {report.direction}",
             f"env = {report.env_id}",
             f"checkpoint = {report.checkpoint_id}",
             f"featurenet = {report.featurenet_version}",
             f"runs = {len(report.runs)}",
             f"episode_seeds = {','.join(str(s) for s in report.seeds)}"]
    lines += [f"{name} = {_format_value(getattr(report, name))}"
              for name in ("score_clean", "score_min_fixed", "mean_score",
                           "sem_score", "mean_similarity", "sem_similarity",
                           "impact")]
    if config_echo:
        lines.append("config_echo:")
        lines += ["  " + ln for ln in config_echo.rstrip("\n").splitlines()]
    lines.append("end report")
    return "\n".join(lines) + "\n"


def summary_line(report: ProbeReport) -> str:
    return (f"{report.env_id} {report.direction}: "
            f"impact {report.impact:+.4f} "
            f"score {report.mean_score:.4f} (sem {report.sem_score:.4f}) "
            f"similarity {report.mean_similarity:.5f} "
            f"(sem {report.sem_similarity:.5f})")


def sweep_csv(result: SweepResult) -> str:
    """One row per (policy, grid value, run), plus the point impact."""
    return csv_text(SWEEP_CSV_HEADER,
                    [(pt.policy, result.parameter, pt.value, i,
                      run.episode_seed, run.score, run.mean_similarity,
                      pt.report.impact)
                     for pt in result.points
                     for i, run in enumerate(pt.report.runs)])


def spectrum_csv(rows: list[tuple[int, float, float, float]]) -> str:
    return csv_text(SPECTRUM_CSV_HEADER, rows)


def attack_csv(rows: list[tuple[int, int, int, float, bool, float]]) -> str:
    return csv_text(ATTACK_CSV_HEADER, rows)


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
