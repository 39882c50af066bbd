"""On-disk formats: checkpoints and their parameter section, reports, CSV
tables, PGM dumps. This module both writes and reads each of them.

Checkpoints embed the environment spec, the full training config, the
training curve, and the parameters in one versioned file; loading is
bit-exact (save -> load -> save reproduces the identical byte stream), and
every damaged file read here is refused with a CheckpointFormatError. The
config lines are decimal text, as is every value of the other files (see
`_format_value`). Every array is one block line,

    <name> <count> <base64 of its little-endian float64 bytes>

with the curve's episode numbers as int64; shapes come from the layer
headers. A block loads when its base64 is valid, its bytes hold count
values and each is finite; otherwise the error names its line. The
parameter section is tagged "qnet" in a checkpoint and "featurenet" as the
whole of the reference feature net's asset.

All writes go through an atomic write-to-temp-then-rename so a crashed run
never leaves a half-written artifact. Output roots resolve through the
POLICYPROBE_OUT environment variable; run directories are timestamped so
repeated commands never collide or overwrite.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import os
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import nn
from .envs import EnvSpec
from .qlearning import Checkpoint, TrainConfig

if TYPE_CHECKING:   # harness imports perceptual, which imports this module
    from .harness import ProbeReport
    from .spectral import BandDelta

CHECKPOINT_VERSION = "checkpoint v2"
PARAMSET_FORMAT_VERSION = 2
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
PROBE_SUMMARY_CSV_HEADER = "schema=probe_summary_v1,field,value"
SWEEP_SUMMARY_CSV_HEADER = ("schema=sweep_summary_v1,policy,parameter,value,"
                            "runs,mean_score,sem_score,mean_similarity,"
                            "sem_similarity,impact")


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
# Checkpoint and parameter codec
# ---------------------------------------------------------------------------

def _format_value(value) -> str:
    """One decimal value of any file written here: floats at 17 significant
    digits, which round-trip (inf is "inf"), and bools as 0/1."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _block_line(name: str, arr, dtype: str = "<f8") -> str:
    """One array as a block line: its name, its size and the base64 of its
    little-endian bytes."""
    data = np.ascontiguousarray(arr, dtype).tobytes()
    return f"{name} {np.size(arr)} {base64.b64encode(data).decode()}"


def _read_block(lines: list[str], pos: int, name: str, shape: tuple | None,
                dtype: str = "<f8") -> np.ndarray:
    """The array on the block line lines[pos], writable and native, of the
    given shape (None: 1-d, of the size the line states). Refuses another
    name, damaged base64, a size the bytes or the shape do not match, and
    non-finite values, naming the line."""
    count = None if shape is None else int(np.prod(shape))
    try:
        head, size, data = lines[pos].split(" ", 2)
        values = np.frombuffer(base64.b64decode(data, validate=True), dtype)
    except (IndexError, ValueError):
        values = None
    if values is None or (head, size) != (name, str(values.size)) \
            or count not in (None, values.size):
        of_count = "" if count is None else f" of {count} values"
        raise CheckpointFormatError(
            f"expected the {name} block{of_count} at line {pos + 1}")
    if not np.isfinite(values).all():
        raise CheckpointFormatError(
            f"non-finite {name} value at line {pos + 1}")
    return values.astype(dtype[1:]).reshape(shape or -1)


def serialize_params(net: nn.ParamSet, kind: str = "qnet") -> str:
    """A layer header per layer, then one block line per array; row-major,
    round-trips bit-exactly."""
    lines = [f"paramset v{PARAMSET_FORMAT_VERSION} kind={kind}",
             f"layers {len(net.layers)}"]
    for i, lay in enumerate(net.layers):
        if isinstance(lay, nn.DenseLayer):
            lines.append(f"layer {i} dense in {lay.in_features} "
                         f"out {lay.out_features} activation {lay.activation}")
            lines.append(_block_line("weight", lay.weight))
        else:
            kh, kw, cin, cout = lay.weight.shape
            lines.append(f"layer {i} conv kh {kh} kw {kw} cin {cin} "
                         f"cout {cout} stride {lay.stride} pad {lay.padding} "
                         f"activation {lay.activation}")
            lines.append(_block_line("kernel", lay.weight))
        lines.append(_block_line("bias", lay.bias))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_params(lines: list[str], pos: int,
                 kind: str) -> tuple[nn.ParamSet, int]:
    """Inverse of serialize_params: the parameter section of the given kind
    that starts at lines[pos], and the position after its end line."""
    head = f"paramset v{PARAMSET_FORMAT_VERSION} kind={kind}"
    if lines[pos:pos + 1] != [head]:
        raise CheckpointFormatError(f"expected {head!r} at line {pos + 1}")
    layers: list[nn.Layer] = []
    at = pos + 1     # the line a damaged header is reported at
    try:
        pos += 2
        for i in range(int(lines[at].removeprefix("layers "))):
            at = pos
            toks = lines[pos].split()
            f = dict(zip(toks[3::2], toks[4::2]))
            if toks[:3] == ["layer", str(i), "dense"]:
                shape = (int(f["out"]), int(f["in"]))
                w = _read_block(lines, pos + 1, "weight", shape)
                b = _read_block(lines, pos + 2, "bias", shape[:1])
                layers.append(nn.DenseLayer(w, b, f["activation"]))
            elif toks[:3] == ["layer", str(i), "conv"]:
                shape = tuple(int(f[k]) for k in ("kh", "kw", "cin", "cout"))
                k = _read_block(lines, pos + 1, "kernel", shape)
                b = _read_block(lines, pos + 2, "bias", shape[3:])
                layers.append(nn.ConvLayer(k, b, int(f["stride"]),
                                           int(f["pad"]), f["activation"]))
            else:
                raise CheckpointFormatError(
                    f"bad layer header at line {pos + 1}")
            pos += 3
    except CheckpointFormatError:
        raise
    except (IndexError, KeyError, ValueError):
        raise CheckpointFormatError(
            f"truncated or damaged parameters at line {at + 1}") from None
    if lines[pos:pos + 1] != ["end"]:
        raise CheckpointFormatError(f"missing end marker at line {pos + 1}")
    return nn.ParamSet(layers), pos + 1


def _config_lines(prefix: str, obj) -> list[str]:
    return [f"{prefix}.{f.name} = {_format_value(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)]


def serialize_checkpoint(ck: Checkpoint) -> str:
    lines = [CHECKPOINT_VERSION, f"trained_steps = {ck.trained_steps}",
             *_config_lines("env", ck.env_spec),
             *_config_lines("train", ck.config),
             _block_line("episodes", [e for e, _ in ck.curve], "<i8"),
             _block_line("returns", [r for _, r in ck.curve])]
    return ("\n".join(lines) + "\n"
            + serialize_params(ck.params, kind="qnet") + "end checkpoint\n")


def checkpoint_id(text: str) -> str:
    """Content hash naming the checkpoint; stable across save/load cycles."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _parsed(parse, raw: str, n: int):
    """parse(raw), with a ValueError refused as damage at file line n."""
    try:
        return parse(raw)
    except ValueError:
        raise CheckpointFormatError(f"bad value {raw!r} at line {n}") from None


_FIELD_PARSERS = {"int": int, "float": float, "str": str,
                  "tuple[int, int, int]": lambda raw: tuple(
                      int(v) for v in raw.strip("()").split(",") if v.strip())}


def _parse_config(cls, prefix: str, fields: dict[str, tuple[str, int]]):
    """cls from its `prefix.` fields (key -> value, line), popping them."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = f"{prefix}.{f.name}"
        if key not in fields:
            raise CheckpointFormatError(f"missing field {key}")
        kwargs[f.name] = _parsed(_FIELD_PARSERS[f.type], *fields.pop(key))
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise CheckpointFormatError(f"invalid {prefix} fields: {exc}") \
            from None


def parse_checkpoint(text: str) -> Checkpoint:
    lines = text.splitlines()
    if lines[:1] == ["checkpoint v1"]:
        raise CheckpointFormatError(
            "checkpoint v1 is no longer read; write a checkpoint v2 file "
            "with `policyprobe train`, or pass a v1 reader's Checkpoint to "
            "save_checkpoint")
    if not lines or lines[0] != CHECKPOINT_VERSION:
        head = lines[0] if lines else "<empty>"
        raise CheckpointFormatError(
            f"not a {CHECKPOINT_VERSION} file (header {head!r})")
    if not lines[-1] == "end checkpoint":
        raise CheckpointFormatError("truncated checkpoint: missing end marker")
    pos = 1
    fields: dict[str, tuple[str, int]] = {}
    while pos < len(lines) and " = " in lines[pos]:
        key, _, value = lines[pos].partition(" = ")
        fields[key] = (value, pos + 1)
        pos += 1
    if "trained_steps" not in fields:
        raise CheckpointFormatError("missing trained_steps")
    trained_steps = _parsed(int, *fields.pop("trained_steps"))
    env_spec = _parse_config(EnvSpec, "env", fields)
    config = _parse_config(TrainConfig, "train", fields)
    if fields:
        raise CheckpointFormatError(f"unrecognized fields {sorted(fields)}")
    episodes = _read_block(lines, pos, "episodes", None, "<i8")
    returns = _read_block(lines, pos + 1, "returns", episodes.shape)
    curve = list(zip(episodes.tolist(), returns.tolist()))
    params, pos = parse_params(lines, pos + 2, "qnet")
    if pos != len(lines) - 1:
        raise CheckpointFormatError(f"line {pos + 1} follows the parameters")
    return Checkpoint(params, env_spec, config, curve, trained_steps)


def save_checkpoint(path: Path | str, ck: Checkpoint) -> str:
    """Write the checkpoint; returns its content id."""
    text = serialize_checkpoint(ck)
    atomic_write_text(path, text)
    return checkpoint_id(text)


def load_checkpoint(path: Path | str) -> tuple[Checkpoint, str]:
    """Read a checkpoint and its content id; rejects damage loudly, naming
    the file (a sweep loads one checkpoint per policy)."""
    text = Path(path).read_text()
    try:
        ck = parse_checkpoint(text)
    except CheckpointFormatError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from None
    return ck, checkpoint_id(text)


# ---------------------------------------------------------------------------
# CSV tables and reports
# ---------------------------------------------------------------------------

def csv_text(header: str, rows) -> str:
    """Every CSV table: the schema header, then one line per row of values
    (see _format_value)."""
    lines = [header] + [",".join(map(_format_value, row)) for row in rows]
    return "\n".join(lines) + "\n"


def read_csv(path: Path, header: str) -> list[list[str]]:
    """The data rows, as lists of fields, of a table csv_text wrote under
    `header`; refuses another header, no rows and a row of another width."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("schema="):
        raise CheckpointFormatError(f"{path} has no schema header")
    if lines[0] != header:
        raise CheckpointFormatError(
            f"unexpected schema {lines[0].removeprefix('schema=')} in {path}")
    if len(lines) < 2:
        raise CheckpointFormatError(f"{path} has no data rows")
    width = header.count(",")
    rows = [line.split(",") for line in lines[1:]]
    for n, row in enumerate(rows, 2):
        if len(row) != width:
            raise CheckpointFormatError(
                f"{path} line {n} has {len(row)} of {width} fields")
    return rows


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


def report_fields(path: Path) -> dict[str, str]:
    """A report_text file's `key = value` fields, impact among them."""
    fields = {}
    for line in Path(path).read_text().splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            fields[key.strip()] = value
    for key in ("score_clean", "score_min_fixed", "impact"):
        if key not in fields:
            raise CheckpointFormatError(f"{path} has no {key} field")
    return fields


def summary_line(report: ProbeReport) -> str:
    return (f"{report.env_id} {report.direction}: "
            f"impact {report.impact:+.4f} "
            f"score {report.mean_score:.4f} (sem {report.sem_score:.4f}) "
            f"similarity {report.mean_similarity:.5f} "
            f"(sem {report.sem_similarity:.5f})")


def sweep_csv(parameter: str,
              reports: dict[tuple[str, float], ProbeReport]) -> str:
    """One row per (policy, grid value, run) of a sweep's reports (see
    harness.sweep), plus the point impact."""
    return csv_text(SWEEP_CSV_HEADER,
                    [(policy, parameter, value, i, run.episode_seed,
                      run.score, run.mean_similarity, report.impact)
                     for (policy, value), report in reports.items()
                     for i, run in enumerate(report.runs)])


def spectrum_csv(delta: BandDelta) -> str:
    """One row per band f: both energies and their delta."""
    return csv_text(SPECTRUM_CSV_HEADER,
                    zip(range(len(delta.delta)), delta.e_base.tolist(),
                        delta.e_pert.tolist(), delta.delta.tolist()))


# ---------------------------------------------------------------------------
# Per-direction files and observation dumps
# ---------------------------------------------------------------------------

def file_stem(label: str) -> str:
    """A direction label as a file-name stem: every character other than a
    letter, a digit, '.', '_' or '-' becomes '_'."""
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in label)


def write_probe(rundir: Path, report: ProbeReport, config_echo: str) -> Path:
    """Writes a probe's report.txt (its path is returned) and runs.csv."""
    path = atomic_write_text(rundir / "report.txt",
                             report_text(report, config_echo))
    atomic_write_text(rundir / "runs.csv", report_csv(report))
    return path


def write_spectrum(rundir: Path, label: str, delta: BandDelta,
                   base: np.ndarray, perturbed: np.ndarray) -> Path:
    """One spectrum direction's band CSV and the PGM pair of its first
    base and perturbed observation; returns the CSV's path."""
    stem = file_stem(label)
    path = atomic_write_text(rundir / f"spectrum_{stem}.csv",
                             spectrum_csv(delta))
    atomic_write_text(rundir / f"sample_base_{stem}.pgm", pgm_text(base))
    atomic_write_text(rundir / f"sample_pert_{stem}.pgm", pgm_text(perturbed))
    return path


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
