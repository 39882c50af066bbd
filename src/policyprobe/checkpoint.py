"""On-disk formats: checkpoints and their parameter section, reports, CSV
tables, PGM dumps. This module both writes and reads each of them.

Everything is plain text; every value goes through `_format_value`.
Checkpoints embed the environment spec, the full training config, the
training curve, and the parameters in one versioned file; loading is
bit-exact (save -> load -> save reproduces the identical byte stream), and
every damaged file read here is refused with a CheckpointFormatError. The
parameter section is tagged "qnet" in a checkpoint and "featurenet" as the
whole of the reference feature net's asset. A parameter block's values are
parsed in one numpy call and the curve in one pass over its rows; where
numpy might read a token otherwise than float(), or a row or value is
damaged, the block or the curve is read again line by line with float(),
which names the damaged line. Either way a file loads exactly when
float() (int() for an episode number) reads every value, with its bits.

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
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import nn
from .envs import EnvSpec
from .qlearning import Checkpoint, TrainConfig

if TYPE_CHECKING:   # harness imports perceptual, which imports this module
    from .harness import ProbeReport
    from .spectral import BandDelta

CHECKPOINT_VERSION = "checkpoint v1"
PARAMSET_FORMAT_VERSION = 1
_VALUES_PER_LINE = 8
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
    """One value of any file written here: floats at 17 significant digits,
    which round-trip (inf is "inf"), and bools as 0/1."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit_array(lines: list[str], name: str, arr: np.ndarray) -> None:
    flat = arr.ravel()
    lines.append(f"{name} {flat.size}")
    for i in range(0, flat.size, _VALUES_PER_LINE):
        lines.append(" ".join(map(_format_value,
                                  flat[i:i + _VALUES_PER_LINE].tolist())))


def serialize_params(net: nn.ParamSet, kind: str = "qnet") -> str:
    """Row-major decimal text encoding; round-trips bit-exactly."""
    lines = [f"paramset v{PARAMSET_FORMAT_VERSION} kind={kind}",
             f"layers {len(net.layers)}"]
    for i, lay in enumerate(net.layers):
        if isinstance(lay, nn.DenseLayer):
            lines.append(f"layer {i} dense in {lay.in_features} "
                         f"out {lay.out_features} activation {lay.activation}")
            _emit_array(lines, "weight", lay.weight)
        else:
            kh, kw, cin, cout = lay.weight.shape
            lines.append(f"layer {i} conv kh {kh} kw {kw} cin {cin} "
                         f"cout {cout} stride {lay.stride} pad {lay.padding} "
                         f"activation {lay.activation}")
            _emit_array(lines, "kernel", lay.weight)
        _emit_array(lines, "bias", lay.bias)
    lines.append("end")
    return "\n".join(lines) + "\n"


def _floats(line: str) -> list[float]:
    return [float(v) for v in line.split()]


def _curve_row(row: str) -> tuple[int, float]:
    episode, ret = row.split()
    return int(episode), float(ret)


def _parsed(parse, raw: str, n: int):
    """parse(raw), with a ValueError refused as damage at file line n."""
    try:
        return parse(raw)
    except ValueError:
        raise CheckpointFormatError(f"bad value {raw!r} at line {n}") from None


def _bulk_floats(text: str) -> np.ndarray | None:
    """The whitespace-separated numbers of text in one numpy call, or None
    where that call might not read each token as float() does: numpy
    refuses '1_0' and non-ASCII digits, which float() accepts, reads
    'nan(1)', which float() refuses, drops the sign of '-nan', and reads
    whitespace alone as [-1]. So text with an 'n' (nan, inf) is left to
    float(), and so is whitespace alone."""
    if "n" in text or "N" in text or text.isspace():
        return None
    try:
        # older numpy only warns on unmatched data and returns what it read
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return np.fromstring(text, sep=" ")
    except (ValueError, DeprecationWarning):
        return None


def _read_array(lines: list[str], pos: int, name: str,
                shape: tuple) -> tuple[np.ndarray, int]:
    """The array `name` at lines[pos] and the position after its values."""
    count = int(np.prod(shape))
    end = pos + 1 + -(-count // _VALUES_PER_LINE)
    chunk = lines[pos + 1:end]
    values = _bulk_floats(" ".join(chunk))
    if values is None:   # float() line by line, naming the first bad line
        values = np.array([v for n, line in enumerate(chunk, pos + 2)
                           for v in _parsed(_floats, line, n)])
    if lines[pos] != f"{name} {count}" or values.size != count:
        raise CheckpointFormatError(
            f"expected '{name} {count}' and its values at line {pos + 1}")
    return values.reshape(shape), end


def parse_params(lines: list[str], pos: int,
                 kind: str) -> tuple[nn.ParamSet, int]:
    """Inverse of serialize_params: the parameter section of the given kind
    that starts at lines[pos], and the position after its end line."""
    head = f"paramset v{PARAMSET_FORMAT_VERSION} kind={kind}"
    if lines[pos:pos + 1] != [head]:
        raise CheckpointFormatError(f"expected {head!r} at line {pos + 1}")
    layers: list[nn.Layer] = []
    at = pos + 1     # the line a damaged value is reported at
    try:
        pos += 2
        for i in range(int(lines[at].removeprefix("layers "))):
            at = pos
            toks = lines[pos].split()
            f = dict(zip(toks[3::2], toks[4::2]))
            if toks[:3] == ["layer", str(i), "dense"]:
                shape = (int(f["out"]), int(f["in"]))
                w, pos = _read_array(lines, pos + 1, "weight", shape)
                b, pos = _read_array(lines, pos, "bias", shape[:1])
                layers.append(nn.DenseLayer(w, b, f["activation"]))
            elif toks[:3] == ["layer", str(i), "conv"]:
                shape = tuple(int(f[k]) for k in ("kh", "kw", "cin", "cout"))
                k, pos = _read_array(lines, pos + 1, "kernel", shape)
                b, pos = _read_array(lines, pos, "bias", shape[3:])
                layers.append(nn.ConvLayer(k, b, int(f["stride"]),
                                           int(f["pad"]), f["activation"]))
            else:
                raise CheckpointFormatError(
                    f"bad layer header at line {pos + 1}")
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
             *_config_lines("train", ck.config), f"curve {len(ck.curve)}"]
    lines += [" ".join(map(_format_value, row)) for row in ck.curve]
    return ("\n".join(lines) + "\n"
            + serialize_params(ck.params, kind="qnet") + "end checkpoint\n")


def checkpoint_id(text: str) -> str:
    """Content hash naming the checkpoint; stable across save/load cycles."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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
    if pos >= len(lines) or not lines[pos].startswith("curve "):
        raise CheckpointFormatError("missing curve section")
    end = pos + 1 + _parsed(int, lines[pos].removeprefix("curve "), pos + 1)
    rows = lines[pos + 1:end]
    try:
        curve = [(int(episode), float(ret))
                 for episode, ret in map(str.split, rows)]
    except ValueError:   # name the first damaged row
        for n, row in enumerate(rows, pos + 2):
            _parsed(_curve_row, row, n)
        raise
    params, pos = parse_params(lines, end, "qnet")
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
