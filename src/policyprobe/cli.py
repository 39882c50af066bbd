"""Command-line surface.

    policyprobe train    --config run.json [--steps N] [--objective NAME]
    policyprobe probe    --config run.json --checkpoint ck.txt [--runs N]
    policyprobe attack   --config run.json --checkpoint ck.txt [--runs N]
    policyprobe spectrum --config run.json [--checkpoint ck.txt]
    policyprobe sweep    --config run.json
    policyprobe report   --dir RUNDIR

Each command reads one JSON manifest (see config.py), writes its artifacts
into a fresh timestamped directory under the output root (flag --out, else
$POLICYPROBE_OUT, else ./runs), echoes the effective config next to them,
and prints where everything went. `report` re-renders summaries from the
raw per-run rows stored by earlier commands. Exit status is nonzero on any
validation or runtime failure, with the diagnostic on stderr.
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller chose a count, as in the scripts: on
# matrices this small, OpenBLAS's default of a thread per core adds CPU
# time, not speed. Set before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import csv
import io
import sys
from pathlib import Path

import numpy as np

from . import attack as attack_mod
from . import checkpoint as cp
from . import config as config_mod
from . import harness, spectral
from . import qlearning as ql
from .envs import make_env


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _resolve_root(cfg: config_mod.RunConfig, out_flag: str | None) -> Path:
    if out_flag:
        return Path(out_flag)
    if cfg.output_dir:
        return Path(cfg.output_dir)
    return cp.output_root()


def _load_checkpoint_arg(path: str) -> tuple[ql.Checkpoint, str]:
    if not path:
        raise config_mod.ConfigError(
            "a checkpoint is required (--checkpoint or probe.checkpoint)")
    if not Path(path).exists():
        raise config_mod.ConfigError(f"checkpoint not found: {path}")
    return cp.load_checkpoint(path)


def _check_env_match(cfg: config_mod.RunConfig, ck: ql.Checkpoint) -> None:
    have, want = ck.env_spec, cfg.env
    if (have.env_id, have.size, have.seed) != (want.env_id, want.size,
                                               want.seed):
        raise config_mod.ConfigError(
            f"checkpoint was trained on {have.env_id} size {have.size} "
            f"seed {have.seed}, manifest asks for {want.env_id} size "
            f"{want.size} seed {want.seed}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_train(cfg: config_mod.RunConfig, out_flag: str | None) -> int:
    ck = ql.train(cfg.env, cfg.train)
    rundir = cp.run_directory("train", _resolve_root(cfg, out_flag))
    ck_id = cp.save_checkpoint(rundir / "checkpoint.txt", ck)
    cp.atomic_write_text(rundir / "curve.csv", cp.curve_csv(ck.curve))
    cp.atomic_write_text(rundir / "config_echo.json", cfg.echo + "\n")
    print(f"checkpoint {ck_id} ({cfg.train.objective}, "
          f"{ck.trained_steps} steps) -> {rundir / 'checkpoint.txt'}")
    return 0


def cmd_probe(cfg: config_mod.RunConfig, checkpoint_flag: str,
              out_flag: str | None) -> int:
    if cfg.probe is None:
        raise config_mod.ConfigError("manifest has no probe section")
    ck, ck_id = _load_checkpoint_arg(checkpoint_flag or cfg.probe.checkpoint)
    _check_env_match(cfg, ck)
    report = harness.probe(ck.params, ck.env_spec, cfg.probe.direction,
                           cfg.probe.runs, checkpoint_id=ck_id)
    rundir = cp.run_directory("probe", _resolve_root(cfg, out_flag))
    cp.atomic_write_text(rundir / "report.txt",
                         cp.report_text(report, cfg.echo))
    cp.atomic_write_text(rundir / "runs.csv", cp.report_csv(report))
    cp.atomic_write_text(rundir / "config_echo.json", cfg.echo + "\n")
    print(cp.summary_line(report))
    print(f"report -> {rundir / 'report.txt'}")
    return 0


def cmd_attack(cfg: config_mod.RunConfig, checkpoint_flag: str,
               out_flag: str | None) -> int:
    if cfg.probe is None:
        raise config_mod.ConfigError("manifest has no probe section")
    direction = cfg.probe.direction
    if not isinstance(direction, attack_mod.AttackSpec):
        raise config_mod.ConfigError(
            "the attack command needs an attack direction "
            "(probe.direction with a 'method')")
    ck, ck_id = _load_checkpoint_arg(checkpoint_flag or cfg.probe.checkpoint)
    _check_env_match(cfg, ck)
    # the rollout probe below reads the table's views, so each distinct
    # state is attacked once across the table and the rollout
    views: harness.Views = {}
    rows = []
    for seed in range(cfg.probe.runs):
        # the trajectory follows the clean policy
        trace = harness.probe_episode(ck.params, ck.env_spec,
                                      harness.IDENTITY, seed)[3]
        for t in trace:
            viewed, dist, success, sim = harness.view(
                ck.params, t.base_obs, direction, views)
            a_adv = ql.greedy_action(ck.params, viewed)
            rows.append((len(rows), t.action, a_adv, dist, success, sim))
    rundir = cp.run_directory("attack", _resolve_root(cfg, out_flag))
    cp.atomic_write_text(rundir / "states.csv", cp.attack_csv(rows))
    cp.atomic_write_text(rundir / "config_echo.json", cfg.echo + "\n")
    n_success = sum(1 for r in rows if r[4])
    print(f"{direction.method}: {n_success}/{len(rows)} states flipped "
          f"-> {rundir / 'states.csv'}")
    if cfg.probe.rollout:
        report = harness.probe(ck.params, ck.env_spec, direction,
                               cfg.probe.runs, checkpoint_id=ck_id,
                               views=views)
        cp.atomic_write_text(rundir / "report.txt",
                             cp.report_text(report, cfg.echo))
        cp.atomic_write_text(rundir / "runs.csv", cp.report_csv(report))
        print(cp.summary_line(report))
    return 0


def cmd_spectrum(cfg: config_mod.RunConfig, checkpoint_flag: str,
                 out_flag: str | None) -> int:
    if cfg.spectrum is None:
        raise config_mod.ConfigError("manifest has no spectrum section")
    settings = cfg.spectrum
    ck = None
    ck_path = checkpoint_flag or settings.checkpoint
    if settings.source == "rollout" or ck_path:
        ck, _ = _load_checkpoint_arg(ck_path)
        _check_env_match(cfg, ck)
    params = ck.params if ck else None
    if settings.source == "rollout":
        observations = [
            t.base_obs for seed in range(settings.samples)
            for t in harness.probe_episode(params, cfg.env, harness.IDENTITY,
                                           seed)[3]]
    else:
        env = make_env(cfg.env)
        observations = [env.reset(seed) for seed in range(settings.samples)]
    rundir = cp.run_directory("spectrum", _resolve_root(cfg, out_flag))
    cp.atomic_write_text(rundir / "config_echo.json", cfg.echo + "\n")
    for direction in settings.directions:
        views: harness.Views = {}
        pairs = [(obs, harness.view(params, obs, direction, views)[0])
                 for obs in observations]
        delta = spectral.mean_band_delta(pairs)
        label = harness.direction_label(direction)
        safe = "".join(c if c.isalnum() or c in "._-" else "_"
                       for c in label)
        path = rundir / f"spectrum_{safe}.csv"
        cp.atomic_write_text(path, cp.spectrum_csv(delta.csv_rows()))
        base0, viewed0 = pairs[0]
        cp.atomic_write_text(rundir / f"sample_base_{safe}.pgm",
                             cp.pgm_text(base0))
        cp.atomic_write_text(rundir / f"sample_pert_{safe}.pgm",
                             cp.pgm_text(viewed0))
        print(f"{label}: low-band delta {delta.low_delta:+.6g} "
              f"high-band delta {delta.high_delta:+.6g} -> {path}")
    return 0


def cmd_sweep(cfg: config_mod.RunConfig, out_flag: str | None) -> int:
    if cfg.sweep is None:
        raise config_mod.ConfigError("manifest has no sweep section")
    settings = cfg.sweep
    policies, ids = [], {}
    for label, path in settings.policies:
        ck, ck_id = _load_checkpoint_arg(path)
        _check_env_match(cfg, ck)
        policies.append((label, ck.params))
        ids[label] = ck_id
    result = harness.sweep(policies, cfg.env, settings.family,
                           settings.parameter, list(settings.values),
                           settings.runs, checkpoint_ids=ids)
    rundir = cp.run_directory("sweep", _resolve_root(cfg, out_flag))
    cp.atomic_write_text(rundir / "sweep.csv", cp.sweep_csv(result))
    cp.atomic_write_text(rundir / "summary.csv",
                         _sweep_summary(rundir / "sweep.csv"))
    cp.atomic_write_text(rundir / "config_echo.json", cfg.echo + "\n")
    for pt in result.points:
        print(f"{pt.policy} {settings.parameter}={pt.value:g}: "
              f"impact {pt.report.impact:+.4f} "
              f"score {pt.report.mean_score:.4f} "
              f"similarity {pt.report.mean_similarity:.5f}")
    print(f"sweep -> {rundir / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------------------
# report: re-render summaries from stored raw rows
# ---------------------------------------------------------------------------

def _read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or not rows[0][0].startswith("schema="):
        raise config_mod.ConfigError(f"{path} has no schema header")
    if len(rows) < 2:
        raise config_mod.ConfigError(f"{path} has no data rows")
    header = [rows[0][0].split("=", 1)[1]] + rows[0][1:]
    for line, row in enumerate(rows[1:], 2):
        if len(row) != len(header) - 1:
            raise config_mod.ConfigError(
                f"{path} line {line} has {len(row)} of {len(header) - 1} "
                "fields")
    return header, rows[1:]


def _sweep_summary(sweep_csv_path: Path) -> str:
    """sweep_summary_v1 rows rendered from a sweep.csv: per (policy, value),
    the run count, score and similarity means and SEMs, and the point
    impact, which every run row of the point must repeat."""
    header, rows = _read_csv_rows(sweep_csv_path)
    if header[0] != "sweep_v1":
        raise config_mod.ConfigError(
            f"unexpected schema {header[0]} in {sweep_csv_path}")
    groups: dict[tuple[str, str], list[list[str]]] = {}
    for row in rows:
        groups.setdefault((row[0], row[2]), []).append(row)
    out = ["schema=sweep_summary_v1,policy,parameter,value,runs,"
           "mean_score,sem_score,mean_similarity,sem_similarity,impact"]
    for (policy, value), grp in sorted(groups.items(),
                                       key=lambda kv: (kv[0][0],
                                                       float(kv[0][1]))):
        scores = [float(r[5]) for r in grp]
        sims = [float(r[6]) for r in grp]
        impacts = {r[7] for r in grp}
        if len(impacts) != 1:
            raise config_mod.ConfigError(
                f"inconsistent impact column for {policy} at {value}")
        out.append(f"{policy},{grp[0][1]},{value},{len(grp)},"
                   f"{np.mean(scores):.17g},{harness.sem(scores):.17g},"
                   f"{np.mean(sims):.17g},{harness.sem(sims):.17g},"
                   f"{impacts.pop()}")
    return "\n".join(out) + "\n"


def _report_fields(path: Path) -> dict[str, str]:
    fields = {}
    for line in path.read_text().splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            fields[key.strip()] = value
    for key in ("score_clean", "score_min_fixed", "impact"):
        if key not in fields:
            raise config_mod.ConfigError(f"{path} has no {key} field")
    return fields


def cmd_report(rundir: str) -> int:
    base = Path(rundir)
    if not base.is_dir():
        return _fail(f"not a run directory: {rundir}")
    rendered = 0
    runs_csv = base / "runs.csv"
    if runs_csv.exists():
        header, rows = _read_csv_rows(runs_csv)
        if header[0] != "probe_runs_v1":
            return _fail(f"unexpected schema {header[0]} in {runs_csv}")
        scores = [float(r[2]) for r in rows]
        sims = [float(r[3]) for r in rows]
        report_txt = base / "report.txt"
        if not report_txt.exists():
            return _fail(f"{report_txt} is missing: runs.csv is rendered "
                         "against the clean score stored there")
        fields = _report_fields(report_txt)
        clean = float(fields["score_clean"])
        score_min = float(fields["score_min_fixed"])
        impact = harness.impact(clean, float(np.mean(scores)), score_min)
        out = io.StringIO()
        out.write("schema=probe_summary_v1,field,value\n")
        out.write(f"runs,{len(scores)}\n")
        out.write(f"mean_score,{np.mean(scores):.17g}\n")
        out.write(f"sem_score,{harness.sem(scores):.17g}\n")
        out.write(f"mean_similarity,{np.mean(sims):.17g}\n")
        out.write(f"sem_similarity,{harness.sem(sims):.17g}\n")
        out.write(f"impact,{impact:.17g}\n")
        cp.atomic_write_text(base / "summary.csv", out.getvalue())
        stored = float(fields["impact"])
        drift = abs(stored - impact)
        print(f"{fields.get('direction', '?')}: impact {impact:+.6f} "
              f"(stored {stored:+.6f}, drift {drift:.2e}) "
              f"-> {base / 'summary.csv'}")
        if drift > 1e-12:
            return _fail("stored impact disagrees with raw rows")
        rendered += 1
    sweep_csv_path = base / "sweep.csv"
    if sweep_csv_path.exists():
        summary = _sweep_summary(sweep_csv_path)
        cp.atomic_write_text(base / "summary.csv", summary)
        points = len(summary.splitlines()) - 1
        print(f"sweep summary ({points} points) -> {base / 'summary.csv'}")
        rendered += 1
    if not rendered:
        return _fail(f"nothing to render in {rundir} "
                     "(no runs.csv or sweep.csv)")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="policyprobe",
        description="Probe pixel-observation policies for sensitivity "
                    "along perturbation and attack directions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False):
        p.add_argument("--config", required=True,
                       help="JSON run manifest (see config.py)")
        p.add_argument("--out", help="output root (else $POLICYPROBE_OUT, "
                                     "else ./runs)")
        p.add_argument("--seed", type=int, help="override manifest seed")
        if checkpoint:
            p.add_argument("--checkpoint",
                           help="path to a saved checkpoint", default="")

    p = sub.add_parser("train", help="train a policy")
    common(p)
    p.add_argument("--steps", type=int, help="override train.total_steps")
    p.add_argument("--objective", help="override train.objective")

    p = sub.add_parser("probe", help="probe a policy along one direction")
    common(p, checkpoint=True)
    p.add_argument("--runs", type=int, help="override probe.runs")

    p = sub.add_parser("attack", help="attack every state of clean rollouts")
    common(p, checkpoint=True)
    p.add_argument("--runs", type=int, help="override probe.runs")

    p = sub.add_parser("spectrum", help="band-energy deltas per direction")
    common(p, checkpoint=True)

    p = sub.add_parser("sweep", help="probe a parameter grid per policy")
    common(p)

    p = sub.add_parser("report", help="re-render summaries from raw rows")
    p.add_argument("--dir", required=True, help="run directory to render")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.dir)
        overrides: dict[str, object] = {"seed": args.seed}
        if args.command == "train":
            overrides["train.total_steps"] = args.steps
            overrides["train.objective"] = args.objective
        if args.command in ("probe", "attack"):
            overrides["probe.runs"] = args.runs
        cfg = config_mod.load_run_config(args.config, overrides)
        if args.command == "train":
            return cmd_train(cfg, args.out)
        if args.command == "probe":
            return cmd_probe(cfg, args.checkpoint, args.out)
        if args.command == "attack":
            return cmd_attack(cfg, args.checkpoint, args.out)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, args.checkpoint, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out)
    except (config_mod.ConfigError, cp.CheckpointFormatError) as exc:
        return _fail(str(exc))
    except ValueError as exc:
        return _fail(f"invalid configuration or input: {exc}")
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
