"""Command-line surface.

    policyprobe train    --config run.json [--steps N] [--objective NAME]
    policyprobe probe    --config run.json [--checkpoint ck.txt] [--runs N]
    policyprobe attack   --config run.json [--checkpoint ck.txt] [--runs N]
    policyprobe spectrum --config run.json [--checkpoint ck.txt]
    policyprobe sweep    --config run.json
    policyprobe report   --dir RUNDIR

Each command reads only its JSON manifest (see config.py). Every other flag
overrides one manifest key before the manifest is validated: --out sets
output_dir, --seed seed, --checkpoint probe.checkpoint (spectrum.checkpoint
for spectrum), --runs probe.runs, --steps train.total_steps and --objective
train.objective. A relative path is read against the manifest's directory
when the manifest sets it, and against the working directory when a flag
does. A command writes its artifacts into a fresh timestamped directory
under the output root (output_dir, else $POLICYPROBE_OUT, else ./runs),
next to config_echo.json, the effective manifest with every path absolute,
which given as --config re-runs the command from any directory. It prints
where everything went. `report` re-renders summaries from the raw per-run
rows stored by earlier commands.
Exit status is nonzero on any validation or runtime failure, with the
diagnostic on stderr.
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller chose a count, as in the scripts: on
# matrices this small, OpenBLAS's default of a thread per core adds CPU
# time, not speed. Set before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import sys
from pathlib import Path

from . import attack as attack_mod
from . import checkpoint as cp
from . import config as config_mod
from . import harness, spectral
from . import qlearning as ql
from .envs import make_env


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _run_directory(cfg: config_mod.RunConfig, command: str) -> Path:
    """A fresh run directory under the manifest's output_dir, else the
    default root, holding the effective config's echo."""
    root = Path(cfg.output_dir) if cfg.output_dir else None
    rundir = cp.run_directory(command, root)
    cp.atomic_write_text(rundir / "config_echo.json", cfg.echo + "\n")
    return rundir


def _load_checkpoint(cfg: config_mod.RunConfig,
                     path: str) -> tuple[ql.Checkpoint, str]:
    """The checkpoint at path and its id; it must be a readable file and
    have been trained on the manifest's environment."""
    if not path:
        raise config_mod.ConfigError(
            "a checkpoint is required (--checkpoint or probe.checkpoint)")
    try:
        ck, ck_id = cp.load_checkpoint(path)
    except FileNotFoundError:
        raise config_mod.ConfigError(f"checkpoint not found: {path}") \
            from None
    except OSError as exc:   # a directory, no read permission, ...
        raise config_mod.ConfigError(
            f"cannot read checkpoint {path}: {exc.strerror or exc}") from None
    have, want = ck.env_spec, cfg.env
    if (have.env_id, have.size, have.seed) != (want.env_id, want.size,
                                               want.seed):
        raise config_mod.ConfigError(
            f"checkpoint was trained on {have.env_id} size {have.size} "
            f"seed {have.seed}, manifest asks for {want.env_id} size "
            f"{want.size} seed {want.seed}")
    return ck, ck_id


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_train(cfg: config_mod.RunConfig) -> int:
    ck = ql.train(cfg.env, cfg.train)
    rundir = _run_directory(cfg, "train")
    ck_id = cp.save_checkpoint(rundir / "checkpoint.txt", ck)
    cp.atomic_write_text(rundir / "curve.csv",
                         cp.csv_text(cp.CURVE_CSV_HEADER, ck.curve))
    print(f"checkpoint {ck_id} ({cfg.train.objective}, "
          f"{ck.trained_steps} steps) -> {rundir / 'checkpoint.txt'}")
    return 0


def cmd_probe(cfg: config_mod.RunConfig) -> int:
    if cfg.probe is None:
        raise config_mod.ConfigError("manifest has no probe section")
    ck, ck_id = _load_checkpoint(cfg, cfg.probe.checkpoint)
    report = harness.probe(ck.params, ck.env_spec, cfg.probe.direction,
                           cfg.probe.runs, checkpoint_id=ck_id)
    path = cp.write_probe(_run_directory(cfg, "probe"), report, cfg.echo)
    print(cp.summary_line(report))
    print(f"report -> {path}")
    return 0


def cmd_attack(cfg: config_mod.RunConfig) -> int:
    if cfg.probe is None:
        raise config_mod.ConfigError("manifest has no probe section")
    direction = cfg.probe.direction
    if not isinstance(direction, attack_mod.AttackSpec):
        raise config_mod.ConfigError(
            "the attack command needs an attack direction "
            "(probe.direction with a 'method')")
    ck, ck_id = _load_checkpoint(cfg, cfg.probe.checkpoint)
    # the rollout probe below reads the table's views, so each distinct
    # state is attacked once across the table and the rollout
    views: harness.Views = {}
    rows = []
    for seed in range(cfg.probe.runs):
        # the trajectory follows the clean policy
        for obs, action in harness.probe_episode(ck.params, ck.env_spec,
                                                 harness.IDENTITY, seed)[3]:
            viewed, dist, success, sim = harness.view(ck.params, obs,
                                                      direction, views)
            a_adv = ql.greedy_action(ck.params, viewed)
            rows.append((len(rows), action, a_adv, dist, success, sim))
    rundir = _run_directory(cfg, "attack")
    cp.atomic_write_text(rundir / "states.csv",
                         cp.csv_text(cp.ATTACK_CSV_HEADER, rows))
    n_success = sum(1 for r in rows if r[4])
    print(f"{direction.method}: {n_success}/{len(rows)} states flipped "
          f"-> {rundir / 'states.csv'}")
    if cfg.probe.rollout:
        report = harness.probe(ck.params, ck.env_spec, direction,
                               cfg.probe.runs, checkpoint_id=ck_id,
                               views=views)
        cp.write_probe(rundir, report, cfg.echo)
        print(cp.summary_line(report))
    return 0


def cmd_spectrum(cfg: config_mod.RunConfig) -> int:
    if cfg.spectrum is None:
        raise config_mod.ConfigError("manifest has no spectrum section")
    settings = cfg.spectrum
    params = None
    if settings.checkpoint:   # always set for a rollout source
        params = _load_checkpoint(cfg, settings.checkpoint)[0].params
    if settings.source == "rollout":
        observations = [
            obs for seed in range(settings.samples)
            for obs, _ in harness.probe_episode(params, cfg.env,
                                                harness.IDENTITY, seed)[3]]
    else:
        env = make_env(cfg.env)
        observations = [env.reset(seed) for seed in range(settings.samples)]
    rundir = _run_directory(cfg, "spectrum")
    for direction in settings.directions:
        views: harness.Views = {}
        pairs = [(obs, harness.view(params, obs, direction, views)[0])
                 for obs in observations]
        delta = spectral.mean_band_delta(pairs)
        label = direction.label()
        path = cp.write_spectrum(rundir, label, delta, *pairs[0])
        print(f"{label}: low-band delta {delta.low_delta:+.6g} "
              f"high-band delta {delta.high_delta:+.6g} -> {path}")
    return 0


def cmd_sweep(cfg: config_mod.RunConfig) -> int:
    if cfg.sweep is None:
        raise config_mod.ConfigError("manifest has no sweep section")
    settings = cfg.sweep
    policies, ids = [], {}
    for label, path in settings.policies:
        ck, ck_id = _load_checkpoint(cfg, path)
        policies.append((label, ck.params))
        ids[label] = ck_id
    reports = harness.sweep(policies, cfg.env, settings.family,
                            settings.parameter, list(settings.values),
                            settings.runs, checkpoint_ids=ids)
    rundir = _run_directory(cfg, "sweep")
    cp.atomic_write_text(rundir / "sweep.csv",
                         cp.sweep_csv(settings.parameter, reports))
    cp.atomic_write_text(rundir / "summary.csv",
                         _sweep_summary(rundir / "sweep.csv"))
    for (policy, value), report in reports.items():
        print(f"{policy} {settings.parameter}={value:g}: "
              f"impact {report.impact:+.4f} "
              f"score {report.mean_score:.4f} "
              f"similarity {report.mean_similarity:.5f}")
    print(f"sweep -> {rundir / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------------------
# report: re-render summaries from stored raw rows
# ---------------------------------------------------------------------------

def _sweep_summary(sweep_csv_path: Path) -> str:
    """sweep_summary_v1 rows rendered from a sweep.csv: per (policy, value),
    the run count, score and similarity means and SEMs, and the point
    impact, which every run row of the point must repeat."""
    rows = cp.read_csv(sweep_csv_path, cp.SWEEP_CSV_HEADER)
    groups: dict[tuple[str, str], list[list[str]]] = {}
    for row in rows:
        groups.setdefault((row[0], row[2]), []).append(row)
    out = []
    for (policy, value), grp in sorted(groups.items(),
                                       key=lambda kv: (kv[0][0],
                                                       float(kv[0][1]))):
        impacts = {r[7] for r in grp}
        if len(impacts) != 1:
            raise config_mod.ConfigError(
                f"inconsistent impact column for {policy} at {value}")
        out.append((policy, grp[0][1], value, len(grp),
                    *harness.summarize([float(r[5]) for r in grp],
                                       [float(r[6]) for r in grp]),
                    impacts.pop()))
    return cp.csv_text(cp.SWEEP_SUMMARY_CSV_HEADER, out)


def cmd_report(rundir: str) -> int:
    base = Path(rundir)
    if not base.is_dir():
        return _fail(f"not a run directory: {rundir}")
    rendered = 0
    runs_csv = base / "runs.csv"
    if runs_csv.exists():
        rows = cp.read_csv(runs_csv, cp.REPORT_CSV_HEADER)
        stats = harness.summarize([float(r[2]) for r in rows],
                                  [float(r[3]) for r in rows])
        report_txt = base / "report.txt"
        if not report_txt.exists():
            return _fail(f"{report_txt} is missing: runs.csv is rendered "
                         "against the clean score stored there")
        fields = cp.report_fields(report_txt)
        clean = float(fields["score_clean"])
        score_min = float(fields["score_min_fixed"])
        impact = harness.impact(clean, stats[0], score_min)
        cp.atomic_write_text(base / "summary.csv", cp.csv_text(
            cp.PROBE_SUMMARY_CSV_HEADER,
            zip(("runs", "mean_score", "sem_score", "mean_similarity",
                 "sem_similarity", "impact"), (len(rows), *stats, impact))))
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
    """Each flag but --config and --dir stores its value under the manifest
    key it overrides, the key being its dest."""
    parser = argparse.ArgumentParser(
        prog="policyprobe",
        description="Probe pixel-observation policies for sensitivity "
                    "along perturbation and attack directions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint_key=None):
        p.add_argument("--config", required=True,
                       help="JSON run manifest (see config.py)")
        p.add_argument("--out", dest="output_dir",
                       help="override output_dir, the output root (else "
                            "$POLICYPROBE_OUT, else ./runs)")
        p.add_argument("--seed", type=int, help="override manifest seed")
        if checkpoint_key:
            p.add_argument("--checkpoint", dest=checkpoint_key,
                           help=f"override {checkpoint_key}, the path to a "
                                "saved checkpoint")

    p = sub.add_parser("train", help="train a policy")
    common(p)
    p.add_argument("--steps", type=int, dest="train.total_steps",
                   help="override train.total_steps")
    p.add_argument("--objective", dest="train.objective",
                   help="override train.objective")

    for command, help_text in (
            ("probe", "probe a policy along one direction"),
            ("attack", "attack every state of clean rollouts")):
        p = sub.add_parser(command, help=help_text)
        common(p, "probe.checkpoint")
        p.add_argument("--runs", type=int, dest="probe.runs",
                       help="override probe.runs")

    p = sub.add_parser("spectrum", help="band-energy deltas per direction")
    common(p, "spectrum.checkpoint")

    p = sub.add_parser("sweep", help="probe a parameter grid per policy")
    common(p)

    p = sub.add_parser("report", help="re-render summaries from raw rows")
    p.add_argument("--dir", required=True, help="run directory to render")
    return parser


COMMANDS = {"train": cmd_train, "probe": cmd_probe, "attack": cmd_attack,
            "spectrum": cmd_spectrum, "sweep": cmd_sweep}


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    try:
        if command == "report":
            return cmd_report(args["dir"])
        cfg = config_mod.load_run_config(args.pop("config"), args)
        return COMMANDS[command](cfg)
    except (config_mod.ConfigError, cp.CheckpointFormatError) as exc:
        return _fail(str(exc))
    except ValueError as exc:
        return _fail(f"invalid configuration or input: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
