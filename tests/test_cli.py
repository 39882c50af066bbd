"""Command-line surface, exercised in process: artifact layout, overrides,
error reporting, and the report command's re-render checks."""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from policyprobe import attack
from policyprobe import checkpoint as cp
from policyprobe import harness
from policyprobe import qlearning as ql
from policyprobe.cli import main
from policyprobe.envs import make_env

from conftest import DATA_DIR

VANILLA = str(DATA_DIR / "vanilla_pixelgrid.txt")
RADIAL = str(DATA_DIR / "radial_pixelgrid.txt")

ENV_SECTION = {"id": "pixelgrid", "size": 8, "seed": 0}


def manifest(tmp_path, extra, name="run.json"):
    raw = {"env": dict(ENV_SECTION)}
    raw.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def only_dir(root):
    dirs = [p for p in root.iterdir() if p.is_dir()]
    assert len(dirs) == 1, f"expected one run directory, found {dirs}"
    return dirs[0]


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("given,expected", [(None, "1"), ("2", "2")])
def test_cli_defaults_to_one_blas_thread_but_keeps_the_callers(given,
                                                               expected):
    """Importing the CLI, as its entry points do, sets OpenBLAS's thread
    count variable (read when numpy loads) unless the caller set one."""
    src = str(DATA_DIR.parent.parent / "src")
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = ("import os; import policyprobe.cli; "
            "print(os.environ['OPENBLAS_NUM_THREADS'])")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert out.strip() == expected


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_checkpoint_curve_and_echo(tmp_path, capsys):
    cfgp = manifest(tmp_path, {"train": {"total_steps": 550,
                                         "warmup_steps": 500,
                                         "replay_capacity": 2000}})
    out = tmp_path / "out"
    assert main(["train", "--config", cfgp, "--out", str(out)]) == 0
    rundir = only_dir(out)
    assert (rundir / "config_echo.json").exists()
    ck, ck_id = cp.load_checkpoint(rundir / "checkpoint.txt")
    assert ck.trained_steps == 550
    assert ck.env_spec.env_id == "pixelgrid"
    curve = (rundir / "curve.csv").read_text().splitlines()
    assert curve[0] == cp.CURVE_CSV_HEADER
    assert len(curve) > 1
    assert ck_id in capsys.readouterr().out


def test_train_flag_overrides_manifest(tmp_path):
    cfgp = manifest(tmp_path, {"train": {"total_steps": 9999,
                                         "warmup_steps": 500,
                                         "replay_capacity": 2000}})
    out = tmp_path / "out"
    assert main(["train", "--config", cfgp, "--out", str(out),
                 "--steps", "520", "--seed", "9"]) == 0
    ck, _ = cp.load_checkpoint(only_dir(out) / "checkpoint.txt")
    assert ck.trained_steps == 520
    assert ck.config.seed == 9
    echo = json.loads((only_dir(out) / "config_echo.json").read_text())
    assert echo["train"]["total_steps"] == 520


def test_train_refuses_a_zero_update_period(tmp_path, capsys):
    """train_every 0 used to pass validation and end the run in a
    ZeroDivisionError traceback once training started."""
    cfgp = manifest(tmp_path, {"train": {"total_steps": 600,
                                         "warmup_steps": 500,
                                         "replay_capacity": 2000,
                                         "train_every": 0}})
    out = tmp_path / "out"
    assert main(["train", "--config", cfgp, "--out", str(out)]) == 2
    assert "train_every" in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_a_batch_larger_than_the_replay_buffer(tmp_path,
                                                             capsys):
    """Such a run never samples a batch, so it used to save its initial
    parameters as a 300-step checkpoint and exit 0."""
    cfgp = manifest(tmp_path, {"train": {"total_steps": 300,
                                         "warmup_steps": 10,
                                         "replay_capacity": 16,
                                         "batch_size": 32}})
    out = tmp_path / "out"
    assert main(["train", "--config", cfgp, "--out", str(out)]) == 2
    assert "batch_size must not exceed replay_capacity" in \
        capsys.readouterr().err
    assert not out.exists()


# a manifest section that names a value no run can use, and its refusal
REFUSED = [
    ("train", {"train": {"objective": "radial", "adv_weight": -1}},
     "adv_weight must be >= 0"),
    ("train", {"train": {"lr": math.nan}}, "lr must be finite"),
    ("train", {"train": {"eps_rob": math.inf}}, "eps_rob must be finite"),
    ("attack", {"probe": {"direction": {"method": "fgm",
                                        "epsilon": math.nan}}},
     "epsilon must be finite and > 0 (>= 0 for fgm)"),
    ("probe", {"probe": {"direction": {"family": "perspective",
                                       "pt_norm": math.inf}}},
     "perspective norm must be finite and >= 0"),
    ("train", {"train": {"total_steps": True}},
     "train.total_steps must be an integer, got True"),
    ("train", {"train": {"total_steps": 10.5}},
     "train.total_steps must be an integer, got 10.5"),
    ("probe", {"probe": {"direction": {"family": "identity"}, "runs": 2.5}},
     "probe.runs must be an integer, got 2.5"),
    ("spectrum", {"spectrum": {"directions": [{"family": "identity"}],
                               "samples": 1.5}},
     "spectrum.samples must be an integer, got 1.5"),
    ("attack", {"probe": {"direction": {"method": "cw",
                                        "cw_iterations": 2.5}}},
     "direction.cw_iterations must be an integer, got 2.5"),
    ("train", {"env": {"id": "pixelgrid", "size": None}},
     "env.size must be an integer, got None"),
    ("train", {"env": {"id": "pixelgrid", "size": 8.9}},
     "env.size must be an integer, got 8.9"),
    ("train", {"env": {"id": "pixelgrid", "seed": 0.5}},
     "env.seed must be an integer, got 0.5"),
    ("attack", {"probe": {"direction": {"method": "fgm"}, "rollout": "yes"}},
     "probe.rollout must be a bool, got 'yes'"),
    ("attack", {"probe": {"direction": {"method": "fgm", "p": None}}},
     "direction.p must be a float, got None"),
    ("sweep", {"sweep": {"family": "shift", "parameter": "ti", "values": 5,
                         "policies": {"vanilla": VANILLA}}},
     "sweep.values must be a tuple[float, ...], got 5"),
    ("sweep", {"sweep": {"family": "shift", "parameter": "ti",
                         "values": [True], "policies": {"vanilla": VANILLA}}},
     "sweep.values must be a float, got True"),
    ("sweep", {"sweep": {"family": "shift", "parameter": "ti",
                         "values": [0.0], "policies": {"vanilla": 3}}},
     "sweep.policies.vanilla must be a str, got 3")]


@pytest.mark.parametrize("command,section,message", REFUSED,
                         ids=["adv_weight", "lr", "eps_rob", "epsilon",
                              "pt_norm", "total_steps=true",
                              "total_steps=10.5", "runs=2.5", "samples=1.5",
                              "cw_iterations=2.5", "size=null", "size=8.9",
                              "seed=0.5", "rollout=yes", "p=null",
                              "values=5", "values=[true]", "policy_path=3"])
def test_manifest_refuses_values_no_run_can_use(tmp_path, capsys,
                                                 monkeypatch, command,
                                                 section, message):
    """Refused while the manifest is read. A negative adv_weight used to
    train the overlap term in reverse and exit 0; a NaN lr or an infinite
    eps_rob ran the warmup, then failed as a diverged run; a NaN epsilon
    failed at the first forward; an infinite pt_norm gave all-NaN
    observations. A value of the wrong type is refused too: total_steps
    true used to write a checkpoint that load_checkpoint refused, a
    non-integral count or a null size failed with a traceback, a
    non-integral size or seed was truncated, and rollout "yes" counted as
    true. A null norm order, a sweep grid that is not a list and a policy
    path that is not a string failed with a traceback, and a grid value
    true counted as 1."""
    loaded = []
    monkeypatch.setattr(cp, "load_checkpoint", loaded.append)
    args = [] if command in ("train", "sweep") else ["--checkpoint", VANILLA]
    cfgp = manifest(tmp_path, section)
    out = tmp_path / "out"
    assert main([command, "--config", cfgp, "--out", str(out), *args]) == 2
    assert capsys.readouterr().err == (
        f"error: invalid configuration or input: {message}\n")
    assert not out.exists() and not loaded


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

def probe_manifest(tmp_path, direction, runs=3, **probe_extra):
    return manifest(tmp_path, {"probe": {"direction": direction,
                                         "runs": runs, **probe_extra}})


def test_probe_identity_writes_neutral_report(tmp_path, capsys):
    cfgp = probe_manifest(tmp_path, {"family": "identity"})
    out = tmp_path / "out"
    assert main(["probe", "--config", cfgp, "--checkpoint", VANILLA,
                 "--out", str(out)]) == 0
    rundir = only_dir(out)
    text = (rundir / "report.txt").read_text()
    assert "impact = 0\n" in text
    assert "mean_similarity = 0\n" in text
    rows = (rundir / "runs.csv").read_text().splitlines()
    assert rows[0] == cp.REPORT_CSV_HEADER
    assert len(rows) == 4  # header + 3 runs
    assert "impact +0.0000" in capsys.readouterr().out


def test_probe_runs_flag_overrides(tmp_path):
    cfgp = probe_manifest(tmp_path, {"family": "identity"}, runs=3)
    out = tmp_path / "out"
    assert main(["probe", "--config", cfgp, "--checkpoint", VANILLA,
                 "--out", str(out), "--runs", "5"]) == 0
    rows = (only_dir(out) / "runs.csv").read_text().splitlines()
    assert len(rows) == 6


def test_probe_uses_env_var_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv(cp.OUTPUT_ROOT_ENV, str(tmp_path / "envroot"))
    cfgp = probe_manifest(tmp_path, {"family": "identity"}, runs=2,
                          checkpoint=VANILLA)
    assert main(["probe", "--config", cfgp]) == 0
    assert only_dir(tmp_path / "envroot").name.endswith("-probe")


def test_probe_refuses_env_mismatch(tmp_path, capsys):
    cfgp = manifest(tmp_path, {
        "env": {"id": "pixelgrid", "size": 8, "seed": 5},
        "probe": {"direction": {"family": "identity"}, "runs": 2}})
    rc = main(["probe", "--config", cfgp, "--checkpoint", VANILLA,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "seed 0" in err and "seed 5" in err


def test_probe_requires_checkpoint_and_section(tmp_path, capsys):
    cfgp = probe_manifest(tmp_path, {"family": "identity"})
    assert main(["probe", "--config", cfgp,
                 "--out", str(tmp_path / "o1")]) == 2
    assert "checkpoint" in capsys.readouterr().err
    bare = manifest(tmp_path, {}, name="bare.json")
    assert main(["probe", "--config", bare, "--checkpoint", VANILLA,
                 "--out", str(tmp_path / "o2")]) == 2
    assert "probe section" in capsys.readouterr().err


def test_probe_rejects_missing_checkpoint_file(tmp_path, capsys):
    cfgp = probe_manifest(tmp_path, {"family": "identity"})
    rc = main(["probe", "--config", cfgp, "--checkpoint",
               str(tmp_path / "absent.txt"), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_probe_names_the_damaged_checkpoint_file(tmp_path, capsys):
    """A sweep loads one checkpoint per policy, so the error names the file
    as well as the line; it used to read "bad value '1 oops' at line 36"."""
    lines = (DATA_DIR / "vanilla_pixelgrid.txt").read_text().splitlines()
    assert lines[35] == "1 -2"   # a curve row
    lines[35] = "1 oops"
    damaged = tmp_path / "damaged.txt"
    damaged.write_text("\n".join(lines) + "\n")
    cfgp = probe_manifest(tmp_path, {"family": "identity"})
    out = tmp_path / "out"
    assert main(["probe", "--config", cfgp, "--checkpoint", str(damaged),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {damaged}: bad value '1 oops' at line 36\n")
    assert not out.exists()


def test_probe_rejects_invalid_manifest(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["probe", "--config", str(bad),
                 "--checkpoint", VANILLA]) == 2
    assert "not valid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------

def test_attack_writes_per_state_rows(tmp_path, capsys):
    cfgp = probe_manifest(tmp_path, {"method": "fgm", "p": "inf",
                                     "epsilon": 0.05}, runs=2)
    out = tmp_path / "out"
    assert main(["attack", "--config", cfgp, "--checkpoint", VANILLA,
                 "--out", str(out)]) == 0
    rows = (only_dir(out) / "states.csv").read_text().splitlines()
    assert rows[0] == cp.ATTACK_CSV_HEADER
    assert len(rows) > 2
    for line in rows[1:]:
        state, a_clean, a_adv, dist, success, sim = line.split(",")
        assert success in ("0", "1")
        assert 0 <= int(a_clean) < 4 and 0 <= int(a_adv) < 4
        assert dist == "inf" or float(dist) <= 0.05 + 1e-9
    assert "states flipped" in capsys.readouterr().out


def clean_visits(path, runs):
    """Observation bytes of every state of greedy rollouts, seeds 0..runs-1."""
    ck, _ = cp.load_checkpoint(path)
    env, visited = make_env(ck.env_spec), []
    for seed in range(runs):
        obs, terminal = env.reset(seed), False
        while not terminal:
            visited.append(obs.tobytes())
            step = env.step(ql.greedy_action(ck.params, obs))
            obs, terminal = step.observation, step.terminal
    return visited


def count_attacks(monkeypatch):
    """Record the observation bytes of every run_attack call."""
    calls = []
    run_attack = attack.run_attack

    def counting(net, obs, spec):
        calls.append(obs.tobytes())
        return run_attack(net, obs, spec)

    monkeypatch.setattr(attack, "run_attack", counting)
    return calls


def test_attack_attacks_each_distinct_state_once(tmp_path, monkeypatch):
    calls = count_attacks(monkeypatch)
    cfgp = probe_manifest(tmp_path, {"method": "fgm", "p": "inf",
                                     "epsilon": 0.05}, runs=4)
    out = tmp_path / "out"
    assert main(["attack", "--config", cfgp, "--checkpoint", VANILLA,
                 "--out", str(out)]) == 0
    visited = clean_visits(VANILLA, 4)
    assert len(set(visited)) < len(visited)   # the runs do revisit states
    assert sorted(calls) == sorted(set(visited))
    lines = (only_dir(out) / "states.csv").read_text().splitlines()[1:]
    assert len(lines) == len(visited)
    # a revisited state repeats its first row, apart from the state index
    first: dict[bytes, str] = {}
    for key, line in zip(visited, lines):
        fields = line.split(",", 1)[1]
        assert first.setdefault(key, fields) == fields


def test_attack_rollout_flag_adds_probe_report(tmp_path):
    cfgp = probe_manifest(tmp_path, {"method": "fgm", "p": "inf",
                                     "epsilon": 0.05}, runs=2, rollout=True)
    out = tmp_path / "out"
    assert main(["attack", "--config", cfgp, "--checkpoint", VANILLA,
                 "--out", str(out)]) == 0
    rundir = only_dir(out)
    assert (rundir / "report.txt").exists()
    assert (rundir / "runs.csv").exists()


def test_attack_rollout_attacks_each_distinct_state_once(tmp_path,
                                                        monkeypatch):
    """The rollout probe reads the table's views: a state in both the
    table and the rollout is attacked once."""
    direction = attack.AttackSpec(method="fgm", p=np.inf, epsilon=0.05)
    ck, _ = cp.load_checkpoint(RADIAL)
    table = set(clean_visits(RADIAL, 4))
    rollout = {obs.tobytes() for seed in range(4)
               for obs, _ in harness.probe_episode(ck.params, ck.env_spec,
                                                   direction, seed)[3]}
    assert table & rollout and rollout - table
    calls = count_attacks(monkeypatch)
    cfgp = probe_manifest(tmp_path, {"method": "fgm", "p": "inf",
                                     "epsilon": 0.05}, runs=4, rollout=True)
    assert main(["attack", "--config", cfgp, "--checkpoint", RADIAL,
                 "--out", str(tmp_path / "out")]) == 0
    assert sorted(calls) == sorted(table | rollout)


def test_attack_rejects_fixed_directions(tmp_path, capsys):
    cfgp = probe_manifest(tmp_path, {"family": "median_blur", "kernel": 3})
    assert main(["attack", "--config", cfgp, "--checkpoint", VANILLA,
                 "--out", str(tmp_path / "out")]) == 2
    assert "attack direction" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_reset_writes_per_direction_files(tmp_path, capsys):
    cfgp = manifest(tmp_path, {"spectrum": {
        "directions": [{"family": "median_blur", "kernel": 5},
                       {"family": "brightness_contrast", "beta": 25.0}],
        "samples": 4}})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfgp, "--out", str(out)]) == 0
    rundir = only_dir(out)
    csvs = sorted(p.name for p in rundir.glob("spectrum_*.csv"))
    assert len(csvs) == 2
    pgms = sorted(p.name for p in rundir.glob("sample_*.pgm"))
    assert len(pgms) == 4  # base + perturbed per direction
    for name in csvs:
        lines = (rundir / name).read_text().splitlines()
        assert lines[0] == cp.SPECTRUM_CSV_HEADER
        assert len(lines) > 2
    assert "low-band delta" in capsys.readouterr().out


def test_spectrum_refuses_directions_that_share_a_label(tmp_path, capsys):
    """Two seeded perspectives share the label pt[3,seeded] and would write
    the same files; the command refuses them before making a directory."""
    cfgp = manifest(tmp_path, {"spectrum": {"directions": [
        {"family": "perspective", "pt_norm": 3.0, "pt_mode": "seeded",
         "pt_seed": seed} for seed in (0, 1)], "samples": 2}})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfgp, "--out", str(out)]) == 2
    assert "pt[3,seeded]" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_rollout_needs_checkpoint(tmp_path, capsys):
    cfgp = manifest(tmp_path, {"spectrum": {
        "directions": [{"family": "median_blur", "kernel": 3}],
        "source": "rollout", "samples": 2}})
    assert main(["spectrum", "--config", cfgp,
                 "--out", str(tmp_path / "o1")]) == 2
    assert "checkpoint" in capsys.readouterr().err
    assert main(["spectrum", "--config", cfgp, "--checkpoint", VANILLA,
                 "--out", str(tmp_path / "o2")]) == 0


def rollout_spectrum(tmp_path, directions):
    """Run `spectrum` on radial rollouts of seeds 0..3; the run directory."""
    cfgp = manifest(tmp_path, {"spectrum": {
        "directions": directions, "source": "rollout", "samples": 4}})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfgp, "--checkpoint", RADIAL,
                 "--out", str(out)]) == 0
    return only_dir(out)


def test_spectrum_attacks_each_distinct_rollout_state_once(tmp_path,
                                                          monkeypatch):
    visited = clean_visits(RADIAL, 4)
    assert len(set(visited)) < len(visited)   # the rollouts revisit states
    calls = count_attacks(monkeypatch)
    rollout_spectrum(tmp_path, [{"method": "fgm", "p": "inf",
                                 "epsilon": 0.05}])
    assert sorted(calls) == sorted(set(visited))


# ---------------------------------------------------------------------------
# sweep + report
# ---------------------------------------------------------------------------

def sweep_manifest(tmp_path):
    return manifest(tmp_path, {"sweep": {
        "family": "median_blur", "parameter": "kernel", "values": [1, 3],
        "policies": {"vanilla": VANILLA}, "runs": 2}})


def test_sweep_writes_rows_and_summary(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--config", sweep_manifest(tmp_path),
                 "--out", str(out)]) == 0
    rundir = only_dir(out)
    rows = (rundir / "sweep.csv").read_text().splitlines()
    assert rows[0] == cp.SWEEP_CSV_HEADER
    assert len(rows) == 1 + 2 * 2   # 2 grid points x 2 runs
    summary = (rundir / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("schema=sweep_summary_v1")
    assert len(summary) == 3
    assert "kernel=1" in capsys.readouterr().out


def test_probe_refuses_a_field_its_family_does_not_read(tmp_path, capsys):
    """This direction used to probe rot[0] and exit 0."""
    cfgp = probe_manifest(tmp_path, {"family": "rotation", "kernel": 5,
                                     "beta": 30})
    out = tmp_path / "out"
    assert main(["probe", "--config", cfgp, "--checkpoint", VANILLA,
                 "--out", str(out)]) == 2
    assert "rotation does not read beta" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("parameter", ["beta", "bogus"])
def test_sweep_refuses_a_parameter_its_family_does_not_read(tmp_path, capsys,
                                                            parameter):
    """Over beta, a median blur sweep used to repeat one point and exit 0;
    over bogus, it ended in a TypeError traceback."""
    cfgp = manifest(tmp_path, {"sweep": {
        "family": "median_blur", "parameter": parameter, "values": [1, 3],
        "policies": {"vanilla": VANILLA}, "runs": 2}})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfgp, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: invalid configuration or input: "
                   f"median_blur does not read {parameter}\n")
    assert not out.exists()


# a direction that no 24x24 PixelGrid frame takes, the sweep grid that
# reaches it along the named parameter, and the refusal
FRAME_MISFITS = [({"family": "median_blur", "kernel": 31}, "kernel", [1, 31],
                  "blur kernel 31 exceeds image size 24x24"),
                 ({"family": "shift", "tj": -24}, "tj", [-24, 1],
                  "shift (0, -24) too large for image 24x24")]


@pytest.mark.parametrize("direction,parameter,values,message",
                         FRAME_MISFITS, ids=["blur", "shift"])
@pytest.mark.parametrize("command", ["probe", "spectrum", "sweep"])
def test_manifest_refuses_a_perturbation_larger_than_the_frame(
        tmp_path, capsys, monkeypatch, command, direction, parameter, values,
        message):
    """Refused while the manifest is read, before any checkpoint is loaded
    or run directory made. The probe used to refuse the blur only at its
    first perturbed step, after the clean baselines had run."""
    loaded = []
    monkeypatch.setattr(cp, "load_checkpoint", loaded.append)
    args = ["--checkpoint", VANILLA] if command == "probe" else []
    cfgp = manifest(tmp_path, {
        "probe": {"probe": {"direction": direction, "runs": 2}},
        "spectrum": {"spectrum": {
            "directions": [{"family": "identity"}, direction],
            "samples": 2}},
        "sweep": {"sweep": {
            "family": direction["family"], "parameter": parameter,
            "values": values, "policies": {"vanilla": VANILLA},
            "runs": 2}}}[command])
    out = tmp_path / "out"
    assert main([command, "--config", cfgp, "--out", str(out), *args]) == 2
    assert capsys.readouterr().err == (
        f"error: invalid configuration or input: {message}\n")
    assert not out.exists() and not loaded


def test_report_rerenders_probe_summary_without_drift(tmp_path, capsys):
    cfgp = probe_manifest(tmp_path, {"family": "median_blur", "kernel": 3},
                          runs=3)
    out = tmp_path / "out"
    assert main(["probe", "--config", cfgp, "--checkpoint", VANILLA,
                 "--out", str(out)]) == 0
    rundir = only_dir(out)
    capsys.readouterr()
    assert main(["report", "--dir", str(rundir)]) == 0
    assert "drift 0.00e+00" in capsys.readouterr().out
    summary = (rundir / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("schema=probe_summary_v1")
    stored = dict(line.split(",", 1) for line in summary[1:])
    assert int(stored["runs"]) == 3


def test_report_detects_tampered_rows(tmp_path, capsys):
    cfgp = probe_manifest(tmp_path, {"family": "identity"}, runs=3)
    out = tmp_path / "out"
    assert main(["probe", "--config", cfgp, "--checkpoint", VANILLA,
                 "--out", str(out)]) == 0
    rundir = only_dir(out)
    runs_csv = rundir / "runs.csv"
    lines = runs_csv.read_text().splitlines()
    cols = lines[1].split(",")
    cols[2] = str(float(cols[2]) - 1.0)    # quietly change one score
    lines[1] = ",".join(cols)
    runs_csv.write_text("\n".join(lines) + "\n")
    assert main(["report", "--dir", str(rundir)]) == 2
    assert "disagrees" in capsys.readouterr().err


def test_report_rerenders_sweep_summary(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--config", sweep_manifest(tmp_path),
                 "--out", str(out)]) == 0
    rundir = only_dir(out)
    original = (rundir / "summary.csv").read_text()
    (rundir / "summary.csv").unlink()
    capsys.readouterr()
    assert main(["report", "--dir", str(rundir)]) == 0
    rendered = (rundir / "summary.csv").read_text()
    # sweep and report render the summary from the same raw rows
    assert rendered == original


def test_report_detects_inconsistent_sweep_impacts(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--config", sweep_manifest(tmp_path),
                 "--out", str(out)]) == 0
    rundir = only_dir(out)
    sweep_csv = rundir / "sweep.csv"
    lines = sweep_csv.read_text().splitlines()
    cols = lines[1].split(",")
    cols[7] = str(float(cols[7]) + 0.5)   # one run row's point impact
    lines[1] = ",".join(cols)
    sweep_csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["report", "--dir", str(rundir)]) == 2
    assert "inconsistent impact column" in capsys.readouterr().err


def test_report_rejects_empty_or_missing_dirs(tmp_path, capsys):
    assert main(["report", "--dir", str(tmp_path / "absent")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--dir", str(empty)]) == 2
    assert "nothing to render" in capsys.readouterr().err
    (empty / "sweep.csv").write_text("policy,value\n")
    assert main(["report", "--dir", str(empty)]) == 2
    assert "no schema header" in capsys.readouterr().err


def test_report_names_a_missing_report_txt(tmp_path, capsys):
    cfgp = probe_manifest(tmp_path, {"family": "identity"}, runs=2)
    out = tmp_path / "out"
    assert main(["probe", "--config", cfgp, "--checkpoint", VANILLA,
                 "--out", str(out)]) == 0
    rundir = only_dir(out)
    (rundir / "report.txt").unlink()
    capsys.readouterr()
    assert main(["report", "--dir", str(rundir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(rundir / "report.txt") in err and "missing" in err


def test_report_names_a_report_txt_without_its_clean_score(tmp_path,
                                                           capsys):
    cfgp = probe_manifest(tmp_path, {"family": "identity"}, runs=2)
    out = tmp_path / "out"
    assert main(["probe", "--config", cfgp, "--checkpoint", VANILLA,
                 "--out", str(out)]) == 0
    report_txt = only_dir(out) / "report.txt"
    lines = report_txt.read_text().splitlines(keepends=True)
    report_txt.write_text("".join(line for line in lines
                                  if not line.startswith("score_clean ")))
    capsys.readouterr()
    assert main(["report", "--dir", str(only_dir(out))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(report_txt) in err and "score_clean" in err


def raw_rows_path(tmp_path, command, name):
    """The raw-rows CSV of a fresh identity probe or small sweep."""
    if command == "probe":
        args = ["--config", probe_manifest(tmp_path, {"family": "identity"},
                                           runs=2), "--checkpoint", VANILLA]
    else:
        args = ["--config", sweep_manifest(tmp_path)]
    out = tmp_path / "out"
    assert main([command, *args, "--out", str(out)]) == 0
    return only_dir(out) / name


@pytest.mark.parametrize("command,name", [("probe", "runs.csv"),
                                          ("sweep", "sweep.csv")])
def test_report_names_a_short_row(tmp_path, capsys, command, name):
    path = raw_rows_path(tmp_path, command, name)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]     # drop the last column
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["report", "--dir", str(path.parent)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{path} line 3 has" in err


@pytest.mark.parametrize("command,name", [("probe", "runs.csv"),
                                          ("sweep", "sweep.csv")])
def test_report_refuses_a_csv_without_data_rows(tmp_path, capsys, command,
                                                name):
    """A header alone would render a summary of nans, and a nan drift
    passes the drift check."""
    path = raw_rows_path(tmp_path, command, name)
    path.write_text(path.read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    assert main(["report", "--dir", str(path.parent)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path} has no data rows\n"


@pytest.mark.parametrize("command,name", [("probe", "runs.csv"),
                                          ("sweep", "sweep.csv")])
def test_report_refuses_a_header_with_other_columns(tmp_path, capsys,
                                                    command, name):
    """The columns are read by position, so a header naming other columns
    under the right schema name is refused, not read as the known one."""
    path = raw_rows_path(tmp_path, command, name)
    path.write_text(path.read_text().replace(",score,", ",return,", 1))
    capsys.readouterr()
    assert main(["report", "--dir", str(path.parent)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unexpected schema") and str(path) in err


def test_unknown_command_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit):
        main(["mystery"])
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------------------
# Pinned outputs: sweep, probe and attack bytes that a memo must keep
# ---------------------------------------------------------------------------

POLICIES = {"vanilla": VANILLA,
            "radial": RADIAL,
            "sa-ddqn": str(DATA_DIR / "sa_pixelgrid.txt")}
GRIDS = {"beta": ("brightness_contrast", [0.0, 10.0, 20.0, 30.0, 45.0]),
         "kappa": ("dct_artifacts", [0.0, 0.2, 0.4, 0.6, 0.8])}


def sha(*texts: str) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()[:16]


def sweep_outputs(tmp_path, kind, runs) -> str:
    family, values = GRIDS[kind]
    cfgp = manifest(tmp_path, {"sweep": {
        "family": family, "parameter": kind, "values": values,
        "policies": POLICIES, "runs": runs}}, name=f"sweep_{kind}.json")
    out = tmp_path / f"out_{kind}"
    assert main(["sweep", "--config", cfgp, "--out", str(out)]) == 0
    rundir = only_dir(out)
    return sha((rundir / "sweep.csv").read_text(),
               (rundir / "summary.csv").read_text())


# recorded while the view memo lived for one episode, with the numeric
# stack named in scripts/train_reference_policies.py; a memo that returns
# what a recomputation would keeps every byte
SWEEP_OUTPUTS_DIGESTS = {("beta", 2): "33d09f33c9b26163",
                         ("kappa", 2): "45d711698ba980fa",
                         ("beta", 10): "a58f02ab5908ee15"}


@pytest.mark.parametrize("kind,runs", list(SWEEP_OUTPUTS_DIGESTS),
                         ids=["beta-2", "kappa-2", "beta-10"])
def test_sweep_outputs_match_their_pinned_digest(tmp_path, kind, runs):
    """The benchmark's two grids over the bundled policies, and a 10-run
    brightness grid: sweep.csv and summary.csv."""
    assert sweep_outputs(tmp_path, kind, runs) == \
        SWEEP_OUTPUTS_DIGESTS[(kind, runs)]


FGM_PROBE_RUNS_DIGEST = "c0b645a2e1e095e6"


def test_fgm_probe_runs_match_their_pinned_digest(tmp_path):
    cfgp = probe_manifest(tmp_path, {"method": "fgm", "p": "inf",
                                     "epsilon": 0.05}, runs=4)
    out = tmp_path / "out"
    assert main(["probe", "--config", cfgp, "--checkpoint", VANILLA,
                 "--out", str(out)]) == 0
    assert sha((only_dir(out) / "runs.csv").read_text()) == \
        FGM_PROBE_RUNS_DIGEST


def report_aggregates(text: str) -> str:
    """report.txt up to its config echo, which holds the manifest's paths."""
    return text.split("config_echo:\n", 1)[0]


CW_ROLLOUT_DIGEST = "c32304a282804525"


def test_attack_rollout_outputs_match_their_pinned_digest(tmp_path):
    """Radial policy, C&W at 2/255, five runs, with the rollout report:
    states.csv, runs.csv and the aggregate lines of report.txt."""
    cfgp = probe_manifest(tmp_path, {"method": "cw", "p": "inf",
                                     "epsilon": 2 / 255}, runs=5,
                          rollout=True)
    out = tmp_path / "out"
    assert main(["attack", "--config", cfgp, "--checkpoint", RADIAL,
                 "--out", str(out)]) == 0
    rundir = only_dir(out)
    assert sha((rundir / "states.csv").read_text(),
               (rundir / "runs.csv").read_text(),
               report_aggregates((rundir / "report.txt").read_text())) == \
        CW_ROLLOUT_DIGEST


ROLLOUT_SPECTRUM_DIGEST = "30ffd217567169b9"


def test_rollout_spectrum_outputs_match_their_pinned_digest(tmp_path):
    """Radial rollouts of four seeds, median blur k=3 and FGM at 0.05:
    every band csv and sample image."""
    rundir = rollout_spectrum(tmp_path, [
        {"family": "median_blur", "kernel": 3},
        {"method": "fgm", "p": "inf", "epsilon": 0.05}])
    files = sorted(p for p in rundir.iterdir()
                   if p.name.startswith(("spectrum_", "sample_")))
    assert len(files) == 6
    assert sha(*(p.name + p.read_text() for p in files)) == \
        ROLLOUT_SPECTRUM_DIGEST
