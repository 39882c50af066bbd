"""The benchmark's checks must bite: each is fed a planted fault.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from policyprobe import attack, envs, harness, qlearning  # noqa: E402
from policyprobe import checkpoint as cp  # noqa: E402

SPEC = envs.make_spec("pixelgrid", size=8, seed=0)
EPS = 2 / 255


@pytest.fixture(scope="module")
def vanilla():
    ck, _ = cp.load_checkpoint(ROOT / "tests" / "data" /
                               "vanilla_pixelgrid.txt")
    return ck.params


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep(score_fault: float = 0.0, impact_fault: float = 0.0):
    """A two-point sweep.csv of one policy as the CLI writes it: the
    identity point at beta 0 and a point where seed 0 hits the step cap."""
    clean = [checks.best_return(SPEC, s) for s in (0, 1)]
    scores = {0.0: list(clean), 10.0: [SPEC.score_min, clean[1]]}
    scores[10.0][1] += score_fault
    lines = [cp.SWEEP_CSV_HEADER]
    for value, runs in scores.items():
        mean = float(np.mean(runs))
        impact = harness.impact(float(np.mean(clean)), mean, SPEC.score_min)
        for seed, score in enumerate(runs):
            lines.append(f"p,beta,{value:.17g},{seed},{seed},{score:.17g},"
                         f"{0.0 if value == 0 else 0.01:.17g},"
                         f"{impact + (impact_fault if value else 0):.17g}")
    expected = {("p", v, s): score for v, runs in scores.items()
                for s, score in enumerate(runs)}
    rows = checks.parse_sweep_csv("\n".join(lines) + "\n")
    return rows, expected, {"p": clean}


def test_sweep_rows_pass_when_right():
    rows, expected, clean = _sweep()
    checks.check_sweep_rows(rows, SPEC, expected, clean, 0.0)


def test_sweep_score_above_the_oracle_fails():
    rows, expected, clean = _sweep(score_fault=0.01)
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_sweep_rows(rows, SPEC, expected, clean, 0.0)


def test_sweep_stored_impact_drift_fails():
    rows, expected, clean = _sweep(impact_fault=1e-9)
    with pytest.raises(checks.CheckFailed, match="stored impact"):
        checks.check_sweep_rows(rows, SPEC, expected, clean, 0.0)


def test_sweep_score_unlike_own_rollout_fails():
    rows, expected, clean = _sweep()
    expected[("p", 10.0, 0)] = clean["p"][0]
    with pytest.raises(checks.CheckFailed, match="own rollout"):
        checks.check_sweep_rows(rows, SPEC, expected, clean, 0.0)


def test_best_return_is_the_exact_score_of_a_shortest_path():
    for seed in range(20):
        exact = checks.best_return(SPEC, seed)
        assert abs(exact - envs.oracle_return(SPEC, seed)) <= 1e-15
        assert SPEC.score_min < exact <= SPEC.score_max


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------

def _state():
    return envs.make_env(SPEC).reset(0).astype(np.float64)


def test_real_attacks_pass(vanilla):
    obs = _state()
    spec = attack.AttackSpec(method="fgm", epsilon=EPS)
    checks.check_attack(vanilla, obs, attack.fgm(vanilla, obs, spec), EPS,
                        minimal=False)
    checks.check_attack(vanilla, obs,
                        attack.AttackResult(obs.copy(), math.inf, False),
                        EPS, minimal=True)


def test_success_outside_its_ball_fails(vanilla):
    obs = _state()
    adv = obs.copy()
    adv[0, 0, 0] += 2 * EPS * 255.0          # a floor pixel, so still in range
    result = attack.AttackResult(adv, 2 * EPS, True)
    with pytest.raises(checks.CheckFailed, match="outside the ball"):
        checks.check_attack(vanilla, obs, result, EPS, minimal=True)


def test_success_with_unchanged_action_fails(vanilla):
    obs = _state()
    result = attack.AttackResult(obs.copy(), 0.0, True)
    with pytest.raises(checks.CheckFailed, match="did not change"):
        checks.check_attack(vanilla, obs, result, EPS, minimal=True)


def test_failure_that_moves_the_input_fails(vanilla):
    obs = _state()
    adv = obs.copy()
    adv[0, 0, 0] += 1.0
    result = attack.AttackResult(adv, math.inf, False)
    with pytest.raises(checks.CheckFailed, match="infinite distance"):
        checks.check_attack(vanilla, obs, result, EPS, minimal=True)


def test_flipped_certified_state_fails():
    flipped = attack.AttackResult(_state(), 0.001, True)
    held = attack.AttackResult(_state(), math.inf, False)
    checks.check_certified(True, [held])
    checks.check_certified(False, [flipped])
    with pytest.raises(checks.CheckFailed, match="certified"):
        checks.check_certified(True, [held, flipped])


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _trained(vanilla, curve):
    config = qlearning.TrainConfig(total_steps=10)
    ck = qlearning.Checkpoint(vanilla.copy(), SPEC, config, curve, 10)
    return ck, config


def test_trained_checkpoint_checks(vanilla):
    best = checks.best_return(SPEC, qlearning.TRAIN_EPISODE_SEED_BASE)
    ck, config = _trained(vanilla, [(0, best)])
    checks.check_trained(ck, config, SPEC, qlearning.TRAIN_EPISODE_SEED_BASE)
    ck.curve = [(0, best + 1e-9)]
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_trained(ck, config, SPEC,
                             qlearning.TRAIN_EPISODE_SEED_BASE)
    ck.curve = [(0, best)]
    ck.params.layers[0].bias[0] = np.nan
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_trained(ck, config, SPEC,
                             qlearning.TRAIN_EPISODE_SEED_BASE)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_per_layer_list_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracer_mod.PER_LAYER


def test_tracer_wraps_names_imported_elsewhere_and_restores(vanilla):
    originals = (qlearning.greedy_action, harness.greedy_action)
    tr = tracer_mod.Tracer(SPEC.obs_shape[:2])
    obs = envs.make_env(SPEC).reset(0)
    tr.install()
    try:
        harness.greedy_action(vanilla, obs)
        harness.greedy_action(vanilla, obs)
        qlearning.greedy_action(vanilla, obs + 1)
    finally:
        tr.remove()
    assert (qlearning.greedy_action, harness.greedy_action) == originals
    row = tr.table(rounds=1)["qlearning.greedy_action"]
    assert row["calls"] == 3 and row["distinct_frac"] == pytest.approx(2 / 3)
    assert tr.table(rounds=1)["nn.forward_batch"]["rows"] == 3
