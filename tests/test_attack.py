"""Gradient attacks: ball constraints, closed-form minimal distances on
linear policies, and honesty of the success flag."""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from policyprobe import attack as atk
from policyprobe import checkpoint as cp
from policyprobe import harness, nn
from policyprobe import qlearning as ql
from policyprobe.envs import make_env

from conftest import DATA_DIR
from test_nn import dense_net


def linear_two_action_net():
    """Q0 = x0 + x1 - 0.6, Q1 = 0 on the [0, 1] input scale.

    At x = (0.5, 0.3) the margin is 0.2; the closest L2 flip sits at
    distance 0.2/sqrt(2), the closest Linf flip at 0.2/2.
    """
    w = np.array([[1.0, 1.0], [0.0, 0.0]])
    b = np.array([-0.6, 0.0])
    return nn.ParamSet([nn.DenseLayer(w, b, activation="identity")])


LINEAR_OBS = np.array([127.5, 76.5])  # x = (0.5, 0.3) after scaling


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------

def test_spec_rejects_bad_settings():
    with pytest.raises(ValueError):
        atk.AttackSpec(method="pgd")
    with pytest.raises(ValueError):
        atk.AttackSpec(p=1.0)
    with pytest.raises(ValueError):
        atk.AttackSpec(epsilon=-0.1)
    with pytest.raises(ValueError):
        atk.AttackSpec(method="cw", epsilon=0.0)
    with pytest.raises(ValueError):
        atk.AttackSpec(cw_penalty_lo=1.0, cw_penalty_hi=0.5)
    with pytest.raises(ValueError):
        atk.AttackSpec(cw_iterations=0)
    # zero radius is legal for the single-step method only
    atk.AttackSpec(method="fgm", epsilon=0.0)


# ---------------------------------------------------------------------------
# Norms and projection
# ---------------------------------------------------------------------------

def test_norms_and_projection():
    d = np.array([3.0, -4.0])
    assert atk.norm_of(d, 2.0) == 5.0
    assert atk.norm_of(d, math.inf) == 4.0
    proj = atk._project(d, 2.0, 1.0)
    assert abs(atk.norm_of(proj, 2.0) - 1.0) < 1e-12
    assert np.allclose(proj, d / 5.0)
    proj = atk._project(d, math.inf, 2.0)
    assert np.array_equal(proj, [2.0, -2.0])
    inside = np.array([0.1, -0.2])
    assert np.array_equal(atk._project(inside, 2.0, 1.0), inside)
    assert np.array_equal(atk._project(inside, math.inf, 0.5), inside)


# ---------------------------------------------------------------------------
# Single-step attack
# ---------------------------------------------------------------------------

def test_fgm_zero_radius_returns_input():
    net = dense_net(0)
    obs = np.linspace(10, 240, 10)
    res = atk.fgm(net, obs, atk.AttackSpec(method="fgm", epsilon=0.0))
    assert np.array_equal(res.observation, obs)
    assert res.distance == 0.0
    assert res.success is False


def test_fgm_respects_ball_and_pixel_range():
    for seed in range(5):
        net = dense_net(seed)
        rng = np.random.default_rng(seed)
        obs = rng.uniform(0, 255, size=10)
        for p in (2.0, math.inf):
            spec = atk.AttackSpec(method="fgm", p=p, epsilon=0.05)
            res = atk.fgm(net, obs, spec)
            delta = res.observation / 255.0 - obs / 255.0
            assert atk.norm_of(delta, p) <= 0.05 + 1e-12
            assert res.observation.min() >= 0.0
            assert res.observation.max() <= 255.0


def test_fgm_inf_step_saturates_radius_in_interior():
    net = dense_net(1)
    obs = np.full(10, 128.0)  # far from both clip rails
    spec = atk.AttackSpec(method="fgm", p=math.inf, epsilon=0.01)
    res = atk.fgm(net, obs, spec)
    assert abs(res.distance - 0.01) < 1e-12


def test_fgm_does_not_decrease_surrogate_loss():
    def loss(net, x):
        q = nn.forward(net, x)[-1]
        a = int(np.argmax(q))
        z = q - q.max()
        return float(np.log(np.exp(z).sum()) - z[a])

    for seed in range(5):
        net = dense_net(seed)
        rng = np.random.default_rng(100 + seed)
        obs = rng.uniform(40, 215, size=10)
        res = atk.fgm(net, obs, atk.AttackSpec(method="fgm", p=2.0,
                                               epsilon=1e-3))
        before = loss(net, obs / 255.0)
        after = loss(net, res.observation / 255.0)
        assert after >= before - 1e-10


def test_fgm_flip_flag_matches_actions():
    net = linear_two_action_net()
    # big enough radius to cross the margin: flips and says so
    res = atk.fgm(net, LINEAR_OBS, atk.AttackSpec(method="fgm", p=2.0,
                                                  epsilon=0.3))
    a0 = int(np.argmax(nn.forward(net, LINEAR_OBS / 255.0)[-1]))
    a1 = int(np.argmax(nn.forward(net, res.observation / 255.0)[-1]))
    assert res.success == (a0 != a1)
    assert res.success


# ---------------------------------------------------------------------------
# Minimal-distance attack
# ---------------------------------------------------------------------------

def test_cw_matches_linear_closed_form_l2():
    net = linear_two_action_net()
    spec = atk.AttackSpec(method="cw", p=2.0, epsilon=0.5)
    res = atk.cw_minimal(net, LINEAR_OBS, spec)
    ideal = 0.2 / math.sqrt(2.0)
    assert res.success
    assert ideal <= res.distance <= 1.05 * ideal
    # the reported point really flips the action
    q = nn.forward(net, res.observation / 255.0)[-1]
    assert int(np.argmax(q)) == 1


def test_cw_matches_linear_closed_form_linf():
    net = linear_two_action_net()
    spec = atk.AttackSpec(method="cw", p=math.inf, epsilon=0.5)
    res = atk.cw_minimal(net, LINEAR_OBS, spec)
    ideal = 0.2 / 2.0
    assert res.success
    assert ideal - 1e-9 <= res.distance <= 1.10 * ideal


def test_cw_cannot_flip_constant_policy():
    net = nn.ParamSet([nn.DenseLayer(np.zeros((3, 4)),
                                     np.array([1.0, 0.0, 0.0]),
                                     activation="identity")])
    res = atk.cw_minimal(net, np.full(4, 100.0),
                         atk.AttackSpec(method="cw", epsilon=0.3))
    assert res.success is False
    assert res.distance == math.inf
    assert np.array_equal(res.observation, np.full(4, 100.0))


def test_cw_respects_ball_and_is_deterministic():
    net = dense_net(2)
    rng = np.random.default_rng(7)
    obs = rng.uniform(0, 255, size=10)
    spec = atk.AttackSpec(method="cw", p=2.0, epsilon=0.4)
    a = atk.cw_minimal(net, obs, spec)
    b = atk.cw_minimal(net, obs, spec)
    assert a.success == b.success
    if a.success:
        assert np.array_equal(a.observation, b.observation)
        assert a.distance == b.distance
        assert a.distance <= 0.4 + 1e-9
        assert a.observation.min() >= 0.0 and a.observation.max() <= 255.0


def test_cw_beats_random_flip_search():
    """The found distance is never worse than a random-sampling baseline."""
    for seed in range(3):
        net = dense_net(seed)
        rng = np.random.default_rng(500 + seed)
        obs = rng.uniform(30, 225, size=10)
        x = obs / 255.0
        a_star = int(np.argmax(nn.forward(net, x)[-1]))
        spec = atk.AttackSpec(method="cw", p=2.0, epsilon=0.5)
        res = atk.cw_minimal(net, obs, spec)
        best_random = math.inf
        for _ in range(2000):
            d = rng.normal(size=10)
            d *= rng.uniform(0, 0.5) / atk.norm_of(d, 2.0)
            x_try = np.clip(x + d, 0.0, 1.0)
            if int(np.argmax(nn.forward(net, x_try)[-1])) != a_star:
                best_random = min(best_random,
                                  atk.norm_of(x_try - x, 2.0))
        if best_random < math.inf:
            assert res.success
            assert res.distance <= best_random + 1e-9


def test_cw_restarts_never_hurt_and_stay_deterministic():
    """Restarts add candidate starts for stalled descents; they must not
    worsen any result, leave the ball, or break determinism."""
    with pytest.raises(ValueError):
        atk.AttackSpec(cw_restarts=-1)
    for seed in range(4):
        net = dense_net(seed)
        obs = np.random.default_rng(900 + seed).uniform(0, 255, size=10)
        plain = atk.cw_minimal(net, obs,
                               atk.AttackSpec(method="cw", p=2.0,
                                              epsilon=0.4))
        spec = atk.AttackSpec(method="cw", p=2.0, epsilon=0.4, cw_restarts=3)
        a = atk.cw_minimal(net, obs, spec)
        b = atk.cw_minimal(net, obs, spec)
        assert a.success == b.success and a.distance == b.distance
        if plain.success:
            assert a.success
            assert a.distance <= plain.distance + 1e-12
        if a.success:
            assert a.distance <= 0.4 + 1e-9
            assert a.observation.min() >= 0.0
            assert a.observation.max() <= 255.0


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def test_run_attack_dispatch():
    net = linear_two_action_net()
    fa = atk.run_attack(net, LINEAR_OBS, atk.AttackSpec(method="fgm",
                                                        epsilon=0.1))
    fb = atk.fgm(net, LINEAR_OBS, atk.AttackSpec(method="fgm", epsilon=0.1))
    assert np.array_equal(fa.observation, fb.observation)
    ca = atk.run_attack(net, LINEAR_OBS, atk.AttackSpec(method="cw",
                                                        epsilon=0.5, p=2.0))
    assert ca.success


def test_attacks_form_no_parameter_gradient(vanilla_checkpoint,
                                            monkeypatch):
    """Attacks consume the observation gradient only: no kernel gradient
    and no parameter-gradient container, while the input gradient still
    reaches the observation."""
    ck, _ = vanilla_checkpoint
    obs = make_env(ck.env_spec).reset(0).astype(np.float64)
    calls = {"kernel": 0, "zeros": 0, "obs_input": 0}
    kernel_grad, zeros_like = nn.conv2d_kernel_grad, nn.ParamSet.zeros_like
    input_grad = nn.conv2d_input_grad

    def count_kernel(*args):
        calls["kernel"] += 1
        return kernel_grad(*args)

    def count_zeros(self):
        calls["zeros"] += 1
        return zeros_like(self)

    def count_input(gout, kernel, stride, pad, in_h, in_w):
        if (in_h, in_w) == obs.shape[:2]:
            calls["obs_input"] += 1
        return input_grad(gout, kernel, stride, pad, in_h, in_w)

    monkeypatch.setattr(nn, "conv2d_kernel_grad", count_kernel)
    monkeypatch.setattr(nn.ParamSet, "zeros_like", count_zeros)
    monkeypatch.setattr(nn, "conv2d_input_grad", count_input)
    atk.fgm(ck.params, obs, atk.AttackSpec(method="fgm", epsilon=2 / 255))
    atk.cw_minimal(ck.params, obs, atk.AttackSpec(
        method="cw", epsilon=2 / 255, cw_iterations=20, cw_binary_steps=2))
    assert calls["kernel"] == 0 and calls["zeros"] == 0
    assert calls["obs_input"] >= 2


def test_cw_runs_one_backward_per_runner_and_mask_pattern(radial_checkpoint,
                                                          monkeypatch):
    """C&W's margin gradient depends only on the runner-up action and the
    rectifier masks, so one call runs one backward pass per distinct
    (runner, masks) key among its open-margin iterates, and no more."""
    ck, _ = radial_checkpoint
    env = make_env(ck.env_spec)
    obs = env.reset(0)
    for _ in range(3):
        obs = env.step(ql.greedy_action(ck.params, obs)).observation
    a_star = ql.greedy_action(ck.params, obs)
    keys, backwards = set(), [0]
    forward, backprop = nn.forward, nn.backprop_batch

    def record_key(net, x, tape=None):
        outs = forward(net, x, tape)
        if tape is not None:
            q = outs[-1].copy()
            top, q[a_star] = q[a_star], -np.inf
            runner = int(np.argmax(q))
            if top - q[runner] > 0.0:
                keys.add((runner, nn.rectifier_pattern(tape)))
        return outs

    def count_backward(*args):
        backwards[0] += 1
        return backprop(*args)

    monkeypatch.setattr(nn, "forward", record_key)
    monkeypatch.setattr(nn, "backprop_batch", count_backward)
    spec = atk.AttackSpec(method="cw", epsilon=2 / 255)
    atk.cw_minimal(ck.params, obs, spec)
    assert len(keys) > 1
    assert backwards[0] == len(keys)
    assert 10 * backwards[0] < spec.cw_binary_steps * spec.cw_iterations


def test_cw_runs_one_forward_per_distinct_consecutive_iterate(
        radial_checkpoint, monkeypatch):
    """A stalled descent step gives back its iterate byte for byte, and C&W
    reuses that iterate's forward pass. So each descent evaluates its
    iterates (the start, then one per step) with byte-equal neighbours
    merged, after the one clean pass that finds the greedy action. At
    radius 5e-4 the descents on radial's first clean state stall often."""
    ck, _ = radial_checkpoint
    obs = harness.probe_episode(ck.params, ck.env_spec, harness.IDENTITY,
                                0)[3][0][0]
    x = np.asarray(obs, dtype=np.float64) / ql.OBS_SCALE
    spec = atk.AttackSpec(method="cw", epsilon=5e-4)
    forward, project = nn.forward, atk._project
    evaluated, steps = [], []

    def record_forward(net, x_eval, tape=None):
        evaluated.append(x_eval.tobytes())
        return forward(net, x_eval, tape)

    def record_step(delta, p, eps):   # the descent's own next iterate
        out = project(delta, p, eps)
        steps.append((x + out).clip(0.0, 1.0).tobytes())
        return out

    monkeypatch.setattr(nn, "forward", record_forward)
    monkeypatch.setattr(atk, "_project", record_step)
    result = atk.cw_minimal(ck.params, obs, spec)
    n = spec.cw_iterations
    assert len(steps) == spec.cw_binary_steps * n
    expected, merged = [x.tobytes()], 0
    for k in range(0, len(steps), n):
        iterates = [x.tobytes()] + steps[k:k + n]
        for prev, cur in zip([None] + iterates, iterates):
            if cur == prev:
                merged += 1
            else:
                expected.append(cur)
    assert merged > len(steps) // 2
    assert not result.success    # else one more pass verifies the flip
    assert evaluated == expected


# ---------------------------------------------------------------------------
# Pinned outputs on the bundled policies
# ---------------------------------------------------------------------------

def attack_outputs() -> bytes:
    """FGM and C&W views, distances and success flags, and certificates,
    on the first three states of episodes 0 and 5 of the vanilla and
    radial references."""
    out = []
    for name in ("vanilla", "radial"):
        ck, _ = cp.load_checkpoint(DATA_DIR / f"{name}_pixelgrid.txt")
        env = make_env(ck.env_spec)
        for seed in (0, 5):
            obs = env.reset(seed)
            for _ in range(3):
                for spec in (atk.AttackSpec(method="fgm", epsilon=0.05),
                             atk.AttackSpec(method="fgm", p=2.0, epsilon=0.5),
                             atk.AttackSpec(method="cw", epsilon=0.05,
                                            cw_iterations=60,
                                            cw_binary_steps=4)):
                    res = atk.run_attack(ck.params, obs, spec)
                    out += [res.observation.tobytes(),
                            np.float64(res.distance).tobytes(),
                            bytes([res.success])]
                out += [bytes([ql.certified(ck.params, obs, eps)])
                        for eps in (1e-4, 1e-3)]
                obs = env.step(ql.greedy_action(ck.params, obs)).observation
    return b"".join(out)


# as measured with the numeric stack named in
# scripts/train_reference_policies.py at 1 and 2 BLAS threads; a change to
# the gradient path that keeps every bit keeps it
ATTACK_OUTPUTS_DIGEST = "e9d982dd34be70f8"


def test_attack_outputs_match_their_pinned_digest():
    digest = hashlib.sha256(attack_outputs()).hexdigest()[:16]
    assert digest == ATTACK_OUTPUTS_DIGEST


def default_cw_outputs() -> bytes:
    """Default-settings C&W views, distances and success flags at the
    attack benchmark's radii on the first three states of episode 0, and
    L2 C&W with two seeded restarts on the first two, of the vanilla and
    radial references."""
    out = []
    for name, radii in (("vanilla", (1e-3, 2 / 255)),
                        ("radial", (5e-4, 2 / 255))):
        ck, _ = cp.load_checkpoint(DATA_DIR / f"{name}_pixelgrid.txt")
        env = make_env(ck.env_spec)
        obs = env.reset(0)
        for i in range(3):
            specs = [atk.AttackSpec(method="cw", epsilon=eps) for eps in radii]
            if i < 2:
                specs.append(atk.AttackSpec(method="cw", p=2.0, epsilon=0.05,
                                            cw_restarts=2))
            for spec in specs:
                res = atk.cw_minimal(ck.params, obs, spec)
                out += [res.observation.tobytes(),
                        np.float64(res.distance).tobytes(),
                        bytes([res.success])]
            obs = env.step(ql.greedy_action(ck.params, obs)).observation
    return b"".join(out)


# recorded before C&W memoized its margin gradient, with the numeric stack
# named in scripts/train_reference_policies.py; the memo keeps every bit
DEFAULT_CW_OUTPUTS_DIGEST = "da6a26298a392ac2"


def test_default_cw_outputs_match_their_pinned_digest():
    digest = hashlib.sha256(default_cw_outputs()).hexdigest()[:16]
    assert digest == DEFAULT_CW_OUTPUTS_DIGEST
