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


def test_labels_name_the_search_settings_off_their_defaults():
    assert atk.AttackSpec(method="cw", epsilon=0.05).label() \
        == "cw[p=inf,eps=0.05]"
    assert atk.AttackSpec(method="cw", p=2.0, epsilon=0.5, cw_iterations=60,
                          cw_binary_steps=4, cw_restarts=2).label() \
        == "cw[p=l2,eps=0.5,iterations=60,binary_steps=4,restarts=2]"
    assert atk.AttackSpec(method="cw", cw_step=0.01, cw_penalty_lo=1e-4,
                          cw_penalty_hi=1e4).label() \
        == "cw[p=inf,eps=0.1,step=0.01,penalty_lo=0.0001,penalty_hi=10000]"
    # fgm never reads the search settings, so its label leaves them out
    assert atk.AttackSpec(cw_restarts=2).label() == "fgm[p=inf,eps=0.1]"


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
    """A constant net keeps its greedy action, and a one-output net has no
    rival to flip to."""
    for bias in ([1.0, 0.0, 0.0], [1.0]):
        net = nn.ParamSet([nn.DenseLayer(np.zeros((len(bias), 4)),
                                         np.array(bias),
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


# ---------------------------------------------------------------------------
# The lockstep search against the sequential one it replaces
# ---------------------------------------------------------------------------

def reference_inner(net, x, a_star, c_pen, spec, grads, x_start, trace=None):
    """One penalty step's descent as C&W ran it before the lockstep, one
    batch-1 forward pass per distinct consecutive iterate. A `trace` list
    receives each iterate's bytes and flip, the final iterate included."""
    x_adv = x_start.copy()
    best, best_dist = None, math.inf
    last_key, last = None, None
    for it in range(spec.cw_iterations + 1):
        key = x_adv.tobytes()
        if key != last_key:
            tape = [] if it < spec.cw_iterations else None
            q = nn.forward(net, x_adv, tape)[-1]
            others = q.copy()
            others[a_star] = -np.inf
            runner = int(others.argmax())
            grad = np.zeros_like(x)
            if tape is not None and q[a_star] - others[runner] > 0.0:
                mkey = (runner, nn.rectifier_patterns(tape)[0])
                if mkey not in grads:
                    gout = np.zeros_like(q)
                    gout[a_star], gout[runner] = 1.0, -1.0
                    grads[mkey] = nn.backprop_batch(net, gout[None], "input",
                                                    tape)[0]
                grad = grads[mkey]
            last_key, last = key, (int(q.argmax()) != a_star, grad)
        flipped, margin_grad = last
        if trace is not None:
            trace.append((key, flipped))
        delta = x_adv - x
        if flipped:
            d = atk.norm_of(delta, spec.p)
            if d < best_dist:
                best, best_dist = x_adv.copy(), d
        if it == spec.cw_iterations:
            return best, best_dist
        step = spec.cw_step * max(0.02, 1.0 - it / spec.cw_iterations)
        if spec.p == 2.0:
            n = atk.norm_of(delta, 2.0)
            dist_grad = np.zeros_like(delta) if n == 0.0 else delta / n
        else:
            dist_grad = delta
        grad = dist_grad + c_pen * margin_grad
        x_adv = x + atk._project((x_adv - step * grad) - x, spec.p,
                                 spec.epsilon)
        x_adv = x_adv.clip(0.0, 1.0)


def reference_cw(net, obs, spec):
    """cw_minimal as it ran before the lockstep: each penalty step's
    descent, then its restarts if it failed, one after another."""
    x = np.asarray(obs, dtype=np.float64) / ql.OBS_SCALE
    a_star = int(nn.forward(net, x)[-1].argmax())
    grads, best, best_dist = {}, None, math.inf
    lo, hi = spec.cw_penalty_lo, spec.cw_penalty_hi
    c_pen = math.sqrt(lo * hi)
    for _ in range(spec.cw_binary_steps):
        cand, dist = reference_inner(net, x, a_star, c_pen, spec, grads, x)
        if cand is None:
            for k in range(1, spec.cw_restarts + 1):
                r_cand, r_dist = reference_inner(net, x, a_star, c_pen, spec,
                                                 grads,
                                                 atk._restart_point(x, spec, k))
                if r_cand is not None and r_dist < best_dist:
                    best, best_dist = r_cand, r_dist
        if cand is not None:
            if dist < best_dist:
                best, best_dist = cand, dist
            hi = c_pen
        else:
            lo = c_pen
        c_pen = math.sqrt(lo * hi)
    if best is None:
        return atk.AttackResult(np.asarray(obs, dtype=np.float64).copy(),
                                math.inf, False)
    return atk.AttackResult(best * ql.OBS_SCALE, best_dist, True)


def first_states(path, count):
    ck, _ = cp.load_checkpoint(path)
    env, states = make_env(ck.env_spec), []
    obs = env.reset(0)
    for _ in range(count):
        states.append(obs)
        obs = env.step(ql.greedy_action(ck.params, obs)).observation
    return ck.params, states


SEARCHES = [  # p, restarts, iterations, binary steps
    (math.inf, 0, 15, 8), (math.inf, 2, 15, 11), (math.inf, 0, 50, 11),
    (2.0, 0, 50, 8), (2.0, 2, 15, 3), (2.0, 0, 15, 11), (2.0, 3, 15, 8)]


@pytest.mark.parametrize("p,restarts,iterations,steps", SEARCHES)
def test_cw_is_byte_equal_to_the_sequential_search(p, restarts, iterations,
                                                  steps, monkeypatch):
    """Same view, distance and success bytes as the sequential search, on
    states of the bundled policies and of small dense nets, at radii where
    the search fails, succeeds early and succeeds late; eleven steps take
    two lockstep descents. Some cases have a margin bound that certifies
    them, so C&W skips its search there: the sequential search has no such
    shortcut."""
    bound, skipped = nn.margin_lower_bounds, []

    def record_skip(*args):
        bounds = bound(*args)
        skipped.append(bool((bounds > atk.BOUND_SLACK).all()))
        return bounds

    monkeypatch.setattr(nn, "margin_lower_bounds", record_skip)
    cases = []
    for name in ("vanilla", "radial"):
        net, states = first_states(DATA_DIR / f"{name}_pixelgrid.txt", 3)
        cases += [(net, obs) for obs in states]
    cases += [(dense_net(seed), np.random.default_rng(900 + seed).uniform(
        0, 255, size=10)) for seed in range(3)]
    radii = (1e-3, 2 / 255, 0.05) if math.isinf(p) else (0.05, 0.5)
    outcomes = set()
    for net, obs in cases:
        for eps in radii:
            spec = atk.AttackSpec(method="cw", p=p, epsilon=eps,
                                  cw_iterations=iterations,
                                  cw_binary_steps=steps, cw_restarts=restarts)
            got, want = atk.cw_minimal(net, obs, spec), reference_cw(net, obs,
                                                                     spec)
            assert got.observation.tobytes() == want.observation.tobytes()
            assert np.float64(got.distance).tobytes() \
                == np.float64(want.distance).tobytes()
            assert got.success == want.success
            outcomes.add(got.success)
    assert outcomes == {False, True}
    assert any(skipped)


def certify_nothing(monkeypatch):
    """Force C&W's search: the margin bound certifies no state."""
    monkeypatch.setattr(nn, "margin_lower_bounds",
                        lambda net, lo, hi, a_star: np.array([-np.inf]))


def record_rows(monkeypatch, record):
    """Hand record(xs, tape, outs) every forward_rows call."""
    forward_rows = nn.forward_rows

    def recording(net, xs, tape=None):
        outs = forward_rows(net, xs, tape)
        record(xs, tape, outs)
        return outs

    monkeypatch.setattr(nn, "forward_rows", recording)


def test_cw_runs_one_backward_per_runner_and_mask_pattern(radial_checkpoint,
                                                          monkeypatch):
    """C&W's margin gradient depends only on the runner-up action and the
    rectifier masks, so one call runs one backward pass per distinct
    (runner, masks) key among the open-margin iterates of its descent
    rows, and no more. The margin bound certifies this state, so the
    search is forced to run."""
    ck, _ = radial_checkpoint
    env = make_env(ck.env_spec)
    obs = env.reset(0)
    for _ in range(3):
        obs = env.step(ql.greedy_action(ck.params, obs)).observation
    a_star = ql.greedy_action(ck.params, obs)
    spec = atk.AttackSpec(method="cw", epsilon=2 / 255)
    box = ql.input_box(obs / ql.OBS_SCALE, spec.epsilon)
    assert (nn.margin_lower_bounds(ck.params, *box, a_star)
            > atk.BOUND_SLACK).all()
    certify_nothing(monkeypatch)
    keys, backwards = set(), [0]
    backprop = nn.backprop_batch

    def record_keys(xs, tape, outs):
        if tape is not None:
            for q, pattern in zip(outs[-1].copy(),
                                  nn.rectifier_patterns(tape)):
                top, q[a_star] = q[a_star], -np.inf
                runner = int(np.argmax(q))
                if top - q[runner] > 0.0:
                    keys.add((runner, pattern))

    def count_backward(*args):
        backwards[0] += 1
        return backprop(*args)

    record_rows(monkeypatch, record_keys)
    monkeypatch.setattr(nn, "backprop_batch", count_backward)
    atk.cw_minimal(ck.params, obs, spec)
    assert len(keys) > 1
    assert backwards[0] == len(keys)
    assert 10 * backwards[0] < spec.cw_binary_steps * spec.cw_iterations


def test_cw_runs_one_forward_per_distinct_consecutive_iterate(
        radial_checkpoint, monkeypatch):
    """A stalled descent step gives back a row's iterate byte for byte,
    and C&W reuses that row's forward pass. So each row evaluates its
    iterates (the start, then one per step) with byte-equal neighbours
    merged, after the one clean pass that finds the greedy action. At
    radius 5e-4 the margin bound certifies radial's first clean state, so
    that pass is the only one. With the bound certifying nothing, every
    step fails there, so its eight steps run as the eight rows of one
    descent, and they stall often."""
    ck, _ = radial_checkpoint
    obs = harness.probe_episode(ck.params, ck.env_spec, harness.IDENTITY,
                                0)[3][0][0]
    x = np.asarray(obs, dtype=np.float64) / ql.OBS_SCALE
    spec = atk.AttackSpec(method="cw", epsilon=5e-4)
    passes = []
    with monkeypatch.context() as m:
        record_rows(m, lambda xs, tape, outs: passes.append("forward_rows"))
        m.setattr(nn, "backprop_batch",
                  lambda *args: passes.append("backprop_batch"))
        atk.cw_minimal(ck.params, obs, spec)
    assert passes == ["forward_rows"]
    certify_nothing(monkeypatch)
    project, evaluated, steps = atk._project, [], []

    def record_step(delta, p, eps):   # the rows' own next iterates
        out = project(delta, p, eps)
        steps.append([(x + row).clip(0.0, 1.0).tobytes() for row in out])
        return out

    record_rows(monkeypatch, lambda xs, tape, outs: evaluated.extend(
        row.tobytes() for row in xs))
    monkeypatch.setattr(atk, "_project", record_step)
    result = atk.cw_minimal(ck.params, obs, spec)
    n = spec.cw_iterations
    assert len(steps) == n
    assert sum(map(len, steps)) == spec.cw_binary_steps * n
    rows = [[x.tobytes()] + [s[r] for s in steps]
            for r in range(spec.cw_binary_steps)]
    expected, merged = [x.tobytes()], 0
    for it in range(n + 1):
        for iterates in rows:
            if it and iterates[it] == iterates[it - 1]:
                merged += 1
            else:
                expected.append(iterates[it])
    assert merged > sum(map(len, steps)) // 2
    assert not result.success    # else one more pass verifies the flip
    assert evaluated == expected


def test_rows_past_the_first_flipped_row_are_never_evaluated_again(
        vanilla_checkpoint, monkeypatch):
    """Row (r, k) of a descent is penalty step r from start k (k = 0 the
    clean start, then the seeded restarts), guessed to follow r failed
    steps. Once a clean row has a flipped iterate, its step succeeds and
    every later row, its own restarts included, is off the search's path:
    no later forward pass evaluates them. A restart row's flip drops
    nothing. Each descent's forward passes are rebuilt here from the
    sequential descents of its rows: every call evaluates exactly the kept
    rows whose iterate changed."""
    params, states = first_states(DATA_DIR / "vanilla_pixelgrid.txt", 3)
    descend, calls, descents = atk._descend, [], []

    def record_descent(net, x, a_star, pens, spec, grads, starts):
        first = len(calls)
        out = descend(net, x, a_star, pens, spec, grads, starts)
        descents.append((x, a_star, list(pens), starts, calls[first:]))
        return out

    record_rows(monkeypatch, lambda xs, tape, outs: calls.append(
        [row.tobytes() for row in xs]))
    monkeypatch.setattr(atk, "_descend", record_descent)
    for restarts in (0, 2):
        spec = atk.AttackSpec(method="cw", epsilon=2 / 255,
                              cw_restarts=restarts)
        descents.clear()
        for obs in states:
            atk.cw_minimal(params, obs, spec)
        dropped = kept_past_restart_flips = 0
        for x, a_star, pens, starts, got in descents:
            assert len(starts) == 1 + restarts
            assert starts[0].tobytes() == x.tobytes()
            traces = []
            for c_pen in pens:
                for start in starts:
                    traces.append([])
                    reference_inner(params, x, a_star, c_pen, spec, {}, start,
                                    traces[-1])
            kept, prev, want = len(traces), [None] * len(traces), []
            for it in range(spec.cw_iterations + 1):
                rows = [r for r in range(kept) if traces[r][it][0] != prev[r]]
                for r in rows:
                    prev[r] = traces[r][it][0]
                if rows:
                    want.append([traces[r][it][0] for r in rows])
                flipped = [r for r in range(kept)
                           if any(f for _, f in traces[r][:it + 1])]
                clean = [r for r in flipped if r % len(starts) == 0]
                if clean and clean[0] + 1 < kept:
                    kept = clean[0] + 1
                    dropped += it < spec.cw_iterations
                kept_past_restart_flips += any(
                    r % len(starts) and r + 1 < kept for r in flipped)
            assert got == want
        assert dropped > 0   # some descent dropped rows with steps to go
        assert kept_past_restart_flips > 0 or not restarts


def test_one_descent_runs_every_failing_step_and_its_restarts(
        radial_checkpoint, monkeypatch):
    """At radius 5e-4 every step fails on radial's first clean state (the
    margin bound, which certifies it, is made to certify nothing). With no
    more steps than CW_ROWS and two restarts, the whole search is one
    descent whose rows are the steps times their three starts."""
    certify_nothing(monkeypatch)
    ck, _ = radial_checkpoint
    obs = harness.probe_episode(ck.params, ck.env_spec, harness.IDENTITY,
                                0)[3][0][0]
    spec = atk.AttackSpec(method="cw", epsilon=5e-4, cw_iterations=20,
                          cw_restarts=2)
    assert spec.cw_binary_steps <= atk.CW_ROWS
    descend, descents, widths = atk._descend, [], []

    def record_descent(*args):
        widths.clear()
        out = descend(*args)
        descents.append((len(out), list(widths)))
        return out

    monkeypatch.setattr(atk, "_descend", record_descent)
    record_rows(monkeypatch, lambda xs, tape, outs: widths.append(len(xs)))
    assert not atk.cw_minimal(ck.params, obs, spec).success
    (kept, passes), = descents
    # the first pass evaluates every row, and none is dropped
    assert passes[0] == kept == spec.cw_binary_steps * 3


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
