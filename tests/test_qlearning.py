"""Training machinery: replay math, Double-DQN targets, the certified
regularizers against spec'd arithmetic and Monte-Carlo inner maximization,
and gradient correctness away from kinks."""

import numpy as np
import pytest

from policyprobe import nn
from policyprobe import qlearning as ql
from policyprobe.envs import make_spec
from tests.test_nn import dense_net


def obs_like(rng, spec):
    return rng.integers(0, 256, size=spec.obs_shape).astype(np.uint8)


def tiny_transitions(rng, spec, n):
    """n random (s, a, r, s_next, terminal) tuples, as push takes them."""
    out = []
    for _ in range(n):
        out.append((obs_like(rng, spec), int(rng.integers(4)),
                    float(rng.normal()), obs_like(rng, spec),
                    bool(rng.random() < 0.2)))
    return out


def stacked(transitions):
    """The batch arrays ReplayBuffer.sample returns for these rows."""
    s, a, r, s_next, term = zip(*transitions)
    return (np.stack(s) / ql.OBS_SCALE, np.array(a), np.array(r),
            np.stack(s_next) / ql.OBS_SCALE, np.array(term))


# ---------------------------------------------------------------------------
# Replay buffer
# ---------------------------------------------------------------------------

def test_replay_probabilities_match_spec_example(pixelgrid_spec, rng):
    buf = ql.ReplayBuffer(10, alpha_pr=1.0, beta_is=1.0,
                          priority_floor=1e-12, seed=0)
    t = tiny_transitions(rng, pixelgrid_spec, 2)
    buf.push(*t[0])
    buf.push(*t[1])
    buf.update_priorities(np.array([0, 1]), np.array([1.0, 3.0]))
    p = buf.probabilities()
    assert np.allclose(p, [0.25, 0.75], atol=1e-9)


def test_replay_uniform_when_alpha_zero(pixelgrid_spec, rng):
    buf = ql.ReplayBuffer(10, alpha_pr=0.0, beta_is=1.0,
                          priority_floor=1e-12, seed=0)
    for t in tiny_transitions(rng, pixelgrid_spec, 5):
        buf.push(*t)
    buf.update_priorities(np.arange(5), np.array([0.1, 2.0, 5.0, 0.7, 1.3]))
    assert np.allclose(buf.probabilities(), 0.2)


def test_importance_weights_match_spec_example(pixelgrid_spec, rng):
    buf = ql.ReplayBuffer(10, alpha_pr=1.0, beta_is=1.0,
                          priority_floor=1e-12, seed=0)
    t = tiny_transitions(rng, pixelgrid_spec, 2)
    buf.push(*t[0])
    buf.push(*t[1])
    buf.update_priorities(np.array([0, 1]), np.array([1.0, 3.0]))
    # N=2, P=(0.25, 0.75): raw weights (2*P)^-1 = (2, 2/3) normalize to
    # (1, 1/3) once both indices are on the table.
    probs = buf.probabilities()
    raw = (2.0 * probs) ** -1.0
    norm = raw / raw.max()
    assert abs(norm[0] - 1.0) < 1e-9
    assert abs(norm[1] - 1.0 / 3.0) < 1e-9
    # sample() must apply the same formula to whichever indices it draws
    # (normalised by the max over the drawn batch).
    _, weights, idx = buf.sample(2)
    drawn = (2.0 * probs[idx]) ** -1.0
    assert np.allclose(weights, drawn / drawn.max(), atol=1e-12)


def test_replay_probabilities_sum_to_one_and_weights_capped(pixelgrid_spec,
                                                            rng):
    buf = ql.ReplayBuffer(32, alpha_pr=0.6, beta_is=0.4,
                          priority_floor=1e-3, seed=1)
    for t in tiny_transitions(rng, pixelgrid_spec, 32):
        buf.push(*t)
    buf.update_priorities(np.arange(32), rng.normal(size=32))
    assert abs(buf.probabilities().sum() - 1.0) < 1e-12
    _, weights, _ = buf.sample(16)
    assert np.all(weights <= 1.0 + 1e-12)


def test_replay_buffer_wraps_around_at_capacity(pixelgrid_spec, rng):
    """Pushes past capacity overwrite the oldest slot first, in ring order,
    and each overwritten slot takes the current maximum priority."""
    buf = ql.ReplayBuffer(4, alpha_pr=1.0, beta_is=1.0,
                          priority_floor=0.5, seed=0)
    t = tiny_transitions(rng, pixelgrid_spec, 9)
    for tr in t[:4]:
        buf.push(*tr)
    buf.update_priorities(np.arange(4), np.array([0.5, 2.0, 1.0, 3.0]))
    buf.push(*t[4])                      # overwrites slot 0 (t[0])
    assert buf._prio[0] == 3.5           # the maximum, 3.0 + floor
    buf.update_priorities(np.array([1]), np.array([9.5]))
    buf.push(*t[5])                      # slot 1
    assert buf._prio[1] == 10.0          # the raised maximum
    for tr in t[6:9]:                    # slots 2, 3 and 0 again
        buf.push(*tr)
    assert len(buf) == 4
    # the random observations tell the transitions apart
    assert all(np.array_equal(item[0], tr[0]) for item, tr in
               zip(buf._items, (t[8], t[5], t[6], t[7]), strict=True))
    assert buf._prio.tolist() == [10.0] * 4
    assert abs(buf.probabilities().sum() - 1.0) < 1e-12


def test_replay_rejects_oversized_sample(pixelgrid_spec, rng):
    buf = ql.ReplayBuffer(8, alpha_pr=0.6, beta_is=0.4,
                          priority_floor=1e-3, seed=1)
    buf.push(*tiny_transitions(rng, pixelgrid_spec, 1)[0])
    with pytest.raises(ValueError):
        buf.sample(2)


def test_replay_sample_returns_exactly_the_pushed_rows(pixelgrid_spec, rng):
    """Row i of every sampled array is transition idx[i] as pushed, with
    the observations scaled to [0, 1]."""
    buf = ql.ReplayBuffer(8, alpha_pr=0.6, beta_is=0.4,
                          priority_floor=1e-3, seed=1)
    t = tiny_transitions(rng, pixelgrid_spec, 6)
    for tr in t:
        buf.push(*tr)
    arrays, _, idx = buf.sample(6)
    assert len(set(idx.tolist())) > 1
    want = stacked([t[i] for i in idx])
    for got, expected in zip(arrays, want, strict=True):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


def test_replay_push_copies_the_observations(pixelgrid_spec, rng):
    """Changing an observation after push does not change the buffer."""
    buf = ql.ReplayBuffer(4, alpha_pr=0.6, beta_is=0.4,
                          priority_floor=1e-3, seed=1)
    s, a, r, s_next, term = tiny_transitions(rng, pixelgrid_spec, 1)[0]
    want = stacked([(s, a, r, s_next, term)])
    buf.push(s, a, r, s_next, term)
    s[:] = 255 - s
    s_next[:] = 255 - s_next
    arrays, _, _ = buf.sample(1)
    for got, expected in zip(arrays, want, strict=True):
        assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# Double-DQN target
# ---------------------------------------------------------------------------

def test_double_dqn_uses_online_argmax_with_target_value():
    """Hand-built nets that disagree about the best action."""
    w_online = np.zeros((3, 4)); w_online[1] = [1.0, 1.0, 1.0, 1.0]
    w_target = np.zeros((3, 4)); w_target[2] = [1.0, 1.0, 1.0, 1.0]
    online = nn.ParamSet([nn.DenseLayer(w_online, np.array([0.0, 5.0, 0.0]),
                                        activation="identity")])
    target = nn.ParamSet([nn.DenseLayer(w_target, np.array([0.0, 1.0, 9.0]),
                                        activation="identity")])
    s_next = np.full((1, 4), 0.25)
    # online argmax is action 1 (q = 6); the target net values action 1 at
    # 1.0.  Using the target's own argmax would give 10.0 (y = 9.5) and the
    # online value would give 6.0 (y = 5.9), so y = 1.4 certifies the
    # decoupled argmax/value rule.
    y = ql._dqn_targets(online, target, np.array([0.5]), s_next,
                        np.array([False]), gamma=0.9)
    assert abs(y[0] - (0.5 + 0.9 * 1.0)) < 1e-12
    # terminal transitions do not bootstrap
    y = ql._dqn_targets(online, target, np.array([0.5]), s_next,
                        np.array([True]), gamma=0.9)
    assert abs(y[0] - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# Certified regularizers
# ---------------------------------------------------------------------------

def sa_regularizer(net, obs, eps_rob, c):
    """Value oracle for the hinge action-consistency penalty of one raw
    observation: max(max_{a'!=a*} U(a') - L(a*), -c) over the eps ball."""
    x = np.asarray(obs, dtype=np.float64) / ql.OBS_SCALE
    a_star = int(np.argmax(nn.forward(net, x)[-1]))
    lo, hi = ql.input_box(x, eps_rob)
    lower, upper = nn.ibp_forward_batch(net, lo[None], hi[None])
    inner = float(np.delete(upper[0], a_star).max() - lower[0, a_star])
    return max(inner, -c)


def radial_loss(net, arrays, eps_rob):
    """Value oracle for the overlap loss: mean over the batch of
    sum_a' OV(s, a', eps) * Qdiff(s, a')."""
    s, a, _, _, _ = arrays
    q = nn.forward_batch(net, s)[-1]
    lo, hi = ql.input_box(s, eps_rob)
    blo, bhi = nn.ibp_forward_batch(net, lo, hi)
    rows = np.arange(len(s))
    qdiff = np.maximum(0.0, q - q[rows, a][:, None])
    ov = np.maximum(0.0, bhi - blo[rows, a][:, None] + 0.5 * qdiff)
    return float(np.mean((ov * qdiff).sum(axis=1)))


def test_sa_regularizer_zero_radius_is_negative_margin(rng):
    net = dense_net()
    obs = rng.integers(0, 256, size=10).astype(float)
    q = nn.forward(net, obs / 255.0)[-1]
    a_star = int(np.argmax(q))
    margin = float(np.delete(q, a_star).max() - q[a_star])
    got = sa_regularizer(net, obs, eps_rob=0.0, c=100.0)
    assert margin < 0
    assert abs(got - margin) < 1e-12


def test_sa_regularizer_hinge_floor(rng):
    net = dense_net()
    obs = rng.integers(0, 256, size=10).astype(float)
    tiny_c = 1e-6
    assert sa_regularizer(net, obs, eps_rob=0.0, c=tiny_c) == -tiny_c


def test_sa_regularizer_monotone_in_radius(rng):
    net = dense_net()
    obs = rng.integers(0, 256, size=10).astype(float)
    values = [sa_regularizer(net, obs, eps_rob=e, c=10.0)
              for e in (0.0, 0.01, 0.05, 0.1)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_sa_inner_term_dominates_sampled_perturbations(rng):
    """IBP inner maximization is an upper bound on any sampled value."""
    net = dense_net()
    obs = rng.integers(0, 256, size=10).astype(float)
    eps = 0.05
    x = obs / 255.0
    q = nn.forward(net, x)[-1]
    a_star = int(np.argmax(q))
    ibp_inner = sa_regularizer(net, obs, eps_rob=eps, c=1e9)
    best = -np.inf
    for _ in range(100_000 // 50):
        xs = np.clip(x + rng.uniform(-eps, eps, size=(50, 10)), 0, 1)
        qs = nn.forward_batch(net, xs)[-1]
        others = np.delete(qs, a_star, axis=1).max(axis=1)
        best = max(best, float((others - qs[:, a_star]).max()))
    assert ibp_inner >= best - 1e-9


def test_radial_loss_spec_arithmetic():
    """Hand-set bounds: OV = 1.0-0.7+0.1 = 0.4, term 0.4*0.2 = 0.08."""
    q = np.array([[0.0, 0.2]])          # taken action 0; other action +0.2
    blo = np.array([[0.7, 0.0]])
    bhi = np.array([[0.0, 1.0]])
    a = np.array([0])
    rows = np.arange(1)
    qdiff = np.maximum(0.0, q - q[rows, a][:, None])
    ov = np.maximum(0.0, bhi - blo[rows, a][:, None] + 0.5 * qdiff)
    got = float((ov * qdiff).sum(axis=1).mean())
    assert abs(got - 0.08) < 1e-12


def test_radial_loss_zero_radius_identity(pixelgrid_spec, rng):
    """At radius zero the loss collapses to 1.5 * mean of sum Qdiff^2."""
    net = nn.qnet_params(pixelgrid_spec.obs_shape, 4, seed=3)
    batch = tiny_transitions(rng, pixelgrid_spec, 6)
    got = radial_loss(net, stacked(batch), eps_rob=0.0)
    s = np.stack([t[0] for t in batch]).astype(float) / 255.0
    q = nn.forward_batch(net, s)[-1]
    a = np.array([t[1] for t in batch])
    qd = np.maximum(0.0, q - q[np.arange(6), a][:, None])
    want = float(1.5 * (qd ** 2).sum(axis=1).mean())
    assert abs(got - want) < 1e-12
    assert got >= 0.0


def test_radial_loss_vanishes_when_taken_action_dominates(rng):
    w = np.zeros((2, 4)); w[0] = 1.0
    net = nn.ParamSet([nn.DenseLayer(w, np.array([10.0, -10.0]),
                                     activation="identity")])
    obs = rng.integers(0, 256, size=4).astype(np.uint8)
    arrays = stacked([(obs, 0, 0.0, obs, False)])
    assert radial_loss(net, arrays, eps_rob=0.001) == 0.0


def test_certification_predicate_monotone(vanilla_checkpoint, pixelgrid_spec):
    ck, _ = vanilla_checkpoint
    from policyprobe.envs import make_env
    env = make_env(pixelgrid_spec)
    obs = env.reset(0)
    flags = [ql.certified(ck.params, obs, e)
             for e in (1e-5, 1e-4, 1e-3, 1e-2)]
    # once certification is lost it never comes back at a larger radius
    for a, b in zip(flags, flags[1:]):
        assert a or not b


def test_certified_holds_on_a_one_action_net():
    """With no rival action there is nothing to flip to."""
    net = nn.ParamSet([nn.DenseLayer(np.ones((1, 4)), np.zeros(1))])
    assert ql.certified(net, np.full(4, 100.0), 0.5)


# ---------------------------------------------------------------------------
# Gradient checks away from kinks
# ---------------------------------------------------------------------------

def _loss_fn(kind, net, arrays, target, weights):
    s, a, r, s_next, term = arrays
    if kind == "td":
        y = ql._dqn_targets(net, target, r, s_next, term, 0.9)
        q = nn.forward_batch(net, s)[-1][np.arange(len(s)), a]
        return float(np.mean(weights * ql._huber(y - q)))
    q, tape = _forward(net, s)
    if kind == "sa":
        value, _ = ql._sa_grads(net, s, q, 0.01, 1.0)
        return value
    value, _ = ql._radial_grads(net, s, a, q, tape, 0.01)
    return value


def _forward(net, s):
    """Q values and tape of net's forward on the states s."""
    tape = []
    q = nn.forward_batch(net, s, tape)[-1]
    return q, tape


@pytest.mark.parametrize("kind", ["td", "sa", "radial"])
def test_loss_gradients_match_finite_differences(kind, pixelgrid_spec, rng):
    net = nn.qnet_params(pixelgrid_spec.obs_shape, 4, seed=11)
    target = nn.qnet_params(pixelgrid_spec.obs_shape, 4, seed=12)
    arrays = stacked(tiny_transitions(rng, pixelgrid_spec, 4))
    weights = rng.uniform(0.5, 1.0, size=4)
    s, a = arrays[0], arrays[1]
    if kind == "td":
        _, _, grads, _, _ = ql._td_grads(net, target, arrays, 0.9, weights)
    elif kind == "sa":
        _, grads = ql._sa_grads(net, s, _forward(net, s)[0], 0.01, 1.0)
    else:
        _, grads = ql._radial_grads(net, s, a, *_forward(net, s), 0.01)
    h = 1e-5
    checked = 0
    for (_, name, arr), (_, _, garr) in zip(net.arrays(), grads.arrays()):
        flat, gflat = arr.reshape(-1), garr.reshape(-1)
        for k in range(0, flat.size, max(1, flat.size // 4)):
            old = flat[k]
            flat[k] = old + h
            up = _loss_fn(kind, net, arrays, target, weights)
            flat[k] = old - h
            down = _loss_fn(kind, net, arrays, target, weights)
            flat[k] = old + h / 2
            up_half = _loss_fn(kind, net, arrays, target, weights)
            flat[k] = old
            central = (up - down) / (2 * h)
            forward = (up_half - _loss_fn(kind, net, arrays, target,
                                          weights)) / (h / 2)
            # relu/hinge kinks make FD meaningless; check only where the
            # two difference schemes agree on a locally linear landscape
            if abs(central - forward) > 1e-3 * max(abs(central), 1e-4):
                continue
            assert abs(central - gflat[k]) <= 1e-4 * max(1.0, abs(central)), \
                (kind, name, k)
            checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def test_zero_step_training_returns_initialization(pixelgrid_spec):
    cfg = ql.TrainConfig(total_steps=0, seed=5)
    ck = ql.train(pixelgrid_spec, cfg)
    init = nn.qnet_params(pixelgrid_spec.obs_shape, 4, seed=5)
    for (_, _, a), (_, _, b) in zip(ck.params.arrays(), init.arrays()):
        assert np.array_equal(a, b)
    assert ck.curve == [] and ck.trained_steps == 0


def test_training_is_deterministic(pixelgrid_spec):
    cfg = ql.TrainConfig(total_steps=700, warmup_steps=100, seed=4)
    a = ql.train(pixelgrid_spec, cfg)
    b = ql.train(pixelgrid_spec, cfg)
    for (_, _, x), (_, _, y) in zip(a.params.arrays(), b.params.arrays()):
        assert np.array_equal(x, y)
    assert a.curve == b.curve


@pytest.mark.parametrize("objective,backward_passes",
                         [("vanilla", 1), ("sa-ddqn", 3), ("radial", 4)])
def test_training_update_forms_no_observation_gradient(
        objective, backward_passes, pixelgrid_spec, monkeypatch):
    """Training consumes parameter gradients only: every input gradient of
    one update stops at the second conv layer's input, never the
    observation's. The counts are one per plain backward pass and two (the
    centre and the radius) per pass through the bounds."""
    seen = []
    input_grad = nn.conv2d_input_grad

    def counting(gout, kernel, stride, pad, in_h, in_w):
        seen.append((in_h, in_w))
        return input_grad(gout, kernel, stride, pad, in_h, in_w)

    monkeypatch.setattr(nn, "conv2d_input_grad", counting)
    # the one update falls on step 32: 33 transitions, 32 % train_every == 0
    cfg = ql.TrainConfig(objective=objective, total_steps=33,
                         warmup_steps=32, train_every=4, eps_rob=0.01,
                         eps_ramp_start=0, eps_ramp_steps=1, seed=2)
    ql.train(pixelgrid_spec, cfg)
    net = nn.qnet_params(pixelgrid_spec.obs_shape, 4, seed=2)
    conv1_out = nn.conv_output_hw(*pixelgrid_spec.obs_shape[:2],
                                  net.layers[0])
    assert seen == [conv1_out] * backward_passes


@pytest.mark.parametrize("objective", ["vanilla", "sa-ddqn", "radial"])
def test_training_update_forwards_the_batch_states_once(
        objective, pixelgrid_spec, monkeypatch):
    """One update samples its batch's arrays once, and the regularizer
    gradients reuse the TD loss's forward on the batch's states, so the
    online net runs on those states once."""
    states, on_states = [], []
    sample, forward_batch = ql.ReplayBuffer.sample, nn.forward_batch

    def recording(self, batch_size):
        arrays, weights, idx = sample(self, batch_size)
        states.append(arrays[0])
        return arrays, weights, idx

    def counting(net, x, tape=None):
        on_states.append(any(x is s for s in states))
        return forward_batch(net, x, tape)

    monkeypatch.setattr(ql.ReplayBuffer, "sample", recording)
    monkeypatch.setattr(nn, "forward_batch", counting)
    # the one update falls on step 32, as above
    cfg = ql.TrainConfig(objective=objective, total_steps=33,
                         warmup_steps=32, train_every=4, eps_rob=0.01,
                         eps_ramp_start=0, eps_ramp_steps=1, seed=2)
    ql.train(pixelgrid_spec, cfg)
    assert len(states) == 1 and sum(on_states) == 1


@pytest.mark.parametrize("objective", ["vanilla", "sa-ddqn", "radial"])
def test_training_scores_each_observation_once_per_parameter_version(
        objective, vanilla_checkpoint, monkeypatch):
    """Only an update changes the online net, so between two updates a
    greedy step on an observation that net has already scored reuses its
    action: no (parameter version, observation) pair is scored twice, and
    every greedy step takes the action an unmemoized greedy_action gives
    on that version's net."""
    ck, _ = vanilla_checkpoint
    nets = [ck.params.copy()]    # the online net of each parameter version
    scored, acted = [], []       # (version, obs bytes), (version, obs, action)
    greedy_action, opt_step = ql.greedy_action, nn.Optimizer.step
    push = ql.ReplayBuffer.push

    def scoring(net, obs):
        scored.append((len(nets) - 1, obs.tobytes()))
        return greedy_action(net, obs)

    def stepping(self, params, grads):
        params = opt_step(self, params, grads)
        nets.append(params.copy())
        return params

    def pushing(self, s, a, *rest):   # each step pushes before it may update
        acted.append((len(nets) - 1, s.copy(), a))
        push(self, s, a, *rest)

    monkeypatch.setattr(ql, "greedy_action", scoring)
    monkeypatch.setattr(nn.Optimizer, "step", stepping)
    monkeypatch.setattr(ql.ReplayBuffer, "push", pushing)
    # no exploration, so every step is greedy; updates from step 64 on
    cfg = ql.TrainConfig(objective=objective, total_steps=120,
                         warmup_steps=64, eps_start=0.0, eps_end=0.0,
                         eps_rob=0.01, eps_ramp_start=0, eps_ramp_steps=1,
                         seed=3)
    ql.train(ck.env_spec, cfg, init_params=ck.params)
    assert len(nets) == 1 + (120 - 64) // 4 and len(acted) == 120
    assert len(set(scored)) == len(scored) < len(acted)
    assert [a for _, _, a in acted] \
        == [greedy_action(nets[v], s) for v, s, _ in acted]


def test_warm_start_changes_initial_parameters(pixelgrid_spec,
                                               vanilla_checkpoint):
    ck, _ = vanilla_checkpoint
    cfg = ql.TrainConfig(total_steps=0, seed=5)
    warm = ql.train(pixelgrid_spec, cfg, init_params=ck.params)
    for (_, _, a), (_, _, b) in zip(warm.params.arrays(),
                                    ck.params.arrays()):
        assert np.array_equal(a, b)


def test_effective_eps_rob_schedule():
    cfg = ql.TrainConfig(eps_rob=0.1, eps_ramp_start=100, eps_ramp_steps=200)
    assert ql.effective_eps_rob(cfg, 0) == 0.0
    assert ql.effective_eps_rob(cfg, 100) == 0.0
    assert abs(ql.effective_eps_rob(cfg, 200) - 0.05) < 1e-12
    assert ql.effective_eps_rob(cfg, 300) == 0.1
    assert ql.effective_eps_rob(cfg, 10_000) == 0.1


def test_train_config_validation():
    with pytest.raises(ValueError):
        ql.TrainConfig(objective="ppo")
    with pytest.raises(ValueError):
        ql.TrainConfig(gamma=0.0)
    with pytest.raises(ValueError):
        ql.TrainConfig(eps_rob=-0.1)
    with pytest.raises(ValueError):
        ql.TrainConfig(sa_hinge_cap=0.0)
