"""Probe harness: impact arithmetic, paired clean baselines, identity
consistency, and sweep bookkeeping."""
from __future__ import annotations

import math

import numpy as np
import pytest

from policyprobe import attack, envs, harness as hz
from policyprobe import perceptual, perturb, qlearning as ql
from policyprobe.envs import make_env, make_spec


IDENTITY = hz.IDENTITY


def greedy_returns(net, spec, episode_seeds):
    """Greedy-policy episode returns from a hand-written rollout: the
    oracle the identity probe must match bit for bit."""
    env = make_env(spec)
    totals = []
    for seed in episode_seeds:
        obs = env.reset(seed)
        rewards, terminal = [], False
        while not terminal:
            result = env.step(ql.greedy_action(net, obs))
            rewards.append(result.reward)
            obs = result.observation
            terminal = result.terminal
        totals.append(envs.episode_return(rewards))
    return np.array(totals)


def synthetic_report(scores, sims, clean_mean, env_spec, ck="deadbeef"):
    records = [hz.RunRecord(i, s, m, 10)
               for i, (s, m) in enumerate(zip(scores, sims))]
    return hz.aggregate(IDENTITY, env_spec, records, clean_mean,
                        checkpoint_id=ck)


# ---------------------------------------------------------------------------
# Impact arithmetic
# ---------------------------------------------------------------------------

def test_impact_normalization_example():
    assert hz.impact(21.0, -20.8, -21.0) == pytest.approx(41.8 / 42.0,
                                                          abs=1e-12)


def test_impact_identity_is_zero():
    assert hz.impact(0.9455, 0.9455, -2.0) == 0.0


def test_impact_is_unclamped():
    assert hz.impact(1.0, 2.0, -1.0) == -0.5     # helpful perturbation
    assert hz.impact(1.0, -3.0, -1.0) == 2.0     # worse than the floor


def test_impact_rejects_degenerate_baseline():
    with pytest.raises(ValueError):
        hz.impact(-2.0, 0.0, -2.0)
    with pytest.raises(ValueError):
        hz.impact(-3.0, 0.0, -2.0)


def test_sem_conventions():
    assert hz.sem(np.array([4.2])) == 0.0
    vals = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    expected = np.std(vals, ddof=1) / math.sqrt(5)
    assert abs(hz.sem(vals) - expected) < 1e-15


# ---------------------------------------------------------------------------
# Direction labels
# ---------------------------------------------------------------------------

def test_direction_labels():
    assert perturb.PerturbationSpec(
        family="median_blur", kernel=5).label() == "blur[k=5]"
    assert attack.AttackSpec(
        method="fgm", p=math.inf, epsilon=0.05).label() == "fgm[p=inf,eps=0.05]"
    assert attack.AttackSpec(
        method="cw", p=2.0, epsilon=0.3).label() == "cw[p=l2,eps=0.3]"


# ---------------------------------------------------------------------------
# Episode probes (real rollouts on the bundled policy)
# ---------------------------------------------------------------------------

def test_identity_probe_episode_matches_clean_rollout(vanilla_checkpoint):
    ck, _ = vanilla_checkpoint
    spec = ck.env_spec
    views = {}
    total, mean_sim, steps, trace = hz.probe_episode(ck.params, spec,
                                                     IDENTITY, 0, views)
    assert mean_sim == 0.0
    assert all(views[obs.tobytes()][3] == 0.0 for obs, _ in trace)
    assert len(trace) == steps >= 1
    assert trace[0][0].dtype == np.uint8
    clean = greedy_returns(ck.params, spec, [0])[0]
    assert total == clean


def test_clean_baseline_equals_greedy_evaluation(vanilla_checkpoint):
    ck, _ = vanilla_checkpoint
    base = hz.clean_baseline(ck.params, ck.env_spec, 5)
    ref = greedy_returns(ck.params, ck.env_spec, list(range(5)))
    assert np.array_equal(base, ref)


def test_probe_records_each_runs_episode_length(vanilla_checkpoint):
    """Each run's length is the env steps of the same greedy rollout."""
    ck, _ = vanilla_checkpoint
    spec = ck.env_spec
    direction = perturb.PerturbationSpec(family="brightness_contrast",
                                         beta=15.0)
    report = hz.probe(ck.params, spec, direction, runs=3)
    env = make_env(spec)
    for run in report.runs:
        obs, steps, terminal = env.reset(run.episode_seed), 0, False
        while not terminal:
            step = env.step(ql.greedy_action(ck.params,
                                             perturb.apply(direction, obs)))
            obs, terminal = step.observation, step.terminal
            steps += 1
        assert run.episode_length == steps


def test_identity_probe_report_is_exactly_neutral(vanilla_checkpoint):
    ck, ck_id = vanilla_checkpoint
    report = hz.probe(ck.params, ck.env_spec, IDENTITY, runs=5,
                      checkpoint_id=ck_id)
    assert report.impact == 0.0
    assert report.mean_similarity == 0.0
    assert report.sem_similarity == 0.0
    assert report.seeds == [0, 1, 2, 3, 4]
    assert report.mean_score == report.score_clean
    assert report.checkpoint_id == ck_id
    assert report.env_id == "pixelgrid"
    assert report.score_min_fixed == ck.env_spec.score_min


def test_probe_on_second_environment(minipong_spec):
    """Episode probing is environment-agnostic, and a policy pinned to the
    score floor is refused a (meaningless) impact instead of reporting 0/0."""
    from policyprobe import nn
    pong_net = nn.qnet_params(minipong_spec.obs_shape,
                              minipong_spec.n_actions, seed=1)
    total, mean_sim, _, trace = hz.probe_episode(pong_net, minipong_spec,
                                                 IDENTITY, 0)
    assert mean_sim == 0.0
    assert total == greedy_returns(pong_net, minipong_spec, [0])[0]
    # an untuned net loses every rally at exactly the floor, so the
    # normalized impact is undefined and the probe must say so
    assert total == minipong_spec.score_min
    with pytest.raises(ValueError):
        hz.probe(pong_net, minipong_spec, IDENTITY, runs=3)


def test_perturbed_probe_reports_positive_similarity(vanilla_checkpoint):
    ck, _ = vanilla_checkpoint
    direction = perturb.PerturbationSpec(family="brightness_contrast",
                                         alpha=0.6, beta=-40.0)
    report = hz.probe(ck.params, ck.env_spec, direction, runs=3)
    assert report.mean_similarity > 0.0
    assert math.isfinite(report.impact)


def test_attack_probe_episode_keeps_distances(vanilla_checkpoint):
    ck, _ = vanilla_checkpoint
    direction = attack.AttackSpec(method="fgm", p=math.inf, epsilon=0.02)
    views = {}
    total, mean_sim, _, trace = hz.probe_episode(ck.params, ck.env_spec,
                                                 direction, 0, views)
    assert len(trace) >= 1
    for obs, _ in trace:
        assert views[obs.tobytes()][1] <= 0.02 + 1e-9
    assert math.isfinite(total)


def test_probe_rejects_bad_run_counts(vanilla_checkpoint):
    ck, _ = vanilla_checkpoint
    with pytest.raises(ValueError):
        hz.probe(ck.params, ck.env_spec, IDENTITY, runs=0)
    with pytest.raises(ValueError):
        hz.probe(ck.params, ck.env_spec, IDENTITY, runs=3,
                 clean_scores=np.array([1.0]))


# ---------------------------------------------------------------------------
# Aggregation against hand arithmetic
# ---------------------------------------------------------------------------

def test_aggregate_hand_computation(pixelgrid_spec):
    scores = [0.8, 0.6, 0.7, 0.5]
    sims = [0.01, 0.02, 0.03, 0.02]
    report = synthetic_report(scores, sims, clean_mean=0.9,
                              env_spec=pixelgrid_spec)
    assert report.mean_score == pytest.approx(np.mean(scores))
    assert report.sem_score == pytest.approx(
        np.std(scores, ddof=1) / 2.0)
    assert report.mean_similarity == pytest.approx(np.mean(sims))
    expected_impact = (0.9 - np.mean(scores)) / (0.9 - pixelgrid_spec.score_min)
    assert report.impact == pytest.approx(expected_impact)


def test_aggregate_rejects_empty(pixelgrid_spec):
    with pytest.raises(ValueError):
        hz.aggregate(IDENTITY, pixelgrid_spec, [], 0.9)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_structure_and_identity_point(vanilla_checkpoint):
    ck, ck_id = vanilla_checkpoint
    reports = hz.sweep([("vanilla", ck.params)], ck.env_spec,
                       family="median_blur", parameter="kernel",
                       values=[1, 3], runs=3,
                       checkpoint_ids={"vanilla": ck_id})
    # one report per (policy, grid value), the value keyed as a float
    assert list(reports) == [("vanilla", 1.0), ("vanilla", 3.0)]
    assert all(type(value) is float for _, value in reports)
    neutral = reports[("vanilla", 1.0)]
    assert neutral.impact == 0.0       # kernel 1 is the identity
    assert neutral.mean_similarity == 0.0
    stressed = reports[("vanilla", 3.0)]
    assert isinstance(stressed.direction_spec.kernel, int)
    assert stressed.checkpoint_id == ck_id
    # every point's impact is consistent with its own aggregates
    for rep in reports.values():
        assert rep.impact == pytest.approx(
            hz.impact(rep.score_clean, rep.mean_score, rep.score_min_fixed))


def test_sweep_rejects_unsorted_grid(vanilla_checkpoint):
    ck, _ = vanilla_checkpoint
    with pytest.raises(ValueError):
        hz.sweep([("vanilla", ck.params)], ck.env_spec, "median_blur",
                 "kernel", values=[3, 1], runs=1)
    with pytest.raises(ValueError):
        hz.sweep([], ck.env_spec, "median_blur", "kernel", [1], 1)


# ---------------------------------------------------------------------------
# Capped episodes score exactly the fixed minimum
# ---------------------------------------------------------------------------

def _stuck_net(spec):
    """A Q-net that always picks action 0 ("up"): the head's weights are
    zeroed and its bias favours action 0, so every episode on the bundled
    PixelGrid layout runs into the step cap."""
    from policyprobe import nn
    net = nn.qnet_params(spec.obs_shape, spec.n_actions, seed=0)
    head = net.layers[-1]
    head.weight[...] = 0.0
    head.bias[...] = 0.0
    head.bias[0] = 1.0
    return net


def test_capped_episodes_score_exactly_the_fixed_minimum(pixelgrid_spec):
    """200 steps of -0.01 must sum to score_min = -0.01 * cap exactly; a
    running float sum drifts to -2.0000000000000013, below the floor."""
    spec = pixelgrid_spec
    net = _stuck_net(spec)
    seeds = list(range(10))
    assert greedy_returns(net, spec, seeds).tolist() == [spec.score_min] * 10
    for seed in (0, 9):
        total, _, steps, trace = hz.probe_episode(net, spec, IDENTITY, seed)
        assert len(trace) == steps == spec.episode_cap
        assert total == spec.score_min
    config = ql.TrainConfig(total_steps=spec.episode_cap, eps_start=0.0,
                            eps_end=0.0, warmup_steps=500)
    ck = ql.train(spec, config, init_params=net)
    assert ck.curve == [(0, spec.score_min)]
    # pinned at the floor, the policy has no baseline to normalize against
    with pytest.raises(ValueError, match=r"clean score -2\.0 "):
        hz.probe(net, spec, IDENTITY, runs=3)


# ---------------------------------------------------------------------------
# Per-episode memo: one computation per distinct observation
# ---------------------------------------------------------------------------

def _looping_net(spec):
    """The always-"up" net with a faint dependence on the observation, so
    attacks have a gradient to follow while the bias still picks "up"."""
    from policyprobe import nn
    net = _stuck_net(spec)
    faint = nn.qnet_params(spec.obs_shape, spec.n_actions, seed=1)
    net.layers[-1].weight[...] = 1e-3 * faint.layers[-1].weight
    return net


def _explicit_rollout(net, spec, direction, seed, fnet):
    """The probe episode as a plain loop that recomputes every step."""
    env = make_env(spec)
    obs, terminal, steps = env.reset(seed), False, []
    while not terminal:
        if isinstance(direction, perturb.PerturbationSpec):
            viewed, dist, success = perturb.apply(direction, obs), 0.0, False
        else:
            result = attack.run_attack(net, obs, direction)
            viewed, dist, success = (result.observation, result.distance,
                                     result.success)
        sim = (0.0 if np.array_equal(viewed, obs)
               else perceptual.lpips(fnet, obs, viewed))
        action = ql.greedy_action(net, viewed)
        step = env.step(action)
        steps.append((obs, viewed, action, step.reward, sim, dist, success))
        obs, terminal = step.observation, step.terminal
    return steps


def check_against_rollout(result, views, expected):
    """A probe_episode result and its views memo hold, bit for bit, what
    `_explicit_rollout` recorded step by step."""
    total, mean_sim, steps, trace = result
    rewards = [reward for _, _, _, reward, *_ in expected]
    sim_sum = 0.0
    for _, _, _, _, sim, _, _ in expected:
        sim_sum += sim
    assert total == envs.episode_return(rewards)
    assert mean_sim == sim_sum / len(expected)
    assert steps == len(trace) == len(expected)
    for (base, taken), (obs, viewed, action, _, sim, dist, success) in \
            zip(trace, expected):
        assert taken == action
        assert np.array_equal(base, obs)
        memo_view, *memo_scores = views[base.tobytes()]
        assert np.array_equal(memo_view, viewed)
        assert memo_scores == [dist, success, sim]


def count_steps(monkeypatch, env_class):
    """A list that grows by one on every env_class.step call."""
    calls = []
    step = env_class.step

    def counting(self, action):
        calls.append(action)
        return step(self, action)

    monkeypatch.setattr(env_class, "step", counting)
    return calls


@pytest.mark.parametrize("direction", [
    perturb.PerturbationSpec(family="brightness_contrast", beta=30.0),
    attack.AttackSpec(method="fgm", p=math.inf, epsilon=0.02),
], ids=["brightness", "fgm"])
def test_probe_episode_computes_once_per_distinct_observation(
        direction, pixelgrid_spec, fnet, monkeypatch):
    """A looping policy repeats a few observations until the cap. Each one
    is perturbed or attacked, scored and acted on once, the env steps only
    up to the first repeated state, and the episode equals a loop that
    recomputes every step."""
    spec = pixelgrid_spec
    net = _looping_net(spec)
    expected = _explicit_rollout(net, spec, direction, 0, fnet)
    distinct = {obs.tobytes() for obs, *_ in expected}
    assert len(expected) == spec.episode_cap > 10 * len(distinct)
    # a PixelGrid frame shows the whole state, the agent's cell
    keys = [obs.tobytes() for obs, *_ in expected]
    first_repeat = next(t for t, key in enumerate(keys) if key in keys[:t])

    seen = {"view": [], "lpips": [], "action": []}

    def counting(name, fn, arg):
        def wrapper(*args):
            seen[name].append(args[arg].tobytes())
            return fn(*args)
        return wrapper

    if isinstance(direction, perturb.PerturbationSpec):
        monkeypatch.setattr(perturb, "apply",
                            counting("view", perturb.apply, 1))
    else:
        monkeypatch.setattr(attack, "run_attack",
                            counting("view", attack.run_attack, 1))
    monkeypatch.setattr(perceptual, "lpips",
                        counting("lpips", perceptual.lpips, 1))
    monkeypatch.setattr(hz, "greedy_action",
                        counting("action", hz.greedy_action, 1))
    steps = count_steps(monkeypatch, envs.PixelGridEnv)
    views = {}
    result = hz.probe_episode(net, spec, direction, 0, views)
    assert sorted(seen["view"]) == sorted(distinct)
    assert sorted(seen["lpips"]) == sorted(distinct)
    assert len(seen["action"]) == len(distinct)
    assert len(steps) == first_repeat == len(distinct)
    assert result[1] > 0.0
    check_against_rollout(result, views, expected)


def pixel_tracker(params, obs):
    """MiniPong's scripted tracker read off a frame, as a policy: chase
    the ball, the brightest cell, with the paddle in the last column."""
    cells = np.asarray(obs)[1::3, 1::3, 0]
    ball_row = np.argwhere(cells == cells.max())[0][0]
    paddle = np.flatnonzero(cells[:, -1] == cells[:, -1].max())
    return 1 if ball_row < paddle[1] else 2 if ball_row > paddle[1] else 0


def test_minipong_probe_replays_its_rally_as_the_explicit_rollout(
        minipong_spec, fnet, monkeypatch):
    """A tracking player rallies to the cap, so its state repeats: the env
    steps up to the first repeated state, and the episode equals the loop
    that steps every time."""
    monkeypatch.setattr(ql, "greedy_action", pixel_tracker)
    monkeypatch.setattr(hz, "greedy_action", pixel_tracker)
    direction = perturb.PerturbationSpec(family="brightness_contrast",
                                         beta=20.0)
    expected = _explicit_rollout(None, minipong_spec, direction, 0, fnet)
    assert len(expected) == minipong_spec.episode_cap
    env, states = make_env(minipong_spec), []
    env.reset(0)
    for _, _, action, *_ in expected:
        states.append(env.state_key())
        env.step(action)
    first_repeat = next(t for t, key in enumerate(states)
                        if key in states[:t])
    steps = count_steps(monkeypatch, envs.MiniPongEnv)
    views = {}
    result = hz.probe_episode(None, minipong_spec, direction, 0, views)
    assert len(steps) == first_repeat < len(expected) / 4
    check_against_rollout(result, views, expected)


def test_capped_replay_keeps_the_fixed_minimum(pixelgrid_spec, monkeypatch):
    """The stuck policy's replayed episodes still sum to score_min."""
    steps = count_steps(monkeypatch, envs.PixelGridEnv)
    for seed in range(10):
        total, _, length, _ = hz.probe_episode(_stuck_net(pixelgrid_spec),
                                               pixelgrid_spec, IDENTITY,
                                               seed)
        assert (total, length) == (pixelgrid_spec.score_min,
                                   pixelgrid_spec.episode_cap)
    assert len(steps) < pixelgrid_spec.episode_cap


def test_sweep_names_the_policy_with_a_degenerate_baseline(
        vanilla_checkpoint):
    ck, _ = vanilla_checkpoint
    with pytest.raises(ValueError, match="policy 'stuck'"):
        hz.sweep([("vanilla", ck.params), ("stuck", _stuck_net(ck.env_spec))],
                 ck.env_spec, "median_blur", "kernel", values=[1, 3],
                 runs=2)


def test_sweep_refuses_duplicate_policy_names(vanilla_checkpoint):
    """Two points per grid value under one label would make `point` and
    the sweep rows ambiguous."""
    ck, _ = vanilla_checkpoint
    with pytest.raises(ValueError, match="duplicate policy name 'vanilla'"):
        hz.sweep([("vanilla", ck.params), ("radial", ck.params),
                  ("vanilla", ck.params)], ck.env_spec, "median_blur",
                 "kernel", values=[1, 3], runs=1)


# ---------------------------------------------------------------------------
# Memo scope: views per direction, actions per probe call
# ---------------------------------------------------------------------------

def _recording(seen, fn, key):
    def wrapper(*args):
        seen.append(key(*args))
        return fn(*args)
    return wrapper


def test_sweep_computes_once_per_distinct_direction_and_observation(
        vanilla_checkpoint, radial_checkpoint, monkeypatch):
    """Every run and every policy shares a grid value's views: each
    (direction, observation) is perturbed and scored once in the sweep, and
    each (policy, direction, observation) acted on once."""
    policies = [("vanilla", vanilla_checkpoint[0].params),
                ("radial", radial_checkpoint[0].params)]
    spec = vanilla_checkpoint[0].env_spec
    grid = dict(family="brightness_contrast", parameter="beta",
                values=[10.0, 30.0], runs=4)
    views, sims, acts = [], [], []
    monkeypatch.setattr(perturb, "apply", _recording(
        views, perturb.apply,
        lambda d, obs, coefficients: (d, obs.tobytes())))
    monkeypatch.setattr(perceptual, "lpips", _recording(
        sims, perceptual.lpips,
        lambda f, a, b, clean_features: (a.tobytes(), b.tobytes())))
    monkeypatch.setattr(hz, "greedy_action", _recording(
        acts, hz.greedy_action, lambda p, v: (id(p), v.tobytes())))
    reports = hz.sweep(policies, spec, **grid)
    # policy-major order: each policy over the whole grid in turn
    assert list(reports) == [(name, value) for name, _ in policies
                             for value in grid["values"]]
    # each policy's clean runs keep their own identity views
    views = [(d, obs) for d, obs in views if d.family != "identity"]
    # brightness views of distinct (direction, observation) pairs differ
    # from each other and from the clean observations, so a repeated
    # (policy, view) is a repeated (policy, direction, observation)
    assert len(views) == len(set(views)) > 0
    assert len(sims) == len(set(sims)) > 0
    assert len(acts) == len(set(acts))
    steps = sum(run.episode_length for rep in reports.values()
                for run in rep.runs)
    assert len(sims) < steps / 4      # the memo shares across the sweep


def test_a_kappa_sweep_transforms_each_distinct_frame_once(
        vanilla_checkpoint, radial_checkpoint, monkeypatch):
    """One coefficients memo serves a sweep's grid values and policies:
    each distinct frame a DCT view is made of is forward-transformed once.
    The memo lives as long as the call, so a second sweep transforms the
    same frames again."""
    policies = [("vanilla", vanilla_checkpoint[0].params),
                ("radial", radial_checkpoint[0].params)]
    spec = vanilla_checkpoint[0].env_spec
    applied, transformed = [], []
    monkeypatch.setattr(perturb, "apply", _recording(
        applied, perturb.apply,
        lambda d, obs, coefficients: (d.family, _f64_bytes(obs))))
    monkeypatch.setattr(perturb, "dct_forward", _recording(
        transformed, perturb.dct_forward, lambda img: img.tobytes()))
    grid = dict(family="dct_artifacts", parameter="kappa",
                values=[0.2, 0.5, 0.8], runs=3)
    hz.sweep(policies, spec, **grid)
    frames = [obs for family, obs in applied if family == "dct_artifacts"]
    assert len(frames) > len(set(frames))   # frames recur across kappas
    assert sorted(transformed) == sorted(set(frames))
    hz.sweep(policies, spec, **grid)
    assert sorted(transformed) == sorted(2 * list(set(frames)))


def _f64_bytes(obs):
    """An observation's bytes as lpips passes it to the featurenet."""
    return np.asarray(obs, dtype=np.float64).tobytes()


def test_sweep_computes_each_clean_observations_features_once(
        vanilla_checkpoint, radial_checkpoint, monkeypatch):
    """One clean_features memo serves the whole sweep: the featurenet runs
    once per distinct clean observation, across grid values and policies,
    and once per scored view."""
    policies = [("vanilla", vanilla_checkpoint[0].params),
                ("radial", radial_checkpoint[0].params)]
    spec = vanilla_checkpoint[0].env_spec
    passes, scored = [], []
    monkeypatch.setattr(perceptual, "normalized_activations", _recording(
        passes, perceptual.normalized_activations,
        lambda f, s: s.tobytes()))
    monkeypatch.setattr(perceptual, "lpips", _recording(
        scored, perceptual.lpips, lambda f, a, b, clean_features: (
            _f64_bytes(a), _f64_bytes(b), id(clean_features))))
    hz.sweep(policies, spec, family="brightness_contrast", parameter="beta",
             values=[10.0, 20.0, 30.0], runs=4)
    clean = {a for a, _, _ in scored}
    views = [b for _, b, _ in scored]
    assert len({memo for _, _, memo in scored}) == 1
    assert len(passes) == len(clean) + len(views)
    assert sorted(passes) == sorted([*clean, *views])
    assert len(clean) < len(scored) / 2   # most scores reuse a clean side


def test_attack_views_stay_with_their_policy(vanilla_checkpoint,
                                             radial_checkpoint, fnet,
                                             monkeypatch):
    """Attacks depend on the policy: two nets probed along one FGM
    direction each attack every observation they visit, once per probe
    call, and no view crosses from one net to the other."""
    spec = vanilla_checkpoint[0].env_spec
    direction = attack.AttackSpec(method="fgm", p=math.inf, epsilon=0.02)
    nets = [vanilla_checkpoint[0].params, radial_checkpoint[0].params]
    visited = [{obs.tobytes() for seed in range(3)
                for obs, *_ in _explicit_rollout(net, spec, direction, seed,
                                                 fnet)}
               for net in nets]
    assert visited[0] & visited[1]    # both nets see the start cells
    calls = []
    monkeypatch.setattr(attack, "run_attack", _recording(
        calls, attack.run_attack, lambda p, obs, d: (id(p), obs.tobytes())))
    for net in nets:
        hz.probe(net, spec, direction, runs=3)
    for net, seen in zip(nets, visited):
        mine = [obs for owner, obs in calls if owner == id(net)]
        assert sorted(mine) == sorted(seen)


# ---------------------------------------------------------------------------
# One reference featurenet per process
# ---------------------------------------------------------------------------

def test_clean_runs_never_parse_the_featurenet(vanilla_checkpoint,
                                               fresh_reference_net,
                                               monkeypatch):
    """An identity view never reaches lpips, so clean runs need no net."""
    def refuse(*args):
        raise AssertionError("featurenet asset parsed")

    monkeypatch.setattr(perceptual.checkpoint, "parse_params", refuse)
    ck, _ = vanilla_checkpoint
    hz.clean_baseline(ck.params, ck.env_spec, 3)
    hz.probe_episode(ck.params, ck.env_spec, IDENTITY, 0)


def test_sweep_and_probe_parse_the_featurenet_once(
        vanilla_checkpoint, radial_checkpoint, fresh_reference_net,
        monkeypatch):
    loads = []
    monkeypatch.setattr(perceptual.checkpoint, "parse_params", _recording(
        loads, perceptual.checkpoint.parse_params,
        lambda lines, pos, kind: kind))
    spec = vanilla_checkpoint[0].env_spec
    hz.sweep([("vanilla", vanilla_checkpoint[0].params),
              ("radial", radial_checkpoint[0].params)], spec,
             "brightness_contrast", "beta", values=[10.0, 30.0], runs=2)
    assert loads == ["featurenet"]
    direction = perturb.PerturbationSpec(family="brightness_contrast",
                                         beta=20.0)
    hz.probe(vanilla_checkpoint[0].params, spec, direction, runs=2)
    assert loads == ["featurenet"]
