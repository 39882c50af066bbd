"""Environments: determinism, reachability, reward accounting, rendering
levels, episode caps, and the shortest-path oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from policyprobe import envs
from policyprobe.envs import (EpisodeOverError, MiniPongEnv, PixelGridEnv,
                              make_env, make_spec, oracle_return,
                              shortest_path_actions)


@pytest.mark.parametrize("field,value", [
    ("obs_shape", (24, 24, 3)), ("n_actions", 5), ("episode_cap", 5),
    ("score_min", -0.05), ("score_max", 2.0), ("score_min", math.nan),
    ("score_max", math.inf)])
def test_a_spec_refuses_fields_its_id_and_size_do_not_fix(field, value):
    """A checkpoint stores every spec field, and an edited one used to
    change a probe's scores or impact silently."""
    spec = make_spec("pixelgrid", size=8, seed=0)
    with pytest.raises(ValueError, match=f"pixelgrid size 8 has {field} "):
        dataclasses.replace(spec, **{field: value})


def test_make_spec_fills_the_fixed_fields():
    assert envs.derived_fields("pixelgrid", 8) == {
        "obs_shape": (24, 24, 1), "n_actions": 4, "episode_cap": 200,
        "score_min": -2.0, "score_max": 1.0}
    spec = make_spec("minipong", size=12, seed=3, gamma=0.5)
    assert (spec.obs_shape, spec.n_actions, spec.episode_cap,
            spec.score_min, spec.score_max) == ((36, 36, 1), 3, 1000,
                                                -5.0, 5.0)
    assert (spec.gamma, spec.seed) == (0.5, 3)


def rollout(env, seed, actions):
    frames = [env.reset(seed)]
    rewards = []
    for a in actions:
        step = env.step(a)
        frames.append(step.observation)
        rewards.append(step.reward)
        if step.terminal:
            break
    return frames, rewards


# ---------------------------------------------------------------------------
# Shared contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("env_id,size", [("pixelgrid", 8), ("minipong", 12)])
def test_reset_is_deterministic(env_id, size):
    spec = make_spec(env_id, size=size, seed=5)
    a = make_env(spec).reset(3)
    b = make_env(spec).reset(3)
    assert np.array_equal(a, b)
    assert a.dtype == np.uint8
    assert a.shape == spec.obs_shape


@pytest.mark.parametrize("env_id,size", [("pixelgrid", 8), ("minipong", 12)])
def test_identical_action_sequences_reproduce_trajectories(env_id, size):
    spec = make_spec(env_id, size=size, seed=5)
    rng = np.random.default_rng(1)
    actions = rng.integers(0, spec.n_actions, size=60).tolist()
    fa, ra = rollout(make_env(spec), 9, actions)
    fb, rb = rollout(make_env(spec), 9, actions)
    assert len(fa) == len(fb) and ra == rb
    for x, y in zip(fa, fb):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("env_id,size", [("pixelgrid", 8), ("minipong", 12)])
def test_observation_levels_are_the_four_shades(env_id, size):
    spec = make_spec(env_id, size=size, seed=2)
    env = make_env(spec)
    obs = env.reset(0)
    seen = set(np.unique(obs))
    allowed = {envs.SHADE_AGENT, envs.SHADE_GOAL, envs.SHADE_WALL,
               envs.SHADE_FLOOR}
    assert seen <= allowed


def test_step_before_reset_rejected():
    spec = make_spec("pixelgrid", size=8, seed=0)
    with pytest.raises(RuntimeError):
        make_env(spec).step(0)


def test_step_after_terminal_rejected():
    spec = make_spec("pixelgrid", size=8, seed=0)
    env = make_env(spec)
    env.reset(0)
    for _ in range(spec.episode_cap):
        step = env.step(0)
        if step.terminal:
            break
    assert step.terminal
    with pytest.raises(EpisodeOverError):
        env.step(0)


@pytest.mark.parametrize("env_id,size", [("pixelgrid", 8), ("minipong", 12)])
def test_episode_cap_truncates(env_id, size):
    spec = make_spec(env_id, size=size, seed=0)
    env = make_env(spec)
    env.reset(0)
    # action 0 in pixelgrid may bump walls forever; pong rallies forever if
    # both sides track: in both cases the cap must fire
    steps = 0
    while True:
        step = env.step(0)
        steps += 1
        if step.terminal:
            break
        assert steps <= spec.episode_cap
    if steps == spec.episode_cap:
        assert step.truncated


# ---------------------------------------------------------------------------
# Rendering against a float np.kron reference
# ---------------------------------------------------------------------------

def kron_frame(cells):
    """The frame of a float (n, n) grid of shades, upscaled with np.kron."""
    img = np.kron(cells, np.ones((envs.CELL, envs.CELL)))
    return img.astype(np.uint8)[:, :, None]


def pixelgrid_reference(env):
    cells = np.full((env.spec.size,) * 2, float(envs.SHADE_FLOOR))
    cells[env.walls] = envs.SHADE_WALL
    cells[env.goal] = envs.SHADE_GOAL
    cells[env.pos] = envs.SHADE_AGENT
    return kron_frame(cells)


def minipong_reference(env):
    n, st = env.spec.size, env.state
    cells = np.full((n, n), float(envs.SHADE_FLOOR))
    cells[st.opp_top:st.opp_top + envs.PADDLE_HEIGHT, 0] = envs.SHADE_WALL
    cells[st.player_top:st.player_top + envs.PADDLE_HEIGHT, n - 1] = \
        envs.SHADE_GOAL
    cells[st.ball] = envs.SHADE_AGENT
    return kron_frame(cells)


def assert_same_frame(frame, reference):
    assert frame.dtype == np.uint8 and frame.shape == reference.shape
    assert frame.tobytes() == reference.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_pixelgrid_frames_match_the_kron_reference_from_every_start(seed):
    spec = make_spec("pixelgrid", size=8, seed=seed)
    env = make_env(spec)
    starts = {tuple(int(v) for v in p) for p in np.argwhere(~env.walls)}
    starts.discard(env.goal)
    seen = set()
    for episode_seed in range(2000):
        assert_same_frame(env.reset(episode_seed), pixelgrid_reference(env))
        if env.pos in seen:
            continue
        seen.add(env.pos)
        for action in range(spec.n_actions):   # one step each way
            step = env.step(action)
            assert_same_frame(step.observation, pixelgrid_reference(env))
            if step.terminal:
                break
        if seen == starts:
            break
    assert seen == starts


def test_minipong_frames_match_the_kron_reference(minipong_spec):
    env = make_env(minipong_spec)
    assert_same_frame(env.reset(0), minipong_reference(env))
    for _ in range(300):
        step = env.step(env.tracker_action())
        assert_same_frame(step.observation, minipong_reference(env))
    assert not step.terminal


def test_pixelgrid_layout_is_shared_and_read_only():
    spec = make_spec("pixelgrid", size=8, seed=0)
    a, b = make_env(spec), make_env(spec)
    assert a.walls is b.walls and a.goal == b.goal
    with pytest.raises(ValueError):
        a.walls[0, 0] = not a.walls[0, 0]
    a.reset(0)
    b.reset(0)
    start = b.pos
    for action in range(spec.n_actions):
        a.step(action)
        if a.pos != start:
            break
    assert a.pos != start and b.pos == start
    assert_same_frame(b.step(0).observation, pixelgrid_reference(b))


def rendered(spec, pos):
    """The frame with the agent at pos, rendered directly."""
    cells = envs._grid_layout(spec).background.copy()
    cells[pos] = envs.SHADE_AGENT
    return envs._render_cells(cells)


def assert_fresh_frame(frame, spec, pos):
    assert frame.flags.writeable
    assert_same_frame(frame, rendered(spec, pos))


@pytest.mark.parametrize("seed", range(3))
def test_pixelgrid_frames_are_fresh_copies_of_each_cells_render(seed):
    """Frames are rendered once per (spec, agent cell): reset and step
    still hand out a writable array of their own, equal to a direct render,
    on every floor cell: reset on every start, step on every cell one move
    from a start (the goal included)."""
    spec = make_spec("pixelgrid", size=8, seed=seed)
    env = make_env(spec)
    floor = {tuple(int(v) for v in p) for p in np.argwhere(~env.walls)}
    starts = floor - {env.goal}
    by_reset, by_step = set(), set()
    for episode_seed in range(2000):
        assert_fresh_frame(env.reset(episode_seed), spec, env.pos)
        if env.pos in by_reset:
            continue
        by_reset.add(env.pos)
        for action in range(spec.n_actions):
            env.reset(episode_seed)
            assert_fresh_frame(env.step(action).observation, spec, env.pos)
            by_step.add(env.pos)
        if by_reset == starts:
            break
    assert by_reset == starts and by_step == floor


def test_writing_into_a_frame_leaves_the_next_frame_unchanged():
    spec = make_spec("pixelgrid", size=8, seed=0)
    env = make_env(spec)
    first = env.reset(0)
    start = env.pos
    first[:] = 7
    assert_fresh_frame(env.reset(0), spec, start)
    assert_fresh_frame(make_env(spec).reset(0), spec, start)
    # a step that stays on the cell, or one there and one back
    for action in range(spec.n_actions):
        obs = env.step(action).observation
        obs[:] = 9
        if env.pos != start:
            back = {0: 1, 1: 0, 2: 3, 3: 2}[action]
            env.step(back).observation[:] = 11
        assert env.pos == start
        assert_fresh_frame(env.step(action).observation, spec, env.pos)
        env.reset(0)


def test_grid_start_cache_matches_an_uncached_draw():
    for spec_seed in (0, 3):
        spec = make_spec("pixelgrid", size=8, seed=spec_seed)
        uncached = [envs._grid_start.__wrapped__(spec, episode_seed)
                    for episode_seed in range(500)]
        for _ in range(2):    # the first draws, then the cached ones
            assert [envs._grid_start(spec, episode_seed)
                    for episode_seed in range(500)] == uncached


# ---------------------------------------------------------------------------
# PixelGrid
# ---------------------------------------------------------------------------

def test_pixelgrid_reward_accounting():
    spec = make_spec("pixelgrid", size=8, seed=0)
    env = make_env(spec)
    env.reset(0)
    total, steps = 0.0, 0
    while True:
        step = env.step(int(np.random.default_rng(steps).integers(4)))
        total += step.reward
        steps += 1
        if step.terminal:
            break
    if step.reward == 1.0:      # reached the goal: 1 replaces the step cost
        assert abs(total - (1.0 - 0.01 * (steps - 1))) < 1e-9
    else:                        # capped: every step paid the cost
        assert abs(total + 0.01 * steps) < 1e-9
    assert spec.score_min - 1e-9 <= total <= spec.score_max + 1e-9


def test_pixelgrid_wall_bump_stays_put():
    spec = make_spec("pixelgrid", size=8, seed=0)
    env = make_env(spec)
    obs = env.reset(0)
    # walk up until the bump against the boundary wall
    for _ in range(spec.size):
        step = env.step(0)
        if np.array_equal(step.observation, obs):
            assert step.reward == -0.01
            return
        obs = step.observation
        if step.terminal:
            pytest.skip("goal reached before bumping")
    pytest.fail("never bumped while walking in one direction")


def test_pixelgrid_layout_depends_on_env_seed_not_episode_seed():
    a = make_env(make_spec("pixelgrid", size=8, seed=1)).reset(0)
    b = make_env(make_spec("pixelgrid", size=8, seed=2)).reset(0)
    assert not np.array_equal(a, b)
    env = make_env(make_spec("pixelgrid", size=8, seed=1))
    walls = []
    for episode_seed in (0, 1, 2):
        obs = env.reset(episode_seed)
        walls.append(obs == envs.SHADE_WALL)
    assert np.array_equal(walls[0], walls[1])
    assert np.array_equal(walls[1], walls[2])


def test_shortest_path_oracle_agrees_with_greedy_distance():
    spec = make_spec("pixelgrid", size=8, seed=0)
    env = make_env(spec)
    for episode_seed in range(10):
        env.reset(episode_seed)
        d = len(shortest_path_actions(env.walls, env.pos, env.goal))
        assert d >= 1
        expected = 1.0 - 0.01 * (d - 1)
        assert abs(oracle_return(spec, episode_seed) - expected) < 1e-12


def test_oracle_return_is_achievable():
    """Walking the BFS path collects exactly the claimed return, summed the
    way every episode score is."""
    spec = make_spec("pixelgrid", size=8, seed=0)
    env = make_env(spec)
    for episode_seed in range(200):
        env.reset(episode_seed)
        claimed = oracle_return(spec, episode_seed)
        path = envs.shortest_path_actions(env.walls, env.pos, env.goal)
        env2 = make_env(spec)
        env2.reset(episode_seed)
        rewards = [env2.step(action).reward for action in path]
        assert env2.terminal and rewards[-1] == 1.0
        assert math.fsum(rewards) == claimed, episode_seed


@given(seed=st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_pixelgrid_goal_always_reachable(seed):
    spec = make_spec("pixelgrid", size=8, seed=3)
    env = make_env(spec)
    env.reset(seed)
    assert len(shortest_path_actions(env.walls, env.pos, env.goal)) >= 1


# ---------------------------------------------------------------------------
# MiniPong
# ---------------------------------------------------------------------------

def test_minipong_tracker_rallies_to_the_cap(minipong_spec):
    """Flawless play concedes nothing: 0-0 until the cap truncates."""
    env = make_env(minipong_spec)
    for episode_seed in range(5):
        env.reset(episode_seed)
        total = 0.0
        while True:
            step = env.step(env.tracker_action())
            total += step.reward
            if step.terminal:
                break
        assert total == 0.0
        assert step.truncated
        assert step.step_index == minipong_spec.episode_cap


@pytest.mark.parametrize("action", [0, 1, 2])
def test_minipong_constant_paddle_loses(minipong_spec, action):
    env = make_env(minipong_spec)
    for episode_seed in range(5):
        env.reset(episode_seed)
        total = 0.0
        while True:
            step = env.step(action)
            total += step.reward
            if step.terminal:
                break
        assert total == minipong_spec.score_min
        assert not step.truncated


def test_minipong_score_bounds(minipong_spec):
    rng = np.random.default_rng(77)
    env = make_env(minipong_spec)
    for episode_seed in range(5):
        env.reset(episode_seed)
        total = 0.0
        while True:
            step = env.step(int(rng.integers(3)))
            total += step.reward
            if step.terminal:
                break
        assert minipong_spec.score_min <= total <= minipong_spec.score_max
        assert total == int(total)   # pong scores are integral


def test_minipong_requires_size_12():
    with pytest.raises(ValueError):
        make_spec("minipong", size=10)


def test_unknown_env_rejected():
    with pytest.raises(ValueError):
        make_spec("atari")
