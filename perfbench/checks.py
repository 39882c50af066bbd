"""Correctness checks on the program's outputs.

Each check compares an output against an independent computation or a
required property and raises CheckFailed with what it saw. None of them
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from collections import deque

import numpy as np

from policyprobe import nn
from policyprobe import envs
from policyprobe.envs import EnvSpec

IMPACT_TOLERANCE = 1e-12    # the drift `policyprobe report` accepts
NORM_TOLERANCE = 1e-12      # [0, 1]-scale distances recomputed from pixels


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Reference computations
# ---------------------------------------------------------------------------

def argmax_action(params: nn.ParamSet, obs) -> int:
    """Greedy action from the raw network output, ties to the lowest."""
    x = np.asarray(obs, dtype=np.float64) / 255.0
    return int(np.argmax(nn.forward(params, x)[-1]))


def rollout(params: nn.ParamSet, env, view, episode_seed: int
            ) -> tuple[float, int]:
    """Episode score (exact sum) and length with the policy acting on
    view(obs) while the environment advances on obs."""
    obs = env.reset(episode_seed)
    rewards = []
    terminal = False
    while not terminal:
        step = env.step(argmax_action(params, view(obs)))
        rewards.append(step.reward)
        obs, terminal = step.observation, step.terminal
    return math.fsum(rewards), len(rewards)


@functools.lru_cache(maxsize=None)
def best_return(spec: EnvSpec, episode_seed: int) -> float:
    """Score of a shortest path to the goal: found by breadth-first search
    on the rendered start observation, then walked in the environment so
    that the score is summed the way the program sums episodes.

    `envs.oracle_return` is not used: its 1 - 0.01 * (d - 1) rounds below
    the exact score of an optimal episode for some distances d.
    """
    env = envs.make_env(spec)
    cells = env.reset(episode_seed)[1::envs.CELL, 1::envs.CELL, 0]
    start = tuple(np.argwhere(cells == envs.SHADE_AGENT)[0])
    goal = tuple(np.argwhere(cells == envs.SHADE_GOAL)[0])
    moves = envs.PixelGridEnv.MOVES        # action order up, down, left, right
    path = {start: []}
    queue = deque([start])
    while goal not in path:
        cell = queue.popleft()
        for action, (dr, dc) in enumerate(moves):
            nxt = (cell[0] + dr, cell[1] + dc)
            if nxt not in path and 0 <= nxt[0] < spec.size \
                    and 0 <= nxt[1] < spec.size \
                    and cells[nxt] != envs.SHADE_WALL:
                path[nxt] = path[cell] + [action]
                queue.append(nxt)
    steps = [env.step(a) for a in path[goal]]
    require(steps[-1].terminal and not steps[-1].truncated,
            f"shortest path of episode {episode_seed} does not end the episode")
    return math.fsum(s.reward for s in steps)


def inf_norm(delta) -> float:
    return float(np.abs(delta).max())


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def parse_sweep_csv(text: str) -> list[dict]:
    rows = list(csv.reader(io.StringIO(text)))
    require(bool(rows) and rows[0][0] == "schema=sweep_v1",
            "sweep.csv: missing sweep_v1 header")
    keys = rows[0][1:]
    out = []
    for row in rows[1:]:
        rec = dict(zip(keys, row))
        for k in ("value", "score", "mean_similarity", "impact_point"):
            rec[k] = float(rec[k])
        for k in ("run", "episode_seed"):
            rec[k] = int(rec[k])
        out.append(rec)
    return out


def check_sweep_rows(rows: list[dict], spec: EnvSpec,
                     expected: dict[tuple[str, float, int], float],
                     clean: dict[str, list[float]],
                     identity_value: float | None) -> None:
    """Check every row of one sweep.csv.

    expected maps (policy, value, episode seed) to the score of the
    benchmark's own rollout; clean maps each policy to its own clean scores
    for seeds 0..runs-1. identity_value is the grid value at which the
    perturbation is the identity, if the grid has one.
    """
    keys = [(r["policy"], r["value"], r["episode_seed"]) for r in rows]
    require(sorted(keys) == sorted(expected),
            f"sweep rows {sorted(set(keys) ^ set(expected))} do not match "
            "the grid")
    points: dict[tuple[str, float], list[dict]] = {}
    for r in rows:
        seed = r["episode_seed"]
        require(r["run"] == seed, f"run {r['run']} has episode seed {seed}")
        top = best_return(spec, seed)
        require(spec.score_min <= r["score"] <= top,
                f"{r['policy']} at {r['value']:g}, seed {seed}: score "
                f"{r['score']!r} outside [{spec.score_min}, {top}]")
        require(r["score"] == expected[(r["policy"], r["value"], seed)],
                f"{r['policy']} at {r['value']:g}, seed {seed}: score "
                f"{r['score']!r}, own rollout "
                f"{expected[(r['policy'], r['value'], seed)]!r}")
        require(r["mean_similarity"] >= 0.0,
                f"negative similarity {r['mean_similarity']!r}")
        if r["value"] == identity_value:
            require(r["score"] == clean[r["policy"]][seed],
                    f"{r['policy']} identity point, seed {seed}: score "
                    f"{r['score']!r} != clean {clean[r['policy']][seed]!r}")
            require(r["mean_similarity"] == 0.0 and r["impact_point"] == 0.0,
                    f"{r['policy']} identity point: similarity "
                    f"{r['mean_similarity']!r}, impact "
                    f"{r['impact_point']!r}")
        points.setdefault((r["policy"], r["value"]), []).append(r)
    for (policy, value), grp in points.items():
        stored = {r["impact_point"] for r in grp}
        require(len(stored) == 1,
                f"{policy} at {value:g}: impact column differs between runs")
        clean_mean = float(np.mean(clean[policy]))
        mean = float(np.mean([r["score"] for r in grp]))
        impact = (clean_mean - mean) / (clean_mean - spec.score_min)
        stored_impact = stored.pop()
        require(abs(stored_impact - impact) <= IMPACT_TOLERANCE,
                f"{policy} at {value:g}: stored impact {stored_impact!r}, "
                f"recomputed {impact!r}")


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------

def check_attack(params: nn.ParamSet, obs, result, epsilon: float,
                 minimal: bool) -> None:
    """One attack result on one state (inf-norm ball, [0, 1] scale).

    A success must lie in the ball and change the greedy action; a failure
    of the minimal-distance attack (minimal=True) must hand back the input
    with infinite distance. A one-step attack returns its step either way,
    so its failures must leave the greedy action unchanged.
    """
    obs = np.asarray(obs, dtype=np.float64)
    adv = np.asarray(result.observation, dtype=np.float64)
    if minimal and not result.success:
        require(np.array_equal(adv, obs) and math.isinf(result.distance),
                "failed attack did not return the input with infinite "
                f"distance (distance {result.distance!r})")
        return
    require(adv.shape == obs.shape, f"attack output shape {adv.shape}")
    require(bool(np.all((adv >= 0.0) & (adv <= 255.0))),
            "attack output leaves the pixel range [0, 255]")
    dist = inf_norm(adv / 255.0 - obs / 255.0)
    require(dist <= epsilon + NORM_TOLERANCE,
            f"attack output at distance {dist!r} outside the ball "
            f"{epsilon!r}")
    require(abs(result.distance - dist) <= NORM_TOLERANCE,
            f"reported distance {result.distance!r}, measured {dist!r}")
    flipped = argmax_action(params, adv) != argmax_action(params, obs)
    require(flipped == result.success,
            f"attack reports success={result.success} but the greedy "
            f"action {'changed' if flipped else 'did not change'}")


def check_certified(is_certified: bool, results) -> None:
    """A state certified at the attack radius cannot be flipped."""
    if is_certified:
        require(not any(r.success for r in results),
                "an attack flipped a state certified at its radius")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def check_trained(ck, config, spec: EnvSpec, episode_seed_base: int) -> None:
    require(ck.config == config, "checkpoint config differs from the run's")
    require(ck.trained_steps == config.total_steps,
            f"trained {ck.trained_steps} steps, config asks "
            f"{config.total_steps}")
    for _, name, arr in ck.params.arrays():
        require(bool(np.all(np.isfinite(arr))), f"non-finite {name}")
    require([ep for ep, _ in ck.curve] == list(range(len(ck.curve))),
            "curve episodes are not numbered 0..n-1")
    for episode, ret in ck.curve:
        top = best_return(spec, episode_seed_base + episode)
        require(spec.score_min <= ret <= top,
                f"curve episode {episode}: return {ret!r} outside "
                f"[{spec.score_min}, {top}]")


def check_same_id(what: str, got: str, want: str) -> None:
    require(got == want, f"{what}: id {got}, expected {want}")
