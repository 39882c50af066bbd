"""Probe protocol: roll out a frozen policy on perturbed observations.

Each probe episode feeds the policy a translated observation at every step
while the environment itself advances on the true state — the perturbation
bends only what the policy sees. The probe accumulates total reward and the
mean perceptual similarity between true and perturbed observations, and
aggregates runs into a report with the normalized impact

    I = (Score_clean - Score_adv) / (Score_clean - Score_min_fixed)

where Score_clean is the measured mean over paired clean runs and
Score_min_fixed is the environment's documented fixed minimum. Run i of any
probe on the same environment uses episode seed i, so clean and perturbed
scores are always paired.

Directions are either a PerturbationSpec (policy-independent, fixed) or an
AttackSpec (recomputed against the policy at every step). A `sweep` returns
its reports in a dict keyed by (policy name, grid value).

What the policy sees at an observation depends only on the direction and
the observation, and for an attack on the policy too: perturbations are
deterministic and attacks seed their own restarts. So `view` computes the
view, the attack's distance and success, and the view's similarity once
per distinct observation and reads them back from a views dict keyed on
the observation's bytes. One dict serves one direction, and for an attack
one policy. It is shared by the runs of a `probe` call, by the policies of
a `sweep` at one grid value, by `policyprobe attack`'s table and its
rollout probe, and across the states of one `policyprobe spectrum`
direction. The greedy action on the view is memoized the same way in an
actions dict, one per `probe` call. Every call runs at batch size 1, so a
repeat gets the very bits a recomputation would. A sweep keeps one grid
value's views alive at a time, at most runs x episode_cap x policies
entries.

A policy that loses its way loops over a few states until the step cap.
A step depends only on the env's `state_key`, which fixes the observation
and so the action: once a state repeats, every later step repeats the
loop, which no terminal step can end. So `probe_episode` stops stepping
there and replays the loop's records, in step order, up to the cap.

The clean observation's activations and forward DCT do not depend on the
direction, so perceptual and perturb cache them per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import attack as attack_mod
from . import nn, perceptual, perturb
from .envs import EnvSpec, episode_return, make_env
from .qlearning import greedy_action

Array = np.ndarray

Direction = perturb.PerturbationSpec | attack_mod.AttackSpec

DEFAULT_RUNS = 10

# A probe along the identity is a clean rollout: its trace holds every
# visited state and the clean action.
IDENTITY = perturb.PerturbationSpec()


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    episode_seed: int
    score: float
    mean_similarity: float
    episode_length: int


@dataclass
class ProbeReport:
    direction: str                      # human-readable direction label
    direction_spec: Direction
    env_id: str
    checkpoint_id: str
    featurenet_version: str
    runs: list[RunRecord]
    seeds: list[int]
    mean_score: float
    sem_score: float
    mean_similarity: float
    sem_similarity: float
    score_clean: float                  # paired clean-run mean
    score_min_fixed: float
    impact: float


# ---------------------------------------------------------------------------
# Core metrics
# ---------------------------------------------------------------------------

def impact(score_clean: float, score_adv: float, score_min: float) -> float:
    """Normalized impact; unclamped, so values outside [0, 1] are meaningful
    (a helpful perturbation gives a negative impact)."""
    check_baseline(score_clean, score_min)
    return (score_clean - score_adv) / (score_clean - score_min)


def check_baseline(score_clean: float, score_min: float,
                   policy: str | None = None) -> None:
    """Refuse a clean score at or below the fixed minimum: a policy pinned
    to the floor has no baseline to normalize against."""
    if not score_clean > score_min:
        who = f"policy {policy!r}: " if policy is not None else ""
        raise ValueError(
            f"{who}degenerate baseline: clean score {score_clean} must "
            f"exceed the fixed minimum {score_min}")


def sem(values: Array | list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def summarize(scores: Array | list[float], sims: Array | list[float]
              ) -> tuple[float, float, float, float]:
    """Mean and SEM of a set of run scores, then of their similarities."""
    return (float(np.mean(scores)), sem(scores),
            float(np.mean(sims)), sem(sims))


# ---------------------------------------------------------------------------
# Episode probe
# ---------------------------------------------------------------------------

# observation bytes -> (view, attack distance, attack success, similarity)
Views = dict[bytes, tuple[Array, float, bool, float]]


def view(params: nn.ParamSet, obs: Array, direction: Direction,
         views: Views) -> tuple[Array, float, bool, float]:
    """What the policy sees at one observation: the perturbed or attacked
    view, the attack's distance and success, and the view's similarity to
    the observation under the reference featurenet. Read from `views`, or
    computed and stored there."""
    key = obs.tobytes()
    if key not in views:
        if isinstance(direction, perturb.PerturbationSpec):
            viewed = perturb.apply(direction, obs)
            dist, success = 0.0, False
        else:
            result = attack_mod.run_attack(params, obs, direction)
            viewed = result.observation
            dist, success = result.distance, result.success
            if success and dist > direction.epsilon + 1e-9:
                raise AssertionError("attack left its ball "
                                     f"({dist} > {direction.epsilon})")
        sim = (0.0 if np.array_equal(viewed, obs)
               else perceptual.lpips(perceptual.reference_featurenet(),
                                     obs, viewed))
        views[key] = viewed, dist, success, sim
    return views[key]


def probe_episode(params: nn.ParamSet, spec: EnvSpec, direction: Direction,
                  episode_seed: int, views: Views | None = None,
                  actions: dict[bytes, int] | None = None,
                  ) -> tuple[float, float, int, list[tuple[Array, int]]]:
    """One rollout with the policy viewing perturbed observations.

    Returns (total reward, mean per-step similarity, env steps taken,
    trace), the trace being each step's (true observation, action); each
    observation's view and scores are in `views`. `views` and `actions`
    are the memos of the module docstring, keyed on observation bytes. A
    caller may share them across episodes: `views` along one direction
    (and, for an attack, one policy), `actions` for one policy along one
    direction. Each defaults to a fresh dict for this episode.
    """
    views = {} if views is None else views
    actions = {} if actions is None else actions
    env = make_env(spec)
    obs = env.reset(episode_seed)
    trace: list[tuple[Array, int]] = []
    rewards: list[float] = []
    sims: list[float] = []
    visited: dict = {}   # env state key -> index of the step taken from it
    terminal = False
    while not terminal:
        t = len(trace)
        loop = t - visited.setdefault(env.state_key(), t)
        if loop:   # the state repeats: replay the loop up to the cap
            for i in range(t, spec.episode_cap):
                for record in (trace, rewards, sims):
                    record.append(record[i - loop])
            break
        key = obs.tobytes()
        seen = views.get(key)
        if seen is None:
            seen = view(params, obs, direction, views)
        viewed, _, _, sim = seen
        if key not in actions:
            actions[key] = greedy_action(params, viewed)
        action = actions[key]
        step = env.step(action)
        trace.append((obs, action))
        rewards.append(step.reward)
        sims.append(sim)
        obs, terminal = step.observation, step.terminal
    sim_sum = 0.0
    for sim in sims:
        sim_sum += sim
    return episode_return(rewards), sim_sum / len(sims), len(sims), trace


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def aggregate(direction: Direction, env_spec: EnvSpec, runs: list[RunRecord],
              score_clean: float, checkpoint_id: str = "") -> ProbeReport:
    """Fold per-run records into a report; impact uses the env's fixed
    minimum and the supplied paired clean mean."""
    if not runs:
        raise ValueError("at least one run required")
    mean_score, sem_score, mean_sim, sem_sim = summarize(
        [r.score for r in runs], [r.mean_similarity for r in runs])
    return ProbeReport(
        direction=direction.label(),
        direction_spec=direction,
        env_id=env_spec.env_id,
        checkpoint_id=checkpoint_id,
        featurenet_version=perceptual.FEATURENET_VERSION,
        runs=list(runs),
        seeds=[r.episode_seed for r in runs],
        mean_score=mean_score,
        sem_score=sem_score,
        mean_similarity=mean_sim,
        sem_similarity=sem_sim,
        score_clean=score_clean,
        score_min_fixed=env_spec.score_min,
        impact=impact(score_clean, mean_score, env_spec.score_min),
    )


def probe(params: nn.ParamSet, spec: EnvSpec, direction: Direction,
          runs: int = DEFAULT_RUNS,
          checkpoint_id: str = "",
          clean_scores: Array | None = None,
          views: Views | None = None) -> ProbeReport:
    """Probe a policy along one direction with paired clean runs.

    Episode seeds are 0 .. runs-1 for both the clean baseline and the
    perturbed runs. Precomputed clean_scores (same seeds) can be passed to
    avoid re-rolling the baseline across many probes. Every run shares one
    views dict and one actions dict (see the module docstring); a caller
    may pass `views` it filled along the same direction, against the same
    policy if the direction is an attack.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    seeds = list(range(runs))
    if clean_scores is None:
        clean_scores = clean_baseline(params, spec, runs)
    elif len(clean_scores) != runs:
        raise ValueError("clean_scores length must match run count")
    views = {} if views is None else views
    actions: dict[bytes, int] = {}
    records = []
    for seed in seeds:
        score, sim, steps, _ = probe_episode(params, spec, direction, seed,
                                             views, actions)
        records.append(RunRecord(seed, score, sim, steps))
    return aggregate(direction, spec, records, float(np.mean(clean_scores)),
                     checkpoint_id)


def clean_baseline(params: nn.ParamSet, spec: EnvSpec, runs: int) -> Array:
    """Paired clean scores for seeds 0 .. runs-1 (identity direction, whose
    views never reach lpips)."""
    views: Views = {}
    actions: dict[bytes, int] = {}
    return np.array([probe_episode(params, spec, IDENTITY, seed, views,
                                   actions)[0]
                     for seed in range(runs)])


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def sweep(policies: list[tuple[str, nn.ParamSet]], spec: EnvSpec, family: str,
          parameter: str, values: list[float], runs: int = DEFAULT_RUNS,
          checkpoint_ids: dict[str, str] | None = None,
          ) -> dict[tuple[str, float], ProbeReport]:
    """Probe every (policy, grid value) pair: the Figure-2-style protocol.
    Returns the reports keyed by (policy name, float(value)), in policy-major
    order: policy by policy as given, each over the grid in order.

    The grid must be strictly increasing; integer-valued parameters (blur
    kernel, shift distances) take only integral grid values (see
    perturb.as_int). Clean baselines are rolled once per policy, in
    policy order, and shared across the grid; a policy whose
    clean baseline sits at the fixed minimum is refused by name before any
    grid point is probed. Policy names must be unique. The policies share
    one views dict per grid value (see the module docstring).
    """
    if any(b >= a for a, b in zip(values[1:], values)):
        raise ValueError("sweep grid must be strictly increasing")
    if not policies:
        raise ValueError("need at least one policy")
    names = [name for name, _ in policies]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"duplicate policy name {name!r} in sweep")
    ids = checkpoint_ids or {}
    cleans = []
    for name, params in policies:
        clean = clean_baseline(params, spec, runs)
        check_baseline(float(np.mean(clean)), spec.score_min, name)
        cleans.append(clean)
    reports: dict[tuple[str, float], ProbeReport] = {}
    for value in values:
        direction = perturb.spec_with(family, parameter, value)
        views: Views = {}
        for (name, params), clean in zip(policies, cleans):
            reports[(name, value)] = probe(params, spec, direction, runs,
                                           ids.get(name, ""),
                                           clean_scores=clean, views=views)
    return {(name, float(value)): reports[(name, value)]
            for name in names for value in values}
