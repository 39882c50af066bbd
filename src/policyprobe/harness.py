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
AttackSpec (recomputed against the policy at every step).

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
repeat gets the very bits a recomputation would. A policy that loses its
way loops over a few cells until the step cap, so most steps are repeats.
A sweep keeps one grid value's views alive at a time, at most runs x
episode_cap x policies entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def direction_label(direction: Direction) -> str:
    if isinstance(direction, perturb.PerturbationSpec):
        return direction.label()
    return (f"{direction.method}[p={'inf' if math.isinf(direction.p) else 'l2'},"
            f"eps={direction.epsilon:g}]")


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass
class StepTrace:
    step: int
    action: int
    reward: float
    similarity: float
    base_obs: Array          # uint8 copies of the true and perturbed views
    perturbed_obs: Array
    attack_distance: float = 0.0
    attack_success: bool = False


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


@dataclass
class SweepPoint:
    policy: str
    value: float
    report: ProbeReport


@dataclass
class SweepResult:
    family: str
    parameter: str
    values: list[float]
    policies: list[str]
    points: list[SweepPoint] = field(default_factory=list)

    def point(self, policy: str, value: float) -> SweepPoint:
        for pt in self.points:
            if pt.policy == policy and pt.value == value:
                return pt
        raise KeyError(f"no sweep point for ({policy}, {value})")


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


# ---------------------------------------------------------------------------
# Episode probe
# ---------------------------------------------------------------------------

# observation bytes -> (view, attack distance, attack success, similarity)
Views = dict[bytes, tuple[Array, float, bool, float]]


def view(params: nn.ParamSet, obs: Array, direction: Direction,
         fnet: perceptual.FeatureNet,
         views: Views) -> tuple[Array, float, bool, float]:
    """What the policy sees at one observation: the perturbed or attacked
    view, the attack's distance and success, and the view's similarity to
    the observation. Read from `views`, or computed and stored there."""
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
               else perceptual.lpips(fnet, obs, viewed))
        views[key] = viewed, dist, success, sim
    return views[key]


def probe_episode(params: nn.ParamSet, spec: EnvSpec, direction: Direction,
                  episode_seed: int,
                  fnet: perceptual.FeatureNet | None = None,
                  keep_trace: bool = True,
                  views: Views | None = None,
                  actions: dict[bytes, int] | None = None,
                  ) -> tuple[float, float, int, list[StepTrace]]:
    """One rollout with the policy viewing perturbed observations.

    Returns (total reward, mean per-step similarity, env steps taken,
    per-step trace). `views` and `actions` are the memos of the module
    docstring, keyed on observation bytes. A caller may share them across
    episodes: `views` along one direction (and, for an attack, one policy),
    `actions` for one policy along one direction. Each defaults to a fresh
    dict for this episode.
    """
    if fnet is None:
        fnet = perceptual.load_reference_featurenet()
    views = {} if views is None else views
    actions = {} if actions is None else actions
    env = make_env(spec)
    obs = env.reset(episode_seed)
    rewards: list[float] = []
    sim_sum, steps = 0.0, 0
    trace: list[StepTrace] = []
    terminal = False
    while not terminal:
        viewed, dist, success, sim = view(params, obs, direction, fnet, views)
        key = obs.tobytes()
        if key not in actions:
            actions[key] = greedy_action(params, viewed)
        action = actions[key]
        step = env.step(action)
        if keep_trace:
            trace.append(StepTrace(steps, action, step.reward, sim,
                                   obs.astype(np.uint8),
                                   viewed.astype(np.uint8),
                                   dist if math.isfinite(dist) else 0.0,
                                   success))
        rewards.append(step.reward)
        sim_sum += sim
        steps += 1
        obs, terminal = step.observation, step.terminal
    return (episode_return(rewards), sim_sum / steps if steps else 0.0,
            steps, trace)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def aggregate(direction: Direction, env_spec: EnvSpec, runs: list[RunRecord],
              score_clean: float, checkpoint_id: str = "",
              featurenet_version: str = perceptual.FEATURENET_VERSION,
              ) -> ProbeReport:
    """Fold per-run records into a report; impact uses the env's fixed
    minimum and the supplied paired clean mean."""
    if not runs:
        raise ValueError("at least one run required")
    scores = np.array([r.score for r in runs])
    sims = np.array([r.mean_similarity for r in runs])
    return ProbeReport(
        direction=direction_label(direction),
        direction_spec=direction,
        env_id=env_spec.env_id,
        checkpoint_id=checkpoint_id,
        featurenet_version=featurenet_version,
        runs=list(runs),
        seeds=[r.episode_seed for r in runs],
        mean_score=float(scores.mean()),
        sem_score=sem(scores),
        mean_similarity=float(sims.mean()),
        sem_similarity=sem(sims),
        score_clean=score_clean,
        score_min_fixed=env_spec.score_min,
        impact=impact(score_clean, float(scores.mean()), env_spec.score_min),
    )


def probe(params: nn.ParamSet, spec: EnvSpec, direction: Direction,
          runs: int = DEFAULT_RUNS,
          fnet: perceptual.FeatureNet | None = None,
          checkpoint_id: str = "",
          clean_scores: Array | None = None,
          views: Views | None = None,
          ) -> ProbeReport:
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
    if fnet is None:
        fnet = perceptual.load_reference_featurenet()
    seeds = list(range(runs))
    if clean_scores is None:
        clean_scores = clean_baseline(params, spec, runs, fnet)
    elif len(clean_scores) != runs:
        raise ValueError("clean_scores length must match run count")
    views = {} if views is None else views
    actions: dict[bytes, int] = {}
    records = []
    for seed in seeds:
        score, sim, steps, _ = probe_episode(params, spec, direction, seed,
                                             fnet, False, views, actions)
        records.append(RunRecord(seed, score, sim, steps))
    return aggregate(direction, spec, records, float(np.mean(clean_scores)),
                     checkpoint_id, fnet.version)


def clean_baseline(params: nn.ParamSet, spec: EnvSpec, runs: int,
                   fnet: perceptual.FeatureNet | None = None) -> Array:
    """Paired clean scores for seeds 0 .. runs-1 (identity direction, whose
    views never reach lpips)."""
    views: Views = {}
    actions: dict[bytes, int] = {}
    return np.array([probe_episode(params, spec, IDENTITY, seed, fnet, False,
                                   views, actions)[0]
                     for seed in range(runs)])


# ---------------------------------------------------------------------------
# Verdicts and sweeps
# ---------------------------------------------------------------------------

def hsd_verdict(report: ProbeReport, clean_report: ProbeReport,
                eps_threshold: float, delta_threshold: float) -> bool:
    """Empirical high-sensitivity test: similarity within eps_threshold and
    mean perturbed return below delta_threshold times the clean mean.

    The score test is a fraction of the clean mean, which reads backwards
    when that mean is not positive (a MiniPong rise from -2.0 to -1.5
    would pass it), so such a clean report is refused."""
    if report.env_id != clean_report.env_id \
            or report.checkpoint_id != clean_report.checkpoint_id:
        raise ValueError("reports compare different envs or policies")
    if not clean_report.mean_score > 0:
        raise ValueError(
            f"clean mean score {clean_report.mean_score!r} is not positive: "
            "a fraction of it is no score threshold")
    return (report.mean_similarity <= eps_threshold
            and report.mean_score < delta_threshold * clean_report.mean_score)


def fixed_direction_verdict(reports: list[ProbeReport],
                            clean_reports: list[ProbeReport],
                            eps_threshold: float,
                            delta_threshold: float) -> bool:
    """A fixed direction qualifies only if it is high-sensitivity for every
    supplied policy."""
    if len(reports) != len(clean_reports) or not reports:
        raise ValueError("need one clean report per probed report")
    for rep in reports:
        if not isinstance(rep.direction_spec, perturb.PerturbationSpec):
            raise ValueError("fixed-direction verdicts need "
                             "policy-independent directions")
    return all(hsd_verdict(r, c, eps_threshold, delta_threshold)
               for r, c in zip(reports, clean_reports))


def sweep(policies: list[tuple[str, nn.ParamSet]], spec: EnvSpec, family: str,
          parameter: str, values: list[float], runs: int = DEFAULT_RUNS,
          fnet: perceptual.FeatureNet | None = None,
          base_direction: perturb.PerturbationSpec | None = None,
          checkpoint_ids: dict[str, str] | None = None,
          ) -> SweepResult:
    """Probe every (policy, grid value) pair: the Figure-2-style protocol.

    The grid must be strictly increasing; integer-valued parameters (blur
    kernel, shift distances, perspective seed) are cast from the grid
    values (see perturb.spec_with). Clean baselines are rolled once per
    policy, in policy order, and shared across the grid; a policy whose
    clean baseline sits at the fixed minimum is refused by name before any
    grid point is probed. Policy names must be unique. The policies share
    one views dict per grid value (see the module docstring). Points are
    listed policy by policy.
    """
    if any(b >= a for a, b in zip(values[1:], values)):
        raise ValueError("sweep grid must be strictly increasing")
    if not policies:
        raise ValueError("need at least one policy")
    names = [name for name, _ in policies]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"duplicate policy name {name!r} in sweep")
    if fnet is None:
        fnet = perceptual.load_reference_featurenet()
    ids = checkpoint_ids or {}
    cleans = []
    for name, params in policies:
        clean = clean_baseline(params, spec, runs, fnet)
        check_baseline(float(np.mean(clean)), spec.score_min, name)
        cleans.append(clean)
    reports: dict[tuple[str, float], ProbeReport] = {}
    for value in values:
        direction = perturb.spec_with(family, parameter, value,
                                      base_direction)
        views: Views = {}
        for (name, params), clean in zip(policies, cleans):
            reports[(name, value)] = probe(params, spec, direction, runs,
                                           fnet, ids.get(name, ""),
                                           clean_scores=clean, views=views)
    result = SweepResult(family, parameter, list(values), names)
    result.points = [SweepPoint(name, float(value), reports[(name, value)])
                     for name in names for value in values]
    return result
