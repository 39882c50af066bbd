"""Double-DQN training with prioritized replay and certified objectives.

Three objectives share one loop:
  vanilla   Huber temporal-difference loss only
  sa-ddqn   td + hinge regularizer max(max_{a'!=a*}(U(a') - L(a*)), -c)
            with U/L interval bounds over the eps_rob ball around the state
  radial    td + adv_weight * overlap loss: for each action a',
            OV = max(0, U(a') - L(a) + Qdiff/2), Qdiff = max(0, Q(a')-Q(a)),
            summed as OV*Qdiff over actions, averaged over the batch

Networks always consume observations scaled to [0, 1]; eps_rob and the
certification radius live on that scale. Public entry points accept raw
[0, 255] observations and scale internally.

The Double-DQN target is r + gamma * Q_target(s', argmax_a Q_online(s', a))
with no bootstrapping on terminal transitions; proportional prioritized
replay follows P(i) ~ p_i^alpha_pr with importance weights
(N*P(i))^(-beta_is) normalized by their max, priorities updated to
|td error| + priority floor after each step.

Acting memoizes the greedy action. The online net changes only in an
optimizer step, so between two updates a greedy step on an observation
the net has already scored reads the action back from a dict keyed on
the observation's bytes. The dict is cleared after every update; a
target sync leaves the online net alone. A repeat would run the same
batch-1 forward on the same bits, so the memo changes no output, and
the exploration draw comes first, so it moves no random draw. It holds
the distinct observations of one parameter version; repeats are common
because a fine-tune's warmup never updates the net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .envs import EnvSpec, episode_return, make_env

Array = np.ndarray

OBS_SCALE = 255.0
HUBER_THRESHOLD = 1.0
TRAIN_EPISODE_SEED_BASE = 1_000_000  # keeps training starts off the eval seeds

OBJECTIVES = ("vanilla", "sa-ddqn", "radial")


# ---------------------------------------------------------------------------
# Config and result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    objective: str = "vanilla"
    total_steps: int = 30_000
    lr: float = 5e-4
    # 0.9 keeps per-action value gaps well above the approximation noise on
    # desk-scale grids; flatter discounts make the greedy argmax fragile
    gamma: float = 0.9
    eps_start: float = 1.0       # exploration schedule (linear decay)
    eps_end: float = 0.05
    eps_decay_steps: int = 15_000
    target_sync: int = 500
    replay_capacity: int = 50_000
    batch_size: int = 32
    alpha_pr: float = 0.6
    beta_is_start: float = 0.4   # annealed linearly to beta_is_end
    beta_is_end: float = 1.0
    priority_floor: float = 1e-3
    train_every: int = 4
    warmup_steps: int = 500
    eps_rob: float = 0.0         # certified-training radius, [0,1] pixel scale
    # the radius ramps linearly from 0 to eps_rob over eps_ramp_steps,
    # starting at eps_ramp_start; training on the full ball from step one
    # wrecks the policy before it forms
    eps_ramp_start: int = 3_000
    eps_ramp_steps: int = 9_000
    sa_hinge_cap: float = 1.0    # the hinge floor constant c
    adv_weight: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        for name in ("lr", "alpha_pr", "priority_floor", "eps_rob",
                     "sa_hinge_cap", "adv_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.adv_weight < 0:   # it would train the overlap in reverse
            raise ValueError("adv_weight must be >= 0")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.eps_rob < 0:
            raise ValueError("eps_rob must be >= 0")
        if self.eps_ramp_start < 0 or self.eps_ramp_steps < 1:
            raise ValueError("bad eps_rob ramp settings")
        if self.sa_hinge_cap <= 0:
            raise ValueError("sa_hinge_cap must be > 0")
        if self.lr <= 0 or self.total_steps < 0 or self.batch_size < 1:
            raise ValueError("bad optimizer/loop settings")
        if self.batch_size > self.replay_capacity:   # it would never update
            raise ValueError("batch_size must not exceed replay_capacity")
        if self.alpha_pr < 0 or self.priority_floor <= 0:
            raise ValueError("alpha_pr must be >= 0 and priority_floor > 0")
        if self.train_every < 1 or self.target_sync < 1:
            raise ValueError("train_every and target_sync must be >= 1")
        for name in ("eps_start", "eps_end", "beta_is_start", "beta_is_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass
class Checkpoint:
    params: nn.ParamSet
    env_spec: EnvSpec
    config: TrainConfig
    curve: list[tuple[int, float]] = field(default_factory=list)
    trained_steps: int = 0


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

class ReplayBuffer:
    """Ring buffer of transitions with proportional prioritized sampling.
    `push` keeps uint8 copies of a transition's observations. `sample`
    returns (states, actions, rewards, next states, terminal flags) as
    batch arrays, the states scaled to [0, 1], with the importance weights
    and the drawn buffer indices."""

    def __init__(self, capacity: int, alpha_pr: float, beta_is: float,
                 priority_floor: float, seed: int):
        if capacity < 1 or alpha_pr < 0 or not 0 <= beta_is <= 1 \
                or priority_floor <= 0:
            raise ValueError("bad replay settings")
        self.capacity = capacity
        self.alpha_pr = alpha_pr
        self.beta_is = beta_is
        self.priority_floor = priority_floor
        self._items: list[tuple] = []
        self._prio = np.zeros(capacity)
        self._next = 0
        self._rng = np.random.default_rng([seed, 41])

    def __len__(self) -> int:
        return len(self._items)

    def push(self, s: Array, a: int, r: float, s_next: Array,
             terminal: bool) -> None:
        tr = (s.astype(np.uint8), a, r, s_next.astype(np.uint8), terminal)
        prio = self._prio[:len(self._items)].max() if self._items else 1.0
        if len(self._items) < self.capacity:
            self._items.append(tr)
        else:
            self._items[self._next] = tr
        self._prio[self._next] = prio
        self._next = (self._next + 1) % self.capacity

    def probabilities(self) -> Array:
        p = self._prio[:len(self._items)] ** self.alpha_pr
        return p / p.sum()

    def sample(self, batch_size: int) -> tuple[tuple[Array, ...], Array, Array]:
        n = len(self._items)
        if n < batch_size:
            raise ValueError(f"buffer holds {n} < batch size {batch_size}")
        probs = self.probabilities()
        idx = self._rng.choice(n, size=batch_size, replace=True, p=probs)
        weights = (n * probs[idx]) ** (-self.beta_is)
        weights = weights / weights.max()
        s, a, r, s_next, term = zip(*(self._items[i] for i in idx))
        return ((np.stack(s).astype(np.float64) / OBS_SCALE, np.array(a),
                 np.array(r), np.stack(s_next).astype(np.float64) / OBS_SCALE,
                 np.array(term)), weights, idx)

    def update_priorities(self, indices: Array, td_errors: Array) -> None:
        self._prio[indices] = np.abs(td_errors) + self.priority_floor


# ---------------------------------------------------------------------------
# Policy surface
# ---------------------------------------------------------------------------

def greedy_action(net: nn.ParamSet, obs: Array) -> int:
    """Argmax of Q(s, .) for one raw [0, 255] observation; ties break to
    the lowest index."""
    x = np.asarray(obs, dtype=np.float64) / OBS_SCALE
    return int(np.argmax(nn.forward(net, x)[-1]))


def input_box(x: Array, eps_rob: float) -> tuple[Array, Array]:
    """The eps ball around a [0, 1]-scaled input, clamped to pixel range."""
    return np.clip(x - eps_rob, 0.0, 1.0), np.clip(x + eps_rob, 0.0, 1.0)


def certified(net: nn.ParamSet, obs: Array, eps_rob: float) -> bool:
    """True when the greedy action provably survives every perturbation in
    the eps_rob ball: lower(Q(a*)) > upper(Q(a')) for all other actions,
    so a net with one action is certified."""
    a_star = greedy_action(net, obs)
    x = np.asarray(obs, dtype=np.float64) / OBS_SCALE
    lo, hi = input_box(x, eps_rob)
    lower, upper = nn.ibp_forward_batch(net, lo[None], hi[None])
    return bool((lower[0, a_star] > np.delete(upper[0], a_star)).all())


# ---------------------------------------------------------------------------
# Losses: values and training gradients
# ---------------------------------------------------------------------------

def _huber(delta: Array) -> Array:
    a = np.abs(delta)
    return np.where(a <= HUBER_THRESHOLD, 0.5 * delta ** 2,
                    HUBER_THRESHOLD * (a - 0.5 * HUBER_THRESHOLD))


def _dqn_targets(online: nn.ParamSet, target: nn.ParamSet,
                 r: Array, s_next: Array, term: Array, gamma: float) -> Array:
    q_next_online = nn.forward_batch(online, s_next)[-1]
    q_next_target = nn.forward_batch(target, s_next)[-1]
    pick = np.argmax(q_next_online, axis=1)
    boot = q_next_target[np.arange(len(pick)), pick]
    return r + gamma * np.where(term, 0.0, boot)


def _td_grads(online: nn.ParamSet, target: nn.ParamSet, arrays, gamma,
              weights) -> tuple[float, Array, nn.ParamSet, Array, list]:
    """TD loss, TD errors and parameter gradients for one batch's arrays
    (see ReplayBuffer.sample), plus the online net's Q values on the batch's
    states and the tape of that forward, which the regularizer gradients
    reuse (they only read it)."""
    s, a, r, s_next, term = arrays
    y = _dqn_targets(online, target, r, s_next, term, gamma)
    tape: list = []
    q_all = nn.forward_batch(online, s, tape)[-1]
    rows = np.arange(len(s))
    delta = y - q_all[rows, a]
    td_value = float(np.mean(weights * _huber(delta)))
    gout = np.zeros_like(q_all)
    gout[rows, a] = weights * (-np.clip(delta, -HUBER_THRESHOLD,
                                        HUBER_THRESHOLD)) / len(s)
    grads = nn.backprop_batch(online, gout, "params", tape)
    return td_value, delta, grads, q_all, tape


def _sa_grads(net: nn.ParamSet, s: Array, q: Array, eps_rob,
              c) -> tuple[float, nn.ParamSet]:
    """Hinge regularizer value and gradients; q is net's Q on the states
    s."""
    a_star = np.argmax(q, axis=1)
    lo, hi = input_box(s, eps_rob)
    bound_tape: list = []
    blo, bhi = nn.ibp_forward_batch(net, lo, hi, bound_tape)
    rows = np.arange(len(s))
    upper_others = bhi.copy()
    upper_others[rows, a_star] = -np.inf
    worst = np.argmax(upper_others, axis=1)
    inner = upper_others[rows, worst] - blo[rows, a_star]
    value = float(np.mean(np.maximum(inner, -c)))
    active = inner > -c
    glo = np.zeros_like(blo)
    ghi = np.zeros_like(bhi)
    scale = 1.0 / len(s)
    glo[rows[active], a_star[active]] = -scale
    ghi[rows[active], worst[active]] = scale
    grads = nn.ibp_backprop_batch(net, glo, ghi, bound_tape)
    return value, grads


def _radial_grads(net: nn.ParamSet, s: Array, a: Array, q: Array,
                  tape: list, eps_rob) -> tuple[float, nn.ParamSet]:
    """Overlap loss value and gradients for states s with taken actions a;
    q and tape are net's forward on s."""
    lo, hi = input_box(s, eps_rob)
    bound_tape: list = []
    blo, bhi = nn.ibp_forward_batch(net, lo, hi, bound_tape)
    rows = np.arange(len(s))
    qdiff_raw = q - q[rows, a][:, None]
    qdiff = np.maximum(0.0, qdiff_raw)
    ov_raw = bhi - blo[rows, a][:, None] + 0.5 * qdiff
    ov = np.maximum(0.0, ov_raw)
    value = float(np.mean((ov * qdiff).sum(axis=1)))
    scale = 1.0 / len(s)
    ov_on = (ov_raw > 0).astype(np.float64)
    qd_on = (qdiff_raw > 0).astype(np.float64)
    # d/dU and d/dL through the overlap term
    ghi = scale * qdiff * ov_on
    glo = np.zeros_like(blo)
    np.add.at(glo, (rows, a), -(scale * qdiff * ov_on).sum(axis=1))
    # d/dQ through Qdiff (both as multiplier and inside the overlap)
    dterm_dqdiff = scale * (ov + 0.5 * qdiff * ov_on)
    gq = dterm_dqdiff * qd_on
    np.add.at(gq, (rows, a), -(dterm_dqdiff * qd_on).sum(axis=1))
    grads_q = nn.backprop_batch(net, gq, "params", tape)
    grads_b = nn.ibp_backprop_batch(net, glo, ghi, bound_tape)
    nn.add_scaled(grads_q, grads_b, 1.0)
    return value, grads_q


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _exploration_eps(config: TrainConfig, step: int) -> float:
    if config.eps_decay_steps <= 0:
        return config.eps_end
    frac = min(1.0, step / config.eps_decay_steps)
    return config.eps_start + frac * (config.eps_end - config.eps_start)


def effective_eps_rob(config: TrainConfig, step: int) -> float:
    """Scheduled robust radius: zero until eps_ramp_start, then linear up to
    eps_rob over eps_ramp_steps."""
    frac = (step - config.eps_ramp_start) / config.eps_ramp_steps
    return config.eps_rob * min(1.0, max(0.0, frac))


def _update_grads(online: nn.ParamSet, target: nn.ParamSet, arrays,
                  weights: Array, config: TrainConfig,
                  step: int) -> tuple[Array, nn.ParamSet]:
    """TD errors and the configured objective's parameter gradients for one
    batch's arrays (see ReplayBuffer.sample). The regularizers reuse the
    TD loss's forward on its states, which is freed when this returns."""
    _, delta, grads, q, tape = _td_grads(online, target, arrays, config.gamma,
                                         weights)
    s, a = arrays[0], arrays[1]
    eps_now = effective_eps_rob(config, step)
    if config.objective == "sa-ddqn":
        _, extra = _sa_grads(online, s, q, eps_now, config.sa_hinge_cap)
        nn.add_scaled(grads, extra, 1.0)
    elif config.objective == "radial":
        _, extra = _radial_grads(online, s, a, q, tape, eps_now)
        nn.add_scaled(grads, extra, config.adv_weight)
    return delta, grads


def train(spec: EnvSpec, config: TrainConfig,
          init_params: nn.ParamSet | None = None) -> Checkpoint:
    """Run the configured objective and return the trained checkpoint.

    init_params warm-starts from an existing policy; the certified
    objectives only stay task-competent when fine-tuned this way, because
    their regularizers anchor on replay actions and need those to already
    be near-greedy.

    Greedy actions are memoized per observation until the next optimizer
    step clears the memo (see the module docstring); the result is the
    same bits as scoring every greedy step.
    """
    env = make_env(spec)
    online = init_params.copy() if init_params is not None \
        else nn.qnet_params(spec.obs_shape, spec.n_actions, config.seed)
    target = online.copy()
    opt = nn.Optimizer(config.lr)
    buffer = ReplayBuffer(config.replay_capacity, config.alpha_pr,
                          config.beta_is_start, config.priority_floor,
                          config.seed)
    act_rng = np.random.default_rng([config.seed, 42])
    # observation bytes -> online's greedy action, cleared by each update
    greedy: dict[bytes, int] = {}

    curve: list[tuple[int, float]] = []
    episode_index = 0
    obs = env.reset(TRAIN_EPISODE_SEED_BASE + episode_index)
    episode_rewards: list[float] = []

    for step in range(config.total_steps):
        if act_rng.random() < _exploration_eps(config, step):
            action = int(act_rng.integers(spec.n_actions))
        else:
            key = obs.tobytes()
            if key not in greedy:
                greedy[key] = greedy_action(online, obs)
            action = greedy[key]
        result = env.step(action)
        # cap truncation is not an absorbing state: bootstrap through it
        buffer.push(obs, action, result.reward, result.observation,
                    result.terminal and not result.truncated)
        episode_rewards.append(result.reward)
        obs = result.observation
        if result.terminal:
            curve.append((episode_index, episode_return(episode_rewards)))
            episode_index += 1
            episode_rewards = []
            obs = env.reset(TRAIN_EPISODE_SEED_BASE + episode_index)

        frac = step / max(1, config.total_steps - 1)
        buffer.beta_is = config.beta_is_start + frac * (
            config.beta_is_end - config.beta_is_start)

        if len(buffer) >= max(config.warmup_steps, config.batch_size) \
                and step % config.train_every == 0:
            arrays, weights, idx = buffer.sample(config.batch_size)
            try:
                delta, grads = _update_grads(online, target, arrays, weights,
                                             config, step)
                opt.step(online, grads)
                greedy.clear()
            except nn.NonFiniteError as exc:
                raise nn.NonFiniteError(
                    f"training diverged at step {step} "
                    f"(objective {config.objective}): {exc}") from exc
            buffer.update_priorities(idx, delta)

        if (step + 1) % config.target_sync == 0:
            target = online.copy()

    return Checkpoint(online, spec, config, curve, config.total_steps)
