"""Policy-dependent worst-case observation directions.

Two attacks against a Q-network, both constrained to an eps-ball measured on
[0, 1]-scaled pixels and to the valid pixel range:

  fgm         one gradient step of the classification surrogate
              J = -log softmax(Q)[greedy action], scaled to the ball radius
              under the chosen norm (p = 2 or inf)
  cw_minimal  penalty-method minimal-distance attack: minimize
              ||s_adv - s||_p + c * margin(s_adv) with
              margin = max(0, Q(s_adv, a*) - max_{a' != a*} Q(s_adv, a')),
              with projected gradient descent inside the ball and a binary
              search over the penalty constant c; success only counts when
              the greedy action verifiably flips

The Q-net is piecewise linear, so the margin's input gradient depends only
on the runner-up action and the rectifier masks (see the `nn` determinism
contract); each `cw_minimal` call differentiates every (runner, masks) pair
once and reuses those exact bits for the rest of the call. A descent step
that stalls returns the same iterate byte for byte, and the descent then
reuses that iterate's forward pass instead of running it again.

Inputs and outputs are raw [0, 255] observations; reported distances are on
the [0, 1] scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .qlearning import OBS_SCALE

Array = np.ndarray


@dataclass(frozen=True)
class AttackSpec:
    method: str = "fgm"            # "fgm" | "cw"
    p: float = math.inf            # norm order: 2 or inf
    epsilon: float = 0.1           # ball radius on [0, 1]-scaled pixels
    cw_iterations: int = 200
    cw_step: float = 0.02          # initial step size, decayed linearly
    cw_penalty_lo: float = 1e-3    # binary-search range for the penalty c
    cw_penalty_hi: float = 1e3
    cw_binary_steps: int = 8
    cw_restarts: int = 0           # extra seeded in-ball starts per penalty

    def __post_init__(self):
        if self.method not in ("fgm", "cw"):
            raise ValueError(f"unknown attack method {self.method!r}")
        if self.p not in (2.0, math.inf):
            raise ValueError("norm order p must be 2 or inf")
        # fgm with radius 0 degenerates to the identity and is allowed;
        # the minimal-distance search needs a real ball
        if not 0 <= self.epsilon < math.inf \
                or (self.method == "cw" and self.epsilon == 0):
            raise ValueError("epsilon must be finite and > 0 (>= 0 for fgm)")
        if self.cw_iterations < 1 or self.cw_binary_steps < 1:
            raise ValueError("iteration counts must be >= 1")
        if self.cw_restarts < 0:
            raise ValueError("cw_restarts must be >= 0")
        if not 0 < self.cw_penalty_lo < self.cw_penalty_hi < math.inf:
            raise ValueError("penalty search range must satisfy "
                             "0 < lo < hi < inf")
        if not 0 < self.cw_step < math.inf:
            raise ValueError("cw_step must be positive and finite")

    def label(self) -> str:
        norm = "inf" if math.isinf(self.p) else "l2"
        return f"{self.method}[p={norm},eps={self.epsilon:g}]"


@dataclass
class AttackResult:
    observation: Array    # [0, 255] scale
    distance: float       # ||s_adv - s||_p on [0, 1] scale; inf on failure
    success: bool


def norm_of(delta: Array, p: float) -> float:
    if p == 2.0:
        return float(np.sqrt((delta ** 2).sum()))
    return float(np.abs(delta).max()) if delta.size else 0.0


def _project(delta: Array, p: float, eps: float) -> Array:
    if p == 2.0:
        n = norm_of(delta, 2.0)
        return delta if n <= eps else delta * (eps / n)
    return delta.clip(-eps, eps)


def _greedy(net: nn.ParamSet, x: Array) -> tuple[int, Array]:
    q = nn.forward(net, x)[-1]
    return int(q.argmax()), q


def _surrogate_grad(net: nn.ParamSet, x: Array) -> tuple[int, Array]:
    """Greedy action a* at x and the input gradient of
    J = -log softmax(Q)[a*] = logsumexp(Q) - Q[a*], from one forward pass."""
    tape: list = []
    q = nn.forward(net, x, tape)[-1]
    a_star = int(np.argmax(q))
    z = q - q.max()
    soft = np.exp(z) / np.exp(z).sum()
    gout = soft.copy()
    gout[a_star] -= 1.0
    return a_star, nn.backprop_batch(net, x[None], gout[None], "input",
                                     tape)[0]


def fgm(net: nn.ParamSet, obs: Array, spec: AttackSpec) -> AttackResult:
    """Single normalized gradient step of size epsilon; zero gradient (or
    zero radius) returns the input unchanged."""
    obs = np.asarray(obs, dtype=np.float64)
    x = obs / OBS_SCALE
    a_star, g = _surrogate_grad(net, x)
    if spec.p == 2.0:
        gn = norm_of(g, 2.0)
        delta = np.zeros_like(x) if gn == 0.0 else spec.epsilon * g / gn
    else:
        delta = spec.epsilon * np.sign(g)
    x_adv = np.clip(x + delta, 0.0, 1.0)
    adv = x_adv * OBS_SCALE
    dist = norm_of(x_adv - x, spec.p)
    flipped = _greedy(net, x_adv)[0] != a_star
    return AttackResult(adv, dist, flipped)


def _margin_and_grad(net: nn.ParamSet, x: Array, a_star: int,
                     grads: dict) -> tuple[float, bool, Array]:
    """Hinge margin of the original greedy action, whether the greedy action
    has strictly flipped, and the margin's input gradient (one forward
    pass; no backward pass once the margin is closed).

    `grads` memoizes the gradient by (runner, rectifier masks), the only
    inputs besides the fixed a* that it depends on; the array it returns
    may be shared, so callers must not modify it in place."""
    tape: list = []
    q = nn.forward(net, x, tape)[-1]
    flipped = int(q.argmax()) != a_star
    others = q.copy()
    others[a_star] = -np.inf
    runner = int(others.argmax())
    margin = float(q[a_star] - others[runner])
    if margin <= 0.0:
        return margin, flipped, np.zeros_like(x)
    key = (runner, nn.rectifier_pattern(tape))
    grad = grads.get(key)
    if grad is None:
        gout = np.zeros_like(q)
        gout[a_star] = 1.0
        gout[runner] = -1.0
        grad = grads[key] = nn.backprop_batch(
            net, x[None], gout[None], "input", tape)[0]
    return margin, flipped, grad


def _restart_point(x: Array, spec: AttackSpec, k: int) -> Array:
    """Deterministic k-th alternative start inside the ball around x."""
    rng = np.random.default_rng([1009, k])
    delta = rng.uniform(-spec.epsilon, spec.epsilon, x.shape)
    return np.clip(x + _project(delta, spec.p, spec.epsilon), 0.0, 1.0)


def _cw_inner(net: nn.ParamSet, x: Array, a_star: int, c_pen: float,
              spec: AttackSpec, grads: dict,
              x_start: Array | None = None) -> tuple[Array | None, float]:
    """Projected descent for one penalty constant; returns the closest
    flipped iterate (scaled coords) and its distance, or (None, inf).
    `grads` is the calling `cw_minimal`'s margin-gradient memo.

    A stalled step (projection and clipping give back the same point)
    repeats the iterate byte for byte; its forward pass is then the last
    one's, so the last evaluated iterate's bytes and result are kept and
    reused. Bytes, not values: -0.0 and 0.0 compare equal but differ."""
    x_adv = x.copy() if x_start is None else x_start.copy()
    best, best_dist = None, math.inf
    last_key, last = None, None
    for it in range(spec.cw_iterations):
        step = spec.cw_step * max(0.02, 1.0 - it / spec.cw_iterations)
        delta = x_adv - x
        if spec.p == 2.0:
            n = norm_of(delta, 2.0)
            dist_grad = np.zeros_like(delta) if n == 0.0 else delta / n
        else:
            # smooth proximity surrogate; the inf-ball projection and the
            # reported inf-norm keep the constraint and metric exact
            dist_grad = delta
        key = x_adv.tobytes()
        if key != last_key:
            last_key, last = key, _margin_and_grad(net, x_adv, a_star, grads)
        _, flipped, margin_grad = last
        if flipped:
            d = norm_of(delta, spec.p)
            if d < best_dist:
                best, best_dist = x_adv.copy(), d
        grad = dist_grad + c_pen * margin_grad
        x_adv = x + _project((x_adv - step * grad) - x, spec.p, spec.epsilon)
        x_adv = x_adv.clip(0.0, 1.0)
    flipped = (last[1] if x_adv.tobytes() == last_key
               else _greedy(net, x_adv)[0] != a_star)
    if flipped:
        d = norm_of(x_adv - x, spec.p)
        if d < best_dist:
            best, best_dist = x_adv.copy(), d
    return best, best_dist


def cw_minimal(net: nn.ParamSet, obs: Array, spec: AttackSpec) -> AttackResult:
    """Minimal-distance action flip inside the ball, or failure."""
    obs = np.asarray(obs, dtype=np.float64)
    x = obs / OBS_SCALE
    a_star, _ = _greedy(net, x)
    grads: dict = {}  # (runner, masks) -> margin gradient, for this call only
    best, best_dist = None, math.inf
    lo, hi = spec.cw_penalty_lo, spec.cw_penalty_hi
    c_pen = math.sqrt(lo * hi)
    for _ in range(spec.cw_binary_steps):
        cand, dist = _cw_inner(net, x, a_star, c_pen, spec, grads)
        if cand is None:
            # The clean start can stall on a flat hinge (dead relu paths
            # give a zero margin gradient); seeded restarts inside the ball
            # escape it.  They only contribute candidates — the penalty
            # search keeps following the clean-start outcome.
            for k in range(1, spec.cw_restarts + 1):
                r_cand, r_dist = _cw_inner(net, x, a_star, c_pen, spec,
                                           grads, _restart_point(x, spec, k))
                if r_cand is not None and r_dist < best_dist:
                    best, best_dist = r_cand, r_dist
        if cand is not None:
            if dist < best_dist:
                best, best_dist = cand, dist
            hi = c_pen     # success: try a gentler penalty for a closer point
        else:
            lo = c_pen     # failure: push harder
        c_pen = math.sqrt(lo * hi)
    if best is None:
        return AttackResult(obs.copy(), math.inf, False)
    flipped = _greedy(net, best)[0] != a_star
    if not flipped:  # pragma: no cover - guarded by margin bookkeeping
        raise AssertionError("recorded attack does not flip the greedy action")
    return AttackResult(best * OBS_SCALE, best_dist, True)


def run_attack(net: nn.ParamSet, obs: Array, spec: AttackSpec) -> AttackResult:
    if spec.method == "fgm":
        return fgm(net, obs, spec)
    return cw_minimal(net, obs, spec)
