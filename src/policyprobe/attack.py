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

The penalty search speculates: it guesses that every remaining step fails
and runs up to CW_ROWS of them, at the penalties that guess gives, as one
lockstep descent with a row per (penalty, start), clean start first, then
the seeded restarts. Once a clean row flips, its step succeeds, and the
rows after it, off the search's path, are dropped. The kept rows are walked
in step order with the sequential bookkeeping, and the search guesses
again. Rows hold batch-1 bits, so outputs equal the sequential search's bytes.

Before any descent, C&W bounds Q(a*) - Q(a) from below for every rival a
over the box `input_box(x, epsilon)`, which holds every iterate, restart and
l2 ball the search can reach (`nn.margin_lower_bounds`: CROWN, which
back-substitutes the hidden layers' bounds as well as the margins). When
every bound clears BOUND_SLACK, no point the search can reach flips the
action, so it returns its failure result at once. Such a search would have
found no flip and returned that same result, so no output moves.

Inputs and outputs are raw [0, 255] observations; reported distances are on
the [0, 1] scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import nn
from .qlearning import OBS_SCALE, input_box

Array = np.ndarray

CW_ROWS = 8  # most penalty steps one lockstep descent runs as rows
# What every margin bound must clear for C&W to skip its search. A bound
# holds in exact arithmetic, and float64 adds four errors. A sum of n
# terms rounds by at most n * 2**-53 times the sum of their absolute
# values; on the bundled nets n < 1000 along any chain of sums, so:
#   - the margins' back-substitution: absolute sums below 28, < 3.1e-12;
#   - the hidden layers' back-substituted bounds: absolute sums below 6.6,
#     each off by < 7.4e-13. They decide which neurons count as stable and
#     where the others' chords fall: a neuron's bound off by d moves an
#     upper line by at most d, so the margin bound by d times the
#     neuron's coefficient magnitude; summed over every neuron, < 4.1e-12;
#   - the forward pass that judges a flip: absolute sums below 52, < 6e-12;
#   - an l2-projected iterate may leave the box by an ulp (<= 2.2e-16) per
#     pixel, and the |weight| chain's gain is below 610, so < 3e-13.
# Certifying bounds on the 54 PixelGrid states, radii 5e-4 to 3/255,
# start at 5.6e-5.
BOUND_SLACK = 1e-9


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

    def label(self) -> str:  # a C&W label adds each cw_* field off its default
        norm = "inf" if math.isinf(self.p) else "l2"
        search = "".join(f",{f.name[3:]}={getattr(self, f.name):g}"
                         for f in fields(self) if self.method == "cw"
                         and f.name.startswith("cw_")
                         and getattr(self, f.name) != f.default)
        return f"{self.method}[p={norm},eps={self.epsilon:g}{search}]"


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


def _q(net: nn.ParamSet, xs: Array, tape: list | None = None) -> Array:
    """The net's outputs on the rows xs, each row's batch-1 bits."""
    q = nn.forward_rows(net, xs, tape)[-1]
    nn.require_finite(q, "network output")
    return q


def _greedy(net: nn.ParamSet, x: Array) -> int:
    return int(_q(net, x[None])[0].argmax())


def fgm(net: nn.ParamSet, obs: Array, spec: AttackSpec) -> AttackResult:
    """Single normalized gradient step of size epsilon; zero gradient (or
    zero radius) returns the input unchanged."""
    obs = np.asarray(obs, dtype=np.float64)
    x = obs / OBS_SCALE
    tape: list = []
    q = _q(net, x[None], tape)[0]
    a_star = int(np.argmax(q))
    # input gradient of J = -log softmax(Q)[a*] = logsumexp(Q) - Q[a*]
    soft = np.exp(q - q.max())
    gout = soft / soft.sum()
    gout[a_star] -= 1.0
    g = nn.backprop_batch(net, gout[None], "input", tape)[0]
    if spec.p == 2.0:
        gn = norm_of(g, 2.0)
        delta = np.zeros_like(x) if gn == 0.0 else spec.epsilon * g / gn
    else:
        delta = spec.epsilon * np.sign(g)
    x_adv = np.clip(x + delta, 0.0, 1.0)
    adv = x_adv * OBS_SCALE
    dist = norm_of(x_adv - x, spec.p)
    flipped = _greedy(net, x_adv) != a_star
    return AttackResult(adv, dist, flipped)


def _flips_and_grads(net: nn.ParamSet, q: Array, a_star: int, grads: dict,
                     tape: list | None) -> tuple[list, list]:
    """Per row of outputs q: has the greedy action strictly flipped, and the
    margin's input gradient from the row's batch-1 slice of `tape` (0.0 if
    the margin is closed or there is no tape). `grads` memoizes gradients
    by (runner, rectifier masks), all they depend on besides the fixed a*;
    they may be shared, so callers must not modify them."""
    others = q.copy()
    others[:, a_star] = -np.inf
    runners = others.argmax(axis=1)
    margins = q[:, a_star] - others.max(axis=1)
    out = [0.0] * len(q)
    opened = [] if tape is None else np.flatnonzero(margins > 0.0).tolist()
    patterns = nn.rectifier_patterns(tape) if opened else []
    for r in opened:
        key = (int(runners[r]), patterns[r])
        if (grad := grads.get(key)) is None:
            gout = np.zeros((1, q.shape[1]))
            gout[0, a_star], gout[0, key[0]] = 1.0, -1.0
            grad = grads[key] = nn.backprop_batch(net, gout, "input",
                                                  nn.tape_row(tape, r))[0]
        out[r] = grad
    return (q.argmax(axis=1) != a_star).tolist(), out


def _restart_point(x: Array, spec: AttackSpec, k: int) -> Array:
    """Deterministic k-th alternative start inside the ball around x."""
    rng = np.random.default_rng([1009, k])
    delta = rng.uniform(-spec.epsilon, spec.epsilon, x.shape)
    return np.clip(x + _project(delta, spec.p, spec.epsilon), 0.0, 1.0)


def _descend(net: nn.ParamSet, x: Array, a_star: int, pens: list[float],
             spec: AttackSpec, grads: dict, starts: Array) -> list[tuple]:
    """Projected descent, one lockstep row per (penalty, start) in
    penalty-major order, starts[0] the clean start x, each row with its own
    l2 norm and projection; returns each kept row's closest flipped iterate
    (scaled coords) and its distance, or (None, inf). The first clean row
    with a flipped iterate drops every later row, its own restarts
    included; a restart row's flip drops nothing. `grads` is `cw_minimal`'s
    margin-gradient memo. Each row reuses its last evaluated iterate's
    result while its bytes repeat (a stalled step); bytes, not values: -0.0
    and 0.0 compare equal but differ."""
    n_it, k, n = spec.cw_iterations, len(starts), len(pens) * len(starts)
    xs = np.tile(starts, (len(pens),) + (1,) * x.ndim)
    col = np.repeat(pens, k).reshape(n, *[1] * x.ndim)
    zero = np.zeros_like(x)
    best = [(None, math.inf)] * n
    keys, flips, margin = [None] * n, [False] * n, np.zeros_like(xs)
    for it in range(n_it + 1):  # the last pass only checks the final iterate
        now = [row.tobytes() for row in xs]
        todo = [r for r in range(n) if now[r] != keys[r]]
        if todo:
            tape = [] if it < n_it else None
            q = _q(net, xs[todo], tape)
            for r, flip, grad in zip(todo, *_flips_and_grads(
                    net, q, a_star, grads, tape)):
                keys[r], flips[r], margin[r] = now[r], flip, grad
        delta = xs - x
        for r in range(n):
            if flips[r] and (d := norm_of(delta[r], spec.p)) < best[r][1]:
                best[r] = (xs[r].copy(), d)
        n = next((r + 1 for r in range(0, n, k) if best[r][0] is not None), n)
        if it == n_it:
            return best[:n]
        step = spec.cw_step * max(0.02, 1.0 - it / n_it)
        delta = delta[:n]
        if spec.p == 2.0:
            dist_grad = np.stack([zero if m == 0.0 else d / m for d, m in
                                  ((d, norm_of(d, 2.0)) for d in delta)])
        else:
            # smooth proximity surrogate; the inf-ball projection and the
            # reported inf-norm keep the constraint and metric exact
            dist_grad = delta
        grad = dist_grad + col[:n] * margin[:n]
        moved = (xs[:n] - step * grad) - x
        # the l2 projection is per row; the inf one is elementwise
        moved = (np.stack([_project(m, 2.0, spec.epsilon) for m in moved])
                 if spec.p == 2.0 else _project(moved, spec.p, spec.epsilon))
        xs = (x + moved).clip(0.0, 1.0)


def cw_minimal(net: nn.ParamSet, obs: Array, spec: AttackSpec) -> AttackResult:
    """Minimal-distance action flip inside the ball, or failure."""
    obs = np.asarray(obs, dtype=np.float64)
    x = obs / OBS_SCALE
    a_star = _greedy(net, x)
    # the box holds every iterate and restart; a net with no rival action
    # is certified too
    if (nn.margin_lower_bounds(net, *input_box(x, spec.epsilon), a_star)
            > BOUND_SLACK).all():
        return AttackResult(obs.copy(), math.inf, False)
    grads: dict = {}  # (runner, masks) -> margin gradient, for this call only
    # seeded in-ball restarts escape a clean start stalled on a flat hinge
    # (dead relu paths give a zero margin gradient); they only add candidates
    starts = np.stack([x] + [_restart_point(x, spec, k)
                             for k in range(1, spec.cw_restarts + 1)])
    best, best_dist = None, math.inf
    lo, hi, left = spec.cw_penalty_lo, spec.cw_penalty_hi, spec.cw_binary_steps
    while left:
        # guess that every remaining step fails, each raising lo to its c
        pens = [math.sqrt(lo * hi)]
        while len(pens) < min(left, CW_ROWS):
            pens.append(math.sqrt(pens[-1] * hi))
        rows = _descend(net, x, a_star, pens, spec, grads, starts)
        for c_pen, i in zip(pens, range(0, len(rows), len(starts))):
            left -= 1
            # a clean success is the last kept row, so a step's candidates
            # are its clean row's or, after a clean failure, its restarts'
            for cand, dist in rows[i:i + len(starts)]:
                if cand is not None and dist < best_dist:
                    best, best_dist = cand, dist
            # success: a gentler penalty for a closer point; failure: harder
            lo, hi = (lo, c_pen) if rows[i][0] is not None else (c_pen, hi)
    if best is None:
        return AttackResult(obs.copy(), math.inf, False)
    if _greedy(net, best) == a_star:  # pragma: no cover - margin bookkeeping
        raise AssertionError("recorded attack does not flip the greedy action")
    return AttackResult(best * OBS_SCALE, best_dist, True)


def run_attack(net: nn.ParamSet, obs: Array, spec: AttackSpec) -> AttackResult:
    if spec.method == "fgm":
        return fgm(net, obs, spec)
    return cw_minimal(net, obs, spec)
