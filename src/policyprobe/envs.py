"""Two deterministic pixel-observation environments at desk scale.

PixelGrid: navigate a walled n-by-n grid to a goal cell. MiniPong: a minimal
paddle-ball rally against a scripted opponent that moves one row per step.
Both render logical cells as 3x3 pixel blocks into a single-channel [0, 255]
image, and both are pure functions of (spec, episode_seed, action sequence):
all stochasticity is front-loaded into seeded draws.

A PixelGrid layout (walls, goal, start cells) depends on the spec alone,
so it is drawn once per spec and cached: every env made from one spec
shares its read-only arrays, and only the agent's position is per env.
Frames are uint8 cell grids upscaled by repeating each cell 3x3, with no
float intermediate. A PixelGrid frame depends only on the spec and the
agent's cell, so each is rendered once, kept read-only with its layout,
and handed out as a fresh writable copy; an episode's start cell depends
only on the spec and the episode seed, so its seeded draw is cached too.

Rewards:
  PixelGrid  +1 on the step that reaches the goal (terminal), -0.01 otherwise
             (wall bumps leave the position unchanged and still cost -0.01).
  MiniPong   +1 when the opponent misses the ball, -1 when the player does;
             the episode ends when one side leads by 5 points or at the cap.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray

CELL = 3  # rendered pixel block per logical cell

PIXELGRID_ACTIONS = 4   # up, down, left, right
MINIPONG_ACTIONS = 3    # stay, up, down

WALL_DENSITY = 0.15
PADDLE_HEIGHT = 3
POINTS_TO_WIN = 5

# grayscale ladder shared by both renderers
SHADE_AGENT = 255   # PixelGrid agent / MiniPong ball
SHADE_GOAL = 170    # PixelGrid goal / MiniPong player paddle
SHADE_WALL = 85     # PixelGrid walls / MiniPong opponent paddle
SHADE_FLOOR = 0


@dataclass(frozen=True)
class EnvSpec:
    env_id: str                      # "pixelgrid" | "minipong"
    size: int                        # logical grid/board side length
    obs_shape: tuple[int, int, int]  # (H, W, C)
    n_actions: int
    gamma: float
    episode_cap: int
    score_min: float
    score_max: float
    seed: int

    def __post_init__(self):
        for name, value in derived_fields(self.env_id, self.size).items():
            if getattr(self, name) != value:
                raise ValueError(f"{self.env_id} size {self.size} has "
                                 f"{name} {value!r}, not "
                                 f"{getattr(self, name)!r}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("discount must be in (0, 1]")


def derived_fields(env_id: str, size: int) -> dict:
    """The spec fields an environment id and size fix: obs_shape,
    n_actions, episode_cap, score_min and score_max."""
    if env_id == "pixelgrid":
        if size < 4:
            raise ValueError("pixelgrid needs size >= 4")
        actions, cap, score_max = PIXELGRID_ACTIONS, 200, 1.0
        score_min = -0.01 * cap    # every step of a capped episode costs
    elif env_id == "minipong":
        if size != 12:
            raise ValueError("minipong is defined on a 12x12 board")
        actions, cap = MINIPONG_ACTIONS, 1000
        score_min, score_max = -float(POINTS_TO_WIN), float(POINTS_TO_WIN)
    else:
        raise ValueError(f"unknown environment id {env_id!r}")
    return {"obs_shape": (CELL * size, CELL * size, 1), "n_actions": actions,
            "episode_cap": cap, "score_min": score_min,
            "score_max": score_max}


def make_spec(env_id: str, size: int = 8, seed: int = 0,
              gamma: float = 0.9) -> EnvSpec:
    """Canonical spec for an environment; derived fields are filled in."""
    return EnvSpec(env_id=env_id, size=size, gamma=gamma, seed=seed,
                   **derived_fields(env_id, size))


def episode_return(rewards: list[float]) -> float:
    """Correctly rounded sum of one episode's rewards.

    A running float sum drifts: 200 steps of -0.01 add up to
    -2.0000000000000013, below PixelGrid's fixed minimum -0.01 * cap.
    Every episode score (evaluation, training curve, probes, the oracle)
    goes through here so that they agree bit for bit and stay within the
    score bounds.
    """
    return math.fsum(rewards)


@dataclass
class StepResult:
    observation: Array
    reward: float
    terminal: bool
    step_index: int
    truncated: bool = False  # terminal only because the episode cap was hit


class EpisodeOverError(RuntimeError):
    """step() called after the terminal flag without an intervening reset()."""


def _step_result(env: Env, reward: float, done: bool) -> StepResult:
    """End of every step: count it, end the episode if it is done, else
    truncate it at the episode cap, and report the new observation."""
    env.step_index += 1
    truncated = not done and env.step_index >= env.spec.episode_cap
    env.terminal = done or truncated
    return StepResult(env._observe(), reward, env.terminal, env.step_index,
                      truncated)


def _render_cells(cells: Array) -> Array:
    """Upscale an (n, n) uint8 grid of shades into (3n, 3n, 1) pixels."""
    return cells.repeat(CELL, 0).repeat(CELL, 1)[:, :, None]


# ---------------------------------------------------------------------------
# PixelGrid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _GridLayout:
    walls: Array                         # (n, n) bool, read-only
    goal: tuple[int, int]
    starts: tuple[tuple[int, int], ...]  # floor cells but the goal, row-major
    background: Array                    # (n, n) uint8 shades without the
                                         # agent, read-only
    # agent cell -> its rendered frame, read-only; filled as cells are seen
    frames: dict[tuple[int, int], Array] = field(default_factory=dict)

    def frame(self, pos: tuple[int, int]) -> Array:
        """The read-only frame with the agent at pos, rendered once."""
        frame = self.frames.get(pos)
        if frame is None:
            cells = self.background.copy()
            cells[pos] = SHADE_AGENT
            frame = self.frames[pos] = _render_cells(cells)
            frame.flags.writeable = False
        return frame


@functools.lru_cache(maxsize=None)
def _grid_layout(spec: EnvSpec) -> _GridLayout:
    """Walls, goal and start cells for a spec, drawn once per spec (the
    cache is unbounded: an entry is a few hundred bytes, and a process
    sees few specs). Wall patterns are redrawn until the floor forms a
    single connected component, so every seeded start can reach the goal;
    the goal is then drawn uniformly over floor cells."""
    n = spec.size
    for attempt in range(1000):
        rng = np.random.default_rng([spec.seed, 11, attempt])
        walls = rng.random((n, n)) < WALL_DENSITY
        floor = [(int(r), int(c)) for r, c in np.argwhere(~walls)]
        if len(floor) < 2:
            continue
        if len(_bfs(walls, floor[0])) == len(floor):
            goal_rng = np.random.default_rng([spec.seed, 12])
            goal = floor[goal_rng.integers(len(floor))]
            background = np.where(walls, SHADE_WALL, SHADE_FLOOR
                                  ).astype(np.uint8)
            background[goal] = SHADE_GOAL
            walls.flags.writeable = background.flags.writeable = False
            return _GridLayout(walls, goal,
                               tuple(p for p in floor if p != goal),
                               background)
    raise RuntimeError("could not draw a connected wall layout")


@functools.lru_cache(maxsize=4096)
def _grid_start(spec: EnvSpec, episode_seed: int) -> tuple[int, int]:
    """The episode's start cell: a seeded draw over the layout's starts,
    cached because the seeded generator costs more to build than a short
    episode takes to step."""
    starts = _grid_layout(spec).starts
    rng = np.random.default_rng([spec.seed, 13, episode_seed])
    return starts[rng.integers(len(starts))]


class PixelGridEnv:
    """Grid navigation: actions up/down/left/right, deterministic walls."""

    MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))

    def __init__(self, spec: EnvSpec):
        if spec.env_id != "pixelgrid":
            raise ValueError("spec is not a pixelgrid spec")
        self.spec = spec
        layout = _grid_layout(spec)
        self.walls, self.goal = layout.walls, layout.goal
        self._layout = layout
        self.pos: tuple[int, int] | None = None
        self.step_index = 0
        self.terminal = True

    def _observe(self) -> Array:
        return self._layout.frame(self.pos).copy()

    def reset(self, episode_seed: int) -> Array:
        self.pos = _grid_start(self.spec, episode_seed)
        self.step_index = 0
        self.terminal = False
        return self._observe()

    def step(self, action: int) -> StepResult:
        if self.terminal:
            raise EpisodeOverError("episode is over; call reset() first")
        if not 0 <= action < self.spec.n_actions:
            raise ValueError(f"action {action} out of range")
        dr, dc = self.MOVES[action]
        nr, nc = self.pos[0] + dr, self.pos[1] + dc
        n = self.spec.size
        if 0 <= nr < n and 0 <= nc < n and not self.walls[nr, nc]:
            self.pos = (nr, nc)
        done = self.pos == self.goal
        return _step_result(self, 1.0 if done else -0.01, done)


def _bfs(walls: Array, start: tuple[int, int]
         ) -> dict[tuple[int, int], tuple[tuple[int, int], int] | None]:
    """Breadth-first search over the floor of a square wall grid: each cell
    reachable from start, mapped to the cell it was first reached from and
    the action that moves there (None for start itself)."""
    n = walls.shape[0]
    parent: dict = {start: None}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        for action, (dr, dc) in enumerate(PixelGridEnv.MOVES):
            nxt = (cell[0] + dr, cell[1] + dc)
            if 0 <= nxt[0] < n and 0 <= nxt[1] < n and not walls[nxt] \
                    and nxt not in parent:
                parent[nxt] = (cell, action)
                queue.append(nxt)
    return parent


def shortest_path_actions(walls: Array, start: tuple[int, int],
                          goal: tuple[int, int]) -> list[int]:
    """One action sequence realizing the BFS-shortest path; its length is
    the shortest distance in moves."""
    parent = _bfs(walls, start)
    if goal not in parent:
        raise ValueError("goal unreachable from start")
    actions: list[int] = []
    cell = goal
    while parent[cell] is not None:
        cell, action = parent[cell]
        actions.append(action)
    return actions[::-1]


def oracle_return(spec: EnvSpec, episode_seed: int) -> float:
    """Optimal undiscounted episode return for the seeded start.

    The start cell depends on the episode seed, so the optimum is per-episode:
    a shortest path of d moves earns d - 1 step costs of -0.01 and the goal's
    +1, summed by episode_return as every episode score is.
    """
    if spec.env_id != "pixelgrid":
        raise ValueError("oracle_return is defined for pixelgrid only")
    layout = _grid_layout(spec)
    start = _grid_start(spec, episode_seed)
    d = len(shortest_path_actions(layout.walls, start, layout.goal))
    return episode_return([-0.01] * (d - 1) + [1.0])


# ---------------------------------------------------------------------------
# MiniPong
# ---------------------------------------------------------------------------

@dataclass
class _PongState:
    ball: tuple[int, int]
    vel: tuple[int, int]
    player_top: int     # player paddle, rightmost column
    opp_top: int        # opponent paddle, leftmost column
    player_points: int = 0
    opp_points: int = 0
    serve_count: int = 0


class MiniPongEnv:
    """Paddle-ball rally on a 12x12 board.

    The ball moves one cell diagonally per step, reflecting off the top and
    bottom rows and off paddle faces. The scripted opponent (left column)
    tracks the ball row each step and in this geometry never misses, so the
    score is decided entirely by the player (right column, actions
    stay/up/down): flawless play rallies to the episode cap at 0-0, and
    every player miss concedes a point. A miss triggers a fresh center
    serve with a seeded velocity.
    """

    def __init__(self, spec: EnvSpec):
        if spec.env_id != "minipong":
            raise ValueError("spec is not a minipong spec")
        self.spec = spec
        self.state: _PongState | None = None
        self.episode_seed = 0
        self.step_index = 0
        self.terminal = True

    # -- seeded serve velocities ------------------------------------------
    def _serve_velocity(self, serve_index: int) -> tuple[int, int]:
        rng = np.random.default_rng(
            [self.spec.seed, 21, self.episode_seed, serve_index])
        dr, dc = rng.integers(0, 2, size=2) * 2 - 1
        return int(dr), int(dc)

    def _serve(self) -> None:
        st = self.state
        center = self.spec.size // 2
        vel = self._serve_velocity(st.serve_count)
        st.serve_count += 1
        st.ball = (center, center)
        st.vel = vel
        paddle_top = (self.spec.size - PADDLE_HEIGHT) // 2
        st.player_top = paddle_top
        st.opp_top = paddle_top

    # -- rendering ---------------------------------------------------------
    def _observe(self) -> Array:
        n = self.spec.size
        st = self.state
        cells = np.full((n, n), SHADE_FLOOR, dtype=np.uint8)
        cells[st.opp_top:st.opp_top + PADDLE_HEIGHT, 0] = SHADE_WALL
        cells[st.player_top:st.player_top + PADDLE_HEIGHT, n - 1] = SHADE_GOAL
        cells[st.ball] = SHADE_AGENT
        return _render_cells(cells)

    # -- public api --------------------------------------------------------
    def reset(self, episode_seed: int) -> Array:
        self.episode_seed = episode_seed
        self.step_index = 0
        self.terminal = False
        self.state = _PongState(ball=(0, 0), vel=(1, 1), player_top=0, opp_top=0)
        self._serve()
        return self._observe()

    def tracker_action(self) -> int:
        """Scripted reference player: chase the ball's current row."""
        st = self.state
        center = st.player_top + PADDLE_HEIGHT // 2
        if st.ball[0] < center:
            return 1
        if st.ball[0] > center:
            return 2
        return 0

    def step(self, action: int) -> StepResult:
        if self.terminal:
            raise EpisodeOverError("episode is over; call reset() first")
        if not 0 <= action < self.spec.n_actions:
            raise ValueError(f"action {action} out of range")
        n = self.spec.size
        st = self.state
        top_max = n - PADDLE_HEIGHT

        # player paddle, then the opponent, one row every step
        if action == 1:
            st.player_top = max(0, st.player_top - 1)
        elif action == 2:
            st.player_top = min(top_max, st.player_top + 1)
        # the scripted opponent tracks the ball row at full speed; with this
        # ball model it never misses, so the player's misses alone decide
        # the score and a flawless rally runs to the episode cap at 0-0
        opp_center = st.opp_top + PADDLE_HEIGHT // 2
        if st.ball[0] < opp_center:
            st.opp_top = max(0, st.opp_top - 1)
        elif st.ball[0] > opp_center:
            st.opp_top = min(top_max, st.opp_top + 1)

        # ball: resolve row reflection, then paddle faces / misses
        r, c = st.ball
        dr, dc = st.vel
        nr = r + dr
        if nr < 0 or nr > n - 1:
            dr = -dr
            nr = r + dr
        nc = c + dc
        reward = 0.0
        if nc == n - 1:  # player face
            if st.player_top <= nr < st.player_top + PADDLE_HEIGHT:
                dc, nc = -dc, c
            else:
                st.opp_points += 1
                reward = -1.0
        elif nc == 0:    # opponent face
            if st.opp_top <= nr < st.opp_top + PADDLE_HEIGHT:
                dc, nc = -dc, c
            else:
                st.player_points += 1
                reward = 1.0
        if reward == 0.0:
            st.ball, st.vel = (nr, nc), (dr, dc)
        else:
            self._serve()

        return _step_result(
            self, reward,
            abs(st.player_points - st.opp_points) >= POINTS_TO_WIN)


Env = PixelGridEnv | MiniPongEnv


def make_env(spec: EnvSpec) -> Env:
    if spec.env_id == "pixelgrid":
        return PixelGridEnv(spec)
    return MiniPongEnv(spec)
