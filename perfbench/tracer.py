"""Per-layer tracing from outside the program.

`Tracer.install` replaces every public function and public method of each
policyprobe module with a wrapper that records calls, summed leading batch
size, self time (time in the function minus time in wrapped children) and,
for a few functions, the share of distinct inputs or of successful attacks.
A function imported by name into another module (harness imports
`greedy_action` and `episode_return` this way) is replaced there as well.
`Tracer.remove` puts every original back, so untraced rounds run the
unchanged program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

MODULES = ("nn", "envs", "qlearning", "perturb", "attack", "perceptual",
           "spectral", "harness", "checkpoint", "config", "cli")

# Both environments implement one protocol, so their methods share a name.
ALIASES = {"envs.PixelGridEnv.step": "envs.step",
           "envs.MiniPongEnv.step": "envs.step",
           "envs.PixelGridEnv.reset": "envs.reset",
           "envs.MiniPongEnv.reset": "envs.reset"}

# Convolution primitives are timed whole: conv2d_input_grad runs its full
# correlation through conv2d_forward, which would otherwise take that time
# away from the input gradient.
LEAVES = {"nn.conv2d_forward", "nn.conv2d_kernel_grad",
          "nn.conv2d_input_grad"}

BATCHED = {"nn.forward_batch", "nn.backprop_batch", "nn.ibp_forward_batch",
           "nn.ibp_backprop_batch"}


def _obs_key(arr) -> tuple:
    a = np.asarray(arr)
    return a.shape, a.dtype.str, hash(a.tobytes())


# name -> function of the call's positional arguments giving the input
# whose distinctness is counted
DISTINCT = {
    "perturb.apply": lambda args: (args[0], _obs_key(args[1])),
    "perceptual.lpips": lambda args: (_obs_key(args[1]), _obs_key(args[2])),
    # a policy's answer depends on its parameters too: count per policy object
    "qlearning.greedy_action": lambda args: (id(args[0]), _obs_key(args[1])),
}

FLIPS = {"attack.cw_minimal", "attack.fgm"}

# Metrics reported by a traced run, as listed under per_layer in
# BENCHMARK.json. Each is a total over traced rounds divided by their count.
PER_LAYER = [
    "envs.step.calls", "envs.step.self_s",
    "perturb.apply.calls", "perturb.apply.self_s",
    "perturb.apply.distinct_frac",
    "perceptual.lpips.calls", "perceptual.lpips.self_s",
    "perceptual.lpips.distinct_frac", "perceptual.area_resample.self_s",
    "nn.forward_batch.calls", "nn.forward_batch.rows",
    "nn.forward_batch.self_s",
    "nn.backprop_batch.calls", "nn.backprop_batch.rows",
    "nn.backprop_batch.self_s",
    "nn.ibp_forward_batch.calls", "nn.ibp_forward_batch.rows",
    "nn.ibp_forward_batch.self_s",
    "nn.ibp_backprop_batch.calls", "nn.ibp_backprop_batch.rows",
    "nn.ibp_backprop_batch.self_s",
    "nn.conv2d_forward.self_s", "nn.conv2d_kernel_grad.self_s",
    "nn.conv2d_input_grad.self_s", "nn.conv2d_input_grad.input_layer_s",
    "nn.Optimizer.step.self_s",
    "qlearning.greedy_action.calls", "qlearning.greedy_action.self_s",
    "qlearning.greedy_action.distinct_frac",
    "qlearning.ReplayBuffer.sample.self_s",
    "qlearning.ReplayBuffer.push.self_s", "qlearning.train.self_s",
    "qlearning.certified.calls", "qlearning.certified.self_s",
    "attack.cw_minimal.calls", "attack.cw_minimal.self_s",
    "attack.cw_minimal.flip_frac",
    "attack.fgm.calls", "attack.fgm.self_s", "attack.fgm.flip_frac",
    "harness.probe_episode.calls", "harness.probe_episode.self_s",
    "harness.clean_baseline.self_s",
    "checkpoint.load_checkpoint.self_s",
    "checkpoint.atomic_write_text.calls",
    "checkpoint.atomic_write_text.self_s",
    "cli.main.self_s",
]

UNITS = {"calls": "calls/round", "rows": "rows/round", "self_s": "s/round",
         "input_layer_s": "s/round", "distinct_frac": "ratio",
         "flip_frac": "ratio"}


@dataclass
class Stat:
    calls: int = 0
    rows: int = 0
    self_s: float = 0.0
    input_layer_s: float = 0.0
    flips: int = 0
    distinct: int = 0
    seen: set = field(default_factory=set)


class Tracer:
    """Wraps the program's functions while installed; keeps totals."""

    def __init__(self, obs_hw: tuple[int, int]):
        self.obs_hw = tuple(obs_hw)   # input size of the Q-net's first layer
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []
        self._in_leaf = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- targets -----------------------------------------------------------

    def _targets(self):
        """Yield (owner, attribute, original, name) for every public
        function and method defined in a policyprobe module."""
        for short in MODULES:
            mod = importlib.import_module(f"policyprobe.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if _wrappable(obj):
                    yield mod, attr, obj, f"{short}.{attr}"
                elif inspect.isclass(obj):
                    for mattr, meth in vars(obj).items():
                        if not mattr.startswith("_") and _wrappable(meth):
                            name = f"{short}.{attr}.{mattr}"
                            yield obj, mattr, meth, ALIASES.get(name, name)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, fn, name in self._targets():
            wrappers[id(fn)] = self._wrap(name, fn)
            self._patch(owner, attr, wrappers[id(fn)])
        # references imported by name into other modules
        for short in MODULES:
            mod = importlib.import_module(f"policyprobe.{short}")
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and getattr(obj, "__module__", None) \
                        != mod.__name__:
                    self._patch(mod, attr, wrappers[id(obj)])

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def new_scope(self) -> None:
        """Start counting distinct inputs afresh (one scope per operation)."""
        for stat in self.stats.values():
            stat.seen.clear()

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        leaf = name in LEAVES
        batched = name in BATCHED
        distinct = DISTINCT.get(name)
        flips = name in FLIPS
        input_grad = name == "nn.conv2d_input_grad"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            if leaf:
                tracer._in_leaf += 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                if leaf:
                    tracer._in_leaf -= 1
                stat.calls += 1
                stat.self_s += elapsed - child
            if batched:
                stat.rows += np.shape(args[1])[0]
            if distinct is not None:
                key = distinct(args)
                if key not in stat.seen:
                    stat.seen.add(key)
                    stat.distinct += 1
            if flips and out.success:
                stat.flips += 1
            if input_grad and tuple(args[4:6]) == tracer.obs_hw:
                stat.input_layer_s += elapsed
            return out

        return wrapper

    # -- results -----------------------------------------------------------

    def table(self, rounds: int) -> dict[str, dict]:
        """Every wrapped function that ran, as per-round figures."""
        out = {}
        for name, st in sorted(self.stats.items()):
            if not st.calls:
                continue
            row = {"calls": st.calls / rounds, "self_s": st.self_s / rounds}
            if name in BATCHED:
                row["rows"] = st.rows / rounds
            if name in DISTINCT:
                row["distinct_frac"] = st.distinct / st.calls
            if name in FLIPS:
                row["flip_frac"] = st.flips / st.calls
            if name == "nn.conv2d_input_grad":
                row["input_layer_s"] = st.input_layer_s / rounds
            out[name] = row
        return out


def per_layer_metrics(table: dict[str, dict]) -> dict[str, dict]:
    """Every PER_LAYER metric, in order. A function the traced work never
    called reads 0, its shares included."""
    metrics = {}
    for metric in PER_LAYER:
        name, kind = metric.rsplit(".", 1)
        metrics[metric] = {"value": table.get(name, {}).get(kind, 0.0),
                           "unit": UNITS[kind]}
    return metrics


def _wrappable(obj) -> bool:
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)
