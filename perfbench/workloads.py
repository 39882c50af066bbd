"""The three workloads: sweep, attack and train.

Constructing a workload is its set-up (load checkpoints, build inputs) and
is what `setup_s` times. Each workload then names the operations of one
round (`kinds`); `run(kind)` is the timed call into the program and
`check(kind, out)` checks its output untimed. `work_per_s` is one round's
units of work (probe steps, attacked states or training steps) over the
sum of each kind's median time over the run's rounds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from policyprobe import attack, cli, perturb
from policyprobe import checkpoint as cp
from policyprobe import qlearning as ql
from policyprobe.envs import EnvSpec, make_env

import checks

DATA = Path("tests") / "data"
REFERENCE_SCRIPT = Path("scripts") / "train_reference_policies.py"


def _load_policy(root: Path, stem: str):
    return cp.load_checkpoint(root / DATA / f"{stem}_pixelgrid.txt")[0]


class Workload:
    kinds: tuple[str, ...] = ()
    spec: EnvSpec

    def prepare(self) -> None:
        """Untimed work after set-up, such as computing expected outputs."""

    def has_round(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# sweep: `policyprobe sweep` over a brightness and a DCT grid
# ---------------------------------------------------------------------------

class Sweep(Workload):
    """Both grids of scripts/run_robustness_sweep.py over the three bundled
    policies, through the CLI. The inputs do not depend on the seed: the
    harness fixes the paired episode seeds to 0..RUNS-1. beta = 0 is the
    identity.
    """

    kinds = ("beta", "kappa")
    RUNS = 2
    POLICIES = (("vanilla", "vanilla"), ("radial", "radial"),
                ("sa-ddqn", "sa"))
    GRIDS = {"beta": ("brightness_contrast", [0.0, 10.0, 20.0, 30.0, 45.0]),
             "kappa": ("dct_artifacts", [0.0, 0.2, 0.4, 0.6, 0.8])}

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.workdir = workdir
        self.policies = {label: _load_policy(root, stem)
                         for label, stem in self.POLICIES}
        self.spec = self.policies["vanilla"].env_spec
        self.manifests = {}
        for kind, (family, values) in self.GRIDS.items():
            manifest = {
                "env": {"id": "pixelgrid", "size": self.spec.size,
                        "seed": self.spec.seed},
                "sweep": {"family": family, "parameter": kind,
                          "values": values, "runs": self.RUNS,
                          "policies": {label: str(root / DATA /
                                                  f"{stem}_pixelgrid.txt")
                                       for label, stem in self.POLICIES}}}
            self.manifests[kind] = workdir / f"sweep_{kind}.json"
            self.manifests[kind].write_text(json.dumps(manifest))

    def prepare(self) -> None:
        """Own rollouts of every probed episode: the scores each sweep.csv
        must hold, and the env steps each CLI run takes."""
        env = make_env(self.spec)
        identity = perturb.PerturbationSpec()
        self.clean, self.expected, self.steps = {}, {}, {}
        clean_steps = 0
        for label, ck in self.policies.items():
            runs = [checks.rollout(ck.params, env,
                                   lambda o: perturb.apply(identity, o), s)
                    for s in range(self.RUNS)]
            self.clean[label] = [score for score, _ in runs]
            clean_steps += sum(n for _, n in runs)
        for kind, (family, values) in self.GRIDS.items():
            self.expected[kind], self.steps[kind] = {}, clean_steps
            for label, ck in self.policies.items():
                for value in values:
                    d = perturb.PerturbationSpec(family=family,
                                                 **{kind: value})
                    for s in range(self.RUNS):
                        score, n = checks.rollout(
                            ck.params, env, lambda o: perturb.apply(d, o), s)
                        self.expected[kind][(label, value, s)] = score
                        self.steps[kind] += n

    def run(self, kind: str):
        out_root = Path(tempfile.mkdtemp(dir=self.workdir))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["sweep", "--config", str(self.manifests[kind]),
                           "--out", str(out_root)])
        return rc, out_root

    def check(self, kind: str, out) -> None:
        rc, out_root = out
        try:
            checks.require(rc == 0, f"policyprobe sweep exited {rc}")
            (rundir,) = out_root.iterdir()
            rows = checks.parse_sweep_csv((rundir / "sweep.csv").read_text())
            checks.check_sweep_rows(rows, self.spec, self.expected[kind],
                                    self.clean,
                                    0.0 if kind == "beta" else None)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["report", "--dir", str(rundir)])
            checks.require(rc == 0, f"policyprobe report exited {rc}")
        finally:
            shutil.rmtree(out_root)

    def metrics(self, medians: dict[str, float]) -> dict[str, tuple]:
        steps = sum(self.steps.values())
        return {"work_per_s": (steps / sum(medians.values()), "1/s")}


# ---------------------------------------------------------------------------
# attack: C&W, FGM and certification on distinct visited states
# ---------------------------------------------------------------------------

class Attack(Workload):
    """Each round attacks four states, one per (policy, radius).

    The small radius is one at which the policy still certifies part of
    its states (vanilla about 1 in 4 at 1e-3, radial about 1 in 8 at
    5e-4); at 2/255 about 3 attacks in 8 flip the action. The seed picks
    the episodes whose distinct states are attacked, each state once.

    Set-up takes ROLLOUT_STEPS env steps per policy on every seed. An
    episode ends at its first repeated observation: PixelGrid moves and
    the greedy policy are deterministic, so the rest of it would loop over
    the same states until the step cap.
    """

    RADII = {"vanilla": (1e-3, 2 / 255), "radial": (5e-4, 2 / 255)}
    ROLLOUT_STEPS = 400
    TARGETS = {f"{p}@{r:.6g}": (p, r) for p, radii in RADII.items()
               for r in radii}
    kinds = tuple(TARGETS)

    def __init__(self, root: Path, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 5])
        # every episode takes at least one step, so these always suffice
        episodes = rng.choice(100_000, self.ROLLOUT_STEPS, replace=False)
        self.params, self.states = {}, {}
        for policy in self.RADII:
            ck = _load_policy(root, policy)
            self.params[policy] = ck.params
            self.spec = ck.env_spec
            env = make_env(self.spec)
            distinct, steps = {}, 0
            for ep in episodes:
                obs, terminal, seen = env.reset(int(ep)), False, set()
                while not (terminal or obs.tobytes() in seen
                           or steps == self.ROLLOUT_STEPS):
                    seen.add(obs.tobytes())
                    distinct.setdefault(obs.tobytes(), obs.copy())
                    step = env.step(ql.greedy_action(ck.params, obs))
                    obs, terminal = step.observation, step.terminal
                    steps += 1
                if steps == self.ROLLOUT_STEPS:
                    break
            states = list(distinct.values())
            self.states[policy] = [states[i]
                                   for i in rng.permutation(len(states))]

    def has_round(self) -> bool:
        return all(len(s) >= len(self.RADII[p])
                   for p, s in self.states.items())

    def run(self, kind: str):
        policy, eps = self.TARGETS[kind]
        params, obs = self.params[policy], self.states[policy].pop()
        cw = attack.cw_minimal(params, obs,
                               attack.AttackSpec(method="cw", epsilon=eps))
        fgm = attack.fgm(params, obs,
                         attack.AttackSpec(method="fgm", epsilon=eps))
        return obs, cw, fgm, ql.certified(params, obs, eps)

    def check(self, kind: str, out) -> None:
        policy, eps = self.TARGETS[kind]
        obs, cw, fgm, certified = out
        params = self.params[policy]
        checks.check_attack(params, obs, cw, eps, minimal=True)
        checks.check_attack(params, obs, fgm, eps, minimal=False)
        checks.check_certified(certified, [cw, fgm])

    def metrics(self, medians: dict[str, float]) -> dict[str, tuple]:
        return {"work_per_s": (len(medians) / sum(medians.values()), "1/s")}


# ---------------------------------------------------------------------------
# train: short fine-tunes of each objective from the vanilla policy
# ---------------------------------------------------------------------------

class Train(Workload):
    """Fine-tunes of STEPS steps with the bundled policies' configs.

    The seed is the training seed. Every round repeats the same three
    configs, so their checkpoint ids must repeat too.
    """

    STEPS = 600
    OBJECTIVES = (("vanilla", "vanilla"), ("sa-ddqn", "sa"),
                  ("radial", "radial"))
    kinds = tuple(obj for obj, _ in OBJECTIVES)

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.workdir = workdir
        self.start = _load_policy(root, "vanilla")
        self.spec = self.start.env_spec
        module_spec = importlib.util.spec_from_file_location(
            "train_reference_policies", root / REFERENCE_SCRIPT)
        script = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(script)
        reference = script.reference_configs()
        self.configs = {obj: dataclasses.replace(reference[key],
                                                 total_steps=self.STEPS,
                                                 seed=seed)
                        for obj, key in self.OBJECTIVES}
        self.ids: dict[str, str] = {}

    def run(self, kind: str):
        return ql.train(self.spec, self.configs[kind],
                        init_params=self.start.params)

    def check(self, kind: str, ck) -> None:
        checks.check_trained(ck, self.configs[kind], self.spec,
                             ql.TRAIN_EPISODE_SEED_BASE)
        path = self.workdir / f"{kind}.txt"
        ck_id = cp.save_checkpoint(path, ck)
        loaded, loaded_id = cp.load_checkpoint(path)
        checks.check_same_id("reloaded checkpoint", loaded_id, ck_id)
        checks.check_same_id("re-serialized checkpoint",
                             cp.checkpoint_id(cp.serialize_checkpoint(loaded)),
                             ck_id)
        checks.check_same_id(f"repeated {kind} fine-tune", ck_id,
                             self.ids.setdefault(kind, ck_id))

    def metrics(self, medians: dict[str, float]) -> dict[str, tuple]:
        return {"work_per_s": (self.STEPS * len(medians)
                               / sum(medians.values()), "1/s")}


WORKLOADS = {"sweep": Sweep, "attack": Attack, "train": Train}
