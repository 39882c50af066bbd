"""Train and save the reference policies bundled with the test suite.

Writes tests/data/{vanilla,radial,sa}_pixelgrid.txt.  The vanilla policy
trains from scratch; the two certified objectives fine-tune from the
vanilla result, because their regularizers anchor on the actions stored
in replay and collapse to a one-action policy when those actions are
still exploratory.  reference_configs() holds the three train configs;
the tests check each bundled file's stored config against it.

All sampling is seeded, so a rerun on the same numeric stack reproduces
the files bit for bit.  The bundled files were produced with Python
3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31 (scipy-openblas 0.3.31.188.0,
Haswell kernels) on a 2-core x86-64 machine, and reproduced byte for
byte there both with OPENBLAS_NUM_THREADS=2 and with one BLAS thread,
the script's default.  Another BLAS build or CPU may round differently
and drift the trained parameters, and with them the checkpoint ids.

Usage: python scripts/train_reference_policies.py [--out DIR]
"""
from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

# One BLAS thread unless the caller chose a count: on matrices this
# small, OpenBLAS's default of a thread per core adds CPU time, not
# speed. Set before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from policyprobe import checkpoint as cp
from policyprobe import harness, nn, qlearning as ql
from policyprobe.envs import make_spec, oracle_return

EVAL_EPISODES = list(range(20))
CERT_RADII = (5e-5, 1e-4, 5e-4, 1e-3, 1 / 255)


def report(name: str, ck: ql.Checkpoint, spec, elapsed: float) -> None:
    """Eval return against the oracle, and the certified share of the
    states the eval episodes visit, from one clean walk per episode."""
    returns, states = [], []
    for seed in EVAL_EPISODES:
        score, _, _, trace = harness.probe_episode(
            ck.params, spec, harness.IDENTITY, seed)
        returns.append(score)
        states += [obs for obs, _ in trace]
    oracle = sum(oracle_return(spec, s) for s in EVAL_EPISODES) / len(EVAL_EPISODES)
    certs = " ".join(
        f"cert@{eps:g}={sum(ql.certified(ck.params, s, eps) for s in states) / len(states):.3f}"
        for eps in CERT_RADII
    )
    print(
        f"{name}: {elapsed:.0f}s eval {np.mean(returns):+.4f} "
        f"oracle {oracle:+.4f} {certs} (states={len(states)})",
        flush=True,
    )


def reference_configs() -> dict[str, ql.TrainConfig]:
    """The train config of each bundled policy, keyed by file stem prefix.

    The vanilla policy trains from scratch; the other two fine-tune from it.
    """
    # Fine-tune settings shared by both certified objectives: near-greedy
    # exploration so replay actions match the policy, a gentle learning
    # rate, and the robustness radius ramped in over the first half.  The
    # per-objective knobs below are the strongest settings found that
    # keep the greedy policy intact: the radial overlap term needs a
    # small weight, and the sa hinge needs its margin target capped near
    # the network's natural Q gaps (~0.03) plus a short schedule.
    tuned_settings = {
        "radial": dict(objective="radial", total_steps=8_000, adv_weight=0.1),
        "sa": dict(objective="sa-ddqn", total_steps=2_000, sa_hinge_cap=0.01),
    }
    configs = {
        "vanilla": ql.TrainConfig(objective="vanilla", total_steps=30_000, seed=7),
    }
    for name, overrides in tuned_settings.items():
        configs[name] = ql.TrainConfig(
            lr=1e-4,
            eps_rob=5e-4,
            eps_ramp_start=0,
            eps_ramp_steps=overrides["total_steps"] // 2,
            eps_start=0.01,
            eps_end=0.01,
            eps_decay_steps=1,
            replay_capacity=10_000,
            seed=7,
            **overrides,
        )
    return configs


def train_and_save(name: str, spec, config: ql.TrainConfig, out: pathlib.Path,
                   init_params: nn.ParamSet | None = None) -> ql.Checkpoint:
    t0 = time.time()
    ck = ql.train(spec, config, init_params=init_params)
    report(name, ck, spec, time.time() - t0)
    ck_id = cp.save_checkpoint(out / f"{name}_pixelgrid.txt", ck)
    print(f"  -> {name}_pixelgrid.txt id {ck_id}")
    return ck


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"),
        help="directory for the checkpoint files",
    )
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    spec = make_spec("pixelgrid", size=8, seed=0)
    configs = reference_configs()
    vanilla = train_and_save("vanilla", spec, configs.pop("vanilla"), out)
    for name, config in configs.items():
        train_and_save(name, spec, config, out, init_params=vanilla.params)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
