"""The bundled reference checkpoints are what their script says they are:
each stores the script's train config, and each plays the task competently
on clean episodes."""
from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from policyprobe import checkpoint as cp
from policyprobe import harness
from policyprobe import qlearning as ql
from policyprobe.envs import oracle_return

from conftest import DATA_DIR

SCRIPT = (Path(__file__).resolve().parent.parent / "scripts"
          / "train_reference_policies.py")
NAMES = ("vanilla", "radial", "sa")
EVAL_EPISODES = list(range(20))
COMPETENCE_FLOOR = 0.5     # fraction of the mean oracle return


@pytest.fixture(scope="module")
def script_configs():
    spec = importlib.util.spec_from_file_location("train_reference_policies",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_configs()


@pytest.mark.parametrize("name", NAMES)
def test_bundled_config_matches_script(name, script_configs, pixelgrid_spec):
    ck, _ = cp.load_checkpoint(DATA_DIR / f"{name}_pixelgrid.txt")
    assert ck.config == script_configs[name]
    assert ck.env_spec == pixelgrid_spec
    assert ck.trained_steps == script_configs[name].total_steps


# 1200-step fine-tunes from the vanilla reference at seed 3, as measured
# with the numeric stack named in the script's docstring at 1 and 2 BLAS
# threads; an arithmetic-neutral change to training keeps them. They
# hash checkpoint v2 text, so a change of the format moves them too
FINE_TUNE_IDS = {"vanilla": "d1b9f4ccd181dc22", "sa": "be53c92676d0f2d8",
                 "radial": "ece6209578d06792"}


@pytest.mark.parametrize("name", NAMES)
def test_fine_tune_from_vanilla_reproduces_its_checkpoint_id(
        name, script_configs, vanilla_checkpoint):
    start, _ = vanilla_checkpoint
    config = dataclasses.replace(script_configs[name], total_steps=1200,
                                 seed=3)
    ck = ql.train(start.env_spec, config, init_params=start.params)
    assert cp.checkpoint_id(cp.serialize_checkpoint(ck)) \
        == FINE_TUNE_IDS[name]


@pytest.mark.parametrize("name", NAMES)
def test_reference_policy_is_competent(name, pixelgrid_spec):
    ck, _ = cp.load_checkpoint(DATA_DIR / f"{name}_pixelgrid.txt")
    returns = harness.clean_baseline(ck.params, pixelgrid_spec,
                                     len(EVAL_EPISODES))
    oracle = np.mean([oracle_return(pixelgrid_spec, s)
                      for s in EVAL_EPISODES])
    assert returns.mean() >= COMPETENCE_FLOOR * oracle, (
        f"{name}: mean return {returns.mean():+.4f} below "
        f"{COMPETENCE_FLOOR} x oracle {oracle:+.4f}")
