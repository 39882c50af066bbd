"""Shared fixtures.

Trained reference checkpoints live in tests/data/ (regenerate with
scripts/train_reference_policies.py); loading them is bit-exact, so every
test sees identical parameters. Training-from-scratch happens only in the
tests whose contract is the training run itself.
"""

from pathlib import Path

import numpy as np
import pytest

from policyprobe import checkpoint as cp
from policyprobe import perceptual
from policyprobe.envs import make_spec

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def pixelgrid_spec():
    return make_spec("pixelgrid", size=8, seed=0)


@pytest.fixture(scope="session")
def minipong_spec():
    return make_spec("minipong", size=12, seed=0)


def _load(name):
    ck, ck_id = cp.load_checkpoint(DATA_DIR / name)
    return ck, ck_id


@pytest.fixture(scope="session")
def vanilla_checkpoint():
    """Competent vanilla PixelGrid policy (reference artifact)."""
    return _load("vanilla_pixelgrid.txt")


@pytest.fixture(scope="session")
def radial_checkpoint():
    """Certifiably trained PixelGrid policy (reference artifact)."""
    return _load("radial_pixelgrid.txt")


@pytest.fixture(scope="session")
def sa_checkpoint():
    """Hinge-regularized PixelGrid policy (reference artifact)."""
    return _load("sa_pixelgrid.txt")


@pytest.fixture(scope="session")
def fnet():
    return perceptual.reference_featurenet()


@pytest.fixture()
def fresh_reference_net():
    """An empty reference-featurenet cache, emptied again on teardown so no
    other test sees what this one cached."""
    perceptual.reference_featurenet.cache_clear()
    yield
    perceptual.reference_featurenet.cache_clear()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)
