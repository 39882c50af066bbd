"""Interval bound propagation: soundness by Monte-Carlo enclosure, exactness
at radius zero, monotone nesting, and gradients of bound-built losses."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from policyprobe import nn
from tests.test_nn import dense_net, small_net


def box_bounds(net, lo, hi):
    """Output bounds of one input box, as a batch of one."""
    lower, upper = nn.ibp_forward_batch(net, lo[None], hi[None])
    return lower[0], upper[0]


def random_net(rng, depth=2):
    layers = []
    n_in = 12
    for _ in range(depth):
        n_out = int(rng.integers(3, 9))
        layers.append(nn.DenseLayer(rng.normal(0, 0.6, (n_out, n_in)),
                                    rng.normal(0, 0.2, n_out),
                                    activation="relu"))
        n_in = n_out
    layers.append(nn.DenseLayer(rng.normal(0, 0.6, (3, n_in)),
                                rng.normal(0, 0.2, 3),
                                activation="identity"))
    return nn.ParamSet(layers)


def test_ibp_encloses_sampled_points_dense(rng):
    for trial in range(30):
        net = random_net(rng)
        center = rng.normal(size=12)
        eps = float(rng.uniform(0.01, 0.3))
        lower, upper = box_bounds(net, center - eps, center + eps)
        for _ in range(200):
            x = center + rng.uniform(-eps, eps, size=12)
            y = nn.forward(net, x)[-1]
            assert np.all(y >= lower - 1e-9)
            assert np.all(y <= upper + 1e-9)


def test_ibp_encloses_sampled_points_conv(rng):
    net = small_net()
    center = rng.uniform(0.2, 0.8, size=(9, 9, 1))
    eps = 0.05
    lower, upper = box_bounds(net, center - eps, center + eps)
    for _ in range(300):
        x = center + rng.uniform(-eps, eps, size=center.shape)
        y = nn.forward(net, x)[-1]
        assert np.all(y >= lower - 1e-9)
        assert np.all(y <= upper + 1e-9)


def test_zero_radius_bounds_equal_forward(rng):
    net = random_net(rng)
    x = rng.normal(size=12)
    lower, upper = box_bounds(net, x.copy(), x.copy())
    y = nn.forward(net, x)[-1]
    assert np.allclose(lower, y, atol=1e-12)
    assert np.allclose(upper, y, atol=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_bounds_nest_as_radius_grows(seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng)
    x = rng.normal(size=12)
    prev = None
    for eps in (0.0, 0.05, 0.1, 0.2):
        lower, upper = box_bounds(net, x - eps, x + eps)
        assert np.all(upper >= lower)
        if prev is not None:
            assert np.all(lower <= prev[0] + 1e-12)
            assert np.all(upper >= prev[1] - 1e-12)
        prev = lower, upper


def test_interval_rejects_crossed_bounds():
    net = dense_net()
    lo = np.zeros((2, 10))
    hi = lo + 0.1
    hi[1, 3] = -0.1
    with pytest.raises(ValueError, match="lower > upper"):
        nn.ibp_forward_batch(net, lo, hi)
    with pytest.raises(nn.ShapeMismatchError, match="differ in shape"):
        nn.ibp_forward_batch(net, lo, hi[:1])


def test_batch_ibp_agrees_with_single(rng):
    net = small_net()
    centers = rng.uniform(0.2, 0.8, size=(3, 9, 9, 1))
    lo, hi = centers - 0.03, centers + 0.03
    blo, bhi = nn.ibp_forward_batch(net, lo, hi)
    for i in range(3):
        lower, upper = box_bounds(net, lo[i], hi[i])
        assert np.allclose(blo[i], lower, atol=1e-12)
        assert np.allclose(bhi[i], upper, atol=1e-12)


# ---------------------------------------------------------------------------
# Gradients through the bounds
# ---------------------------------------------------------------------------

def bound_loss(net, lo, hi, glo, ghi):
    blo, bhi = nn.ibp_forward_batch(net, lo, hi)
    return float((blo * glo).sum() + (bhi * ghi).sum())


def test_ibp_backprop_matches_finite_differences(rng):
    net = dense_net()
    lo = rng.normal(size=(2, 10)) - 0.1
    hi = lo + rng.uniform(0.05, 0.2, size=(2, 10))
    glo = rng.normal(size=(2, 3))
    ghi = rng.normal(size=(2, 3))
    tape = []
    nn.ibp_forward_batch(net, lo, hi, tape)
    grads = nn.ibp_backprop_batch(net, lo, hi, glo, ghi, tape)
    h = 1e-6
    for (_, name, arr), (_, _, garr) in zip(net.arrays(), grads.arrays()):
        flat = arr.reshape(-1)
        for k in range(0, flat.size, max(1, flat.size // 7)):
            old = flat[k]
            flat[k] = old + h
            up = bound_loss(net, lo, hi, glo, ghi)
            flat[k] = old - h
            down = bound_loss(net, lo, hi, glo, ghi)
            flat[k] = old
            fd = (up - down) / (2 * h)
            assert abs(fd - garr.reshape(-1)[k]) < 2e-5, (name, k)


def test_ibp_backprop_conv_matches_finite_differences(rng):
    net = small_net()
    centers = rng.uniform(0.3, 0.7, size=(2, 9, 9, 1))
    lo, hi = centers - 0.02, centers + 0.02
    glo = rng.normal(size=(2, 5))
    ghi = rng.normal(size=(2, 5))
    tape = []
    nn.ibp_forward_batch(net, lo, hi, tape)
    grads = nn.ibp_backprop_batch(net, lo, hi, glo, ghi, tape)
    h = 1e-6
    for (_, name, arr), (_, _, garr) in zip(net.arrays(), grads.arrays()):
        flat = arr.reshape(-1)
        for k in range(0, flat.size, max(1, flat.size // 5)):
            old = flat[k]
            flat[k] = old + h
            up = bound_loss(net, lo, hi, glo, ghi)
            flat[k] = old - h
            down = bound_loss(net, lo, hi, glo, ghi)
            flat[k] = old
            fd = (up - down) / (2 * h)
            assert abs(fd - garr.reshape(-1)[k]) < 2e-5, (name, k)
