"""Interval bound propagation: soundness by Monte-Carlo enclosure, exactness
at radius zero, monotone nesting, and gradients of bound-built losses. The
CROWN margin bounds built on it: exact on linear nets and where only
back-substituted hidden bounds are exact, below the margin at box corners
and sampled points of the bundled and small nets and at C&W's flips, and
their certified counts on every PixelGrid state."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from policyprobe import attack as atk
from policyprobe import envs, nn
from policyprobe import qlearning as ql
from policyprobe.envs import make_env
from tests.test_attack import certify_nothing
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
    grads = nn.ibp_backprop_batch(net, glo, ghi, tape)
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
    grads = nn.ibp_backprop_batch(net, glo, ghi, tape)
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


# ---------------------------------------------------------------------------
# CROWN margin bounds
# ---------------------------------------------------------------------------

def clean_states(ck, n=3):
    """The first n states of the policy's clean episode 0 and their greedy
    actions."""
    env = make_env(ck.env_spec)
    obs = env.reset(0)
    for _ in range(n):
        a_star = ql.greedy_action(ck.params, obs)
        yield obs, a_star
        obs = env.step(a_star).observation


def margins(net, xs, a_star):
    """out[a_star] - out[a] at each row of xs, one column per rival a."""
    q = nn.forward_batch(net, xs)[-1].reshape(len(xs), -1)
    return q[:, [a_star]] - np.delete(q, a_star, axis=1)


def test_margin_bound_is_the_exact_minimum_on_a_linear_net(rng):
    """With identity activations the relaxation is exact: each bound is the
    affine margin's minimum over the box, taken pixel by pixel at lo or hi
    from the net's Jacobian."""
    linear = nn.ParamSet([
        nn.DenseLayer(rng.normal(0, 0.5, (7, 10)), rng.normal(0, 0.2, 7)),
        nn.DenseLayer(rng.normal(0, 0.5, (4, 7)), rng.normal(0, 0.2, 4))])
    for net, shape in ((small_net(3, activation="identity"), (9, 9, 1)),
                       (linear, (10,))):
        size = int(np.prod(shape))
        x = rng.uniform(0.2, 0.8, size=shape)
        lo, hi = x - 0.05, x + 0.05
        basis = np.concatenate([np.zeros((1, size)), np.eye(size)])
        q = nn.forward_batch(net, basis.reshape(-1, *shape))[-1]
        offset, jac = q[0], q[1:] - q[0]   # out = x.flat @ jac + offset
        for a_star in range(len(offset)):
            g = jac[:, [a_star]] - np.delete(jac, a_star, axis=1)
            exact = (offset[a_star] - np.delete(offset, a_star)
                     + np.minimum(g * lo.reshape(-1, 1),
                                  g * hi.reshape(-1, 1)).sum(axis=0))
            np.testing.assert_allclose(
                nn.margin_lower_bounds(net, lo, hi, a_star), exact,
                rtol=0, atol=1e-12)


def test_margin_bound_back_substitutes_the_hidden_bounds():
    """On [0.4, 0.6]^2, h = relu(x1 - x2 + 1), relu(x2 - x1 + 1) and
    z = relu(h1 + h2 - 1.9) with Q = (0.15, z): h1 + h2 = 2 everywhere, so
    z = 0.1 and the margin Q0 - Q1 is 0.05 on the whole box. IBP gives z's
    pre-activation [-0.3, 0.5], whose chord would bound the margin by -0.1;
    back-substitution bounds it to exactly 0.1, and the bound is exact."""
    net = nn.ParamSet([
        nn.DenseLayer([[1.0, -1.0], [-1.0, 1.0]], [1.0, 1.0], "relu"),
        nn.DenseLayer([[1.0, 1.0]], [-1.9], "relu"),
        nn.DenseLayer([[0.0], [1.0]], [0.15, 0.0])])
    lo, hi = np.full(2, 0.4), np.full(2, 0.6)
    np.testing.assert_allclose(box_bounds(net, lo, hi)[1], [0.15, 0.5])
    np.testing.assert_allclose(nn.margin_lower_bounds(net, lo, hi, 0),
                               [0.05], rtol=0, atol=1e-12)


def test_margin_bound_holds_at_cw_flips(vanilla_checkpoint,
                                        radial_checkpoint, sa_checkpoint,
                                        monkeypatch):
    """Where C&W flips the action, the point it returns lies in the box, so
    no bound exceeds the margin there (float64 rounding aside). The search
    runs on certified states too, to check that no certified box holds a
    flip."""
    cases = []
    for ck, _ in (vanilla_checkpoint, radial_checkpoint, sa_checkpoint):
        for obs, a_star in clean_states(ck):
            for eps in (2 / 255, 3 / 255):
                box = ql.input_box(obs / ql.OBS_SCALE, eps)
                cases.append((ck.params, obs, eps, a_star,
                              nn.margin_lower_bounds(ck.params, *box, a_star)))
    certify_nothing(monkeypatch)
    flips = 0
    for net, obs, eps, a_star, bounds in cases:
        res = atk.cw_minimal(net, obs, atk.AttackSpec(method="cw",
                                                      epsilon=eps))
        if res.success:
            flips += 1
            point = res.observation[None] / ql.OBS_SCALE
            assert (margins(net, point, a_star)[0] >= bounds - 1e-12).all()
    certified = sum((case[-1] > atk.BOUND_SLACK).all() for case in cases)
    assert flips > 0 and certified > 0


def test_margin_bound_holds_at_box_corners_and_random_points(
        rng, vanilla_checkpoint, radial_checkpoint, sa_checkpoint):
    """No margin at a box corner or at a seeded uniform point of the box
    falls below its bound, for every output as a_star: on the first clean
    states of the bundled policies at the attack radii, on small_net
    (padding 1, stride 2) and on dense_net, whose 1024 corners are all
    checked. Some bounds are positive, so the check is not vacuous."""
    cases = []
    for ck, _ in (vanilla_checkpoint, radial_checkpoint, sa_checkpoint):
        for obs, _ in clean_states(ck):
            cases += [(ck.params, *ql.input_box(obs / ql.OBS_SCALE, eps))
                      for eps in (5e-4, 2 / 255)]
    for seed in range(3):
        x = rng.uniform(0.2, 0.8, size=(9, 9, 1))
        cases.append((small_net(seed), x - 0.02, x + 0.02))
        x = rng.normal(size=10)
        cases += [(dense_net(seed), x - eps, x + eps) for eps in (0.01, 0.2)]
    positive = 0
    for net, lo, hi in cases:
        if lo.size == 10:
            pick = np.array(list(itertools.product((False, True), repeat=10)))
        else:
            pick = rng.random((256, *lo.shape)) < 0.5
        points = np.concatenate([np.where(pick, hi, lo),
                                 rng.uniform(lo, hi, (256, *lo.shape))])
        n_out = nn.forward_batch(net, lo[None])[-1].size
        for a_star in range(n_out):
            bounds = nn.margin_lower_bounds(net, lo, hi, a_star)
            assert bounds.shape == (n_out - 1,)
            # float64 rounding of the sampled margins only
            assert (margins(net, points, a_star) >= bounds - 1e-12).all()
            positive += (bounds > 0.0).all()
    assert positive > 0


def test_margin_bound_does_not_depend_on_the_block_size(
        vanilla_checkpoint, radial_checkpoint, monkeypatch):
    """The hidden layers' unit rows run BACKSUB_ROWS at a time; one row per
    block, a partial last block and one block for all give the same
    bounds up to float64 rounding."""
    cases = [(ck.params, *ql.input_box(obs / ql.OBS_SCALE, 2 / 255), a_star)
             for ck, _ in (vanilla_checkpoint, radial_checkpoint)
             for obs, a_star in clean_states(ck)]
    want = [nn.margin_lower_bounds(*case) for case in cases]
    for rows in (1, 7, 10 ** 4):
        monkeypatch.setattr(nn, "BACKSUB_ROWS", rows)
        for case, bounds in zip(cases, want):
            np.testing.assert_allclose(nn.margin_lower_bounds(*case), bounds,
                                       rtol=0, atol=1e-12)


def test_margin_bound_certifies_pinned_counts_of_pixelgrid_states(
        vanilla_checkpoint, radial_checkpoint, sa_checkpoint):
    """Of the 54 PixelGrid states (every floor cell but the goal), the
    bound certifies these many per bundled policy at 2/255, as C&W counts
    a certificate. The CROWN-IBP bound, with IBP hidden-layer intervals,
    certified 18, 13 and 46: a bound that loosens shows here."""
    layout = envs._grid_layout(vanilla_checkpoint[0].env_spec)
    frames = [layout.frame(cell) for cell in layout.starts]
    assert len(frames) == 54
    counts = []
    for ck, _ in (vanilla_checkpoint, radial_checkpoint, sa_checkpoint):
        counts.append(sum(
            bool((nn.margin_lower_bounds(
                ck.params, *ql.input_box(obs / ql.OBS_SCALE, 2 / 255),
                ql.greedy_action(ck.params, obs)) > atk.BOUND_SLACK).all())
            for obs in frames))
    assert counts == [26, 32, 54]


def test_margin_bound_of_a_one_output_net_has_no_rival():
    net = nn.ParamSet([nn.DenseLayer(np.ones((1, 3)), np.zeros(1))])
    bounds = nn.margin_lower_bounds(net, np.zeros(3), np.ones(3), 0)
    assert bounds.shape == (0,)
