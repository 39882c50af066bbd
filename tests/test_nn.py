"""Network core: forward/backward against finite differences and direct
convolution loops, the determinism contract, serialization round-trips,
optimizer identities."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import as_strided

from policyprobe import checkpoint as cp
from policyprobe import nn, perceptual
from policyprobe import qlearning as ql
from policyprobe.envs import make_env, make_spec

TESTS_DIR = Path(__file__).resolve().parent


def small_net(seed=0, activation="relu"):
    rng = np.random.default_rng([seed, 5])
    layers = [
        nn.ConvLayer(rng.normal(0, 0.4, (3, 3, 1, 4)), rng.normal(0, 0.1, 4),
                     stride=2, padding=1, activation=activation),
        nn.ConvLayer(rng.normal(0, 0.4, (3, 3, 4, 6)), rng.normal(0, 0.1, 6),
                     stride=2, padding=0, activation=activation),
        nn.DenseLayer(rng.normal(0, 0.3, (5, 24)), rng.normal(0, 0.1, 5),
                      activation="identity"),
    ]
    return nn.ParamSet(layers)


def dense_net(seed=0):
    rng = np.random.default_rng([seed, 6])
    return nn.ParamSet([
        nn.DenseLayer(rng.normal(0, 0.5, (7, 10)), rng.normal(0, 0.2, 7),
                      activation="relu"),
        nn.DenseLayer(rng.normal(0, 0.5, (3, 7)), rng.normal(0, 0.2, 3),
                      activation="identity"),
    ])


# ---------------------------------------------------------------------------
# Convolution against a direct quadruple loop
# ---------------------------------------------------------------------------

def direct_conv(x, kernel, bias, stride, pad):
    b, h, w, cin = x.shape
    kh, kw, _, cout = kernel.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((b, oh, ow, cout))
    for n in range(b):
        for i in range(oh):
            for j in range(ow):
                patch = xp[n, i * stride:i * stride + kh,
                           j * stride:j * stride + kw, :]
                for c in range(cout):
                    out[n, i, j, c] = (patch * kernel[:, :, :, c]).sum() \
                        + bias[c]
    return out


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1),
                                        (3, 2)])
def test_conv_forward_matches_direct_loop(stride, pad, rng):
    x = rng.normal(size=(2, 9, 8, 3))
    kernel = rng.normal(size=(3, 4, 3, 5))
    bias = rng.normal(size=5)
    got = nn.conv2d_forward(x, kernel, bias, stride, pad)
    want = direct_conv(x, kernel, bias, stride, pad)
    assert np.allclose(got, want, atol=1e-12)


def test_conv_gradients_match_finite_differences(rng):
    x = rng.normal(size=(1, 7, 7, 2))
    kernel = rng.normal(size=(3, 3, 2, 4))
    bias = rng.normal(size=4)
    gout = rng.normal(size=nn.conv2d_forward(x, kernel, bias, 2, 1).shape)

    def value(xv, kv):
        return float((nn.conv2d_forward(xv, kv, bias, 2, 1) * gout).sum())

    gk = nn.conv2d_kernel_grad(x, gout, kernel.shape, 2, 1)
    gx = nn.conv2d_input_grad(gout, kernel, 2, 1, x.shape[1], x.shape[2])
    h = 1e-6
    for idx in [(0, 0, 0, 0), (1, 2, 1, 3), (2, 2, 0, 2)]:
        kp = kernel.copy(); kp[idx] += h
        km = kernel.copy(); km[idx] -= h
        fd = (value(x, kp) - value(x, km)) / (2 * h)
        assert abs(fd - gk[idx]) < 1e-5
    for idx in [(0, 0, 0, 0), (0, 3, 4, 1), (0, 6, 6, 0)]:
        xp_ = x.copy(); xp_[idx] += h
        xm = x.copy(); xm[idx] -= h
        fd = (value(xp_, kernel) - value(xm, kernel)) / (2 * h)
        assert abs(fd - gx[idx]) < 1e-5


def featurenet_inputs(fnet, batch):
    """Each reference feature-net layer's input on `batch` PixelGrid
    frames, one entry per layer."""
    env = make_env(make_spec("pixelgrid", size=8, seed=0))
    x = np.stack([perceptual.area_resample(env.reset(seed))
                  for seed in range(batch)]) / perceptual.PIXEL_SCALE
    return [x] + nn.forward_batch(fnet, x)[:-1]


@pytest.mark.parametrize("batch", [1, 4])
def test_padded_conv_is_bit_equal_to_the_np_pad_form(batch, fnet):
    """Padding writes the input into a zero frame; the products are those
    of an np.pad copy run unpadded, bit for bit."""
    for lay, x in zip(fnet.layers, featurenet_inputs(fnet, batch)):
        p = lay.padding
        assert p > 0
        padded = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
        want = nn.conv2d_forward(padded, lay.weight, lay.bias, lay.stride, 0)
        got = nn.conv2d_forward(x, lay.weight, lay.bias, lay.stride, p)
        assert got.tobytes() == want.tobytes()


def test_windows_of_a_non_contiguous_input_match_as_strided(rng):
    x = rng.normal(size=(3, 11, 14, 2))[:, 1:, ::2]   # not C-contiguous
    assert not x.flags.c_contiguous
    kh, kw, s = 3, 2, 2
    oh, ow = (x.shape[1] - kh) // s + 1, (x.shape[2] - kw) // s + 1
    sb, sh, sw, sc = x.strides
    want = as_strided(x, (x.shape[0], oh, ow, kh, kw, x.shape[3]),
                      (sb, sh * s, sw * s, sh, sw, sc), writeable=False)
    got = nn._windows(x, kh, kw, s, oh, ow)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def dilated_input_grad(gout, kernel, stride, pad, in_h, in_w):
    """The input gradient as one dense correlation: dilate gout by the
    stride, pad it by the kernel size less one, correlate it with the
    spatially flipped, channel-swapped kernel, and crop the conv padding.
    Most of its products multiply inserted zeros; nn.conv2d_input_grad
    takes only the others, in this correlation's tap order."""
    kh, kw, cin, cout = kernel.shape
    b, oh, ow, _ = gout.shape
    hd, wd = (oh - 1) * stride + 1, (ow - 1) * stride + 1
    gd = np.zeros((b, hd + 2 * (kh - 1), wd + 2 * (kw - 1), cout))
    gd[:, kh - 1:kh - 1 + hd:stride, kw - 1:kw - 1 + wd:stride] = gout
    kf = np.ascontiguousarray(kernel[::-1, ::-1].transpose(0, 1, 3, 2))
    full = nn.conv2d_forward(gd, kf, None, 1, 0)
    dxp = np.zeros((b, in_h + 2 * pad, in_w + 2 * pad, cin))
    dxp[:, :full.shape[1], :full.shape[2]] = full
    return dxp[:, pad:pad + in_h, pad:pad + in_w]


def sparse_gout(rng, shape):
    """A pre-activation gradient as the rectifier leaves it: about a third
    of its entries are exact zeros."""
    return rng.normal(size=shape) * (rng.random(shape) > 0.3)


@pytest.mark.parametrize("layer", [0, 1])
@pytest.mark.parametrize("batch", [1, 2, 8, 32])
def test_input_grad_is_bit_equal_to_the_dilated_correlation(
        layer, batch, rng, vanilla_checkpoint):
    """The determinism contract's case: on the bundled Q-net conv layers,
    (6, 6, 1, 8) at stride 3 and (3, 3, 8, 16) at stride 2, the phase
    decomposition returns the dilated correlation's bits."""
    lay = vanilla_checkpoint[0].params.layers[layer]
    in_hw = (24, 7)[layer]
    x = rng.uniform(size=(batch, in_hw, in_hw, lay.weight.shape[2]))
    gout = sparse_gout(rng, nn.conv2d_forward(x, lay.weight, None, lay.stride,
                                              lay.padding).shape)
    got = nn.conv2d_input_grad(gout, lay.weight, lay.stride, lay.padding,
                               in_hw, in_hw)
    want = dilated_input_grad(gout, lay.weight, lay.stride, lay.padding,
                              in_hw, in_hw)
    assert np.array_equal(got, want)


CONV_CASES = [  # kernel shape, stride, padding, input height and width
    ((6, 6, 3, 8), 3, 0, (24, 24)),
    ((3, 3, 4, 5), 1, 1, (9, 8)),
    ((3, 3, 2, 4), 2, 1, (10, 11)),
    ((5, 3, 2, 4), 2, 2, (11, 9)),
    ((2, 4, 3, 6), 3, 1, (13, 12)),
    ((1, 1, 2, 3), 2, 0, (7, 7)),
]


@pytest.mark.parametrize("kshape,stride,pad,in_hw", CONV_CASES)
@pytest.mark.parametrize("batch", [1, 8, 32])
def test_input_grad_is_ulp_close_to_the_dilated_correlation(
        kshape, stride, pad, in_hw, batch, rng):
    """Elsewhere BLAS may group the same products differently: the two
    agree to a few ulps of the largest gradient entry."""
    kernel = rng.normal(size=kshape)
    x = rng.normal(size=(batch, *in_hw, kshape[2]))
    gout = sparse_gout(rng, nn.conv2d_forward(x, kernel, None, stride,
                                              pad).shape)
    got = nn.conv2d_input_grad(gout, kernel, stride, pad, *in_hw)
    want = dilated_input_grad(gout, kernel, stride, pad, *in_hw)
    assert got.shape == x.shape
    assert np.abs(got - want).max() <= 8 * np.spacing(np.abs(want).max())


@pytest.mark.parametrize("kshape,stride,pad,in_hw", CONV_CASES)
def test_input_grad_is_the_adjoint_of_the_forward(kshape, stride, pad, in_hw,
                                                  rng):
    """<conv(x), g> = <x, input_grad(g)> for the bias-free convolution; the
    non-square kernels check that each axis is padded by its own size."""
    kernel = rng.normal(size=kshape)
    x = rng.normal(size=(2, *in_hw, kshape[2]))
    y = nn.conv2d_forward(x, kernel, None, stride, pad)
    gout = rng.normal(size=y.shape)
    gx = nn.conv2d_input_grad(gout, kernel, stride, pad, *in_hw)
    assert np.isclose((y * gout).sum(), (x * gx).sum(), rtol=1e-12)


# ---------------------------------------------------------------------------
# Whole-network backprop against finite differences
# ---------------------------------------------------------------------------

def loss_of(net, x, gout):
    return float((nn.forward(net, x)[-1] * gout).sum())


def fd_param_grads(net, x, gout, h=1e-6):
    grads = net.zeros_like()
    for (li, name, arr), (_, _, garr) in zip(net.arrays(), grads.arrays()):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + h
            up = loss_of(net, x, gout)
            arr[idx] = old - h
            down = loss_of(net, x, gout)
            arr[idx] = old
            garr[idx] = (up - down) / (2 * h)
    return grads


def test_backprop_matches_finite_differences_dense(rng):
    net = dense_net()
    x = rng.normal(size=10)
    gout = rng.normal(size=3)
    tape = []
    nn.forward(net, x, tape)
    grads = nn.backprop_batch(net, x[None], gout[None], "params", tape)
    fd = fd_param_grads(net, x, gout)
    for (_, name, g), (_, _, f) in zip(grads.arrays(), fd.arrays()):
        assert np.allclose(g, f, atol=2e-5), name


def test_backprop_matches_finite_differences_conv(rng):
    net = small_net()
    x = rng.uniform(0.1, 0.9, size=(9, 9, 1))
    gout = rng.normal(size=5)
    tape = []
    nn.forward(net, x, tape)
    grads = nn.backprop_batch(net, x[None], gout[None], "params", tape)
    fd = fd_param_grads(net, x, gout)
    for (_, name, g), (_, _, f) in zip(grads.arrays(), fd.arrays()):
        assert np.allclose(g, f, atol=2e-5), name


def test_input_gradient_matches_finite_differences(rng):
    net = small_net(activation="identity")
    x = rng.uniform(0.1, 0.9, size=(9, 9, 1))
    gout = rng.normal(size=5)
    tape = []
    nn.forward(net, x, tape)
    gin = nn.backprop_batch(net, x[None], gout[None], "input", tape)[0]
    h = 1e-6
    for idx in [(0, 0, 0), (4, 5, 0), (8, 8, 0)]:
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        fd = (loss_of(net, xp, gout) - loss_of(net, xm, gout)) / (2 * h)
        assert abs(fd - gin[idx]) < 1e-5


def test_backprop_names_one_product(rng):
    net = small_net()
    x = rng.uniform(0.1, 0.9, size=(9, 9, 1))
    tape = []
    nn.forward(net, x, tape)
    with pytest.raises(ValueError, match="wrt"):
        nn.backprop_batch(net, x[None], rng.normal(size=(1, 5)), "both",
                          tape)
    with pytest.raises(nn.ShapeMismatchError):
        nn.backprop_batch(net, x[None], rng.normal(size=(1, 4)), "input",
                          tape)


def test_backprop_rejects_a_tape_from_another_input(rng):
    net = small_net()
    xs = rng.uniform(0.1, 0.9, size=(3, 9, 9, 1))
    gout = rng.normal(size=(2, 5))
    tape = []
    nn.forward_batch(net, xs, tape)
    with pytest.raises(nn.ShapeMismatchError, match="tape"):
        nn.backprop_batch(net, xs[:2], gout, "params", tape)
    with pytest.raises(ValueError, match="empty tape"):
        nn.backprop_batch(net, xs[:2], gout, "input", [])
    box_tape = []
    nn.ibp_forward_batch(net, xs - 0.01, xs + 0.01, box_tape)
    with pytest.raises(nn.ShapeMismatchError, match="tape"):
        nn.ibp_backprop_batch(net, xs[:2] - 0.01, xs[:2] + 0.01, gout, gout,
                              box_tape)


def test_batch_forward_agrees_with_single(rng):
    net = small_net()
    xs = rng.uniform(size=(4, 9, 9, 1))
    batch_out = nn.forward_batch(net, xs)[-1]
    for i in range(4):
        single = nn.forward(net, xs[i])[-1]
        assert np.allclose(batch_out[i], single, atol=1e-12)


def test_forward_without_a_tape_returns_the_taped_bits(rng, fnet):
    qnet = reference_nets()[0]
    cases = [(qnet, rng.uniform(size=(1, 24, 24, 1))),
             (qnet, rng.uniform(size=(5, 24, 24, 1))),
             (small_net(), rng.uniform(size=(3, 9, 9, 1))),
             (fnet, featurenet_inputs(fnet, 4)[0])]
    for net, x in cases:
        tape: list = []
        taped = nn.forward_batch(net, x, tape)
        plain = nn.forward_batch(net, x)
        assert len(tape) == len(net.layers)
        assert [a.tobytes() for a in plain] == [a.tobytes() for a in taped]


def layerwise_forward(net, x):
    """forward_batch spelled out a layer at a time and out of place: the
    public conv2d_forward with its bias, or the dense product plus the
    bias, then np.maximum for a rectifier."""
    outs, cur = [], x
    for lay in net.layers:
        if isinstance(lay, nn.ConvLayer):
            pre = nn.conv2d_forward(cur, lay.weight, lay.bias, lay.stride,
                                    lay.padding)
        else:
            pre = cur.reshape(len(cur), -1) @ lay.weight.T + lay.bias
        cur = np.maximum(pre, 0.0) if lay.activation == "relu" else pre
        outs.append(cur)
    return outs


@pytest.mark.parametrize("batch", [1, 32])
def test_forward_matches_the_layerwise_reference(batch, rng, fnet):
    """The in-place bias and rectifier give the out-of-place bits, with and
    without a tape, at batch 1 (every single-observation caller) and 32
    (training)."""
    cases = [(net, rng.uniform(size=(batch, 24, 24, 1)))
             for net in reference_nets()]
    cases += [(small_net(), rng.normal(size=(batch, 9, 9, 1))),
              (fnet, featurenet_inputs(fnet, batch)[0])]
    for net, x in cases:
        want = [a.tobytes() for a in layerwise_forward(net, x)]
        assert [a.tobytes() for a in nn.forward_batch(net, x)] == want
        assert [a.tobytes() for a in nn.forward_batch(net, x, [])] == want


def test_shape_mismatch_rejected(rng):
    net = small_net()
    with pytest.raises(nn.ShapeMismatchError):
        nn.forward(net, rng.normal(size=(5, 5, 1)))
    with pytest.raises(nn.ShapeMismatchError):
        nn.forward(net, rng.normal(size=(9, 9, 3)))


def test_non_finite_input_rejected():
    net = dense_net()
    bad = np.full(10, np.nan)
    with pytest.raises(nn.NonFiniteError):
        nn.forward(net, bad)


def test_non_finite_output_rejected():
    """A finite input whose output overflows is refused by the same check
    and message."""
    net = nn.ParamSet([nn.DenseLayer(np.full((2, 10), 1e300), np.zeros(2))])
    with np.errstate(over="ignore"), pytest.raises(
            nn.NonFiniteError, match="^non-finite values in network output$"):
        nn.forward(net, np.full(10, 1e10))


# ---------------------------------------------------------------------------
# Determinism contract (see the nn module docstring)
# ---------------------------------------------------------------------------

def reference_nets():
    paths = (TESTS_DIR / "data" / f"{name}_pixelgrid.txt"
             for name in ("vanilla", "radial", "sa"))
    return [cp.load_checkpoint(path)[0].params for path in paths]


def reference_states(nets):
    """Every distinct observation the bundled policies visit on clean
    episodes 0..99, in first-visit order, scaled to [0, 1]."""
    env = make_env(make_spec("pixelgrid", size=8, seed=0))
    seen = {}
    for net in nets:
        for seed in range(100):
            obs, terminal = env.reset(seed), False
            while not terminal:
                seen.setdefault(obs.tobytes(), obs)
                step = env.step(ql.greedy_action(net, obs))
                obs, terminal = step.observation, step.terminal
    return np.stack(list(seen.values())) / 255.0


def contract_outputs() -> bytes:
    """Q values, interval bounds and input gradients of each reference net
    on the reference states, run in chunks of 1, of 8 and of all of them."""
    nets = reference_nets()
    x = reference_states(nets)
    out = []
    for net in nets:
        for size in (1, 8, len(x)):
            for i in range(0, len(x), size):
                tape: list = []
                q = nn.forward_batch(net, x[i:i + size], tape)[-1]
                gout = np.linspace(-1.0, 1.0, q.size).reshape(q.shape)
                out.append(q)
                out.append(nn.backprop_batch(net, x[i:i + size], gout,
                                             "input", tape))
                out.extend(nn.ibp_forward_batch(
                    net, *ql.input_box(x[i:i + size], 0.01)))
    return b"".join(a.tobytes() for a in out)


def test_batch_passes_are_bit_exact_across_blas_threads():
    path = os.pathsep.join(filter(None, [str(TESTS_DIR.parent / "src"),
                                         str(TESTS_DIR),
                                         os.environ.get("PYTHONPATH")]))
    code = ("import sys, test_nn; "
            "sys.stdout.buffer.write(test_nn.contract_outputs())")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        outputs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                      capture_output=True, check=True,
                                      timeout=300).stdout)
    assert len(outputs[0]) > 0 and outputs[0] == outputs[1]


def test_batch_size_moves_q_values_by_ulps_only():
    nets = reference_nets()
    x = reference_states(nets)
    for net in nets:
        single = np.concatenate([nn.forward_batch(net, x[i:i + 1])[-1]
                                 for i in range(len(x))])
        bound = 16 * np.spacing(np.abs(single).max(axis=1))
        for size in (2, 8, 32):
            q = np.concatenate([nn.forward_batch(net, x[i:i + size])[-1]
                                for i in range(0, len(x), size)])
            assert np.array_equal(q.argmax(axis=1), single.argmax(axis=1))
            assert np.all(np.abs(q - single).max(axis=1) <= bound)


def test_input_gradient_reads_only_the_rectifier_masks(rng):
    """Two observations with equal rectifier patterns get bit-identical
    input gradients for the same output gradient, although their
    activations differ; a pair whose patterns differ gets another gradient.
    C&W memoizes its margin gradient on the pattern because of this."""
    ck, _ = cp.load_checkpoint(TESTS_DIR / "data" / "vanilla_pixelgrid.txt")
    x = make_env(ck.env_spec).reset(0) / 255.0
    gout = np.zeros(ck.params.layers[-1].out_features)
    gout[0], gout[1] = 1.0, -1.0

    def pattern_and_grad(obs):
        tape = []
        q = nn.forward(ck.params, obs, tape)[-1]
        grad = nn.backprop_batch(ck.params, obs[None], gout[None], "input",
                                 tape)[0]
        return q, nn.rectifier_pattern(tape), grad

    q0, m0, g0 = pattern_and_grad(x)
    # scaling keeps blank pixels at zero, so the pre-activations that sit
    # at exactly zero (zero-bias channels over blank windows) stay there
    q1, m1, g1 = pattern_and_grad(x * (1.0 + 1e-9))
    assert not np.array_equal(q0, q1)
    assert m1 == m0
    assert np.array_equal(g0, g1)
    _, m2, g2 = pattern_and_grad(x + rng.uniform(-0.05, 0.05, x.shape))
    assert m2 != m0
    assert not np.array_equal(g0, g2)


# ---------------------------------------------------------------------------
# Initialization and fixed architecture
# ---------------------------------------------------------------------------

def test_qnet_architecture_and_determinism():
    a = nn.qnet_params((24, 24, 1), 4, seed=9)
    b = nn.qnet_params((24, 24, 1), 4, seed=9)
    c = nn.qnet_params((24, 24, 1), 4, seed=10)
    for (_, _, x), (_, _, y) in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)
    assert any(not np.array_equal(x, y) for (_, _, x), (_, _, y)
               in zip(a.arrays(), c.arrays()))
    out = nn.forward(a, np.zeros((24, 24, 1)))[-1]
    assert out.shape == (4,)


def test_copy_and_zeros_like_keep_each_layers_settings():
    """A copy holds equal, fresh arrays and zeros_like zero arrays of the
    same shapes; both keep each layer's type, stride, padding and
    activation."""
    net = small_net(activation="identity")
    net.layers[1].activation = "relu"   # the two conv layers differ
    for other, fill in ((net.copy(), None), (net.zeros_like(), 0.0)):
        for lay, got in zip(net.layers, other.layers, strict=True):
            assert type(got) is type(lay)
            if isinstance(lay, nn.ConvLayer):
                assert (got.stride, got.padding) == (lay.stride, lay.padding)
            assert got.activation == lay.activation
            for mine, theirs in ((lay.weight, got.weight),
                                 (lay.bias, got.bias)):
                assert theirs is not mine and theirs.shape == mine.shape
                assert np.array_equal(theirs, mine if fill is None
                                      else np.zeros_like(mine))


@given(h=st.integers(12, 40), w=st.integers(12, 40))
@settings(max_examples=25, deadline=None)
def test_qnet_accepts_varied_grids(h, w):
    net = nn.qnet_params((h, w, 1), 4, seed=1)
    out = nn.forward(net, np.zeros((h, w, 1)))[-1]
    assert out.shape == (4,) and np.all(np.isfinite(out))


def test_qnet_rejects_too_small_observations():
    with pytest.raises(nn.ShapeMismatchError):
        nn.qnet_params((8, 8, 1), 4, seed=1)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def test_adam_first_step_moves_by_lr_in_sign_direction(rng):
    net = dense_net()
    grads = net.zeros_like()
    for _, _, g in grads.arrays():
        g[...] = rng.choice([-3.0, 1.5, 0.7], size=g.shape)
    before = [arr.copy() for _, _, arr in net.arrays()]
    opt = nn.Optimizer(1e-3)
    opt.step(net, grads)
    # bias-corrected first step is lr * sign(g) up to the eps regularizer
    for prev, (_, _, now), (_, _, g) in zip(before, net.arrays(),
                                            grads.arrays()):
        assert np.allclose(now, prev - 1e-3 * np.sign(g), atol=1e-5)


def test_optimizer_rejects_non_finite_grads():
    net = dense_net()
    grads = net.zeros_like()
    for _, _, g in grads.arrays():
        g[...] = np.inf
    opt = nn.Optimizer(0.1)
    with pytest.raises(nn.NonFiniteError):
        opt.step(net, grads)


# ---------------------------------------------------------------------------
# Serialization (the parameter codec lives in checkpoint)
# ---------------------------------------------------------------------------

def test_serialization_round_trip_bit_exact(rng):
    net = small_net()
    for _, _, arr in net.arrays():   # excite the full float range
        arr *= rng.uniform(1e-8, 1e8)
    text = cp.serialize_params(net, kind="qnet")
    lines = text.splitlines()
    back, end = cp.parse_params(lines, 0, "qnet")
    assert end == len(lines)
    for (_, name, a), (_, _, b) in zip(net.arrays(), back.arrays()):
        assert np.array_equal(a, b), name
    assert cp.serialize_params(back, kind="qnet") == text
    with pytest.raises(cp.CheckpointFormatError, match="kind"):
        cp.parse_params(lines, 0, "featurenet")


def test_parse_rejects_damage():
    text = cp.serialize_params(dense_net(), kind="qnet")
    with pytest.raises(cp.CheckpointFormatError):
        cp.parse_params(text.replace("paramset v1", "paramset v2")
                        .splitlines(), 0, "qnet")
    with pytest.raises(cp.CheckpointFormatError):
        cp.parse_params(text[: len(text) // 2].splitlines(), 0, "qnet")
    with pytest.raises(cp.CheckpointFormatError):
        cp.parse_params([], 0, "qnet")


@given(st.lists(st.floats(-1e12, 1e12, allow_nan=False), min_size=1,
                max_size=30))
@settings(max_examples=40, deadline=None)
def test_number_encoding_round_trips_exactly(values):
    net = nn.ParamSet([nn.DenseLayer(np.array([values]), np.zeros(1),
                                     activation="identity")])
    back, _ = cp.parse_params(
        cp.serialize_params(net, kind="qnet").splitlines(), 0, "qnet")
    assert np.array_equal(back.layers[0].weight, np.array([values]))
