"""Minimal dense/conv network core used by every other module.

Everything runs in float64 numpy. The layer set is deliberately frozen to
dense, 2-D convolution (stride >= 1, zero padding) and the rectifier, which
is enough for the Q-networks, the reference feature network, and interval
bound propagation. The numeric path is batched: every pass takes arrays
with a leading batch axis, and one observation is a batch of one.
`forward` is a convenience over `forward_batch` for a single input. The
module is numerics only and imports no other package module; the
parameters' text format lives in `checkpoint`.

Conventions:
  - conv inputs/outputs are (B, H, W, C); a conv layer's `weight` is its
    kernel, (kh, kw, cin, cout)
  - dense weights are (out, in); a dense layer flattens its input row-major
  - parameter gradients come back as a ParamSet of the same shape as the
    parameters

A layer's linear map, its weight and bias gradients and its input gradient
are `_affine`, `_affine_grads` and `_affine_input_grad`, each branching
once on conv vs dense. Each backward pass computes one product, the one
its caller consumes:
  - `backprop_batch` runs the reverse walk `_backward`; with wrt="params"
    it returns the parameter gradients (a ParamSet summed over the batch)
    and never forms the input gradient below the first layer; training
    uses this
  - with wrt="input" it returns the input gradient (shaped like the input)
    and forms no parameter gradient; attacks use this
  - `ibp_backprop_batch` returns parameter gradients only
  - `margin_lower_bounds` is CROWN: one backward linear relaxation,
    `_backsub` (`_affine_input_grad` with the bounded forms as the batch
    axis), bounds every rectified hidden layer's unstable neurons during
    the IBP pass (`_interval_walk`, which `ibp_forward_batch` runs too),
    and then the rival margins. No digest pins its bits: its one caller,
    C&W, returns the same bytes whether or not a bound certifies a state
Every backward pass reads its input and activations from the `tape` list the
matching forward pass (`forward_batch` / `ibp_forward_batch`) filled, so
each gradient costs one forward pass, and a caller can inspect the outputs
before it chooses the output gradient. `forward_batch` records only when
it is handed a tape: each layer's input, its shapes and its rectifier
mask, a bool array (g * mask gives the bits a 0/1 float mask gives).
Without a tape it forms no mask, so forward-only callers pay nothing for
a backward pass they never run. Each layer's linear map returns a fresh
product, so `_affine` adds the bias to it in place, and the rectifier then
overwrites it in place once the mask has been taken: neither allocates an
array. In place or not, an add or a maximum gives the same bits.

Convolutions run as im2col plus one matrix product. The im2col matrix is
one contiguous copy of a strided window view, an ndarray built directly
over the input's buffer. Zero padding first copies the input into the
middle of a preallocated zero frame: the values np.pad would give, without
its per-call overhead.
The input gradient of a stride-s convolution is the full correlation of
the s-dilated output gradient with the spatially flipped, channel-swapped
kernel. Most of that correlation's products multiply inserted zeros:
output row h meets undilated gout entries only through the kernel rows
u = (kh - 1 - h) mod s, + s, + 2s, ... So `conv2d_input_grad` splits the
rows and columns of the correlation by stride phase (h mod s, w mod s).
Each phase is a stride-1 correlation of the undilated gout with that
phase's kernel taps, in the dilated correlation's (u, v, cout) order: one
im2col and one matrix product per phase, written into the phase's strided
slots of the input gradient. BLAS gets the same nonzero products as the
dilated form, in the same order, and none of the zeros.

Determinism contract. The matrix products go through BLAS, whose summation
order follows the shapes it is handed:
  - For a fixed batch composition, `forward_batch`, `ibp_forward_batch`
    and the input gradient of `backprop_batch` return the same bits at 1
    and at 2 BLAS threads.
  - On the bundled Q-net conv layers, (6, 6, 1, 8) at stride 3 and
    (3, 3, 8, 16) at stride 2, `conv2d_input_grad` returns the bits of the
    dilated correlation at every batch size and at 1 and 2 BLAS threads,
    so checkpoint ids and attack outputs do not depend on which of the two
    forms runs. On other shapes BLAS may group the same products
    differently, and the two agree to a few ulps only.
  - Across batch sizes, a `forward_batch` row's values are not bit-stable:
    the same state at B=1 and inside a batch of 32 may differ in the last
    bits, because numpy runs a dense layer's one-row product as gemv and a
    wider one as gemm. They agree to within 16 * np.spacing of the row's
    largest |Q|, and the greedy argmax agrees on every distinct state the
    bundled reference policies visit on their clean episodes.
  - `forward_rows` rows hold the B=1 bits: matmul over a leading stack
    axis makes each row's own BLAS call, the one that row gets alone.
  - The input gradient of `backprop_batch` reads gout, the tape's
    rectifier masks, the weights and the shapes, never the activation
    values, so two inputs with equal masks get the same bits for the same
    gout.
So any output that is compared bit for bit must come from one fixed batch
composition; every single-observation caller uses B=1 or forward_rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

Array = np.ndarray

ACTIVATIONS = ("identity", "relu")


class ShapeMismatchError(ValueError):
    """Input/parameter shape disagreement, diagnosed with the layer index."""


class NonFiniteError(ValueError):
    """NaN or Inf encountered where finite values are required."""


def require_finite(arr: Array, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {what}")


# ---------------------------------------------------------------------------
# Layers and parameter sets
# ---------------------------------------------------------------------------

@dataclass
class DenseLayer:
    weight: Array  # (out, in)
    bias: Array    # (out,)
    activation: str = "identity"

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ShapeMismatchError(
                f"dense layer: weight {self.weight.shape} / bias {self.bias.shape}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unsupported activation {self.activation!r}")

    @property
    def in_features(self) -> int:
        return self.weight.shape[1]

    @property
    def out_features(self) -> int:
        return self.weight.shape[0]


@dataclass
class ConvLayer:
    weight: Array  # the kernel, (kh, kw, cin, cout)
    bias: Array    # (cout,)
    stride: int = 1
    padding: int = 0
    activation: str = "identity"

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 4 or self.bias.shape != (self.weight.shape[3],):
            raise ShapeMismatchError(
                f"conv layer: kernel {self.weight.shape} / bias {self.bias.shape}")
        if self.stride < 1 or self.padding < 0:
            raise ValueError("conv layer needs stride >= 1 and padding >= 0")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unsupported activation {self.activation!r}")


Layer = DenseLayer | ConvLayer


@dataclass
class ParamSet:
    """Ordered list of layers; also used as the container for gradients."""

    layers: list[Layer] = field(default_factory=list)

    def _map(self, fn) -> "ParamSet":
        """Same layers, with fn applied to every parameter array."""
        return ParamSet([replace(lay, weight=fn(lay.weight), bias=fn(lay.bias))
                         for lay in self.layers])

    def copy(self) -> "ParamSet":
        return self._map(np.copy)

    def zeros_like(self) -> "ParamSet":
        return self._map(np.zeros_like)

    def arrays(self):
        """Yield (layer_index, field_name, array) for every parameter array."""
        for i, lay in enumerate(self.layers):
            yield i, "weight", lay.weight
            yield i, "bias", lay.bias


def add_scaled(params: ParamSet, grads: ParamSet, scale: float) -> None:
    """params += scale * grads, in place."""
    for (_, _, p), (_, _, g) in zip(params.arrays(), grads.arrays()):
        p += scale * g


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def _act(pre: Array, tag: str) -> Array:
    # in place: every caller hands over a fresh pre-activation it has
    # already taken its mask from
    if tag == "relu":
        return np.maximum(pre, 0.0, out=pre)
    return pre


def _act_mask(pre: Array, tag: str) -> Array | None:
    # derivative mask as bools (g * mask is g or a signed zero, the same
    # bits a 0/1 float mask gives); None means identity
    if tag == "relu":
        return pre > 0.0
    return None


# ---------------------------------------------------------------------------
# Convolution primitives (batched, NHWC)
# ---------------------------------------------------------------------------

def _windows(x: Array, kh: int, kw: int, stride: int, oh: int, ow: int) -> Array:
    """(B, oh, ow, kh, kw, C) view of the kh x kw windows of x, one every
    `stride` pixels from the top-left corner. The view is built straight
    over x's buffer (x is copied first only if it is not C-contiguous), so
    its windows overlap in memory: callers read it and never write to it."""
    x = np.ascontiguousarray(x)
    b, _, _, c = x.shape
    sb, sh, sw, sc = x.strides
    return np.ndarray((b, oh, ow, kh, kw, c), x.dtype, x, 0,
                      (sb, sh * stride, sw * stride, sh, sw, sc))


def _conv_windows(x: Array, kh: int, kw: int, stride: int, pad: int) -> Array:
    """im2col: (B, H, W, C) -> (B*oh*ow, kh*kw*C) plus the output grid shape.
    Zero padding writes x into the middle of a zero frame."""
    b, h, w, c = x.shape
    if pad:
        frame = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
        frame[:, pad:pad + h, pad:pad + w] = x
        x, h, w = frame, h + 2 * pad, w + 2 * pad
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    cols = np.ascontiguousarray(_windows(x, kh, kw, stride, oh, ow))
    return cols.reshape(b * oh * ow, -1), (b, oh, ow)


def conv2d_forward(x: Array, kernel: Array, stride: int, pad: int,
                   stack: int = 1) -> Array:
    kh, kw, cin, cout = kernel.shape
    cols, (b, oh, ow) = _conv_windows(x, kh, kw, stride, pad)
    k2 = kernel.reshape(kh * kw * cin, cout)
    return (cols.reshape(stack, -1, k2.shape[0]) @ k2).reshape(b, oh, ow, cout)


def conv2d_kernel_grad(x: Array, gout: Array, kernel_shape: tuple,
                       stride: int, pad: int) -> Array:
    kh, kw, cin, cout = kernel_shape
    cols, (b, oh, ow) = _conv_windows(x, kh, kw, stride, pad)
    g2 = gout.reshape(b * oh * ow, cout)
    return (cols.T @ g2).reshape(kh, kw, cin, cout)


def _phase(r: int, k: int, s: int, n_full: int) -> tuple[int, int, int, int]:
    """One axis of stride phase r of the full correlation (module docstring):
    its first kernel tap, its tap count, its row count, and the gout row its
    first row's first tap reads, counted from the unpadded gout."""
    u0 = (k - 1 - r) % s
    return (u0, len(range(u0, k, s)), len(range(r, n_full, s)),
            (r + u0 - k + 1) // s)


def conv2d_input_grad(gout: Array, kernel: Array, stride: int, pad: int,
                      in_h: int, in_w: int) -> Array:
    """Gradient w.r.t. the conv input, one stride phase at a time (see the
    module docstring), then cropped of the zero padding."""
    kh, kw, cin, cout = kernel.shape
    b, oh, ow, _ = gout.shape
    s = stride
    hf, wf = (oh - 1) * s + kh, (ow - 1) * s + kw  # full correlation's size
    # A phase has at most ph + 1 taps per column and reads gout rows
    # -ph .. oh + ph - 1. One view of (ph + 1)-row windows starting at each
    # of those rows holds every phase's windows as a slice, so gout gets ph
    # zero rows above and 2 * ph below (pw, 2 * pw columns) to back it.
    ph, pw = (kh - 1) // s, (kw - 1) // s
    gp = np.zeros((b, oh + 3 * ph, ow + 3 * pw, cout))
    gp[:, ph:ph + oh, pw:pw + ow] = gout
    win = _windows(gp, ph + 1, pw + 1, 1, oh + 2 * ph, ow + 2 * pw)
    kf = kernel[::-1, ::-1].transpose(0, 1, 3, 2)  # (kh, kw, cout, cin)
    dxp = np.zeros((b, in_h + 2 * pad, in_w + 2 * pad, cin))
    col_phases = [(q, *_phase(q, kw, s, wf)) for q in range(s)]
    for r in range(s):
        u0, nu, nt, i0 = _phase(r, kh, s, hf)
        for q, v0, nv, nw, j0 in col_phases:
            if not (nu and nv):
                continue  # no tap reaches this phase: its gradient is zero
            cols = np.ascontiguousarray(
                win[:, ph + i0:ph + i0 + nt, pw + j0:pw + j0 + nw, :nu, :nv])
            k2 = kf[u0::s, v0::s].reshape(nu * nv * cout, cin)
            dxp[:, r:hf:s, q:wf:s] = (cols.reshape(b * nt * nw, -1) @ k2
                                      ).reshape(b, nt, nw, cin)
    return dxp[:, pad:pad + in_h, pad:pad + in_w]


# ---------------------------------------------------------------------------
# Forward / backward over a ParamSet
# ---------------------------------------------------------------------------

def _check_layer_input(i: int, lay: Layer, x: Array) -> None:
    if isinstance(lay, ConvLayer):
        if x.ndim != 4 or x.shape[3] != lay.weight.shape[2]:
            raise ShapeMismatchError(
                f"layer {i} (conv): expected input (*, H, W, {lay.weight.shape[2]}), "
                f"got {x.shape}")
        # conv_output_hw below 1 on either side, inline: this runs on
        # every batch-1 forward
        kh, kw = lay.weight.shape[:2]
        pad2 = 2 * lay.padding
        if x.shape[1] + pad2 < kh or x.shape[2] + pad2 < kw:
            raise ShapeMismatchError(f"layer {i} (conv): input {x.shape} too small "
                                     f"for kernel {lay.weight.shape[:2]}")
    else:
        flat = math.prod(x.shape[1:])
        if flat != lay.in_features:
            raise ShapeMismatchError(
                f"layer {i} (dense): expected {lay.in_features} input features, "
                f"got {flat} from shape {x.shape}")


def _affine(lay: Layer, x: Array, weight: Array, bias: Array | None,
            stack: int = 1) -> Array:
    """The layer's linear map with `weight` in place of its own (IBP sends
    the radius through |weight| with no bias), one matrix product for
    each of `stack` equal row blocks (see forward_rows); dense flattens x
    first. The bias is added in place to the fresh product."""
    if isinstance(lay, ConvLayer):
        y = conv2d_forward(x, weight, lay.stride, lay.padding, stack)
    else:
        y = (x.reshape(stack, -1, lay.in_features) @ weight.T).reshape(len(x), -1)
    if bias is not None:
        y += bias
    return y


def _affine_grads(lay: Layer, x: Array, g: Array) -> tuple[Array, Array]:
    """The weight and bias gradients at input x, summed over the batch."""
    if isinstance(lay, ConvLayer):
        return (conv2d_kernel_grad(x, g, lay.weight.shape, lay.stride,
                                   lay.padding), g.sum(axis=(0, 1, 2)))
    return g.T @ x.reshape(x.shape[0], -1), g.sum(axis=0)


def _affine_input_grad(lay: Layer, weight: Array, g: Array,
                       in_shape: tuple) -> Array:
    """The input gradient, shaped in_shape, of the map with `weight`."""
    if isinstance(lay, ConvLayer):
        return conv2d_input_grad(g, weight, lay.stride, lay.padding,
                                 in_shape[1], in_shape[2])
    return (g @ weight).reshape(in_shape)


def forward_batch(net: ParamSet, x: Array, tape: list | None = None) -> list[Array]:
    """Run a batch through the net; one post-activation array per layer.

    A `tape` list receives what a backward pass over this forward needs
    (see backprop_batch): each layer's input, shapes and rectifier mask.
    Without a tape nothing is recorded and no mask is formed.
    """
    return _forward(net, x, tape, 1)


def forward_rows(net: ParamSet, xs: Array, tape: list | None = None) -> list[Array]:
    """forward_batch as len(xs) stacked batch-1 passes: each layer's matrix
    product runs once per row, so row r of every output and tape entry has
    the bits forward_batch(net, xs[r:r + 1]) gives (determinism contract);
    `tape_row` cuts one row's batch-1 tape out of the tape."""
    return _forward(net, xs, tape, len(xs))


def _forward(net: ParamSet, x: Array, tape: list | None, stack: int) -> list[Array]:
    outs, entries = [], []
    cur = np.asarray(x, dtype=np.float64)
    for i, lay in enumerate(net.layers):
        _check_layer_input(i, lay, cur)
        pre = _affine(lay, cur, lay.weight, lay.bias, stack)
        if tape is not None:
            entries.append({"input": cur, "in_shape": cur.shape,
                            "mask": _act_mask(pre, lay.activation),
                            "out_shape": pre.shape})
        cur = _act(pre, lay.activation)
        outs.append(cur)
    if tape is not None:
        tape[:] = entries
    return outs


def forward(net: ParamSet, x: Array, tape: list | None = None) -> list[Array]:
    """Run a single input through the net.

    Returns one post-activation array per layer; the last entry is the
    network output.
    """
    outs = forward_batch(net, np.asarray(x, dtype=np.float64)[None], tape)
    squeezed = [o[0] for o in outs]
    require_finite(squeezed[-1], "network output")
    return squeezed


def _backward(net: ParamSet, tape: list[dict], g: Array,
              wrt: str) -> Array | ParamSet:
    """The reverse walk: wrt="params" adds each layer's weight and bias
    gradients into a zero ParamSet and stops at layer 0, never forming the
    input gradient; wrt="input" forms no parameter product."""
    grads = net.zeros_like() if wrt == "params" else None
    for i in range(len(net.layers) - 1, -1, -1):
        lay, entry = net.layers[i], tape[i]
        if entry["mask"] is not None:
            g = g * entry["mask"]
        if grads is not None:
            gw, gb = _affine_grads(lay, entry["input"], g)
            w, b = grads.layers[i].weight, grads.layers[i].bias
            w += gw
            b += gb
            if i == 0:
                return grads
        g = _affine_input_grad(lay, lay.weight, g, entry["in_shape"])
    return g


def _check_tape(tape: list[dict], *gout_shapes: tuple) -> None:
    """A backward pass reads its input and activations from the tape
    alone, so the output gradients must match the tape's output."""
    if not tape:
        raise ValueError("empty tape: run the forward pass with a tape first")
    for shape in gout_shapes:
        if shape != tape[-1]["out_shape"]:
            raise ShapeMismatchError(
                f"output grad shape {shape} != the tape's output shape "
                f"{tape[-1]['out_shape']}")


def backprop_batch(net: ParamSet, gout: Array, wrt: str,
                   tape: list) -> Array | ParamSet:
    """Exact reverse-mode gradient of <output, gout> at the batch of inputs
    whose forward pass filled `tape` (see forward_batch); the backward pass
    reads the inputs and activations from it.

    wrt="params" returns the parameter gradients summed over the batch;
    wrt="input" returns the input gradient, shaped like the input.
    """
    if wrt not in ("params", "input"):
        raise ValueError(f"wrt must be one of ('params', 'input'), got {wrt!r}")
    _check_tape(tape, np.shape(gout))
    return _backward(net, tape, np.asarray(gout, dtype=np.float64), wrt)


def tape_row(tape: list[dict], r: int) -> list[dict]:
    """Row r of a forward_rows tape as the tape its batch-1 pass fills."""
    return [{"input": e["input"][r:r + 1], "in_shape": (1, *e["in_shape"][1:]),
             "mask": None if e["mask"] is None else e["mask"][r:r + 1],
             "out_shape": (1, *e["out_shape"][1:])} for e in tape]


def rectifier_patterns(tape: list[dict]) -> list[bytes]:
    """Each row's rectifier masks on a forward tape, as one key per row: equal
    keys give equal batch-1 input-gradient bits (determinism contract)."""
    rows = np.empty((tape[0]["in_shape"][0], 0), bool)
    masks = [e["mask"].reshape(len(rows), -1) for e in tape if e["mask"] is not None]
    return [m.tobytes() for m in np.concatenate([rows, *masks], axis=1)]


# ---------------------------------------------------------------------------
# Interval bound propagation
# ---------------------------------------------------------------------------

def _interval_walk(net: ParamSet, lo: Array, hi: Array,
                   visit=None) -> tuple[Array, Array]:
    """The IBP pass: each layer's input box, as center mu and radius rad,
    goes through the linear map and |weight|, and the rectifier applies to
    both pre-activation bounds. visit(lay, mu, rad, pl, pu) sees every
    layer's pre-activation bounds before the rectifier overwrites them."""
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    if lo.shape != hi.shape:
        raise ShapeMismatchError(
            f"box bounds differ in shape: {lo.shape} vs {hi.shape}")
    if np.any(lo > hi):
        raise ValueError("box has lower > upper")
    for i, lay in enumerate(net.layers):
        _check_layer_input(i, lay, lo)
        mu, rad = (lo + hi) / 2.0, (hi - lo) / 2.0
        pmu = _affine(lay, mu, lay.weight, lay.bias)
        prad = _affine(lay, rad, np.abs(lay.weight), None)
        pl, pu = pmu - prad, pmu + prad
        if visit is not None:
            visit(lay, mu, rad, pl, pu)
        lo, hi = _act(pl, lay.activation), _act(pu, lay.activation)
    return lo, hi


def ibp_forward_batch(net: ParamSet, lo: Array, hi: Array,
                      tape: list | None = None) -> tuple[Array, Array]:
    """Sound elementwise output bounds for every input inside each box
    [lo, hi] of the batch (see _interval_walk). Bounds of different shapes
    or with lo > hi anywhere are refused. A `tape` list receives what
    ibp_backprop_batch needs (see there)."""
    entries = []

    def record(lay, mu, rad, pl, pu):
        entries.append({"mu": mu, "rad": rad, "in_shape": mu.shape,
                        "mask_l": _act_mask(pl, lay.activation),
                        "mask_u": _act_mask(pu, lay.activation),
                        "out_shape": pl.shape})

    out = _interval_walk(net, lo, hi, None if tape is None else record)
    if tape is not None:
        tape[:] = entries
    return out


BACKSUB_ROWS = 32  # most unit rows one hidden-layer back-substitution runs


def _backsub(net: ParamSet, k: int, coef: Array, layers: list) -> Array:
    """Lower bounds on <coef[r], output of layer k> over the input box, one
    per row r of coef, by back-substitution through layers k, ..., 0.
    layers[i] holds layer i's input box (center, radius) and its rectifier
    lines: None for an identity, and for a layer whose pre-activation is
    being bounded. A rectifier with bounds l < 0 < u lies below the chord
    u (z - l) / (u - l) and above alpha * z, alpha = 1 where u > -l and 0
    elsewhere; a stable one is 0 or z. Each layer picks, per coefficient
    sign, the line that bounds it from below, then carries the
    coefficients through the linear map with _affine_input_grad, the rows
    as its batch axis. At the input, the box's center and radius bound the
    linear form that is left."""
    n = len(coef)
    const = np.zeros(n)

    def per_row(a: Array) -> Array:
        return a.reshape(n, -1).sum(axis=1)

    for lay, (mu, _, line) in zip(net.layers[k::-1], layers[k::-1]):
        if line is not None:
            low, up, icpt = line
            neg = np.minimum(coef, 0.0)
            const += per_row(neg * icpt)
            coef = np.maximum(coef, 0.0) * low + neg * up
        const += per_row(coef * lay.bias)
        coef = _affine_input_grad(lay, lay.weight, coef, (n, *mu.shape[1:]))
    mu, rad = layers[0][:2]   # the input box
    return const + per_row(coef * mu - np.abs(coef) * rad)


def margin_lower_bounds(net: ParamSet, lo: Array, hi: Array,
                        a_star: int) -> Array:
    """Sound lower bounds on out[a_star] - out[a] over the box [lo, hi] (one
    input, no batch axis), one per rival a != a_star in output order, by
    CROWN (Zhang et al. 2018): the backward linear relaxation `_backsub`,
    run for the hidden layers' bounds as well as for the margins.

    The walk is _interval_walk's. At each rectified layer after the first
    (whose IBP interval is already exact), the neurons whose IBP interval
    straddles 0 are bounded by _backsub from that layer, with +-unit
    coefficients as its rows, BACKSUB_ROWS at a time. The result is
    intersected with IBP's interval in place, so the walk's next IBP step
    starts from the tighter box, and the layer's lines are formed from it.
    The rival margins then run through _backsub from the last layer."""
    layers = []  # per layer: its input box and its lines

    def relax(lay, mu, rad, pl, pu):
        k = len(layers)
        layers.append((mu, rad, None))
        if lay.activation != "relu":
            return
        fl, fu = pl.reshape(-1), pu.reshape(-1)   # views of the walk's bounds
        unstable = np.flatnonzero((fl < 0.0) & (fu > 0.0))
        if k and len(unstable):
            units = np.concatenate([unstable, unstable])
            sign = np.repeat([1.0, -1.0], len(unstable))
            got = np.empty(len(units))   # lower bounds on +z, then on -z
            for s in range(0, len(units), BACKSUB_ROWS):
                rows = slice(s, s + BACKSUB_ROWS)
                coef = np.zeros((len(units[rows]), fl.size))
                coef[range(len(coef)), units[rows]] = sign[rows]
                got[rows] = _backsub(net, k, coef.reshape(
                    len(coef), *pl.shape[1:]), layers)
            n = len(unstable)
            fl[unstable] = np.maximum(fl[unstable], got[:n])
            fu[unstable] = np.minimum(fu[unstable], -got[n:])
        on, split = pl >= 0.0, (pl < 0.0) & (pu > 0.0)
        up = np.where(split, pu / np.where(split, pu - pl, 1.0), on)
        # lower slope, upper slope, upper intercept: fresh arrays, never
        # pl or pu, which the walk rectifies in place once this returns
        layers[k] = (mu, rad, (np.where(split, pu > -pl, on), up,
                               np.where(split, -up * pl, 0.0)))

    out_shape = _interval_walk(net, np.asarray(lo)[None],
                               np.asarray(hi)[None], relax)[0].shape
    rivals = [a for a in range(math.prod(out_shape)) if a != a_star]
    if not rivals:
        return np.empty(0)
    coef = np.zeros((len(rivals), math.prod(out_shape)))
    coef[:, a_star] = 1.0
    coef[range(len(rivals)), rivals] = -1.0
    return _backsub(net, len(net.layers) - 1,
                    coef.reshape(len(rivals), *out_shape[1:]), layers)


def ibp_backprop_batch(net: ParamSet, glo: Array, ghi: Array,
                       tape: list) -> ParamSet:
    """Parameter gradients of <lower, glo> + <upper, ghi> for the IBP pass.

    The bounds are piecewise-linear in the parameters; at |W| the subgradient
    sign(W) is used. The walk ends with layer 0's parameter gradients: the
    input box itself takes no gradient. `tape` is the list ibp_forward_batch
    filled, and the bounds are the ones it ran.
    """
    _check_tape(tape, np.shape(glo), np.shape(ghi))
    grads = net.zeros_like()
    gl, gu = np.asarray(glo, dtype=np.float64), np.asarray(ghi, dtype=np.float64)
    for i in range(len(net.layers) - 1, -1, -1):
        lay, entry = net.layers[i], tape[i]
        if entry["mask_l"] is not None:
            gl = gl * entry["mask_l"]
            gu = gu * entry["mask_u"]
        gmu, grad_r = gl + gu, gu - gl
        gw_mu, gb = _affine_grads(lay, entry["mu"], gmu)
        gw_rad = _affine_grads(lay, entry["rad"], grad_r)[0]
        w, b = grads.layers[i].weight, grads.layers[i].bias
        w += gw_mu + np.sign(lay.weight) * gw_rad
        b += gb
        if i == 0:
            break
        dmu = _affine_input_grad(lay, lay.weight, gmu, entry["in_shape"])
        drad = _affine_input_grad(lay, np.abs(lay.weight), grad_r,
                                  entry["in_shape"])
        gl, gu = (dmu - drad) / 2.0, (dmu + drad) / 2.0
    return grads


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def init_dense(rng: np.random.Generator, n_in: int, n_out: int,
               activation: str = "identity") -> DenseLayer:
    bound = 1.0 / math.sqrt(n_in)
    w = rng.uniform(-bound, bound, size=(n_out, n_in))
    return DenseLayer(w, np.zeros(n_out), activation)


def init_conv(rng: np.random.Generator, kh: int, kw: int, cin: int, cout: int,
              stride: int = 1, padding: int = 0,
              activation: str = "relu") -> ConvLayer:
    bound = 1.0 / math.sqrt(kh * kw * cin)
    k = rng.uniform(-bound, bound, size=(kh, kw, cin, cout))
    return ConvLayer(k, np.zeros(cout), stride, padding, activation)


def conv_output_hw(h: int, w: int, lay: ConvLayer) -> tuple[int, int]:
    kh, kw = lay.weight.shape[:2]
    return ((h + 2 * lay.padding - kh) // lay.stride + 1,
            (w + 2 * lay.padding - kw) // lay.stride + 1)


def qnet_params(obs_shape: tuple[int, int, int], n_actions: int, seed: int) -> ParamSet:
    """Fan-in uniform initialized Q-network: two strided conv layers feeding
    a rectified hidden dense layer and a linear head of size n_actions."""
    h, w, c = obs_shape
    rng = np.random.default_rng([seed, 101])
    conv1 = init_conv(rng, 6, 6, c, 8, stride=3, activation="relu")
    h1, w1 = conv_output_hw(h, w, conv1)
    conv2 = init_conv(rng, 3, 3, 8, 16, stride=2, activation="relu")
    h2, w2 = conv_output_hw(h1, w1, conv2)
    if h2 < 1 or w2 < 1:
        raise ShapeMismatchError(
            f"observation {h}x{w} too small for the convolution stack "
            "(needs at least 12x12)")
    dense1 = init_dense(rng, h2 * w2 * 16, 64, activation="relu")
    head = init_dense(rng, 64, n_actions, activation="identity")
    return ParamSet([conv1, conv2, dense1, head])


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Optimizer:
    """Bias-corrected adaptive-moment (Adam) step at learning rate lr.

    Updates are applied in place and are deterministic given the state.
    Non-finite gradients abort the run.
    """

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self._m: ParamSet | None = None
        self._v: ParamSet | None = None

    def step(self, params: ParamSet, grads: ParamSet) -> ParamSet:
        for _, name, g in grads.arrays():
            require_finite(g, f"gradient ({name})")
        if self._m is None:
            self._m = params.zeros_like()
            self._v = params.zeros_like()
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for (_, _, p), (_, _, g), (_, _, m), (_, _, v) in zip(
                params.arrays(), grads.arrays(), self._m.arrays(), self._v.arrays()):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        return params
