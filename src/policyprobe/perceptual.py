"""Perceptual similarity distance over a fixed reference feature network.

The distance between two observations is computed from the internal
activations of a small frozen convolutional net: at every layer and spatial
site the channel vector is normalized to unit length, the squared
difference between the two inputs is averaged over space, and the
per-layer averages are summed:

    d(s1, s2) = sum_l (1/(H_l*W_l)) * sum_{h,w} || y1_lhw - y2_lhw ||^2

with y the unit-normalized activations. The network itself is never
trained; its weights come from a fixed seed and ship as a versioned text
asset so distances are bit-comparable across machines. The asset is a
`checkpoint` parameter section of kind "featurenet", written and read by
that module's codec; `build_reference_params` regenerates it from the seed.
`reference_featurenet` parses that asset once per process and shares the
net read-only with every caller. Observations are
area-resampled to the net's fixed 36x36 grayscale input; the resample
visits only each output cell's few nonzero taps, in the order of the dense
contraction, so it matches that contraction bit for bit (see
area_resample).
"""

from __future__ import annotations

import functools
from importlib import resources

import numpy as np

from . import checkpoint, nn
from .perturb import as_image

Array = np.ndarray

INPUT_SIZE = 36
PIXEL_SCALE = 255.0
FEATURENET_SEED = 2024
FEATURENET_VERSION = "featurenet_v1"
_CHANNELS = (8, 16, 16)
# Products an unoptimized np.einsum sums per pass (numpy's NPY_BUFSIZE)
_EINSUM_BUFFER = 8192


def build_reference_params(seed: int = FEATURENET_SEED) -> nn.ParamSet:
    """The reference net's weights: three stride-2 rectified conv layers,
    deterministic in the seed."""
    rng = np.random.default_rng([seed, 71])
    layers: list[nn.Layer] = []
    cin = 1
    for cout in _CHANNELS:
        layers.append(nn.init_conv(rng, 3, 3, cin, cout, stride=2, padding=1,
                                   activation="relu"))
        cin = cout
    return nn.ParamSet(layers)


@functools.lru_cache(maxsize=None)
def reference_featurenet() -> nn.ParamSet:
    """The shipped, versioned net, parsed once per process. Its arrays are
    read-only, because every caller shares them."""
    asset = resources.files("policyprobe").joinpath(
        f"assets/{FEATURENET_VERSION}.txt")
    params, _ = checkpoint.parse_params(asset.read_text().splitlines(), 0,
                                        "featurenet")
    for _, _, arr in params.arrays():
        arr.flags.writeable = False
    return params


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def _overlap_matrix(n_out: int, n_in: int) -> Array:
    """Row i averages input cells by their overlap with output cell i."""
    ratio = n_in / n_out
    mat = np.zeros((n_out, n_in))
    for i in range(n_out):
        lo, hi = i * ratio, (i + 1) * ratio
        k0, k1 = int(np.floor(lo)), int(np.ceil(hi))
        for k in range(k0, min(k1, n_in)):
            mat[i, k] = max(0.0, min(hi, k + 1) - max(lo, k)) / ratio
    return mat


@functools.lru_cache(maxsize=None)
def _taps(n_out: int, n_in: int) -> tuple[Array, Array]:
    """The nonzero entries of each `_overlap_matrix` row, in column order,
    as (n_out, k) index and weight arrays. Shorter rows are padded with
    their last index at weight zero."""
    mat = _overlap_matrix(n_out, n_in)
    width = int(np.count_nonzero(mat, axis=1).max())
    index = np.empty((n_out, width), dtype=np.intp)
    weight = np.zeros((n_out, width))
    for i, row in enumerate(mat):
        nz = np.flatnonzero(row)
        index[i] = nz[-1]
        index[i, :len(nz)] = nz
        weight[i, :len(nz)] = row[nz]
    return index, weight


def area_resample(obs: Array, size: int = INPUT_SIZE) -> Array:
    """Box-overlap (area-average) resample of (H, W, C) to (size, size, C).

    Exact pass-through when the input is already the target size. Channels
    beyond the first are averaged into one grayscale channel first.

    The result is bit-equal to the dense contraction
    einsum("ri,ijc,sj->rsc", rows, obs, cols) over the overlap matrices,
    as numpy runs it unoptimized: output (r, s) sums the products
    (rows[r, i] * obs[i, j]) * cols[s, j], i in the outer and j in the
    inner loop, starting from zero. The sum here takes the same taps in the
    same order but skips the zero weights, which add nothing. numpy sums
    in passes of whole input rows, at most _EINSUM_BUFFER products each,
    and adds each pass's sum to the output; so does this loop, so the two
    agree on any input narrower than _EINSUM_BUFFER pixels.
    """
    obs = as_image(obs)
    if obs.shape[2] > 1:
        obs = obs.mean(axis=2, keepdims=True)
    if obs.shape[:2] == (size, size):
        return obs
    row_i, row_w = _taps(size, obs.shape[0])
    col_i, col_w = _taps(size, obs.shape[1])
    rows_per_pass = max(1, _EINSUM_BUFFER // obs.shape[1])
    out = np.zeros((size, size, 1))
    part = np.zeros_like(out)
    pass_of = row_i[:, 0] // rows_per_pass
    for i, w in zip(row_i.T, row_w.T):
        done = i // rows_per_pass != pass_of
        out[done] += part[done]
        part[done] = 0.0
        pass_of = i // rows_per_pass
        row = w[:, None, None] * obs[i]
        for j, v in zip(col_i.T, col_w.T):
            part += row[:, j] * v[None, :, None]
    return out + part


# ---------------------------------------------------------------------------
# Metric
# ---------------------------------------------------------------------------

def _unit_normalize(act: Array) -> Array:
    """Scale each spatial site's channel vector to unit length; zero stays
    zero."""
    norms = np.sqrt((act ** 2).sum(axis=-1, keepdims=True))
    return np.divide(act, norms, out=np.zeros_like(act), where=norms > 0)


def normalized_activations(fnet: nn.ParamSet, s: Array) -> list[Array]:
    """Per-layer channel-unit-normalized activations for one observation."""
    x = area_resample(s) / PIXEL_SCALE
    acts = nn.forward(fnet, x)
    return [_unit_normalize(a) for a in acts]


def lpips(fnet: nn.ParamSet, s1: Array, s2: Array) -> float:
    """The perceptual distance; symmetric, nonnegative, zero at identity."""
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    if s1.shape != s2.shape:
        raise ValueError(f"shape mismatch: {s1.shape} vs {s2.shape}")
    y1 = normalized_activations(fnet, s1)
    y2 = normalized_activations(fnet, s2)
    total = 0.0
    for a1, a2 in zip(y1, y2):
        h, w = a1.shape[:2]
        total += float(((a1 - a2) ** 2).sum() / (h * w))
    return total
