"""Policy-independent observation perturbations.

Six families plus the identity, each a pure map from a [0, 255] pixel array
(H, W, C) to another: linear brightness/contrast, median blur, rotation about
the image center, integer shift, perspective warp, and DCT compression
artifacts. None of them ever sees a policy; that independence is structural
(there is no policy argument to pass).

All geometry uses inverse mapping with bilinear interpolation and zero fill;
right-angle rotations snap to exact lattice permutations. Outputs are clamped
to [0, 255].
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

Array = np.ndarray

FAMILIES = ("identity", "brightness_contrast", "median_blur", "rotation",
            "shift", "perspective", "dct_artifacts")

DCT_BLOCK = 8
DCT_LAMBDA = 8.0  # frequency slope of the quantization law

# PerturbationSpec fields that are integers; manifests and sweep grids give
# numbers as floats, so these are cast on the way in (see cast_field)
INT_FIELDS = frozenset({"kernel", "ti", "tj", "pt_seed"})


class DegenerateGeometryError(ValueError):
    """Corner correspondence does not define an invertible warp."""


@dataclass(frozen=True)
class PerturbationSpec:
    """One perturbation family with its parameters.

    Only the fields relevant to `family` are read; the rest keep their
    defaults. `pt_seed` is used by the seeded perspective mode only.
    """

    family: str = "identity"
    alpha: float = 1.0
    beta: float = 0.0
    kernel: int = 1
    degrees: float = 0.0
    ti: int = 0
    tj: int = 0
    circular: bool = False
    pt_norm: float = 0.0
    pt_mode: str = "deterministic"   # "deterministic" | "seeded"
    pt_seed: int = 0
    kappa: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown perturbation family {self.family!r}")
        if self.family == "median_blur":
            if self.kernel < 1 or self.kernel % 2 == 0:
                raise ValueError("blur kernel must be odd and >= 1")
        if self.family == "rotation" and not math.isfinite(self.degrees):
            raise ValueError("rotation degrees must be finite")
        if self.family == "perspective":
            if self.pt_norm < 0:
                raise ValueError("perspective norm must be >= 0")
            if self.pt_mode not in ("deterministic", "seeded"):
                raise ValueError(f"unknown perspective mode {self.pt_mode!r}")
        if self.family == "dct_artifacts" and not 0.0 <= self.kappa <= 1.0:
            raise ValueError("kappa must lie in [0, 1]")
        if self.family == "brightness_contrast":
            if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
                raise ValueError("alpha and beta must be finite")

    def label(self) -> str:
        if self.family == "brightness_contrast":
            return f"bc[{self.alpha:g},{self.beta:g}]"
        if self.family == "median_blur":
            return f"blur[k={self.kernel}]"
        if self.family == "rotation":
            return f"rot[{self.degrees:g}]"
        if self.family == "shift":
            tag = "c" if self.circular else ""
            return f"shift[{self.ti},{self.tj}]{tag}"
        if self.family == "perspective":
            return f"pt[{self.pt_norm:g},{self.pt_mode}]"
        if self.family == "dct_artifacts":
            return f"dct[{self.kappa:g}]"
        return "identity"


def cast_field(name: str, value):
    """`value` for the PerturbationSpec field `name`; an integer field
    takes an integral number as an int and refuses any other value."""
    if name not in INT_FIELDS:
        return value
    if not (isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def spec_with(family: str, parameter: str, value: float) -> PerturbationSpec:
    """The family's defaults with `parameter` set to `value` (see
    cast_field)."""
    return PerturbationSpec(**{"family": family,
                               parameter: cast_field(parameter, value)})


def as_image(s: Array) -> Array:
    """An observation as float64 (H, W, C); a 2-D array is one channel.
    perturb, perceptual and spectral all coerce observations here, so they
    share one shape rule and one message."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim == 2:
        s = s[:, :, None]
    if s.ndim != 3:
        raise ValueError(
            f"observation must be (H, W, C) or (H, W), got shape {s.shape}")
    return s


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def brightness_contrast(s: Array, alpha: float, beta: float) -> Array:
    """Per-pixel linear map s*alpha + beta on the [0, 255] scale, clamped."""
    return np.clip(as_image(s) * alpha + beta, 0.0, 255.0)


def median_blur(s: Array, kernel: int) -> Array:
    """k-by-k per-channel median; borders handled by edge replication."""
    img = as_image(s)
    if kernel % 2 == 0 or kernel < 1:
        raise ValueError("blur kernel must be odd and >= 1")
    if kernel > min(img.shape[0], img.shape[1]):
        raise ValueError("blur kernel exceeds image size")
    if kernel == 1:
        return img.copy()
    pad = kernel // 2
    padded = np.pad(img, ((pad, pad), (pad, pad), (0, 0)), mode="edge")
    win = sliding_window_view(padded, (kernel, kernel), axis=(0, 1))
    return np.median(win, axis=(3, 4))


def _bilinear_sample(img: Array, src_r: Array, src_c: Array) -> Array:
    """Sample (H, W, C) at float coordinates with zero fill outside."""
    h, w, _ = img.shape
    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    fr, fc = src_r - r0, src_c - c0
    out = 0.0
    for dr, wr in ((0, 1.0 - fr), (1, fr)):
        for dc, wc in ((0, 1.0 - fc), (1, fc)):
            rr, cc = r0 + dr, c0 + dc
            valid = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
            vals = img[np.clip(rr, 0, h - 1), np.clip(cc, 0, w - 1)]
            out = out + (wr * wc * valid)[:, :, None] * vals
    return out


def rotate(s: Array, degrees: float) -> Array:
    """Rotate about the image center (inverse-mapped bilinear, zero fill).

    Multiples of 90 degrees use exact integer cos/sin, so square images come
    back as pure coordinate permutations.
    """
    img = as_image(s)
    if degrees % 360 == 0:
        return img.copy()
    quarter = degrees % 360
    if quarter in (90.0, 180.0, 270.0):
        cos_t = {90.0: 0.0, 180.0: -1.0, 270.0: 0.0}[quarter]
        sin_t = {90.0: 1.0, 180.0: 0.0, 270.0: -1.0}[quarter]
    else:
        theta = math.radians(degrees)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
    h, w, _ = img.shape
    ctr_r, ctr_c = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.meshgrid(np.arange(h, dtype=np.float64),
                             np.arange(w, dtype=np.float64), indexing="ij")
    dr, dc = rows - ctr_r, cols - ctr_c
    # inverse rotation of the output grid back into the source
    src_r = cos_t * dr + sin_t * dc + ctr_r
    src_c = -sin_t * dr + cos_t * dc + ctr_c
    return np.clip(_bilinear_sample(img, src_r, src_c), 0.0, 255.0)


def shift(s: Array, ti: int, tj: int, circular: bool = False) -> Array:
    """Integer translation by (ti, tj): pixel (i, j) moves to (i+ti, j+tj).

    Vacated pixels are zero-filled; circular mode wraps instead.
    """
    img = as_image(s)
    h, w, _ = img.shape
    if ti != int(ti) or tj != int(tj):
        raise ValueError("shift distances must be integers")
    ti, tj = int(ti), int(tj)
    if abs(ti) >= h or abs(tj) >= w:
        raise ValueError(f"shift ({ti}, {tj}) too large for image {h}x{w}")
    if circular:
        return np.roll(img, (ti, tj), axis=(0, 1))
    out = np.zeros_like(img)
    src_r = slice(max(0, -ti), min(h, h - ti))
    dst_r = slice(max(0, ti), min(h, h + ti))
    src_c = slice(max(0, -tj), min(w, w - tj))
    dst_c = slice(max(0, tj), min(w, w + tj))
    out[dst_r, dst_c] = img[src_r, src_c]
    return out


def _corner_offsets(n: float, mode: str, seed: int) -> Array:
    """(row, col) displacement per corner, clockwise from top-left; the
    largest corner displacement has Euclidean norm exactly n."""
    if mode == "deterministic":
        return np.array([[n, 0.0], [0.0, n], [-n, 0.0], [0.0, -n]])
    rng = np.random.default_rng([seed, 31])
    off = rng.uniform(-1.0, 1.0, size=(4, 2))
    norms = np.sqrt((off ** 2).sum(axis=1))
    peak = norms.max()
    if peak == 0.0:
        return np.zeros((4, 2))
    return off * (n / peak)


def perspective_matrix(h: int, w: int, n: float, mode: str = "deterministic",
                       seed: int = 0) -> Array:
    """3x3 homogeneous matrix mapping output (destination) pixel coordinates
    to source coordinates, built from the four corner correspondences.

    Coordinates are (x, y) = (column, row) homogeneous triples.
    """
    if n == 0:
        return np.eye(3)
    src = np.array([[0.0, 0.0], [0.0, w - 1.0],
                    [h - 1.0, w - 1.0], [h - 1.0, 0.0]])  # (row, col), clockwise
    dst = src + _corner_offsets(n, mode, seed)
    # unknowns: a..h with gamma = [[a,b,c],[d,e,f],[g,h,1]], dst->src
    mat = np.zeros((8, 8))
    rhs = np.zeros(8)
    for k in range(4):
        x, y = dst[k][1], dst[k][0]     # destination (x=col, y=row)
        u, v = src[k][1], src[k][0]     # source
        mat[2 * k] = [x, y, 1.0, 0.0, 0.0, 0.0, -u * x, -u * y]
        rhs[2 * k] = u
        mat[2 * k + 1] = [0.0, 0.0, 0.0, x, y, 1.0, -v * x, -v * y]
        rhs[2 * k + 1] = v
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateGeometryError(f"corner correspondence is degenerate: {exc}")
    gamma = np.append(sol, 1.0).reshape(3, 3)
    if abs(np.linalg.det(gamma)) < 1e-12:
        raise DegenerateGeometryError("warp matrix is singular")
    return gamma


def apply_homography(s: Array, gamma: Array) -> Array:
    """Warp with a destination-to-source homogeneous matrix (bilinear,
    zero fill). Scaling gamma by any nonzero constant leaves the output
    unchanged."""
    img = as_image(s)
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.shape != (3, 3):
        raise ValueError("homography matrix must be 3x3")
    if abs(np.linalg.det(gamma)) < 1e-12 * max(1.0, np.abs(gamma).max() ** 3):
        raise DegenerateGeometryError("warp matrix is singular")
    # canonical scale: the map is homogeneous, so divide out the largest
    # entry; any lambda-scaled copy of gamma then behaves identically
    gamma = gamma / gamma.flat[np.argmax(np.abs(gamma))]
    h, w, _ = img.shape
    rows, cols = np.meshgrid(np.arange(h, dtype=np.float64),
                             np.arange(w, dtype=np.float64), indexing="ij")
    denom = gamma[2, 0] * cols + gamma[2, 1] * rows + gamma[2, 2]
    if np.any(np.abs(denom) < 1e-12):
        raise DegenerateGeometryError("warp denominator vanishes inside the frame")
    src_x = (gamma[0, 0] * cols + gamma[0, 1] * rows + gamma[0, 2]) / denom
    src_y = (gamma[1, 0] * cols + gamma[1, 1] * rows + gamma[1, 2]) / denom
    return np.clip(_bilinear_sample(img, src_y, src_x), 0.0, 255.0)


def perspective(s: Array, pt_norm: float, pt_mode: str = "deterministic",
                pt_seed: int = 0) -> Array:
    """Perspective warp whose largest corner displacement is pt_norm pixels."""
    img = as_image(s)
    gamma = perspective_matrix(img.shape[0], img.shape[1], pt_norm,
                               pt_mode, pt_seed)
    if pt_norm == 0:
        return img.copy()
    return apply_homography(img, gamma)


def _dct_matrix(n: int = DCT_BLOCK) -> Array:
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    d = math.sqrt(2.0 / n) * np.cos(math.pi * (2 * m + 1) * k / (2 * n))
    d[0] = 1.0 / math.sqrt(n)
    return d


_DCT = _dct_matrix()


def dct_quant_table(kappa: float) -> Array:
    """Quantization step per coefficient: 1 + kappa*8*(u+v). The DC step is
    always 1, so the average level survives any kappa."""
    u = np.arange(DCT_BLOCK)[:, None]
    v = np.arange(DCT_BLOCK)[None, :]
    return 1.0 + kappa * DCT_LAMBDA * (u + v)


def dct_artifacts(s: Array, kappa: float) -> Array:
    """Blockwise DCT quantization artifacts.

    Each 8x8 block is transformed (orthonormal DCT-II), coefficients with a
    quantization step above 1 are rounded to their step grid, and the block
    is transformed back. Unit steps pass coefficients through untouched, so
    kappa=0 is an exact round-trip up to float error. Edge blocks are padded
    by replication and cropped after.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    img = as_image(s)
    h, w, c = img.shape
    ph = (-h) % DCT_BLOCK
    pw = (-w) % DCT_BLOCK
    padded = np.pad(img, ((0, ph), (0, pw), (0, 0)), mode="edge")
    hh, ww = padded.shape[:2]
    a, b = hh // DCT_BLOCK, ww // DCT_BLOCK
    blocks = padded.reshape(a, DCT_BLOCK, b, DCT_BLOCK, c).transpose(0, 2, 4, 1, 3)
    coef = np.einsum("ui,abcij,vj->abcuv", _DCT, blocks, _DCT)
    q = dct_quant_table(kappa)
    mask = q > 1.0
    coef = np.where(mask, np.round(coef / q) * q, coef)
    rec = np.einsum("ui,abcuv,vj->abcij", _DCT, coef, _DCT)
    out = rec.transpose(0, 3, 1, 4, 2).reshape(hh, ww, c)
    return np.clip(out[:h, :w], 0.0, 255.0)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def apply(spec: PerturbationSpec, s: Array) -> Array:
    """Apply one perturbation spec to one observation."""
    fam = spec.family
    if fam == "identity":
        return as_image(s).copy()
    if fam == "brightness_contrast":
        return brightness_contrast(s, spec.alpha, spec.beta)
    if fam == "median_blur":
        return median_blur(s, spec.kernel)
    if fam == "rotation":
        return rotate(s, spec.degrees)
    if fam == "shift":
        return shift(s, spec.ti, spec.tj, spec.circular)
    if fam == "perspective":
        return perspective(s, spec.pt_norm, spec.pt_mode, spec.pt_seed)
    if fam == "dct_artifacts":
        return dct_artifacts(s, spec.kappa)
    raise ValueError(f"unknown perturbation family {fam!r}")
