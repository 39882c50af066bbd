"""Policy-independent observation perturbations.

Six families plus the identity, each a pure map from a [0, 255] pixel array
(H, W, C) to another: linear brightness/contrast, median blur, rotation about
the image center, integer shift, perspective warp, and DCT compression
artifacts. None of them ever sees a policy; that independence is structural
(there is no policy argument to pass).

`FAMILIES` declares each family once: its function, the PerturbationSpec
fields it takes in call order, and its label. `apply` and `label()` read
that table, and a spec refuses a value in a field its family does not read.

All geometry uses inverse mapping with bilinear interpolation and zero fill;
right-angle rotations snap to exact lattice permutations. Outputs are clamped
to [0, 255].
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

Array = np.ndarray

DCT_BLOCK = 8
DCT_LAMBDA = 8.0  # frequency slope of the quantization law


class DegenerateGeometryError(ValueError):
    """Corner correspondence does not define an invertible warp."""


@dataclass(frozen=True)
class PerturbationSpec:
    """One perturbation family with its parameters.

    A field the family does not read (see FAMILIES) must keep its default.
    `check_frame` refuses what cannot apply to a given frame size.
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
    kappa: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown perturbation family {self.family!r}")
        reads = FAMILIES[self.family][1]
        for f in fields(self)[1:]:   # every field but family
            if f.name not in reads and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.family} does not read {f.name}")
        if self.family == "median_blur":
            if self.kernel < 1 or self.kernel % 2 == 0:
                raise ValueError("blur kernel must be odd and >= 1")
        if self.family == "rotation" and not math.isfinite(self.degrees):
            raise ValueError("rotation degrees must be finite")
        if self.family == "perspective" and not 0 <= self.pt_norm < math.inf:
            raise ValueError("perspective norm must be finite and >= 0")
        if self.family == "dct_artifacts" and not 0.0 <= self.kappa <= 1.0:
            raise ValueError("kappa must lie in [0, 1]")
        if self.family == "brightness_contrast":
            if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
                raise ValueError("alpha and beta must be finite")

    def check_frame(self, h: int, w: int) -> None:
        """Refuse, before any frame is seen, what `apply` would refuse on
        every h x w frame: a blur kernel wider than the frame, or a shift
        by the frame's size or more."""
        if self.family == "median_blur":
            _check_kernel_fits(self.kernel, h, w)
        elif self.family == "shift":
            _check_shift_fits(self.ti, self.tj, h, w)

    def label(self) -> str:
        _, reads, label = FAMILIES[self.family]
        return label(*(getattr(self, name) for name in reads))


# PerturbationSpec fields that are integers; sweep grids give numbers as
# floats, so spec_with casts these (see as_int)
INT_FIELDS = frozenset(f.name for f in fields(PerturbationSpec)
                       if f.type == "int")


def as_int(name: str, value) -> int:
    """The one rule for an integer setting, in a manifest or a sweep grid:
    an integral number becomes an int, and any other value, a bool
    included, is refused."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                       and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def spec_with(family: str, parameter: str, value: float) -> PerturbationSpec:
    """The family's defaults with `parameter`, a field the family reads,
    set to `value`, cast if the field is an integer (see as_int)."""
    spec = PerturbationSpec(family=family)
    if parameter not in FAMILIES[family][1]:
        raise ValueError(f"{family} does not read {parameter}")
    if parameter in INT_FIELDS:
        value = as_int(parameter, value)
    return replace(spec, **{parameter: value})


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

def identity(s: Array) -> Array:
    """The observation itself, as a fresh array."""
    return as_image(s).copy()


def brightness_contrast(s: Array, alpha: float, beta: float) -> Array:
    """Per-pixel linear map s*alpha + beta on the [0, 255] scale, clamped."""
    return np.clip(as_image(s) * alpha + beta, 0.0, 255.0)


def _check_kernel_fits(kernel: int, h: int, w: int) -> None:
    if kernel > min(h, w):
        raise ValueError(f"blur kernel {kernel} exceeds image size {h}x{w}")


def median_blur(s: Array, kernel: int) -> Array:
    """k-by-k per-channel median; borders handled by edge replication."""
    img = as_image(s)
    if kernel % 2 == 0 or kernel < 1:
        raise ValueError("blur kernel must be odd and >= 1")
    _check_kernel_fits(kernel, img.shape[0], img.shape[1])
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


def _check_shift_fits(ti: int, tj: int, h: int, w: int) -> None:
    if abs(ti) >= h or abs(tj) >= w:
        raise ValueError(f"shift ({ti}, {tj}) too large for image {h}x{w}")


def shift(s: Array, ti: int, tj: int, circular: bool = False) -> Array:
    """Integer translation by (ti, tj): pixel (i, j) moves to (i+ti, j+tj).

    Vacated pixels are zero-filled; circular mode wraps instead.
    """
    img = as_image(s)
    h, w, _ = img.shape
    if ti != int(ti) or tj != int(tj):
        raise ValueError("shift distances must be integers")
    ti, tj = int(ti), int(tj)
    _check_shift_fits(ti, tj, h, w)
    if circular:
        return np.roll(img, (ti, tj), axis=(0, 1))
    out = np.zeros_like(img)
    src_r = slice(max(0, -ti), min(h, h - ti))
    dst_r = slice(max(0, ti), min(h, h + ti))
    src_c = slice(max(0, -tj), min(w, w - tj))
    dst_c = slice(max(0, tj), min(w, w + tj))
    out[dst_r, dst_c] = img[src_r, src_c]
    return out


def perspective_matrix(h: int, w: int, n: float) -> Array:
    """3x3 homogeneous matrix mapping output (destination) pixel coordinates
    to source coordinates, built from the four corner correspondences. Each
    destination corner is its source corner moved n pixels along one axis,
    clockwise from top-left: down, right, up, left.

    Coordinates are (x, y) = (column, row) homogeneous triples.
    """
    if n == 0:
        return np.eye(3)
    src = np.array([[0.0, 0.0], [0.0, w - 1.0],
                    [h - 1.0, w - 1.0], [h - 1.0, 0.0]])  # (row, col), clockwise
    dst = src + np.array([[n, 0.0], [0.0, n], [-n, 0.0], [0.0, -n]])
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


def perspective(s: Array, pt_norm: float) -> Array:
    """Perspective warp that moves each corner pt_norm pixels (see
    perspective_matrix)."""
    img = as_image(s)
    gamma = perspective_matrix(img.shape[0], img.shape[1], pt_norm)
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


# frame (shape, bytes) -> its dct_forward coefficients
Coefficients = dict[tuple[tuple[int, ...], bytes], Array]


def memoized(memo: dict | None, frame: Array, compute):
    """compute(frame), read from memo by the frame's shape and bytes, or
    computed and stored there; computed afresh when memo is None."""
    if memo is None:
        return compute(frame)
    key = frame.shape, frame.tobytes()
    if key not in memo:
        memo[key] = compute(frame)
    return memo[key]


def dct_forward(img: Array) -> Array:
    """The orthonormal DCT-II of each 8x8 block of an (H, W, C) float64
    frame, edge blocks padded by replication, as (H/8, W/8, C, 8, 8)."""
    ph, pw = (-img.shape[0]) % DCT_BLOCK, (-img.shape[1]) % DCT_BLOCK
    padded = np.pad(img, ((0, ph), (0, pw), (0, 0)), mode="edge")
    hh, ww, c = padded.shape
    blocks = padded.reshape(hh // DCT_BLOCK, DCT_BLOCK, ww // DCT_BLOCK,
                            DCT_BLOCK, c).transpose(0, 2, 4, 1, 3)
    return np.einsum("ui,abcij,vj->abcuv", _DCT, blocks, _DCT)


def dct_artifacts(s: Array, kappa: float, *,
                  coefficients: Coefficients | None = None) -> Array:
    """Blockwise DCT quantization artifacts.

    Each 8x8 block is transformed (orthonormal DCT-II, see dct_forward),
    coefficients with a quantization step above 1 are rounded to their step
    grid, and the block is transformed back. Unit steps pass coefficients
    through untouched, so kappa=0 is an exact round-trip up to float error.
    Edge blocks are padded by replication and cropped after. The forward
    transform does not depend on kappa, so a caller applying many kappas
    to few frames (see harness) passes a `coefficients` memo of it (see
    memoized): a read-back holds the very bits a recomputation would.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    img = as_image(s)
    h, w, c = img.shape
    coef = memoized(coefficients, img, dct_forward)
    q = dct_quant_table(kappa)
    coef = np.where(q > 1.0, np.round(coef / q) * q, coef)
    rec = np.einsum("ui,abcuv,vj->abcij", _DCT, coef, _DCT)
    out = rec.transpose(0, 3, 1, 4, 2).reshape(len(rec) * DCT_BLOCK, -1, c)
    return np.clip(out[:h, :w], 0.0, 255.0)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

# family -> (function, the spec fields it takes after the observation in
# call order, label of those field values)
FAMILIES = {
    "identity": (identity, (), lambda: "identity"),
    "brightness_contrast": (brightness_contrast, ("alpha", "beta"),
                            lambda a, b: f"bc[{a:g},{b:g}]"),
    "median_blur": (median_blur, ("kernel",), lambda k: f"blur[k={k}]"),
    "rotation": (rotate, ("degrees",), lambda d: f"rot[{d:g}]"),
    "shift": (shift, ("ti", "tj", "circular"),
              lambda i, j, c: f"shift[{i},{j}]" + ("c" if c else "")),
    "perspective": (perspective, ("pt_norm",), lambda n: f"pt[{n:g}]"),
    "dct_artifacts": (dct_artifacts, ("kappa",), lambda k: f"dct[{k:g}]"),
}


def apply(spec: PerturbationSpec, s: Array,
          coefficients: Coefficients | None = None) -> Array:
    """Apply one perturbation spec to one observation. `coefficients` is
    dct_artifacts's memo of forward transforms; other families ignore it."""
    if spec.family == "dct_artifacts":
        return dct_artifacts(s, spec.kappa, coefficients=coefficients)
    fn, reads, _ = FAMILIES[spec.family]
    return fn(s, *(getattr(spec, name) for name in reads))
