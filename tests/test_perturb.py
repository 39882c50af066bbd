"""Perturbation families: hand-checked arithmetic, identity parameters,
geometry conventions, and range/shape guarantees."""
from __future__ import annotations

import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policyprobe import perceptual, spectral
from policyprobe import perturb as pb


def noise_image(rng, h=16, w=16, c=1):
    return rng.integers(0, 256, size=(h, w, c)).astype(np.float64)


# ---------------------------------------------------------------------------
# Identity parameters must reproduce the input
# ---------------------------------------------------------------------------

IDENTITY_SPECS = [
    pb.PerturbationSpec(family="identity"),
    pb.PerturbationSpec(family="brightness_contrast", alpha=1.0, beta=0.0),
    pb.PerturbationSpec(family="median_blur", kernel=1),
    pb.PerturbationSpec(family="rotation", degrees=0.0),
    pb.PerturbationSpec(family="rotation", degrees=360.0),
    pb.PerturbationSpec(family="shift", ti=0, tj=0),
    pb.PerturbationSpec(family="perspective", pt_norm=0.0),
]


@pytest.mark.parametrize("spec", IDENTITY_SPECS,
                         ids=[s.label() for s in IDENTITY_SPECS])
def test_identity_parameters_are_exact(spec, rng):
    img = noise_image(rng)
    out = pb.apply(spec, img)
    assert np.array_equal(out, img)
    assert out is not img  # always a fresh array


def test_dct_zero_kappa_is_identity_to_float_error(rng):
    img = noise_image(rng)
    out = pb.dct_artifacts(img, kappa=0.0)
    assert np.max(np.abs(out - img)) <= 1e-9


# ---------------------------------------------------------------------------
# Brightness / contrast
# ---------------------------------------------------------------------------

def test_brightness_contrast_linear_map_and_clamp():
    img = np.array([[[0.0], [100.0]], [[200.0], [255.0]]])
    out = pb.brightness_contrast(img, alpha=1.5, beta=-20.0)
    assert np.allclose(out[:, :, 0], [[0.0, 130.0], [255.0, 255.0]])
    dark = pb.brightness_contrast(img, alpha=0.0, beta=-5.0)
    assert np.all(dark == 0.0)


def test_brightness_shift_is_uniform_where_unclamped(rng):
    img = rng.integers(50, 200, size=(8, 8, 1)).astype(float)
    out = pb.brightness_contrast(img, alpha=1.0, beta=13.0)
    assert np.allclose(out - img, 13.0)


# ---------------------------------------------------------------------------
# Median blur
# ---------------------------------------------------------------------------

def test_median_blur_center_value_hand_check():
    img = np.array([[1.0, 2.0, 3.0],
                    [4.0, 100.0, 6.0],
                    [7.0, 8.0, 9.0]])[:, :, None]
    out = pb.median_blur(img, 3)
    # center window is the full image; median of {1..9 minus 5, 100} = 6
    assert out[1, 1, 0] == 6.0
    # corner window under edge replication: {1,1,2,1,1,2,4,4,100} -> median 2
    assert out[0, 0, 0] == 2.0


def test_median_blur_removes_isolated_spike():
    img = np.zeros((7, 7, 1))
    img[3, 3, 0] = 255.0
    assert np.all(pb.median_blur(img, 3) == 0.0)


def test_median_blur_constant_invariant(rng):
    img = np.full((9, 9, 1), 77.0)
    for k in (1, 3, 5):
        assert np.array_equal(pb.median_blur(img, k), img)


def test_median_blur_rejects_bad_kernels(rng):
    img = noise_image(rng, 8, 8)
    with pytest.raises(ValueError):
        pb.median_blur(img, 2)
    with pytest.raises(ValueError):
        pb.median_blur(img, 9)
    with pytest.raises(ValueError):
        pb.PerturbationSpec(family="median_blur", kernel=4)


# ---------------------------------------------------------------------------
# Rotation
# ---------------------------------------------------------------------------

def test_rotation_quarter_turns_are_permutations(rng):
    img = noise_image(rng, 12, 12)
    assert np.array_equal(pb.rotate(img, 90), np.rot90(img, 1, axes=(0, 1)))
    assert np.array_equal(pb.rotate(img, 180), img[::-1, ::-1])
    assert np.array_equal(pb.rotate(img, 270), np.rot90(img, -1, axes=(0, 1)))


def test_rotation_four_quarters_round_trip(rng):
    img = noise_image(rng, 10, 10)
    out = img
    for _ in range(4):
        out = pb.rotate(out, 90)
    assert np.array_equal(out, img)


def test_rotation_small_angle_keeps_constant_interior():
    img = np.full((16, 16, 1), 128.0)
    out = pb.rotate(img, 7.3)
    # bilinear interpolation of a constant is the constant wherever all four
    # taps are inside; the 16x16 frame rotated by 7.3 degrees keeps the
    # middle rows inside
    assert np.allclose(out[6:10, 6:10], 128.0)
    assert out.min() >= 0.0 and out.max() <= 255.0


def test_rotation_rejects_nonfinite_spec():
    with pytest.raises(ValueError):
        pb.PerturbationSpec(family="rotation", degrees=float("nan"))


# ---------------------------------------------------------------------------
# Shift
# ---------------------------------------------------------------------------

def test_shift_moves_pixels_and_zero_fills():
    img = np.zeros((4, 4, 1))
    img[1, 1, 0] = 9.0
    out = pb.shift(img, 2, 1)
    assert out[3, 2, 0] == 9.0
    assert out.sum() == 9.0  # everything else vacated to zero
    assert np.all(out[0:2, :, :] == 0.0)


def test_shift_circular_matches_roll(rng):
    img = noise_image(rng, 6, 5)
    out = pb.shift(img, 2, -1, circular=True)
    assert np.array_equal(out, np.roll(img, (2, -1), axis=(0, 1)))


def test_shift_round_trip_in_interior(rng):
    img = noise_image(rng, 8, 8)
    out = pb.shift(pb.shift(img, 2, 1), -2, -1)
    assert np.array_equal(out[:6, :7], img[:6, :7])


def test_shift_rejects_out_of_frame_and_fractional(rng):
    img = noise_image(rng, 4, 4)
    with pytest.raises(ValueError):
        pb.shift(img, 4, 0)
    with pytest.raises(ValueError):
        pb.shift(img, 0, -4)
    with pytest.raises(ValueError):
        pb.shift(img, 1.5, 0)


# ---------------------------------------------------------------------------
# Perspective
# ---------------------------------------------------------------------------

def test_perspective_zero_norm_gives_identity_matrix():
    assert np.array_equal(pb.perspective_matrix(8, 8, 0.0), np.eye(3))


def test_perspective_matrix_maps_destination_corners_to_source():
    h = w = 12
    n = 1.5
    gamma = pb.perspective_matrix(h, w, n)
    src = np.array([[0.0, 0.0], [0.0, w - 1.0],
                    [h - 1.0, w - 1.0], [h - 1.0, 0.0]])
    dst = src + np.array([[n, 0.0], [0.0, n], [-n, 0.0], [0.0, -n]])
    for (sr, sc), (dr, dc) in zip(src, dst):
        vec = gamma @ np.array([dc, dr, 1.0])  # (x, y, 1) = (col, row, 1)
        assert abs(vec[0] / vec[2] - sc) < 1e-9
        assert abs(vec[1] / vec[2] - sr) < 1e-9


def test_homography_scale_invariance(rng):
    img = noise_image(rng, 10, 10)
    gamma = pb.perspective_matrix(10, 10, 1.2)
    a = pb.apply_homography(img, gamma)
    b = pb.apply_homography(img, 3.7 * gamma)
    assert np.allclose(a, b, atol=1e-12)


def test_homography_identity_and_translation(rng):
    img = noise_image(rng, 6, 6)
    assert np.array_equal(pb.apply_homography(img, np.eye(3)), img)
    # pure translation expressed as a homography equals the shift family
    g = np.array([[1.0, 0.0, -2.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
    assert np.allclose(pb.apply_homography(img, g), pb.shift(img, 1, 2))


def test_homography_rejects_singular(rng):
    img = noise_image(rng, 6, 6)
    with pytest.raises(pb.DegenerateGeometryError):
        pb.apply_homography(img, np.zeros((3, 3)))
    bad = np.eye(3)
    bad[2, 2] = 0.0
    bad[0, 0] = 0.0
    with pytest.raises(pb.DegenerateGeometryError):
        pb.apply_homography(img, bad)


# ---------------------------------------------------------------------------
# DCT artifacts
# ---------------------------------------------------------------------------

def test_dct_quant_table_formula():
    q = pb.dct_quant_table(0.5)
    assert q[0, 0] == 1.0
    assert q[0, 1] == 1.0 + 0.5 * 8.0
    assert q[7, 7] == 1.0 + 0.5 * 8.0 * 14.0
    assert np.array_equal(pb.dct_quant_table(0.0), np.ones((8, 8)))


def test_dct_constant_image_survives_any_kappa():
    img = np.full((16, 16, 1), 200.0)
    for kappa in (0.1, 0.5, 1.0):
        out = pb.dct_artifacts(img, kappa)
        assert np.allclose(out, img, atol=1e-9)


def test_dct_single_block_matches_direct_computation(rng):
    img = noise_image(rng, 8, 8)
    kappa = 0.5
    d = pb._dct_matrix()
    coef = d @ img[:, :, 0] @ d.T
    q = pb.dct_quant_table(kappa)
    ref = np.where(q > 1.0, np.round(coef / q) * q, coef)
    ref = np.clip(d.T @ ref @ d, 0.0, 255.0)
    out = pb.dct_artifacts(img, kappa)
    assert np.allclose(out[:, :, 0], ref, atol=1e-9)


def _dct_in_one_piece(img, kappa):
    """dct_artifacts as one function, forward transform included: the
    oracle the memoized split must match bit for bit."""
    h, w, c = img.shape
    padded = np.pad(img, ((0, -h % 8), (0, -w % 8), (0, 0)), mode="edge")
    hh, ww = padded.shape[:2]
    blocks = padded.reshape(hh // 8, 8, ww // 8, 8, c).transpose(
        0, 2, 4, 1, 3)
    d = pb._dct_matrix()
    coef = np.einsum("ui,abcij,vj->abcuv", d, blocks, d)
    q = pb.dct_quant_table(kappa)
    coef = np.where(q > 1.0, np.round(coef / q) * q, coef)
    rec = np.einsum("ui,abcuv,vj->abcij", d, coef, d)
    out = rec.transpose(0, 3, 1, 4, 2).reshape(hh, ww, c)
    return np.clip(out[:h, :w], 0.0, 255.0)


@pytest.mark.parametrize("shape", [(24, 24, 1), (36, 36, 1), (20, 28, 1),
                                   (24, 24, 3)])
def test_dct_memo_gives_the_same_bytes_at_every_kappa(shape, rng):
    """One coefficients memo serves every kappa: each result is the bytes
    of a call without the memo and of the one-piece transform, and the
    memo holds the one frame's coefficients."""
    img = rng.integers(0, 256, size=shape).astype(np.float64)
    memo = {}
    for kappa in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        fresh = pb.dct_artifacts(img, kappa).tobytes()
        assert fresh == _dct_in_one_piece(img, kappa).tobytes()
        assert pb.dct_artifacts(img, kappa,
                                coefficients=memo).tobytes() == fresh
        spec = pb.PerturbationSpec(family="dct_artifacts", kappa=kappa)
        assert pb.apply(spec, img.astype(np.uint8), memo).tobytes() == fresh
    assert list(memo) == [(shape, img.tobytes())]
    assert np.array_equal(memo[shape, img.tobytes()], pb.dct_forward(img))


def test_dct_rejects_kappa_outside_unit_interval(rng):
    img = noise_image(rng)
    with pytest.raises(ValueError):
        pb.dct_artifacts(img, -0.1)
    with pytest.raises(ValueError):
        pb.dct_artifacts(img, 1.5)
    with pytest.raises(ValueError):
        pb.PerturbationSpec(family="dct_artifacts", kappa=2.0)


# ---------------------------------------------------------------------------
# Dispatch and labels
# ---------------------------------------------------------------------------

def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        pb.PerturbationSpec(family="sharpen")
    with pytest.raises(ValueError, match="unknown perturbation family"):
        pb.spec_with("sharpen", "beta", 1.0)


@pytest.mark.parametrize("family", sorted(pb.FAMILIES))
def test_each_family_takes_the_fields_it_declares(family):
    """A family's function takes the observation, then exactly the spec
    fields its FAMILIES entry names, in that order. Only dct_artifacts
    takes more: its memo, keyword-only and optional, which apply passes by
    name."""
    fn, reads, _ = pb.FAMILIES[family]
    params = list(inspect.signature(fn).parameters.values())
    by_name = [p for p in params if p.kind is p.KEYWORD_ONLY]
    assert [p.name for p in params if p not in by_name][1:] == list(reads)
    assert [(p.name, p.default) for p in by_name] == (
        [("coefficients", None)] if family == "dct_artifacts" else [])


def test_spec_refuses_a_field_its_family_does_not_read():
    with pytest.raises(ValueError, match="rotation does not read kernel"):
        pb.PerturbationSpec(family="rotation", kernel=5)
    with pytest.raises(ValueError, match="identity does not read circular"):
        pb.PerturbationSpec(circular=True)
    # a default value in an unread field is no refusal
    assert pb.PerturbationSpec(family="rotation", kernel=1).label() == "rot[0]"


@pytest.mark.parametrize("family,parameter", [("median_blur", "beta"),
                                              ("rotation", "bogus"),
                                              ("identity", "family")])
def test_spec_with_refuses_a_parameter_its_family_does_not_read(family,
                                                                parameter):
    with pytest.raises(ValueError, match=f"{family} does not read "
                                         f"{parameter}"):
        pb.spec_with(family, parameter, 3.0)


def test_dispatch_matches_direct_calls(rng):
    img = noise_image(rng)
    cases = [
        (pb.PerturbationSpec(family="brightness_contrast", alpha=1.2, beta=-10),
         pb.brightness_contrast(img, 1.2, -10)),
        (pb.PerturbationSpec(family="median_blur", kernel=3),
         pb.median_blur(img, 3)),
        (pb.PerturbationSpec(family="rotation", degrees=30.0),
         pb.rotate(img, 30.0)),
        (pb.PerturbationSpec(family="shift", ti=1, tj=-2),
         pb.shift(img, 1, -2)),
        (pb.PerturbationSpec(family="perspective", pt_norm=1.0),
         pb.perspective(img, 1.0)),
        (pb.PerturbationSpec(family="dct_artifacts", kappa=0.3),
         pb.dct_artifacts(img, 0.3)),
    ]
    for spec, expected in cases:
        assert np.array_equal(pb.apply(spec, img), expected), spec.label()


@pytest.mark.parametrize("spec,h,w,fits", [
    (pb.PerturbationSpec(family="median_blur", kernel=9), 9, 12, True),
    (pb.PerturbationSpec(family="median_blur", kernel=9), 12, 8, False),
    (pb.PerturbationSpec(family="shift", ti=-7, tj=3), 8, 4, True),
    (pb.PerturbationSpec(family="shift", ti=-8, tj=0), 8, 20, False),
    (pb.PerturbationSpec(family="shift", ti=0, tj=4, circular=True), 8, 4,
     False),
    (pb.PerturbationSpec(family="rotation", degrees=90.0), 1, 1, True),
])
def test_check_frame_refuses_what_apply_refuses(spec, h, w, fits, rng):
    """check_frame refuses a spec exactly when apply refuses it on an
    h x w frame, with the same message."""
    img = noise_image(rng, h, w)
    if fits:
        spec.check_frame(h, w)
        pb.apply(spec, img)
        return
    with pytest.raises(ValueError) as refused:
        spec.check_frame(h, w)
    with pytest.raises(ValueError, match=re.escape(str(refused.value))):
        pb.apply(spec, img)


def test_spec_with_casts_integer_fields(rng):
    spec = pb.spec_with("shift", "ti", 3.0)
    assert spec == pb.PerturbationSpec(family="shift", ti=3)
    assert type(spec.ti) is int
    img = noise_image(rng)
    assert np.array_equal(pb.apply(spec, img), pb.shift(img, 3, 0))
    assert type(pb.spec_with("median_blur", "kernel", 3.0).kernel) is int
    assert type(pb.spec_with("dct_artifacts", "kappa", 0.5).kappa) is float


def test_observations_are_coerced_by_one_rule(rng):
    """perturb, perceptual and spectral read observations through
    perturb.as_image: a 2-D array is one channel, and any other rank is
    refused with the same message."""
    img = noise_image(rng, 24, 24)
    assert pb.as_image(img[:, :, 0]).shape == (24, 24, 1)
    for fn in (lambda s: pb.brightness_contrast(s, 1.1, 5.0),
               perceptual.area_resample, spectral.observation_energy):
        assert np.array_equal(fn(img[:, :, 0]), fn(img))
        with pytest.raises(ValueError, match=r"observation must be "
                           r"\(H, W, C\) or \(H, W\), got shape \(24,\)"):
            fn(img[0, :, 0])


def test_labels_are_distinct_and_informative():
    labels = [s.label() for s in IDENTITY_SPECS]
    assert len(set(labels)) == len(labels)  # parameters show up in the label
    assert "blur[k=1]" in labels
    assert pb.PerturbationSpec(family="dct_artifacts", kappa=0.5).label() == "dct[0.5]"


# ---------------------------------------------------------------------------
# Range/shape guarantees across all families
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["brightness_contrast", "median_blur", "rotation",
                        "shift", "perspective", "dct_artifacts"]),
       st.integers(0, 2 ** 31 - 1))
def test_every_family_preserves_shape_and_range(family, seed):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, size=(16, 16, 1)).astype(float)
    fields = {
        "brightness_contrast": lambda: dict(
            alpha=float(rng.uniform(0.2, 2.0)),
            beta=float(rng.uniform(-60, 60))),
        "median_blur": lambda: dict(kernel=3),
        "rotation": lambda: dict(degrees=float(rng.uniform(-180, 180))),
        "shift": lambda: dict(ti=int(rng.integers(-5, 6)),
                              tj=int(rng.integers(-5, 6))),
        "perspective": lambda: dict(pt_norm=float(rng.uniform(0, 3))),
        "dct_artifacts": lambda: dict(kappa=float(rng.uniform(0, 1))),
    }[family]()
    out = pb.apply(pb.PerturbationSpec(family=family, **fields), img)
    assert out.shape == img.shape
    assert out.dtype == np.float64
    assert out.min() >= 0.0 and out.max() <= 255.0
