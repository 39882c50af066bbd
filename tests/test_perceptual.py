"""Perceptual metric: asset integrity, resampling oracle, and the metric
axioms that make similarity scores comparable across runs."""
from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policyprobe import nn
from policyprobe import perceptual as pc
from policyprobe.checkpoint import CheckpointFormatError


def noise(rng, h=16, w=16):
    return rng.integers(0, 256, size=(h, w, 1)).astype(np.float64)


# ---------------------------------------------------------------------------
# Asset and regeneration
# ---------------------------------------------------------------------------

def test_shipped_asset_matches_seed_regeneration(fnet):
    rebuilt = pc.build_reference_params()
    assert len(fnet.layers) == len(rebuilt.layers)
    for a, b in zip(fnet.layers, rebuilt.layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)
        assert a.stride == b.stride and a.padding == b.padding


def test_asset_distances_are_stable_across_loads(fnet, rng):
    other = pc.build_reference_params()
    a, b = noise(rng), noise(rng)
    assert pc.lpips(fnet, a, b) == pc.lpips(other, a, b)


def test_cached_reference_net_is_read_only(fresh_reference_net):
    """Every caller in the process shares the cached net, so none may
    change it under the others."""
    fnet = pc.reference_featurenet()
    assert pc.reference_featurenet() is fnet
    for _, _, arr in fnet.arrays():
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0


def test_a_damaged_asset_is_refused_naming_its_file(tmp_path, monkeypatch,
                                                    fresh_reference_net):
    """The error used to name the line alone, so through the CLI it read
    as a fault in the --checkpoint file."""
    name = f"{pc.FEATURENET_VERSION}.txt"
    lines = (Path(pc.__file__).parent / "assets" / name).read_text() \
        .splitlines()
    assert lines[3].startswith("kernel 72 ")
    lines[3] = lines[3][:-8] + "!" + lines[3][-7:]
    asset = tmp_path / "assets" / name
    asset.parent.mkdir()
    asset.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(pc, "resources",
                        SimpleNamespace(files=lambda package: tmp_path))
    with pytest.raises(CheckpointFormatError) as refused:
        pc.reference_featurenet()
    assert str(refused.value) == (
        f"{asset}: expected the kernel block of 72 values at line 4")


# ---------------------------------------------------------------------------
# Area resampling
# ---------------------------------------------------------------------------

def test_resample_passthrough_at_native_size(rng):
    img = noise(rng, pc.INPUT_SIZE, pc.INPUT_SIZE)
    assert np.array_equal(pc.area_resample(img), img)


def test_resample_integer_factor_is_block_mean(rng):
    img = noise(rng, 18, 18)
    out = pc.area_resample(img, size=9)
    ref = img.reshape(9, 2, 9, 2, 1).mean(axis=(1, 3))
    assert np.allclose(out, ref, atol=1e-12)


def test_resample_conserves_mean(rng):
    # overlap weights sum to one per output cell, so the global mean of a
    # constant image survives any ratio, including non-integer ones
    img = np.full((13, 13, 1), 119.0)
    out = pc.area_resample(img, size=pc.INPUT_SIZE)
    assert np.allclose(out, 119.0, atol=1e-12)


def test_resample_upscale_non_integer_ratio_hand_check():
    # 2 cells -> 3 cells: output cell 1 straddles the input boundary evenly
    row = np.array([[0.0, 90.0]])[:, :, None]
    out = pc.area_resample(np.repeat(row, 2, axis=0), size=3)
    expected = np.array([0.0, 45.0, 90.0])
    assert np.allclose(out[0, :, 0], expected, atol=1e-12)


def test_resample_multichannel_averages_to_gray(rng):
    img = rng.integers(0, 256, size=(16, 16, 3)).astype(np.float64)
    out = pc.area_resample(img, size=8)
    ref = pc.area_resample(img.mean(axis=2, keepdims=True), size=8)
    assert np.allclose(out, ref, atol=1e-12)


@pytest.mark.parametrize("h,w,c,size", [
    (24, 24, 1, 36),     # the PixelGrid frame, upsampled
    (20, 28, 1, 36),     # non-square, upsampled by two ratios
    (24, 24, 3, 36),     # multichannel, upsampled
    (13, 29, 1, 36),     # non-square, upsampled
    (36, 36, 1, 20),     # square, downsampled
    (50, 17, 3, 9),      # non-square, downsampled, multichannel
    (100, 100, 1, 36),   # above numpy's 8192-product einsum buffer
    (40, 300, 1, 36),
])
def test_resample_is_bit_equal_to_the_dense_contraction(h, w, c, size, rng):
    """The sparse taps reproduce the dense einsum over the overlap
    matrices bit for bit, in both directions and on non-square inputs."""
    rows, cols = pc._overlap_matrix(size, h), pc._overlap_matrix(size, w)
    for _ in range(5):
        img = rng.random((h, w, c)) * 255.0
        gray = img.mean(axis=2, keepdims=True) if c > 1 else img
        dense = np.einsum("ri,ijc,sj->rsc", rows, gray, cols)
        assert np.array_equal(pc.area_resample(img, size), dense)


def test_resample_rejects_bad_rank():
    with pytest.raises(ValueError):
        pc.area_resample(np.zeros((4, 4, 1, 1)))


# ---------------------------------------------------------------------------
# Metric axioms
# ---------------------------------------------------------------------------

def test_identity_distance_is_exactly_zero(fnet, rng):
    img = noise(rng)
    assert pc.lpips(fnet, img, img) == 0.0


def test_symmetry_and_nonnegativity(fnet, rng):
    for _ in range(5):
        a, b = noise(rng), noise(rng)
        d_ab = pc.lpips(fnet, a, b)
        d_ba = pc.lpips(fnet, b, a)
        assert d_ab == d_ba
        assert d_ab >= 0.0


def test_distance_rejects_shape_mismatch(fnet, rng):
    with pytest.raises(ValueError):
        pc.lpips(fnet, noise(rng, 16, 16), noise(rng, 8, 8))


def _uncached_lpips(fnet, s1, s2):
    """lpips written out over normalized_activations, with no cache."""
    total = 0.0
    for a1, a2 in zip(pc.normalized_activations(fnet, s1),
                      pc.normalized_activations(fnet, s2)):
        h, w = a1.shape[:2]
        total += float(((a1 - a2) ** 2).sum() / (h * w))
    return total


def test_clean_features_memo_reads_back_the_same_bits(rng, fresh_frame_caches,
                                                    monkeypatch):
    """Under the reference net, the first observation's activations are
    computed on its first distance only and cached by its shape and bytes;
    every distance equals the cache-free one bit for bit."""
    fnet = pc.reference_featurenet()
    clean, views = noise(rng), [noise(rng) for _ in range(3)]
    expected = [_uncached_lpips(fnet, clean, v) for v in views]
    passes = []
    forward = pc.normalized_activations

    def recording(f, s):
        passes.append(s.tobytes())
        return forward(f, s)

    monkeypatch.setattr(pc, "normalized_activations", recording)
    got = [pc.lpips(fnet, clean, v) for v in views]
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    key = clean.shape, np.asarray(clean, dtype=np.float64).tobytes()
    info = pc._reference_activations.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert passes == [key[1], *(v.tobytes() for v in views)]
    pc._reference_activations(*key)
    assert pc._reference_activations.cache_info().hits == 3
    # the same bytes in another shape are another observation
    flat = clean.reshape(1, -1, 1)
    pc.lpips(fnet, flat, views[0].reshape(1, -1, 1))
    assert pc._reference_activations.cache_info().currsize == 2


def test_cached_activations_are_read_only(rng, fresh_frame_caches):
    """Every later distance from the same observation shares its cached
    activations, so no caller may change them under the others."""
    clean = noise(rng)
    pc.lpips(pc.reference_featurenet(), clean, noise(rng))
    acts = pc._reference_activations(clean.shape, clean.tobytes())
    assert pc._reference_activations.cache_info().hits == 1
    for act in acts:
        with pytest.raises(ValueError, match="read-only"):
            act[...] = 0.0


def test_another_net_never_reads_the_cached_activations(rng,
                                                        fresh_frame_caches):
    """A net that differs from the reference net in one weight scores the
    first observation with its own activations, even with the reference
    net's cached: its distance is the cache-free one under that net, not
    the reference net's."""
    ref = pc.reference_featurenet()
    other = pc.build_reference_params()
    other.layers[0].weight.flat[0] += 0.5
    clean, view = noise(rng), noise(rng)
    reference = pc.lpips(ref, clean, view)
    assert pc._reference_activations.cache_info().currsize == 1
    got = pc.lpips(other, clean, view)
    assert got == _uncached_lpips(other, clean, view)
    assert got != reference
    assert pc._reference_activations.cache_info().hits == 0


def test_unit_normalization_properties(rng):
    act = rng.normal(size=(5, 5, 7))
    unit = pc._unit_normalize(act)
    norms = np.sqrt((unit ** 2).sum(axis=-1))
    assert np.allclose(norms, 1.0, atol=1e-12)
    zero = np.zeros((2, 2, 3))
    assert np.array_equal(pc._unit_normalize(zero), zero)


def test_distance_ignores_per_site_activation_scale(fnet, rng):
    """Unit normalization makes the metric invariant to any uniform scaling
    of a layer's activations, a property raw L2 would not have."""
    img = noise(rng)
    y = pc.normalized_activations(fnet, img)
    for act in y:
        norms = np.sqrt((act ** 2).sum(axis=-1))
        assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))


def test_hand_computed_distance_matches(fnet, rng):
    a, b = noise(rng), noise(rng)
    y1 = pc.normalized_activations(fnet, a)
    y2 = pc.normalized_activations(fnet, b)
    total = 0.0
    for a1, a2 in zip(y1, y2):
        h, w = a1.shape[:2]
        total += float(((a1 - a2) ** 2).sum() / (h * w))
    assert pc.lpips(fnet, a, b) == total


def test_small_perturbations_score_small(fnet, rng):
    base = noise(rng, 24, 24)
    tiny = np.clip(base + rng.normal(0, 1.0, base.shape), 0, 255)
    large = np.clip(255.0 - base, 0, 255)
    d_tiny = pc.lpips(fnet, base, tiny)
    d_large = pc.lpips(fnet, base, large)
    assert d_tiny < d_large


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_metric_nonnegative_and_finite(seed):
    fnet = pc.reference_featurenet()
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, size=(12, 12, 1)).astype(float)
    b = rng.integers(0, 256, size=(12, 12, 1)).astype(float)
    d = pc.lpips(fnet, a, b)
    assert np.isfinite(d)
    assert d >= 0.0
    assert pc.lpips(fnet, a, a) == 0.0
