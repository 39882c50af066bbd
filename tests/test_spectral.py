"""Fourier analysis: the fast transform against a direct quadruple sum,
band bookkeeping, and the classic invariances."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policyprobe import checkpoint as cp
from policyprobe import perturb as pb
from policyprobe import spectral as sp


def direct_dft2(x):
    """O(N^4) textbook sum, the oracle for dft2."""
    i_dim, j_dim = x.shape
    out = np.zeros((i_dim, j_dim), dtype=complex)
    for u in range(i_dim):
        for v in range(j_dim):
            acc = 0.0 + 0.0j
            for i in range(i_dim):
                for j in range(j_dim):
                    acc += x[i, j] * np.exp(-2j * np.pi * (u * i / i_dim
                                                           + v * j / j_dim))
            out[u, v] = acc / (i_dim * j_dim)
    return out


# ---------------------------------------------------------------------------
# Transform correctness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [4, 8])
def test_fast_transform_matches_direct_sum(size, rng):
    x = rng.normal(size=(size, size))
    fast = sp.dft2(x)
    assert np.max(np.abs(fast - direct_dft2(x))) < 1e-9


def test_dc_coefficient_is_the_mean(rng):
    x = rng.normal(size=(8, 8))
    assert abs(sp.dft2(x)[0, 0] - x.mean()) < 1e-12


def test_constant_image_has_only_dc_energy():
    grid = sp.dft2(np.full((8, 8), 3.5))
    e = sp.energy_profile(grid)
    assert abs(e[0] - 3.5 ** 2) < 1e-12
    assert np.all(np.abs(e[1:]) < 1e-20)


def test_parseval_total_energy(rng):
    # sum |F|^2 = mean |x|^2 under the 1/(IJ) normalization
    x = rng.normal(size=(8, 8))
    e = sp.energy_profile(sp.dft2(x))
    assert abs(e.sum() - np.mean(x ** 2)) < 1e-12


def test_circular_shift_preserves_magnitudes(rng):
    x = rng.normal(size=(8, 8))
    shifted = np.roll(x, (3, 5), axis=(0, 1))
    a = np.abs(sp.dft2(x)) ** 2
    b = np.abs(sp.dft2(shifted)) ** 2
    assert np.max(np.abs(a - b)) < 1e-12


def test_single_cosine_lands_in_its_band():
    i = np.arange(16)
    x = np.cos(2 * np.pi * 3 * i / 16)[:, None] * np.ones((1, 16))
    e = sp.energy_profile(sp.dft2(x))
    assert e[3] > 0.49  # two conjugate spikes of |.25| each... 2*(1/2)^2/2
    others = np.delete(e, 3)
    assert np.all(others < 1e-12)


def test_dft2_rejects_bad_input(rng):
    with pytest.raises(ValueError):
        sp.dft2(rng.normal(size=(4, 4, 2)))
    with pytest.raises(ValueError):
        sp.dft2(rng.normal(size=7))


# ---------------------------------------------------------------------------
# Band bookkeeping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(8, 8), (16, 16), (8, 16), (9, 13)])
def test_bands_partition_the_grid(shape):
    bands = sp.band_indices(*shape)
    assert bands.shape == shape
    assert bands.min() == 0
    assert bands.max() == sp.n_bands(*shape) - 1
    counts = np.bincount(bands.ravel())
    assert counts.sum() == shape[0] * shape[1]
    assert np.all(counts > 0)


def test_band_folding_maps_negative_frequencies_low():
    bands = sp.band_indices(8, 8)
    assert bands[0, 0] == 0
    assert bands[1, 0] == 1
    assert bands[7, 0] == 1   # u = -1 folds to magnitude 1
    assert bands[4, 4] == 4   # Nyquist corner
    assert bands[7, 7] == 1


def test_energy_profile_partitions_total_energy(rng):
    x = rng.normal(size=(12, 10))
    grid = sp.dft2(x)
    e = sp.energy_profile(grid)
    assert abs(e.sum() - (np.abs(grid) ** 2).sum()) < 1e-12


# ---------------------------------------------------------------------------
# Observation-level comparisons
# ---------------------------------------------------------------------------

def test_observation_energy_scales_pixels(rng):
    obs = rng.integers(0, 256, size=(8, 8, 1)).astype(float)
    e = sp.observation_energy(obs)
    ref = sp.energy_profile(sp.dft2(obs[:, :, 0] / 255.0))
    assert np.allclose(e, ref, atol=1e-15)


def test_band_delta_identity_is_zero(rng):
    obs = rng.integers(0, 256, size=(16, 16, 1)).astype(float)
    d = sp.band_delta(obs, obs)
    assert np.all(d.delta == 0.0)
    assert d.low_delta == 0.0 and d.high_delta == 0.0


def test_band_delta_brightness_hits_only_dc(rng):
    obs = rng.integers(60, 196, size=(16, 16, 1)).astype(float)
    pert = pb.brightness_contrast(obs, alpha=1.0, beta=20.0)
    d = sp.band_delta(obs, pert)
    assert d.delta[0] > 0.0
    assert np.max(np.abs(d.delta[1:])) < 1e-12
    assert abs(d.high_delta) < 1e-12


def test_band_delta_blur_removes_high_frequency(rng):
    obs = rng.integers(0, 256, size=(16, 16, 1)).astype(float)
    pert = pb.median_blur(obs, 5)
    d = sp.band_delta(obs, pert)
    assert d.high_delta < 0.0


def test_band_delta_rejects_mismatched_shapes(rng):
    with pytest.raises(ValueError):
        sp.band_delta(np.zeros((8, 8, 1)), np.zeros((16, 16, 1)))


def test_band_delta_csv_rows_cover_every_band(rng):
    """The spectrum CSV holds one row per band: f, both energies and their
    delta, each value exact."""
    obs = rng.integers(0, 256, size=(8, 8, 1)).astype(float)
    d = sp.band_delta(obs, np.clip(obs + 5, 0, 255))
    lines = cp.spectrum_csv(d).splitlines()
    assert lines[0] == cp.SPECTRUM_CSV_HEADER
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) == sp.n_bands(8, 8)
    assert np.array_equal([r[1:] for r in rows],
                          np.stack([d.e_base, d.e_pert, d.delta], axis=1))
    assert [r[0] for r in rows] == list(range(len(rows)))
    for f, e_base, e_pert, delta in rows:
        assert abs((e_pert - e_base) - delta) < 1e-15


def test_mean_band_delta_averages_pairs(rng):
    pairs = []
    for _ in range(4):
        base = rng.integers(0, 256, size=(8, 8, 1)).astype(float)
        pairs.append((base, np.clip(base + rng.normal(0, 10, base.shape),
                                    0, 255)))
    mean_d = sp.mean_band_delta(pairs)
    singles = [sp.band_delta(b, p) for b, p in pairs]
    assert np.allclose(mean_d.e_base,
                       np.mean([d.e_base for d in singles], axis=0))
    assert np.allclose(mean_d.delta,
                       np.mean([d.delta for d in singles], axis=0))


def test_mean_band_delta_rejects_empty_and_mixed_geometry(rng):
    with pytest.raises(ValueError):
        sp.mean_band_delta([])
    a = rng.integers(0, 256, size=(8, 8, 1)).astype(float)
    b = rng.integers(0, 256, size=(16, 16, 1)).astype(float)
    with pytest.raises(ValueError):
        sp.mean_band_delta([(a, a), (b, b)])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(0, 7), st.integers(0, 7))
def test_magnitude_invariance_under_any_circular_shift(seed, di, dj):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(8, 8))
    a = np.abs(sp.dft2(x)) ** 2
    b = np.abs(sp.dft2(np.roll(x, (di, dj), axis=(0, 1)))) ** 2
    assert np.max(np.abs(a - b)) < 1e-12
