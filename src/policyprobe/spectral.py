"""2-D Fourier spectrum and banded energy of observations.

The transform is F(u, v) = (1/IJ) * sum_ij x(i, j) exp(-2*pi*j*(ui/I + vj/J)),
computed with the fast transform; tests pin it to a direct-sum oracle. Band
membership folds raw indices to centered frequency magnitudes
(min(u, I-u), min(v, J-v)) and takes their max, so negative frequencies land
in their true (low) bands; E(f) sums |F|^2 over band f and the bands
partition the grid.

`dft2` transforms the array it is given, verbatim. Observation-level
comparisons (`band_delta`) first scale pixels from [0, 255] to [0, 1]; the
scaling multiplies every energy by a common factor and cancels in any banded
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .perturb import as_image

Array = np.ndarray

PIXEL_SCALE = 255.0
LOW_BAND_FRACTION = 1.0 / 8.0    # low band:  f < N/8
HIGH_BAND_FRACTION = 3.0 / 8.0   # high band: f > 3N/8


def dft2(x: Array) -> Array:
    """Normalized 2-D DFT of a single-channel array (used as given): the
    complex grid F(u, v), shape (I, J)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        if x.shape[2] != 1:
            raise ValueError("dft2 takes a single channel; "
                             "use observation_energy for multichannel input")
        x = x[:, :, 0]
    if x.ndim != 2:
        raise ValueError(f"dft2 needs a 2-D array, got shape {x.shape}")
    return np.fft.fft2(x) / x.size


def band_indices(i_dim: int, j_dim: int) -> Array:
    """Band of each (u, v): max of the folded centered frequency magnitudes."""
    u = np.arange(i_dim)
    v = np.arange(j_dim)
    fold_u = np.minimum(u, i_dim - u)
    fold_v = np.minimum(v, j_dim - v)
    return np.maximum(fold_u[:, None], fold_v[None, :])


def n_bands(i_dim: int, j_dim: int) -> int:
    return max(i_dim // 2, j_dim // 2) + 1


def energy_profile(grid: Array) -> Array:
    """E(f) for f = 0 .. max band; sums |F|^2 over each band of a dft2
    grid."""
    return np.bincount(band_indices(*grid.shape).ravel(),
                       weights=(np.abs(grid) ** 2).ravel(),
                       minlength=n_bands(*grid.shape))


def observation_energy(obs: Array) -> Array:
    """Banded energy of a [0, 255] observation: pixels scaled to [0, 1],
    per-channel energies summed."""
    obs = as_image(obs)
    total = np.zeros(n_bands(obs.shape[0], obs.shape[1]))
    for ch in range(obs.shape[2]):
        total += energy_profile(dft2(obs[:, :, ch] / PIXEL_SCALE))
    return total


@dataclass
class BandDelta:
    """Per-band energy comparison of a perturbed observation to its base."""

    e_base: Array
    e_pert: Array
    delta: Array        # e_pert - e_base, per band
    low_delta: float    # sum of delta over f < N/8
    high_delta: float   # sum of delta over f > 3N/8
    n: int              # N = max(I, J)


def _compare(e_base: Array, e_pert: Array, n: int) -> BandDelta:
    """Per-band delta of two energy profiles and its low/high band sums."""
    delta = e_pert - e_base
    f = np.arange(len(delta))
    low = float(delta[f < n * LOW_BAND_FRACTION].sum())
    high = float(delta[f > n * HIGH_BAND_FRACTION].sum())
    return BandDelta(e_base, e_pert, delta, low, high, n)


def band_delta(base: Array, perturbed: Array) -> BandDelta:
    base = np.asarray(base, dtype=np.float64)
    perturbed = np.asarray(perturbed, dtype=np.float64)
    if base.shape != perturbed.shape:
        raise ValueError(f"shape mismatch: base {base.shape} "
                         f"vs perturbed {perturbed.shape}")
    return _compare(observation_energy(base), observation_energy(perturbed),
                    max(base.shape[0], base.shape[1]))


def mean_band_delta(pairs: list[tuple[Array, Array]]) -> BandDelta:
    """Band comparison averaged over (base, perturbed) observation pairs."""
    if not pairs:
        raise ValueError("need at least one observation pair")
    deltas = [band_delta(b, p) for b, p in pairs]
    if any(d.n != deltas[0].n or len(d.delta) != len(deltas[0].delta)
           for d in deltas):
        raise ValueError("all pairs must share one observation geometry")
    return _compare(np.mean([d.e_base for d in deltas], axis=0),
                    np.mean([d.e_pert for d in deltas], axis=0), deltas[0].n)
