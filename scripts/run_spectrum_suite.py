"""Band-energy fingerprints of every perturbation family on env frames.

For each direction, averages the per-band Fourier energy change over a
set of reset observations and reports where in the spectrum the family
acts (brightness: pure f=0; blur and DCT artifacts: high-band removal;
geometric warps: broadband).  Writes one band-energy CSV per direction
plus a PGM pair of the first base/perturbed frame for visual checking.

Usage: python scripts/run_spectrum_suite.py [--env pixelgrid|minipong]
                                            [--size N] [--samples N]
                                            [--out DIR]
"""
from __future__ import annotations

import argparse
import os
import pathlib
import sys

# One BLAS thread unless the caller chose a count: on matrices this
# small, OpenBLAS's default of a thread per core adds CPU time, not
# speed. Set before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from policyprobe import checkpoint as cp
from policyprobe import perturb, spectral
from policyprobe.envs import make_env, make_spec

DIRECTIONS = [
    perturb.PerturbationSpec(family="brightness_contrast", beta=25.0),
    perturb.PerturbationSpec(family="brightness_contrast", alpha=0.7),
    perturb.PerturbationSpec(family="median_blur", kernel=3),
    perturb.PerturbationSpec(family="median_blur", kernel=5),
    perturb.PerturbationSpec(family="rotation", degrees=10.0),
    perturb.PerturbationSpec(family="shift", ti=2, tj=1),
    perturb.PerturbationSpec(family="perspective", pt_norm=2.0),
    perturb.PerturbationSpec(family="dct_artifacts", kappa=0.3),
    perturb.PerturbationSpec(family="dct_artifacts", kappa=0.7),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--env", default="pixelgrid")
    parser.add_argument("--size", type=int, default=8)
    parser.add_argument("--samples", type=int, default=8)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = make_spec(args.env, size=args.size, seed=0)
    env = make_env(spec)
    observations = [env.reset(seed) for seed in range(args.samples)]
    rundir = (pathlib.Path(args.out) if args.out
              else cp.run_directory("spectrum-suite"))
    rundir.mkdir(parents=True, exist_ok=True)
    print(f"{spec.env_id} ({observations[0].shape[0]}px frames, "
          f"{args.samples} samples)")

    for direction in DIRECTIONS:
        pairs = [(obs, perturb.apply(direction, obs))
                 for obs in observations]
        delta = spectral.mean_band_delta(pairs)
        label = direction.label()
        cp.write_spectrum(rundir, label, delta, *pairs[0])
        print(f"  {label:<18} low-band {delta.low_delta:+.3e}   "
              f"high-band {delta.high_delta:+.3e}")
    print(f"band CSVs and PGM samples -> {rundir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
