"""Impact-vs-strength curves comparing the bundled policies.

Sweeps brightness shift and DCT artifact strength for the vanilla policy
and both certified fine-tunes, printing one impact curve per policy and
writing the raw sweep rows plus aggregates.  This is the desk-scale
analogue of comparing adversarially trained agents to vanilla ones under
intrinsic (policy-independent) corruptions.

Usage: python scripts/run_robustness_sweep.py [--runs N] [--out DIR]
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
from policyprobe import harness

DATA = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"
POLICIES = [("vanilla", DATA / "vanilla_pixelgrid.txt"),
            ("radial", DATA / "radial_pixelgrid.txt"),
            ("sa-ddqn", DATA / "sa_pixelgrid.txt")]
GRIDS = [("brightness_contrast", "beta", [0.0, 10.0, 20.0, 30.0, 45.0]),
         ("dct_artifacts", "kappa", [0.0, 0.2, 0.4, 0.6, 0.8])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    loaded, ids, env_spec = [], {}, None
    for label, path in POLICIES:
        ck, ck_id = cp.load_checkpoint(path)
        loaded.append((label, ck.params))
        ids[label] = ck_id
        env_spec = ck.env_spec
    rundir = (pathlib.Path(args.out) if args.out
              else cp.run_directory("robustness-sweep"))
    rundir.mkdir(parents=True, exist_ok=True)

    for family, parameter, values in GRIDS:
        reports = harness.sweep(loaded, env_spec, family, parameter, values,
                                args.runs, checkpoint_ids=ids)
        cp.atomic_write_text(rundir / f"sweep_{parameter}.csv",
                             cp.sweep_csv(parameter, reports))
        print(f"{family} over {parameter} {values} "
              f"({args.runs} runs per point):")
        for label, _ in loaded:
            curve = " ".join(
                f"{v:g}:{reports[(label, v)].impact:+.3f}"
                for v in values)
            print(f"  {label:<8} {curve}")
    print(f"raw rows -> {rundir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
