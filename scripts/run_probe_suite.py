"""Probe one checkpoint with the full direction battery and tabulate impact.

Runs the probe harness over every perturbation family at a few strengths
plus both gradient attacks, prints one summary line per direction, and
writes the per-run CSVs into the output directory.  This is the per-policy
half of the robustness story; run_robustness_sweep.py compares policies.

Usage: python scripts/run_probe_suite.py [--checkpoint PATH] [--runs N]
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
from policyprobe import harness
from policyprobe.attack import AttackSpec
from policyprobe.perturb import PerturbationSpec

DEFAULT_CHECKPOINT = (pathlib.Path(__file__).resolve().parent.parent
                      / "tests" / "data" / "vanilla_pixelgrid.txt")

DIRECTIONS = [
    PerturbationSpec(family="identity"),
    PerturbationSpec(family="brightness_contrast", beta=15.0),
    PerturbationSpec(family="brightness_contrast", beta=40.0),
    PerturbationSpec(family="brightness_contrast", alpha=0.6),
    PerturbationSpec(family="median_blur", kernel=3),
    PerturbationSpec(family="median_blur", kernel=5),
    PerturbationSpec(family="rotation", degrees=5.0),
    PerturbationSpec(family="rotation", degrees=20.0),
    PerturbationSpec(family="shift", ti=1, tj=0),
    PerturbationSpec(family="shift", ti=0, tj=2),
    PerturbationSpec(family="perspective", pt_norm=1.5),
    PerturbationSpec(family="perspective", pt_norm=3.0, pt_mode="seeded"),
    PerturbationSpec(family="dct_artifacts", kappa=0.3),
    PerturbationSpec(family="dct_artifacts", kappa=0.7),
    AttackSpec(method="fgm", p=float("inf"), epsilon=2 / 255),
    AttackSpec(method="cw", p=float("inf"), epsilon=2 / 255),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--checkpoint", default=str(DEFAULT_CHECKPOINT))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=None,
                        help="directory for per-direction CSVs "
                             "(default: a fresh run directory)")
    args = parser.parse_args(argv)

    ck, ck_id = cp.load_checkpoint(args.checkpoint)
    rundir = (pathlib.Path(args.out) if args.out
              else cp.run_directory("probe-suite"))
    rundir.mkdir(parents=True, exist_ok=True)
    print(f"checkpoint {ck_id} ({ck.config.objective}) on "
          f"{ck.env_spec.env_id}, {args.runs} runs per direction")

    for direction in DIRECTIONS:
        report = harness.probe(ck.params, ck.env_spec, direction, args.runs,
                               checkpoint_id=ck_id)
        print("  " + cp.summary_line(report))
        label = direction.label()
        safe = "".join(c if c.isalnum() or c in "._-" else "_"
                       for c in label)
        cp.atomic_write_text(rundir / f"runs_{safe}.csv",
                             cp.report_csv(report))
    print(f"per-run CSVs -> {rundir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
