"""Regenerate the bundled perceptual-metric weights from their seed.

The similarity metric reads fixed random conv weights from
src/policyprobe/assets/featurenet_v1.txt so that every install computes
identical distances.  This script rebuilds that file from the seed and
verifies it matches what is already shipped (use --force to overwrite a
mismatch on purpose, e.g. after changing the architecture and bumping
the version string).

Usage: python scripts/make_featurenet_asset.py [--force]
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

from policyprobe import nn, perceptual


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--force", action="store_true",
                        help="overwrite the asset even if it differs")
    args = parser.parse_args(argv)

    asset = (pathlib.Path(__file__).resolve().parent.parent / "src"
             / "policyprobe" / "assets"
             / f"{perceptual.FEATURENET_VERSION}.txt")
    params = perceptual.build_reference_params()
    text = nn.serialize_params(params, kind="featurenet")

    if asset.exists():
        current = asset.read_text()
        if current == text:
            print(f"{asset.name}: already up to date "
                  f"({len(text.splitlines())} lines)")
            return 0
        if not args.force:
            print(f"{asset.name} differs from the seeded regeneration; "
                  "rerun with --force to replace it", file=sys.stderr)
            return 1
    asset.parent.mkdir(parents=True, exist_ok=True)
    asset.write_text(text)
    print(f"wrote {asset} ({len(text.splitlines())} lines, "
          f"seed {perceptual.FEATURENET_SEED})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
