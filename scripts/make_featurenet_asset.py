"""Regenerate the bundled perceptual-metric weights from their seed.

The similarity metric reads fixed random conv weights from
src/policyprobe/assets/featurenet_v1.txt so that every install computes
identical distances.  The file is a `paramset v2` section of kind
featurenet (see the checkpoint module): a header per layer and one line
of base64 little-endian float64 bytes per array.  This script rebuilds
the weights from the seed, serializes them, and compares that text with
the shipped file byte for byte, so equal text means bit-equal weights
(use --force to overwrite a mismatch on purpose, e.g. after changing the
architecture and bumping the version string).

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

from policyprobe import checkpoint as cp
from policyprobe import perceptual


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--force", action="store_true",
                        help="overwrite the asset even if it differs")
    args = parser.parse_args(argv)

    asset = (pathlib.Path(__file__).resolve().parent.parent / "src"
             / "policyprobe" / "assets"
             / f"{perceptual.FEATURENET_VERSION}.txt")
    params = perceptual.build_reference_params()
    text = cp.serialize_params(params, kind="featurenet")

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
    cp.atomic_write_text(asset, text)
    print(f"wrote {asset} ({len(text.splitlines())} lines, "
          f"seed {perceptual.FEATURENET_SEED})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
