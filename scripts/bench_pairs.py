"""Paired benchmark runs of two checkouts, summarized into one JSON file.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        --seeds A-B --seconds S --out FILE

For every seed from A to B it runs `perfbench/run.py --workload W --seed N
--seconds S` once in each checkout, each from its own directory, so each
side runs its own benchmark and its own sources. The two alternate which
runs first: the parent on the first seed, the change on the second, and so
on, so a slow spell of the host falls on both sides alike. Runs go one at
a time.

FILE holds one entry per workload; a call writes its workload's entry and
keeps the others. An entry holds every run's JSON result and, for each
metric that both sides report, each side's median and quartiles, the
ratio of the medians (change over parent), the median and quartiles of
the per-pair ratios, and in how many pairs the change was better, worse
or tied. The host's speed drifts between pairs by more than most changes
move a metric, so each side's median mixes drift with the change; a
pair's two runs share one spell of the host, so the per-pair ratio is
the figure that shows the change. "Better" follows BENCHMARK.json in the
parent checkout; a metric it does not list counts as higher-is-better.

Each end-to-end metric that BENCHMARK.json gives a `bound` also gets a
no-regression verdict: "within bound" when the change's median is worse
than the parent's by at most that share of the parent's median, "beyond
bound" when it is worse by more, and "unresolved" when the parent's own
interquartile spread exceeds the bound, unless every change run beats
every parent run.

Every metric also gets a gain verdict: "gain shown" when the change is
better in at least nine tenths of all pairs, a tie counting for neither
side, and the change's median is better than the parent's by more than
the parent's interquartile range; "no gain shown" otherwise. An entry also
holds each side's failed share, its runs' failed operations over their
attempted ones, and every gain verdict reads "no gain shown" when the
change's share is the larger: a faster run that fails more operations
shows no gain. A run that exits nonzero or prints no JSON result stops
the script, and a workload that either checkout's BENCHMARK.json does not
declare is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np


def parse_seeds(text: str) -> list[int]:
    first, sep, last = text.partition("-")
    seeds = list(range(int(first), int(last) + 1)) if sep else [int(first)]
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in `checkout`; its last standard-output line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=3 * seconds + 300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (numpy's default linear interpolation)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """The no-regression verdict on one metric's runs (see the module
    docstring)."""
    sign = -1.0 if better == "lower" else 1.0
    base = spread(parent)
    allowed = bound * abs(base["median"])
    if all(sign * c > sign * p for c in change for p in parent):
        return "within bound"
    if base["q3"] - base["q1"] > allowed:
        return "unresolved"
    worse = sign * (base["median"] - spread(change)["median"])
    return "within bound" if worse <= allowed else "beyond bound"


def gain(parent: list[float], change: list[float], better: str) -> str:
    """The gain verdict on one metric's paired runs (see the module
    docstring)."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    base = spread(parent)
    margin = sign * (spread(change)["median"] - base["median"])
    shown = 10 * wins >= 9 * len(parent) and margin > base["q3"] - base["q1"]
    return "gain shown" if shown else "no gain shown"


def failed_share(pairs: list[dict], side: str) -> float:
    """One side's failed operations over its attempted ones, all runs
    summed; 0 when it attempted none."""
    attempted = sum(p[side]["attempted"] for p in pairs)
    return sum(p[side]["failed"] for p in pairs) / attempted if attempted \
        else 0.0


def summarize(pairs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    fails_more = failed_share(pairs, "change") > failed_share(pairs, "parent")
    names = [name for name in pairs[0]["parent"]["metrics"]
             if all(name in p[side]["metrics"]
                    for p in pairs for side in ("parent", "change"))]
    summary = {}
    for name in names:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in ("parent", "change")}
        sign = -1.0 if better.get(name) == "lower" else 1.0
        diffs = [sign * (c - p)
                 for p, c in zip(values["parent"], values["change"])]
        parent, change = spread(values["parent"]), spread(values["change"])
        pair_ratio = (spread([c / p for p, c in zip(values["parent"],
                                                    values["change"])])
                      if all(values["parent"]) else None)
        summary[name] = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "better": better.get(name, "higher"),
            "parent": parent, "change": change,
            "ratio": (change["median"] / parent["median"]
                      if parent["median"] else None),
            "pair_ratio": pair_ratio,
            "change_better": sum(d > 0 for d in diffs),
            "change_worse": sum(d < 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs),
            "pairs": len(pairs),
            "gain": ("no gain shown" if fails_more else
                     gain(values["parent"], values["change"],
                          better.get(name, "higher"))),
            "verdict": (verdict(values["parent"], values["change"],
                                better.get(name, "higher"), bounds[name])
                        if name in (bounds or {}) else None)}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        help="a workload both BENCHMARK.json files declare")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="inclusive range A-B, or one seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = {}
    for side, path in sides.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")
        declared[side] = json.loads((path / "BENCHMARK.json").read_text())
        names = [w["name"] for w in declared[side]["workloads"]]
        if args.workload not in names:
            parser.error(f"{side} checkout {path} declares no workload "
                         f"{args.workload!r}; it declares {', '.join(names)}")
    metrics = declared["parent"]["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics}

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed,
                                  args.seconds)
            work = pair[side]["metrics"].get("work_per_s", {}).get("value")
            print(f"seed {seed} {side}: correct={pair[side]['correct']} "
                  f"failed={pair[side]['failed']} work_per_s={work}",
                  file=sys.stderr)
        pairs.append(pair)

    result = {
        "seconds": args.seconds, "seeds": args.seeds,
        "machine": {"python": platform.python_version(),
                    "numpy": np.__version__, "cpus": os.cpu_count(),
                    "blas_threads": 1},   # perfbench/run.py refuses others
        "all_correct": all(p[s]["correct"] and not p[s]["failed"]
                           for p in pairs for s in ("parent", "change")),
        "failed_share": {side: failed_share(pairs, side)
                         for side in ("parent", "change")},
        "metrics": summarize(pairs, better, bounds),
        "pairs": pairs}
    entries = json.loads(args.out.read_text()) if args.out.exists() else {}
    entries[args.workload] = result
    args.out.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print("failed share: parent {parent:.4g}, change {change:.4g}".format(
        **result["failed_share"]), file=sys.stderr)
    for name, m in result["metrics"].items():
        ratio = m["pair_ratio"]
        per_pair = ("" if ratio is None else
                    f", per-pair ratio {ratio['median']:.4g} "
                    f"({ratio['q1']:.4g}-{ratio['q3']:.4g})")
        judged = "" if m["verdict"] is None else f", {m['verdict']}"
        print(f"{name}: {m['parent']['median']:.6g} -> "
              f"{m['change']['median']:.6g} {m['unit']}{per_pair}, change "
              f"better in {m['change_better']} of {m['pairs']}{judged}, "
              f"{m['gain']}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
