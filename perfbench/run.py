"""Benchmark for policyprobe: one workload per run, in one process.

    python3 perfbench/run.py --workload {sweep,attack,train} --seed N
                             --seconds S --trace {0,1}

The run sets up its workload, then runs whole rounds of the workload's
operations until S seconds have passed, checking every output. Every round
starts with discarded set-ups, as many as take SPARE_SETUP_S; `setup_s` is
the median of all. `work_per_s` is the work of one round over the sum of
each operation's median time. With --trace 1, every second round runs
with the program's functions wrapped (see tracer.py), and the run reports
per-layer figures per traced round instead; the untraced rounds in
between give the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Everything else goes to standard error. See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: on two cores OpenBLAS's default of two threads doubles
# CPU time for the same wall time. Set before numpy loads OpenBLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import ctypes
import glob
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Set-up time spent on discarded set-ups at the start of every round
SPARE_SETUP_S = 0.3


def blas_info() -> dict:
    """Thread count and build of the OpenBLAS that numpy loaded, if it is
    numpy's bundled scipy-openblas; None where it cannot be read."""
    import numpy as np
    info = {"numpy": np.__version__, "threads": None, "openblas": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    lib = ctypes.CDLL(libs[0]) if libs else None
    for suffix in ("64_", ""):     # 64-bit and 32-bit integer builds
        threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}",
                          None)
        config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
        if threads is not None and config is not None:
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            info["threads"] = threads()
            info["openblas"] = config().decode()
            break
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "attack", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "policyprobe").is_dir():
        print(f"error: no policyprobe sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import tracer as tracer_mod
    import workloads

    blas = blas_info()
    if blas["threads"] not in (None, 1):
        print(f"error: OpenBLAS runs {blas['threads']} threads, the "
              "benchmark needs 1", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup_times = []

    def set_up(path: Path):
        path.mkdir(parents=True)
        t0 = time.perf_counter()
        built = workloads.WORKLOADS[args.workload](ROOT, args.seed, path)
        setup_times.append(time.perf_counter() - t0)
        return built

    try:
        wl = set_up(workdir / "run")
        wl.prepare()
        tracer = tracer_mod.Tracer(wl.spec.obs_shape[:2])

        times = {kind: [] for kind in wl.kinds}
        traced_times = {kind: [] for kind in wl.kinds}
        attempted = failed = rounds = traced_rounds = 0
        wrong = False
        min_rounds = 2 if args.trace else 1
        start = time.perf_counter()
        while wl.has_round() and (rounds < min_rounds or
                                  time.perf_counter() - start < args.seconds):
            traced = bool(args.trace) and rounds % 2 == 1
            # The host's speed drifts in spells; more set-ups in every round
            # let setup_s sample the whole run like the operations do.
            spent = 0.0
            while spent < SPARE_SETUP_S:
                set_up(workdir / "spare")
                spent += setup_times[-1]
                shutil.rmtree(workdir / "spare")
            for kind in wl.kinds:
                attempted += 1
                try:
                    if traced:
                        tracer.new_scope()
                        tracer.install()
                    try:
                        t0 = time.perf_counter()
                        out = wl.run(kind)
                        elapsed = time.perf_counter() - t0
                    finally:
                        tracer.remove()
                    (traced_times if traced else times)[kind].append(elapsed)
                    print(f"round {rounds}{' traced' if traced else ''} "
                          f"{kind}: {elapsed:.3f} s", file=sys.stderr)
                    wl.check(kind, out)
                except checks.CheckFailed as exc:
                    failed += 1
                    wrong = True
                    print(f"check failed: {args.workload}/{kind}: {exc}",
                          file=sys.stderr)
                except Exception:
                    failed += 1
                    print(f"error: {args.workload}/{kind}:", file=sys.stderr)
                    traceback.print_exc()
            rounds += 1
            traced_rounds += traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # An operation that raised has no time; one that failed a check has.
    medians = {k: statistics.median(v) for k, v in times.items() if v}
    timed = len(medians) == len(wl.kinds)
    metrics = {}
    if args.trace:
        traced_medians = {k: statistics.median(v)
                          for k, v in traced_times.items() if v}
        timed = timed and len(traced_medians) == len(wl.kinds)
        overhead = (sum(traced_medians.values()) / sum(medians.values()) - 1
                    if timed else None)
        table = tracer.table(traced_rounds)
        metrics = tracer_mod.per_layer_metrics(table)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "traced_rounds": traced_rounds, "blas": blas,
            "untraced_round_s": sum(medians.values()),
            "traced_round_s": sum(traced_medians.values()),
            "overhead": overhead, "functions": table}, indent=1))
        if timed:
            print(f"tracing overhead {overhead:+.1%}: traced round "
                  f"{sum(traced_medians.values()):.3f} s, untraced "
                  f"{sum(medians.values()):.3f} s", file=sys.stderr)
        print(f"per-function table in {trace_file}", file=sys.stderr)
    else:
        if timed:
            metrics = {name: {"value": value, "unit": unit} for name,
                       (value, unit) in wl.metrics(medians).items()}
        metrics["setup_s"] = {"value": statistics.median(setup_times),
                              "unit": "s"}
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
    if not timed:
        print("error: some kind of operation never completed, so the run "
              "has no throughput", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
