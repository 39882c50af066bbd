"""Smoke tests of the analysis scripts: each runs end to end on a small
budget and writes the files it promises, and the spectrum suite writes
what `policyprobe spectrum` writes for the same directions; bench_pairs'
summary arithmetic on hand values."""
from __future__ import annotations

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from policyprobe import checkpoint as cp
from policyprobe.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}",
                                                  SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_suite_writes_one_runs_csv_per_direction(tmp_path, capsys):
    suite = load_script("run_probe_suite")
    assert suite.main(["--runs", "1", "--out", str(tmp_path)]) == 0
    csvs = sorted(tmp_path.glob("runs_*.csv"))
    assert len(csvs) == len(suite.DIRECTIONS)   # no two labels collide
    for path in csvs:
        lines = path.read_text().splitlines()
        assert lines[0] == cp.REPORT_CSV_HEADER and len(lines) == 2
    assert "per-run CSVs" in capsys.readouterr().out


def test_robustness_sweep_writes_one_sweep_csv_per_grid(tmp_path, capsys):
    sweep = load_script("run_robustness_sweep")
    assert sweep.main(["--runs", "1", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"sweep_{parameter}.csv" for _, parameter, _ in sweep.GRIDS]
    for _, parameter, values in sweep.GRIDS:
        lines = (tmp_path / f"sweep_{parameter}.csv").read_text().splitlines()
        assert lines[0] == cp.SWEEP_CSV_HEADER
        assert len(lines) == 1 + len(sweep.POLICIES) * len(values)
    assert "raw rows" in capsys.readouterr().out


def test_spectrum_suite_writes_what_the_spectrum_command_writes(tmp_path):
    suite = load_script("run_spectrum_suite")
    script_dir = tmp_path / "script"
    assert suite.main(["--samples", "2", "--out", str(script_dir)]) == 0
    written = sorted(script_dir.iterdir())
    assert len(written) == 3 * len(suite.DIRECTIONS)  # CSV and two PGMs each

    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps({
        "env": {"id": "pixelgrid", "size": 8, "seed": 0},
        "spectrum": {"directions": [dataclasses.asdict(d)
                                    for d in suite.DIRECTIONS],
                     "samples": 2}}))
    out = tmp_path / "cli"
    assert main(["spectrum", "--config", str(manifest),
                 "--out", str(out)]) == 0
    (rundir,) = out.iterdir()
    for path in written:
        assert (rundir / path.name).read_bytes() == path.read_bytes(), \
            path.name


def test_bench_pairs_summarizes_per_pair_ratios():
    """Hand values: each side's median and quartiles, the per-pair
    change/parent ratios' median and quartiles, the pair counts and the
    no-regression verdicts. A metric one side lacks is left out; a zero
    parent value has no ratio, and a metric with no bound no verdict."""
    bench = load_script("bench_pairs")
    parent = {"work_per_s": [10.0, 8.0, 12.0, 6.0],
              "setup_s": [2.0, 4.0, 1.0, 2.0],
              "idle": [0.0, 1.0, 1.0, 1.0],
              "parent_only": [1.0, 1.0, 1.0, 1.0]}
    change = {"work_per_s": [11.0, 10.0, 12.0, 3.0],
              "setup_s": [1.0, 4.0, 2.0, 1.0],
              "idle": [1.0, 1.0, 1.0, 1.0]}

    def side(values, i):
        return {"metrics": {name: {"value": v[i], "unit": "u"}
                            for name, v in values.items()}}

    pairs = [{"parent": side(parent, i), "change": side(change, i)}
             for i in range(4)]
    summary = bench.summarize(pairs, {"setup_s": "lower"},
                              {"work_per_s": 0.24, "setup_s": 0.25})
    assert sorted(summary) == ["idle", "setup_s", "work_per_s"]
    work, setup = summary["work_per_s"], summary["setup_s"]
    assert work["parent"] == {"median": 9.0, "q1": 7.5, "q3": 10.5}
    assert work["ratio"] == pytest.approx(10.5 / 9.0)
    # ratios 1.1, 1.25, 1.0, 0.5
    assert work["pair_ratio"] == pytest.approx(
        {"median": 1.05, "q1": 0.875, "q3": 1.1375})
    assert (work["change_better"], work["change_worse"], work["ties"],
            work["pairs"], work["better"]) == (2, 1, 1, 4, "higher")
    # ratios 0.5, 1, 2, 0.5; lower is better
    assert setup["pair_ratio"] == pytest.approx(
        {"median": 0.75, "q1": 0.5, "q3": 1.25})
    assert (setup["change_better"], setup["change_worse"],
            setup["ties"], setup["better"]) == (2, 1, 1, "lower")
    assert summary["idle"]["pair_ratio"] is None
    # No-regression verdicts. The parent's interquartile spreads, 3/9 of
    # its work_per_s median and 0.75/2 of its setup_s median, exceed the
    # bounds, and some parent run beats some change run.
    assert (work["verdict"], setup["verdict"]) == ("unresolved",
                                                   "unresolved")
    assert summary["idle"]["verdict"] is None        # no bound declared
    # inside a 0.5 bound, work_per_s gains: 10.5 against 9
    assert bench.verdict(parent["work_per_s"], change["work_per_s"],
                         "higher", 0.5) == "within bound"
    # no spread: 8 is 20% below 10, inside 0.24 and beyond 0.1
    assert bench.verdict([10.0] * 4, [8.0] * 4, "higher", 0.24) \
        == "within bound"
    assert bench.verdict([10.0] * 4, [8.0] * 4, "higher", 0.1) \
        == "beyond bound"
    # 2.4 s is 20% above 2 s, beyond 0.1 when lower is better
    assert bench.verdict([2.0] * 4, [2.4] * 4, "lower", 0.1) \
        == "beyond bound"
    # a spread wider than the bound, but every change run is better
    assert bench.verdict([1.0, 2.0, 3.0, 4.0], [0.5, 0.6, 0.7, 0.8],
                         "lower", 0.1) == "within bound"
