"""The analysis scripts and the committed run manifests: the probe suite
runs end to end on a small budget and writes the files it promises; each
manifest under scripts/manifests loads from any working directory and
names checkpoints that exist, and the spectrum and sweep manifests write
what the scripts they replaced wrote; the shipped featurenet asset is its
seeded regeneration and is only ever replaced atomically, and the
reference-policy script writes checkpoint v2; bench_pairs' summary
arithmetic on hand values, and it runs the workloads both checkouts'
BENCHMARK.json declare."""
from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from policyprobe import checkpoint as cp
from policyprobe.cli import main
from policyprobe.config import load_run_config
from policyprobe.envs import make_spec

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
MANIFESTS = SCRIPTS / "manifests"


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


def manifest_checkpoints(cfg) -> list[str]:
    """Every checkpoint path a loaded manifest names."""
    paths = [s.checkpoint for s in (cfg.probe, cfg.spectrum)
             if s is not None and s.checkpoint]
    if cfg.sweep is not None:
        paths += [path for _, path in cfg.sweep.policies]
    return paths


@pytest.mark.parametrize("path", sorted(MANIFESTS.glob("*.json")),
                         ids=lambda p: p.name)
def test_committed_manifests_load_and_name_existing_checkpoints(
        path, tmp_path, monkeypatch):
    """From any working directory: a manifest's paths are its own."""
    monkeypatch.chdir(tmp_path)
    for ck_path in manifest_checkpoints(load_run_config(path)):
        assert Path(ck_path).is_absolute() and Path(ck_path).is_file()


def digest(files) -> str:
    return hashlib.sha256(b"".join(p.name.encode() + b"\0" + p.read_bytes()
                                   for p in files)).hexdigest()[:16]


# recorded from the retired scripts/run_spectrum_suite.py, whose 27 files
# (a band CSV and two PGMs per direction) the manifest writes byte for byte
SPECTRUM_SUITE_DIGEST = "a1fff66020c65299"


def test_spectrum_manifest_writes_the_retired_suites_files(tmp_path,
                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--config",
                 str(MANIFESTS / "spectrum_suite.json"), "--out", "out"]) == 0
    (rundir,) = (tmp_path / "out").iterdir()
    files = sorted(p for p in rundir.iterdir()
                   if p.name != "config_echo.json")
    assert len(files) == 27
    assert digest(files) == SPECTRUM_SUITE_DIGEST


# the sweep.csv of the retired scripts/run_robustness_sweep.py's brightness
# grid, its rows ordered by policy label as the sweep command orders them
SWEEP_BETA_DIGEST = "f99ddfec79c56c1e"


def test_sweep_manifest_writes_the_retired_scripts_rows(tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", str(MANIFESTS / "sweep_beta.json"),
                 "--out", "out"]) == 0
    (rundir,) = (tmp_path / "out").iterdir()
    rows = (rundir / "sweep.csv").read_text()
    assert len(rows.splitlines()) == 1 + 3 * 5 * 5  # policies, values, runs
    assert hashlib.sha256(rows.encode()).hexdigest()[:16] == SWEEP_BETA_DIGEST


def test_featurenet_asset_is_up_to_date_and_left_unwritten(monkeypatch,
                                                          capsys):
    """The shipped asset is the seeded regeneration, byte for byte, so the
    script reports it up to date and writes nothing."""
    def refuse(*args, **kwargs):
        raise AssertionError("the asset was written")

    monkeypatch.setattr(Path, "write_text", refuse)
    monkeypatch.setattr(cp, "atomic_write_text", refuse)
    assert load_script("make_featurenet_asset").main([]) == 0
    assert "featurenet_v1.txt: already up to date" in capsys.readouterr().out


def test_featurenet_asset_is_replaced_atomically(monkeypatch, capsys):
    """A mismatching asset is left alone without --force, and with it the
    regeneration goes through checkpoint.atomic_write_text, so an
    interrupted run never leaves a truncated asset behind."""
    serialize, writes = cp.serialize_params, []

    def refuse(*args, **kwargs):
        raise AssertionError("the asset was written in place")

    monkeypatch.setattr(Path, "write_text", refuse)
    monkeypatch.setattr(cp, "serialize_params",
                        lambda *args, **kw: serialize(*args, **kw) + "#\n")
    monkeypatch.setattr(cp, "atomic_write_text",
                        lambda path, text: writes.append((path, text)))
    script = load_script("make_featurenet_asset")
    assert script.main([]) == 1 and writes == []
    assert "rerun with --force" in capsys.readouterr().err
    assert script.main(["--force"]) == 0
    ((path, text),) = writes
    assert path.name == "featurenet_v1.txt" and path.is_file()
    assert text == path.read_text() + "#\n"


def test_reference_policy_script_writes_checkpoint_v2(tmp_path, capsys,
                                                      monkeypatch):
    script = load_script("train_reference_policies")
    monkeypatch.setattr(script, "report", lambda *args: None)
    config = dataclasses.replace(script.reference_configs()["vanilla"],
                                 total_steps=40, warmup_steps=20)
    spec = make_spec("pixelgrid", size=8, seed=0)
    ck = script.train_and_save("vanilla", spec, config, tmp_path)
    path = tmp_path / "vanilla_pixelgrid.txt"
    assert path.read_text() == cp.serialize_checkpoint(ck)
    assert path.read_text().startswith("checkpoint v2\n")
    assert f"id {cp.load_checkpoint(path)[1]}" in capsys.readouterr().out


STUB_RUN = """import json
print("stub run")
print(json.dumps({{"correct": True, "attempted": 2, "failed": {failed},
                  "metrics": {{"work_per_s": {{"value": {work},
                                              "unit": "1/s"}}}}}}))
"""


def stub_checkout(path: Path, workloads: list[str], work: float = 2.0,
                  failed: int = 0) -> Path:
    """A checkout whose benchmark declares `workloads` and whose run
    prints one JSON result line: `failed` of 2 operations failed, at
    `work` operations per second."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(
        STUB_RUN.format(work=work, failed=failed))
    (path / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": name} for name in workloads],
        "end_to_end": [{"name": "work_per_s", "better": "higher",
                        "bound": 0.24}]}))
    return path


def test_bench_pairs_runs_the_workloads_both_checkouts_declare(tmp_path,
                                                                capsys):
    """The workload list is BENCHMARK.json's: a newly declared workload
    runs, and one that either checkout does not declare is refused with
    the declared names."""
    bench = load_script("bench_pairs")
    parent = stub_checkout(tmp_path / "parent", ["sweep", "probe"])
    change = stub_checkout(tmp_path / "change", ["sweep", "probe", "new"])
    out = tmp_path / "pairs.json"
    args = [str(parent), str(change), "--seeds", "1-2", "--seconds", "1",
            "--out", str(out)]
    assert bench.main(args + ["--workload", "probe"]) == 0
    entry = json.loads(out.read_text())["probe"]
    assert [p["seed"] for p in entry["pairs"]] == [1, 2]
    assert entry["metrics"]["work_per_s"]["verdict"] == "within bound"
    capsys.readouterr()
    for workload in ("new", "attack"):   # declared by one side; by neither
        with pytest.raises(SystemExit):
            bench.main(args + ["--workload", workload])
        assert (f"parent checkout {parent} declares no workload "
                f"'{workload}'; it declares sweep, probe"
                in capsys.readouterr().err)
    with pytest.raises(SystemExit):
        bench.main([str(change), str(parent)] + args[2:]
                   + ["--workload", "new"])
    assert "change checkout" in capsys.readouterr().err
    assert list(json.loads(out.read_text())) == ["probe"]


def test_bench_pairs_summarizes_per_pair_ratios():
    """Hand values: each side's median and quartiles, the per-pair
    change/parent ratios' median and quartiles, the pair counts, the
    no-regression verdicts and the gain verdicts. A metric one side lacks
    is left out; a zero parent value has no ratio, and a metric with no
    bound no no-regression verdict."""
    bench = load_script("bench_pairs")
    parent = {"work_per_s": [10.0, 8.0, 12.0, 6.0],
              "setup_s": [2.0, 4.0, 1.0, 2.0],
              "idle": [0.0, 1.0, 1.0, 1.0],
              "parent_only": [1.0, 1.0, 1.0, 1.0]}
    change = {"work_per_s": [11.0, 10.0, 12.0, 3.0],
              "setup_s": [1.0, 4.0, 2.0, 1.0],
              "idle": [1.0, 1.0, 1.0, 1.0]}

    def side(values, i):
        return {"attempted": 1, "failed": 0,
                "metrics": {name: {"value": v[i], "unit": "u"}
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
    # Gain verdicts, on every metric: the change wins 2, 2 and 1 of 4
    # pairs here
    assert [summary[name]["gain"] for name in ("work_per_s", "setup_s",
                                               "idle")] == ["no gain shown"] * 3
    # parent median 12, quartiles 11 and 13: a spread of 2
    base = [10.0, 11.0, 12.0, 13.0, 14.0] * 2
    assert bench.spread(base) == {"median": 12.0, "q1": 11.0, "q3": 13.0}
    up = [v + 3.0 for v in base]     # wins 10 of 10, by 3 at the median
    assert bench.gain(base, up, "higher") == "gain shown"
    assert bench.gain(up, base, "lower") == "gain shown"
    assert bench.gain(base, up, "lower") == "no gain shown"
    # every pair won, but by 2 at the median: not beyond the spread
    assert bench.gain(base, [v + 2.0 for v in base], "higher") \
        == "no gain shown"
    # 9 of 10 won, one tie: shown; 8 of 10 won, two ties or a loss: not
    one_tie = [base[0], *up[1:]]
    assert bench.gain(base, one_tie, "higher") == "gain shown"
    assert bench.gain(base, [*base[:2], *up[2:]], "higher") \
        == "no gain shown"
    assert bench.gain(base, [0.0, base[1], *up[2:]], "higher") \
        == "no gain shown"


def test_bench_pairs_shows_no_gain_when_the_change_fails_more(tmp_path):
    """A change that runs faster shows a gain, unless a larger share of
    its operations fails than of the parent's; each side's failed share
    is stored."""
    bench = load_script("bench_pairs")
    parent = stub_checkout(tmp_path / "parent", ["attack"], failed=1)
    out = tmp_path / "pairs.json"
    for failed, shown in ((0, "gain shown"), (1, "gain shown"),
                          (2, "no gain shown")):
        change = stub_checkout(tmp_path / f"change{failed}", ["attack"],
                               work=3.0, failed=failed)
        assert bench.main([str(parent), str(change), "--workload", "attack",
                           "--seeds", "1-2", "--seconds", "1",
                           "--out", str(out)]) == 0
        entry = json.loads(out.read_text())["attack"]
        assert entry["failed_share"] == {"parent": 0.5,
                                         "change": failed / 2}
        assert entry["metrics"]["work_per_s"]["gain"] == shown
