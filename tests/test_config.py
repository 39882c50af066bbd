"""Run manifests: section validation, direction parsing, CLI overrides,
and the echoed-config re-run guarantee."""
from __future__ import annotations

import json
import math

import pytest

from policyprobe import attack, config as cfg, perturb


MINIMAL = {"env": {"id": "pixelgrid", "size": 8, "seed": 0}}


def write_manifest(tmp_path, raw):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    return path


# ---------------------------------------------------------------------------
# Direction parsing
# ---------------------------------------------------------------------------

def test_parse_perturbation_direction():
    d = cfg.parse_direction({"family": "median_blur", "kernel": 3})
    assert isinstance(d, perturb.PerturbationSpec)
    assert d.family == "median_blur" and d.kernel == 3


def test_parse_direction_casts_integer_fields():
    # JSON numbers arrive as floats; integer-valued fields must come back int
    d = cfg.parse_direction({"family": "shift", "ti": 2.0, "tj": -1.0})
    assert d.ti == 2 and isinstance(d.ti, int)
    assert d.tj == -1 and isinstance(d.tj, int)


@pytest.mark.parametrize("field,value", [("ti", 1.9), ("kernel", 3.5),
                                         ("pt_seed", 0.5), ("tj", math.inf)])
def test_parse_direction_refuses_non_integral_integer_fields(field, value):
    """A cast would probe a different direction than the manifest names:
    ti=1.9 used to probe ti=1."""
    with pytest.raises(ValueError, match=field):
        cfg.parse_direction({"family": "shift", field: value})
    raw = dict(MINIMAL, probe={"direction": {"family": "shift", field: value}})
    with pytest.raises(ValueError, match=field):
        cfg.build_run_config(raw)


def test_parse_attack_direction_with_inf_norm():
    d = cfg.parse_direction({"method": "fgm", "p": "inf", "epsilon": 0.05})
    assert isinstance(d, attack.AttackSpec)
    assert d.p == math.inf
    d2 = cfg.parse_direction({"method": "cw", "p": 2, "epsilon": 0.3})
    assert d2.p == 2.0


def test_parse_direction_rejects_junk():
    with pytest.raises(cfg.ConfigError):
        cfg.parse_direction({"kind": "blur"})
    with pytest.raises(cfg.ConfigError):
        cfg.parse_direction("blur")
    with pytest.raises(cfg.ConfigError):
        cfg.parse_direction({"family": "median_blur", "radius": 3})
    with pytest.raises(ValueError):
        cfg.parse_direction({"family": "warp"})


# ---------------------------------------------------------------------------
# Manifest structure
# ---------------------------------------------------------------------------

def test_minimal_manifest_fills_defaults():
    rc = cfg.build_run_config(dict(MINIMAL))
    assert rc.env.env_id == "pixelgrid"
    assert rc.train.objective == "vanilla"
    assert rc.train.seed == 0
    assert rc.probe is None and rc.sweep is None and rc.spectrum is None
    assert json.loads(rc.echo)["env"]["id"] == "pixelgrid"


def test_top_level_seed_flows_into_sections():
    raw = dict(MINIMAL)
    raw["seed"] = 11
    raw["env"] = {"id": "pixelgrid"}
    rc = cfg.build_run_config(raw)
    assert rc.seed == 11
    assert rc.train.seed == 11
    assert rc.env.seed == 11


def test_env_gamma_flows_into_train():
    raw = {"env": {"id": "pixelgrid", "gamma": 0.95}}
    rc = cfg.build_run_config(raw)
    assert rc.train.gamma == 0.95


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(cfg.ConfigError):
        cfg.build_run_config({"env": {"id": "pixelgrid"}, "mystery": 1})
    with pytest.raises(cfg.ConfigError):
        cfg.build_run_config({"env": {"id": "pixelgrid", "shape": 8}})
    with pytest.raises(cfg.ConfigError):
        cfg.build_run_config({"env": {"id": "pixelgrid"},
                              "train": {"learning_rate": 0.1}})
    with pytest.raises(cfg.ConfigError):
        cfg.build_run_config({"env": {"id": "pixelgrid"},
                              "probe": {"direction": {"family": "identity"},
                                        "mode": "fast"}})


@pytest.mark.parametrize("key", ["eps_threshold", "delta_threshold"])
def test_probe_section_refuses_the_removed_verdict_thresholds(key):
    """No command reads a verdict threshold, so a manifest that sets one is
    refused instead of silently ignored."""
    with pytest.raises(cfg.ConfigError, match=key):
        cfg.build_run_config({"env": {"id": "pixelgrid"},
                              "probe": {"direction": {"family": "identity"},
                                        key: 0.1}})


def test_missing_env_section_rejected():
    with pytest.raises(cfg.ConfigError):
        cfg.build_run_config({})
    with pytest.raises(cfg.ConfigError):
        cfg.build_run_config({"env": {"size": 8}})
    with pytest.raises(cfg.ConfigError):
        cfg.build_run_config([1, 2, 3])


def test_section_values_hit_owning_validators():
    # the train section's own dataclass rejects a bad objective
    with pytest.raises(ValueError):
        cfg.build_run_config({"env": {"id": "pixelgrid"},
                              "train": {"objective": "sac"}})
    # probe runs validated by ProbeSettings
    with pytest.raises(ValueError):
        cfg.build_run_config({"env": {"id": "pixelgrid"},
                              "probe": {"direction": {"family": "identity"},
                                        "runs": 0}})


@pytest.mark.parametrize("field,value", [
    ("train_every", 0), ("target_sync", 0), ("eps_start", 3.0),
    ("eps_end", -0.1), ("beta_is_start", 1.5), ("beta_is_end", 7.0)])
def test_train_section_refuses_values_training_cannot_use(field, value):
    """A zero period used to raise ZeroDivisionError mid-training; an
    exploration rate or replay beta outside [0, 1] used to train anyway."""
    with pytest.raises(ValueError, match=field):
        cfg.build_run_config(dict(MINIMAL, train={field: value}))


# ---------------------------------------------------------------------------
# Probe / sweep / spectrum sections
# ---------------------------------------------------------------------------

def test_probe_section_round_trip():
    raw = dict(MINIMAL)
    raw["probe"] = {"direction": {"family": "dct_artifacts", "kappa": 0.5},
                    "runs": 5, "checkpoint": "ck.txt"}
    rc = cfg.build_run_config(raw)
    assert rc.probe.runs == 5
    assert rc.probe.direction.kappa == 0.5
    assert rc.probe.checkpoint == "ck.txt"


def test_sweep_section_validates_grid_and_policies():
    raw = dict(MINIMAL)
    raw["sweep"] = {"family": "median_blur", "parameter": "kernel",
                    "values": [1, 3, 5],
                    "policies": {"vanilla": "a.txt", "radial": "b.txt"},
                    "runs": 3}
    rc = cfg.build_run_config(raw)
    assert rc.sweep.values == (1.0, 3.0, 5.0)
    assert rc.sweep.policies == (("radial", "b.txt"), ("vanilla", "a.txt"))

    bad = dict(raw)
    bad["sweep"] = dict(raw["sweep"], values=[3, 1, 5])
    with pytest.raises(ValueError):
        cfg.build_run_config(bad)
    bad["sweep"] = dict(raw["sweep"], values=[2, 4])  # even blur kernels
    with pytest.raises(ValueError):
        cfg.build_run_config(bad)
    bad["sweep"] = dict(raw["sweep"], policies=[["vanilla", "a.txt"]])
    with pytest.raises(cfg.ConfigError):
        cfg.build_run_config(bad)


def test_sweep_grid_refuses_non_integral_values_of_integer_fields():
    """A kernel grid (3.0, 3.5) used to probe kernel 3 twice while sweep.csv
    recorded 3.5 for the second point; integral floats stay accepted."""
    raw = dict(MINIMAL, sweep={"family": "median_blur", "parameter": "kernel",
                               "values": [3.0, 3.5],
                               "policies": {"vanilla": "a.txt"}})
    with pytest.raises(ValueError, match="kernel must be an integer, got 3.5"):
        cfg.build_run_config(raw)
    with pytest.raises(ValueError, match="kernel"):
        perturb.spec_with("median_blur", "kernel", 3.5)
    raw["sweep"]["values"] = [1.0, 3.0]
    assert cfg.build_run_config(raw).sweep.values == (1.0, 3.0)


def test_spectrum_section_parses_directions():
    raw = dict(MINIMAL)
    raw["spectrum"] = {"directions": [{"family": "median_blur", "kernel": 5},
                                      {"family": "brightness_contrast",
                                       "beta": 20}],
                       "samples": 4}
    rc = cfg.build_run_config(raw)
    assert len(rc.spectrum.directions) == 2
    assert rc.spectrum.source == "reset"

    bad = dict(MINIMAL)
    bad["spectrum"] = {"directions": [{"method": "fgm", "epsilon": 0.05}]}
    with pytest.raises(ValueError):
        cfg.build_run_config(bad)  # attack direction needs a checkpoint
    ok = dict(MINIMAL)
    ok["spectrum"] = {"directions": [{"method": "fgm", "epsilon": 0.05}],
                      "checkpoint": "ck.txt"}
    assert cfg.build_run_config(ok).spectrum.checkpoint == "ck.txt"


# ---------------------------------------------------------------------------
# File loading and overrides
# ---------------------------------------------------------------------------

def test_load_run_config_applies_dotted_overrides(tmp_path):
    path = write_manifest(tmp_path, {"env": {"id": "pixelgrid", "size": 8},
                                     "train": {"total_steps": 100}})
    rc = cfg.load_run_config(path, {"train.total_steps": 7,
                                    "env.seed": 3,
                                    "train.lr": None})  # None = not given
    assert rc.train.total_steps == 7
    assert rc.env.seed == 3
    assert rc.train.lr == cfg.TrainConfig().lr


def test_load_run_config_rejects_missing_and_invalid_files(tmp_path):
    with pytest.raises(cfg.ConfigError):
        cfg.load_run_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(cfg.ConfigError):
        cfg.load_run_config(bad)


def test_echo_reproduces_the_run(tmp_path):
    """Feeding the echoed manifest back in yields the same effective config:
    the re-run guarantee the docs promise."""
    path = write_manifest(tmp_path, {
        "seed": 5,
        "env": {"id": "pixelgrid", "size": 8},
        "probe": {"direction": {"family": "rotation", "degrees": 10.0}},
    })
    rc = cfg.load_run_config(path, {"train.total_steps": 50})
    echoed = tmp_path / "echo.json"
    echoed.write_text(rc.echo)
    rc2 = cfg.load_run_config(echoed)
    assert rc2.env == rc.env
    assert rc2.train == rc.train
    assert rc2.probe == rc.probe
    assert rc2.echo == rc.echo
