"""On-disk formats: bit-exact checkpoint round trips, damage rejection,
CSV schemas, atomic writes, and run-directory hygiene."""
from __future__ import annotations

import math

import numpy as np
import pytest

from policyprobe import checkpoint as cp
from policyprobe import harness as hz
from policyprobe import nn, qlearning as ql, spectral
from policyprobe.envs import make_spec


def tiny_checkpoint(seed=3):
    spec = make_spec("pixelgrid", size=8, seed=seed)
    params = nn.qnet_params(spec.obs_shape, n_actions=4, seed=seed)
    config = ql.TrainConfig(objective="vanilla", total_steps=100, seed=seed)
    curve = [(0, -1.5), (1, 0.25), (2, 0.8)]
    return ql.Checkpoint(params, spec, config, curve, trained_steps=100)


# ---------------------------------------------------------------------------
# Checkpoint codec
# ---------------------------------------------------------------------------

def test_round_trip_is_bit_exact(tmp_path):
    ck = tiny_checkpoint()
    text = cp.serialize_checkpoint(ck)
    again = cp.serialize_checkpoint(cp.parse_checkpoint(text))
    assert again == text


def test_save_load_preserves_everything(tmp_path):
    ck = tiny_checkpoint()
    path = tmp_path / "ck.txt"
    saved_id = cp.save_checkpoint(path, ck)
    loaded, loaded_id = cp.load_checkpoint(path)
    assert saved_id == loaded_id
    assert loaded.trained_steps == ck.trained_steps
    assert loaded.env_spec == ck.env_spec
    assert loaded.config == ck.config
    assert loaded.curve == ck.curve
    assert cp.serialize_params(loaded.params) == cp.serialize_params(ck.params)


def test_checkpoint_id_tracks_content(tmp_path):
    ck = tiny_checkpoint()
    text = cp.serialize_checkpoint(ck)
    assert cp.checkpoint_id(text) == cp.checkpoint_id(text)
    other = cp.serialize_checkpoint(tiny_checkpoint(seed=4))
    assert cp.checkpoint_id(text) != cp.checkpoint_id(other)
    assert len(cp.checkpoint_id(text)) == 16


def test_parse_rejects_version_mismatch():
    text = cp.serialize_checkpoint(tiny_checkpoint())
    wrong = text.replace("checkpoint v1", "checkpoint v2", 1)
    with pytest.raises(cp.CheckpointFormatError):
        cp.parse_checkpoint(wrong)
    with pytest.raises(cp.CheckpointFormatError):
        cp.parse_checkpoint("")


def test_parse_rejects_truncation():
    text = cp.serialize_checkpoint(tiny_checkpoint())
    lines = text.splitlines()
    # drop the end marker
    with pytest.raises(cp.CheckpointFormatError):
        cp.parse_checkpoint("\n".join(lines[:-1]) + "\n")
    # drop a config field but keep the end marker
    without_field = [ln for ln in lines if not ln.startswith("train.lr")]
    with pytest.raises(cp.CheckpointFormatError):
        cp.parse_checkpoint("\n".join(without_field) + "\n")


def test_parse_rejects_lines_after_the_parameters():
    lines = cp.serialize_checkpoint(tiny_checkpoint()).splitlines()
    lines.insert(-1, "weight 0")
    with pytest.raises(cp.CheckpointFormatError, match="follows the param"):
        cp.parse_checkpoint("\n".join(lines) + "\n")


def test_parse_rejects_unknown_fields():
    text = cp.serialize_checkpoint(tiny_checkpoint())
    lines = text.splitlines()
    lines.insert(2, "train.mystery = 1")
    with pytest.raises(cp.CheckpointFormatError):
        cp.parse_checkpoint("\n".join(lines) + "\n")


def test_parse_rejects_wrong_parameter_kind():
    ck = tiny_checkpoint()
    text = cp.serialize_checkpoint(ck)
    wrong = text.replace("kind=qnet", "kind=featurenet")
    with pytest.raises(cp.CheckpointFormatError):
        cp.parse_checkpoint(wrong)


def test_float_fields_survive_round_trip_exactly():
    config = ql.TrainConfig(lr=1.0 / 3.0, gamma=0.9000000000000001,
                            eps_rob=1 / 255)
    ck = tiny_checkpoint()
    ck = ql.Checkpoint(ck.params, ck.env_spec, config, ck.curve, 5)
    loaded = cp.parse_checkpoint(cp.serialize_checkpoint(ck))
    assert loaded.config.lr == config.lr
    assert loaded.config.gamma == config.gamma
    assert loaded.config.eps_rob == config.eps_rob


# ---------------------------------------------------------------------------
# Atomic writes and run directories
# ---------------------------------------------------------------------------

def test_atomic_write_creates_parents_and_leaves_no_temps(tmp_path):
    target = tmp_path / "deep" / "nested" / "file.txt"
    cp.atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    assert [p.name for p in target.parent.iterdir()] == ["file.txt"]


def test_output_root_honors_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(cp.OUTPUT_ROOT_ENV, str(tmp_path / "elsewhere"))
    assert cp.output_root() == tmp_path / "elsewhere"
    monkeypatch.delenv(cp.OUTPUT_ROOT_ENV)
    assert cp.output_root() == cp.Path(cp.DEFAULT_OUTPUT_ROOT)


def test_run_directories_never_collide(tmp_path):
    a = cp.run_directory("probe", tmp_path)
    b = cp.run_directory("probe", tmp_path)
    c = cp.run_directory("probe", tmp_path)
    assert len({a, b, c}) == 3
    for d in (a, b, c):
        assert d.is_dir()
        assert "probe" in d.name


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def make_report():
    runs = [hz.RunRecord(episode_seed=s, score=0.9 - 0.1 * s,
                         mean_similarity=0.01 * s, episode_length=9 + s)
            for s in range(3)]
    return hz.ProbeReport(
        direction="blur[k=3]", direction_spec="median_blur",
        env_id="pixelgrid", checkpoint_id="ab" * 8,
        featurenet_version="featurenet_v1", runs=runs, seeds=[0, 1, 2],
        mean_score=0.8, sem_score=0.05, mean_similarity=0.01,
        sem_similarity=0.002, score_clean=0.9, score_min_fixed=-2.0,
        impact=0.0344827586206896)


def test_report_csv_schema_and_rows():
    text = cp.report_csv(make_report())
    lines = text.strip().split("\n")
    assert lines[0] == cp.REPORT_CSV_HEADER
    assert lines[0].startswith("schema=probe_runs_v1,")
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[2]) == 0.9


def test_report_text_is_self_contained_and_embeds_echo():
    text = cp.report_text(make_report(), config_echo='{\n  "seed": 3\n}')
    assert text.startswith("probe report v1\n")
    assert text.endswith("end report\n")
    assert "direction = blur[k=3]" in text
    assert "impact = " in text
    assert '  "seed": 3' in text  # indented echo
    bare = cp.report_text(make_report())
    assert "config_echo" not in bare


def test_summary_line_mentions_the_numbers():
    line = cp.summary_line(make_report())
    assert "blur[k=3]" in line and "pixelgrid" in line
    assert "+0.0345" in line


def test_curve_csv_round_trips_values():
    text = cp.curve_csv([(0, -1.0), (1, 0.123456789012345678)])
    lines = text.strip().split("\n")
    assert lines[0] == cp.CURVE_CSV_HEADER
    episode, ret = lines[2].split(",")
    assert episode == "1"
    assert float(ret) == 0.123456789012345678


def test_spectrum_csv_matches_band_rows():
    delta = spectral.BandDelta(np.array([1.0, 0.25]), np.array([1.5, 0.2]),
                               np.array([0.5, -0.05]), 0.0, 0.0, 8)
    lines = cp.spectrum_csv(delta).strip().split("\n")
    assert lines[0] == cp.SPECTRUM_CSV_HEADER
    assert lines[1] == "0,1,1.5,0.5"
    assert lines[2].startswith("1,0.25,")


def test_read_csv_returns_rows_and_refuses_other_headers(tmp_path):
    text = cp.report_csv(make_report())
    path = cp.atomic_write_text(tmp_path / "runs.csv", text)
    assert cp.read_csv(path, cp.REPORT_CSV_HEADER) == [
        line.split(",") for line in text.splitlines()[1:]]
    path.write_text(path.read_text().replace(",score,", ",return,", 1))
    with pytest.raises(cp.CheckpointFormatError, match="unexpected schema"):
        cp.read_csv(path, cp.REPORT_CSV_HEADER)


def test_file_stem_keeps_only_safe_characters():
    assert cp.file_stem("pt[3,seeded]") == "pt_3_seeded_"
    assert cp.file_stem("bc[0.6,-40]") == "bc_0.6_-40_"


def test_attack_csv_spells_infinity():
    rows = [(0, 2, 1, 0.125, True, 0.01), (1, 0, 0, math.inf, False, 0.0)]
    lines = cp.attack_csv(rows).strip().split("\n")
    assert lines[0] == cp.ATTACK_CSV_HEADER
    assert lines[1] == "0,2,1,0.125,1,0.01"
    assert lines[2] == "1,0,0,inf,0,0"


def test_pgm_text_format():
    img = np.array([[0, 128], [255, 7]], dtype=np.uint8)[:, :, None]
    text = cp.pgm_text(img)
    assert text == "P2\n2 2\n255\n0 128\n255 7\n"
    with pytest.raises(ValueError):
        cp.pgm_text(np.zeros((2, 2, 3), dtype=np.uint8))
