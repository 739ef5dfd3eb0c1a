"""Run configuration: strict parsing, defaults, roundtrips."""
import json
import re

import pytest

from uip.config import (
    EkfSettings,
    ImuSettings,
    ModelSettings,
    MotionSettings,
    RunConfig,
    SkeletonSettings,
    UwbSettings,
    config_from_dict,
    load_config,
)
from uip.errors import ConfigError, ContractViolationError
from uip.posenet import PoseNetConfig, TrainSettings
from uip.rng import derive_rng


def test_defaults_are_complete_and_sane():
    cfg = RunConfig()
    assert cfg.seed == 7
    assert cfg.motions.catalog == ("walk", "arm-swing", "squat", "sit-stand")
    assert cfg.motions.rate_hz == 100.0
    assert cfg.uwb.sigma_los == 0.051
    assert cfg.uwb.sigma_nlos == 0.083
    assert cfg.model.lambda_distance == 0.01
    assert cfg.train.epochs == 50


def test_save_load_roundtrip(tmp_path):
    cfg = RunConfig(
        seed=12,
        motions=MotionSettings(catalog=("walk", "walk", "idle"), duration_s=4.0, rate_hz=50.0),
        uwb=UwbSettings(drop_prob=0.0),
    )
    path = tmp_path / "config.json"
    cfg.save(path)
    assert load_config(path) == cfg


def test_to_dict_is_json_ready():
    doc = RunConfig().to_dict()
    json.dumps(doc)
    assert isinstance(doc["motions"]["catalog"], list)


def test_model_and_train_sections_keep_their_key_order():
    # config.json bytes follow this order; the network record's fields
    # come first, then the windowing ones.
    doc = RunConfig().to_dict()
    assert list(doc) == ["seed", "motions", "skeleton", "imu", "uwb", "ekf", "model", "train"]
    assert list(doc["model"].items()) == [
        ("lstm_hidden", 128),
        ("lstm_layers", 2),
        ("gcn_width", 64),
        ("gcn_layers", 2),
        ("decoder_hidden", 64),
        ("accel_low", 2.0),
        ("accel_high", 8.0),
        ("lambda_distance", 0.01),
        ("window_frames", 48),
        ("window_stride", 24),
    ]
    assert list(doc["train"].items()) == [
        ("epochs", 50),
        ("batch_size", 16),
        ("learning_rate", 1e-3),
        ("lr_decay", 0.33),
        ("lr_decay_every", 20),
        ("val_fraction", 0.2),
    ]


def test_model_and_train_sections_are_the_posenet_records():
    cfg = RunConfig()
    assert isinstance(cfg.model, PoseNetConfig)
    assert type(cfg.train) is TrainSettings
    model = ModelSettings(lstm_hidden=8, accel_high=6.0, window_frames=12)
    net = model.network()
    assert type(net) is PoseNetConfig
    assert net == PoseNetConfig(lstm_hidden=8, accel_high=6.0)


def test_unknown_keys_are_named_with_their_path():
    with pytest.raises(ConfigError, match="imu.accel_sgma"):
        config_from_dict({"imu": {"accel_sgma": 0.1}})
    with pytest.raises(ConfigError, match="imux"):
        config_from_dict({"imux": {}})
    with pytest.raises(ConfigError, match="train.momentum"):
        config_from_dict({"train": {"momentum": 0.9}})
    with pytest.raises(ConfigError, match="ekf.speed_mode"):
        config_from_dict({"ekf": {"speed_mode": "predicted"}})
    # The EKF takes no speed pseudo-measurement, so it has no noise for one.
    with pytest.raises(ConfigError, match="ekf.speed_sigma"):
        config_from_dict({"ekf": {"speed_sigma": 0.5}})
    with pytest.raises(ConfigError, match="output_dir"):
        config_from_dict({"output_dir": "runs"})


def test_bad_json_and_missing_file(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(broken)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_non_object_sections_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"imu": [1, 2]})
    with pytest.raises(ConfigError):
        config_from_dict(["not", "an", "object"])


def test_seed_must_be_integer():
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": "7"})
    assert config_from_dict({"seed": 3}).seed == 3


def test_seed_must_fit_32_bits():
    # derive_rng keys on one 32-bit word: a wider seed would alias another.
    for seed in (-1, 2**32, 2**32 + 1):
        with pytest.raises(ConfigError, match=f"seed {seed} outside 0..4294967295"):
            config_from_dict({"seed": seed})
        with pytest.raises(ContractViolationError, match="outside"):
            derive_rng(seed, "x")
    assert config_from_dict({"seed": 2**32 - 1}).seed == 2**32 - 1
    assert config_from_dict({"seed": 0}).seed == 0


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"seed": True}, "seed"),
        ({"seed": 7.0}, "seed"),
        ({"motions": {"duration_s": float("nan")}}, "motions.duration_s"),
        ({"motions": {"rate_hz": 10**400}}, "motions.rate_hz"),
        ({"skeleton": {"height_m": "1.7"}}, "skeleton.height_m"),
        ({"imu": {"accel_sigma": float("nan")}}, "imu.accel_sigma"),
        ({"uwb": {"drop_prob": float("inf")}}, "uwb.drop_prob"),
        ({"ekf": {"range_sigma": True}}, "ekf.range_sigma"),
        ({"model": {"lstm_hidden": "16"}}, "model.lstm_hidden"),
        ({"model": {"window_frames": 24.5}}, "model.window_frames"),
        ({"model": {"accel_low": None}}, "model.accel_low"),
        ({"train": {"batch_size": 2.5}}, "train.batch_size"),
        ({"train": {"epochs": False}}, "train.epochs"),
        ({"train": {"learning_rate": float("-inf")}}, "train.learning_rate"),
    ],
)
def test_numbers_are_typed_and_finite_at_parse_time(doc, where):
    with pytest.raises(ConfigError, match=re.escape(where)):
        config_from_dict(doc)


def test_numbers_are_not_coerced():
    # An int in a float field stays an int, so config.json keeps its bytes.
    cfg = config_from_dict({"motions": {"duration_s": 2, "rate_hz": 50}})
    assert type(cfg.motions.duration_s) is int
    assert json.dumps(cfg.to_dict()["motions"]["rate_hz"]) == "50"


def test_motion_catalog_validation():
    with pytest.raises(ConfigError, match="moonwalk"):
        MotionSettings(catalog=("moonwalk",))
    with pytest.raises(ConfigError):
        MotionSettings(catalog=())
    with pytest.raises(ConfigError):
        MotionSettings(duration_s=0.0)
    # repeats are allowed: a catalog may sample one kind several times
    assert MotionSettings(catalog=("walk", "walk")).catalog == ("walk", "walk")


@pytest.mark.parametrize(
    "doc, frames",
    [
        ({"motions": {"duration_s": 0.03, "rate_hz": 50.0}}, 2),
        ({"motions": {"duration_s": 0.16, "rate_hz": 50.0}}, 8),
        ({"motions": {"duration_s": 0.08, "rate_hz": 100.0}}, 8),
        ({"motions": {"rate_hz": 5.0}, "imu": {"tpose_seconds": 1.0}}, 5),
        ({"motions": {"duration_s": 10.0, "rate_hz": 4.0}, "imu": {"tpose_seconds": 2.0}}, 8),
    ],
)
def test_segments_shorter_than_the_accel_stencil_are_refused(doc, frames):
    # synthesize_accel's stride-4 central difference needs 9 frames of
    # every clip and of the T-pose; fewer is a config error, not a crash
    # midway through `uip synth`.
    key = "imu.tpose_seconds" if "imu" in doc else "motions.duration_s"
    with pytest.raises(ConfigError, match=rf"{re.escape(key)} .* gives {frames} frames; IMU synthesis needs at least 9"):
        config_from_dict(doc)


def test_segments_of_exactly_the_accel_stencil_are_accepted():
    assert config_from_dict({"motions": {"duration_s": 0.18, "rate_hz": 50.0}}).motions.duration_s == 0.18
    cfg = config_from_dict({"motions": {"duration_s": 2.0, "rate_hz": 9.0}, "imu": {"tpose_seconds": 1.0}})
    assert round(cfg.imu.tpose_seconds * cfg.motions.rate_hz) == 9


def test_section_bounds():
    with pytest.raises(ConfigError):
        SkeletonSettings(height_m=0.9)
    with pytest.raises(ConfigError):
        ImuSettings(accel_sigma=-0.1)
    with pytest.raises(ConfigError):
        ImuSettings(filter_gain=1.5)
    with pytest.raises(ConfigError):
        ImuSettings(tpose_seconds=0.5)
    with pytest.raises(ConfigError):
        UwbSettings(drop_prob=1.0)
    with pytest.raises(ConfigError):
        EkfSettings(range_sigma=0.0)
    with pytest.raises(ConfigError):
        ModelSettings(window_stride=0)
    with pytest.raises(ConfigError, match="accel_low"):
        ModelSettings(accel_low=9.0)
    with pytest.raises(ConfigError, match="widths"):
        config_from_dict({"model": {"gcn_width": 0}})
    with pytest.raises(ConfigError, match="epochs"):
        config_from_dict({"train": {"epochs": 0}})
