"""Run configuration: strict parsing, defaults, roundtrips."""
import json

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
from uip.errors import ConfigError


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


def test_unknown_keys_are_named_with_their_path():
    with pytest.raises(ConfigError, match="imu.accel_sgma"):
        config_from_dict({"imu": {"accel_sgma": 0.1}})
    with pytest.raises(ConfigError, match="imux"):
        config_from_dict({"imux": {}})
    with pytest.raises(ConfigError, match="train.momentum"):
        config_from_dict({"train": {"momentum": 0.9}})
    with pytest.raises(ConfigError, match="ekf.speed_mode"):
        config_from_dict({"ekf": {"speed_mode": "predicted"}})
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


def test_motion_catalog_validation():
    with pytest.raises(ConfigError, match="moonwalk"):
        MotionSettings(catalog=("moonwalk",))
    with pytest.raises(ConfigError):
        MotionSettings(catalog=())
    with pytest.raises(ConfigError):
        MotionSettings(duration_s=0.0)
    # repeats are allowed: a catalog may sample one kind several times
    assert MotionSettings(catalog=("walk", "walk")).catalog == ("walk", "walk")


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
