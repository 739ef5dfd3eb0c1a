"""Run configuration: one JSON document drives the whole pipeline.

Every command reads the same RunConfig shape and uses the sections it
needs. The `model` and `train` sections are the records `uip.posenet`
trains with. Parsing is strict: an unknown key anywhere, a number of the
wrong type or a non-finite one raises ConfigError naming the offending
key, so typos never silently fall back to defaults.
The recorded config never contains machine-specific paths, which keeps
output directories byte-reproducible across runs.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .imu import ACCEL_STRIDE
from .motions import validate_kind
from .posenet import PoseNetConfig, TrainSettings
from .rng import SEED_MAX


def _check_segment(where: str, seconds: float, rate_hz: float) -> None:
    """A synthesized segment needs the samples the accelerometer's central difference spans."""
    frames, least = round(seconds * rate_hz), 2 * ACCEL_STRIDE + 1
    if frames < least:
        raise ConfigError(
            f"{where} {seconds:g} s at motions.rate_hz {rate_hz:g} gives {frames} frames; "
            f"IMU synthesis needs at least {least}"
        )


@dataclass(frozen=True)
class MotionSettings:
    """What to synthesize: catalog entries may repeat kinds."""

    catalog: tuple[str, ...] = ("walk", "arm-swing", "squat", "sit-stand")
    duration_s: float = 10.0
    rate_hz: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "catalog", tuple(self.catalog))
        if not self.catalog:
            raise ConfigError("motion catalog is empty")
        for kind in self.catalog:
            validate_kind(kind)
        if self.duration_s <= 0.0 or self.rate_hz <= 0.0:
            raise ConfigError("duration_s and rate_hz must be positive")
        _check_segment("motions.duration_s", self.duration_s, self.rate_hz)


@dataclass(frozen=True)
class SkeletonSettings:
    height_m: float = 1.70

    def __post_init__(self):
        if not 1.0 <= self.height_m <= 2.5:
            raise ConfigError(f"body height {self.height_m} m outside 1.0..2.5")


@dataclass(frozen=True)
class ImuSettings:
    """Sensor noise plus the orientation-filter settings."""

    accel_sigma: float = 0.08
    gyro_sigma: float = 0.006
    accel_bias_sigma: float = 0.02
    gyro_bias_sigma: float = 0.001
    filter_gain: float = 5e-6
    tpose_seconds: float = 2.0

    def __post_init__(self):
        for name in ("accel_sigma", "gyro_sigma", "accel_bias_sigma", "gyro_bias_sigma"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"imu.{name} must be non-negative")
        if not 0.0 <= self.filter_gain <= 1.0:
            raise ConfigError("imu.filter_gain outside [0, 1]")
        if self.tpose_seconds < 1.0:
            raise ConfigError("imu.tpose_seconds must be at least 1 s")


@dataclass(frozen=True)
class UwbSettings:
    """Ranging noise, clock imperfections, and packet loss."""

    sigma_los: float = 0.051
    sigma_nlos: float = 0.083
    skew_ppm_sigma: float = 0.01
    offset_sigma: float = 1.0
    drop_prob: float = 0.05

    def __post_init__(self):
        for name in ("sigma_los", "sigma_nlos", "skew_ppm_sigma", "offset_sigma"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"uwb.{name} must be non-negative")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ConfigError("uwb.drop_prob outside [0, 1)")


@dataclass(frozen=True)
class EkfSettings:
    """Body-shape filter tuning: accelerometer noise per axis, range noise."""

    accel_noise: float = 0.3
    range_sigma: float = 0.06

    def __post_init__(self):
        if self.accel_noise <= 0.0 or self.range_sigma <= 0.0:
            raise ConfigError("ekf noise parameters must be positive")


@dataclass(frozen=True)
class ModelSettings(PoseNetConfig):
    """Network architecture plus how streams become training windows."""

    window_frames: int = 48
    window_stride: int = 24

    def __post_init__(self):
        super().__post_init__()
        if self.window_frames < 1 or self.window_stride < 1:
            raise ConfigError("window_frames and window_stride must be >= 1")

    def network(self) -> PoseNetConfig:
        """The architecture alone, as the checkpoint records it."""
        names = [f.name for f in dataclasses.fields(PoseNetConfig)]
        return PoseNetConfig(**{name: getattr(self, name) for name in names})


@dataclass(frozen=True)
class RunConfig:
    seed: int = 7
    motions: MotionSettings = field(default_factory=MotionSettings)
    skeleton: SkeletonSettings = field(default_factory=SkeletonSettings)
    imu: ImuSettings = field(default_factory=ImuSettings)
    uwb: UwbSettings = field(default_factory=UwbSettings)
    ekf: EkfSettings = field(default_factory=EkfSettings)
    model: ModelSettings = field(default_factory=ModelSettings)
    train: TrainSettings = field(default_factory=TrainSettings)

    def __post_init__(self):
        if not 0 <= self.seed <= SEED_MAX:
            raise ConfigError(f"seed {self.seed} outside 0..{SEED_MAX}")
        _check_segment("imu.tpose_seconds", self.imu.tpose_seconds, self.motions.rate_hz)

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["motions"]["catalog"] = list(self.motions.catalog)
        return doc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def _check_number(where: str, kind: type, value) -> None:
    """An int field takes an int; a float field a finite int or float.

    bool is an int subclass but no number here. Values are not coerced,
    so the recorded config keeps the bytes it was given.
    """
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ConfigError(f"{where} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, an infinity, or an int past float range
        raise ConfigError(f"{where} must be finite, got {value!r}")


def _build(cls, data: dict, path: str):
    """Strict parse of one record: known keys, typed numbers, nested sections."""
    if not isinstance(data, dict):
        raise ConfigError(f"config section {path or 'root'} must be an object")
    kinds = typing.get_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in known:
            raise ConfigError(f"unknown config key {where!r}")
        kind = kinds[key]
        if dataclasses.is_dataclass(kind):
            value = _build(kind, value, where)
        elif kind in (int, float):
            _check_number(where, kind, value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad config section {path or 'root'}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    """Strict parse of a full RunConfig document."""
    return _build(RunConfig, data, "")


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
