"""Parameter container, seeded initialization, and checkpoint files.

All learnable tensors live in one name -> float64 ndarray mapping so the
training loop, the checkpoint format, and gradient bookkeeping agree on a
single flat namespace. A checkpoint is two files: a JSON header
(`checkpoint.json`: the format version and the architecture) and beside it
a .npy body (`checkpoint.npy`) holding one record with a float64 field per
tensor, in `_tensor_shapes` order, written and read by the storage record
codec, so a load restores every value bitwise without parsing one number
at a time.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..errors import CheckpointVersionError, ConfigError, DataError
from ..rng import derive_rng
from ..skeleton import N_SENSORS
from ..storage import read_records, record_dtype, write_records

CHECKPOINT_VERSION = 3

# Input feature widths, fixed by the sensor layout.
# Temporal branch, per frame: 6D orientations, world accelerations, then
# the masked normalized distance matrix.
LSTM_INPUT = N_SENSORS * (6 + 3) + N_SENSORS * N_SENSORS
# Decoder, per frame: fused sensor positions + 6D orientations, no raw accel
# or distances.
DECODER_INPUT = N_SENSORS * 3 + N_SENSORS * 6
ROTATION_OUTPUT = 15 * 6  # 15 joints, 6D rotation each
CONTACT_OUTPUT = 2


@dataclass(frozen=True)
class PoseNetConfig:
    """Architecture and fusion hyperparameters."""

    lstm_hidden: int = 128
    lstm_layers: int = 2
    gcn_width: int = 64
    gcn_layers: int = 2
    decoder_hidden: int = 64
    accel_low: float = 2.0  # m/s^2, at or below: trust the spatial branch
    accel_high: float = 8.0  # m/s^2, at or above: trust the temporal branch
    lambda_distance: float = 0.01  # weight of the L1 distance term

    def __post_init__(self):
        if self.lstm_hidden < 1 or self.gcn_width < 1 or self.decoder_hidden < 1:
            raise ConfigError("layer widths must be positive")
        if self.lstm_layers < 1 or self.gcn_layers < 1:
            raise ConfigError("layer counts must be positive")
        if not 0.0 <= self.accel_low < self.accel_high:
            raise ConfigError("need 0 <= accel_low < accel_high")
        if self.lambda_distance < 0.0:
            raise ConfigError("lambda_distance must be non-negative")


def _tensor_shapes(cfg: PoseNetConfig) -> dict[str, tuple[int, ...]]:
    h = cfg.lstm_hidden
    f = cfg.gcn_width
    d = cfg.decoder_hidden
    s = N_SENSORS
    shapes: dict[str, tuple[int, ...]] = {}
    for layer in range(cfg.lstm_layers):
        in_dim = LSTM_INPUT if layer == 0 else h
        shapes[f"lstm{layer}_wx"] = (4 * h, in_dim)
        shapes[f"lstm{layer}_wh"] = (4 * h, h)
        shapes[f"lstm{layer}_b"] = (4 * h,)
    shapes["pt_w"] = (s * 3, h)
    shapes["pt_b"] = (s * 3,)
    shapes["emb_w"] = (f, 6)
    shapes["emb_b"] = (f,)
    for layer in range(cfg.gcn_layers):
        shapes[f"gcn{layer}_adj"] = (s, s)
        shapes[f"gcn{layer}_bias"] = (s, s)
        shapes[f"gcn{layer}_w"] = (f, f)
        shapes[f"gcn{layer}_mod"] = (f, s)
        shapes[f"gcn{layer}_scale"] = (f,)
        shapes[f"gcn{layer}_shift"] = (f,)
    shapes["ps_w"] = (3, f)
    shapes["ps_b"] = (3,)
    shapes["dec_w"] = (d, DECODER_INPUT)
    shapes["dec_b"] = (d,)
    shapes["rot_w"] = (ROTATION_OUTPUT, d)
    shapes["rot_b"] = (ROTATION_OUTPUT,)
    shapes["con_w"] = (CONTACT_OUTPUT, d)
    shapes["con_b"] = (CONTACT_OUTPUT,)
    return shapes


class PoseNetParams:
    """Named parameter tensors plus the architecture they belong to."""

    def __init__(self, config: PoseNetConfig, tensors: dict[str, np.ndarray]):
        expected = _tensor_shapes(config)
        if set(tensors) != set(expected):
            missing = sorted(set(expected) - set(tensors))
            extra = sorted(set(tensors) - set(expected))
            raise DataError(f"parameter names mismatch: missing {missing}, extra {extra}")
        for name, arr in tensors.items():
            if arr.shape != expected[name]:
                raise DataError(
                    f"tensor {name}: shape {arr.shape}, expected {expected[name]}"
                )
            if not np.all(np.isfinite(arr)):
                raise DataError(f"tensor {name} contains non-finite values")
        self.config = config
        self.tensors = {k: np.asarray(v, dtype=float) for k, v in tensors.items()}

    def copy(self) -> "PoseNetParams":
        return PoseNetParams(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def norms(self) -> dict[str, float]:
        """Per-tensor L2 norms, mainly for divergence diagnostics."""
        return {k: float(np.linalg.norm(v)) for k, v in self.tensors.items()}

    def save(self, path: str | Path) -> None:
        """Write the header to path and the tensors to checkpoint_body(path)."""
        doc = {"format_version": CHECKPOINT_VERSION, "kind": "posenet-params", "config": asdict(self.config)}
        Path(path).write_text(json.dumps(doc))
        rec = np.zeros((), record_dtype(_tensor_shapes(self.config)))
        for name, arr in self.tensors.items():
            rec[name] = arr
        write_records(checkpoint_body(path), rec)

    @staticmethod
    def load(path: str | Path) -> "PoseNetParams":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("kind") != "posenet-params":
            raise DataError(f"{path} is not a parameter checkpoint")
        version = doc.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"{path}: checkpoint format {version!r}, this build reads {CHECKPOINT_VERSION}"
            )
        if not isinstance(doc.get("config"), dict):
            raise DataError(f"{path}: 'config' must be an object")
        try:
            config = PoseNetConfig(**doc["config"])
        except (TypeError, ConfigError) as exc:
            raise DataError(f"bad config block in {path}: {exc}") from exc
        return PoseNetParams(config, read_records(checkpoint_body(path), _tensor_shapes(config), ndim=0))


def checkpoint_body(path: str | Path) -> Path:
    """The .npy body beside a checkpoint header: checkpoint.json -> checkpoint.npy."""
    return Path(path).with_suffix(".npy")


def init_params(config: PoseNetConfig, seed: int) -> PoseNetParams:
    """Seeded initialization; identical seeds give identical tensors.

    Weights are Gaussian with 1/sqrt(fan-in) scale. Forget-gate biases
    start at 1 so early gradients flow through time; the graph-layer
    entries start near the all-ones/zero configuration where the learned
    correlation matrix is close to the distance matrix itself.
    """
    shapes = _tensor_shapes(config)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        rng = derive_rng(seed, "posenet", name)
        if name.endswith("_b") or name.endswith("_shift"):
            arr = np.zeros(shape)
            if "lstm" in name:  # rows [input, forget, cell, output]
                h = config.lstm_hidden
                arr[h : 2 * h] = 1.0
        elif name.endswith("_scale"):
            arr = np.ones(shape)
        elif name.endswith("_adj") or name.endswith("_mod"):
            arr = 1.0 + 0.05 * rng.standard_normal(shape)
        elif name.endswith("_bias"):
            arr = 0.05 * rng.standard_normal(shape)
        else:
            fan_in = shape[-1]
            arr = rng.standard_normal(shape) / math.sqrt(fan_in)
        tensors[name] = arr
    return PoseNetParams(config, tensors)

