"""Mini-batch training for the pose network.

Windows of equal length are shuffled per epoch, run through the tape
forward pass in batches, and the parameters updated with Adam under a
step-decayed learning rate. Everything is seeded: the validation split,
the epoch shuffles, and (when no starting parameters are given) the
initialization, so a rerun with the same inputs reproduces the same
checkpoint bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..autodiff import Tape
from ..errors import ConfigError, ContractViolationError, DataError, DivergenceError
from ..rng import derive_rng
from ..skeleton import N_SENSORS
from .loss import contact_term, position_terms, rotation_term, total_loss
from .model import Forward
from .params import PoseNetConfig, PoseNetParams, init_params


@dataclass(frozen=True)
class TrainingWindow:
    """One fixed-length training example.

    r: sensor orientations (T, 6, 6); a: world accelerations (T, 6, 3);
    d, valid: measured distances and mask (T, 6, 6); positions: target
    sensor positions in the pelvis-sensor frame (T, 6, 3); rotations:
    target joint rotations (T, 15, 6); contacts: foot contact labels
    (T, 2) with values 0 or 1.
    """

    r: np.ndarray
    a: np.ndarray
    d: np.ndarray
    valid: np.ndarray
    positions: np.ndarray
    rotations: np.ndarray
    contacts: np.ndarray

    def __post_init__(self):
        arrays = {
            "r": (np.asarray(self.r, dtype=float), (N_SENSORS, 6)),
            "a": (np.asarray(self.a, dtype=float), (N_SENSORS, 3)),
            "d": (np.asarray(self.d, dtype=float), (N_SENSORS, N_SENSORS)),
            "positions": (np.asarray(self.positions, dtype=float), (N_SENSORS, 3)),
            "rotations": (np.asarray(self.rotations, dtype=float), (15, 6)),
            "contacts": (np.asarray(self.contacts, dtype=float), (2,)),
        }
        t = arrays["r"][0].shape[0] if arrays["r"][0].ndim > 0 else 0
        if t < 1:
            raise DataError("training window must have at least one frame")
        for name, (arr, tail) in arrays.items():
            if arr.shape != (t,) + tail:
                raise DataError(
                    f"window field {name} has shape {arr.shape}, "
                    f"expected {(t,) + tail}"
                )
            if not np.all(np.isfinite(arr)):
                raise DataError(f"window field {name} has non-finite values")
            object.__setattr__(self, name, arr)
        valid = np.asarray(self.valid, dtype=bool)
        if valid.shape != (t, N_SENSORS, N_SENSORS):
            raise DataError(f"window field valid has shape {valid.shape}")
        object.__setattr__(self, "valid", valid)
        if not np.all(np.isin(arrays["contacts"][0], (0.0, 1.0))):
            raise DataError("contact labels must be 0 or 1")

    @property
    def frames(self) -> int:
        return self.r.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; architecture lives in PoseNetConfig."""

    epochs: int = 50
    batch_size: int = 16
    learning_rate: float = 1e-3
    lr_decay: float = 0.33
    lr_decay_every: int = 20
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.lr_decay_every < 1:
            raise ConfigError("epochs, batch_size, lr_decay_every must be >= 1")
        if not 0.0 < self.learning_rate:
            raise ConfigError(f"bad learning rate {self.learning_rate}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"bad lr decay {self.lr_decay}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"bad validation fraction {self.val_fraction}")


def learning_rate_at(config: TrainConfig, epoch: int) -> float:
    """Step-decayed rate for a 1-indexed epoch."""
    steps = (epoch - 1) // config.lr_decay_every
    return config.learning_rate * config.lr_decay**steps


class _Adam:
    """Adam with bias correction, state keyed like the parameter dict."""

    def __init__(self, tensors: dict[str, np.ndarray], beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.steps = 0
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float):
        self.steps += 1
        c1 = 1.0 - self.beta1**self.steps
        c2 = 1.0 - self.beta2**self.steps
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            tensors[name] -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def _stacked(windows: list[TrainingWindow]) -> dict[str, np.ndarray]:
    n = len(windows) * windows[0].frames

    def flat(field: str) -> np.ndarray:
        arr = np.stack([getattr(w, field) for w in windows])
        return arr.reshape((n,) + arr.shape[2:])

    return {
        "r": np.stack([w.r for w in windows]),
        "a": np.stack([w.a for w in windows]),
        "d": flat("d"),
        "valid": flat("valid"),
        "positions": flat("positions"),
        "rotations": flat("rotations"),
        "contacts": flat("contacts"),
    }


def batch_loss(
    params: PoseNetParams,
    windows: list[TrainingWindow],
    with_grads: bool = True,
) -> tuple[float, dict[str, float], dict[str, np.ndarray]]:
    """Mean loss over a batch of equal-length windows.

    Returns the total, the per-group breakdown (position, rotation,
    contact), and the parameter gradients (empty when with_grads is off).
    """
    if not windows:
        raise ContractViolationError("empty batch")
    frames = windows[0].frames
    if any(w.frames != frames for w in windows):
        raise ContractViolationError("batch windows must share one length")
    data = _stacked(windows)
    tape = Tape(grads=with_grads)
    fwd = Forward(tape, params)
    out = fwd.run(data["r"], data["a"], data["d"], data["valid"])
    pos = position_terms(
        tape, out["p"], data["positions"], data["d"], data["valid"],
        params.config.lambda_distance,
    )
    rot = rotation_term(tape, out["rotations"], data["rotations"])
    con = contact_term(tape, out["contacts"], data["contacts"])
    root = total_loss(tape, pos + [rot, con])

    value = float(root.value)
    breakdown = {
        "position": float(sum(float(term.value) for term in pos)),
        "rotation": float(rot.value),
        "contact": float(con.value),
    }
    grads: dict[str, np.ndarray] = {}
    if with_grads:
        grads = dict(zip(fwd.params, tape.gradient(root, fwd.params.values())))
    return value, breakdown, grads


def _split(n_windows: int, config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    perm = derive_rng(config.seed, "train", "split").permutation(n_windows)
    n_val = int(round(config.val_fraction * n_windows))
    n_val = min(n_val, n_windows - 1)
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def _diverged(epoch: int, batch: np.ndarray, value: float, params: PoseNetParams) -> DivergenceError:
    worst = sorted(params.norms().items(), key=lambda kv: -kv[1])[:3]
    detail = ", ".join(f"{k}={v:.3g}" for k, v in worst)
    return DivergenceError(
        f"non-finite loss {value!r} at epoch {epoch}, "
        f"batch windows {batch.tolist()}; largest parameter norms: {detail}"
    )


def train(
    dataset: list[TrainingWindow],
    config: PoseNetConfig,
    train_config: TrainConfig | None = None,
    params: PoseNetParams | None = None,
) -> tuple[PoseNetParams, list[dict]]:
    """Fit the network; returns the trained parameters and an epoch log.

    Starts from `params` when given (copied, never mutated), else from a
    seeded initialization. The log holds one record per epoch with the
    learning rate, mean training loss, loss breakdown, and validation
    loss (None when the split leaves no validation windows).
    """
    tc = train_config or TrainConfig()
    if not dataset:
        raise DataError("empty training dataset")
    frames = dataset[0].frames
    if any(w.frames != frames for w in dataset):
        raise DataError("all training windows must share one length")
    fitted = params.copy() if params is not None else init_params(config, tc.seed)
    if params is not None and params.config != config:
        raise ConfigError("starting parameters built for a different architecture")

    train_idx, val_idx = _split(len(dataset), tc)
    adam = _Adam(fitted.tensors)
    log: list[dict] = []
    for epoch in range(1, tc.epochs + 1):
        lr = learning_rate_at(tc, epoch)
        order = derive_rng(tc.seed, "train", "epoch", epoch).permutation(train_idx)
        seen = 0
        running = {"total": 0.0, "position": 0.0, "rotation": 0.0, "contact": 0.0}
        for start in range(0, len(order), tc.batch_size):
            batch = order[start : start + tc.batch_size]
            value, parts, grads = batch_loss(fitted, [dataset[i] for i in batch])
            if not math.isfinite(value):
                raise _diverged(epoch, batch, value, fitted)
            adam.step(fitted.tensors, grads, lr)
            seen += len(batch)
            running["total"] += value * len(batch)
            for key in ("position", "rotation", "contact"):
                running[key] += parts[key] * len(batch)
        record = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": running["total"] / seen,
            "position_loss": running["position"] / seen,
            "rotation_loss": running["rotation"] / seen,
            "contact_loss": running["contact"] / seen,
            "val_loss": None,
        }
        if len(val_idx):
            total = 0.0
            for start in range(0, len(val_idx), tc.batch_size):
                batch = val_idx[start : start + tc.batch_size]
                value, _, _ = batch_loss(
                    fitted, [dataset[i] for i in batch], with_grads=False
                )
                total += value * len(batch)
            record["val_loss"] = total / len(val_idx)
        log.append(record)
    return fitted, log
