"""The benchmark's workloads: `uip` run configs made from a seed.

Each workload synthesizes one or two datasets, filters each, trains on the
first, and evaluates on the last. Only the seeds depend on `--seed`; the
shapes below are what the workload is about.
"""
from __future__ import annotations

from dataclasses import dataclass

TRAIN_KINDS = ["walk", "arm-swing", "squat", "sit-stand"]
SLOW_KINDS = ["idle", "arm-swing-slow", "sit-stand-slow"]

# The acceptance test's small network (tests/test_acceptance.py SUITE_MODEL).
SMALL_NET = {
    "lstm_hidden": 16, "lstm_layers": 1, "gcn_width": 12, "gcn_layers": 1,
    "decoder_hidden": 16, "window_frames": 24, "window_stride": 12,
}
# The shipped architecture: uip.config.ModelSettings defaults.
FULL_NET: dict = {}

# Offset between the training and the held-out dataset seed.
HELD_OUT_SEED = 100_000
# --seed draws the motions and the sensor noise; the network's initial
# weights and batch order come from this fixed seed, so the quality
# metrics move with the data and with the program, not with a lucky draw
# of initial weights for a network trained a few epochs.
TRAIN_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    # dataset name -> config document; the first is trained on, with its
    # own config, and the last is evaluated on (the same one when there is
    # only one).
    datasets: dict[str, dict]

    @property
    def train_set(self) -> str:
        return next(iter(self.datasets))

    @property
    def eval_set(self) -> str:
        return list(self.datasets)[-1]

    def frames(self, dataset: str) -> int:
        m = self.datasets[dataset]["motions"]
        return len(m["catalog"]) * int(round(m["duration_s"] * m["rate_hz"]))

    def train_config(self) -> dict:
        return {**self.datasets[self.train_set], "seed": TRAIN_SEED}

    def windows(self) -> int:
        """Training windows per epoch, as uip cuts them from the train set."""
        m = self.datasets[self.train_set]["motions"]
        model = {"window_frames": 48, "window_stride": 24, **self.datasets[self.train_set]["model"]}
        frames = int(round(m["duration_s"] * m["rate_hz"]))
        per_clip = max(0, (frames - model["window_frames"]) // model["window_stride"] + 1)
        return per_clip * len(m["catalog"])


def _config(seed: int, catalog, duration_s: float, rate_hz: float, model: dict, train: dict) -> dict:
    return {
        "seed": seed,
        "motions": {"catalog": list(catalog), "duration_s": duration_s, "rate_hz": rate_hz},
        "uwb": {"drop_prob": 0.05},
        "model": dict(model),
        "train": dict(train),
    }


def mixed_50hz(seed: int) -> Workload:
    train = {"epochs": 2, "batch_size": 8, "val_fraction": 0.0}
    return Workload(
        name="mixed-50hz",
        datasets={
            "train": _config(seed, TRAIN_KINDS, 2.5, 50.0, SMALL_NET, train),
            "held_out": _config(seed + HELD_OUT_SEED, SLOW_KINDS, 2.5, 50.0, SMALL_NET, train),
        },
    )


def dense_100hz(seed: int) -> Workload:
    net = {**SMALL_NET, "window_frames": 48, "window_stride": 24}
    train = {"epochs": 1, "batch_size": 8, "val_fraction": 0.0}
    cfg = _config(seed, TRAIN_KINDS, 3.0, 100.0, net, train)
    return Workload(
        name="dense-100hz",
        datasets={"data": cfg},
    )


def full_net(seed: int) -> Workload:
    train = {"epochs": 2, "batch_size": 1, "val_fraction": 0.0}
    cfg = _config(seed, ["walk", "squat"], 1.0, 50.0, FULL_NET, train)
    return Workload(
        name="full-net",
        datasets={"data": cfg},
    )


WORKLOADS = {w(0).name: w for w in (mixed_50hz, dense_100hz, full_net)}
