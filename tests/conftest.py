import numpy as np
import pytest

from uip.geometry import qangle, qconj, qmul, qnormalize
from uip.posenet import PoseNetConfig, TrainingWindow
from uip.rng import derive_rng
from uip.skeleton import MotionClip, default_placement, default_skeleton
from uip.uwb import N_NODES, NodeClock

TINY_NET = PoseNetConfig(
    lstm_hidden=4, lstm_layers=1, gcn_width=4, gcn_layers=1, decoder_hidden=4
)


@pytest.fixture(scope="session")
def skel():
    return default_skeleton()


@pytest.fixture(scope="session")
def placement(skel):
    return default_placement(skel)


def ideal_clocks() -> tuple[NodeClock, ...]:
    """Six perfect clocks: no skew, offset or antenna delay."""
    return tuple(NodeClock() for _ in range(N_NODES))


def check_continuity(clip: MotionClip, max_step_deg: float = 20.0) -> None:
    """Fail if any joint of the clip rotates more than max_step_deg between frames."""
    q = np.asarray(clip.local_rot, dtype=float)
    step = qangle(qnormalize(qmul(qconj(q[:-1]), q[1:])))
    jumps = np.argwhere(step > np.deg2rad(max_step_deg))
    if jumps.size:
        t, j = jumps[0]
        raise AssertionError(f"clip {clip.name}: joint {j} jumps {np.rad2deg(step[t, j]):.1f} deg at frame {t + 1}")


def pair_transition(bank, x6: np.ndarray, a6: np.ndarray) -> np.ndarray:
    """A one-clip bank's mean propagation for pair (0, 1) as a plain function.

    Sets the pair's (x, v) to x6, predicts one step with sensors 0 and 1
    accelerating by a6[:3] and a6[3:] and the others at rest, and returns
    the pair's new (x, v).
    """
    bank.x[0, 0], bank.v[0, 0] = x6[:3], x6[3:]
    accel = np.zeros((1, 6, 3))
    accel[0, 0], accel[0, 1] = a6[:3], a6[3:]
    bank.predict_all(accel)
    return np.concatenate([bank.x[0, 0], bank.v[0, 0]])


def random_window(rng: np.random.Generator, frames: int = 6) -> TrainingWindow:
    """A plausible synthetic training window (valid mask, symmetric d)."""
    d0 = rng.uniform(0.3, 1.6, (frames, 6, 6))
    d = (d0 + d0.transpose(0, 2, 1)) / 2.0
    valid = rng.uniform(size=(frames, 6, 6)) < 0.9
    valid &= valid.transpose(0, 2, 1)
    for k in range(frames):
        np.fill_diagonal(d[k], 0.0)
        np.fill_diagonal(valid[k], False)
    return TrainingWindow(
        r=rng.normal(0.0, 0.4, (frames, 6, 6)),
        a=rng.normal(0.0, 2.0, (frames, 6, 3)),
        d=d,
        valid=valid,
        positions=rng.normal(0.0, 0.4, (frames, 6, 3)),
        rotations=rng.normal(0.0, 0.5, (frames, 15, 6)),
        contacts=(rng.uniform(size=(frames, 2)) < 0.5).astype(float),
    )


def random_windows(seed: int, count: int, frames: int = 6) -> list[TrainingWindow]:
    rng = derive_rng(seed, "test", "windows")
    return [random_window(rng, frames) for _ in range(count)]
