import numpy as np
import pytest

from uip.geometry import qangle, qconj, qmul, qnormalize
from uip.posenet import PoseNetConfig, Windows
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


def shape_transition(filt, means: np.ndarray, accels: np.ndarray) -> np.ndarray:
    """A body-shape filter's mean propagation as a plain function.

    filt holds one clip per row of means (N, 30); sets its means, predicts
    one step with the accelerations (N, 6, 3) and returns the new means.
    """
    filt.mean = np.array(means, dtype=float)
    filt.predict(np.asarray(accels, dtype=float))
    return filt.mean


def _window_draws(rng: np.random.Generator, frames: int) -> dict[str, np.ndarray]:
    """The fields of one plausible synthetic training window (valid mask, symmetric d)."""
    d0 = rng.uniform(0.3, 1.6, (frames, 6, 6))
    d = (d0 + d0.transpose(0, 2, 1)) / 2.0
    valid = rng.uniform(size=(frames, 6, 6)) < 0.9
    valid &= valid.transpose(0, 2, 1)
    for k in range(frames):
        np.fill_diagonal(d[k], 0.0)
        np.fill_diagonal(valid[k], False)
    return dict(
        r=rng.normal(0.0, 0.4, (frames, 6, 6)),
        a=rng.normal(0.0, 2.0, (frames, 6, 3)),
        d=d,
        valid=valid,
        positions=rng.normal(0.0, 0.4, (frames, 6, 3)),
        rotations=rng.normal(0.0, 0.5, (frames, 15, 6)),
        contacts=(rng.uniform(size=(frames, 2)) < 0.5).astype(float),
    )


def random_windows(seed: int, count: int, frames: int = 6) -> Windows:
    """count windows drawn one after another from one seeded stream, stacked."""
    rng = derive_rng(seed, "test", "windows")
    draws = [_window_draws(rng, frames) for _ in range(count)]
    return Windows(**{key: np.stack([w[key] for w in draws]) for key in draws[0]})
