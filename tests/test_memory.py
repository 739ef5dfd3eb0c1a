"""Peak memory of the shipped network, measured with tracemalloc.

tracemalloc counts the bytes that Python and numpy allocate, so these
bounds do not depend on host load the way wall time and RSS do.
"""
import tracemalloc

from conftest import random_windows
from uip.posenet import PoseNetConfig, batch_loss, infer, init_params

MB = 1 << 20


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def test_default_net_training_batch_peak_memory():
    # Two 48-frame windows with gradients on the default network.
    params = init_params(PoseNetConfig(), 1)
    windows = random_windows(31, 2, frames=48)
    assert _peak_mb(lambda: batch_loss(params, windows)) < 64.0


def test_default_net_inference_peak_memory():
    # One 10 s clip at 100 Hz runs as a single sequence.
    params = init_params(PoseNetConfig(), 2)
    w = random_windows(32, 1, frames=1000)[0]
    assert _peak_mb(lambda: infer(params, w.r, w.a, w.d, w.valid)) < 64.0
