"""Peak memory of the shipped network, measured with tracemalloc.

tracemalloc counts the bytes that Python and numpy allocate, so these
bounds do not depend on host load the way wall time and RSS do.
"""
import tracemalloc

from conftest import random_windows
from uip.posenet import PoseNetConfig, PoseNetParams, batch_loss, checkpoint_body, infer, init_params

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
    w = random_windows(32, 1, frames=1000)
    assert _peak_mb(lambda: infer(params, w.r[0], w.a[0], w.d[0], w.valid[0])) < 64.0


def test_default_net_checkpoint_peak_memory(tmp_path):
    # 250k float64 values are 2 MB; neither direction may build them as text numbers.
    params = init_params(PoseNetConfig(), 3)
    path = tmp_path / "checkpoint.json"
    assert _peak_mb(lambda: params.save(path)) < 10.0
    assert _peak_mb(lambda: PoseNetParams.load(path)) < 10.0
    # On disk, the header and the body add at most 4 KiB to the values' raw bytes.
    values = sum(t.size for t in params.tensors.values())
    assert values == 265_537
    assert path.stat().st_size + checkpoint_body(path).stat().st_size <= 8 * values + 4096
