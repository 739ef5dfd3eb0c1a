"""Two-way ranging protocol, clock model, and range calibration."""
import math

import numpy as np
import pytest

from conftest import ideal_clocks
from uip.errors import CalibrationError, ContractViolationError
from uip.rng import derive_rng
from uip.uwb import (
    N_NODES,
    SLOT_S,
    SPEED_OF_LIGHT,
    CalibrationResult,
    NodeClock,
    apply_calibration,
    occlusion_noise_sigma,
    ransac_affine_calibrate,
    resolve_tof,
    round_times,
    sample_clocks,
    simulate_stream,
)

PAIRS = [(i, j) for i in range(N_NODES) for j in range(i + 1, N_NODES)]


def body_positions(rng=None) -> np.ndarray:
    pos = np.array(
        [
            [0.0, 0.0, 1.0],
            [0.1, 0.6, 0.9],
            [0.1, -0.6, 0.9],
            [0.05, 0.1, 0.5],
            [0.05, -0.1, 0.5],
            [0.0, 0.0, 1.6],
        ]
    )
    if rng is not None:
        pos = pos + rng.normal(0.0, 0.05, pos.shape)
    return pos


def truth_matrix(pos: np.ndarray) -> np.ndarray:
    return np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)


def scalar_round(positions, clocks, rng=None, *, t_start=0.0, drop_prob=0.0, sigma=None):
    """Reference round, one message at a time: node s sends at t_start +
    s * SLOT_S, receiver r stamps it through its own clock, and a pair i < j
    resolves from the four stamps of its two messages."""

    def local(c, t):
        return (1.0 + c.skew_ppm * 1e-6) * t + c.offset

    tx_time = [t_start + s * SLOT_S for s in range(N_NODES)]
    send_ts = [local(clocks[s], tx_time[s]) for s in range(N_NODES)]
    recv_ts = np.full((N_NODES, N_NODES), np.nan)
    for s in range(N_NODES):
        emit = tx_time[s] + clocks[s].antenna_delay
        for r in range(N_NODES):
            if r == s:
                continue
            if rng is not None and drop_prob > 0.0 and rng.random() < drop_prob:
                continue
            dist = float(np.linalg.norm(positions[r] - positions[s]))
            stamp = local(clocks[r], emit + dist / SPEED_OF_LIGHT + clocks[r].antenna_delay)
            if sigma is not None:
                sigma_m = sigma[min(r, s), max(r, s)]
                if sigma_m > 0.0:
                    if rng is None:
                        raise ContractViolationError("noise requested without an rng")
                    stamp += rng.normal(0.0, sigma_m * math.sqrt(2.0) / SPEED_OF_LIGHT)
            recv_ts[r, s] = stamp
    distances = np.zeros((N_NODES, N_NODES))
    valid = np.zeros((N_NODES, N_NODES), dtype=bool)
    for i, j in PAIRS:
        if math.isnan(recv_ts[j, i]) or math.isnan(recv_ts[i, j]):
            continue
        tof = resolve_tof(send_ts[i], recv_ts[i, j], recv_ts[j, i], send_ts[j])
        distances[i, j] = distances[j, i] = tof * SPEED_OF_LIGHT
        valid[i, j] = valid[j, i] = True
    return distances, valid


def random_sigma(rng) -> np.ndarray:
    """Symmetric mixed LOS/NLOS sigmas, with some noise-free pairs."""
    occ = rng.uniform(0.0, 0.4, (N_NODES, N_NODES))
    sigma = occlusion_noise_sigma(np.triu(occ, 1) + np.triu(occ, 1).T, 0.051, 0.083)
    sigma[rng.uniform(size=sigma.shape) < 0.1] = 0.0
    return np.triu(sigma, 1) + np.triu(sigma, 1).T


def one_round(positions, clocks, rng=None, **kwargs):
    """The distances and validity of a one-round stream starting at t = 0."""
    stream = simulate_stream(np.zeros(1), positions, clocks, rng, **kwargs)
    return stream.distances[0], stream.valid[0]


def assert_stream_equals_scalar_rounds(stream, times, pos, clocks, ref_rng, drop_prob, sigma):
    """Every round's bytes equal scalar_round run round by round on ref_rng."""
    assert stream.distances.shape == stream.valid.shape == (times.shape[0], N_NODES, N_NODES)
    for k, t_start in enumerate(times):
        want = scalar_round(
            pos[k], clocks, ref_rng, t_start=t_start, drop_prob=drop_prob, sigma=None if sigma is None else sigma[k]
        )
        assert stream.distances[k].tobytes() == want[0].tobytes()
        assert np.array_equal(stream.valid[k], want[1])


def test_array_round_equals_scalar_round_bitwise():
    """Streams of 0, 1 and several rounds, with and without per-round sigma
    stacks (some entries and some whole rounds noise-free), equal scalar
    rounds drawing from one rng, to the bit and to the final rng state."""
    setup = derive_rng(6, "uwb", "bitwise")
    mismatched = 0
    for trial in range(1000):
        clocks = sample_clocks(setup, skew_ppm_sigma=5.0, offset_sigma=10.0, antenna_delay_ns=0.5)
        n_rounds = (0, 1, 2, 5)[trial % 4]
        times = float(setup.uniform(0.0, 60.0)) + 0.04 * np.arange(n_rounds)
        pos = np.array([body_positions(setup) for _ in times]).reshape(n_rounds, N_NODES, 3)
        drop_prob = (0.0, 0.2, 0.6)[trial % 3]
        sigma = None
        if trial % 5:
            sigma = np.array([random_sigma(setup) * (setup.uniform() > 0.2) for _ in times])
            sigma = sigma.reshape(n_rounds, N_NODES, N_NODES)
        seed = int(setup.integers(1 << 30))
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        stream = simulate_stream(times, pos, clocks, rng, drop_prob=drop_prob, sigma=sigma)
        assert_stream_equals_scalar_rounds(stream, times, pos, clocks, ref_rng, drop_prob, sigma)
        # same draws in the same order
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        mismatched += int((~stream.valid[:, ~np.eye(N_NODES, dtype=bool)]).any(axis=1).sum())
    assert mismatched > 600  # drops were exercised


def test_array_round_without_rng_equals_scalar_round():
    setup = derive_rng(6, "uwb", "norng")
    for trial in range(50):
        clocks = sample_clocks(setup, skew_ppm_sigma=5.0, offset_sigma=10.0)
        n_rounds = (0, 1, 4)[trial % 3]
        times = float(setup.uniform(0.0, 60.0)) + 0.04 * np.arange(n_rounds)
        pos = np.array([body_positions(setup) for _ in times]).reshape(n_rounds, N_NODES, 3)
        zero = np.zeros((n_rounds, N_NODES, N_NODES))
        for sigma in (None, zero):
            stream = simulate_stream(times, pos, clocks, drop_prob=0.5, sigma=sigma)
            assert_stream_equals_scalar_rounds(stream, times, pos, clocks, None, 0.5, sigma)
            assert np.array_equal(stream.valid, np.broadcast_to(~np.eye(N_NODES, dtype=bool), stream.valid.shape))
    with pytest.raises(ContractViolationError, match="without an rng"):
        one_round(body_positions(), ideal_clocks(), sigma=np.full((N_NODES, N_NODES), 0.05))


def test_round_rejects_bad_shapes():
    with pytest.raises(ContractViolationError):
        one_round(body_positions()[:5], ideal_clocks())
    with pytest.raises(ContractViolationError):
        one_round(body_positions(), ideal_clocks(), sigma=np.zeros((5, 5)))
    with pytest.raises(ContractViolationError):
        simulate_stream(round_times(0.2), np.zeros((4, N_NODES, 3)), ideal_clocks())
    with pytest.raises(ContractViolationError):
        simulate_stream(round_times(0.2), body_positions(), ideal_clocks(), sigma=np.zeros((5, 5)))


def test_occlusion_sigma_threshold():
    sigma = occlusion_noise_sigma(np.array([0.0, 0.19, 0.2, 1.0]), 0.051, 0.083)
    assert np.array_equal(sigma, [0.051, 0.051, 0.083, 0.083])
    assert occlusion_noise_sigma(np.full((2, 2), 0.5), 0.01, 0.07).tolist() == [[0.07, 0.07], [0.07, 0.07]]
    for bad in (1.2, -0.1, np.nan):
        with pytest.raises(ContractViolationError):
            occlusion_noise_sigma(np.array([[0.0, bad], [bad, 0.0]]), 0.051, 0.083)


def test_resolve_tof_oracle():
    # One-way flight of 10 ns with a 2 us reply turnaround at the responder.
    tof = resolve_tof(0.0, 2.01e-6, 1.0e-8, 2.0e-6)
    assert math.isclose(tof, 1.0e-8, rel_tol=1e-12)


def test_clean_round_resolves_geometry():
    pos = body_positions()
    distances, valid = one_round(pos, ideal_clocks())
    truth = truth_matrix(pos)
    assert valid[~np.eye(N_NODES, dtype=bool)].all()
    assert np.allclose(distances, truth, atol=1e-9)
    assert np.array_equal(distances, distances.T)


def test_clock_offsets_cancel_exactly():
    pos = body_positions()
    clocks = tuple(
        NodeClock(offset=float(o), skew_ppm=0.0, antenna_delay=0.0)
        for o in (3.0, -12.5, 0.001, 7.7, -0.4, 123.0)
    )
    distances, _ = one_round(pos, clocks)
    assert np.allclose(distances, truth_matrix(pos), atol=1e-6)


def test_antenna_delay_bias_is_sum_of_delays():
    pos = body_positions()
    delays = (1e-9, 2e-9, 0.5e-9, 3e-9, 1.5e-9, 2.5e-9)
    clocks = tuple(NodeClock(offset=0.0, skew_ppm=0.0, antenna_delay=d) for d in delays)
    distances, _ = one_round(pos, clocks)
    truth = truth_matrix(pos)
    for i, j in PAIRS:
        want_bias = SPEED_OF_LIGHT * (delays[i] + delays[j])
        assert math.isclose(distances[i, j] - truth[i, j], want_bias, rel_tol=1e-6)


def test_skew_error_stays_bounded():
    pos = body_positions()
    skew_ppm = 20.0  # far above spec hardware, still small over a slot
    clocks = tuple(NodeClock(offset=0.0, skew_ppm=skew_ppm, antenna_delay=0.0) for _ in range(6))
    distances, _ = one_round(pos, clocks)
    err = np.abs(distances - truth_matrix(pos))
    # bound: skew * max reply delay (5 slots of 2 ms) * c
    assert err.max() < skew_ppm * 1e-6 * 0.01 * SPEED_OF_LIGHT + 1e-9


def test_noise_sigma_comes_out_as_configured():
    pos = body_positions()
    rng = derive_rng(6, "uwb", "noise")
    sigma = 0.05
    samples = []
    for _ in range(3000):
        distances, _ = one_round(pos, ideal_clocks(), rng, sigma=np.full((N_NODES, N_NODES), sigma))
        samples.append(distances[0, 1])
    err = np.array(samples) - truth_matrix(pos)[0, 1]
    assert abs(err.std() - sigma) < 0.004
    assert abs(err.mean()) < 0.004


def test_drops_invalidate_only_affected_pairs():
    pos = body_positions()
    rng = derive_rng(6, "uwb", "drop")
    seen_partial = False
    for _ in range(40):
        distances, valid = one_round(pos, ideal_clocks(), rng, drop_prob=0.3)
        off_diag = ~np.eye(N_NODES, dtype=bool)
        n_valid = valid[off_diag].sum()
        if 0 < n_valid < 30:
            seen_partial = True
        truth = truth_matrix(pos)
        for i, j in PAIRS:
            if valid[i, j]:
                assert abs(distances[i, j] - truth[i, j]) < 1e-9
            else:
                assert distances[i, j] == 0.0
    assert seen_partial


def test_drop_prob_one_kills_everything():
    _, valid = one_round(body_positions(), ideal_clocks(), derive_rng(6, "uwb", "all"), drop_prob=1.0)
    assert not valid.any()


def test_stream_round_count_and_times():
    stream = simulate_stream(round_times(10.0), body_positions(), ideal_clocks())
    assert stream.times.shape[0] == 250
    assert np.allclose(np.diff(stream.times), 0.04, atol=1e-12)
    stream = simulate_stream(round_times(1.0), body_positions(), ideal_clocks())
    assert stream.times.shape[0] == 25


def test_round_times():
    assert round_times(0.2).tolist() == [0.0, 0.04, 0.08, 0.12, 0.16]
    assert round_times(0.0).shape == (0,)


def test_stream_runs_round_k_on_positions_k_at_times_k():
    """Each round sees its own positions and sigmas and starts at its own time,
    and the stream equals per-round scalar rounds drawing from one rng."""
    setup = derive_rng(6, "uwb", "stream")
    clocks = sample_clocks(setup, skew_ppm_sigma=5.0)
    times = round_times(0.4)
    pos = np.stack([body_positions(setup) for _ in times])
    sigma = np.stack([random_sigma(setup) for _ in times])
    stream = simulate_stream(times, pos, clocks, derive_rng(6, "uwb", "s"), drop_prob=0.1, sigma=sigma)
    ref_rng = derive_rng(6, "uwb", "s")
    for k in range(times.shape[0]):
        want = scalar_round(pos[k], clocks, ref_rng, t_start=k * 0.04, drop_prob=0.1, sigma=sigma[k])
        assert stream.distances[k].tobytes() == want[0].tobytes()
        assert np.array_equal(stream.valid[k], want[1])


def test_sample_clocks_deterministic_and_plausible():
    a = sample_clocks(derive_rng(6, "uwb", "clk"))
    b = sample_clocks(derive_rng(6, "uwb", "clk"))
    assert len(a) == N_NODES
    for ca, cb in zip(a, b):
        assert (ca.offset, ca.skew_ppm, ca.antenna_delay) == (
            cb.offset,
            cb.skew_ppm,
            cb.antenna_delay,
        )
        assert abs(ca.skew_ppm) < 0.1
        assert 0.0 < ca.antenna_delay < 1e-9


def test_ransac_recovers_affine_under_outliers():
    rng = derive_rng(6, "uwb", "ransac")
    truth = rng.uniform(0.3, 2.0, 400)
    raw = 1.02 * truth + 0.35 + rng.normal(0.0, 0.01, truth.size)
    outliers = rng.uniform(size=truth.size) < 0.1
    raw[outliers] += rng.uniform(0.5, 2.0, int(outliers.sum()))
    cal = ransac_affine_calibrate(raw, truth, derive_rng(6, "uwb", "fit"))
    assert abs(cal.scale - 1.02) < 0.005
    assert abs(cal.bias - 0.35) < 0.02
    assert cal.inliers >= int(0.8 * truth.size)


def test_apply_calibration_inverts_affine():
    cal = CalibrationResult(scale=1.02, bias=0.35, inliers=9)
    assert math.isclose(apply_calibration(2.39, cal), 2.0, rel_tol=1e-12)
    arr = apply_calibration(np.array([0.35, 1.37]), cal)
    assert np.allclose(arr, [0.0, 1.0], atol=1e-12)


def test_ransac_rejects_degenerate_input():
    with pytest.raises(CalibrationError):
        ransac_affine_calibrate(np.array([1.0]), np.array([1.0]), derive_rng(6, "uwb", "d"))
