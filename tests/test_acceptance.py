"""Acceptance gate: eleven system-level checks at fixed tolerances.

Each test is one criterion; `pytest -v` prints one pass/fail line per
criterion. The heavier checks build their inputs once in module fixtures.
"""
import dataclasses
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from uip.config import (
    ImuSettings,
    ModelSettings,
    MotionSettings,
    RunConfig,
    TrainSettings,
    UwbSettings,
)
from uip.ekf import PairFilterBank, assert_psd, input_jacobian, state_jacobian
from uip.geometry import qfrom_rotvec, qmul, qnormalize, qrotate
from uip.imu import ImuNoiseModel, orientation_filter, synthesize_imu
from uip.metrics import SIP_JOINTS, jitter, position_error, sip_error
from uip.motions import generate_motion_suite
from uip.pipeline import (
    evaluate_model,
    filter_dataset,
    synthesize_dataset,
    train_model,
)
from uip.posenet import PoseNetConfig, batch_loss, infer, init_params
from uip.rng import derive_rng
from uip.skeleton import (
    MotionClip,
    N_SENSORS,
    default_placement,
    default_skeleton,
    fk_batch,
    mount_poses,
    pairwise_occlusion,
    tpose,
)
from uip.storage import read_manifest, read_report_json
from uip.uwb import (
    occlusion_noise_sigma,
    ransac_affine_calibrate,
    round_times,
    simulate_stream,
)

from conftest import ideal_clocks, pair_transition, random_windows

PAIRS = [(i, j) for i in range(N_SENSORS) for j in range(i + 1, N_SENSORS)]


def _tpose_sensor_positions():
    skel = default_skeleton()
    placement = default_placement(skel)
    pos, _ = mount_poses(placement.mounts, *tpose(skel))
    return skel, placement, pos


@pytest.fixture(scope="module")
def clean_stream():
    """Noise-free ranging on ideal clocks over a static body, timed."""
    _, _, pos = _tpose_sensor_positions()
    start = time.perf_counter()
    stream = simulate_stream(round_times(10.0), pos, ideal_clocks())
    elapsed = time.perf_counter() - start
    return SimpleNamespace(stream=stream, positions=pos, elapsed=elapsed)


def test_criterion_01_ranging_accuracy_micrometer(clean_stream):
    """Zero noise, zero skew: every pair within 1 um over every round."""
    stream = clean_stream.stream
    pos = clean_stream.positions
    worst = 0.0
    for i, j in PAIRS:
        truth = float(np.linalg.norm(pos[i] - pos[j]))
        assert stream.valid[:, i, j].all()
        worst = max(worst, float(np.abs(stream.distances[:, i, j] - truth).max()))
    assert worst < 1e-6
    assert clean_stream.elapsed < 1.0


def test_criterion_02_round_schedule(clean_stream):
    """Exactly 250 rounds fit in 10 simulated seconds."""
    times = clean_stream.stream.times
    assert times.shape[0] == 250
    assert np.array_equal(times, np.arange(250) * 0.04)
    assert times[-1] < 10.0


def test_criterion_03_ransac_recovers_affine_corruption():
    """Scale 1.02 / bias 0.35 m under 10% gross outliers, 100/100 trials."""
    recovered = 0
    for trial in range(100):
        rng = derive_rng(3000 + trial, "acceptance", "ransac")
        truth = rng.uniform(0.3, 2.0, 400)
        raw = 1.02 * truth + 0.35 + rng.normal(0.0, 0.01, 400)
        outliers = rng.choice(400, 40, replace=False)
        raw[outliers] += rng.uniform(0.5, 2.0, 40)
        cal = ransac_affine_calibrate(raw, truth, rng)
        if abs(cal.scale - 1.02) < 0.005 and abs(cal.bias - 0.35) < 0.02:
            recovered += 1
    assert recovered == 100


DT = 0.01
SIGMA_U = np.concatenate([np.full(6, 0.3), np.zeros(6)])
R_DIAG = (0.06, 0.5)


def test_criterion_04_jacobians_and_covariance_health():
    """F and W match central differences to 1e-6 over 1000 states; the
    covariance stays positive semidefinite across 100k filter steps."""
    skel, placement, _ = _tpose_sensor_positions()
    bank = PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT, clips=1)
    rng = derive_rng(4, "acceptance", "jacobians")
    f_an = state_jacobian(DT)
    w_an = input_jacobian(DT)
    # The bank takes no orientation input: W's orientation columns are zero.
    assert not w_an[:, 6:].any()
    eps = 1e-6
    worst = 0.0
    for _ in range(1000):
        x0 = rng.normal(0.0, 0.5, 6)
        u0 = rng.normal(0.0, 2.0, 6)
        for c in range(6):
            xp, xm = x0.copy(), x0.copy()
            xp[c] += eps
            xm[c] -= eps
            fd = (pair_transition(bank, xp, u0) - pair_transition(bank, xm, u0)) / (2 * eps)
            denom = np.maximum(np.abs(f_an[:, c]), 1.0)
            worst = max(worst, float(np.max(np.abs(fd - f_an[:, c]) / denom)))
        for c in range(6):
            up, um = u0.copy(), u0.copy()
            up[c] += eps
            um[c] -= eps
            fd = (pair_transition(bank, x0, up) - pair_transition(bank, x0, um)) / (2 * eps)
            denom = np.maximum(np.abs(w_an[:, c]), 1.0)
            worst = max(worst, float(np.max(np.abs(fd - w_an[:, c]) / denom)))
    assert worst < 1e-6

    # Pair (0, 1) of a one-clip bank, driven by sensors 0 and 1 and given
    # a range every 5 steps.
    bank = PairFilterBank(skel, placement, SIGMA_U, R_DIAG, dt=DT, clips=1)
    bank.x[0, 0], bank.v[0, 0], bank.cov[0, 0] = (0.4, 0.1, -0.2), 0.0, 0.01 * np.eye(6)
    accel = np.zeros((1, N_SENSORS, 3))
    d = np.zeros((1, N_SENSORS, N_SENSORS))
    valid = np.zeros((1, N_SENSORS, N_SENSORS), dtype=bool)
    valid[0, 0, 1] = valid[0, 1, 0] = True
    rng = derive_rng(4, "acceptance", "psd")
    for step in range(100_000):
        accel[0, 0] = rng.normal(0.0, 2.0, 3)
        accel[0, 1] = rng.normal(0.0, 2.0, 3)
        bank.predict_all(accel)
        if step % 5 == 0:
            d[0, 0, 1] = d[0, 1, 0] = float(np.linalg.norm(bank.x[0, 0])) + rng.normal(0.0, 0.06)
            bank.update_all(d, valid)
        assert_psd(bank.cov[0, 0])
    assert not bank.diverged.any()


def _nlerp(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Normalized lerp from quaternions a to b (..., 4) by weights w (..., 1), short arc."""
    dot = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2] + a[..., 3] * b[..., 3]
    s = np.where(dot >= 0.0, 1.0, -1.0)[..., None]
    return qnormalize(a + w * (s * b - a))


def _stitch(clips, rate: float, blend_s: float = 1.0) -> MotionClip:
    """Concatenate clips with a root-aligned pose crossfade at each seam."""
    blend = int(round(blend_s * rate))
    local, root = [clips[0].local_rot], [clips[0].root_pos]
    for nxt in clips[1:]:
        shift = root[-1][-1] - nxt.root_pos[0]
        w = np.minimum((np.arange(nxt.n_frames) + 1) / blend, 1.0)
        local.append(_nlerp(local[-1][-1], nxt.local_rot, w[:, None, None]))
        root.append(nxt.root_pos + shift)
    return MotionClip(
        name="mixed", kind="mixed", rate=rate, local_rot=np.concatenate(local), root_pos=np.concatenate(root)
    )


def test_criterion_05_filtering_beats_raw_on_mixed_motion():
    """60 s mixed clip with occlusion-switched noise (0.051 / 0.083): the
    filter improves every pair, lands under 6 cm, and stays under 10 s."""
    rate = 100.0
    skel = default_skeleton()
    placement = default_placement(skel)
    parts = generate_motion_suite(5, ("walk", "squat", "arm-swing"), 20.0, rate, skel)
    clip = _stitch(parts, rate)
    frames = clip.n_frames
    assert frames == 6000

    joint_vecs, joint_rot = fk_batch(skel, clip.local_rot, clip.root_pos)
    sensor_pos, sensor_rot = mount_poses(placement.mounts, joint_vecs, joint_rot)

    noise = ImuNoiseModel(accel_sigma=0.08, gyro_sigma=0.006)
    streams = [
        synthesize_imu(
            sensor_pos[:, s],
            sensor_rot[:, s],
            noise,
            derive_rng(5, "acceptance", "imu", s),
            dt=1.0 / rate,
        )
        for s in range(N_SENSORS)
    ]

    starts = round_times(frames / rate)
    round_frame = np.minimum(np.rint(starts * rate).astype(int), frames - 1)
    occ = np.stack([pairwise_occlusion(skel, placement, joint_vecs[f], sensor_pos[f]) for f in round_frame])
    ranging = simulate_stream(
        starts,
        sensor_pos[round_frame],
        ideal_clocks(),
        derive_rng(5, "acceptance", "uwb"),
        sigma=occlusion_noise_sigma(occ, 0.051, 0.083),
    )

    start = time.perf_counter()
    _, r_world = orientation_filter(
        np.stack([st.accel for st in streams], axis=1),
        np.stack([st.gyro for st in streams], axis=1),
        sensor_rot[0],
        dt=1.0 / rate,
    )
    bank = PairFilterBank(skel, placement, sigma_u=SIGMA_U, r_diag=R_DIAG, dt=1.0 / rate, clips=1)
    round_frames = np.rint(ranging.times * rate).astype(int)
    d_stream, mask_stream = bank.run(r_world[:, None], round_frames, ranging.distances[:, None], ranging.valid[:, None])
    d_stream, mask_stream = d_stream[:, 0], mask_stream[:, 0]
    filter_elapsed = time.perf_counter() - start

    filtered_means = []
    for i, j in PAIRS:
        truth_d = np.linalg.norm(sensor_pos[:, i] - sensor_pos[:, j], axis=1)
        raw_sq, filt_sq = [], []
        for k, t in enumerate(ranging.times):
            frame = int(round(t * rate))
            if frame >= frames or not ranging.valid[k, i, j]:
                continue
            raw_sq.append((ranging.distances[k, i, j] - truth_d[frame]) ** 2)
            if mask_stream[frame, i, j]:
                filt_sq.append((d_stream[frame, i, j] - truth_d[frame]) ** 2)
        raw_rmse = math.sqrt(np.mean(raw_sq))
        filt_rmse = math.sqrt(np.mean(filt_sq))
        assert filt_rmse < raw_rmse, f"pair ({i},{j}): filtered {filt_rmse} >= raw {raw_rmse}"
        filtered_means.append(filt_rmse)
    assert float(np.mean(filtered_means)) < 0.06
    assert filter_elapsed < 10.0


def test_criterion_06_loss_gradients_match_finite_differences():
    """Analytic gradients of the full training loss within 1e-4 of central
    differences on a fixed seeded batch."""
    config = PoseNetConfig(
        lstm_hidden=6, lstm_layers=1, gcn_width=6, gcn_layers=1, decoder_hidden=6,
        lambda_distance=0.01,
    )
    params = init_params(config, 6)
    windows = random_windows(6, 3, frames=4)
    _, _, grads = batch_loss(params, windows)
    probe = derive_rng(6, "acceptance", "probe")
    worst = 0.0
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        for idx in probe.choice(flat.size, size=min(4, flat.size), replace=False):
            eps = 1e-6 * max(1.0, abs(flat[idx]))
            keep = flat[idx]
            flat[idx] = keep + eps
            up, _, _ = batch_loss(params, windows, with_grads=False)
            flat[idx] = keep - eps
            down, _, _ = batch_loss(params, windows, with_grads=False)
            flat[idx] = keep
            fd = (up - down) / (2.0 * eps)
            an = grads[name].reshape(-1)[idx]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    assert worst < 1e-4


def test_criterion_07_spatial_branch_scale_invariance():
    """Scaling the measured distance matrix by 0.5, 1.3, or 2.0 leaves the
    spatial-branch positions bitwise unchanged (power-of-two entries keep
    the scaling itself exact in floating point)."""
    rng = derive_rng(7, "acceptance", "scale")
    config = PoseNetConfig(
        lstm_hidden=4, lstm_layers=1, gcn_width=4, gcn_layers=1, decoder_hidden=4
    )
    params = init_params(config, 7)
    d = np.array(
        [
            [0.0, 0.5, 1.0, 0.5, 0.5, 1.0],
            [0.5, 0.0, 2.0, 0.25, 1.0, 0.5],
            [1.0, 2.0, 0.0, 0.5, 0.25, 1.0],
            [0.5, 0.25, 0.5, 0.0, 0.5, 2.0],
            [0.5, 1.0, 0.25, 0.5, 0.0, 1.0],
            [1.0, 0.5, 1.0, 2.0, 1.0, 0.0],
        ]
    )
    valid = np.ones((6, 6), dtype=bool)
    np.fill_diagonal(valid, False)
    r = rng.normal(0.0, 0.4, (6, 6))
    a = rng.normal(0.0, 2.0, (6, 3))
    base = infer(params, r[None], a[None], d[None], valid[None])
    for k in (0.5, 1.3, 2.0):
        scaled = infer(params, r[None], a[None], k * d[None], valid[None])
        assert np.array_equal(scaled.p_s, base.p_s), f"p_s moved under scale {k}"
        assert np.array_equal(scaled.p, base.p)


def test_criterion_08_fusion_rule_exact_blends():
    """Acceleration 1, 5, 8 m/s^2 against bounds (2, 8): spatial branch,
    exact half-half blend, temporal branch."""
    rng = derive_rng(8, "acceptance", "fusion")
    config = PoseNetConfig(
        lstm_hidden=4, lstm_layers=1, gcn_width=4, gcn_layers=1, decoder_hidden=4,
        accel_low=2.0, accel_high=8.0,
    )
    params = init_params(config, 8)
    # Frame f: every sensor accelerates along a random axis at norm f.
    a = np.zeros((3, N_SENSORS, 3))
    for f, norm in enumerate((1.0, 5.0, 8.0)):
        a[f, np.arange(N_SENSORS), rng.integers(0, 3, N_SENSORS)] = norm * rng.choice((-1.0, 1.0), N_SENSORS)
    d0 = rng.uniform(0.3, 1.6, (3, N_SENSORS, N_SENSORS))
    d = (d0 + d0.transpose(0, 2, 1)) / 2.0
    d[:, np.arange(N_SENSORS), np.arange(N_SENSORS)] = 0.0
    valid = np.broadcast_to(~np.eye(N_SENSORS, dtype=bool), d.shape)
    out = infer(params, rng.normal(0.0, 0.4, (3, N_SENSORS, 6)), a, d, valid)
    assert not np.array_equal(out.p_t, out.p_s)
    assert np.array_equal(out.p[0], out.p_s[0])
    assert np.array_equal(out.p[1], 0.5 * out.p_t[1] + 0.5 * out.p_s[1])
    assert np.array_equal(out.p[2], out.p_t[2])


SUITE_MODEL = ModelSettings(
    lstm_hidden=16, lstm_layers=1, gcn_width=12, gcn_layers=1, decoder_hidden=16,
    window_frames=24, window_stride=12,
)
SUITE_TRAIN = TrainSettings(epochs=50, batch_size=8, val_fraction=0.0)
SUITE_CFG = RunConfig(
    seed=101,
    motions=MotionSettings(
        catalog=("walk", "arm-swing", "squat", "sit-stand"), duration_s=10.0, rate_hz=50.0
    ),
    imu=ImuSettings(tpose_seconds=2.0),
    uwb=UwbSettings(drop_prob=0.05),
    model=SUITE_MODEL,
    train=SUITE_TRAIN,
)
HELD_OUT_CFG = dataclasses.replace(
    SUITE_CFG,
    seed=202,
    motions=MotionSettings(
        catalog=("idle", "arm-swing-slow", "sit-stand-slow"), duration_s=10.0, rate_hz=50.0
    ),
)


def test_criterion_09_distances_help_on_slow_motion(tmp_path):
    """Across five training seeds the full model beats the no-distances
    ablation on held-out slow clips: SIP in at least 4 of 5, jitter in 5 of
    5, all within a 30 minute single-CPU budget."""
    start = time.perf_counter()
    data_train = tmp_path / "data_train"
    data_eval = tmp_path / "data_eval"
    filt_train = tmp_path / "filt_train"
    filt_eval = tmp_path / "filt_eval"
    synthesize_dataset(SUITE_CFG, data_train)
    synthesize_dataset(HELD_OUT_CFG, data_eval)
    filter_dataset(data_train, filt_train)
    filter_dataset(data_eval, filt_eval)

    sip = {}
    jit = {}
    for seed in (1, 2, 3, 4, 5):
        for tag, ablate in (("full", False), ("nodist", True)):
            cfg = dataclasses.replace(SUITE_CFG, seed=seed)
            tdir = tmp_path / f"train_{tag}_{seed}"
            edir = tmp_path / f"eval_{tag}_{seed}"
            train_model([filt_train], tdir, cfg, no_distances=ablate)
            evaluate_model(
                tdir / "checkpoint.json", filt_eval, data_eval, edir, no_distances=ablate
            )
            rep = read_report_json(edir / "report.json")["overall"]
            sip[(tag, seed)] = rep.sip_error_deg
            jit[(tag, seed)] = rep.jitter_km_s3

    sip_wins = sum(sip[("full", s)] < sip[("nodist", s)] for s in (1, 2, 3, 4, 5))
    jit_wins = sum(jit[("full", s)] < jit[("nodist", s)] for s in (1, 2, 3, 4, 5))
    elapsed = time.perf_counter() - start
    assert sip_wins >= 4, f"distance features won SIP on only {sip_wins}/5 seeds"
    assert jit_wins == 5, f"distance features won jitter on only {jit_wins}/5 seeds"
    assert elapsed < 1800.0


def test_criterion_10_metric_oracles():
    """Jitter on a cubic is exactly 0.006 km/s^3; a uniform 10 degree
    perturbation scores 10 degrees; position error ignores rigid motion."""
    rate = 2.0
    t = np.arange(12) / rate
    positions = np.zeros((12, 1, 3))
    positions[:, 0, 0] = t**3
    assert jitter(positions, rate) == 0.006

    rng = derive_rng(10, "acceptance", "sip")
    pred, truth = {}, {}
    for name in SIP_JOINTS:
        qs = np.array([qfrom_rotvec(0.3 * rng.normal(size=3)) for _ in range(9)])
        axis = rng.normal(size=3)
        turn = qfrom_rotvec(axis / np.linalg.norm(axis) * math.radians(10.0))
        truth[name] = qs
        pred[name] = qmul(qs, turn)
    assert abs(sip_error(pred, truth) - 10.0) < 1e-9

    rng = derive_rng(10, "acceptance", "pos")
    frames, joints = 6, 15
    tp = rng.normal(0.0, 0.5, (frames, joints, 3))
    t_rot = np.array([qfrom_rotvec(0.4 * rng.normal(size=3)) for _ in range(frames)])
    pp = np.empty_like(tp)
    p_rot = np.empty_like(t_rot)
    for k in range(frames):
        move = qfrom_rotvec(rng.normal(size=3))
        shift = rng.normal(0.0, 2.0, 3)
        pp[k] = qrotate(move, tp[k]) + shift
        p_rot[k] = qnormalize(qmul(move, t_rot[k]))
    assert position_error(pp, p_rot, tp, t_rot) < 1e-9


REPRO_CFG = RunConfig(
    seed=11,
    motions=MotionSettings(catalog=("walk", "idle"), duration_s=3.0, rate_hz=25.0),
    imu=ImuSettings(tpose_seconds=1.2),
    uwb=UwbSettings(drop_prob=0.05),
    model=ModelSettings(
        lstm_hidden=4, lstm_layers=1, gcn_width=4, gcn_layers=1, decoder_hidden=4,
        window_frames=16, window_stride=8,
    ),
    train=TrainSettings(epochs=1, batch_size=8, val_fraction=0.0),
)


def test_criterion_11_end_to_end_reproducibility(tmp_path):
    """The same seed through synth, filter, train, and eval twice yields
    hash-identical artifacts at every stage."""
    manifests = []
    for run in ("a", "b"):
        root = tmp_path / run
        synthesize_dataset(REPRO_CFG, root / "data")
        filter_dataset(root / "data", root / "filt")
        train_model([root / "filt"], root / "train", REPRO_CFG)
        evaluate_model(
            root / "train" / "checkpoint.json", root / "filt", root / "data", root / "eval"
        )
        manifests.append(
            {stage: read_manifest(root / stage) for stage in ("data", "filt", "train", "eval")}
        )
    assert manifests[0] == manifests[1]
