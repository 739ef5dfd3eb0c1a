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
from uip.ekf import (
    ControlInput,
    PairFilterBank,
    PairState,
    assert_psd,
    input_jacobian,
    predict,
    state_jacobian,
    update,
)
from uip.geometry import Quaternion, Vec3, quat_rotate
from uip.imu import ImuNoiseModel, orientation_filter, synthesize_imu
from uip.metrics import SIP_JOINTS, jitter, position_error, sip_error
from uip.motions import generate_motion_suite
from uip.pipeline import (
    evaluate_model,
    filter_dataset,
    synthesize_dataset,
    train_model,
)
from uip.posenet import (
    PoseNetConfig,
    batch_loss,
    fuse_positions,
    infer,
    init_params,
)
from uip.rng import derive_rng
from uip.skeleton import (
    MotionClip,
    N_SENSORS,
    default_placement,
    default_skeleton,
    fk_pose,
    pairwise_occlusion,
    sensor_pose,
    tpose,
)
from uip.storage import read_manifest, read_report_json
from uip.uwb import (
    ideal_clocks,
    occlusion_noise_sigma,
    ransac_affine_calibrate,
    simulate_stream,
)

from conftest import random_windows

PAIRS = [(i, j) for i in range(N_SENSORS) for j in range(i + 1, N_SENSORS)]


def _tpose_sensor_positions():
    skel = default_skeleton()
    placement = default_placement(skel)
    jp, jr = tpose(skel)
    pos = np.zeros((N_SENSORS, 3))
    for s in range(N_SENSORS):
        p, _ = sensor_pose(placement, s, jp, jr)
        pos[s] = p.to_array()
    return skel, placement, pos


@pytest.fixture(scope="module")
def clean_stream():
    """Noise-free ranging on ideal clocks over a static body, timed."""
    _, _, pos = _tpose_sensor_positions()
    start = time.perf_counter()
    stream = simulate_stream(lambda _t: pos, ideal_clocks(), 10.0)
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


def _transition(x6: np.ndarray, u12: np.ndarray) -> np.ndarray:
    """Mean propagation as a plain function of the state and input vectors."""
    st = PairState(x=x6[:3].copy(), v=x6[3:].copy(), q=Quaternion.identity(), cov=np.eye(6))

    def quat(vec):
        return Quaternion(1.0, *vec).normalized()

    u = ControlInput(
        a_i=Vec3(*u12[0:3]), a_j=Vec3(*u12[3:6]), q_i=quat(u12[6:9]), q_j=quat(u12[9:12])
    )
    out = predict(st, u, DT, SIGMA_U)
    return np.concatenate([out.x, out.v])


def test_criterion_04_jacobians_and_covariance_health():
    """F and W match central differences to 1e-6 over 1000 states; the
    covariance stays positive semidefinite across 100k filter steps."""
    rng = derive_rng(4, "acceptance", "jacobians")
    f_an = state_jacobian(DT)
    w_an = input_jacobian(DT)
    eps = 1e-6
    worst = 0.0
    for _ in range(1000):
        x0 = rng.normal(0.0, 0.5, 6)
        u0 = rng.normal(0.0, 2.0, 12)
        for c in range(6):
            xp, xm = x0.copy(), x0.copy()
            xp[c] += eps
            xm[c] -= eps
            fd = (_transition(xp, u0) - _transition(xm, u0)) / (2 * eps)
            denom = np.maximum(np.abs(f_an[:, c]), 1.0)
            worst = max(worst, float(np.max(np.abs(fd - f_an[:, c]) / denom)))
        for c in range(12):
            up, um = u0.copy(), u0.copy()
            up[c] += eps
            um[c] -= eps
            fd = (_transition(x0, up) - _transition(x0, um)) / (2 * eps)
            denom = np.maximum(np.abs(w_an[:, c]), 1.0)
            worst = max(worst, float(np.max(np.abs(fd - w_an[:, c]) / denom)))
    assert worst < 1e-6

    state = PairState(
        x=np.array([0.4, 0.1, -0.2]), v=np.zeros(3), q=Quaternion.identity(), cov=0.01 * np.eye(6)
    )
    rng = derive_rng(4, "acceptance", "psd")
    ident = Quaternion.identity()
    for step in range(100_000):
        u = ControlInput(
            a_i=Vec3(*rng.normal(0.0, 2.0, 3)),
            a_j=Vec3(*rng.normal(0.0, 2.0, 3)),
            q_i=ident,
            q_j=ident,
        )
        state = predict(state, u, DT, SIGMA_U)
        if step % 5 == 0:
            d = float(np.linalg.norm(state.x)) + rng.normal(0.0, 0.06)
            state = update(state, d, (0.0, 2.0), R_DIAG)
        assert_psd(state.cov)
    assert not state.diverged


def _nlerp(a: Quaternion, b: Quaternion, w: float) -> Quaternion:
    dot = a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z
    s = 1.0 if dot >= 0.0 else -1.0
    return Quaternion(
        a.w + w * (s * b.w - a.w),
        a.x + w * (s * b.x - a.x),
        a.y + w * (s * b.y - a.y),
        a.z + w * (s * b.z - a.z),
    ).normalized()


def _stitch(clips, rate: float, blend_s: float = 1.0) -> MotionClip:
    """Concatenate clips with a root-aligned pose crossfade at each seam."""
    blend = int(round(blend_s * rate))
    local = [list(f) for f in clips[0].local_rot]
    root = list(clips[0].root_pos)
    for nxt in clips[1:]:
        shift = root[-1] - nxt.root_pos[0]
        tail = local[-1]
        for k in range(nxt.n_frames):
            w = min((k + 1) / blend, 1.0)
            pose = [
                _nlerp(tail[j], nxt.local_rot[k][j], w) for j in range(len(tail))
            ]
            local.append(pose)
            root.append(nxt.root_pos[k] + shift)
    return MotionClip(name="mixed", kind="mixed", rate=rate, local_rot=local, root_pos=root)


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

    sensor_pos = np.zeros((frames, N_SENSORS, 3))
    sensor_rot = []
    joint_vecs = []
    for k in range(frames):
        jp, jr = fk_pose(skel, clip.local_rot[k], clip.root_pos[k])
        joint_vecs.append(jp)
        row = []
        for s in range(N_SENSORS):
            p, q = sensor_pose(placement, s, jp, jr)
            sensor_pos[k, s] = p.to_array()
            row.append(q)
        sensor_rot.append(row)

    noise = ImuNoiseModel(accel_sigma=0.08, gyro_sigma=0.006)
    streams = [
        synthesize_imu(
            sensor_pos[:, s],
            [sensor_rot[k][s] for k in range(frames)],
            noise,
            derive_rng(5, "acceptance", "imu", s),
            dt=1.0 / rate,
        )
        for s in range(N_SENSORS)
    ]

    def sigma_for_round(_k, t):
        frame = min(int(round(t * rate)), frames - 1)
        occ = pairwise_occlusion(skel, placement, joint_vecs[frame], sensor_pos[frame])

        def sigma(i, j):
            return occlusion_noise_sigma(occ[i, j], 0.051, 0.083)

        return sigma

    ranging = simulate_stream(
        lambda t: sensor_pos[min(int(round(t * rate)), frames - 1)],
        ideal_clocks(),
        frames / rate,
        derive_rng(5, "acceptance", "uwb"),
        sigma_fn_for_round=sigma_for_round,
    )

    start = time.perf_counter()
    r_world = np.zeros((frames, N_SENSORS, 3))
    quats = [[None] * N_SENSORS for _ in range(frames)]
    for s in range(N_SENSORS):
        for k, est in enumerate(orientation_filter(streams[s], sensor_rot[0][s])):
            r_world[k, s] = est.accel_world.to_array()
            quats[k][s] = est.q
    bank = PairFilterBank(skel, placement, sigma_u=SIGMA_U, r_diag=R_DIAG, dt=1.0 / rate)
    round_at_frame = {int(round(t * rate)): k for k, t in enumerate(ranging.times)}
    d_stream = np.zeros((frames, N_SENSORS, N_SENSORS))
    mask_stream = np.zeros((frames, N_SENSORS, N_SENSORS), dtype=bool)
    for k in range(frames):
        controls = [(Vec3(*r_world[k, s]), quats[k][s]) for s in range(N_SENSORS)]
        bank.predict_all(controls)
        if k in round_at_frame:
            rnd = round_at_frame[k]
            bank.update_all(ranging.distances[rnd], ranging.valid[rnd], float(k) / rate)
        d_stream[k], mask_stream[k] = bank.distance_matrix()
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
    p_t = rng.normal(size=(6, 3))
    p_s = rng.normal(size=(6, 3))
    slow = fuse_positions(p_t, p_s, np.full(6, 1.0), low=2.0, high=8.0)
    mid = fuse_positions(p_t, p_s, np.full(6, 5.0), low=2.0, high=8.0)
    fast = fuse_positions(p_t, p_s, np.full(6, 8.0), low=2.0, high=8.0)
    assert np.array_equal(slow, p_s)
    assert np.array_equal(mid, 0.5 * p_t + 0.5 * p_s)
    assert np.array_equal(fast, p_t)


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
        qs = [
            Quaternion.from_rotvec(Vec3(*(0.3 * rng.normal(size=3)))) for _ in range(9)
        ]
        axis = Vec3(*rng.normal(size=3)).normalized()
        turn = Quaternion.from_rotvec(axis.scaled(math.radians(10.0)))
        truth[name] = qs
        pred[name] = [q * turn for q in qs]
    assert abs(sip_error(pred, truth) - 10.0) < 1e-9

    rng = derive_rng(10, "acceptance", "pos")
    frames, joints = 6, 15
    tp = rng.normal(0.0, 0.5, (frames, joints, 3))
    t_rot = [Quaternion.from_rotvec(Vec3(*(0.4 * rng.normal(size=3)))) for _ in range(frames)]
    pp = np.empty_like(tp)
    p_rot = []
    for k in range(frames):
        move = Quaternion.from_rotvec(Vec3(*rng.normal(size=3)))
        shift = rng.normal(0.0, 2.0, 3)
        for j in range(joints):
            v = quat_rotate(move, Vec3(*tp[k, j]))
            pp[k, j] = (v.x + shift[0], v.y + shift[1], v.z + shift[2])
        p_rot.append((move * t_rot[k]).normalized())
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
