"""Pipeline stages behind the CLI: synth, filter, train, eval, report.

Each stage reads hashed inputs, derives every random stream from the run
seed, and writes text artifacts plus a manifest, so a stage rerun with
identical inputs reproduces identical bytes. No stage mutates its input
directory.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, DataError
from .geometry import Quaternion, Vec3, qconj, qfrom_rot6d, qmul, qnormalize, qrotate, rot6d_from_quat
from .imu import ImuNoiseModel, orientation_filter, synthesize_accel, synthesize_imu, tpose_calibrate
from .metrics import ClipMetrics, SIP_JOINTS, jitter, position_error, sip_error, split_by_acceleration
from .motions import generate_motion_suite
from .posenet import (
    PoseNetConfig,
    PoseNetParams,
    TrainConfig,
    TrainingWindow,
    infer,
    train,
)
from .rng import derive_rng
from .skeleton import (
    MotionClip,
    N_SENSORS,
    Skeleton,
    default_placement,
    default_skeleton,
    fk_batch,
    mount_poses,
    pairwise_occlusion,
    tpose,
)
from .storage import (
    read_imu_csv,
    read_model_input,
    read_ranging_csv,
    read_report_json,
    read_targets,
    read_truth,
    verify_manifest,
    write_calibration,
    write_imu_csv,
    write_manifest,
    write_model_input,
    write_ranging_csv,
    write_report_csv,
    write_report_json,
    write_targets,
    write_truth,
)
from .uwb import (
    CalibrationResult,
    apply_calibration,
    occlusion_noise_sigma,
    ransac_affine_calibrate,
    sample_clocks,
    simulate_stream,
)
from .ekf import PairFilterBank

CLIPS_FILE = "clips.json"
CONFIG_FILE = "config.json"
CONTACT_SPEED = 0.4  # m/s; slower ankles count as planted

PAIRS = [(i, j) for i in range(N_SENSORS) for j in range(i + 1, N_SENSORS)]


def _setup(cfg: RunConfig):
    skel = default_skeleton(cfg.skeleton.height_m)
    return skel, default_placement(skel)


def _noise_models(cfg: RunConfig) -> list[ImuNoiseModel]:
    """One noise model per sensor; biases persist across every segment."""
    out = []
    for s in range(N_SENSORS):
        out.append(
            ImuNoiseModel.sampled(
                derive_rng(cfg.seed, "imu", "bias", s),
                cfg.imu.accel_sigma,
                cfg.imu.gyro_sigma,
                cfg.imu.accel_bias_sigma,
                cfg.imu.gyro_bias_sigma,
            )
        )
    return out


def _occlusion_sigma_fn(cfg: RunConfig, skel, placement, joint_pos, sensor_pos, rate):
    """Per-round noise model: sigma by the body-occlusion ratio of each pair."""
    last = len(joint_pos) - 1

    def for_round(_k: int, t: float):
        frame = min(int(round(t * rate)), last)
        occ = pairwise_occlusion(skel, placement, joint_pos[frame], sensor_pos[frame])
        return lambda i, j: occlusion_noise_sigma(occ[i, j], cfg.uwb.sigma_los, cfg.uwb.sigma_nlos)

    return for_round


def synthesize_dataset(cfg: RunConfig, out_dir: str | Path) -> dict:
    """Emit ground truth, raw IMU, and raw ranging for the whole catalog."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    skel, placement = _setup(cfg)
    rate = cfg.motions.rate_hz
    noise = _noise_models(cfg)
    clocks = sample_clocks(
        derive_rng(cfg.seed, "uwb", "clocks"),
        skew_ppm_sigma=cfg.uwb.skew_ppm_sigma,
        offset_sigma=cfg.uwb.offset_sigma,
    )
    written: list[str] = []

    # Stationary T-pose segment: calibration source for IMU offsets and
    # the affine range correction.
    jp_t, jr_t = map(np.asarray, tpose(skel))
    spos_t, srot_t = mount_poses(placement.mounts, jp_t, jr_t)
    n_tpose = int(round(cfg.imu.tpose_seconds * rate))
    for s in range(N_SENSORS):
        pos, rot = np.tile(spos_t[s], (n_tpose, 1)), np.tile(srot_t[s], (n_tpose, 1))
        stream = synthesize_imu(pos, rot, noise[s], derive_rng(cfg.seed, "imu", "tpose", s), dt=1.0 / rate)
        name = f"tpose_imu_s{s}.csv"
        write_imu_csv(out / name, stream)
        written.append(name)
    occ_t = pairwise_occlusion(skel, placement, jp_t, spos_t)

    def tpose_sigma(_k, _t):
        return lambda i, j: occlusion_noise_sigma(occ_t[i, j], cfg.uwb.sigma_los, cfg.uwb.sigma_nlos)

    ranging_t = simulate_stream(
        lambda _t: spos_t,
        clocks,
        cfg.imu.tpose_seconds,
        derive_rng(cfg.seed, "uwb", "tpose"),
        drop_prob=cfg.uwb.drop_prob,
        sigma_fn_for_round=tpose_sigma,
    )
    write_ranging_csv(out / "tpose_ranging.csv", ranging_t)
    written.append("tpose_ranging.csv")

    clips = generate_motion_suite(cfg.seed, cfg.motions.catalog, cfg.motions.duration_s, rate, skel)
    meta = []
    for idx, clip in enumerate(clips):
        cdir = out / clip.name
        cdir.mkdir(exist_ok=True)
        joint_pos, joint_rot = fk_batch(skel, clip.local_rot, clip.root_pos)
        sensor_pos, sensor_rot = mount_poses(placement.mounts, joint_pos, joint_rot)
        times = np.arange(clip.n_frames) / rate
        write_truth(cdir / "truth.jsonl", times, joint_pos, joint_rot, sensor_pos, sensor_rot)
        written.append(f"{clip.name}/truth.jsonl")
        mean_accel = float(np.linalg.norm(synthesize_accel(sensor_pos, dt=1.0 / rate), axis=2).mean())
        for s in range(N_SENSORS):
            stream = synthesize_imu(
                sensor_pos[:, s], sensor_rot[:, s], noise[s], derive_rng(cfg.seed, "imu", idx, s), dt=1.0 / rate
            )
            name = f"{clip.name}/imu_s{s}.csv"
            write_imu_csv(cdir / f"imu_s{s}.csv", stream)
            written.append(name)
        last = clip.n_frames - 1
        ranging = simulate_stream(
            lambda t: sensor_pos[min(int(round(t * rate)), last)],
            clocks,
            clip.duration,
            derive_rng(cfg.seed, "uwb", idx),
            drop_prob=cfg.uwb.drop_prob,
            sigma_fn_for_round=_occlusion_sigma_fn(cfg, skel, placement, joint_pos, sensor_pos, rate),
        )
        write_ranging_csv(cdir / "ranging.csv", ranging)
        written.append(f"{clip.name}/ranging.csv")
        meta.append(
            {
                "name": clip.name,
                "kind": clip.kind,
                "frames": clip.n_frames,
                "rate_hz": rate,
                "mean_accel_ms2": mean_accel,
            }
        )

    (out / CLIPS_FILE).write_text(json.dumps(meta, indent=2) + "\n")
    written.append(CLIPS_FILE)
    cfg.save(out / CONFIG_FILE)
    written.append(CONFIG_FILE)
    hashes = write_manifest(out, written)
    return {"clips": meta, "files": hashes}


def read_clip_meta(dataset_dir: str | Path) -> list[dict]:
    p = Path(dataset_dir) / CLIPS_FILE
    if not p.is_file():
        raise DataError(f"missing file {p}")
    try:
        meta = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{p} is not valid JSON: {exc}") from exc
    if not isinstance(meta, list) or not meta:
        raise DataError(f"{p}: expected a non-empty clip list")
    return meta


def _calibrate_imu(cfg: RunConfig, dataset: Path, srot_t) -> list[tuple[Vec3, Vec3]]:
    offsets = []
    for s in range(N_SENSORS):
        stream = read_imu_csv(dataset / f"tpose_imu_s{s}.csv")
        offsets.append(tpose_calibrate(stream, srot_t[s]))
    return offsets


def _calibrate_uwb(cfg: RunConfig, dataset: Path, spos_t) -> CalibrationResult:
    ranging = read_ranging_csv(dataset / "tpose_ranging.csv")
    raw, truth = [], []
    for i, j in PAIRS:
        d_true = float(np.linalg.norm(spos_t[i] - spos_t[j]))
        picked = ranging.valid[:, i, j]
        raw.extend(ranging.distances[picked, i, j])
        truth.extend([d_true] * int(picked.sum()))
    return ransac_affine_calibrate(
        np.array(raw), np.array(truth), derive_rng(cfg.seed, "uwb", "cal")
    )


def _local_rotations(skel: Skeleton, joint_rot: np.ndarray) -> np.ndarray:
    """Global truth orientations (T, J, 4) back to local 6D targets (T, J, 6)."""
    parents = [j.parent for j in skel.joints[1:]]
    local = joint_rot.copy()
    local[:, 1:] = qnormalize(qmul(qconj(joint_rot[:, parents]), joint_rot[:, 1:]))
    return rot6d_from_quat(local)


def _contact_labels(skel: Skeleton, joint_pos: np.ndarray, rate: float) -> np.ndarray:
    """Foot contact by ankle world speed below CONTACT_SPEED."""
    ankles = joint_pos[:, [skel.joint_index("l_ankle"), skel.joint_index("r_ankle")]]
    speed = np.linalg.norm(np.diff(ankles, axis=0), axis=-1) * rate
    return (np.append(speed, speed[-1:], axis=0) < CONTACT_SPEED).astype(float)


def _pelvis_frame_targets(sensor_pos: np.ndarray, sensor_rot: np.ndarray) -> np.ndarray:
    """Sensor positions (T, 6, 3) expressed in the pelvis sensor's frame."""
    return qrotate(qconj(sensor_rot[:, :1]), sensor_pos - sensor_pos[:, :1])


def filter_dataset(dataset_dir: str | Path, out_dir: str | Path, cfg: RunConfig | None = None) -> dict:
    """Orientation filter + EKF bank over a synthesized dataset.

    Writes per-clip model inputs (which carry the filtered distances) and
    training targets, plus the range calibration and a raw-vs-filtered
    RMSE diagnostic. Every ranging round inside the clip updates the bank
    on its nearest frame; rounds sharing a frame apply in round order.
    """
    dataset = Path(dataset_dir)
    verify_manifest(dataset)
    if cfg is None:
        cfg = load_config(dataset / CONFIG_FILE)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    skel, placement = _setup(cfg)
    rate = cfg.motions.rate_hz
    spos_t, srot_t = mount_poses(placement.mounts, *map(np.asarray, tpose(skel)))
    srot_t = [Quaternion(*q) for q in srot_t.tolist()]
    written: list[str] = []

    offsets = _calibrate_imu(cfg, dataset, srot_t)
    cal = _calibrate_uwb(cfg, dataset, spos_t)
    write_calibration(out / "calibration.json", cal)
    written.append("calibration.json")

    rmse_report: dict[str, dict] = {}
    meta = read_clip_meta(dataset)
    for entry in meta:
        name = entry["name"]
        cdir = dataset / name
        truth = read_truth(cdir / "truth.jsonl")
        frames = truth.times.shape[0]
        ranging = read_ranging_csv(cdir / "ranging.csv")

        # Orientation filter per sensor, seeded at the calibration pose.
        estimates = []
        for s in range(N_SENSORS):
            stream = read_imu_csv(cdir / f"imu_s{s}.csv")
            if len(stream) != frames:
                raise DataError(f"{name}: IMU stream s{s} has {len(stream)} frames, truth {frames}")
            gyro_off, accel_off = offsets[s]
            estimates.append(orientation_filter(stream, srot_t[s], cfg.imu.filter_gain, gyro_off, accel_off))
        quats = np.array([[e.q for e in est] for est in estimates]).swapaxes(0, 1)
        accel_w = np.array([[e.accel_world for e in est] for est in estimates]).swapaxes(0, 1)

        # Pair EKF bank on the IMU grid, measurement ticks at round times.
        # Input noise spans (a_i, a_j, q_i, q_j); orientation terms do not
        # reach the covariance, so only the accel entries carry sigma.
        sigma_u = np.concatenate([np.full(6, cfg.ekf.accel_noise), np.zeros(6)])
        bank = PairFilterBank(
            skel,
            placement,
            sigma_u=sigma_u,
            r_diag=(cfg.ekf.range_sigma, cfg.ekf.speed_sigma),
            dt=1.0 / rate,
            speed_mode=cfg.ekf.speed_mode,
        )
        d_cal = apply_calibration(ranging.distances, cal)
        round_frame = np.rint(ranging.times * rate).astype(int)
        rnd = 0
        d_stream = np.zeros((frames, N_SENSORS, N_SENSORS))
        mask_stream = np.zeros((frames, N_SENSORS, N_SENSORS), dtype=bool)
        for k in range(frames):
            bank.predict_all([(est[k].accel_world, est[k].q) for est in estimates])
            while rnd < len(round_frame) and round_frame[rnd] <= k:
                bank.update_all(d_cal[rnd], ranging.valid[rnd], float(truth.times[k]))
                rnd += 1
            d_stream[k], mask_stream[k] = bank.distance_matrix()

        cdir_out = out / name
        cdir_out.mkdir(exist_ok=True)
        write_model_input(
            cdir_out / "model_input.jsonl", truth.times, rot6d_from_quat(quats), accel_w, d_stream, mask_stream
        )
        targets_pos = _pelvis_frame_targets(truth.sensor_pos, np.asarray(truth.sensor_rot))
        targets_rot = _local_rotations(skel, np.asarray(truth.joint_rot))
        contacts = _contact_labels(skel, truth.joint_pos, rate)
        write_targets(cdir_out / "targets.jsonl", truth.times, targets_pos, targets_rot, contacts)
        written += [f"{name}/model_input.jsonl", f"{name}/targets.jsonl"]

        rmse_report[name] = _distance_rmse(
            truth.sensor_pos, ranging, cal, d_stream, mask_stream, rate
        )

    (out / "rmse_report.json").write_text(json.dumps(rmse_report, indent=2) + "\n")
    written.append("rmse_report.json")
    (out / CLIPS_FILE).write_text((dataset / CLIPS_FILE).read_text())
    written.append(CLIPS_FILE)
    cfg.save(out / CONFIG_FILE)
    written.append(CONFIG_FILE)
    write_manifest(out, written)
    return {"calibration": cal, "rmse": rmse_report}


def _distance_rmse(sensor_pos, ranging, cal, d_stream, mask_stream, rate) -> dict:
    """Per-pair RMSE of calibrated raw and filtered distances vs truth.

    Each round in the clip is scored at its nearest frame, for the pairs
    it measured (and, for filtered, the pairs the bank holds there).
    """
    frame = np.rint(ranging.times * rate).astype(int)
    inside = (frame >= 0) & (frame < sensor_pos.shape[0])
    frame = frame[inside]
    measured = ranging.valid[inside]
    raw = apply_calibration(ranging.distances[inside], cal)
    raw_rmse, filt_rmse = [], []
    for i, j in PAIRS:
        d_true = np.linalg.norm(sensor_pos[frame, i] - sensor_pos[frame, j], axis=1)
        hit = measured[:, i, j]
        held = hit & mask_stream[frame, i, j]
        raw_rmse.append(_rms(raw[hit, i, j] - d_true[hit]))
        filt_rmse.append(_rms(d_stream[frame, i, j][held] - d_true[held]))
    present = [v for v in filt_rmse if v is not None]
    present_raw = [v for v in raw_rmse if v is not None]
    return {
        "raw_rmse_m": raw_rmse,
        "filtered_rmse_m": filt_rmse,
        "mean_raw_m": float(np.mean(present_raw)) if present_raw else None,
        "mean_filtered_m": float(np.mean(present)) if present else None,
    }


def _rms(err: np.ndarray) -> float | None:
    return math.sqrt(np.mean(err * err)) if err.size else None


def load_windows(
    filtered_dirs: list[str | Path],
    window_frames: int,
    window_stride: int,
    no_distances: bool = False,
) -> list[TrainingWindow]:
    """Cut every clip of every filtered directory into training windows."""
    windows: list[TrainingWindow] = []
    for d in filtered_dirs:
        fdir = Path(d)
        verify_manifest(fdir)
        for entry in read_clip_meta(fdir):
            name = entry["name"]
            mi = read_model_input(fdir / name / "model_input.jsonl")
            tg = read_targets(fdir / name / "targets.jsonl")
            frames = mi["times"].shape[0]
            if tg["times"].shape[0] != frames:
                raise DataError(f"{name}: target stream length differs from model input")
            mask = np.zeros_like(mi["mask"]) if no_distances else mi["mask"]
            for start in range(0, frames - window_frames + 1, window_stride):
                stop = start + window_frames
                windows.append(
                    TrainingWindow(
                        r=mi["r"][start:stop],
                        a=mi["a"][start:stop],
                        d=mi["d"][start:stop],
                        valid=mask[start:stop],
                        positions=tg["positions"][start:stop],
                        rotations=tg["rotations"][start:stop],
                        contacts=tg["contacts"][start:stop],
                    )
                )
    if not windows:
        raise DataError(
            f"no training windows: streams shorter than window_frames={window_frames}"
        )
    return windows


def _net_config(cfg: RunConfig) -> PoseNetConfig:
    m = cfg.model
    return PoseNetConfig(
        lstm_hidden=m.lstm_hidden,
        lstm_layers=m.lstm_layers,
        gcn_width=m.gcn_width,
        gcn_layers=m.gcn_layers,
        decoder_hidden=m.decoder_hidden,
        accel_low=m.accel_low,
        accel_high=m.accel_high,
        lambda_distance=m.lambda_distance,
    )


def train_model(
    filtered_dirs: list[str | Path],
    out_dir: str | Path,
    cfg: RunConfig,
    no_distances: bool = False,
) -> tuple[PoseNetParams, list[dict]]:
    """Train on every window of the filtered directories; write a checkpoint."""
    windows = load_windows(
        filtered_dirs, cfg.model.window_frames, cfg.model.window_stride, no_distances
    )
    t = cfg.train
    train_cfg = TrainConfig(
        epochs=t.epochs,
        batch_size=t.batch_size,
        learning_rate=t.learning_rate,
        lr_decay=t.lr_decay,
        lr_decay_every=t.lr_decay_every,
        val_fraction=t.val_fraction,
        seed=cfg.seed,
    )
    params, log = train(windows, _net_config(cfg), train_cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params.save(out / "checkpoint.json")
    (out / "train_log.json").write_text(json.dumps(log, indent=2) + "\n")
    (out / "run.json").write_text(
        json.dumps({"no_distances": no_distances, "n_windows": len(windows)}, indent=2) + "\n"
    )
    cfg.save(out / CONFIG_FILE)
    write_manifest(out, ["checkpoint.json", "train_log.json", "run.json", CONFIG_FILE])
    return params, log


def evaluate_model(
    checkpoint: str | Path,
    filtered_dir: str | Path,
    truth_dir: str | Path,
    out_dir: str | Path,
    no_distances: bool = False,
) -> dict:
    """Run inference over each clip and score it against ground truth."""
    params = PoseNetParams.load(checkpoint)
    fdir = Path(filtered_dir)
    tdir = Path(truth_dir)
    verify_manifest(fdir)
    verify_manifest(tdir)
    cfg = load_config(tdir / CONFIG_FILE)
    skel, _ = _setup(cfg)
    sip_index = {name: skel.joint_index(name) for name in SIP_JOINTS}
    per_clip: list[ClipMetrics] = []
    for entry in read_clip_meta(fdir):
        name = entry["name"]
        rate = float(entry["rate_hz"])
        mi = read_model_input(fdir / name / "model_input.jsonl")
        truth = read_truth(tdir / name / "truth.jsonl")
        frames = mi["times"].shape[0]
        mask = np.zeros_like(mi["mask"]) if no_distances else mi["mask"]
        local = qfrom_rot6d(infer(params, mi["r"], mi["a"], mi["d"], mask).rotations)
        pred_pos, pred_rot = fk_batch(skel, local, np.zeros(3))
        truth_rot = np.asarray(truth.joint_rot)
        sip = sip_error(
            {n: pred_rot[:, i] for n, i in sip_index.items()},
            {n: truth_rot[:, i] for n, i in sip_index.items()},
        )
        pos = position_error(pred_pos, pred_rot[:, 0], truth.joint_pos, truth_rot[:, 0])
        jit = jitter(pred_pos, rate)
        rmse = _filtered_pair_rmse(mi, truth.sensor_pos)
        per_clip.append(
            ClipMetrics(
                name=name,
                mean_accel=float(entry["mean_accel_ms2"]),
                frames=frames,
                sip_error_deg=sip,
                pos_error_cm=pos,
                jitter_km_s3=jit,
                distance_rmse_m=rmse,
            )
        )

    reports = split_by_acceleration(per_clip)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report_json(out / "report.json", reports)
    write_report_csv(out / "report.csv", reports)
    clip_doc = [
        {
            "name": c.name,
            "mean_accel_ms2": c.mean_accel,
            "frames": c.frames,
            "sip_error_deg": c.sip_error_deg,
            "pos_error_cm": c.pos_error_cm,
            "jitter_km_s3": c.jitter_km_s3,
        }
        for c in per_clip
    ]
    (out / "clip_metrics.json").write_text(json.dumps(clip_doc, indent=2) + "\n")
    (out / "run.json").write_text(json.dumps({"no_distances": no_distances}, indent=2) + "\n")
    write_manifest(out, ["report.json", "report.csv", "clip_metrics.json", "run.json"])
    return {"reports": reports, "clips": per_clip}


def _filtered_pair_rmse(mi: dict, sensor_pos: np.ndarray) -> tuple[float, ...] | None:
    """Per-pair RMSE of the filtered distances against truth, if any."""
    frames = min(mi["times"].shape[0], sensor_pos.shape[0])
    out = []
    for i, j in PAIRS:
        truth_d = np.linalg.norm(sensor_pos[:frames, i] - sensor_pos[:frames, j], axis=1)
        picked = mi["mask"][:frames, i, j]
        if not picked.any():
            return None
        err = mi["d"][:frames, i, j][picked] - truth_d[picked]
        out.append(float(np.sqrt(np.mean(err**2))))
    return tuple(out)


def summarize_runs(run_dirs: list[str | Path]) -> str:
    """Text table over eval directories: one row per run and split."""
    header = f"{'run':<28} {'split':<8} {'sip_deg':>9} {'pos_cm':>9} {'jitter':>9}"
    lines = [header, "-" * len(header)]
    for d in run_dirs:
        reports = read_report_json(Path(d) / "report.json")
        for tag in ("overall", "slow", "fast"):
            if tag not in reports:
                continue
            r = reports[tag]
            lines.append(
                f"{Path(d).name:<28} {tag:<8} {r.sip_error_deg:>9.3f} "
                f"{r.pos_error_cm:>9.3f} {r.jitter_km_s3:>9.4f}"
            )
    return "\n".join(lines)
