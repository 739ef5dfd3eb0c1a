"""Pipeline stages behind the CLI: synth, filter, train, eval, report.

Each stage reads hashed inputs, derives every random stream from the run
seed, and writes text artifacts plus a manifest, so a stage rerun with
identical inputs reproduces identical bytes. No stage mutates its input
directory.
"""
from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, DataError
from .geometry import qconj, qfrom_rot6d, qmul, qnormalize, qrotate, rot6d_from_quat
from .imu import ImuNoiseModel, orientation_filter, synthesize_accel, synthesize_imu, tpose_calibrate
from .metrics import ClipMetrics, SIP_JOINTS, jitter, position_error, sip_error, split_by_acceleration
from .motions import generate_motion_suite
from .posenet import PoseNetParams, Windows, check_inputs, infer, train
from .rng import derive_rng
from .skeleton import (
    MotionClip,
    N_SENSORS,
    PAIR_I,
    PAIR_J,
    Skeleton,
    default_placement,
    default_skeleton,
    fk_batch,
    mount_poses,
    pairwise_occlusion,
    tpose,
)
from .storage import (
    MANIFEST_NAME,
    TruthData,
    finite_number,
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
    write_report_json,
    write_targets,
    write_truth,
)
from .uwb import (
    ROUND_PERIOD_S,
    CalibrationResult,
    RawDistanceStream,
    apply_calibration,
    occlusion_noise_sigma,
    ransac_affine_calibrate,
    round_times,
    sample_clocks,
    simulate_stream,
)
from .ekf import BodyShapeFilter

CLIPS_FILE = "clips.json"
CONFIG_FILE = "config.json"
RMSE_FILE = "rmse_report.json"
CONTACT_SPEED = 0.4  # m/s; slower ankles count as planted


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


def _round_sigma(cfg: RunConfig, skel, placement, joint_pos, sensor_pos) -> np.ndarray:
    """Range noise sigmas (..., 6, 6) by the body-occlusion ratio of each pair, one frame per round."""
    occ = pairwise_occlusion(skel, placement, joint_pos, sensor_pos)
    return occlusion_noise_sigma(occ, cfg.uwb.sigma_los, cfg.uwb.sigma_nlos)


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
    jp_t, jr_t = tpose(skel)
    spos_t, srot_t = mount_poses(placement.mounts, jp_t, jr_t)
    n_tpose = int(round(cfg.imu.tpose_seconds * rate))
    for s in range(N_SENSORS):
        pos, rot = np.tile(spos_t[s], (n_tpose, 1)), np.tile(srot_t[s], (n_tpose, 1))
        stream = synthesize_imu(pos, rot, noise[s], derive_rng(cfg.seed, "imu", "tpose", s), dt=1.0 / rate)
        name = f"tpose_imu_s{s}.csv"
        write_imu_csv(out / name, stream)
        written.append(name)
    ranging_t = simulate_stream(
        round_times(cfg.imu.tpose_seconds),
        spos_t,
        clocks,
        derive_rng(cfg.seed, "uwb", "tpose"),
        drop_prob=cfg.uwb.drop_prob,
        sigma=_round_sigma(cfg, skel, placement, jp_t, spos_t),
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
        starts = round_times(clip.duration)
        frame = np.minimum(np.rint(starts * rate).astype(int), clip.n_frames - 1)
        ranging = simulate_stream(
            starts,
            sensor_pos[frame],
            clocks,
            derive_rng(cfg.seed, "uwb", idx),
            drop_prob=cfg.uwb.drop_prob,
            sigma=_round_sigma(cfg, skel, placement, joint_pos[frame], sensor_pos[frame]),
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


def _read_json(p: Path):
    if not p.is_file():
        raise DataError(f"missing file {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{p} is not valid JSON: {exc}") from exc


class _Listed:
    """An input directory with its manifest verified; `file` refuses a name it does not list."""

    def __init__(self, directory: str | Path):
        self.dir = Path(directory)
        self.files = verify_manifest(self.dir)

    def file(self, name: str) -> Path:
        if name not in self.files:
            raise DataError(f"{self.dir / name} is not listed in {self.dir / MANIFEST_NAME}")
        return self.dir / name


def _clip_entry_problem(entry, seen: set[str]) -> str | None:
    """What makes one clips.json entry unusable, or None."""
    if not isinstance(entry, dict):
        return "not an object"
    name = entry.get("name")
    if not isinstance(name, str) or not re.fullmatch(r"[^/\\\0]+", name) or name in (".", ".."):
        return f"name {name!r} is not a plain directory name"
    if name in seen:
        return f"name {name!r} repeats an earlier entry"
    rate = entry.get("rate_hz")
    if not (finite_number(rate) and rate > 0):
        return f"rate_hz {rate!r} is not a positive finite number"
    if not finite_number(entry.get("mean_accel_ms2")):
        return f"mean_accel_ms2 {entry.get('mean_accel_ms2')!r} is not a finite number"
    return None


def read_clip_meta(path: str | Path) -> list[dict]:
    """The clip list of a clips.json file; a DataError names the file and the
    first entry without a plain, unrepeated directory `name`, a positive
    finite `rate_hz` and a finite `mean_accel_ms2`."""
    p = Path(path)
    meta = _read_json(p)
    if not isinstance(meta, list) or not meta:
        raise DataError(f"{p}: expected a non-empty clip list")
    seen: set[str] = set()
    for k, entry in enumerate(meta):
        problem = _clip_entry_problem(entry, seen)
        if problem:
            raise DataError(f"{p}: clip entry {k}: {problem}")
        seen.add(entry["name"])
    return meta


def _calibrate_imu(dataset: _Listed, srot_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sensor gyro and accel offsets, each (6, 3), from the T-pose streams."""
    offsets = [tpose_calibrate(read_imu_csv(dataset.file(f"tpose_imu_s{s}.csv")), srot_t[s]) for s in range(N_SENSORS)]
    gyro_off, accel_off = (np.array(o) for o in zip(*offsets))
    return gyro_off, accel_off


def _read_clip_truth(path: Path, skel: Skeleton, frames: int | None = None) -> TruthData:
    """The truth stream of one clip, checked against the skeleton (and a frame count)."""
    truth = read_truth(path)
    if truth.joint_pos.shape[1] != skel.n_joints:
        raise DataError(f"{path}: {truth.joint_pos.shape[1]} joints per frame, the skeleton has {skel.n_joints}")
    if frames is not None and truth.times.shape[0] != frames:
        raise DataError(f"{path}: {truth.times.shape[0]} frames, the model input has {frames}")
    return truth


def _read_rounds(path: Path, duration_s: float, what: str) -> RawDistanceStream:
    """A ranging file, which must hold exactly the rounds `round_times` gives for duration_s."""
    ranging = read_ranging_csv(path)
    expected = round_times(duration_s)
    if not np.array_equal(ranging.times, expected):
        raise DataError(
            f"{path}: {ranging.times.size} rounds, {what} needs {expected.size}, one every {ROUND_PERIOD_S:g} s from 0"
        )
    return ranging


def _calibrate_uwb(cfg: RunConfig, dataset: _Listed, spos_t) -> CalibrationResult:
    seconds = cfg.imu.tpose_seconds
    ranging = _read_rounds(dataset.file("tpose_ranging.csv"), seconds, f"the {seconds:g} s T-pose")
    # Every valid T-pose range against its static truth, pair-major.
    picked = ranging.valid[:, PAIR_I, PAIR_J].T
    raw = ranging.distances[:, PAIR_I, PAIR_J].T[picked]
    d_true = np.linalg.norm(spos_t[PAIR_I] - spos_t[PAIR_J], axis=1)
    truth = np.broadcast_to(d_true[:, None], picked.shape)[picked]
    return ransac_affine_calibrate(raw, truth, derive_rng(cfg.seed, "uwb", "cal"))


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


def _read_clip_sensors(dataset: _Listed, name: str, rate: float) -> tuple[np.ndarray, np.ndarray, RawDistanceStream]:
    """A clip's raw accel and gyro samples, each (T, 6, 3), and its ranging rounds."""
    streams = [read_imu_csv(dataset.file(f"{name}/imu_s{s}.csv")) for s in range(N_SENSORS)]
    frames = len(streams[0])
    for s, stream in enumerate(streams):
        if len(stream) != frames:
            raise DataError(f"{name}: IMU stream s{s} has {len(stream)} frames, s0 {frames}")
    what = f"clip {name} ({frames} frames at {rate:g} Hz)"
    ranging = _read_rounds(dataset.file(f"{name}/ranging.csv"), frames / rate, what)
    return np.stack([st.accel for st in streams], axis=1), np.stack([st.gyro for st in streams], axis=1), ranging


def filter_dataset(dataset_dir: str | Path, out_dir: str | Path) -> dict:
    """Orientation filter + body-shape EKF over a synthesized dataset.

    Every setting (skeleton, rate, filter gains, calibration seed) comes
    from the config the dataset was synthesized with, which is copied to
    the output. Writes per-clip model inputs (which carry the smoothed
    distances) and training targets, plus the range calibration and a
    raw-vs-smoothed RMSE diagnostic (its `filtered` entries score the
    distances the model input carries). Each ranging file (T-pose and
    clips) must hold exactly the rounds `round_times` gives for its
    duration. Every round updates the filter on its nearest frame; rounds
    sharing a frame apply in round order. After the causal pass, the RTS
    smoother runs backward over each whole clip.

    The sensor files of every clip are read first. Clips of equal frame
    count (all clips of a synthesized dataset) share one orientation
    filter call and one stacked body-shape filter, which give each clip
    the bytes it would get alone; truth is then read, and targets and the
    RMSE written, one clip at a time.
    """
    dataset = _Listed(dataset_dir)
    cfg = load_config(dataset.file(CONFIG_FILE))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    skel, placement = _setup(cfg)
    rate = cfg.motions.rate_hz
    spos_t, srot_t = mount_poses(placement.mounts, *tpose(skel))
    written: list[str] = []

    gyro_off, accel_off = _calibrate_imu(dataset, srot_t)
    cal = _calibrate_uwb(cfg, dataset, spos_t)
    write_calibration(out / "calibration.json", cal)
    written.append("calibration.json")

    names = [entry["name"] for entry in read_clip_meta(dataset.file(CLIPS_FILE))]
    sensors = [_read_clip_sensors(dataset, name, rate) for name in names]
    groups: dict[int, list[int]] = {}
    for c, (accel, _, _) in enumerate(sensors):
        groups.setdefault(accel.shape[0], []).append(c)

    filtered: list[tuple] = [()] * len(names)
    # A diverging filter overflows on its way to non-finite; its
    # DivergenceError reports it, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for members in groups.values():
            # One orientation filter over (T, C, 6) sensors, seeded at the calibration pose.
            quats, accel_w = orientation_filter(
                np.stack([sensors[c][0] for c in members], axis=1),
                np.stack([sensors[c][1] for c in members], axis=1),
                srot_t,
                cfg.imu.filter_gain,
                gyro_off,
                accel_off,
                dt=1.0 / rate,
            )
            # One body-shape filter over the C clips on the IMU grid; equal frame
            # counts mean equal round times, so the rounds are shared.
            rounds = [sensors[c][2] for c in members]
            shape_filter = BodyShapeFilter(
                skel, placement, cfg.ekf.accel_noise, cfg.ekf.range_sigma, dt=1.0 / rate, clips=len(members)
            )
            shape_filter.run(
                accel_w,
                np.rint(rounds[0].times * rate).astype(int),
                np.stack([apply_calibration(r.distances, cal) for r in rounds], axis=1),
                np.stack([r.valid for r in rounds], axis=1),
                names=[names[c] for c in members],
            )
            d_stream = shape_filter.smooth()
            for k, c in enumerate(members):
                filtered[c] = (quats[:, k], accel_w[:, k], d_stream[:, k])

    rmse_report: dict[str, dict] = {}
    for name, (_, _, ranging), (quats, accel_w, d_stream) in zip(names, sensors, filtered):
        truth = _read_clip_truth(dataset.file(f"{name}/truth.jsonl"), skel, quats.shape[0])
        cdir_out = out / name
        cdir_out.mkdir(exist_ok=True)
        write_model_input(cdir_out / "model_input.jsonl", truth.times, rot6d_from_quat(quats), accel_w, d_stream)
        targets_pos = _pelvis_frame_targets(truth.sensor_pos, truth.sensor_rot)
        targets_rot = _local_rotations(skel, truth.joint_rot)
        contacts = _contact_labels(skel, truth.joint_pos, rate)
        write_targets(cdir_out / "targets.jsonl", truth.times, targets_pos, targets_rot, contacts)
        written += [f"{name}/model_input.jsonl", f"{name}/targets.jsonl"]

        rmse_report[name] = _distance_rmse(truth.sensor_pos, ranging, cal, d_stream, rate)

    (out / RMSE_FILE).write_text(json.dumps(rmse_report, indent=2) + "\n")
    written.append(RMSE_FILE)
    (out / CLIPS_FILE).write_text(dataset.file(CLIPS_FILE).read_text())
    written.append(CLIPS_FILE)
    cfg.save(out / CONFIG_FILE)
    written.append(CONFIG_FILE)
    write_manifest(out, written)
    return {"calibration": cal, "rmse": rmse_report}


def _distance_rmse(sensor_pos, ranging, cal, d_stream, rate) -> dict:
    """Per-pair RMSE of calibrated raw and model-input distances vs truth.

    Each round in the clip is scored at its nearest frame, for the pairs
    it measured.
    """
    frame = np.rint(ranging.times * rate).astype(int)
    inside = (frame >= 0) & (frame < sensor_pos.shape[0])
    frame = frame[inside]
    measured = ranging.valid[inside]
    raw = apply_calibration(ranging.distances[inside], cal)
    raw_rmse, filt_rmse = [], []
    for i, j in zip(PAIR_I, PAIR_J):
        d_true = np.linalg.norm(sensor_pos[frame, i] - sensor_pos[frame, j], axis=1)
        hit = measured[:, i, j]
        raw_rmse.append(_rms(raw[hit, i, j] - d_true[hit]))
        filt_rmse.append(_rms(d_stream[frame, i, j][hit] - d_true[hit]))
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


def _read_network_input(directory: _Listed, name: str, no_distances: bool) -> tuple[np.ndarray, ...]:
    """A clip's model input (r, a, d, valid), as check_inputs returns it. The
    ablation (`no_distances`) clears the mask and keeps the distances; a bad
    frame is a DataError naming the file and the frame."""
    path = directory.file(f"{name}/model_input.jsonl")
    mi = read_model_input(path)
    mask = np.zeros_like(mi["mask"]) if no_distances else mi["mask"]
    try:
        return check_inputs(mi["r"], mi["a"], mi["d"], mask)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_windows(
    filtered_dirs: list[str | Path],
    window_frames: int,
    window_stride: int,
    no_distances: bool = False,
) -> Windows:
    """Cut every clip of every filtered directory into training windows.

    A clip of T frames gives the windows that start at 0, window_stride,
    ... and fit whole. Each clip is cut with one (windows, window_frames)
    frame-index array, and the windows of every clip, in directory and
    clip order, are stacked into one Windows.
    """
    clips: list[list[np.ndarray]] = []
    for d in filtered_dirs:
        fdir = _Listed(d)
        for entry in read_clip_meta(fdir.file(CLIPS_FILE)):
            name = entry["name"]
            inputs = _read_network_input(fdir, name, no_distances)
            tg = read_targets(fdir.file(f"{name}/targets.jsonl"))
            frames = inputs[0].shape[0]
            if tg["times"].shape[0] != frames:
                raise DataError(f"{name}: target stream length differs from model input")
            starts = np.arange(0, frames - window_frames + 1, window_stride)
            index = starts[:, None] + np.arange(window_frames)
            clips.append([arr[index] for arr in (*inputs, tg["positions"], tg["rotations"], tg["contacts"])])
    if not any(len(fields[0]) for fields in clips):
        raise DataError(f"no training windows: streams shorter than window_frames={window_frames}")
    return Windows(*(np.concatenate(field) for field in zip(*clips)))


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
    params, log = train(windows, cfg.model.network(), cfg.train, seed=cfg.seed)
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
    """Run inference over each clip and score it against ground truth.

    The checkpoint must be listed in, and match, the manifest of its
    directory, which `train_model` writes next to it.
    """
    checkpoint = Path(checkpoint)
    params = PoseNetParams.load(_Listed(checkpoint.parent).file(checkpoint.name))
    fdir = _Listed(filtered_dir)
    tdir = _Listed(truth_dir)
    cfg = load_config(tdir.file(CONFIG_FILE))
    skel, _ = _setup(cfg)
    sip_index = {name: skel.joint_index(name) for name in SIP_JOINTS}
    rmse_file = fdir.file(RMSE_FILE)
    rmse_report = _read_json(rmse_file)
    per_clip: list[ClipMetrics] = []
    for entry in read_clip_meta(fdir.file(CLIPS_FILE)):
        name = entry["name"]
        rate = float(entry["rate_hz"])
        inputs = _read_network_input(fdir, name, no_distances)
        frames = inputs[0].shape[0]
        truth = _read_clip_truth(tdir.file(f"{name}/truth.jsonl"), skel, frames)
        local = qfrom_rot6d(infer(params, *inputs).rotations)
        pred_pos, pred_rot = fk_batch(skel, local, np.zeros(3))
        sip = sip_error(
            {n: pred_rot[:, i] for n, i in sip_index.items()},
            {n: truth.joint_rot[:, i] for n, i in sip_index.items()},
        )
        pos = position_error(pred_pos, pred_rot[:, 0], truth.joint_pos, truth.joint_rot[:, 0])
        jit = jitter(pred_pos, rate)
        try:
            rmse = tuple(rmse_report[name]["filtered_rmse_m"])
            if len(rmse) != PAIR_I.size:
                raise ValueError(f"{len(rmse)} pairs")
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{rmse_file}: bad filtered_rmse_m for clip {name}: {exc}") from exc
        per_clip.append(
            ClipMetrics(
                name=name,
                mean_accel=float(entry["mean_accel_ms2"]),
                frames=frames,
                sip_error_deg=sip,
                pos_error_cm=pos,
                jitter_km_s3=jit,
                distance_rmse_m=None if None in rmse else rmse,
            )
        )

    reports = split_by_acceleration(per_clip)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report_json(out / "report.json", reports)
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
    write_manifest(out, ["report.json", "clip_metrics.json", "run.json"])
    return {"reports": reports, "clips": per_clip}


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
