"""End-to-end stage behavior on a desk-scale dataset."""
import dataclasses
import json
import shutil
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
from uip import pipeline
from uip.config import load_config
from uip.ekf import PairFilterBank
from uip.errors import DataError
from uip.geometry import qconj, qfrom_rot6d, qmul, qnormalize, rot6d_from_quat
from uip.imu import orientation_filter, tpose_calibrate
from uip.pipeline import (
    _distance_rmse,
    evaluate_model,
    filter_dataset,
    load_windows,
    read_clip_meta,
    summarize_runs,
    synthesize_dataset,
    train_model,
)
from uip.posenet import PoseNetConfig, PoseNetParams
from uip.skeleton import default_placement, default_skeleton, mount_poses, tpose
from uip.storage import (
    read_calibration,
    read_imu_csv,
    read_manifest,
    read_ranging_csv,
    read_targets,
    read_truth,
    verify_manifest,
    write_manifest,
    write_model_input,
)
from uip.uwb import apply_calibration

SMALL = RunConfig(
    seed=19,
    motions=MotionSettings(catalog=("walk", "idle"), duration_s=3.0, rate_hz=25.0),
    imu=ImuSettings(tpose_seconds=1.2),
    uwb=UwbSettings(drop_prob=0.05),
    model=ModelSettings(
        lstm_hidden=4, lstm_layers=1, gcn_width=4, gcn_layers=1, decoder_hidden=4,
        window_frames=16, window_stride=8,
    ),
    train=TrainSettings(epochs=1, batch_size=8, val_fraction=0.0),
)
FRAMES = 75  # 3 s at 25 Hz
WINDOWS = 2 * 8  # two clips, starts 0..56 step 8


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    data = root / "dataset"
    filt = root / "filtered"
    synthesize_dataset(SMALL, data)
    filter_dataset(data, filt)
    return SimpleNamespace(root=root, data=data, filt=filt)


@pytest.fixture(scope="module")
def trained(pipe):
    out = pipe.root / "train"
    train_model([pipe.filt], out, SMALL)
    return out


def test_synth_layout_and_inventory(pipe):
    verify_manifest(pipe.data)
    meta = read_clip_meta(pipe.data)
    assert [m["kind"] for m in meta] == ["walk", "idle"]
    assert all(m["frames"] == FRAMES for m in meta)
    assert all(m["mean_accel_ms2"] > 0.0 for m in meta)
    for s in range(6):
        assert (pipe.data / f"tpose_imu_s{s}.csv").is_file()
    assert (pipe.data / "tpose_ranging.csv").is_file()
    assert (pipe.data / "config.json").is_file()
    for m in meta:
        cdir = pipe.data / m["name"]
        assert (cdir / "truth.jsonl").is_file()
        assert (cdir / "ranging.csv").is_file()
        for s in range(6):
            assert (cdir / f"imu_s{s}.csv").is_file()


def test_synth_is_deterministic(pipe, tmp_path):
    synthesize_dataset(SMALL, tmp_path / "again")
    assert read_manifest(tmp_path / "again") == read_manifest(pipe.data)


def test_filter_refuses_tampered_input(pipe, tmp_path):
    copy = tmp_path / "poisoned"
    shutil.copytree(pipe.data, copy)
    with open(copy / "tpose_ranging.csv", "a") as f:
        f.write("junk\n")
    with pytest.raises(DataError, match="stale or modified"):
        filter_dataset(copy, tmp_path / "out")


def test_filter_outputs(pipe):
    verify_manifest(pipe.filt)
    cal = read_calibration(pipe.filt / "calibration.json")
    assert cal.inliers > 0
    report = json.loads((pipe.filt / "rmse_report.json").read_text())
    for m in read_clip_meta(pipe.filt):
        cdir = pipe.filt / m["name"]
        for stem in ("model_input", "targets"):
            assert (cdir / f"{stem}.jsonl").is_file()
        row = report[m["name"]]
        assert len(row["raw_rmse_m"]) == 15
        assert len(row["filtered_rmse_m"]) == 15
        assert row["mean_filtered_m"] is not None


def test_filter_applies_every_round_below_the_round_rate(tmp_path, monkeypatch):
    # At 20 Hz a 2 s clip has 40 frames and 50 rounds (25 Hz): ten frames
    # carry two rounds each, and both must reach the bank, in round order.
    cfg = dataclasses.replace(
        SMALL, motions=MotionSettings(catalog=("walk",), duration_s=2.0, rate_hz=20.0)
    )
    synthesize_dataset(cfg, tmp_path / "data")
    frames, ticks, ranges = [], [], []
    predict_all, update_all = PairFilterBank.predict_all, PairFilterBank.update_all

    def counted_predict(bank, accel):
        frames.append(len(frames))
        predict_all(bank, accel)

    def counted_update(bank, distances, valid):
        ticks.append(frames[-1])
        ranges.append(distances)
        update_all(bank, distances, valid)

    monkeypatch.setattr(PairFilterBank, "predict_all", counted_predict)
    monkeypatch.setattr(PairFilterBank, "update_all", counted_update)
    filter_dataset(tmp_path / "data", tmp_path / "filt")
    assert len(frames) == 40
    assert len(ticks) == 50
    assert len(set(ticks)) == 40
    assert ticks == sorted(ticks)
    name = read_clip_meta(tmp_path / "data")[0]["name"]
    ranging = read_ranging_csv(tmp_path / "data" / name / "ranging.csv")
    cal = read_calibration(tmp_path / "filt" / "calibration.json")
    # The one clip is the clip axis of a one-clip bank: ranges arrive as (1, 6, 6).
    assert np.array_equal(np.array(ranges)[:, 0], apply_calibration(ranging.distances, cal))


def _filter_reference(data, filt, out) -> dict:
    """Each clip's model_input.jsonl (written under out) and RMSE row, from
    its own orientation filter call and its own one-clip bank."""
    cfg = load_config(data / "config.json")
    skel = default_skeleton(cfg.skeleton.height_m)
    placement = default_placement(skel)
    rate = cfg.motions.rate_hz
    _, srot_t = mount_poses(placement.mounts, *tpose(skel))
    offsets = [tpose_calibrate(read_imu_csv(data / f"tpose_imu_s{s}.csv"), srot_t[s]) for s in range(6)]
    gyro_off, accel_off = (np.array(o) for o in zip(*offsets))
    cal = read_calibration(filt / "calibration.json")
    sigma_u = np.concatenate([np.full(6, cfg.ekf.accel_noise), np.zeros(6)])
    report = {}
    for m in read_clip_meta(data):
        name = m["name"]
        streams = [read_imu_csv(data / name / f"imu_s{s}.csv") for s in range(6)]
        quats, accel_w = orientation_filter(
            np.stack([st.accel for st in streams], axis=1),
            np.stack([st.gyro for st in streams], axis=1),
            srot_t, cfg.imu.filter_gain, gyro_off, accel_off, dt=1.0 / rate,
        )
        ranging = read_ranging_csv(data / name / "ranging.csv")
        bank = PairFilterBank(
            skel, placement, sigma_u, (cfg.ekf.range_sigma, cfg.ekf.speed_sigma), dt=1.0 / rate, clips=1
        )
        d, mask = bank.run(
            accel_w[:, None],
            np.rint(ranging.times * rate).astype(int),
            apply_calibration(ranging.distances, cal)[:, None],
            ranging.valid[:, None],
        )
        d, mask = d[:, 0], mask[:, 0]
        truth = read_truth(data / name / "truth.jsonl")
        write_model_input(out / f"{name}.jsonl", truth.times, rot6d_from_quat(quats), accel_w, d, mask)
        report[name] = _distance_rmse(truth.sensor_pos, ranging, cal, d, mask, rate)
    return report


def _assert_filter_matches_reference(data, filt, out) -> None:
    out.mkdir()
    report = _filter_reference(data, filt, out)
    for name in report:
        assert (filt / name / "model_input.jsonl").read_bytes() == (out / f"{name}.jsonl").read_bytes(), name
    assert (filt / "rmse_report.json").read_text() == json.dumps(report, indent=2) + "\n"


def test_filter_matches_per_clip_filters(pipe, tmp_path):
    # Both clips share one stacked orientation filter call and one bank.
    _assert_filter_matches_reference(pipe.data, pipe.filt, tmp_path / "ref")


def test_filter_groups_clips_by_frame_count(pipe, tmp_path, monkeypatch):
    # Graft a 2 s squat clip (50 frames) between the two 3 s clips (75
    # frames) of the same seed: the 3 s clips share a filter call and a
    # bank, the squat gets its own, and every output is the per-clip one.
    short = dataclasses.replace(SMALL, motions=dataclasses.replace(SMALL.motions, catalog=("squat",), duration_s=2.0))
    synthesize_dataset(short, tmp_path / "short")
    data = tmp_path / "data"
    shutil.copytree(pipe.data, data)
    shutil.copytree(tmp_path / "short" / "clip_000_squat", data / "clip_002_squat")
    meta = read_clip_meta(data)
    (squat,) = read_clip_meta(tmp_path / "short")
    meta.insert(1, {**squat, "name": "clip_002_squat"})
    (data / "clips.json").write_text(json.dumps(meta, indent=2) + "\n")
    files = list(read_manifest(data))
    files += [f"clip_002_squat/{p.name}" for p in (data / "clip_002_squat").iterdir()]
    write_manifest(data, files)

    shapes = []

    def counted_filter(accel, *args, **kwargs):
        shapes.append(accel.shape)
        return orientation_filter(accel, *args, **kwargs)

    monkeypatch.setattr(pipeline, "orientation_filter", counted_filter)
    filter_dataset(data, tmp_path / "filt")
    assert shapes == [(FRAMES, 2, 6, 3), (50, 1, 6, 3)]
    assert list(json.loads((tmp_path / "filt" / "rmse_report.json").read_text())) == [m["name"] for m in meta]
    _assert_filter_matches_reference(data, tmp_path / "filt", tmp_path / "ref")


def test_window_math_and_ablation(pipe):
    windows = load_windows([pipe.filt], 16, 8)
    assert len(windows) == WINDOWS
    assert all(w.frames == 16 for w in windows)
    assert any(w.valid.any() for w in windows)
    starved = load_windows([pipe.filt], 16, 8, no_distances=True)
    assert not any(w.valid.any() for w in starved)
    # distances themselves stay in place; only the mask is cleared
    assert np.array_equal(starved[0].d, windows[0].d)
    with pytest.raises(DataError, match="window_frames"):
        load_windows([pipe.filt], 200, 8)


def test_targets_pin_pelvis_sensor_at_origin(pipe):
    for m in read_clip_meta(pipe.filt):
        tg = read_targets(pipe.filt / m["name"] / "targets.jsonl")
        assert np.array_equal(tg["positions"][:, 0], np.zeros((FRAMES, 3)))


def test_target_rotations_recover_truth_locals(pipe):
    from uip.skeleton import default_skeleton

    skel = default_skeleton(SMALL.skeleton.height_m)
    name = read_clip_meta(pipe.filt)[0]["name"]
    tg = read_targets(pipe.filt / name / "targets.jsonl")
    truth = read_truth(pipe.data / name / "truth.jsonl")
    for k in (0, FRAMES // 2, FRAMES - 1):
        for j in range(skel.n_joints):
            parent = skel.joints[j].parent
            if parent < 0:
                local = truth.joint_rot[k, j]
            else:
                local = qnormalize(qmul(qconj(truth.joint_rot[k, parent]), truth.joint_rot[k, j]))
            assert np.allclose(tg["rotations"][k, j], rot6d_from_quat(local), atol=1e-9)
            back = qfrom_rot6d(tg["rotations"][k, j])
            dot = abs(float(back @ local))
            assert dot > 1.0 - 1e-9


def test_contact_labels_follow_ankle_speed(pipe):
    by_kind = {m["kind"]: m["name"] for m in read_clip_meta(pipe.filt)}
    idle = read_targets(pipe.filt / by_kind["idle"] / "targets.jsonl")
    assert np.array_equal(idle["contacts"], np.ones((FRAMES, 2)))
    walk = read_targets(pipe.filt / by_kind["walk"] / "targets.jsonl")
    assert (walk["contacts"] == 0.0).any()
    assert (walk["contacts"] == 1.0).any()


def test_train_artifacts(pipe, trained):
    verify_manifest(trained)
    run = json.loads((trained / "run.json").read_text())
    assert run == {"no_distances": False, "n_windows": WINDOWS}
    params = PoseNetParams.load(trained / "checkpoint.json")
    assert params.config.lstm_hidden == 4
    log = json.loads((trained / "train_log.json").read_text())
    assert len(log) == 1


def test_checkpoint_records_the_architecture_only(trained):
    # The checkpoint's config block is PoseNetConfig, field for field:
    # the windowing settings of the `model` section stay out of it.
    block = json.loads((trained / "checkpoint.json").read_text())["config"]
    assert list(block) == [f.name for f in dataclasses.fields(PoseNetConfig)]
    assert block == dataclasses.asdict(SMALL.model.network())


def test_eval_outputs_and_determinism(pipe, trained):
    ckpt = trained / "checkpoint.json"
    out_a = pipe.root / "eval_a"
    out_b = pipe.root / "eval_b"
    res = evaluate_model(ckpt, pipe.filt, pipe.data, out_a)
    evaluate_model(ckpt, pipe.filt, pipe.data, out_b)
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    verify_manifest(out_a)
    assert "overall" in res["reports"]
    clip_doc = json.loads((out_a / "clip_metrics.json").read_text())
    assert [c["name"] for c in clip_doc] == [m["name"] for m in read_clip_meta(pipe.filt)]
    run = json.loads((out_a / "run.json").read_text())
    assert run == {"no_distances": False}


def test_eval_distance_rmse_is_the_filter_stages(trained, tmp_path):
    # With one clip, report.json's per-pair filtered-distance RMSE is the
    # one the filter stage wrote to rmse_report.json for that clip.
    cfg = dataclasses.replace(SMALL, motions=dataclasses.replace(SMALL.motions, catalog=("walk",)))
    synthesize_dataset(cfg, tmp_path / "data")
    filter_dataset(tmp_path / "data", tmp_path / "filt")
    evaluate_model(trained / "checkpoint.json", tmp_path / "filt", tmp_path / "data", tmp_path / "eval")
    (row,) = json.loads((tmp_path / "filt" / "rmse_report.json").read_text()).values()
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert report["overall"]["distance_rmse_m"] == pytest.approx(row["filtered_rmse_m"], rel=1e-15, abs=0.0)


def test_truth_must_match_the_skeleton_and_the_model_input(pipe, trained, tmp_path):
    name = read_clip_meta(pipe.data)[0]["name"]

    def rewrite(edit):
        data = tmp_path / "data"
        if data.exists():
            shutil.rmtree(data)
        shutil.copytree(pipe.data, data)
        path = data / name / "truth.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(json.dumps(r) + "\n" for r in edit(records)))
        write_manifest(data, list(read_manifest(data)))
        return data

    def drop_joint(records):
        for r in records:
            r["joints"].pop()
        return records

    data = rewrite(drop_joint)
    with pytest.raises(DataError, match="14 joints per frame, the skeleton has 15"):
        filter_dataset(data, tmp_path / "filt")
    with pytest.raises(DataError, match="14 joints per frame"):
        evaluate_model(trained / "checkpoint.json", pipe.filt, data, tmp_path / "eval")
    data = rewrite(lambda records: records[:-1])
    with pytest.raises(DataError, match=f"{FRAMES - 1} frames, the model input has {FRAMES}"):
        evaluate_model(trained / "checkpoint.json", pipe.filt, data, tmp_path / "eval")


def test_summarize_runs_table(pipe, trained):
    out = pipe.root / "eval_a"
    if not (out / "report.json").is_file():
        evaluate_model(trained / "checkpoint.json", pipe.filt, pipe.data, out)
    table = summarize_runs([out])
    assert "eval_a" in table
    assert "overall" in table
    assert table.splitlines()[0].startswith("run")
