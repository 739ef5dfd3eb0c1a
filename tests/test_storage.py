"""On-disk formats: bitwise roundtrips, manifest guarding, error context."""
import csv
import json
import math

import numpy as np
import pytest

from uip.errors import ContractViolationError, DataError
from uip.geometry import qnormalize
from uip.imu import ImuStream
from uip.metrics import MetricReport
from uip.rng import derive_rng
from uip.skeleton import PAIR_I, PAIR_J
from uip.storage import (
    IMU_HEADER,
    RANGING_HEADER,
    read_calibration,
    read_imu_csv,
    read_jsonl,
    read_manifest,
    read_model_input,
    read_ranging_csv,
    read_records,
    read_report_json,
    read_targets,
    read_truth,
    record_dtype,
    verify_manifest,
    write_calibration,
    write_imu_csv,
    write_jsonl,
    write_manifest,
    write_model_input,
    write_ranging_csv,
    write_records,
    write_report_json,
    write_targets,
    write_truth,
)
from uip.uwb import CalibrationResult, RawDistanceStream

AWKWARD = np.array([0.1 + 0.2, math.pi, 1e-300, 1.0 / 3.0, 6.02e23, 5e-324])


def test_jsonl_errors_carry_file_and_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n{"b": 2}\n{broken\n')
    with pytest.raises(DataError, match=r"rows\.jsonl:3"):
        read_jsonl(path)
    with pytest.raises(DataError, match="missing"):
        read_jsonl(tmp_path / "absent.jsonl")


def test_jsonl_roundtrip_skips_blank_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"x": 1}, {"x": 2}])
    with open(path, "a") as f:
        f.write("\n")
    assert read_jsonl(path) == [{"x": 1}, {"x": 2}]


def test_imu_csv_roundtrip_is_bitwise(tmp_path):
    rng = derive_rng(51, "storage", "imu")
    t = np.arange(4) * 0.01
    stream = ImuStream(
        t=t,
        accel=np.concatenate([AWKWARD, rng.normal(size=6)]).reshape(4, 3),
        gyro=rng.normal(size=(4, 3)) * 1e-7,
    )
    path = tmp_path / "imu.csv"
    write_imu_csv(path, stream)
    back = read_imu_csv(path)
    assert back.t.tobytes() == stream.t.tobytes()
    assert back.accel.tobytes() == stream.accel.tobytes()
    assert back.gyro.tobytes() == stream.gyro.tobytes()


def test_imu_csv_rejects_garbage(tmp_path):
    path = tmp_path / "imu.csv"
    path.write_text("t,ax,ay,az,gx,gy,gz\n0.0,1,2,3,4,5,banana\n")
    with pytest.raises(DataError):
        read_imu_csv(path)
    path.write_text("wrong,header\n")
    with pytest.raises(DataError):
        read_imu_csv(path)
    # numbers that parse but are not samples: named by file and line
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"t,ax,ay,az,gx,gy,gz\n0.0,1,2,3,4,5,6\n0.01,1,{bad},3,4,5,6\n")
        with pytest.raises(DataError, match=r"imu\.csv:3: non-finite"):
            read_imu_csv(path)


def test_ranging_csv_roundtrip(tmp_path):
    rng = derive_rng(52, "storage", "uwb")
    rounds = 3
    d = np.zeros((rounds, 6, 6))
    valid = np.zeros((rounds, 6, 6), dtype=bool)
    for k in range(rounds):
        m = rng.uniform(0.3, 2.0, (6, 6))
        d[k] = np.triu(m, 1) + np.triu(m, 1).T
        v = rng.uniform(size=(6, 6)) < 0.8
        valid[k] = np.triu(v, 1) | np.triu(v, 1).T
    stream = RawDistanceStream(times=np.array([0.0, 0.04, 0.08]), distances=d, valid=valid)
    path = tmp_path / "ranging.csv"
    write_ranging_csv(path, stream)
    back = read_ranging_csv(path)
    assert back.times.tobytes() == stream.times.tobytes()
    assert back.distances.tobytes() == stream.distances.tobytes()
    assert np.array_equal(back.valid, stream.valid)


def _ranging_rows(rounds: int) -> list[str]:
    """Data rows of a well-formed ranging file, in the writer's pair order."""
    return [f"{k},{k * 0.04!r},{i},{j},1.25,1" for k in range(rounds) for i, j in zip(PAIR_I, PAIR_J)]


def test_ranging_csv_rejects_garbage(tmp_path):
    path = tmp_path / "ranging.csv"
    header = "round,t,i,j,d_raw,valid\n"
    good = "0,0.0,0,1,1.25,1\n"
    path.write_text(header + "\n".join(_ranging_rows(2)) + "\n")
    assert read_ranging_csv(path).times.shape == (2,)
    for row, why in (
        ("1,0.04,0,1,nan,1", "non-finite"),
        ("1,0.04,0,1,inf,0", "non-finite"),
        ("1,nan,0,1,1.5,1", "non-finite"),
        ("1,0.04,-1,1,1.5,1", "out of range"),  # would wrap to sensor 5
        ("1,0.04,2,2,1.5,1", "out of range"),
        ("1,0.04,3,1,1.5,1", "out of range"),
        ("1,0.04,0,6,1.5,1", "out of range"),
        ("-1,0.04,0,1,1.5,1", "out of range"),
        ("1,0.04,0,1,far,1", "bad ranging row"),
        ("1,0.04,0,1", "bad ranging row"),
        ("1,0.04,0,1,1.5,yes", "bad ranging row"),
    ):
        path.write_text(header + good + row + "\n")
        with pytest.raises(DataError, match=rf"ranging\.csv:3: .*{why}"):
            read_ranging_csv(path)
    path.write_text(header + "5,0.2,0,1,1.5,1\n" + good)
    with pytest.raises(DataError, match=r"ranging\.csv:2: expected round 0 pair \(0, 1\), got round 5"):
        read_ranging_csv(path)


def test_ranging_csv_rejects_broken_rounds(tmp_path):
    """Each round k = 0..R-1 holds exactly its 15 rows, in the writer's
    pair order, sharing one time; anything else names the file and line."""
    path = tmp_path / "ranging.csv"
    header = ["round,t,i,j,d_raw,valid"]
    rows = _ranging_rows(3)
    cut = rows[:20]  # the file ends five pairs into round 1
    skipped = rows[:15] + rows[30:]  # round 1 has no rows
    duplicated = rows[:4] + rows[3:]  # (0, 4) of round 0 twice
    swapped = rows[:1] + [rows[2], rows[1]] + rows[3:]
    retimed = rows[:17] + [rows[17].replace("0.04,", "0.05,", 1)] + rows[18:]
    for data, where in (
        (cut, r":21: round 1 ends after 5 of 15 pairs"),
        (skipped, r":17: expected round 1 pair \(0, 1\), got round 2 pair \(0, 1\)"),
        (duplicated, r":6: expected round 0 pair \(0, 5\), got round 0 pair \(0, 4\)"),
        (swapped, r":3: expected round 0 pair \(0, 2\), got round 0 pair \(0, 3\)"),
        (retimed, r":19: time 0.05 differs from round 1's time 0.04"),
    ):
        path.write_text("\n".join(header + data) + "\n")
        with pytest.raises(DataError, match=r"ranging\.csv" + where):
            read_ranging_csv(path)
    path.write_text("\n".join(header + rows) + "\n")
    assert read_ranging_csv(path).valid.sum() == 3 * 30


def test_ranging_csv_writes_the_pair_order_it_reads(tmp_path):
    d = np.arange(36.0).reshape(1, 6, 6)
    stream = RawDistanceStream(times=np.array([0.5]), distances=d + d.transpose(0, 2, 1), valid=np.ones((1, 6, 6), bool))
    path = tmp_path / "ranging.csv"
    write_ranging_csv(path, stream)
    lines = path.read_text().splitlines()
    assert lines[1:] == [f"0,0.5,{i},{j},{float(d[0, i, j] + d[0, j, i])!r},1" for i in range(6) for j in range(i + 1, 6)]


def _per_row_imu_csv(path, stream):
    """The earlier IMU writer, one csv.writer row per sample: the byte reference."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(IMU_HEADER)
        for k in range(len(stream)):
            row = [stream.t[k], *stream.accel[k], *stream.gyro[k]]
            w.writerow([repr(float(v)) for v in row])


def _per_row_ranging_csv(path, stream):
    """The earlier ranging writer, one csv.writer row per pair per round: the byte reference."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(RANGING_HEADER)
        for k in range(stream.times.shape[0]):
            t = repr(float(stream.times[k]))
            for i, j in zip(PAIR_I.tolist(), PAIR_J.tolist()):
                w.writerow([k, t, i, j, repr(float(stream.distances[k, i, j])), int(stream.valid[k, i, j])])


def test_csv_writers_write_the_per_row_writers_bytes(tmp_path):
    rng = derive_rng(54, "storage", "csv")
    odd = np.concatenate([AWKWARD, [-0.0, 0.0, 1e300, -1e300, 2.0, -3.0, 1e16, 123456789.0]])
    values = np.concatenate([odd, rng.normal(size=7 * 40 - odd.size) * 10.0 ** rng.integers(-8, 8, 7 * 40 - odd.size)])
    table = values.reshape(40, 7)
    imu = ImuStream(t=table[:, 0], accel=table[:, 1:4], gyro=table[:, 4:7])
    rounds = 6
    d = rng.permutation(np.resize(odd, rounds * 36)).reshape(rounds, 6, 6)
    # the writer reads the upper triangle only
    stream = RawDistanceStream(times=np.arange(rounds) * 0.04, distances=d, valid=rng.uniform(size=(rounds, 6, 6)) < 0.7)
    for name, write, reference, data in (
        ("imu", write_imu_csv, _per_row_imu_csv, imu),
        ("ranging", write_ranging_csv, _per_row_ranging_csv, stream),
    ):
        write(tmp_path / f"{name}.csv", data)
        reference(tmp_path / f"{name}_per_row.csv", data)
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_per_row.csv").read_bytes(), name
    # the awkward values come first, as repr writes them, on \r\n lines
    first = (tmp_path / "imu.csv").read_bytes().split(b"\r\n")[1:4]
    assert b",".join(first).split(b",")[: odd.size] == [repr(float(v)).encode() for v in odd]


def test_csv_rows_must_have_their_headers_width(tmp_path):
    path = tmp_path / "imu.csv"
    good = "0.0,1,2,3,4,5,6"
    for row in ("0.01,1,2,3,4,5", "0.01,1,2,3,4,5,6,7", ""):
        path.write_text(f"t,ax,ay,az,gx,gy,gz\n{good}\n{row}\n{good}\n")
        width = len(row.split(",")) if row else 0
        with pytest.raises(DataError, match=rf"imu\.csv:3: bad IMU row: {width} fields, the header has 7"):
            read_imu_csv(path)
    path = tmp_path / "ranging.csv"
    rows = _ranging_rows(1)
    rows[4] += ",1"
    path.write_text("round,t,i,j,d_raw,valid\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError, match=r"ranging\.csv:6: bad ranging row: 7 fields, the header has 6"):
        read_ranging_csv(path)


def test_truth_roundtrip(tmp_path):
    rng = derive_rng(53, "storage", "truth")
    frames, joints = 2, 3
    times = np.array([0.0, 0.02])
    jp = rng.normal(size=(frames, joints, 3))
    sp = rng.normal(size=(frames, 6, 3))

    jr = qnormalize(rng.normal(size=(frames, joints, 4)))
    sr = qnormalize(rng.normal(size=(frames, 6, 4)))
    path = tmp_path / "truth.jsonl"
    write_truth(path, times, jp, jr, sp, sr)
    back = read_truth(path)
    assert back.times.tobytes() == times.tobytes()
    assert back.joint_pos.tobytes() == jp.tobytes()
    assert back.sensor_pos.tobytes() == sp.tobytes()
    assert back.joint_rot.tobytes() == jr.tobytes()
    assert back.sensor_rot.tobytes() == sr.tobytes()


def test_truth_read_errors(tmp_path):
    path = tmp_path / "truth.jsonl"
    write_jsonl(path, [])
    with pytest.raises(DataError, match="empty"):
        read_truth(path)
    write_jsonl(path, [{"t": 0.0, "joints": [{"p": [0, 0, 0]}], "sensors": []}])
    with pytest.raises(DataError, match="frame 0"):
        read_truth(path)

    def frame(t, joints=3):
        pose = {"p": [0.0, 0.1, 0.2], "q": [1.0, 0.0, 0.0, 0.0]}
        return {"t": t, "joints": [dict(pose) for _ in range(joints)], "sensors": [dict(pose) for _ in range(6)]}

    def bad(mutate, match):
        frames = [frame(0.0), frame(0.01), frame(0.02)]
        mutate(frames)
        write_jsonl(path, frames)
        with pytest.raises(DataError, match=match) as err:
            read_truth(path)
        assert str(path) in str(err.value)

    write_jsonl(path, [frame(0.0), frame(0.01)])
    assert read_truth(path).joint_rot.shape == (2, 3, 4)
    bad(lambda f: f.__setitem__(1, frame(0.01, joints=2)), r"frame 1: 2 joints, expected 3")
    bad(lambda f: f[2].pop("t"), r"frame 2: missing key 't'")
    bad(lambda f: f[0].__setitem__("joints", 5), r"frame 0: joints is not a list")
    bad(lambda f: f[1]["sensors"].__setitem__(4, [0.0, 0.0, 0.0]), r"frame 1: sensors\[4\] is not an object")
    bad(lambda f: f[1]["joints"][2].__setitem__("q", [1.0, 0.0, float("nan"), 0.0]),
        r"frame 1: joints\[2\]\.q is not 4 finite numbers")
    bad(lambda f: f[2]["sensors"][0].__setitem__("p", [0.0, 1.0]), r"frame 2: sensors\[0\]\.p is not 3 finite numbers")
    bad(lambda f: f[0]["joints"][1].__setitem__("p", [0.0, "1", 2.0]), r"frame 0: joints\[1\]\.p is not 3")
    bad(lambda f: f[1]["joints"][0].pop("q"), r"frame 1: joints\[0\]\.q is not 4")
    bad(lambda f: f[1].__setitem__("t", float("inf")), r"frame 1: t is not a finite number")
    bad(lambda f: [r.__setitem__("sensors", []) for r in f], r"frame 0: 0 sensors, expected 6")
    bad(lambda f: f.__setitem__(1, [0.0]), r"frame 1: record is not an object")


def test_manifest_verifies_and_detects_tampering(tmp_path):
    (tmp_path / "a.txt").write_text("alpha\n")
    (tmp_path / "b.txt").write_text("beta\n")
    write_manifest(tmp_path, ["a.txt", "b.txt"])
    assert set(verify_manifest(tmp_path)) == {"a.txt", "b.txt"}
    (tmp_path / "b.txt").write_text("tampered\n")
    with pytest.raises(DataError, match="stale or modified data"):
        verify_manifest(tmp_path)
    (tmp_path / "b.txt").unlink()
    with pytest.raises(DataError, match="missing"):
        verify_manifest(tmp_path)


def test_manifest_malformed(tmp_path):
    (tmp_path / "manifest.json").write_text("[]")
    with pytest.raises(DataError, match="malformed"):
        read_manifest(tmp_path)
    with pytest.raises(DataError):
        read_manifest(tmp_path / "nowhere")


def test_calibration_roundtrip(tmp_path):
    cal = CalibrationResult(scale=1.0199999999999998, bias=0.3500000000001, inliers=623)
    path = tmp_path / "calibration.json"
    write_calibration(path, cal)
    back = read_calibration(path)
    assert back == cal
    path.write_text('{"scale": 1.0}')
    with pytest.raises(DataError):
        read_calibration(path)


def test_model_input_roundtrip_and_keys(tmp_path):
    rng = derive_rng(55, "storage", "mi")
    frames = 2
    times = np.arange(frames) * 0.02
    r = rng.normal(size=(frames, 6, 6))
    a = rng.normal(size=(frames, 6, 3))
    d = np.zeros((frames, 6, 6))
    path = tmp_path / "model_input.jsonl"
    write_model_input(path, times, r, a, d)
    first = json.loads(path.read_text().splitlines()[0])
    assert set(first) == {"t", "r", "a", "D", "mask"}
    back = read_model_input(path)
    assert back["r"].tobytes() == r.tobytes()
    assert back["a"].tobytes() == a.tobytes()
    assert back["mask"].dtype == bool
    assert np.array_equal(back["mask"], np.broadcast_to(~np.eye(6, dtype=bool), (frames, 6, 6)))


def test_model_input_shape_errors(tmp_path):
    path = tmp_path / "model_input.jsonl"
    write_jsonl(
        path,
        [{"t": 0.0, "r": [[0.0] * 6] * 5, "a": [[0.0] * 3] * 6, "D": [[0.0] * 6] * 6, "mask": [[0] * 6] * 6}],
    )
    with pytest.raises(DataError, match="frame 0"):
        read_model_input(path)


def test_targets_roundtrip_and_keys(tmp_path):
    rng = derive_rng(56, "storage", "tgt")
    frames = 2
    times = np.arange(frames) * 0.02 + AWKWARD[:frames]
    pos = rng.normal(size=(frames, 6, 3))
    rot = rng.normal(size=(frames, 15, 6))
    con = (rng.uniform(size=(frames, 2)) < 0.5).astype(float)
    path = tmp_path / "targets.npy"
    write_targets(path, times, pos, rot, con)
    stored = np.load(path, allow_pickle=False)
    assert stored.shape == (frames,)
    assert stored.dtype.names == ("t", "positions", "rotations", "contacts")
    back = read_targets(path)
    assert set(back) == {"times", "positions", "rotations", "contacts"}
    assert back["times"].tobytes() == times.tobytes()
    assert back["positions"].tobytes() == pos.tobytes()
    assert back["rotations"].tobytes() == rot.tobytes()
    assert back["contacts"].tobytes() == con.tobytes()
    # Equal targets give equal bytes.
    write_targets(tmp_path / "again.npy", times, pos, rot, con)
    assert (tmp_path / "again.npy").read_bytes() == path.read_bytes()


def test_bad_targets_file_is_a_data_error(tmp_path):
    frames = 3
    path = tmp_path / "targets.npy"
    write_targets(path, np.arange(frames) * 0.02, np.zeros((frames, 6, 3)), np.zeros((frames, 15, 6)), np.ones((frames, 2)))
    good = path.read_bytes()
    fields = [("t", "<f8", ()), ("positions", "<f8", (6, 3)), ("rotations", "<f8", (15, 6)), ("contacts", "<f8", (2,))]
    # The same fields with 8 bytes of padding at the end of each record.
    padded = np.dtype({"names": [f[0] for f in fields], "formats": [f[1:] for f in fields], "itemsize": 896})

    def saved(layout, shape=(frames,), edit=None):
        rec = np.zeros(shape, layout)
        if edit:
            edit(rec)
        return rec

    def nan_position(rec):
        rec["positions"][1, 4, 2] = np.nan

    for content, why in (
        (good[:-8], rf"{frames * 888 - 8} bytes of data, the header's 3 record\(s\) of 888 bytes need {frames * 888}"),
        (good[:30], "bad .npy header: EOF"),
        (b"", "bad .npy header: EOF: reading magic string"),
        (saved(fields[:3] + [("contact", "<f8", (2,))]), "missing field 'contacts'"),
        (saved(fields[:2] + [("rotations", "<f8", (15, 5))] + fields[3:]), r"field 'rotations': shape \(15, 5\), expected \(15, 6\)"),
        (saved([("t", "<f4", ())] + fields[1:]), "field 't': dtype <f4, expected <f8"),
        (saved(fields, shape=(0,)), r"no records \(shape \(0,\)\)"),
        (saved(padded), "is not the packed layout"),
        (saved(fields, shape=(1, frames)), r"record shape \(1, 3\), expected a 1-d C-order array"),
        (saved(fields, edit=nan_position), "field 'positions': non-finite value at record 1"),
    ):
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            np.save(path, content, allow_pickle=False)
        with pytest.raises(DataError, match=why) as err:
            read_targets(path)
        assert str(path) in str(err.value)
    path.unlink()
    with pytest.raises(DataError, match=f"missing file {path}"):
        read_targets(path)


def test_read_records_refuses_fortran_order(tmp_path):
    path = tmp_path / "records.npy"
    rec = np.zeros((2, 3), record_dtype({"x": ()}))
    rec["x"] = np.arange(6.0).reshape(2, 3)
    np.save(path, np.asfortranarray(rec), allow_pickle=False)
    with pytest.raises(DataError, match=r"record shape \(2, 3\), expected a 2-d C-order array"):
        read_records(path, {"x": ()}, ndim=2)
    write_records(path, rec)
    assert read_records(path, {"x": ()}, ndim=2)["x"].tobytes() == rec["x"].tobytes()


def test_write_records_takes_only_float64_fields(tmp_path):
    for rec in (np.zeros(3), np.zeros(3, [("t", "<f4")]), np.zeros(3, [("t", "<f8"), ("n", "<i8")])):
        with pytest.raises(ContractViolationError, match="only <f8 fields"):
            write_records(tmp_path / "records.npy", rec)
    assert not (tmp_path / "records.npy").exists()


def test_report_json_roundtrip(tmp_path):
    reports = {
        "overall": MetricReport(
            split="overall", sip_error_deg=12.5, pos_error_cm=6.25,
            jitter_km_s3=0.75, distance_rmse_m=(0.05,) * 15,
        ),
        "slow": MetricReport(
            split="slow", sip_error_deg=10.0, pos_error_cm=5.0, jitter_km_s3=0.5,
        ),
    }
    jpath = tmp_path / "report.json"
    write_report_json(jpath, reports)
    back = read_report_json(jpath)
    assert back == reports
