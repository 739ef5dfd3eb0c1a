"""On-disk formats: JSONL streams, CSV sensor logs, hashed manifests.

Everything is text so fixtures diff cleanly, and every float is written
with repr so a read-back is bit-exact. A directory of outputs always
carries a manifest.json mapping relative file names to SHA-256 digests;
consumers verify it before trusting the data.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .imu import ImuStream
from .metrics import MetricReport
from .skeleton import N_SENSORS, PAIR_I, PAIR_J
from .uwb import CalibrationResult, RawDistanceStream

MANIFEST_NAME = "manifest.json"


# -- primitives --------------------------------------------------------------


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _require(path: Path) -> Path:
    if not path.is_file():
        raise DataError(f"missing file {path}")
    return path


def write_jsonl(path: str | Path, records) -> None:
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec))
            f.write("\n")


def read_jsonl(path: str | Path) -> list[dict]:
    p = _require(Path(path))
    out = []
    with open(p) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise DataError(f"{p}:{line_no}: bad JSON record: {exc}") from exc
    return out


# -- manifests ---------------------------------------------------------------


def write_manifest(directory: str | Path, names: list[str]) -> dict[str, str]:
    """Hash the named files (relative to directory) and write manifest.json."""
    d = Path(directory)
    files = {name: sha256_file(d / name) for name in sorted(names)}
    (d / MANIFEST_NAME).write_text(json.dumps({"files": files}, indent=2, sort_keys=True) + "\n")
    return files


def read_manifest(directory: str | Path) -> dict[str, str]:
    p = _require(Path(directory) / MANIFEST_NAME)
    try:
        doc = json.loads(p.read_text())
        files = doc["files"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"manifest {p} is malformed: {exc}") from exc
    return dict(files)


def verify_manifest(directory: str | Path) -> dict[str, str]:
    """Recompute every hash; raise DataError on any missing or stale file."""
    d = Path(directory)
    files = read_manifest(d)
    for name, digest in files.items():
        path = d / name
        if not path.is_file():
            raise DataError(f"manifest lists missing file {path}")
        actual = sha256_file(path)
        if actual != digest:
            raise DataError(
                f"hash mismatch for {path}: manifest {digest[:12]}…, "
                f"file {actual[:12]}… (stale or modified data)"
            )
    return files


# -- ground truth ------------------------------------------------------------


@dataclass(frozen=True)
class TruthData:
    """Ground-truth trajectories read back from a truth stream."""

    times: np.ndarray  # (T,)
    joint_pos: np.ndarray  # (T, J, 3)
    joint_rot: np.ndarray  # (T, J, 4), global
    sensor_pos: np.ndarray  # (T, 6, 3)
    sensor_rot: np.ndarray  # (T, 6, 4)


def _write_frames(path: str | Path, times, **fields) -> None:
    """One {"t", field: value, ...} record per frame; each field lists a value per frame."""
    write_jsonl(
        path, ({"t": float(t), **{key: v[k] for key, v in fields.items()}} for k, t in enumerate(times))
    )


def _pose_entries(pos, rot) -> list[list[dict]]:
    """Per frame, one {"p", "q"} entry per joint or sensor."""
    pos = np.asarray(pos, dtype=float).tolist()
    rot = np.asarray(rot, dtype=float).tolist()
    return [[{"p": p, "q": q} for p, q in zip(ps, qs)] for ps, qs in zip(pos, rot)]


def write_truth(
    path: str | Path,
    times: np.ndarray,
    joint_pos: np.ndarray,
    joint_rot: np.ndarray,
    sensor_pos: np.ndarray,
    sensor_rot: np.ndarray,
) -> None:
    """Positions (T, J, 3), (T, 6, 3); rotations (T, J, 4), (T, 6, 4)."""
    _write_frames(
        path, times, joints=_pose_entries(joint_pos, joint_rot), sensors=_pose_entries(sensor_pos, sensor_rot)
    )


_POSE_WIDTHS = {"p": 3, "q": 4}


def finite_number(v) -> bool:
    """Whether a parsed JSON value is a number (not a bool) that is finite as a float."""
    if isinstance(v, float):
        return math.isfinite(v)
    return isinstance(v, int) and not isinstance(v, bool) and abs(v) < 1e308


def _truth_frame_problem(rec, n_joints: int) -> str | None:
    """What makes one truth record malformed, or None."""
    if not isinstance(rec, dict):
        return "record is not an object"
    for key in ("t", "joints", "sensors"):
        if key not in rec:
            return f"missing key {key!r}"
    if not finite_number(rec["t"]):
        return "t is not a finite number"
    for key, count in (("joints", n_joints), ("sensors", N_SENSORS)):
        entries = rec[key]
        if not isinstance(entries, list):
            return f"{key} is not a list"
        if len(entries) != count:
            return f"{len(entries)} {key}, expected {count}"
        for i, e in enumerate(entries):
            if not isinstance(e, dict):
                return f"{key}[{i}] is not an object"
            for field, width in _POSE_WIDTHS.items():
                v = e.get(field)
                if not (isinstance(v, list) and len(v) == width and all(map(finite_number, v))):
                    return f"{key}[{i}].{field} is not {width} finite numbers"
    return None


def read_truth(path: str | Path) -> TruthData:
    """Read a truth stream; a malformed frame raises DataError naming the file and frame.

    Every frame must hold a time, the same number (at least one) of joints
    and exactly six sensors, each a {"p": 3 numbers, "q": 4 numbers} entry,
    all finite.
    """
    records = read_jsonl(path)
    if not records:
        raise DataError(f"{path}: empty truth stream")
    try:
        arrays = [np.array([r["t"] for r in records])] + [
            np.array([[e[field] for e in r[key]] for r in records])
            for key in ("joints", "sensors")
            for field in _POSE_WIDTHS
        ]
    except (KeyError, TypeError, ValueError):
        arrays = None
    if arrays is not None:
        t_len, n_joints = len(records), arrays[1].shape[1] if arrays[1].ndim == 3 else 0
        shapes = [(t_len,), (t_len, n_joints, 3), (t_len, n_joints, 4), (t_len, N_SENSORS, 3), (t_len, N_SENSORS, 4)]
        if n_joints and all(
            a.shape == shape and a.dtype.kind in "fi" and np.isfinite(a).all() for a, shape in zip(arrays, shapes)
        ):
            return TruthData(*(a.astype(float, copy=False) for a in arrays))
    # Slow path, only for a stream that failed the checks above: find the first bad frame.
    first = records[0].get("joints") if isinstance(records[0], dict) else None
    n_joints = len(first) if isinstance(first, list) and first else 1
    for k, rec in enumerate(records):
        problem = _truth_frame_problem(rec, n_joints)
        if problem:
            raise DataError(f"{path}: frame {k}: {problem}")
    raise DataError(f"{path}: malformed truth stream")


# -- raw sensor logs ---------------------------------------------------------

IMU_HEADER = ["t", "ax", "ay", "az", "gx", "gy", "gz"]
RANGING_HEADER = ["round", "t", "i", "j", "d_raw", "valid"]


def _write_csv(path: str | Path, header: list[str], rows: list[str]) -> None:
    """Header plus pre-joined rows in one write, with csv.writer's \\r\\n line ends."""
    with open(path, "w", newline="") as f:
        f.write("\r\n".join([",".join(header), *rows]) + "\r\n")


def _read_csv(p: Path, header: list[str], what: str) -> list[list[str]]:
    """The data rows of a CSV log, which must have this header and its width on every row."""
    with open(p, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != header:
        raise DataError(f"{p}: expected header {','.join(header)}")
    for line, row in enumerate(rows[1:], 2):
        if len(row) != len(header):
            raise DataError(f"{p}:{line}: bad {what} row: {len(row)} fields, the header has {len(header)}")
    return rows[1:]


def write_imu_csv(path: str | Path, stream: ImuStream) -> None:
    rows = np.column_stack([stream.t, stream.accel, stream.gyro]).tolist()
    _write_csv(path, IMU_HEADER, [",".join(map(repr, row)) for row in rows])


def read_imu_csv(path: str | Path) -> ImuStream:
    p = _require(Path(path))
    rows = _read_csv(p, IMU_HEADER, "IMU")
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise DataError(f"{p}: bad numeric field: {exc}") from exc
    if data.size == 0:
        raise DataError(f"{p}: empty IMU stream")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise DataError(f"{p}:{bad[0] + 2}: non-finite IMU sample (data row {bad[0] + 1})")
    return ImuStream(t=data[:, 0], accel=data[:, 1:4], gyro=data[:, 4:7])


def write_ranging_csv(path: str | Path, stream: RawDistanceStream) -> None:
    """One row per pair per round: the 15 pairs of round k in PAIR_I/PAIR_J order."""
    pairs = [f"{i},{j}" for i, j in zip(PAIR_I.tolist(), PAIR_J.tolist())]
    dists = stream.distances[:, PAIR_I, PAIR_J].tolist()
    valid = stream.valid[:, PAIR_I, PAIR_J].astype(int).tolist()
    rows = [
        f"{k},{t!r},{pair},{d!r},{v}"
        for k, (t, ds, vs) in enumerate(zip(stream.times.tolist(), dists, valid))
        for pair, d, v in zip(pairs, ds, vs)
    ]
    _write_csv(path, RANGING_HEADER, rows)


def read_ranging_csv(path: str | Path) -> RawDistanceStream:
    """The stream write_ranging_csv wrote: every round k = 0..R-1 holds
    exactly its 15 pair rows, in the writer's order, with one time."""
    p = _require(Path(path))
    rows = _read_csv(p, RANGING_HEADER, "ranging")
    if not rows:
        raise DataError(f"{p}: empty ranging stream")
    pairs = list(zip(PAIR_I.tolist(), PAIR_J.tolist()))
    n_pairs = len(pairs)
    n_rows = len(rows)
    n_rounds = -(-n_rows // n_pairs)
    times = np.zeros(n_rounds)
    dists = np.zeros((n_rounds, N_SENSORS, N_SENSORS))
    valid = np.zeros((n_rounds, N_SENSORS, N_SENSORS), dtype=bool)
    for n, row in enumerate(rows):
        line = n + 2
        try:
            k, t, i, j, d = int(row[0]), float(row[1]), int(row[2]), int(row[3]), float(row[4])
            ok = {"0": False, "1": True}[row[5]]
        except (ValueError, KeyError) as exc:
            raise DataError(f"{p}:{line}: bad ranging row: {exc}") from exc
        if not (math.isfinite(t) and math.isfinite(d)):
            raise DataError(f"{p}:{line}: non-finite time or distance")
        if k < 0 or not 0 <= i < j < N_SENSORS:
            raise DataError(f"{p}:{line}: round {k} or pair ({i}, {j}) out of range")
        want = (n // n_pairs, *pairs[n % n_pairs])
        if (k, i, j) != want:
            raise DataError(f"{p}:{line}: expected round {want[0]} pair {want[1:]}, got round {k} pair ({i}, {j})")
        if n % n_pairs == 0:
            times[k] = t
        elif t != times[k]:
            raise DataError(f"{p}:{line}: time {t!r} differs from round {k}'s time {float(times[k])!r}")
        dists[k, i, j] = dists[k, j, i] = d
        valid[k, i, j] = valid[k, j, i] = ok
    if n_rows % n_pairs:
        raise DataError(f"{p}:{n_rows + 1}: round {n_rounds - 1} ends after {n_rows % n_pairs} of {n_pairs} pairs")
    return RawDistanceStream(times=times, distances=dists, valid=valid)


# -- calibration -------------------------------------------------------------


def write_calibration(path: str | Path, cal: CalibrationResult) -> None:
    Path(path).write_text(
        json.dumps({"scale": cal.scale, "bias": cal.bias, "inliers": cal.inliers}, indent=2)
        + "\n"
    )


def read_calibration(path: str | Path) -> CalibrationResult:
    p = _require(Path(path))
    try:
        doc = json.loads(p.read_text())
        return CalibrationResult(
            scale=float(doc["scale"]), bias=float(doc["bias"]), inliers=int(doc["inliers"])
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"calibration file {p} is malformed: {exc}") from exc


# -- filtered streams --------------------------------------------------------


def _matrix(rec: dict, key: str, path, frame: int, shape: tuple) -> np.ndarray:
    try:
        arr = np.array(rec[key], dtype=float)
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: frame {frame}: bad field {key!r}: {exc}") from exc
    if arr.shape != shape:
        raise DataError(f"{path}: frame {frame}: {key} has shape {arr.shape}, expected {shape}")
    return arr


def _read_frames(path: str | Path, what: str, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Times plus one stacked (T, *shape) array per field of a frame stream."""
    records = read_jsonl(path)
    if not records:
        raise DataError(f"{path}: empty {what} stream")
    out = {"times": np.array([r["t"] for r in records])}
    for key, shape in shapes.items():
        out[key] = np.stack([_matrix(r, key, path, k, shape) for k, r in enumerate(records)])
    return out


def write_model_input(path: str | Path, times, r, a, d) -> None:
    """Per-frame network inputs: orientations, accelerations, distances.

    The distance mask is the constant "every pair held": the filter stage
    raises on any divergence, so no pair is ever dropped. The field stays in
    the layout until a re-initialised filter gives it meaning (ROADMAP
    direction 7).
    """
    held = np.broadcast_to(~np.eye(N_SENSORS, dtype=bool), d.shape)
    _write_frames(path, times, r=r.tolist(), a=a.tolist(), D=d.tolist(), mask=held.astype(int).tolist())


def read_model_input(path: str | Path) -> dict[str, np.ndarray]:
    shapes = {"r": (N_SENSORS, 6), "a": (N_SENSORS, 3), "D": (N_SENSORS, N_SENSORS), "mask": (N_SENSORS, N_SENSORS)}
    out = _read_frames(path, "model-input", shapes)
    out["d"] = out.pop("D")
    out["mask"] = out["mask"].astype(bool)
    return out


def write_targets(path: str | Path, times, positions, rotations, contacts) -> None:
    """Supervision targets aligned with the model-input stream."""
    _write_frames(
        path, times, positions=positions.tolist(), rotations=rotations.tolist(), contacts=contacts.tolist()
    )


def read_targets(path: str | Path) -> dict[str, np.ndarray]:
    shapes = {"positions": (N_SENSORS, 3), "rotations": (15, 6), "contacts": (2,)}
    return _read_frames(path, "target", shapes)


# -- metric reports ----------------------------------------------------------


def write_report_json(path: str | Path, reports: dict[str, MetricReport]) -> None:
    doc = {tag: rep.to_dict() for tag, rep in reports.items()}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_report_json(path: str | Path) -> dict[str, MetricReport]:
    p = _require(Path(path))
    try:
        doc = json.loads(p.read_text())
        out = {}
        for tag, rec in doc.items():
            rmse = rec.get("distance_rmse_m")
            out[tag] = MetricReport(
                split=rec["split"],
                sip_error_deg=float(rec["sip_error_deg"]),
                pos_error_cm=float(rec["pos_error_cm"]),
                jitter_km_s3=float(rec["jitter_km_s3"]),
                distance_rmse_m=None if rmse is None else tuple(rmse),
            )
        return out
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"report {p} is malformed: {exc}") from exc
