"""Correctness checks on one round's outputs, made apart from the program.

Each check recomputes a figure from the files with hashlib, csv, json and
numpy, or tests a property the method must have. None compares against a
stored copy of earlier output. Checks return lists of failure messages; an
empty list means they passed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_SENSORS = 6
PAIRS = [(i, j) for i in range(N_SENSORS) for j in range(i + 1, N_SENSORS)]
TOL = 1e-9


def _jsonl(path: Path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def manifest_hashes(directory: Path) -> tuple[dict[str, str], list[str]]:
    """The manifest, and every listed file whose SHA-256 differs from it."""
    files = json.loads((directory / "manifest.json").read_text())["files"]
    bad = []
    for name, digest in files.items():
        h = hashlib.sha256((directory / name).read_bytes()).hexdigest()
        if h != digest:
            bad.append(f"{directory.name}/{name}: sha256 {h[:12]} != manifest {digest[:12]}")
    return files, bad


def read_ranging(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round times (R,), raw distances (R, 15) and validity (R, 15) in PAIRS order."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    n_rounds = int(rows[-1][0]) + 1
    times = np.zeros(n_rounds)
    d = np.zeros((n_rounds, len(PAIRS)))
    valid = np.zeros((n_rounds, len(PAIRS)), dtype=bool)
    col = {p: c for c, p in enumerate(PAIRS)}
    for k, t, i, j, raw, ok in rows:
        k, c = int(k), col[(int(i), int(j))]
        times[k] = float(t)
        d[k, c] = float(raw)
        valid[k, c] = ok == "1"
    return times, d, valid


@dataclass
class DatasetChecks:
    """What the checks of one synthesized and filtered dataset found."""

    problems: list[str] = field(default_factory=list)
    valid_pairs: int = 0
    pairs: int = 0
    mask_set: int = 0
    mask_total: int = 0
    clip_rmse_m: list[float] = field(default_factory=list)


def check_dataset(data: Path, filtered: Path, parents: list[int], drop_prob: float) -> DatasetChecks:
    """Every per-clip check, reading each clip's files once."""
    out = DatasetChecks()
    report = json.loads((filtered / "rmse_report.json").read_text())
    cal = json.loads((filtered / "calibration.json").read_text())
    _, _, ok = read_ranging(data / "tpose_ranging.csv")
    out.valid_pairs, out.pairs = int(ok.sum()), ok.size
    off = ~np.eye(N_SENSORS, dtype=bool)
    for entry in json.loads((data / "clips.json").read_text()):
        name, rate = entry["name"], float(entry["rate_hz"])
        truth = _jsonl(data / name / "truth.jsonl")
        joints = np.array([[e["p"] for e in r["joints"]] for r in truth])
        sensors = np.array([[e["p"] for e in r["sensors"]] for r in truth])
        mi = _jsonl(filtered / name / "model_input.jsonl")
        r6 = np.array([r["r"] for r in mi])
        d = np.array([r["D"] for r in mi])
        mask = np.array([r["mask"] for r in mi], dtype=bool)
        times, raw, ok = read_ranging(data / name / "ranging.csv")

        out.problems += rigid_bones(name, joints, parents)
        out.problems += rot6d_orthonormal(name, r6)
        out.valid_pairs += int(ok.sum())
        out.pairs += ok.size
        out.mask_set += int(mask[:, off].sum())
        out.mask_total += mask[:, off].size
        filt, cal_raw = distance_rmse(sensors, d, mask, np.rint(times * rate).astype(int), raw, ok, cal)
        rep = report[name]
        if not (_close(filt, rep["mean_filtered_m"]) and _close(cal_raw, rep["mean_raw_m"])):
            out.problems.append(
                f"{name}: recomputed RMSE filtered {filt:.6f} raw {cal_raw:.6f} m, "
                f"report {rep['mean_filtered_m']:.6f} {rep['mean_raw_m']:.6f} m"
            )
        if not filt < cal_raw:
            out.problems.append(f"{name}: filtered RMSE {filt:.4f} m not below raw {cal_raw:.4f} m")
        out.clip_rmse_m.append(filt)
    out.problems += drop_rate_agrees(out.valid_pairs, out.pairs, drop_prob)
    return out


def rigid_bones(name: str, joints: np.ndarray, parents: list[int]) -> list[str]:
    """FK is rigid: every bone keeps its length in every frame."""
    bad = []
    for j, p in enumerate(parents):
        if p < 0:
            continue
        length = np.linalg.norm(joints[:, j] - joints[:, p], axis=1)
        spread = float(length.max() - length.min())
        if spread > 1e-9:
            bad.append(f"{name}: bone {p}->{j} length varies by {spread:.3g} m")
    return bad


def rot6d_orthonormal(name: str, r6: np.ndarray) -> list[str]:
    """Each 6D orientation is two orthonormal rotation-matrix columns."""
    a, b = r6[..., :3], r6[..., 3:]
    err = max(
        float(np.abs(np.linalg.norm(a, axis=-1) - 1.0).max()),
        float(np.abs(np.linalg.norm(b, axis=-1) - 1.0).max()),
        float(np.abs((a * b).sum(axis=-1)).max()),
    )
    return [f"{name}: 6D columns off orthonormal by {err:.3g}"] if err > 1e-9 else []


def distance_rmse(sensors, d, mask, frames, raw, ok, cal) -> tuple[float, float]:
    """Mean over pairs of the filtered and the calibrated raw distance RMSE.

    Errors are taken at the frame nearest each ranging round, for pairs the
    round measured (and, for filtered, the filter holds), as
    rmse_report.json defines them; pairs with no such frame are left out.
    """
    keep = (frames >= 0) & (frames < sensors.shape[0])
    filt, cal_raw = [], []
    for c, (i, j) in enumerate(PAIRS):
        picked = keep & ok[:, c]
        f = frames[picked]
        if f.size == 0:
            continue
        true_d = np.linalg.norm(sensors[f, i] - sensors[f, j], axis=1)
        corrected = (raw[picked, c] - cal["bias"]) / cal["scale"]
        cal_raw.append(math.sqrt(np.mean((corrected - true_d) ** 2)))
        m = mask[f, i, j]
        if m.any():
            filt.append(math.sqrt(np.mean((d[f[m], i, j] - true_d[m]) ** 2)))
    return float(np.mean(filt)), float(np.mean(cal_raw))


def drop_rate_agrees(valid: int, attempted: int, drop_prob: float) -> list[str]:
    """A pair needs both of its receptions, each lost with drop_prob.

    The expected valid share is (1 - p)^2; allow 5 binomial sigmas.
    """
    expect = (1.0 - drop_prob) ** 2
    sigma = math.sqrt(expect * (1.0 - expect) / attempted)
    ratio = valid / attempted
    if abs(ratio - expect) > 5.0 * sigma + 1e-12:
        return [f"valid pair ratio {ratio:.4f} vs (1-p)^2 = {expect:.4f} (sigma {sigma:.4f})"]
    return []


def training_loss(model: Path) -> list[str]:
    """Loss is finite, and lower after the last epoch than after the first."""
    log = json.loads((model / "train_log.json").read_text())
    losses = [rec["train_loss"] for rec in log]
    if not all(math.isfinite(v) for v in losses):
        return [f"non-finite training loss {losses}"]
    if len(losses) > 1 and not losses[-1] < losses[0]:
        return [f"training loss did not drop: {losses[0]:.6f} -> {losses[-1]:.6f}"]
    return []


def report_is_weighted_mean(evaluation: Path) -> tuple[dict, list[str]]:
    """The overall split pools the clips: SIP and position error weighted
    by frames, jitter by the frames that have a full jerk stencil (all but
    four), since it is a mean over those samples."""
    overall = json.loads((evaluation / "report.json").read_text())["overall"]
    clips = json.loads((evaluation / "clip_metrics.json").read_text())
    frames = np.array([c["frames"] for c in clips], dtype=float)
    weights = {"sip_error_deg": frames, "pos_error_cm": frames, "jitter_km_s3": frames - 4.0}
    bad = []
    for key, w in weights.items():
        expect = float(np.dot([c[key] for c in clips], w) / w.sum())
        if not _close(expect, overall[key]):
            bad.append(f"overall {key} {overall[key]!r} != clip-weighted mean {expect!r}")
    return overall, bad
