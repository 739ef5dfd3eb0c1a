"""Stage-by-stage benchmark of the uip pipeline.

    python3 perfbench/run.py --workload mixed-50hz --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. Each round drives the public CLI
(`uip synth -> filter -> train -> eval`) on the workload's configs, one
stage per process, and checks the outputs (see checks.py). Rounds repeat
the same inputs until --seconds have passed; each metric is the median
over rounds. With --trace 1, untraced and traced rounds alternate, and
the per-layer figures come from the traced ones (see tracing.py).

The last line of standard output is one JSON object with `correct`,
`attempted` and `failed` (stage invocations) and `metrics`.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread in every process: stage figures then do not depend on
# how many cores the machine has free.
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import checks  # noqa: E402  (after the BLAS setting, since it imports numpy)
from tracing import LAYERS, STAGE_LAYERS, summarize  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
STAGE_TIMEOUT_S = 170.0
MB = float(1 << 20)
STAGES = ("synth", "filter", "train", "eval")

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "synth_frames_per_s": "frames/s",
    "filter_frames_per_s": "frames/s",
    "train_windows_per_s": "windows/s",
    "eval_frames_per_s": "frames/s",
    "synth_peak_rss_mb": "MB",
    "filter_peak_rss_mb": "MB",
    "train_peak_rss_mb": "MB",
    "eval_peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "pos_error_cm": "cm",
    "jitter_km_s3": "km/s3",
    "distance_rmse_m": "m",
}

# Layers reported with their call count as well as their self time.
COUNTED = (
    "skeleton.pairwise_occlusion", "skeleton.fk_pose", "uwb.run_ranging_round",
    "uwb.ransac_affine_calibrate", "imu.synthesize_imu", "imu.orientation_filter",
    "ekf.PairFilterBank.predict_all", "ekf.PairFilterBank.update_all",
    "ekf.PairFilterBank.distance_matrix", "geometry.quat_from_rot6d",
    "geometry.rot6d_from_quat", "posenet.batch_loss", "autodiff.Tape.gradient",
    "posenet.infer",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        if layer in COUNTED:
            units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "uwb.valid_pair_ratio": "ratio",
        "ekf.valid_ratio": "ratio",
        "posenet.batch_loss.peak_mb": "MB",
        "posenet.infer.peak_mb": "MB",
        "autodiff.tape_nodes_per_window": "nodes/window",
        "storage.read_mb": "MB",
        "storage.write_mb": "MB",
        "trace.overhead_s": "s",
    })
    return units


@dataclass
class Round:
    """Figures of one pass through every stage of a workload."""

    wall: dict[str, float] = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    peak: dict[str, float] = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    failed: int = 0
    attempted: int = 0
    artifact_bytes: int = 0
    traces: list[Path] = field(default_factory=list)

    @property
    def pipeline_s(self) -> float:
        return sum(self.wall.values())


class Bench:
    def __init__(self, root: Path, workload: Workload):
        self.root = root
        self.wl = workload
        self.env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(root / "src")}
        self.first_manifests: dict[str, dict] | None = None
        self.problems: list[str] = []  # failed checks: the run is not correct
        self.failures: list[str] = []  # failed stage invocations, counted apart
        self.quality: dict[str, float] = {}

    def setup_s(self) -> float:
        """Fresh interpreter to `uip.cli` imported, as every stage pays it."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import uip.cli"], env=self.env, cwd=self.root,
                check=True, timeout=STAGE_TIMEOUT_S,
            )
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def _invoke(self, rnd: Round, stage: str, argv: list[str], tag: str, rdir: Path, traced: bool) -> bool:
        report = rdir / f"{tag}.stage.json"
        cmd = [sys.executable, str(HERE / "stage.py"), "--report", str(report)]
        if traced:
            trace = rdir / f"{tag}.spans.json"
            cmd += ["--trace", str(trace)]
            rnd.traces.append(trace)
        rnd.attempted += 1
        log_path = rdir / f"{tag}.log"
        with open(log_path, "w") as log:
            t0 = time.perf_counter()
            try:
                rc = subprocess.run(
                    cmd + ["--", *argv], env=self.env, cwd=self.root, stdout=log,
                    stderr=subprocess.STDOUT, timeout=STAGE_TIMEOUT_S,
                ).returncode
            except subprocess.TimeoutExpired:
                rc = None
            rnd.wall[stage] += time.perf_counter() - t0
        if rc != 0 or not report.is_file():
            rnd.failed += 1
            last = (log_path.read_text().strip().splitlines() or [""])[-1]
            self.failures.append(f"{tag}: exit {rc if rc is not None else 'timeout'}: {last}")
            return False
        rnd.peak[stage] = max(rnd.peak[stage], json.loads(report.read_text())["peak_rss_mb"])
        return True

    def run_round(self, rdir: Path, traced: bool) -> Round:
        """synth and filter every dataset, train on the first, evaluate on the last."""
        if rdir.exists():
            shutil.rmtree(rdir)
        rdir.mkdir(parents=True)
        rnd = Round()
        wl = self.wl
        rel = rdir.relative_to(self.root)
        ok = {}
        for name, cfg in wl.datasets.items():
            (rdir / f"{name}.config.json").write_text(json.dumps(cfg))
            ok[name] = self._invoke(
                rnd, "synth",
                ["synth", "--out", str(rel / "data" / name), "--config", str(rel / f"{name}.config.json")],
                f"synth-{name}", rdir, traced,
            )
        for name in wl.datasets:
            args = ["filter", "--data", str(rel / "data" / name), "--out", str(rel / "filt" / name)]
            ok[name] = ok[name] and self._invoke(rnd, "filter", args, f"filter-{name}", rdir, traced)
        (rdir / "train.config.json").write_text(json.dumps(wl.train_config()))
        trained = ok[wl.train_set] and self._invoke(
            rnd, "train",
            ["train", "--data", str(rel / "filt" / wl.train_set), "--out", str(rel / "model"),
             "--config", str(rel / "train.config.json")],
            "train", rdir, traced,
        )
        if trained and ok[wl.eval_set]:
            self._invoke(
                rnd, "eval",
                ["eval", "--checkpoint", str(rel / "model" / "checkpoint.json"),
                 "--data", str(rel / "filt" / wl.eval_set), "--truth", str(rel / "data" / wl.eval_set),
                 "--out", str(rel / "eval")],
                "eval", rdir, traced,
            )
        # Invocations a failed stage kept from running count as failed, so
        # every round attempts the same number.
        planned = 2 * len(wl.datasets) + 2
        rnd.failed += planned - rnd.attempted
        rnd.attempted = planned
        if rnd.failed == 0:
            self.check(rdir, rnd)
        return rnd

    def _outputs(self, rdir: Path) -> dict[str, Path]:
        dirs = {f"data/{n}": rdir / "data" / n for n in self.wl.datasets}
        dirs.update({f"filt/{n}": rdir / "filt" / n for n in self.wl.datasets})
        dirs.update({"model": rdir / "model", "eval": rdir / "eval"})
        return dirs

    def check(self, rdir: Path, rnd: Round) -> None:
        """Hashes every round; the content checks once, on the first round,
        and every later round must reproduce the first one's manifests."""
        manifests = {}
        for key, d in self._outputs(rdir).items():
            manifests[key], bad = checks.manifest_hashes(d)
            self.problems += bad
            rnd.artifact_bytes += sum(p.stat().st_size for p in d.rglob("*") if p.is_file())
        if self.first_manifests is not None:
            if manifests != self.first_manifests:
                diff = [k for k in manifests if manifests[k] != self.first_manifests.get(k)]
                self.problems.append(f"round outputs differ from the first round's in {diff}")
            return
        self.first_manifests = manifests
        self.quality = self._content_checks(rdir)

    def _content_checks(self, rdir: Path) -> dict[str, float]:
        sys.path.insert(0, str(self.root / "src"))
        from uip.skeleton import default_skeleton

        parents = [j.parent for j in default_skeleton().joints]
        found = [
            checks.check_dataset(rdir / "data" / name, rdir / "filt" / name, parents, cfg["uwb"]["drop_prob"])
            for name, cfg in self.wl.datasets.items()
        ]
        for f in found:
            self.problems += f.problems
        self.problems += checks.training_loss(rdir / "model")
        overall, bad = checks.report_is_weighted_mean(rdir / "eval")
        self.problems += bad
        rmse = [v for f in found for v in f.clip_rmse_m]
        return {
            "pos_error_cm": overall["pos_error_cm"],
            "jitter_km_s3": overall["jitter_km_s3"],
            "distance_rmse_m": sum(rmse) / len(rmse),
            "uwb.valid_pair_ratio": sum(f.valid_pairs for f in found) / sum(f.pairs for f in found),
            "ekf.valid_ratio": sum(f.mask_set for f in found) / sum(f.mask_total for f in found),
        }

    def end_to_end(self, setup: float | None, rounds: list[Round]) -> dict[str, float]:
        wl = self.wl
        frames = {
            "synth": sum(wl.frames(n) for n in wl.datasets),
            "filter": sum(wl.frames(n) for n in wl.datasets),
            "eval": wl.frames(wl.eval_set),
        }
        windows = wl.windows() * wl.datasets[wl.train_set]["train"]["epochs"]

        def med(fn) -> float:
            return statistics.median(fn(r) for r in rounds)

        m = {"setup_s": setup, "pipeline_s": med(lambda r: r.pipeline_s)}
        for stage in ("synth", "filter"):
            m[f"{stage}_frames_per_s"] = med(lambda r: frames[stage] / r.wall[stage])
        m["train_windows_per_s"] = med(lambda r: windows / r.wall["train"])
        m["eval_frames_per_s"] = med(lambda r: frames["eval"] / r.wall["eval"])
        for stage in STAGES:
            m[f"{stage}_peak_rss_mb"] = med(lambda r: r.peak[stage])
        m["artifact_mb"] = med(lambda r: r.artifact_bytes / MB)
        for key in ("pos_error_cm", "jitter_km_s3", "distance_rmse_m"):
            m[key] = self.quality[key]
        return {k: m[k] for k in END_TO_END}

    def per_layer(self, plain: list[Round], traced: list[Round]) -> tuple[dict[str, float], list[str]]:
        """Per-layer medians over the traced rounds, and the absent layers."""
        per_round = []
        absent: set[str] = set()
        for rnd in traced:
            layers: dict[str, dict] = {}
            counts: dict[str, float] = {}
            for path in rnd.traces:
                doc = json.loads(path.read_text())
                absent.update(doc["absent"])
                summary, closure = summarize(doc)
                if closure > 1e-6:
                    self.problems.append(f"{path.name}: self times miss their stage span by {closure:.3g} s")
                roots = {doc["names"][s[0]] for s in doc["spans"] if s[3] < 0}
                if not roots <= set(STAGE_LAYERS):
                    self.problems.append(f"{path.name}: spans outside a stage: {sorted(roots - set(STAGE_LAYERS))}")
                for name, rec in summary.items():
                    acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
                    acc["calls"] += rec["calls"]
                    acc["self_s"] += rec["self_s"]
                for key, value in doc["counts"].items():
                    if key.endswith(".peak_bytes"):
                        counts[key] = max(counts.get(key, 0.0), value)
                    else:
                        counts[key] = counts.get(key, 0.0) + value
            m = {}
            for layer in LAYERS:
                rec = layers.get(layer, {"calls": 0, "self_s": 0.0})
                if layer in COUNTED:
                    m[f"{layer}.calls"] = rec["calls"]
                m[f"{layer}.self_s"] = rec["self_s"]
            for layer in ("posenet.batch_loss", "posenet.infer"):
                m[f"{layer}.peak_mb"] = counts.get(f"{layer}.peak_bytes", 0.0) / MB
            windows = counts.get("posenet.batch_loss.grad_windows", 0.0)
            m["autodiff.tape_nodes_per_window"] = counts.get("autodiff.tape_nodes", 0.0) / windows if windows else 0.0
            m["storage.read_mb"] = counts.get("storage.read_bytes", 0.0) / MB
            m["storage.write_mb"] = counts.get("storage.write_bytes", 0.0) / MB
            per_round.append(m)
        out = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
        out["uwb.valid_pair_ratio"] = self.quality["uwb.valid_pair_ratio"]
        out["ekf.valid_ratio"] = self.quality["ekf.valid_ratio"]
        out["trace.overhead_s"] = (
            statistics.median(r.pipeline_s for r in traced) - statistics.median(r.pipeline_s for r in plain)
        )
        return out, sorted(absent)

    def keep_trace(self, rnd: Round, seed: int) -> Path:
        """Move the last traced round's span files out of the scratch area."""
        dest = self.root / "perfbench" / "traces" / f"{self.wl.name}-seed{seed}"
        if dest.exists():
            shutil.rmtree(dest)
        dest.mkdir(parents=True)
        for path in rnd.traces:
            shutil.copy2(path, dest / path.name)
        return dest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "uip" / "cli.py").is_file():
        print(f"no uip sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    work = root / "perfbench" / "runs" / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    bench = Bench(root, wl)
    try:
        setup = None if args.trace else bench.setup_s()
        plain: list[Round] = []
        traced: list[Round] = []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or not plain:
            plain.append(bench.run_round(work / "round", traced=False))
            if args.trace:
                traced.append(bench.run_round(work / "round", traced=True))
        rounds = plain + traced
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        ok_plain = [r for r in plain if r.failed == 0]
        ok_traced = [r for r in traced if r.failed == 0]
        if not ok_plain or (args.trace and not ok_traced):
            for p in bench.failures + bench.problems:
                print(f"problem: {p}")
            print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
            return 1
        if args.trace:
            values, absent = bench.per_layer(ok_plain, ok_traced)
            units = per_layer_units()
            kept = bench.keep_trace(ok_traced[-1], args.seed)
            print(f"spans of the last traced round: {kept.relative_to(root)}")
            if absent:
                print(f"absent layers (reported as 0): {', '.join(absent)}")
        else:
            values = bench.end_to_end(setup, ok_plain)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in bench.failures:
        print(f"failed: {p}")
    for p in bench.problems:
        print(f"problem: {p}")
    print(f"{wl.name} seed {args.seed}: {len(plain)} rounds"
          + (f" + {len(traced)} traced" if args.trace else "")
          + f", {attempted} stage invocations, {failed} failed")
    for key, unit in units.items():
        print(f"  {key:<40} {values[key]:>14.6g} {unit}")
    result = {
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
