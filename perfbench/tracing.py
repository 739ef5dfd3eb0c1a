"""Span tracer for one uip stage process, and the layer table it wraps.

The traced run installs a wrapper around every public function named in
LAYERS, in every `uip.*` module namespace that holds a reference to it, so
callers that imported the name (`from .skeleton import fk_pose`) see the
wrapper too. Each call records one span (layer, start, end, parent span);
spans stay in memory and are written out once, when the stage ends.

A layer whose function no longer exists is reported as absent instead of
failing, so later refactors keep the benchmark running.
"""
from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

# layer name -> (module, attribute pattern). A pattern with a dot names a
# method (`Class.method`); `*` patterns group every matching public
# function the module defines.
LAYERS: dict[str, tuple[str, str]] = {
    "pipeline.synth": ("uip.pipeline", "synthesize_dataset"),
    "pipeline.filter": ("uip.pipeline", "filter_dataset"),
    "pipeline.train": ("uip.pipeline", "train_model"),
    "pipeline.eval": ("uip.pipeline", "evaluate_model"),
    "skeleton.pairwise_occlusion": ("uip.skeleton", "pairwise_occlusion"),
    "skeleton.fk_pose": ("uip.skeleton", "fk_pose"),
    "motions.generate_motion_suite": ("uip.motions", "generate_motion_suite"),
    "uwb.run_ranging_round": ("uip.uwb", "run_ranging_round"),
    "uwb.ransac_affine_calibrate": ("uip.uwb", "ransac_affine_calibrate"),
    "imu.synthesize_imu": ("uip.imu", "synthesize_imu"),
    "imu.orientation_filter": ("uip.imu", "orientation_filter"),
    "ekf.PairFilterBank.predict_all": ("uip.ekf", "PairFilterBank.predict_all"),
    "ekf.PairFilterBank.update_all": ("uip.ekf", "PairFilterBank.update_all"),
    "ekf.PairFilterBank.distance_matrix": ("uip.ekf", "PairFilterBank.distance_matrix"),
    "geometry.quat_from_rot6d": ("uip.geometry", "quat_from_rot6d"),
    "geometry.rot6d_from_quat": ("uip.geometry", "rot6d_from_quat"),
    "posenet.batch_loss": ("uip.posenet.train", "batch_loss"),
    "autodiff.Tape.gradient": ("uip.autodiff", "Tape.gradient"),
    "posenet.infer": ("uip.posenet.model", "infer"),
    "metrics.sip_error": ("uip.metrics", "sip_error"),
    "metrics.position_error": ("uip.metrics", "position_error"),
    "metrics.jitter": ("uip.metrics", "jitter"),
    "storage.read": ("uip.storage", "read_*"),
    "storage.write": ("uip.storage", "write_*"),
    "storage.verify_manifest": ("uip.storage", "verify_manifest"),
}

STAGE_LAYERS = ("pipeline.synth", "pipeline.filter", "pipeline.train", "pipeline.eval")

# Layers whose peak allocation is recorded with tracemalloc, started and
# stopped around each call; they never nest in one another.
PEAK_LAYERS = ("posenet.batch_loss", "posenet.infer")

MANIFEST = "manifest.json"


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([nid, time.perf_counter(), 0.0, parent])
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def in_layer(self, prefix: str) -> bool:
        """True when an open span's layer starts with prefix."""
        return any(self.names[self.spans[i][0]].startswith(prefix) for i in self._open)

    def dump(self, path: str | Path) -> None:
        doc = {"names": self.names, "spans": self.spans, "counts": self.counts, "absent": self.absent}
        Path(path).write_text(json.dumps(doc))


def _file_bytes(arg) -> int:
    """Size of the file a storage call names; a directory means its manifest."""
    try:
        p = Path(os.fspath(arg))
    except TypeError:
        return 0
    if p.is_dir():
        p = p / MANIFEST
    return p.stat().st_size if p.is_file() else 0


def _wrap(tracer: Tracer, layer: str, fn):
    storage_kind = layer[len("storage."):] if layer in ("storage.read", "storage.write") else None
    peak = layer in PEAK_LAYERS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # Bytes are counted at the outermost storage call only, since
        # read_truth and friends go through read_jsonl themselves.
        outer_io = storage_kind is not None and args and not tracer.in_layer("storage.")
        if outer_io and storage_kind == "read":
            tracer.count("storage.read_bytes", _file_bytes(args[0]))
        idx = tracer.open(layer)
        if peak:
            tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            if peak:
                top = float(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
                key = layer + ".peak_bytes"
                tracer.counts[key] = max(tracer.counts.get(key, 0.0), top)
            tracer.close(idx)
            if outer_io and storage_kind == "write":
                tracer.count("storage.write_bytes", _file_bytes(args[0]))
            _count_work(tracer, layer, args, kwargs)

    return wrapper


def _count_work(tracer: Tracer, layer: str, args, kwargs) -> None:
    """Counters that turn per-call spans into per-window figures."""
    if layer == "posenet.batch_loss" and kwargs.get("with_grads", args[2] if len(args) > 2 else True):
        tracer.count("posenet.batch_loss.grad_windows", len(args[1]))
    elif layer == "autodiff.Tape.gradient":
        tracer.count("autodiff.tape_nodes", len(args[0]))


def _targets(module, pattern: str) -> list[tuple[object, str]]:
    """(owner, attribute) pairs the pattern names in the module."""
    if "." in pattern:
        cls_name, meth = pattern.split(".", 1)
        cls = getattr(module, cls_name, None)
        return [(cls, meth)] if cls is not None and callable(getattr(cls, meth, None)) else []
    return [
        (module, name)
        for name, obj in vars(module).items()
        if fnmatch.fnmatchcase(name, pattern)
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]


def install(tracer: Tracer) -> None:
    """Wrap every layer function where its callers look it up."""
    # Load every module the CLI loads first, so that each name imported
    # by another module is in place to be replaced.
    importlib.import_module("uip.cli")
    for layer, (mod_name, pattern) in LAYERS.items():
        try:
            module = importlib.import_module(mod_name)
        except ImportError:
            tracer.absent.append(layer)
            continue
        targets = _targets(module, pattern)
        if not targets:
            tracer.absent.append(layer)
            continue
        for owner, attr in targets:
            original = getattr(owner, attr)
            wrapped = _wrap(tracer, layer, original)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapped)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "uip" or name.startswith("uip."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)


def summarize(doc: dict) -> tuple[dict[str, dict], float]:
    """Per-layer calls and self time, plus the worst closure error.

    Self time is a span's duration minus its child spans. The closure
    error is the largest gap, over top-level spans, between a span's
    duration and the summed self times of its subtree; it is rounding
    when the spans nest properly.
    """
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    layers: dict[str, dict] = {}
    root = [0] * len(spans)
    subtree: dict[int, float] = {}
    for i, (nid, t0, t1, parent) in enumerate(spans):
        own = (t1 - t0) - child[i]
        rec = layers.setdefault(names[nid], {"calls": 0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += own
        root[i] = i if parent < 0 else root[parent]
        subtree[root[i]] = subtree.get(root[i], 0.0) + own
    closure = max(
        (abs((spans[r][2] - spans[r][1]) - total) for r, total in subtree.items()), default=0.0
    )
    return layers, closure
