"""Pose network forward pass on the array tape.

Two branches estimate root-relative sensor positions per frame: a stacked
LSTM over each frame's orientations, accelerations and masked normalized
distances (temporal), and a distance-attention graph layer stack over
per-frame sensor distances (spatial). An acceleration-gated blend fuses
them, and a small decoder maps the fused positions plus the orientations
to joint rotations and foot contacts. The decoder is per frame, so it
takes no raw accelerations or distances: their per-frame noise would
reach every frame's pose.

What the network reads is declared once, in `check_inputs`: per frame the
orientations r, accelerations a, distances d and their mask valid, over
any leading shape. `infer` calls it on one clip's (T, ...) arrays and
`train.Windows` on stacked (W, T, ...) training windows.

`Forward` is the one implementation. Training runs it on a recording tape;
inference (`infer`) and validation losses run it on a values-only tape
(`Tape(grads=False)`), which keeps no op records, so only the live
activations stay in memory and the values are bitwise the training ones.
Layout: `Forward.run` takes W windows of T frames, (W, T, ...), and
flattens them to N = W*T frames in window-major order, one row per frame.
Position rows are sensor-major: column 3*s + k is coordinate k of sensor
s. The graph layers hold one row per sensor node, row 6*f + s.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff import Node, Tape
from ..errors import ConfigError, DataError
from ..skeleton import HEAD_SENSOR, N_SENSORS, PELVIS_SENSOR
from .params import PoseNetParams

# Minimum believable head-pelvis separation for distance normalization.
MIN_NORMALIZER_M = 0.01


_INPUT_TAILS = {"r": (N_SENSORS, 6), "a": (N_SENSORS, 3), "d": (N_SENSORS, N_SENSORS), "valid": (N_SENSORS, N_SENSORS)}


def check_inputs(r, a, d, valid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The network's per-frame input, checked, as float r, a, d and bool valid.

    r: 6D sensor orientations (..., 6, 6); a: gravity-free world
    accelerations, m/s^2 (..., 6, 3); d: inter-sensor distances, m, and
    valid, their mask (..., 6, 6). The four share one leading shape, (T,)
    for a clip or (W, T) for stacked windows, of at least one frame; r, a
    and d are finite and each frame's d symmetric with a zero diagonal. A
    DataError names the first bad frame (an index tuple for (W, T)).
    """
    r, a, d = (np.asarray(x, dtype=float) for x in (r, a, d))
    valid = np.asarray(valid, dtype=bool)
    lead = r.shape[:-2]
    for (name, tail), arr in zip(_INPUT_TAILS.items(), (r, a, d, valid)):
        if arr.shape != lead + tail:
            raise DataError(f"input {name} has shape {arr.shape}, expected {lead + tail}")
    if not lead or 0 in lead:
        raise DataError(f"need at least one input frame, got leading shape {lead}")
    diag = np.arange(N_SENSORS)
    problems = {
        "non-finite r": ~np.isfinite(r),
        "non-finite a": ~np.isfinite(a),
        "non-finite d": ~np.isfinite(d),
        "distance matrix not symmetric": d != np.swapaxes(d, -1, -2),
        "distance matrix diagonal not zero": d[..., diag, diag] != 0.0,
    }
    bad = np.stack([flags.reshape(r[..., 0, 0].size, -1).any(axis=1) for flags in problems.values()], axis=1)
    if bad.any():
        k = int(np.argmax(bad.any(axis=1)))
        frame = tuple(int(i) for i in np.unravel_index(k, lead))
        problem = list(problems)[int(np.argmax(bad[k]))]
        raise DataError(f"frame {frame[0] if len(lead) == 1 else frame}: {problem}")
    return r, a, d, valid


@dataclass(frozen=True)
class PoseOutput:
    """Network output over T frames.

    p_t, p_s, p: temporal, spatial, and fused sensor positions relative to
    the pelvis sensor, m, shape (T, 6, 3). rotations: local joint rotations
    in 6D representation, shape (T, 15, 6), not orthonormalized. contacts:
    foot contact probabilities (left, right), shape (T, 2), each in [0, 1].
    """

    p_t: np.ndarray
    p_s: np.ndarray
    p: np.ndarray
    rotations: np.ndarray
    contacts: np.ndarray


def normalize_distances(d: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """Distance matrices (..., 6, 6), each divided by its head-pelvis entry.

    A frame whose mask is all invalid keeps its values (they are about to
    be masked out anyway, and scaling by an untrusted entry would only
    inject noise); otherwise a head-pelvis distance at or below 1 cm is
    rejected, naming the first such frame (flat over the leading axes).
    """
    d = np.asarray(d, dtype=float)
    ref = np.array(d[..., HEAD_SENSOR, PELVIS_SENSOR], dtype=float).reshape(-1)
    if valid is not None:
        ref[~np.asarray(valid, dtype=bool).reshape(ref.size, -1).any(axis=1)] = 1.0
    bad = ref <= MIN_NORMALIZER_M
    if np.any(bad):
        frame = int(np.argmax(bad))
        raise DataError(
            f"head-pelvis distance {ref[frame]:.4f} m too small to "
            f"normalize by (frame {frame})"
        )
    return d / ref.reshape(d.shape[:-2] + (1, 1))


def fusion_weights(accel_norm: np.ndarray, low: float, high: float) -> np.ndarray:
    """Temporal-branch weight per sensor: 0 at/below `low`, 1 at/above `high`."""
    if not 0.0 <= low < high:
        raise ConfigError(f"need 0 <= low < high, got ({low}, {high})")
    a = np.asarray(accel_norm, dtype=float)
    return np.clip((a - low) / (high - low), 0.0, 1.0)


class Forward:
    """The network over one batch of equal-length windows, on a tape."""

    def __init__(self, tape: Tape, params: PoseNetParams):
        self.tape = tape
        self.cfg = params.config
        self.params = {name: tape.leaf(arr) for name, arr in params.tensors.items()}

    def _linear(self, x: Node, name: str) -> Node:
        """Rows of x through the `name` layer: x @ W.T + b."""
        t = self.tape
        return t.add(t.matmul(x, self.params[f"{name}_w"].T), self.params[f"{name}_b"])

    def run(self, r: np.ndarray, a: np.ndarray, d: np.ndarray, valid: np.ndarray) -> dict[str, Node]:
        """Both branches, fusion and the decoder over W windows of T frames.

        r, a, d, valid: (W, T, ...) as check_inputs takes them. Returns
        (W*T, 18) positions p_t, p_s and p, (W*T, 90) rotations and
        (W*T, 2) contact logits, window-major rows.
        """
        w_count, t_count = r.shape[:2]
        n = w_count * t_count
        r_frames = r.reshape(n, N_SENSORS, 6)
        pairs = (n, N_SENSORS, N_SENSORS)
        p_s, dn_masked = self.dagcn(r_frames, d.reshape(pairs), valid.reshape(pairs))
        seq = (w_count, t_count, -1)
        p_t = self.lstm(np.concatenate([r.reshape(seq), a.reshape(seq), dn_masked.reshape(seq)], axis=2))
        p = self.fuse(p_t, p_s, a.reshape(n, N_SENSORS, 3))
        rot, con = self.decoder(p, r_frames)
        return {"p_t": p_t, "p_s": p_s, "p": p, "rotations": rot, "contacts": con}

    # -- temporal branch ---------------------------------------------------

    def lstm(self, x: np.ndarray) -> Node:
        """x: (W, T, 90) features -> (W*T, 18) positions, window-major rows.

        A frame's 90 features are its 36 orientation and 18 acceleration
        columns, each sensor-major, then its 36 masked normalized distances.
        """
        t = self.tape
        w_count, t_count, _ = x.shape
        hs = t.const(x.transpose(1, 0, 2))  # step-major (T, W, 90)
        for layer in range(self.cfg.lstm_layers):
            hs = t.lstm_layer(hs, *(self.params[f"lstm{layer}_{k}"] for k in ("wx", "wh", "b")))
        return self._linear(hs.transpose(1, 0, 2).reshape(w_count * t_count, self.cfg.lstm_hidden), "pt")

    # -- spatial branch ------------------------------------------------------

    def correlation(self, layer: int, dn: np.ndarray, mask: np.ndarray) -> Node:
        """Masked correlation matrices C of one layer over all frames.

        dn: (N, 6, 6) normalized distances; mask: (N, 6, 6) validity with
        the diagonal already cleared. Returns (N, 6, 6). Masked entries
        are exact zeros; each row with surviving entries is renormalized
        to sum 1 unless its sum is vanishingly small (such a row stays as
        it is, keeping the map total).
        """
        t = self.tape
        adj = self.params[f"gcn{layer}_adj"]
        raw = t.add(t.mul(adj, t.const(dn)), self.params[f"gcn{layer}_bias"])
        rows = t.select(mask, raw)
        sums = t.group_sum(rows)
        tiny = np.abs(sums.value) < 1e-30
        inv = t.recip(t.add_const(t.select(~tiny, sums), tiny))
        return t.mul(rows, inv.reshape(*tiny.shape, 1))

    def dagcn(self, r: np.ndarray, d: np.ndarray, valid: np.ndarray) -> tuple[Node, np.ndarray]:
        """Spatial branch over N frames.

        r: (N, 6, 6) orientations; d, valid: (N, 6, 6) raw distances and
        mask. Returns (N, 18) positions and the masked normalized
        distances (N, 36) that the temporal branch reads.
        """
        t = self.tape
        n, s, width = d.shape[0], N_SENSORS, self.cfg.gcn_width
        mask = valid & ~np.eye(s, dtype=bool)
        dn = normalize_distances(d, valid)
        emb = self._linear(t.const(r.reshape(n * s, 6)), "emb")
        h = emb
        for layer in range(self.cfg.gcn_layers):
            param = {k: self.params[f"gcn{layer}_{k}"] for k in ("w", "mod", "scale", "shift")}
            corr = self.correlation(layer, dn, mask)
            g = t.mul(t.matmul(h, param["w"].T).reshape(n, s, width), param["mod"].T)
            agg = t.matmul(corr.transpose(0, 2, 1), g).reshape(n * s, width)
            h = t.add(t.add(t.mul(agg, param["scale"]), param["shift"]), emb)
        p = self._linear(h, "ps").reshape(n, s * 3)
        return p, np.where(mask, dn, 0.0).reshape(n, s * s)

    # -- fusion and decoder --------------------------------------------------

    def fuse(self, p_t: Node, p_s: Node, accel: np.ndarray) -> Node:
        """Blend (N, 18) branch outputs; accel is (N, 6, 3) world accel."""
        norms = np.linalg.norm(accel, axis=2)  # (N, 6)
        w = fusion_weights(norms, self.cfg.accel_low, self.cfg.accel_high)
        w18 = np.repeat(w, 3, axis=1)  # sensor-major columns, (N, 18)
        return self.tape.blend(p_t, p_s, w18, 1.0 - w18)

    def decoder(self, p: Node, r: np.ndarray) -> tuple[Node, Node]:
        """Joint-rotation and contact-logit heads from fused positions.

        p: (N, 18) fused positions, r: (N, 6, 6) orientations. Returns
        (N, 90) rotations and (N, 2) contact logits.
        """
        t = self.tape
        hidden = t.tanh(self._linear(t.concat([p, t.const(r.reshape(r.shape[0], -1))], axis=1), "dec"))
        return self._linear(hidden, "rot"), self._linear(hidden, "con")


def infer(
    params: PoseNetParams, r: np.ndarray, a: np.ndarray, d: np.ndarray, valid: np.ndarray
) -> PoseOutput:
    """Both branches, fusion, and the decoder over one sequence of T frames.

    r: (T, 6, 6), a: (T, 6, 3), d and valid: (T, 6, 6), as check_inputs
    checks them.
    """
    r, a, d, valid = check_inputs(r, a, d, valid)
    if r.ndim != 3:
        raise DataError(f"infer takes one sequence of (T, 6, 6) orientations, got {r.shape}")
    fwd = Forward(Tape(grads=False), params)
    out = fwd.run(r[None], a[None], d[None], valid[None])
    n = r.shape[0]
    return PoseOutput(
        **{k: out[k].value.reshape(n, N_SENSORS, 3) for k in ("p_t", "p_s", "p")},
        rotations=out["rotations"].value.reshape(n, 15, 6),
        contacts=fwd.tape.sigmoid(out["contacts"]).value,
    )
