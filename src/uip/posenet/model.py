"""Pose network forward pass on the array tape.

Two branches estimate root-relative sensor positions per frame: a stacked
LSTM over concatenated orientation/acceleration features (temporal), and a
distance-attention graph layer stack over per-frame sensor distances
(spatial). An acceleration-gated blend fuses them, and a small decoder maps
the fused positions plus the raw features to joint rotations and foot
contacts.

`Forward` is the one implementation. Training runs it on a recording tape;
inference (`infer`) and validation losses run it on a values-only tape
(`Tape(grads=False)`), which keeps no op records, so only the live
activations stay in memory and the values are bitwise the training ones.
Layout: a batch is W windows of T frames, flattened to N = W*T frames in
window-major order, one row per frame. Position rows are sensor-major:
column 3*s + k is coordinate k of sensor s. The graph layers hold one row
per sensor node, row 6*f + s.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff import Node, Tape
from ..errors import ConfigError, ContractViolationError, DataError
from ..skeleton import HEAD_SENSOR, N_SENSORS, PELVIS_SENSOR
from .params import PoseNetParams

# Minimum believable head-pelvis separation for distance normalization.
MIN_NORMALIZER_M = 0.01


@dataclass(frozen=True)
class ModelInput:
    """T frames of network input.

    r: per-sensor orientations, 6D representation, shape (T, 6, 6)
    a: per-sensor world accelerations (gravity removed), m/s^2, shape (T, 6, 3)
    d: inter-sensor distances, m, shape (T, 6, 6), each frame symmetric
       with zero diagonal
    valid: entry validity mask for d, shape (T, 6, 6)
    """

    r: np.ndarray
    a: np.ndarray
    d: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        a = np.asarray(self.a, dtype=float)
        d = np.asarray(self.d, dtype=float)
        v = np.asarray(self.valid, dtype=bool)
        t = r.shape[0] if r.ndim == 3 else -1
        if r.shape != (t, N_SENSORS, 6) or a.shape != (t, N_SENSORS, 3):
            raise ContractViolationError(
                f"bad input shapes r{r.shape} a{a.shape}"
            )
        if t < 1:
            raise ContractViolationError("need at least one input frame")
        if d.shape != (t, N_SENSORS, N_SENSORS) or v.shape != d.shape:
            raise ContractViolationError(f"bad distance shapes d{d.shape} valid{v.shape}")
        if not np.array_equal(d, d.transpose(0, 2, 1)):
            raise ContractViolationError("distance matrix must be symmetric")
        diag = np.arange(N_SENSORS)
        if np.any(d[:, diag, diag] != 0.0):
            raise ContractViolationError("distance matrix diagonal must be zero")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "valid", v)


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
        """Both branches, fusion and the decoder.

        r: (W, T, 6, 6) orientations, a: (W, T, 6, 3) accelerations; d,
        valid: (W*T, 6, 6). Returns (N, 18) positions p_t, p_s and p,
        (N, 90) rotations and (N, 2) contact logits.
        """
        w_count, t_count = r.shape[:2]
        n = w_count * t_count
        r_frames = r.reshape(n, N_SENSORS, 6)
        a_frames = a.reshape(n, N_SENSORS, 3)
        p_t = self.lstm(np.concatenate([r, a], axis=3).reshape(w_count, t_count, N_SENSORS * 9))
        p_s, dn_masked = self.dagcn(r_frames, d, valid)
        p = self.fuse(p_t, p_s, a_frames)
        rot, con = self.decoder(p, r_frames, a_frames, dn_masked)
        return {"p_t": p_t, "p_s": p_s, "p": p, "rotations": rot, "contacts": con}

    # -- temporal branch ---------------------------------------------------

    def lstm(self, x: np.ndarray) -> Node:
        """x: (W, T, 54) features -> (W*T, 18) positions, window-major rows."""
        t = self.tape
        w_count, t_count, _ = x.shape
        h_size = self.cfg.lstm_hidden
        layer_in = [t.const(x[:, step]) for step in range(t_count)]
        for layer in range(self.cfg.lstm_layers):
            wx = self.params[f"lstm{layer}_wx"].T
            wh = self.params[f"lstm{layer}_wh"].T
            b = self.params[f"lstm{layer}_b"]
            h = c = t.const(np.zeros((w_count, h_size)))
            outs: list[Node] = []
            for inp in layer_in:
                z = t.add(t.add(t.matmul(inp, wx), t.matmul(h, wh)), b)
                gi = t.sigmoid(z[:, :h_size])
                gf = t.sigmoid(z[:, h_size : 2 * h_size])
                gg = t.tanh(z[:, 2 * h_size : 3 * h_size])
                go = t.sigmoid(z[:, 3 * h_size :])
                c = t.add(t.mul(gf, c), t.mul(gi, gg))
                h = t.mul(go, t.tanh(c))
                outs.append(h)
            layer_in = outs
        hs = t.stack(layer_in).transpose(1, 0, 2).reshape(w_count * t_count, h_size)
        return self._linear(hs, "pt")

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
        distances (N, 36) that the decoder reuses.
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

    def decoder(self, p: Node, r: np.ndarray, a: np.ndarray, dn_masked: np.ndarray) -> tuple[Node, Node]:
        """Joint-rotation and contact-logit heads from fused positions.

        r: (N, 6, 6) orientations, a: (N, 6, 3) accelerations, dn_masked:
        (N, 36) masked normalized distances. Returns (N, 90) rotations and
        (N, 2) contact logits.
        """
        t = self.tape
        n = dn_masked.shape[0]
        raw = np.concatenate([r.reshape(n, -1), a.reshape(n, -1), dn_masked], axis=1)
        hidden = t.tanh(self._linear(t.concat([p, t.const(raw)], axis=1), "dec"))
        return self._linear(hidden, "rot"), self._linear(hidden, "con")


def infer(
    params: PoseNetParams, r: np.ndarray, a: np.ndarray, d: np.ndarray, valid: np.ndarray
) -> PoseOutput:
    """Both branches, fusion, and the decoder over one sequence of T frames.

    r: (T, 6, 6), a: (T, 6, 3), d and valid: (T, 6, 6), as ModelInput
    checks them.
    """
    x = ModelInput(r, a, d, valid)
    fwd = Forward(Tape(grads=False), params)
    out = fwd.run(x.r[None], x.a[None], x.d, x.valid)
    n = x.r.shape[0]
    return PoseOutput(
        p_t=out["p_t"].value.reshape(n, N_SENSORS, 3),
        p_s=out["p_s"].value.reshape(n, N_SENSORS, 3),
        p=out["p"].value.reshape(n, N_SENSORS, 3),
        rotations=out["rotations"].value.reshape(n, 15, 6),
        contacts=fwd.tape.sigmoid(out["contacts"]).value,
    )
