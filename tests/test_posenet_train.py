"""Optimizer, schedule, splits, divergence reporting, checkpoints."""
import base64
import dataclasses
import json

import numpy as np
import pytest

from conftest import TINY_NET, random_windows
from uip.autodiff import Tape
from uip.errors import CheckpointVersionError, ConfigError, DataError, DivergenceError
from uip.posenet import (
    PoseNetConfig,
    PoseNetParams,
    TrainSettings,
    Windows,
    batch_loss,
    checkpoint_body,
    init_params,
    learning_rate_at,
    train,
)
from uip.posenet.train import _Adam
from uip.rng import derive_rng


def test_learning_rate_steps_down_every_20_epochs():
    tc = TrainSettings(learning_rate=1e-3, lr_decay=0.33, lr_decay_every=20)
    assert learning_rate_at(tc, 1) == 1e-3
    assert learning_rate_at(tc, 20) == 1e-3
    assert learning_rate_at(tc, 21) == 1e-3 * 0.33
    assert learning_rate_at(tc, 40) == 1e-3 * 0.33
    assert learning_rate_at(tc, 41) == 1e-3 * 0.33**2


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainSettings(epochs=0)
    with pytest.raises(ConfigError):
        TrainSettings(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainSettings(lr_decay=1.5)
    with pytest.raises(ConfigError):
        TrainSettings(val_fraction=1.0)


def test_adam_first_step_hand_oracle():
    # With zero state, one step moves each value by lr * g / (|g| + eps).
    g = np.array([0.5, -2.0, 0.0])
    theta = np.array([1.0, 1.0, 1.0])
    opt = _Adam({"w": theta})
    opt.step({"w": theta}, {"w": g}, lr=0.1)
    want = 1.0 - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(theta, want, atol=1e-12)


def test_window_validation():
    w = random_windows(1, 2, frames=3)
    with pytest.raises(DataError, match=r"input r has shape \(2, 3, 5, 6\), expected \(2, 3, 6, 6\)"):
        dataclasses.replace(w, r=w.r[:, :, :5])
    soft = w.contacts.copy()
    soft[0, 0, 0] = 0.5
    with pytest.raises(DataError, match="contact labels must be 0 or 1"):
        dataclasses.replace(w, contacts=soft)
    holed = w.a.copy()
    holed[1, 2, 0, 0] = np.nan
    with pytest.raises(DataError, match=r"^frame \(1, 2\): non-finite a$"):
        dataclasses.replace(w, a=holed)
    with pytest.raises(DataError, match=r"window field positions has shape \(2, 2, 6, 3\), expected \(2, 3, 6, 3\)"):
        dataclasses.replace(w, positions=w.positions[:, :2])
    with pytest.raises(DataError, match="window field rotations has non-finite values"):
        dataclasses.replace(w, rotations=np.full_like(w.rotations, np.inf))
    # One clip's (T, ...) arrays are not a stack of windows.
    with pytest.raises(DataError, match=r"windows need \(W, T, 6, 6\) orientations, got \(3, 6, 6\)"):
        Windows(**{f.name: getattr(w, f.name)[0] for f in dataclasses.fields(w)})


def test_take_stacks_the_indexed_windows_in_order():
    w = random_windows(2, 5, frames=3)
    part = w.take(np.array([3, 0, 3]))
    assert len(part) == 3
    for f in dataclasses.fields(w):
        got, full = getattr(part, f.name), getattr(w, f.name)
        assert got.tobytes() == np.stack([full[3], full[0], full[3]]).tobytes()
        assert got.dtype == full.dtype


def test_batch_loss_records_as_many_tape_ops_for_any_window_length(monkeypatch):
    # The recurrent branch is one record per layer, so a batch of 48-frame
    # windows records no more ops than one of 24-frame windows.
    recorded = []
    gradient = Tape.gradient

    def counting(tape, root, wrt):
        recorded.append(len(tape._ops))
        return gradient(tape, root, wrt)

    monkeypatch.setattr(Tape, "gradient", counting)
    params = init_params(dataclasses.replace(TINY_NET, lstm_layers=2), 1)
    for frames in (24, 48):
        batch_loss(params, random_windows(9, 2, frames=frames))
    assert recorded[0] == recorded[1] > 0


def test_training_reduces_loss_and_logs_every_epoch():
    windows = random_windows(31, 8, frames=4)
    tc = TrainSettings(epochs=6, batch_size=4, val_fraction=0.25)
    fitted, log = train(windows, TINY_NET, tc, seed=31)
    assert len(log) == 6
    assert log[-1]["train_loss"] < log[0]["train_loss"]
    for rec in log:
        assert rec["val_loss"] is not None
        assert rec["train_loss"] == pytest.approx(
            rec["position_loss"] + rec["rotation_loss"] + rec["contact_loss"],
            rel=1e-9,
        )
    assert fitted.config == TINY_NET


def test_training_is_deterministic():
    windows = random_windows(32, 6, frames=4)
    tc = TrainSettings(epochs=3, batch_size=4)
    a_params, a_log = train(windows, TINY_NET, tc, seed=32)
    b_params, b_log = train(windows, TINY_NET, tc, seed=32)
    assert a_log == b_log
    for name, tensor in a_params.tensors.items():
        assert np.array_equal(tensor, b_params.tensors[name])


def test_validation_split_capped_below_dataset_size():
    # One window with a large validation fraction must still leave a
    # training set; validation then has nothing and logs None.
    windows = random_windows(33, 1, frames=4)
    tc = TrainSettings(epochs=1, batch_size=1, val_fraction=0.9)
    _, log = train(windows, TINY_NET, tc, seed=33)
    assert log[0]["val_loss"] is None


def test_resuming_from_params_leaves_source_untouched():
    windows = random_windows(34, 4, frames=4)
    start = init_params(TINY_NET, 34)
    frozen = {k: v.copy() for k, v in start.tensors.items()}
    tc = TrainSettings(epochs=2, batch_size=2)
    fitted, _ = train(windows, TINY_NET, tc, params=start, seed=34)
    for name, tensor in start.tensors.items():
        assert np.array_equal(tensor, frozen[name])
    assert any(
        not np.array_equal(fitted.tensors[n], frozen[n]) for n in frozen
    )


def test_architecture_mismatch_rejected():
    windows = random_windows(35, 2, frames=3)
    other = PoseNetConfig(
        lstm_hidden=4, lstm_layers=1, gcn_width=8, gcn_layers=1, decoder_hidden=4
    )
    with pytest.raises(ConfigError):
        train(windows, TINY_NET, TrainSettings(epochs=1), params=init_params(other, 0))


def test_empty_dataset_rejected():
    # A training set of no windows cannot be built, so train never sees one.
    with pytest.raises(DataError, match=r"need at least one input frame, got leading shape \(0, 4\)"):
        random_windows(3, 2, frames=4).take(np.arange(0))


def test_divergence_reports_worst_parameter_norms():
    windows = random_windows(36, 2, frames=3)
    params = init_params(TINY_NET, 36)
    params.tensors["rot_w"][:] = 1e200
    with pytest.raises(DivergenceError) as err, np.errstate(all="ignore"):
        train(windows, TINY_NET, TrainSettings(epochs=1, batch_size=2), params=params, seed=36)
    message = str(err.value)
    assert "epoch 1" in message
    assert "largest parameter norms" in message
    assert "rot_w" in message


def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    params = init_params(TINY_NET, 37)
    params.tensors["rot_w"].flat[:7] = [-0.0, 5e-324, -2.2e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1]
    path = tmp_path / "checkpoint.json"
    params.save(path)
    loaded = PoseNetParams.load(path)
    assert loaded.config == params.config
    assert list(loaded.tensors) == list(params.tensors)
    for name, tensor in params.tensors.items():
        assert loaded.tensors[name].shape == tensor.shape
        assert loaded.tensors[name].tobytes() == tensor.tobytes()
    # The body ends in every tensor's raw little-endian bytes, in C order and tensor order.
    raw = b"".join(np.ascontiguousarray(t, "<f8").tobytes() for t in params.tensors.values())
    assert checkpoint_body(path).read_bytes().endswith(raw)
    # Saving is deterministic: a second save, and a save of the loaded copy, give the same bytes in both files.
    params.save(tmp_path / "again.json")
    loaded.save(tmp_path / "reloaded.json")
    for suffix in (".json", ".npy"):
        want = path.with_suffix(suffix).read_bytes()
        assert (tmp_path / f"again{suffix}").read_bytes() == want
        assert (tmp_path / f"reloaded{suffix}").read_bytes() == want


def test_checkpoint_version_gate(tmp_path):
    params = init_params(TINY_NET, 38)
    path = tmp_path / "checkpoint.json"
    params.save(path)
    blob = json.loads(path.read_text())
    # Version 1 stored each tensor in the JSON as a list of numbers, version 2
    # as the base64 of its <f8 bytes; both are refused, not read.
    v1 = dict(blob, format_version=1, tensors={
        name: {"shape": list(t.shape), "data": t.ravel().tolist()} for name, t in params.tensors.items()
    })
    v2 = dict(blob, format_version=2, tensors={
        name: {"shape": list(t.shape), "data": base64.b64encode(t.astype("<f8").tobytes()).decode("ascii")}
        for name, t in params.tensors.items()
    })
    for doc, version in ((v1, "1"), (v2, "2"), (dict(blob, format_version=999), "999")):
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointVersionError, match=f"checkpoint.json: checkpoint format {version},"):
            PoseNetParams.load(path)


def test_malformed_checkpoint_is_a_data_error(tmp_path):
    params = init_params(TINY_NET, 39)
    path = tmp_path / "checkpoint.json"
    body = checkpoint_body(path)
    params.save(path)
    good = json.loads(path.read_text())
    good_body = body.read_bytes()

    def edited(**changes):
        return dict(json.loads(json.dumps(good)), **changes)

    for doc, why in (
        ([good], "is not a parameter checkpoint"),
        ({k: v for k, v in good.items() if k != "config"}, "'config' must be an object"),
        (edited(config=[4, 1]), "'config' must be an object"),
        (edited(config=dict(good["config"], lstm_hidden=0)), "bad config block"),
    ):
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=why) as err:
            PoseNetParams.load(path)
        assert str(path) in str(err.value)
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(DataError, match="cannot read checkpoint"):
        PoseNetParams.load(path)
    # A header for another architecture than its body's is refused at the first tensor that differs.
    path.write_text(json.dumps(edited(config=dict(good["config"], lstm_hidden=5))))
    with pytest.raises(DataError, match=r"field 'lstm0_wx': shape \(16, 90\), expected \(20, 90\)") as err:
        PoseNetParams.load(path)
    assert str(body) in str(err.value)
    path.write_text(json.dumps(good))

    tensors = [(name, "<f8", t) for name, t in params.tensors.items()]

    def record(fields, shape=()):
        rec = np.zeros(shape, [(name, dtype, np.shape(value)) for name, dtype, value in fields])
        for name, _, value in fields:
            rec[name] = value
        return rec

    def replaced(name, dtype="<f8", value=None):
        return [(n, dtype, t if value is None else value) if n == name else (n, d, t) for n, d, t in tensors]

    data = 8 * sum(t.size for t in params.tensors.values())
    pt_b = params.tensors["pt_b"]  # shape (18,), after pt_w
    at = [n for n, _, _ in tensors].index("pt_w")
    swapped = tensors[:at] + [tensors[at + 1], tensors[at]] + tensors[at + 2:]
    for content, why in (
        (None, "missing file"),
        (good_body[:40], "bad .npy header: EOF"),
        (good_body[:-4], rf"{data - 4} bytes of data, the header's 1 record\(s\) of {data} bytes need {data}"),
        (good_body + bytes(8), rf"{data + 8} bytes of data, the header's 1 record\(s\) of {data} bytes need {data}"),
        (record(replaced("pt_b", "<f4")), "field 'pt_b': dtype <f4, expected <f8"),
        (record(replaced("pt_b", ">f8")), "field 'pt_b': dtype >f8, expected <f8"),
        (record([f for f in tensors if f[0] != "pt_b"]), "missing field 'pt_b'"),
        (record(tensors + [("extra", "<f8", pt_b)]), "unexpected field 'extra'"),
        (record(swapped), f"field 'pt_b' at position {at}, expected 'pt_w'"),
        (record(replaced("pt_b", value=pt_b.reshape(2, 9))), r"field 'pt_b': shape \(2, 9\), expected \(18,\)"),
        (record(tensors, shape=(1,)), r"record shape \(1,\), expected a 0-d C-order array"),
        (record(replaced("pt_b", value=np.append(np.nan, pt_b[1:]))), "field 'pt_b': non-finite value"),
        (record(replaced("pt_b", value=np.append(np.inf, pt_b[1:]))), "field 'pt_b': non-finite value"),
        (record(replaced("pt_b", "O")), r"field 'pt_b': dtype \|O, expected <f8"),
        (np.array(dict(params.tensors), dtype=object), r"dtype \|O is not a record of fields"),
    ):
        if content is None:
            body.unlink()
        elif isinstance(content, bytes):
            body.write_bytes(content)
        else:
            with open(body, "wb") as f:
                np.save(f, content, allow_pickle=True)
        with pytest.raises(DataError, match=why) as err:
            PoseNetParams.load(path)
        assert str(body) in str(err.value)
    body.write_bytes(good_body)
    assert all(t.tobytes() == params.tensors[n].tobytes() for n, t in PoseNetParams.load(path).tensors.items())
