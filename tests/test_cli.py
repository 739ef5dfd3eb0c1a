"""CLI contract: exit codes, flags, and the full command chain."""
import json
import re
import shutil
from types import SimpleNamespace

import pytest

import uip.cli as cli
from uip.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED, main
from uip.config import (
    ImuSettings,
    ModelSettings,
    MotionSettings,
    RunConfig,
    TrainSettings,
    UwbSettings,
)
from uip.errors import DivergenceError
from uip.storage import read_manifest, write_manifest

CLI_CONFIG = RunConfig(
    seed=23,
    motions=MotionSettings(catalog=("walk", "idle"), duration_s=2.0, rate_hz=20.0),
    imu=ImuSettings(tpose_seconds=1.5),
    uwb=UwbSettings(drop_prob=0.0),
    model=ModelSettings(
        lstm_hidden=4, lstm_layers=1, gcn_width=4, gcn_layers=1, decoder_hidden=4,
        window_frames=12, window_stride=8,
    ),
    train=TrainSettings(epochs=1, batch_size=8, val_fraction=0.0),
)


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    CLI_CONFIG.save(config)
    data = root / "dataset"
    filt = root / "filtered"
    assert main(["synth", "--out", str(data), "--config", str(config)]) == 0
    assert main(["filter", "--data", str(data), "--out", str(filt)]) == 0
    return SimpleNamespace(root=root, config=config, data=data, filt=filt)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "synth" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_synth_reports_clips(env, capsys):
    out = env.root / "resynth"
    assert main(["synth", "--out", str(out), "--config", str(env.config)]) == 0
    printed = capsys.readouterr().out
    assert "clip_000_walk" in printed
    assert "wrote" in printed
    assert read_manifest(out) == read_manifest(env.data)


def test_seed_override_changes_outputs(env, tmp_path):
    out = tmp_path / "seeded"
    code = main(["synth", "--out", str(out), "--config", str(env.config), "--seed", "99"])
    assert code == 0
    ours = read_manifest(out)
    theirs = read_manifest(env.data)
    assert set(ours) == set(theirs)
    assert ours != theirs
    assert json.loads((out / "config.json").read_text())["seed"] == 99


def test_filter_prints_rmse_lines(env, capsys):
    out = env.root / "refilter"
    assert main(["filter", "--data", str(env.data), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "range calibration" in printed
    assert "-> filtered" in printed


def test_train_eval_report_chain(env, capsys):
    tdir = env.root / "train"
    code = main(
        ["train", "--data", str(env.filt), "--out", str(tdir), "--config", str(env.config)]
    )
    assert code == 0
    assert "checkpoint written" in capsys.readouterr().out
    assert json.loads((tdir / "run.json").read_text())["no_distances"] is False

    edir = env.root / "eval"
    code = main(
        [
            "eval",
            "--checkpoint", str(tdir / "checkpoint.json"),
            "--data", str(env.filt),
            "--truth", str(env.data),
            "--out", str(edir),
        ]
    )
    assert code == 0
    assert "overall" in capsys.readouterr().out

    table = env.root / "table.txt"
    code = main(["report", "--run", str(edir), "--out", str(table)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "overall" in printed
    assert table.read_text().strip() == printed.strip()


def test_no_distances_flag_recorded(env):
    tdir = env.root / "train_ablate"
    code = main(
        [
            "train", "--data", str(env.filt), "--out", str(tdir),
            "--config", str(env.config), "--no-distances",
        ]
    )
    assert code == 0
    assert json.loads((tdir / "run.json").read_text())["no_distances"] is True


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code = main(["synth", "--out", str(tmp_path / "d"), "--config", str(bad)])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    typo = tmp_path / "typo.json"
    typo.write_text('{"motions": {"catalogg": ["walk"]}}')
    assert main(["synth", "--out", str(tmp_path / "d2"), "--config", str(typo)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("model", "accel_low", 9.0),
        ("train", "epochs", 0),
        ("model", "window_frames", 24.5),
        ("train", "batch_size", 2.5),
        ("model", "lstm_hidden", "4"),
        ("imu", "accel_sigma", float("nan")),
        ("motions", "duration_s", float("nan")),
    ],
)
def test_settings_are_refused_at_parse_time(env, tmp_path, capsys, section, key, value):
    # Every stage parses the whole config, so a setting only `train`
    # uses is refused by `synth` too, and neither writes anything.
    doc = CLI_CONFIG.to_dict()
    doc[section][key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    for argv in (
        ["synth", "--out", str(tmp_path / "out")],
        ["train", "--data", str(env.filt), "--out", str(tmp_path / "out")],
    ):
        assert main(argv + ["--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err
        assert not (tmp_path / "out").exists()


def test_filter_takes_no_config(env, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["filter", "--data", str(env.data), "--out", str(tmp_path / "out"), "--config", str(env.config)])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_data_error_exit_code(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["filter", "--data", str(empty), "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_nan_imu_sample_is_a_data_error(env, tmp_path, capsys):
    data = tmp_path / "poisoned"
    shutil.copytree(env.data, data)
    imu = data / "clip_000_walk" / "imu_s2.csv"
    lines = imu.read_text().splitlines()
    fields = lines[10].split(",")
    fields[1] = "nan"
    lines[10] = ",".join(fields)
    imu.write_text("\n".join(lines) + "\n")
    write_manifest(data, list(read_manifest(data)))
    code = main(["filter", "--data", str(data), "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err
    assert "imu_s2.csv:11: non-finite" in err


def test_nan_range_is_a_data_error(env, tmp_path, capsys):
    data = tmp_path / "poisoned"
    shutil.copytree(env.data, data)
    ranging = data / "clip_000_walk" / "ranging.csv"
    lines = ranging.read_text().splitlines()
    row = next(k for k in range(1, len(lines)) if lines[k].endswith(",1"))
    fields = lines[row].split(",")
    fields[4] = "nan"
    lines[row] = ",".join(fields)
    ranging.write_text("\n".join(lines) + "\n")
    write_manifest(data, list(read_manifest(data)))
    code = main(["filter", "--data", str(data), "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"ranging.csv:{row + 1}: non-finite" in err
    assert not (tmp_path / "out" / "rmse_report.json").exists()


def test_filter_divergence_exits_4(env, tmp_path, capsys, recwarn):
    # A finite but huge accelerometer sample passes the reader, then
    # overflows the range update of its sensor's pairs. The one-line
    # message is the whole report: numpy warns of no overflow on the way.
    data = tmp_path / "poisoned"
    shutil.copytree(env.data, data)
    imu = data / "clip_001_idle" / "imu_s4.csv"
    lines = imu.read_text().splitlines()
    fields = lines[10].split(",")
    fields[1] = "1e300"
    lines[10] = ",".join(fields)
    imu.write_text("\n".join(lines) + "\n")
    write_manifest(data, list(read_manifest(data)))
    code = main(["filter", "--data", str(data), "--out", str(tmp_path / "out")])
    assert code == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert re.fullmatch(r"divergence: clip_001_idle: pair \(\d, \d\) diverged at frame \d+\n", err), err
    assert "4" in err.split("pair")[1].split(")")[0]
    assert not (tmp_path / "out" / "rmse_report.json").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("seed", [-1, 2**32])
def test_seed_outside_32_bits_is_a_config_error(env, tmp_path, capsys, seed):
    # seed and seed + 2**32 would draw the same streams, so both the
    # config and --seed refuse any seed outside 0..2**32-1 before writing.
    doc = CLI_CONFIG.to_dict()
    doc["seed"] = seed
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    for argv in (
        ["synth", "--out", str(tmp_path / "out"), "--config", str(config)],
        ["synth", "--out", str(tmp_path / "out"), "--config", str(env.config), "--seed", str(seed)],
        ["train", "--data", str(env.filt), "--out", str(tmp_path / "out"), "--seed", str(seed)],
    ):
        assert main(argv) == EXIT_CONFIG
        assert f"configuration error: seed {seed} outside 0..4294967295" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_truncated_ranging_is_a_data_error(env, tmp_path, capsys):
    data = tmp_path / "poisoned"
    shutil.copytree(env.data, data)
    ranging = data / "clip_000_walk" / "ranging.csv"
    lines = ranging.read_text().splitlines()[:-3]  # the last round loses three pairs
    ranging.write_text("\n".join(lines) + "\n")
    write_manifest(data, list(read_manifest(data)))
    code = main(["filter", "--data", str(data), "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"ranging.csv:{len(lines)}: round" in err
    assert "ends after 12 of 15 pairs" in err
    assert not (tmp_path / "out" / "rmse_report.json").exists()


def test_ranging_with_fewer_rounds_than_its_clip_is_a_data_error(env, tmp_path, capsys):
    for name, why in (
        ("clip_001_idle/ranging.csv", "10 rounds, clip clip_001_idle (40 frames at 20 Hz) needs 50"),
        ("tpose_ranging.csv", "10 rounds, the 1.5 s T-pose needs 38"),
    ):
        data = tmp_path / name.replace("/", "_")
        shutil.copytree(env.data, data)
        ranging = data / name
        lines = ranging.read_text().splitlines()[: 1 + 10 * 15]  # the header and 10 whole rounds
        ranging.write_text("\n".join(lines) + "\n")
        write_manifest(data, list(read_manifest(data)))
        code = main(["filter", "--data", str(data), "--out", str(data / "out")])
        assert code == EXIT_DATA
        assert f"{name}: {why}, one every 0.04 s from 0" in capsys.readouterr().err
        assert not (data / "out" / "rmse_report.json").exists()


@pytest.fixture(scope="module")
def trained(env):
    tdir = env.root / "trained"
    assert main(["train", "--data", str(env.filt), "--out", str(tdir), "--config", str(env.config)]) == 0
    return tdir


def _eval(env, ckpt, out):
    return main(
        [
            "eval",
            "--checkpoint", str(ckpt),
            "--data", str(env.filt),
            "--truth", str(env.data),
            "--out", str(out),
        ]
    )


def test_stale_checkpoint_is_a_data_error(env, trained, tmp_path, capsys):
    tdir = tmp_path / "trained"
    shutil.copytree(trained, tdir)
    ckpt = tdir / "checkpoint.json"
    doc = json.loads(ckpt.read_text())
    doc["config"]["accel_low"] = 1.0  # still a loadable checkpoint, but not the trained one
    ckpt.write_text(json.dumps(doc))
    assert _eval(env, ckpt, tmp_path / "eval") == EXIT_DATA
    assert "hash mismatch for " + str(ckpt) in capsys.readouterr().err
    # A checkpoint its directory's manifest does not list is not trusted either.
    unlisted = tmp_path / "unlisted" / "checkpoint.json"
    unlisted.parent.mkdir()
    shutil.copy(trained / "checkpoint.json", unlisted)
    write_manifest(unlisted.parent, [])
    assert _eval(env, unlisted, tmp_path / "eval") == EXIT_DATA
    assert f"{unlisted} is not listed in {unlisted.parent / 'manifest.json'}" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_malformed_checkpoint_is_a_data_error(env, trained, tmp_path, capsys):
    tdir = tmp_path / "trained"
    shutil.copytree(trained, tdir)
    ckpt = tdir / "checkpoint.json"
    doc = json.loads(ckpt.read_text())
    del doc["tensors"]
    ckpt.write_text(json.dumps(doc))
    write_manifest(tdir, list(read_manifest(tdir)))
    assert _eval(env, ckpt, tmp_path / "eval") == EXIT_DATA
    assert f"data error: {ckpt}: 'tensors' must be an object" in capsys.readouterr().err


def test_malformed_truth_is_a_data_error(env, tmp_path, capsys):
    data = tmp_path / "poisoned"
    shutil.copytree(env.data, data)
    truth = data / "clip_000_walk" / "truth.jsonl"
    lines = truth.read_text().splitlines()
    record = json.loads(lines[4])
    del record["t"]
    lines[4] = json.dumps(record)
    truth.write_text("\n".join(lines) + "\n")
    write_manifest(data, list(read_manifest(data)))
    code = main(["filter", "--data", str(data), "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err
    assert "truth.jsonl: frame 4: missing key 't'" in err


def test_divergence_exit_code(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise DivergenceError("non-finite loss at epoch 1")

    monkeypatch.setattr(cli, "train_model", boom)
    code = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_DIVERGED
    assert "divergence: non-finite loss at epoch 1" in capsys.readouterr().err
