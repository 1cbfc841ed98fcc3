"""End-to-end command-line tests: synth, train, eval, predict, plot, compare."""

import json
import math
import os
import re
import resource
import signal
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from virtualsensor import build_knn_graph, closed_loop_predict, load_dataset, prepare
from virtualsensor import cli
from virtualsensor.cli import build_parser, main
from virtualsensor.pipeline import (
    DEFAULT_MODEL_CONFIGS,
    EvalReport,
    load_checkpoint,
    save_checkpoint,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic city plus a trained checkpoint, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "city"
    ckpt = root / "model.vsck"
    assert run("synth", "--sensors", "4", "--hours", "100", "--seed", "3",
               "--out", str(data)) == 0
    assert run("train", "--data", str(data), "--out", str(ckpt),
               "--epochs", "1", "--seed", "0") == 0
    return root, data, ckpt


# ---------------------------------------------------------------- synth


def test_synth_outputs_and_manifest(workspace):
    _, data, _ = workspace
    assert (data / "locations.csv").exists()
    assert (data / "readings.csv").exists()
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seeds"] == [3]
    assert set(manifest["output_paths"]) == {
        str(data / "locations.csv"), str(data / "readings.csv")
    }


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("synth", "--sensors", "3", "--hours", "50", "--seed", "7",
                   "--out", str(out)) == 0
    assert (a / "locations.csv").read_bytes() == (b / "locations.csv").read_bytes()
    assert (a / "readings.csv").read_bytes() == (b / "readings.csv").read_bytes()


# ---------------------------------------------------------------- train


def test_train_writes_checkpoint_and_manifest(workspace):
    root, data, ckpt = workspace
    assert ckpt.exists()
    assert ckpt.read_bytes()[:4] == b"VSCK"
    manifest = json.loads((root / "model.vsck.manifest.json").read_text())
    assert manifest["command"] == "train"
    assert str(data / "readings.csv") in manifest["input_hashes"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", h) for h in manifest["input_hashes"].values())


def test_train_deterministic_checkpoints(tmp_path, workspace):
    _, data, _ = workspace
    a, b = tmp_path / "a.vsck", tmp_path / "b.vsck"
    for out in (a, b):
        assert run("train", "--data", str(data), "--out", str(out),
                   "--epochs", "1", "--seed", "4") == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_rejects_gbt(tmp_path, workspace, capsys):
    _, data, _ = workspace
    code = run("train", "--data", str(data), "--out", str(tmp_path / "x.vsck"),
               "--model", "gbt")
    assert code == 1
    assert "gbt" in capsys.readouterr().err


def test_transfer_rejects_gbt(tmp_path, workspace, capsys):
    _, data, _ = workspace
    out = tmp_path / "x.vsck"
    code = run("transfer", "--source", str(data), "--target", str(data),
               "--out", str(out), "--model", "gbt", "--epochs", "1")
    assert code == 1
    assert "gbt" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("finetune_epochs", [0, 2])
def test_transfer_checkpoint_records_returned_model(tmp_path, workspace, finetune_epochs):
    # With no fine-tuning, transfer returns the pretrained model: its config
    # and the source stats its weights were fitted to.
    _, source, _ = workspace
    target, out = tmp_path / "target", tmp_path / "t.vsck"
    assert run("synth", "--sensors", "3", "--hours", "60", "--seed", "5",
               "--out", str(target)) == 0
    assert run("transfer", "--source", str(source), "--target", str(target),
               "--out", str(out), "--epochs", "1", "--finetune-epochs", str(finetune_epochs),
               "--finetune-lr", "1e-4") == 0
    trained = load_checkpoint(out)
    city = source if finetune_epochs == 0 else target
    stats = prepare(load_dataset(city / "locations.csv", city / "readings.csv")).stats
    assert (trained.train_cfg.epochs, trained.train_cfg.lr) == (
        (1, 1e-3) if finetune_epochs == 0 else (2, 1e-4))
    assert np.array_equal(trained.stats.mean, stats.mean)
    assert np.array_equal(trained.stats.std, stats.std)


@pytest.mark.parametrize("command", ["train", "transfer", "eval"])
def test_model_choices_are_the_model_table(command):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    model = next(a for a in sub.choices[command]._actions if a.dest == "model")
    assert list(model.choices) == list(DEFAULT_MODEL_CONFIGS)


def test_train_missing_data_dir(tmp_path, capsys):
    code = run("train", "--data", str(tmp_path / "nope"), "--out",
               str(tmp_path / "x.vsck"), "--epochs", "1")
    assert code == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- eval


def test_eval_from_checkpoint(tmp_path, workspace):
    _, data, ckpt = workspace
    out = tmp_path / "report"
    assert run("eval", "--data", str(data), "--ckpt", str(ckpt),
               "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["model"] == "sage"
    assert len(report["per_location"]) == 4
    csv_lines = (out / "report.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "model,rmse,nrmse,grad_rmse"
    assert csv_lines[1].startswith("sage,")


def test_eval_gbt_without_checkpoint(tmp_path, workspace):
    _, data, _ = workspace
    out = tmp_path / "report"
    assert run("eval", "--data", str(data), "--model", "gbt",
               "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["model"] == "gbt"


@pytest.mark.parametrize("flag", [
    ["--model", "mlp"], ["--epochs", "3"], ["--lr", "0.01"], ["--patience", "2"],
    ["--aggregator", "max_pool"], ["--k", "5"],
])
def test_eval_ckpt_rejects_the_flags_it_would_ignore(tmp_path, workspace, capsys, flag):
    # With --ckpt every fold retrains with the checkpoint's own config.
    _, data, ckpt = workspace
    code = run("eval", "--data", str(data), "--ckpt", str(ckpt), "--out", str(tmp_path / "r"),
               *flag)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert flag[0] in err
    assert not (tmp_path / "r").exists()


def test_eval_requires_ckpt_or_model(tmp_path, workspace, capsys):
    _, data, _ = workspace
    code = run("eval", "--data", str(data), "--out", str(tmp_path / "r"))
    assert code == 1
    assert "--ckpt or --model" in capsys.readouterr().err


def test_compare_improvement(tmp_path, capsys):
    def report(path, rmse, nrmse, grad):
        path.write_text(json.dumps({
            "model": "sage",
            "per_location": {},
            "averages": {"rmse": rmse, "nrmse": nrmse, "grad_rmse": grad},
            "metadata": {},
        }))

    base, new = tmp_path / "base.json", tmp_path / "new.json"
    report(base, 17.016, 0.526, 9.426)
    report(new, 15.623, 0.481, 6.354)
    out = tmp_path / "cmp"
    assert run("compare", str(base), str(new), "--out", str(out)) == 0
    text = (out / "improvement.csv").read_text()
    row = [l for l in text.splitlines() if l.startswith("improvement_pct")][0]
    _, r, n, g = row.split(",")
    assert float(r) == pytest.approx(8.185, abs=0.05)
    assert float(n) == pytest.approx(8.576, abs=0.05)
    assert float(g) == pytest.approx(32.593, abs=0.05)
    assert capsys.readouterr().out == text == (
        "model,rmse,nrmse,grad_rmse\n"
        "base:sage,17.016000,0.526000,9.426000\n"
        "new:sage,15.623000,0.481000,6.354000\n"
        "improvement_pct,8.186,8.555,32.591\n")


def test_eval_prints_each_warning_as_one_line(tmp_path, capsys):
    # Neither sensor of a one-hour city has a reading after its first hour,
    # so both folds are skipped, each with one warning line, and eval fails.
    city = tmp_path / "city"
    assert run("synth", "--sensors", "2", "--hours", "1", "--out", str(city)) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)  # the test settings make it an error
        code = run("eval", "--data", str(city), "--model", "gbt", "--out", str(tmp_path / "r"))
    assert code == 1
    assert capsys.readouterr().err == (
        "warning: holdout sensor S00 has no reading after the first hour; skipped\n"
        "warning: holdout sensor S01 has no reading after the first hour; skipped\n"
        "error: no location produced evaluable predictions; skipped S00, S01\n")


def _edit_s01(city, keep_row):
    """Rewrite readings.csv of `city`, keeping only S01's rows for which
    `keep_row(hour, fields)` returns the fields to keep (None drops the row)."""
    path = city / "readings.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    hours = {}
    out = [header]
    for row in rows:
        fields = row.rstrip("\n").split(",")
        if fields[1] == "S01":
            hour = hours[fields[1]] = hours.get(fields[1], -1) + 1
            fields = keep_row(hour, fields)
            if fields is None:
                continue
        out.append(",".join(fields) + "\n")
    path.write_text("".join(out))


def test_eval_skips_a_location_with_one_reading_after_the_first_hour(tmp_path, capsys):
    # Grad-RMSE needs two points, so the fold is skipped like one with none.
    city = tmp_path / "city"
    assert run("synth", "--sensors", "3", "--hours", "48", "--out", str(city)) == 0
    _edit_s01(city, lambda hour, fields: fields if hour <= 1 else None)
    capsys.readouterr()
    out = tmp_path / "r"
    with warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)  # the test settings make it an error
        code = run("eval", "--data", str(city), "--model", "gbt", "--out", str(out))
    assert code == 0
    assert capsys.readouterr().err == (
        "warning: holdout sensor S01 has one reading after the first hour; skipped\n")
    report = json.loads((out / "report.json").read_text())
    assert list(report["per_location"]) == ["S00", "S02"]


def test_eval_names_a_location_whose_readings_are_all_zero(tmp_path, capsys):
    city = tmp_path / "city"
    assert run("synth", "--sensors", "3", "--hours", "48", "--out", str(city)) == 0
    _edit_s01(city, lambda hour, fields: [*fields[:2], "0.0", *fields[3:]])
    capsys.readouterr()
    code = run("eval", "--data", str(city), "--model", "gbt", "--out", str(tmp_path / "r"))
    assert code == 1
    assert capsys.readouterr().err == (
        "error: location S01: nrmse: non-positive mean of actual series\n")


def test_cli_keeps_the_warning_filters(monkeypatch):
    # The CLI changes only how a warning is shown: under the test settings a
    # RuntimeWarning inside a command still raises.
    def overflowing(args):
        warnings.warn("overflow encountered in exp", RuntimeWarning)
        return 0

    monkeypatch.setattr(cli, "cmd_compare", overflowing)
    with pytest.raises(RuntimeWarning, match="overflow"):
        run("compare", "base.json", "new.json")


# ---------------------------------------------------------------- predict


def test_predict_series(tmp_path, workspace):
    _, data, ckpt = workspace
    out = tmp_path / "pred.csv"
    assert run("predict", "--data", str(data), "--ckpt", str(ckpt),
               "--location", "S01", "--init", "fixed:25", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "timestamp,predicted_no2_ugm3"
    assert len(lines) == 100  # header + (n_frames - 1)
    for line in lines[1:]:
        ts, value = line.split(",")
        assert ts.endswith(":00:00Z")
        assert float(value) >= 0.0


def test_predict_deterministic(tmp_path, workspace):
    _, data, ckpt = workspace
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run("predict", "--data", str(data), "--ckpt", str(ckpt),
                   "--location", "S00", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_predict_rolls_out_on_the_trained_k(tmp_path):
    # The checkpoint records k, so a plain predict after `train --k 5` rolls
    # out on the 5-NN graph, not on the default 3-NN one.
    data, ckpt, pred = tmp_path / "city", tmp_path / "k5.vsck", tmp_path / "pred.csv"
    assert run("synth", "--sensors", "8", "--hours", "120", "--seed", "1", "--out", str(data)) == 0
    assert run("train", "--data", str(data), "--out", str(ckpt), "--epochs", "1", "--k", "5") == 0
    assert run("predict", "--data", str(data), "--ckpt", str(ckpt), "--location", "S02",
               "--out", str(pred)) == 0
    raw = load_dataset(data / "locations.csv", data / "readings.csv")
    trained = load_checkpoint(ckpt)
    node = raw.sensor_index("S02")
    init = float(raw.targets[np.argmax(raw.present[:, node]), node])

    def csv_on_graph(k):
        preds = closed_loop_predict(trained, build_knn_graph(raw.locations, k=k),
                                    prepare(raw, trained.stats), node, init,
                                    rng=np.random.default_rng(trained.train_cfg.seed))
        rows = [f"{raw.timestamp(t).strftime('%Y-%m-%dT%H:00:00Z')},{p:.6f}"
                for t, p in zip(range(1, raw.n_frames), np.clip(preds, 0.0, None))]
        return "\n".join(["timestamp,predicted_no2_ugm3", *rows]) + "\n"

    assert pred.read_text() == csv_on_graph(5)
    assert csv_on_graph(5) != csv_on_graph(3)


def test_predict_bad_init(tmp_path, workspace, capsys):
    _, data, ckpt = workspace
    code = run("predict", "--data", str(data), "--ckpt", str(ckpt),
               "--location", "S00", "--init", "bogus", "--out",
               str(tmp_path / "p.csv"))
    assert code == 1
    assert "--init" in capsys.readouterr().err or "init" in capsys.readouterr().err


def test_predict_unknown_location(tmp_path, workspace, capsys):
    _, data, ckpt = workspace
    code = run("predict", "--data", str(data), "--ckpt", str(ckpt),
               "--location", "S99", "--out", str(tmp_path / "p.csv"))
    assert code == 1


def _predict_bytes(tmp_path, data, ckpt, init, location="S00"):
    out = tmp_path / f"{init.replace(':', '_')}.csv"
    assert run("predict", "--data", str(data), "--ckpt", str(ckpt),
               "--location", location, "--init", init, "--out", str(out)) == 0
    return out.read_bytes()


def test_predict_init_actual_and_mean_are_their_fixed_values(tmp_path, workspace):
    _, data, ckpt = workspace
    raw = load_dataset(data / "locations.csv", data / "readings.csv")
    node = raw.sensor_index("S01")
    first = float(raw.targets[np.argmax(raw.present[:, node]), node])
    mean = float(raw.targets[raw.present].mean())
    for init, value in (("actual", first), ("mean", mean)):
        assert (_predict_bytes(tmp_path, data, ckpt, init, "S01")
                == _predict_bytes(tmp_path, data, ckpt, f"fixed:{value!r}", "S01")), init


def test_predict_init_actual_needs_a_reading(tmp_path, workspace, capsys):
    _, data, ckpt = workspace
    edited = _edit_bytes(tmp_path, data, "readings.csv", lambda raw: b"".join(
        line for line in raw.splitlines(keepends=True) if b",S01," not in line))
    assert _predict_bytes(tmp_path, edited, ckpt, "fixed:20", "S01")  # the rollout itself runs
    code = run("predict", "--data", str(edited), "--ckpt", str(ckpt),
               "--location", "S01", "--init", "actual", "--out", str(tmp_path / "p.csv"))
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "--init actual" in err


@pytest.mark.parametrize("aggregator", ["mean_pool", "max_pool"])
def test_predict_on_huge_readings_saturates_without_warnings(tmp_path, aggregator):
    # Readings near 1e100 keep finite moments, so predict standardizes them
    # with the checkpoint's stats into features near 1e99, far past where the
    # pooling sigmoid's exp(-x) overflows; the sigmoid saturates at 0 instead.
    normal, huge, ckpt = tmp_path / "normal", tmp_path / "huge", tmp_path / "m.vsck"
    assert run("synth", "--sensors", "3", "--hours", "48", "--out", str(normal)) == 0
    assert run("synth", "--sensors", "3", "--hours", "48", "--base", "1e100",
               "--out", str(huge)) == 0
    assert run("train", "--data", str(normal), "--out", str(ckpt), "--epochs", "1",
               "--aggregator", aggregator) == 0
    out = tmp_path / "p.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("predict", "--data", str(huge), "--ckpt", str(ckpt), "--location", "S00",
                   "--out", str(out))
    assert [str(w.message) for w in caught] == []
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert len(values) == 47 and all(np.isfinite(values))


@pytest.mark.parametrize("kind", ["sage", "mlp", "cnn"])
def test_predict_names_the_hour_a_rollout_diverges(tmp_path, capsys, kind):
    # Weights scaled by 1e60 give a huge first prediction, which the next
    # step reads back and turns into a non-finite one: predict fails there.
    data = tmp_path / "city"
    assert run("synth", "--sensors", "4", "--hours", "60", "--out", str(data)) == 0
    trained = load_checkpoint(_train(tmp_path, data, kind))
    trained.params = {name: value * 1e60 for name, value in trained.params.items()}
    save_checkpoint(tmp_path / "huge.vsck", trained)
    with np.errstate(over="ignore", invalid="ignore"):
        code = run("predict", "--data", str(data), "--ckpt", str(tmp_path / "huge.vsck"),
                   "--location", "S01", "--out", str(tmp_path / "p.csv"))
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: rollout")
    assert "S01" in err and "2019-01-01T02:00:00Z" in err


def _edit_csv(tmp_path, data, name, row, column, value):
    """A copy of the data dir whose `name` CSV has one field replaced."""
    out = tmp_path / "edited"
    out.mkdir()
    for csv_name in ("locations.csv", "readings.csv"):
        lines = (data / csv_name).read_text().splitlines()
        if csv_name == name:
            fields = lines[row].split(",")
            fields[lines[0].split(",").index(column)] = value
            lines[row] = ",".join(fields)
        (out / csv_name).write_text("\n".join(lines) + "\n")
    return out


# Each case maps (tmp_path, data dir, checkpoint) to predict's
# (data dir, checkpoint, extra flags).
MALFORMED_PREDICT_INPUTS = {
    "truncated-checkpoint": lambda tmp, data, ckpt: (
        data, _write(tmp / "t.vsck", ckpt.read_bytes()[:-5]), []),
    "checkpoint-trailing-bytes": lambda tmp, data, ckpt: (
        data, _write(tmp / "t.vsck", ckpt.read_bytes() + b"junk"), []),
    "nan-reading": lambda tmp, data, ckpt: (
        _edit_csv(tmp, data, "readings.csv", 5, "no2_ugm3", "nan"), ckpt, []),
    "nan-dist-road": lambda tmp, data, ckpt: (
        _edit_csv(tmp, data, "locations.csv", 2, "dist_road_m", "nan"), ckpt, []),
    "unknown-location": lambda tmp, data, ckpt: (data, ckpt, ["--location", "S99"]),
    "bad-init": lambda tmp, data, ckpt: (data, ckpt, ["--init", "fixed:abc"]),
    "nan-init": lambda tmp, data, ckpt: (data, ckpt, ["--init", "fixed:nan"]),
    "budget-not-int": lambda tmp, data, ckpt: (
        data, _edit_config(tmp, ckpt, b'"budget": [3, 5]', b'"budget": [3.5, 5]'), []),
    "seed-not-int": lambda tmp, data, ckpt: (
        data, _edit_config(tmp, ckpt, b'"seed": 0, "val', b'"seed": 0.5, "val'), []),
    "seed-negative": lambda tmp, data, ckpt: (
        data, _edit_config(tmp, ckpt, b'"seed": 0, "val', b'"seed": -1, "val'), []),
    "k-zero": lambda tmp, data, ckpt: (
        data, _edit_config(tmp, ckpt, b'"k": 3,', b'"k": 0,'), []),
    "k-not-int": lambda tmp, data, ckpt: (
        data, _edit_config(tmp, ckpt, b'"k": 3,', b'"k": 2.5,'), []),
    "k-string": lambda tmp, data, ckpt: (
        data, _edit_config(tmp, ckpt, b'"k": 3,', b'"k": "3",'), []),
    "mlp-dropout-missing": lambda tmp, data, ckpt: (
        data, _edit_config(tmp, _train(tmp, data, "mlp"), b'"dropout": 0.5, ', b''), []),
    "mlp-seed-leftover": lambda tmp, data, ckpt: (
        data, _edit_config(tmp, _train(tmp, data, "mlp"), b'"dropout": 0.5',
                           b'"dropout": 0.5, "seed": 0'), []),
    "epochs-not-int": lambda tmp, data, ckpt: (
        data, _edit_config(tmp, ckpt, b'"epochs": 1,', b'"epochs": 1.5,'), []),
    "patience-bool": lambda tmp, data, ckpt: (
        data, _edit_config(tmp, ckpt, b'"patience": 10,', b'"patience": true,'), []),
    "mlp-dropout-not-number": lambda tmp, data, ckpt: (
        data, _edit_config(tmp, _train(tmp, data, "mlp"), b'"dropout": 0.5', b'"dropout": "0.5"'),
        []),
    "cnn-dropout-not-number": lambda tmp, data, ckpt: (
        data, _edit_config(tmp, _train(tmp, data, "cnn"), b'"dropout": 0.5', b'"dropout": "0.5"'),
        []),
    "cnn-channels-not-int": lambda tmp, data, ckpt: (
        data, _edit_config(tmp, _train(tmp, data, "cnn"), b'"channels": 8', b'"channels": "8"'),
        []),
    "sage-hidden-not-int": lambda tmp, data, ckpt: (
        data, _edit_config(tmp, ckpt, b'"hidden": [32, 32]', b'"hidden": ["a", 32]'), []),
    "lr-not-number": lambda tmp, data, ckpt: (
        data, _edit_config(tmp, ckpt, b'"lr": 0.001', b'"lr": "x"'), []),
    # Shapes this large would not fit in memory: the block shapes are
    # checked against them before any parameter is drawn.
    "sage-hidden-huge": lambda tmp, data, ckpt: (
        data, _edit_config(tmp, ckpt, b'"hidden": [32, 32]', b'"hidden": [1000000000000, 32]'),
        []),
    "cnn-channels-huge": lambda tmp, data, ckpt: (
        data, _edit_config(tmp, _train(tmp, data, "cnn"), b'"channels": 8',
                           b'"channels": 1000000000000'), []),
}

# The cases whose error line must name the offending config field, with the
# text that names it.
NAMED_FIELD = {case: f"{name} must be" for case, name in {
    "budget-not-int": "budget", "seed-not-int": "seed", "seed-negative": "seed",
    "epochs-not-int": "epochs", "patience-bool": "patience", "mlp-dropout-not-number": "dropout",
    "cnn-dropout-not-number": "dropout", "cnn-channels-not-int": "channels",
    "sage-hidden-not-int": "hidden", "lr-not-number": "lr", "k-zero": "k", "k-not-int": "k",
    "k-string": "k",
}.items()} | {"mlp-dropout-missing": "missing field 'dropout'",
             "mlp-seed-leftover": "unknown field 'seed'"}


def _write(path, raw: bytes):
    path.write_bytes(raw)
    return path


def _train(tmp, data, kind: str):
    """A one-epoch checkpoint of model `kind` trained on the city in `data`."""
    ckpt = tmp / f"{kind}.vsck"
    assert run("train", "--data", str(data), "--out", str(ckpt), "--model", kind,
               "--epochs", "1") == 0
    return ckpt


def _edit_config(tmp, ckpt, old: bytes, new: bytes):
    """A copy of the checkpoint whose JSON config has `old` replaced by `new`,
    its length re-packed, so that the file is well formed but the config is not."""
    raw = ckpt.read_bytes()
    (size,) = struct.unpack_from("<I", raw, 14)
    config = raw[18 : 18 + size]
    assert config.count(old) == 1
    config = config.replace(old, new)
    return _write(tmp / "c.vsck", raw[:14] + struct.pack("<I", len(config)) + config
                  + raw[18 + size :])


@pytest.mark.parametrize("case", list(MALFORMED_PREDICT_INPUTS))
def test_predict_malformed_input_one_error_line(tmp_path, workspace, capsys, case):
    _, data, ckpt = workspace
    data, ckpt, extra = MALFORMED_PREDICT_INPUTS[case](tmp_path, data, ckpt)
    code = run("predict", "--data", str(data), "--ckpt", str(ckpt),
               "--location", "S00", "--out", str(tmp_path / "p.csv"), *extra)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    if case in NAMED_FIELD:
        assert NAMED_FIELD[case] in err


@pytest.fixture(scope="module")
def mlp_checkpoint(workspace):
    root, data, _ = workspace
    ckpt = root / "mlp.vsck"
    assert run("train", "--data", str(data), "--out", str(ckpt), "--model", "mlp",
               "--epochs", "1", "--seed", "0") == 0
    return ckpt.read_bytes()


@pytest.mark.parametrize("new_kind,count", [
    (b"cnn", -1), (b"gbt", -1), (b"xyz", -1),  # train.model, the one record of the kind
])
def test_predict_edited_checkpoint_kind(tmp_path, workspace, mlp_checkpoint, capsys,
                                        new_kind, count):
    _, data, _ = workspace
    edited = mlp_checkpoint.replace(b'"model": "mlp"', b'"model": "' + new_kind + b'"', count)
    assert edited != mlp_checkpoint and len(edited) == len(mlp_checkpoint)
    ckpt = tmp_path / "edited.vsck"
    ckpt.write_bytes(edited)
    code = run("predict", "--data", str(data), "--ckpt", str(ckpt),
               "--location", "S00", "--out", str(tmp_path / "p.csv"))
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ")


def _report(path, **edits):
    """A valid report file, with top-level fields replaced."""
    data = {"model": "sage", "per_location": {},
            "averages": {"rmse": 10.0, "nrmse": 0.5, "grad_rmse": 5.0}, "metadata": {}}
    data.update(edits)
    path.write_text(json.dumps(data))
    return str(path)


def _write_text(path, text):
    path.write_text(text)
    return str(path)


def _preds(path, *rows):
    return _write_text(path, "timestamp,predicted_no2_ugm3\n" + "".join(r + "\n" for r in rows))


def _plot(tmp, data, pred_rows, *extra):
    return ["plot", "--data", str(data), "--pred", _preds(tmp / "p.csv", *pred_rows),
            "--location", "S00", "--out", str(tmp / "x.svg"), *extra]


def _edit_bytes(tmp, data, name, edit):
    """A copy of the data dir whose `name` CSV has its bytes passed through `edit`."""
    out = tmp / "edited"
    out.mkdir()
    for csv_name in ("locations.csv", "readings.csv"):
        raw = (data / csv_name).read_bytes()
        (out / csv_name).write_bytes(edit(raw) if csv_name == name else raw)
    return out


def _train_on_edited(tmp, data, name, edit):
    return ["train", "--data", str(_edit_bytes(tmp, data, name, edit)),
            "--out", str(tmp / "m.vsck"), "--epochs", "1"]


def _huge_city(tmp):
    """A city whose readings are finite but so large that their squares overflow."""
    assert run("synth", "--sensors", "3", "--hours", "48", "--base", "1e200",
               "--out", str(tmp / "huge")) == 0
    return str(tmp / "huge")


def _latin1_sensor_id(raw: bytes) -> bytes:
    return raw.replace(b"S01", b"S\xe901", 1)  # a lone 0xE9 is not UTF-8


TS = "2019-01-01T02:00:00Z"

# Each case maps (tmp_path, data dir) to (argv, a text the error line holds).
MALFORMED_CLI_INPUTS = {
    "compare-not-json": lambda tmp, data: (
        ["compare", _write_text(tmp / "b.json", "not json"), _report(tmp / "n.json")],
        "b.json"),
    "compare-not-object": lambda tmp, data: (
        ["compare", _report(tmp / "b.json"), _write_text(tmp / "n.json", "[1]")],
        "n.json"),
    "compare-no-per-location": lambda tmp, data: (
        ["compare", _report(tmp / "b.json", per_location=None), _report(tmp / "n.json")],
        "per_location"),
    "compare-average-not-number": lambda tmp, data: (
        ["compare", _report(tmp / "b.json"),
         _report(tmp / "n.json", averages={"rmse": "x", "nrmse": 0.5, "grad_rmse": 5.0})],
        "averages"),
    "compare-average-bool": lambda tmp, data: (
        ["compare", _report(tmp / "b.json"),
         _report(tmp / "n.json", averages={"rmse": True, "nrmse": 0.5, "grad_rmse": 5.0})],
        "averages"),
    "compare-average-nan": lambda tmp, data: (
        ["compare", _report(tmp / "b.json"),
         _report(tmp / "n.json", averages={"rmse": 10.0, "nrmse": math.nan, "grad_rmse": 5.0})],
        "averages"),
    "compare-average-infinity": lambda tmp, data: (
        ["compare", _report(tmp / "b.json"),
         _report(tmp / "n.json", averages={"rmse": 10.0, "nrmse": 0.5, "grad_rmse": math.inf})],
        "averages"),
    "plot-one-field": lambda tmp, data: (_plot(tmp, data, [TS]), "line 2"),
    "plot-three-fields": lambda tmp, data: (_plot(tmp, data, [f"{TS},1.0", f"{TS},1.0,2.0"]),
                                            "line 3"),
    "plot-not-a-number": lambda tmp, data: (_plot(tmp, data, [f"{TS},abc"]), "line 2"),
    "plot-nan": lambda tmp, data: (_plot(tmp, data, [f"{TS},nan"]), "line 2"),
    "plot-pred-not-utf8": lambda tmp, data: (
        ["plot", "--data", str(data),
         "--pred", str(_write(tmp / "p.csv", f"timestamp,v\n{TS},1.0\xe9\n".encode("latin-1"))),
         "--location", "S00", "--out", str(tmp / "x.svg")], "p.csv"),
    "readings-not-utf8": lambda tmp, data: (
        _train_on_edited(tmp, data, "readings.csv", _latin1_sensor_id), "readings.csv"),
    "locations-not-utf8": lambda tmp, data: (
        _train_on_edited(tmp, data, "locations.csv", _latin1_sensor_id), "locations.csv"),
    "readings-field-over-csv-limit": lambda tmp, data: (
        _train_on_edited(tmp, data, "readings.csv", lambda raw: raw + b"x" * 200_000 + b"\n"),
        "readings.csv"),
    "plot-bad-start": lambda tmp, data: (
        _plot(tmp, data, [f"{TS},1.0"], "--start", "notadate"), "--start"),
    "readings-timestamp-utc-before-year-1": lambda tmp, data: (
        _train_on_edited(tmp, data, "readings.csv",
                         lambda raw: raw.replace(b"2019-01-01T00:00:00Z",
                                                 b"0001-01-01T00:00:00+01:00", 1)),
        "line 2"),
    "readings-timestamp-utc-after-year-9999": lambda tmp, data: (
        _train_on_edited(tmp, data, "readings.csv",
                         lambda raw: raw.replace(b"2019-01-01T00:00:00Z",
                                                 b"9999-12-31T23:00:00-01:00", 1)),
        "line 2"),
    "synth-nan-base": lambda tmp, data: (
        ["synth", "--sensors", "2", "--hours", "24", "--base", "nan", "--out", str(tmp / "c")],
        "base_level"),
    "synth-inf-base": lambda tmp, data: (
        ["synth", "--sensors", "2", "--hours", "24", "--base", "inf", "--out", str(tmp / "c")],
        "base_level"),
    "synth-base-overflows-satellite-column": lambda tmp, data: (
        ["synth", "--sensors", "2", "--hours", "24", "--base", "1e308", "--out", str(tmp / "c")],
        "sat_no2_molm2 is not finite"),
    "train-sage-huge-values": lambda tmp, data: (
        ["train", "--data", _huge_city(tmp), "--out", str(tmp / "m.vsck"), "--epochs", "1"],
        "'sat_no2' is too large"),
    "train-mlp-huge-values": lambda tmp, data: (
        ["train", "--data", _huge_city(tmp), "--out", str(tmp / "m.vsck"), "--epochs", "1",
         "--model", "mlp"], "'sat_no2' is too large"),
    "eval-gbt-huge-values": lambda tmp, data: (
        ["eval", "--data", _huge_city(tmp), "--model", "gbt", "--out", str(tmp / "rep")],
        "'sat_no2' is too large"),
    "predict-huge-values": lambda tmp, data: (
        ["predict", "--data", _huge_city(tmp), "--ckpt", str(data.parent / "model.vsck"),
         "--location", "S00", "--out", str(tmp / "p.csv")], "'sat_no2' is too large"),
    "synth-zero-hours": lambda tmp, data: (
        ["synth", "--hours", "0", "--out", str(tmp / "c")], "hour"),
    "synth-negative-seed": lambda tmp, data: (
        ["synth", "--sensors", "2", "--hours", "24", "--seed", "-1", "--out", str(tmp / "c")],
        "seed must be"),
    "train-negative-seed": lambda tmp, data: (
        ["train", "--data", str(data), "--out", str(tmp / "m.vsck"), "--seed", "-1"],
        "seed must be"),
    "eval-negative-seed": lambda tmp, data: (
        ["eval", "--data", str(data), "--model", "mlp", "--seed", "-1", "--out", str(tmp / "rep")],
        "seed must be"),
    "train-negative-lr": lambda tmp, data: (
        ["train", "--data", str(data), "--out", str(tmp / "m.vsck"), "--lr", "-1"], "lr"),
    "train-nan-lr": lambda tmp, data: (
        ["train", "--data", str(data), "--out", str(tmp / "m.vsck"), "--lr", "nan"], "lr"),
    "transfer-negative-finetune-epochs": lambda tmp, data: (
        ["transfer", "--source", str(data), "--target", str(data), "--out", str(tmp / "m.vsck"),
         "--finetune-epochs", "-1"], "finetune_epochs"),
    "eval-finetune-without-ckpt": lambda tmp, data: (
        ["eval", "--data", str(data), "--model", "mlp", "--epochs", "1", "--finetune-from-ckpt",
         "--out", str(tmp / "rep")], "--finetune-from-ckpt"),
    "train-mlp-aggregator": lambda tmp, data: (
        ["train", "--data", str(data), "--out", str(tmp / "m.vsck"), "--epochs", "1",
         "--model", "mlp", "--aggregator", "max_pool"], "--aggregator"),
    "transfer-mlp-aggregator": lambda tmp, data: (
        ["transfer", "--source", str(data), "--target", str(data), "--out", str(tmp / "m.vsck"),
         "--epochs", "1", "--finetune-epochs", "0", "--model", "mlp", "--aggregator", "mean"],
        "--aggregator"),
    "eval-cnn-aggregator": lambda tmp, data: (
        ["eval", "--data", str(data), "--model", "cnn", "--epochs", "1",
         "--aggregator", "max_pool", "--out", str(tmp / "rep")], "--aggregator"),
    "eval-ckpt-epochs-not-int": lambda tmp, data: (
        ["eval", "--data", str(data), "--out", str(tmp / "rep"), "--ckpt",
         str(_edit_config(tmp, data.parent / "model.vsck", b'"epochs": 1,', b'"epochs": 1.5,'))],
        "epochs must be an integer"),
    "eval-ckpt-cnn-dropout-not-number": lambda tmp, data: (
        ["eval", "--data", str(data), "--out", str(tmp / "rep"), "--ckpt",
         str(_edit_config(tmp, _train(tmp, data, "cnn"), b'"dropout": 0.5', b'"dropout": "0.5"'))],
        "bad cnn checkpoint config"),
    "eval-gbt-aggregator": lambda tmp, data: (
        ["eval", "--data", str(data), "--model", "gbt", "--aggregator", "attentional",
         "--out", str(tmp / "rep")], "--aggregator"),
    "compare-with-every-flag": lambda tmp, data: (
        ["compare", _report(tmp / "b.json"), _report(tmp / "n.json"),
         "--data", "/nonexistent", "--ckpt", "/nonexistent.vsck", "--model", "mlp",
         "--epochs", "3", "--k", "9", "--finetune-from-ckpt"],
        "unrecognized arguments: --data /nonexistent --ckpt /nonexistent.vsck --model mlp"
        " --epochs 3 --k 9 --finetune-from-ckpt"),
}
# compare reads only its two reports: argparse knows no training flag of it.
for _flag in (["--data", "city"], ["--ckpt", "m.vsck"], ["--model", "mlp"], ["--seed", "0"],
              ["--epochs", "3"], ["--lr", "0.01"], ["--patience", "2"], ["--k", "9"],
              ["--aggregator", "mean"], ["--finetune-from-ckpt"]):
    MALFORMED_CLI_INPUTS[f"compare-with{_flag[0][1:]}"] = lambda tmp, data, flag=_flag: (
        ["compare", _report(tmp / "b.json"), _report(tmp / "n.json"), *flag],
        f"unrecognized arguments: {' '.join(flag)}")
# The cases argparse rejects: exit code 2, its usage line, then the one error line.
REJECTED_BY_ARGPARSE = {case for case in MALFORMED_CLI_INPUTS if case.startswith("compare-with")}


# The files a command whose --out is a directory writes inside it.
OUT_DIR_FILES = {"synth": ("locations.csv", "readings.csv"),
                 "eval": ("report.json", "report.csv"), "compare": ("improvement.csv",)}


def _plant_outputs(argv):
    """Give every output path that `argv` names, manifest included, known
    bytes beforehand. Returns --out, or None when `argv` has none."""
    if "--out" not in argv:
        return None
    out = Path(argv[argv.index("--out") + 1])
    if argv[0] in OUT_DIR_FILES:
        out.mkdir()
        paths = [out / name for name in (*OUT_DIR_FILES[argv[0]], "manifest.json")]
    else:
        paths = [out, Path(f"{out}.manifest.json")]
    for path in paths:
        path.write_bytes(f"old {path.name}\n".encode())
    return out


@pytest.mark.parametrize("case", list(MALFORMED_CLI_INPUTS))
def test_malformed_input_one_error_line(tmp_path, workspace, capsys, case):
    _, data, _ = workspace
    argv, named = MALFORMED_CLI_INPUTS[case](tmp_path, data)
    out = _plant_outputs(argv)
    planted = out and _outputs_of(out)
    # The CLI shows every warning it lets through as a `warning:` line of its
    # own, so the one-line check below also fails on any numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = run(*argv)
        except SystemExit as exc:
            code = exc.code
    err = capsys.readouterr().err
    if case in REJECTED_BY_ARGPARSE:
        assert code == 2
        usage, err = err.split("virtualsensor: ", 1)
        assert usage.startswith("usage: virtualsensor ")
    else:
        assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert named in err
    # A failed run leaves every output it names as it found it.
    assert out is None or _outputs_of(out) == planted
    assert list(tmp_path.rglob("*.tmp")) == []


# ---------------------------------------------------------------- plot


def test_plot_two_paths(tmp_path, workspace):
    _, data, ckpt = workspace
    pred = tmp_path / "pred.csv"
    svg = tmp_path / "plot.svg"
    assert run("predict", "--data", str(data), "--ckpt", str(ckpt),
               "--location", "S02", "--out", str(pred)) == 0
    assert run("plot", "--data", str(data), "--pred", str(pred),
               "--location", "S02", "--out", str(svg)) == 0
    text = svg.read_text()
    assert text.count("<path") == 2  # one series each: actual, predicted
    assert text.startswith("<svg")
    assert "</svg>" in text


def test_plot_window_selection(tmp_path, workspace):
    _, data, ckpt = workspace
    pred = tmp_path / "pred.csv"
    run("predict", "--data", str(data), "--ckpt", str(ckpt),
        "--location", "S00", "--out", str(pred))
    svg = tmp_path / "window.svg"
    assert run("plot", "--data", str(data), "--pred", str(pred),
               "--location", "S00", "--start", "2019-01-02T00:00:00Z",
               "--hours", "24", "--out", str(svg)) == 0
    assert svg.read_text().count("<path") == 2


def test_plot_deterministic(tmp_path, workspace):
    _, data, ckpt = workspace
    pred = tmp_path / "pred.csv"
    run("predict", "--data", str(data), "--ckpt", str(ckpt),
        "--location", "S03", "--out", str(pred))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (a, b):
        assert run("plot", "--data", str(data), "--pred", str(pred),
                   "--location", "S03", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_plot_empty_window_fails(tmp_path, workspace, capsys):
    _, data, ckpt = workspace
    pred = tmp_path / "pred.csv"
    run("predict", "--data", str(data), "--ckpt", str(ckpt),
        "--location", "S00", "--out", str(pred))
    code = run("plot", "--data", str(data), "--pred", str(pred),
               "--location", "S00", "--start", "2030-01-01T00:00:00Z",
               "--out", str(tmp_path / "x.svg"))
    assert code == 1


# ---------------------------------------------------------------- manifests


def _files(root):
    return sorted(p for p in root.rglob("*") if p.is_file())


def test_every_command_writes_its_manifest(tmp_path, workspace, capsys):
    # A command whose --out is a directory writes manifest.json inside it;
    # one whose --out is a file writes <out>.manifest.json beside it.
    _, data, ckpt = workspace
    city = [str(data / "locations.csv"), str(data / "readings.csv")]
    t = tmp_path
    target = t / "target"
    target_city = [str(target / "locations.csv"), str(target / "readings.csv")]
    e1, e2, cmp_dir = t / "e1", t / "e2", t / "cmp"
    runs = [  # argv, manifest, seeds, input paths, output paths
        (["synth", "--sensors", "3", "--hours", "60", "--seed", "5", "--out", str(target)],
         target / "manifest.json", [5], [], target_city),
        (["train", "--data", str(data), "--out", str(t / "m.vsck"), "--model", "mlp",
          "--epochs", "1", "--seed", "2"],
         t / "m.vsck.manifest.json", [2], city, [str(t / "m.vsck")]),
        (["transfer", "--source", str(data), "--target", str(target), "--out", str(t / "t.vsck"),
          "--model", "mlp", "--epochs", "1", "--finetune-epochs", "1", "--seed", "4"],
         t / "t.vsck.manifest.json", [4], city + target_city, [str(t / "t.vsck")]),
        (["eval", "--data", str(target), "--model", "mlp", "--epochs", "1", "--out", str(e1)],
         e1 / "manifest.json", [0], target_city,
         [str(e1 / "report.json"), str(e1 / "report.csv")]),
        (["eval", "--data", str(target), "--ckpt", str(t / "m.vsck"), "--seed", "6",
          "--out", str(e2)],
         e2 / "manifest.json", [6], target_city + [str(t / "m.vsck")],
         [str(e2 / "report.json"), str(e2 / "report.csv")]),
        (["compare", str(e1 / "report.json"), str(e2 / "report.json"), "--out", str(cmp_dir)],
         cmp_dir / "manifest.json", [], [str(e1 / "report.json"), str(e2 / "report.json")],
         [str(cmp_dir / "improvement.csv")]),
        (["predict", "--data", str(data), "--ckpt", str(ckpt), "--location", "S01",
          "--out", str(t / "p.csv")],
         t / "p.csv.manifest.json", [0], city + [str(ckpt)], [str(t / "p.csv")]),
        (["plot", "--data", str(data), "--pred", str(t / "p.csv"), "--location", "S01",
          "--out", str(t / "p.svg")],
         t / "p.svg.manifest.json", [], city + [str(t / "p.csv")], [str(t / "p.svg")]),
    ]
    for argv, path, seeds, inputs, outputs in runs:
        assert run(*argv) == 0, argv
        manifest = json.loads(path.read_text())
        assert manifest["command"] == argv[0]
        assert manifest["seeds"] == seeds, argv
        assert sorted(manifest["input_hashes"]) == sorted(inputs), argv
        assert manifest["output_paths"] == outputs, argv
        assert isinstance(manifest["wall_clock_s"], float)
    assert len(_files(t)) == 19  # each command's outputs and one manifest

    # compare without --out only prints; a failed command writes no manifest.
    before = _files(t)
    assert run("compare", str(e1 / "report.json"), str(e2 / "report.json")) == 0
    assert run("predict", "--data", str(data), "--ckpt", str(ckpt), "--location", "S99",
               "--out", str(t / "bad.csv")) == 1
    assert run("plot", "--data", str(data), "--pred", str(t / "p.csv"), "--location", "S01",
               "--start", "2030-01-01T00:00:00Z", "--out", str(t / "bad.svg")) == 1
    assert run("eval", "--data", str(data), "--model", "mlp", "--aggregator", "mean",
               "--out", str(t / "bad")) == 1
    assert _files(t) == before
    assert capsys.readouterr().err.count("error:") == 3


def test_manifest_config_holds_the_model_config(tmp_path, workspace):
    # Two runs that differ only in the model config record different configs.
    _, data, _ = workspace
    t = tmp_path
    assert run("synth", "--sensors", "3", "--hours", "48", "--seed", "1",
               "--out", str(t / "city")) == 0
    configs = {}
    for aggregator in (None, "attentional"):
        flags = ["--epochs", "1"] + (["--aggregator", aggregator] if aggregator else [])
        name = aggregator or "default"
        ckpt = t / f"{name}.vsck"
        assert run("train", "--data", str(data), "--out", str(ckpt), *flags) == 0
        assert run("transfer", "--source", str(data), "--target", str(t / "city"),
                   "--out", str(t / f"{name}.t.vsck"), "--finetune-epochs", "0", *flags) == 0
        assert run("eval", "--data", str(t / "city"), "--model", "sage", *flags,
                   "--out", str(t / name)) == 0
        manifests = [t / f"{name}.vsck.manifest.json", t / f"{name}.t.vsck.manifest.json",
                     t / name / "manifest.json"]
        configs[name] = [json.loads(p.read_text())["config"] for p in manifests]
        model_config = load_checkpoint(ckpt).model_config.to_dict()
        assert all(c["model_config"] == json.loads(json.dumps(model_config))
                   for c in configs[name])
    for default, attentional in zip(configs["default"], configs["attentional"]):
        assert default != attentional


# ---------------------------------------------------------------- failed writes


def _cli_under_file_size_limit(argv, limit):
    """The CLI run in a child process whose files may not grow past `limit`
    bytes. The child ignores SIGXFSZ, so a write past the limit fails with
    EFBIG; the limit and the signal setting act on that child alone."""
    def limit_child():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "virtualsensor", *map(str, argv)],
                          env=env, preexec_fn=limit_child, capture_output=True, text=True,
                          timeout=300)


def _outputs_of(out):
    """{path: bytes} of `out` and its manifest, or of every file in `out`."""
    paths = _files(out) if out.is_dir() else [out, Path(f"{out}.manifest.json")]
    return {p: p.read_bytes() for p in paths}


# Each case maps (data dir, checkpoint, tmp) to (argv without --out and the
# seed-setting flag, --out).
FILE_SIZE_LIMIT_CASES = {
    "train": lambda data, ckpt, tmp: (["train", "--data", data, "--epochs", "1"],
                                      tmp / "m.vsck"),
    "eval": lambda data, ckpt, tmp: (["eval", "--data", data, "--model", "mlp", "--epochs", "1"],
                                     tmp / "report"),
    "predict": lambda data, ckpt, tmp: (["predict", "--data", data, "--ckpt", ckpt], tmp / "p.csv"),
}


@pytest.mark.parametrize("case", list(FILE_SIZE_LIMIT_CASES))
def test_a_write_past_the_file_size_limit_keeps_the_old_outputs(tmp_path, workspace, case):
    # A second run whose outputs differ from the first fails while writing;
    # the first run's outputs and manifest keep their bytes.
    _, data, ckpt = workspace
    argv, out = FILE_SIZE_LIMIT_CASES[case](data, ckpt, tmp_path)
    first, second = ((["--location", "S00"], ["--location", "S01"]) if case == "predict"
                     else (["--seed", "0"], ["--seed", "1"]))
    assert run(*map(str, argv), *first, "--out", str(out)) == 0
    old = _outputs_of(out)
    # Half the largest output: in eval, report.csv fits and report.json does not.
    limit = max(len(raw) for raw in old.values()) // 2
    done = _cli_under_file_size_limit([*argv, *second, "--out", out], limit)
    assert done.returncode == 1
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")
    assert "File too large" in done.stderr
    assert _outputs_of(out) == old
    assert list(tmp_path.rglob("*.tmp")) == []


def test_eval_that_fails_writing_its_csv_keeps_both_reports(tmp_path, workspace, capsys,
                                                            monkeypatch):
    _, data, _ = workspace
    out = tmp_path / "report"
    argv = ["eval", "--data", str(data), "--model", "mlp", "--epochs", "1", "--out", str(out)]
    assert run(*argv, "--seed", "0") == 0
    old = _outputs_of(out)

    def failing_to_csv(self):
        raise OSError("no room for report.csv")

    monkeypatch.setattr(EvalReport, "to_csv", failing_to_csv)
    assert run(*argv, "--seed", "1") == 1
    assert capsys.readouterr().err == "error: no room for report.csv\n"
    assert _outputs_of(out) == old
    assert list(tmp_path.rglob("*.tmp")) == []


# ---------------------------------------------------------------- exit codes


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run("synth")  # --out is required
    assert exc.value.code == 2


# ---------------------------------------------------------------- full pipeline determinism


def test_full_pipeline_byte_identical(tmp_path):
    """synth -> train -> eval -> predict -> plot twice; all outputs match."""

    def pipeline(root):
        data = root / "city"
        ckpt = root / "m.vsck"
        rep = root / "rep"
        pred = root / "pred.csv"
        svg = root / "plot.svg"
        assert run("synth", "--sensors", "4", "--hours", "80", "--seed", "1",
                   "--out", str(data)) == 0
        assert run("train", "--data", str(data), "--out", str(ckpt),
                   "--epochs", "1", "--seed", "2") == 0
        assert run("eval", "--data", str(data), "--ckpt", str(ckpt),
                   "--out", str(rep)) == 0
        assert run("predict", "--data", str(data), "--ckpt", str(ckpt),
                   "--location", "S01", "--out", str(pred)) == 0
        assert run("plot", "--data", str(data), "--pred", str(pred),
                   "--location", "S01", "--out", str(svg)) == 0
        return {
            "readings": (data / "readings.csv").read_bytes(),
            "ckpt": ckpt.read_bytes(),
            "report.json": (rep / "report.json").read_bytes(),
            "report.csv": (rep / "report.csv").read_bytes(),
            "pred": pred.read_bytes(),
            "svg": svg.read_bytes(),
        }

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    for name in first:
        assert first[name] == second[name], name
