"""Training/evaluation pipeline: metrics, training loops, transfer,
leave-one-location-out, reports, and checkpoint persistence."""

import json
import struct
import sys
import warnings
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virtualsensor import (
    CityConfig,
    Dataset,
    EvalReport,
    SageConfig,
    SensorLocation,
    TrainConfig,
    TransferConfig,
    build_knn_graph,
    closed_loop_predict,
    generate_city,
    grad_rmse,
    improvement,
    leave_one_out,
    nrmse,
    prepare,
    rmse,
    train,
    transfer,
)
from virtualsensor.baselines import CnnConfig, GbtConfig, MlpConfig
from virtualsensor.dataset import N_FEATURES, fill_prev_no2
from virtualsensor.errors import CheckpointError, SchemaError
from virtualsensor.nncore import DRAW_BLOCK_BYTES, initialize, wrap_params
from virtualsensor.pipeline import (
    DEFAULT_MODEL_CONFIGS,
    _model_inputs,
    _training_rows,
    config_hash,
    fold_dataset,
    improvement_table,
    load_checkpoint,
    SCHEMA_HASH,
    save_checkpoint,
)
from virtualsensor import sage
from virtualsensor.sage import AggregatorKind, sample_batch

from probes import counting_vars

UTC = timezone.utc


def tiny_city(seed=0, n_hours=120, n_sensors=4):
    return generate_city(CityConfig(seed=seed, n_hours=n_hours, n_sensors=n_sensors))


def prepared_city(**kw):
    ds = tiny_city(**kw)
    g = build_knn_graph(ds.locations, k=3)
    prepared = prepare(ds)
    return ds, prepared, prepared.stats, g


FAST = TrainConfig(epochs=2, patience=2, seed=0)


# ---------------------------------------------------------------- metrics


def test_rmse_examples():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    # errors 1 and -1: sqrt(mean(1, 1)) = 1
    assert rmse([2.0, 1.0], [1.0, 2.0]) == pytest.approx(1.0)
    # errors 1 and 2: sqrt(5/2)
    assert rmse([2.0, 4.0], [1.0, 2.0]) == pytest.approx(np.sqrt(2.5))


def test_rmse_validation():
    with pytest.raises(SchemaError):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(SchemaError):
        rmse([], [])


def test_nrmse_normalizes_by_actual_mean():
    # rmse 1 over actual mean 2
    assert nrmse([3.0, 3.0], [2.0, 2.0]) == pytest.approx(0.5)


def test_nrmse_rejects_nonpositive_mean():
    with pytest.raises(SchemaError):
        nrmse([1.0, 1.0], [1.0, -1.0])


def test_grad_rmse_example():
    # diffs: pred (2, 2) vs actual (0, 0) -> rmse 2
    assert grad_rmse([0.0, 2.0, 4.0], [5.0, 5.0, 5.0]) == pytest.approx(2.0)


def test_grad_rmse_offset_blind():
    rng = np.random.default_rng(0)
    actual = rng.uniform(10, 40, size=50)
    pred = actual + 13.7  # constant offset
    assert grad_rmse(pred, actual) == pytest.approx(0.0, abs=1e-12)
    assert rmse(pred, actual) == pytest.approx(13.7)


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=30),
    st.floats(min_value=-50, max_value=50),
)
@settings(max_examples=50, deadline=None)
def test_grad_rmse_offset_invariance_property(values, offset):
    pred = np.array(values)
    actual = np.zeros_like(pred)
    assert grad_rmse(pred + offset, actual) == pytest.approx(grad_rmse(pred, actual), abs=1e-9)


def test_improvement_published_values():
    # Published summary metrics for the plain vs transfer-learned graph model
    # and the derived percentage gains.
    assert improvement(17.016, 15.623) == pytest.approx(8.185, abs=0.05)
    assert improvement(0.526, 0.481) == pytest.approx(8.576, abs=0.05)
    assert improvement(9.426, 6.354) == pytest.approx(32.593, abs=0.05)


def test_improvement_sign_and_validation():
    assert improvement(10.0, 12.0) == pytest.approx(-20.0)
    with pytest.raises(SchemaError):
        improvement(0.0, 1.0)


# ---------------------------------------------------------------- training


def test_train_requires_standardized_dataset():
    ds = tiny_city()
    g = build_knn_graph(ds.locations, k=3)
    with pytest.raises(SchemaError):
        train(fill_prev_no2(ds), g, FAST)


def test_train_sage_runs_and_records_history():
    _, prepared, _, g = prepared_city()
    model = train(prepared, g, FAST)
    assert model.train_cfg is FAST and model.stats is prepared.stats
    assert len(model.history["train"]) == 2
    assert len(model.history["val"]) == 2
    assert all(np.isfinite(v) for v in model.history["train"])


def test_train_deterministic_given_seed():
    _, prepared, _, g = prepared_city()
    a = train(prepared, g, FAST)
    b = train(prepared, g, FAST)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name]), name


def test_train_seed_changes_outcome():
    _, prepared, _, g = prepared_city()
    a = train(prepared, g, FAST)
    b = train(prepared, g, TrainConfig(epochs=2, patience=2, seed=1))
    assert any(not np.array_equal(a.params[n], b.params[n]) for n in a.params)


def test_train_zero_lr_keeps_params_at_init():
    _, prepared, _, g = prepared_city()
    cfg = TrainConfig(epochs=2, patience=2, lr=0.0, seed=0, val_fraction=0.0)
    model_cfg = SageConfig()
    init = initialize(model_cfg.param_shapes(N_FEATURES), np.random.default_rng(cfg.seed))
    trained = train(prepared, g, cfg, model_cfg)
    for name in init:
        assert np.allclose(trained.params[name], init[name]), name


@pytest.mark.parametrize("bad", [
    {"lr": -1.0}, {"lr": float("nan")}, {"lr": float("inf")},
    {"val_fraction": 1.0}, {"val_fraction": -0.1}, {"val_fraction": float("nan")},
    {"epochs": 0}, {"patience": 0}, {"model": "xyz"},
    {"epochs": 1.5}, {"patience": True}, {"seed": 0.5}, {"seed": "0"}, {"epochs": np.int64(2)},
], ids=lambda bad: "{}={}".format(*next(iter(bad.items()))))
def test_train_config_rejects_bad_values(bad):
    with pytest.raises(SchemaError):
        TrainConfig(**bad)


def test_train_rejects_config_of_another_kind():
    _, prepared, _, g = prepared_city()
    with pytest.raises(SchemaError, match="MlpConfig"):
        train(prepared, g, TrainConfig(epochs=1, model="sage"), MlpConfig())


def test_train_loss_decreases():
    _, prepared, _, g = prepared_city(n_hours=200)
    model = train(prepared, g, TrainConfig(epochs=5, patience=5, seed=0))
    assert model.history["train"][-1] < model.history["train"][0]


@pytest.mark.parametrize("kind", ["mlp", "cnn"])
def test_train_baselines(kind):
    _, prepared, _, g = prepared_city()
    model = train(prepared, g, TrainConfig(epochs=2, patience=2, model=kind))
    assert model.train_cfg.model == kind and model.stats is prepared.stats
    assert model.history["train"]


def test_train_gbt_monotone_history():
    _, prepared, _, g = prepared_city()
    model = train(prepared, g, TrainConfig(epochs=1, model="gbt"),
                  GbtConfig(n_trees=20))
    assert len(model.history["train"]) == 20
    assert np.all(np.diff(model.history["train"]) <= 1e-12)


def test_train_from_init_params_copies():
    _, prepared, _, g = prepared_city()
    base = train(prepared, g, FAST)
    before = {k: v.copy() for k, v in base.params.items()}
    train(prepared, g, TrainConfig(epochs=1, seed=5), init_params=base.params)
    for name in before:  # warm start must not mutate the source params
        assert np.array_equal(base.params[name], before[name])


# ---------------------------------------------------------------- transfer


def test_transfer_zero_finetune_returns_pretrained():
    src_raw, src, _, g_src = prepared_city(seed=1, n_hours=150, n_sensors=6)
    tgt_raw, tgt, _, g_tgt = prepared_city(seed=2)
    tcfg = TransferConfig(source=FAST, finetune_epochs=0)
    out = transfer(src, tgt, (g_src, g_tgt), tcfg)
    direct = train(src, g_src, FAST)
    for name in direct.params:
        assert np.array_equal(out.params[name], direct.params[name])


def test_transfer_finetune_changes_params():
    _, src, _, g_src = prepared_city(seed=1, n_hours=150, n_sensors=6)
    _, tgt, _, g_tgt = prepared_city(seed=2)
    tcfg = TransferConfig(source=FAST, finetune_epochs=2, finetune_lr=1e-4)
    out = transfer(src, tgt, (g_src, g_tgt), tcfg)
    pre = train(src, g_src, FAST)
    assert any(not np.array_equal(out.params[n], pre.params[n]) for n in pre.params)


def test_transfer_freeze_keeps_layers():
    _, src, _, g_src = prepared_city(seed=1, n_hours=150, n_sensors=6)
    _, tgt, _, g_tgt = prepared_city(seed=2)
    tcfg = TransferConfig(source=FAST, finetune_epochs=2, finetune_lr=1e-4,
                          freeze=("l1.",))
    out = transfer(src, tgt, (g_src, g_tgt), tcfg)
    pre = train(src, g_src, FAST)
    for name in pre.params:
        if name.startswith("l1."):
            assert np.array_equal(out.params[name], pre.params[name]), name


def test_transfer_freeze_holds_during_finetuning():
    # Frozen layers never move, so the returned parameters are exactly the
    # ones that scored the best validation MSE during fine-tuning.
    _, src, _, g_src = prepared_city(seed=1, n_hours=150, n_sensors=6)
    _, tgt, _, g_tgt = prepared_city(seed=2)
    source = TrainConfig(epochs=2, patience=2, seed=0, model="mlp")
    tcfg = TransferConfig(source=source, finetune_epochs=3, finetune_lr=1e-3,
                          freeze=("fc1.", "fc3."))
    out = transfer(src, tgt, (g_src, g_tgt), tcfg)

    rows = _training_rows(tgt)
    frames = [t for t in range(tgt.n_frames) if rows[t].any()]
    val_frames = frames[len(frames) - int(len(frames) * source.val_fraction):]
    feats = _model_inputs(tgt, g_tgt)
    pvars = wrap_params(out.params)
    total, count = 0.0, 0
    for t in val_frames:
        nodes = np.flatnonzero(rows[t])
        [drawn] = out.model_config.draws(g_tgt, [nodes], "eval", None)
        pred = out.model_config.forward(pvars, feats[t], nodes, drawn)
        total += float(np.sum((pred.value - tgt.targets[t, nodes]) ** 2))
        count += nodes.size
    assert total / count == pytest.approx(min(out.history["val"]), rel=1e-12, abs=0.0)


def test_transfer_lr_ordering_enforced():
    with pytest.raises(SchemaError):
        TransferConfig(source=TrainConfig(lr=1e-4), finetune_lr=1e-3)


@pytest.mark.parametrize("bad", [
    {"finetune_epochs": -1}, {"finetune_lr": -1e-4}, {"finetune_lr": float("nan")},
    {"finetune_lr": float("inf")},
])
def test_transfer_config_rejects_bad_finetune_settings(bad):
    # Checked before any pretraining runs, and for every finetune_epochs.
    with pytest.raises(SchemaError, match="finetune"):
        TransferConfig(source=TrainConfig(), **bad)


@pytest.mark.parametrize("cls,field,value", [
    (GbtConfig, "n_trees", 2.5), (GbtConfig, "n_trees", "3"), (GbtConfig, "max_depth", 2.0),
    (GbtConfig, "min_leaf", True), (GbtConfig, "learning_rate", "0.1"),
    (TransferConfig, "finetune_epochs", 1.5), (TransferConfig, "finetune_lr", "1"),
    (CityConfig, "n_hours", "10"), (CityConfig, "seed", 1.5), (CityConfig, "n_sensors", 3.0),
    (CityConfig, "base_level", "30"), (CityConfig, "noise_std", None),
    (CityConfig, "bbox", (51.4, 51.5, -2.6)), (CityConfig, "bbox", (51.4, "51.5", -2.6, -2.5)),
    (CityConfig, "bbox", "abcd"),
])
def test_config_rejects_a_wrong_type_naming_the_field(cls, field, value):
    with pytest.raises(SchemaError, match=f"{field} must be"):
        cls(**{field: value})


# ---------------------------------------------------------------- rollout dispatch


ALL_KINDS = [
    ("sage", None),
    ("mlp", None),
    ("cnn", None),
    ("gbt", GbtConfig(n_trees=10)),
]


@pytest.mark.parametrize("kind,model_cfg", ALL_KINDS)
def test_closed_loop_predict_all_kinds(kind, model_cfg):
    _, prepared, _, g = prepared_city()
    cfg = TrainConfig(epochs=1, model=kind, seed=0)
    trained = train(prepared, g, cfg, model_cfg)
    preds = closed_loop_predict(trained, g, prepared, 0, 25.0, np.random.default_rng(0))
    assert preds.shape == (prepared.n_frames - 1,)
    assert np.all(np.isfinite(preds))


@pytest.mark.parametrize("kind,model_cfg", ALL_KINDS)
def test_predict_hook_returns_an_array_on_stored_params(kind, model_cfg):
    _, prepared, _, g = prepared_city()
    trained = train(prepared, g, TrainConfig(epochs=1, model=kind, seed=0), model_cfg)
    feats, nodes = _model_inputs(prepared, g)[5], np.array([0, 2])
    [drawn] = trained.model_config.draws(g, [nodes], "eval", np.random.default_rng(0))
    out = trained.model_config.forward(trained.params, feats, nodes, drawn)
    assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (2,)


@pytest.mark.parametrize("kind,model_cfg", ALL_KINDS)
def test_rollout_and_validation_build_no_var(kind, model_cfg, monkeypatch):
    # Validation and the rollout run `forward` on the stored arrays; only
    # the training steps build a tape.
    cls = DEFAULT_MODEL_CONFIGS[kind]
    forward, built = cls.forward, {"evaluate": [], "train": []}

    def counted(self, params, feats, nodes, drawn):
        with counting_vars() as made:
            out = forward(self, params, feats, nodes, drawn)
        # Keyed by the caller: `train`'s steps, its validation `evaluate`, the rollout.
        built.setdefault(sys._getframe(1).f_code.co_name, []).append(len(made))
        return out

    monkeypatch.setattr(cls, "forward", counted)
    _, prepared, _, g = prepared_city()
    trained = train(prepared, g, TrainConfig(epochs=2, model=kind, seed=0, val_fraction=0.2),
                    model_cfg)
    # Two epochs over 119 frames: 23 validation and 96 training frames each;
    # gbt is fitted in one pass and validates nothing.
    assert len(built["evaluate"]) == 2 * 23 * cls.trains_by_gradient
    assert not any(built["evaluate"])
    assert all(built["train"]) and len(built["train"]) == 2 * 96 * cls.trains_by_gradient
    with counting_vars() as made:
        closed_loop_predict(trained, g, prepared, 0, 25.0, np.random.default_rng(0))
    assert made == []


@pytest.mark.parametrize("kind,masks", [("sage", 2), ("mlp", 1), ("cnn", 1), ("gbt", 0)])
def test_draws_give_dropout_masks_only_to_train_steps_that_drop_out(kind, masks):
    # The draw hook alone decides dropout: an eval step and a training step
    # at rate 0 get no mask, a training step at a positive rate one boolean
    # mask per dropout layer, which its forward takes. Every kind yields one
    # item per step, across blocks.
    _, prepared, _, g = prepared_city()
    feats = _model_inputs(prepared, g)[5]
    steps = [np.array([0, 2]), np.array([1]), np.arange(prepared.n_sensors)] * 400
    cls = DEFAULT_MODEL_CONFIGS[kind]
    off = cls(dropout=0.0) if masks else cls()
    for cfg, mode, want in [(cls(), "eval", 0), (off, "train", 0), (cls(), "train", masks)]:
        drawn = list(cfg.draws(g, steps, mode, np.random.default_rng(0)))
        assert len(drawn) == len(steps)
        if not cfg.trains_by_gradient:
            assert drawn == [()] * len(steps)
            continue
        params = initialize(cfg.param_shapes(N_FEATURES), np.random.default_rng(1))
        for nodes, items in zip(steps, drawn):
            step_masks = items[1:] if kind == "sage" else items
            assert kind != "sage" or np.array_equal(items[0].rows[:, 0], nodes)
            assert len(step_masks) == want
            assert all(m.dtype == np.bool_ and len(m) == len(nodes) for m in step_masks)
            assert cfg.forward(params, feats, nodes, items).shape == nodes.shape


def _block_targets(step_sizes, row_uniforms) -> list[int]:
    """The targets of each block when steps of the given sizes, each target
    drawing `row_uniforms` uniforms, fill blocks of DRAW_BLOCK_BYTES in turn."""
    blocks, used = [], 0
    for b in step_sizes:
        need = b * row_uniforms * 8
        if blocks and used + need <= DRAW_BLOCK_BYTES:
            blocks[-1] += b
            used += need
        else:
            blocks.append(b)
            used = need
    return blocks


def test_sample_batch_runs_once_per_block(monkeypatch):
    # An epoch, a validation pass and a rollout each call `sample_batch` once
    # per block of steps, over all of the block's targets.
    calls = []

    def counted(g, nodes, budget, keys):
        calls.append(len(nodes))
        return sample_batch(g, nodes, budget, keys)

    monkeypatch.setattr(sage, "sample_batch", counted)
    _, prepared, _, g = prepared_city(n_hours=200, n_sensors=8)
    assert prepared.present.all()
    cfg = SageConfig()
    trained = train(prepared, g, TrainConfig(epochs=1, seed=0, val_fraction=0.1), cfg)
    keys = (1 + cfg.budget[0]) * g.neighbors.shape[1]
    epoch = _block_targets([8] * 180, keys + (1 + cfg.budget[0]) * cfg.hidden[0] + cfg.hidden[1])
    validation = _block_targets([8] * 19, keys)
    assert len(epoch) > 1 and calls == epoch + validation

    _, long_city, _, g_long = prepared_city(n_hours=2400, n_sensors=8)
    calls.clear()
    closed_loop_predict(trained, g_long, long_city, 3, 25.0, np.random.default_rng(0))
    rollout = _block_targets([1] * 2399, (1 + cfg.budget[0]) * g_long.neighbors.shape[1])
    assert len(rollout) > 1 and calls == rollout


# ---------------------------------------------------------------- leave-one-out


def test_fold_dataset_censors_only_holdout():
    ds = tiny_city()
    censored = fold_dataset(ds, 1)
    assert not censored.present[:, 1].any()
    assert np.all(np.isnan(censored.targets[:, 1]))
    others = [i for i in range(ds.n_sensors) if i != 1]
    assert np.array_equal(censored.targets[:, others], ds.targets[:, others])
    assert np.array_equal(censored.features, ds.features, equal_nan=True)


def test_leave_one_out_basic_report():
    ds = tiny_city(n_hours=100)
    g = build_knn_graph(ds.locations, k=3)
    report = leave_one_out(ds, g, TrainConfig(epochs=1, seed=0))
    assert report.model == "sage"
    assert set(report.per_location) == {loc.id for loc in ds.locations}
    assert list(report.per_location) == sorted(report.per_location)
    for metric in ("rmse", "nrmse", "grad_rmse"):
        vals = [e[metric] for e in report.per_location.values()]
        assert report.averages[metric] == pytest.approx(np.mean(vals), abs=1e-12)
    assert report.metadata["n_locations"] == ds.n_sensors
    assert report.metadata["transfer"] is False


def test_leave_one_out_rejects_standardized_input():
    _, prepared, _, g = prepared_city()
    with pytest.raises(SchemaError):
        leave_one_out(prepared, g, TrainConfig(epochs=1))


def test_leave_one_out_never_reads_holdout_targets():
    # Tracer: two raw datasets that differ only in the held-out sensor's
    # targets after its first observation must produce byte-identical fold
    # predictions -- the series is consulted once for the rollout init and
    # otherwise only by the metric computation.
    from dataclasses import replace as dc_replace

    from virtualsensor.pipeline import _run_fold, _training_rows

    ds = tiny_city(n_hours=60)
    g = build_knn_graph(ds.locations, k=3)
    cfg = TrainConfig(epochs=1, seed=0)
    holdout = 1

    poisoned_targets = ds.targets.copy()
    poisoned_targets[1:, holdout] = 9999.0  # frame 0 (the init read) untouched
    poisoned = dc_replace(ds, targets=poisoned_targets)

    pred_a, _ = _run_fold(ds, g, cfg, SageConfig(), None, holdout)
    pred_b, _ = _run_fold(poisoned, g, cfg, SageConfig(), None, holdout)
    assert np.array_equal(pred_a, pred_b)

    # and the censored training set physically contains no holdout rows
    rows = _training_rows(prepare(fold_dataset(ds, holdout)))
    assert rows.any() and not rows[:, holdout].any()


def _leave_one_out_warnings(ds, k):
    """leave_one_out of a 2-tree GBT on `ds`, and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = leave_one_out(ds, build_knn_graph(ds.locations, k=k),
                               TrainConfig(model="gbt"), GbtConfig(n_trees=2))
    return report, [(w.category, str(w.message)) for w in caught]


def test_leave_one_out_skips_a_location_with_no_reading_after_frame_0():
    # Today the fold is skipped with a UserWarning, and the report tells it
    # only through a smaller n_locations.
    ds = tiny_city(n_sensors=3, n_hours=48)
    targets = ds.targets.copy()
    targets[1:, 1] = np.nan
    report, caught = _leave_one_out_warnings(replace(ds, targets=targets), k=2)
    assert caught == [(UserWarning, "holdout sensor S01 has no reading after the first hour; "
                                    "skipped")]
    assert list(report.per_location) == ["S00", "S02"]
    assert report.metadata["n_locations"] == 2


def test_leave_one_out_skips_a_location_with_one_reading_after_frame_0():
    # Grad-RMSE needs two points, so one reading is skipped like none.
    ds = tiny_city(n_sensors=3, n_hours=48)
    targets = ds.targets.copy()
    targets[2:, 1] = np.nan
    report, caught = _leave_one_out_warnings(replace(ds, targets=targets), k=2)
    assert caught == [(UserWarning, "holdout sensor S01 has one reading after the first hour; "
                                    "skipped")]
    assert list(report.per_location) == ["S00", "S02"]


def test_leave_one_out_names_a_location_with_a_non_positive_mean():
    ds = tiny_city(n_sensors=3, n_hours=48)
    targets = ds.targets.copy()
    targets[:, 2] = 0.0
    with pytest.raises(SchemaError, match="^location S02: nrmse: non-positive mean"):
        _leave_one_out_warnings(replace(ds, targets=targets), k=2)


def test_leave_one_out_with_no_evaluable_location_raises():
    with pytest.raises(SchemaError,
                       match="^no location produced evaluable predictions; skipped S00, S01$"):
        _leave_one_out_warnings(tiny_city(n_sensors=2, n_hours=1), k=1)


def test_leave_one_out_transfer_flag():
    ds = tiny_city(n_hours=80)
    g = build_knn_graph(ds.locations, k=3)
    _, prepared, _, g2 = prepared_city(seed=5, n_hours=80)
    pre = train(prepared, g2, TrainConfig(epochs=1))
    report = leave_one_out(ds, g, TrainConfig(epochs=1), init_params=pre.params)
    assert report.metadata["transfer"] is True


# ---------------------------------------------------------------- reports


def sample_report():
    return EvalReport(
        model="sage",
        per_location={
            "A": {"rmse": 10.0, "nrmse": 0.5, "grad_rmse": 5.0},
            "B": {"rmse": 20.0, "nrmse": 0.7, "grad_rmse": 7.0},
        },
        averages={"rmse": 15.0, "nrmse": 0.6, "grad_rmse": 6.0},
        metadata={"seed": 0},
    )


def test_report_json_round_trip():
    rep = sample_report()
    back = EvalReport.from_dict(json.loads(rep.to_json()))
    assert back.to_json() == rep.to_json()


@pytest.mark.parametrize("key,value", [
    ("model", ...), ("model", 3),
    ("per_location", ...), ("per_location", []), ("per_location", {"A": 1.0}),
    ("averages", ...), ("averages", {"rmse": 15.0, "nrmse": 0.6}),
    ("averages", {"rmse": "15", "nrmse": 0.6, "grad_rmse": 6.0}),
    ("metadata", []),
], ids=["no-model", "model-int", "no-per-location", "per-location-list",
        "location-not-object", "no-averages", "average-missing", "average-str", "metadata-list"])
def test_report_from_dict_rejects_malformed(key, value):
    data = json.loads(sample_report().to_json())
    if value is ...:
        del data[key]
    else:
        data[key] = value
    with pytest.raises(SchemaError, match=key):
        EvalReport.from_dict(data)


def test_report_csv_format():
    lines = sample_report().to_csv().strip().split("\n")
    assert lines[0] == "model,rmse,nrmse,grad_rmse"
    assert lines[1] == "sage,15.000000,0.600000,6.000000"


def test_improvement_table_published_numbers():
    base = EvalReport("sage", {}, {"rmse": 17.016, "nrmse": 0.526, "grad_rmse": 9.426})
    new = EvalReport("sage", {}, {"rmse": 15.623, "nrmse": 0.481, "grad_rmse": 6.354})
    table = improvement_table(base, new)
    assert table["rmse"] == pytest.approx(8.185, abs=0.05)
    assert table["nrmse"] == pytest.approx(8.576, abs=0.05)
    assert table["grad_rmse"] == pytest.approx(32.593, abs=0.05)


# ---------------------------------------------------------------- checkpoints


def trained_for_checkpoint():
    _, prepared, _, g = prepared_city()
    return train(prepared, g, TrainConfig(epochs=1, seed=0))


def test_checkpoint_round_trip(tmp_path):
    model = trained_for_checkpoint()
    path = tmp_path / "model.vsck"
    save_checkpoint(path, model)
    back = load_checkpoint(path)
    assert set(back.params) == set(model.params)
    for name in back.params:
        assert np.array_equal(back.params[name], np.atleast_2d(model.params[name]))
    assert np.array_equal(back.stats.mean, model.stats.mean)
    assert np.array_equal(back.stats.std, model.stats.std)
    assert back.train_cfg == model.train_cfg
    assert back.model_config == model.model_config
    assert back.history == {}


def test_checkpoint_save_idempotent(tmp_path):
    model = trained_for_checkpoint()
    p1, p2 = tmp_path / "a.vsck", tmp_path / "b.vsck"
    save_checkpoint(p1, model)
    save_checkpoint(p2, model)
    assert p1.read_bytes() == p2.read_bytes()
    # load -> save again stays byte-identical
    p3 = tmp_path / "c.vsck"
    save_checkpoint(p3, load_checkpoint(p1))
    assert p3.read_bytes() == p1.read_bytes()


def test_checkpoint_refuses_nan_params(tmp_path):
    model = trained_for_checkpoint()
    bad = dict(model.params)
    bad["head.w"] = np.array([[np.nan]])
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "bad.vsck", replace(model, params=bad))


def test_checkpoint_refuses_gbt(tmp_path):
    _, prepared, _, g = prepared_city()
    model = train(prepared, g, TrainConfig(model="gbt"), GbtConfig(n_trees=2))
    path = tmp_path / "gbt.vsck"
    with pytest.raises(CheckpointError, match="no parameter checkpoint"):
        save_checkpoint(path, model)
    assert not path.exists()


def test_checkpoint_rejects_tampered_magic(tmp_path):
    model = trained_for_checkpoint()
    path = tmp_path / "model.vsck"
    save_checkpoint(path, model)
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_version(tmp_path):
    model = trained_for_checkpoint()
    path = tmp_path / "model.vsck"
    save_checkpoint(path, model)
    for version in (99, 1):  # 1: the format before `k` joined TrainConfig
        data = bytearray(path.read_bytes())
        data[4] = version  # version field
        bad = tmp_path / f"v{version}.vsck"
        bad.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}"):
            load_checkpoint(bad)


def test_checkpoint_rejects_schema_mismatch(tmp_path):
    model = trained_for_checkpoint()
    path = tmp_path / "model.vsck"
    save_checkpoint(path, model)
    # A checkpoint written for another feature layout carries another hash.
    data = path.read_bytes()
    path.write_bytes(data[:6] + struct.pack("<Q", SCHEMA_HASH ^ 1) + data[14:])
    with pytest.raises(CheckpointError, match="schema"):
        load_checkpoint(path)


@pytest.mark.parametrize("old,new,count,match", [
    # train.model, the one record of the kind
    (b'"model": "sage"', b'"model": "mlp" ', -1, "bad mlp checkpoint config"),
    (b'"model": "sage"', b'"model": "gbt" ', -1, "no parameter checkpoint"),
    (b'"model": "sage"', b'"model": "xyz" ', -1, "unknown model kind"),
    # a model_config the kind's class rejects
    (b'"mean_pool"', b'"mean_poox"', 1, "bad sage checkpoint config"),
])
def test_checkpoint_rejects_edited_model_kind(tmp_path, old, new, count, match):
    path = tmp_path / "model.vsck"
    save_checkpoint(path, trained_for_checkpoint())
    data = path.read_bytes()
    assert old in data and len(old) == len(new)  # config length field stays valid
    path.write_bytes(data.replace(old, new, count))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    """A real sage checkpoint, as bytes."""
    path = tmp_path_factory.mktemp("ckpt") / "model.vsck"
    save_checkpoint(path, trained_for_checkpoint())
    return path.read_bytes()


def split_checkpoint(data: bytes) -> tuple[bytes, dict]:
    """(config JSON bytes, name -> 2-D array) of a well-formed checkpoint."""
    (config_len,) = struct.unpack_from("<I", data, 14)
    pos = 18 + config_len
    (n_blocks,) = struct.unpack_from("<I", data, pos)
    pos += 4
    blocks = {}
    for _ in range(n_blocks):
        (name_len,) = struct.unpack_from("<H", data, pos)
        name = data[pos + 2 : pos + 2 + name_len].decode()
        rows, cols = struct.unpack_from("<II", data, pos + 2 + name_len)
        pos += 2 + name_len + 8
        blocks[name] = np.frombuffer(data, "<f8", rows * cols, pos).reshape(rows, cols)
        pos += rows * cols * 8
    return data[18 : 18 + config_len], blocks


def join_checkpoint(header: bytes, config: bytes, blocks: dict) -> bytes:
    """The checkpoint layout around arbitrary contents (no validation)."""
    out = [header, struct.pack("<I", len(config)), config, struct.pack("<I", len(blocks))]
    for name, arr in blocks.items():
        out += [struct.pack("<H", len(name.encode())), name.encode(),
                struct.pack("<II", *arr.shape), np.ascontiguousarray(arr, "<f8").tobytes()]
    return b"".join(out)


def edit_blocks(data: bytes, edit) -> bytes:
    config, blocks = split_checkpoint(data)
    blocks = {k: v.copy() for k, v in blocks.items()}
    edit(blocks)
    return join_checkpoint(data[:14], config, blocks)


def edit_config(data: bytes, edit) -> bytes:
    config, blocks = split_checkpoint(data)
    return join_checkpoint(data[:14], edit(config), blocks)


def _set(blocks, name, value):
    blocks[name] = value


MALFORMED_CHECKPOINTS = {
    "first-100-bytes": lambda d: d[:100],
    "half": lambda d: d[: len(d) // 2],
    "5-bytes-short": lambda d: d[:-5],
    "trailing-bytes": lambda d: d + b"junk",
    "huge-block": lambda d: d.replace(b"head.b" + struct.pack("<II", 1, 1),
                                      b"head.b" + struct.pack("<II", 2**32 - 1, 2**32 - 1)),
    "bad-utf8-config": lambda d: edit_config(d, lambda c: b"\xff" + c[1:]),
    "bad-json-config": lambda d: edit_config(d, lambda c: b"}" + c[1:]),
    "config-not-object": lambda d: edit_config(d, lambda c: b"[1, 2]"),
    "config-top-level-model": lambda d: edit_config(  # the key format 1 also stored
        d, lambda c: c.replace(b'{"model_config"', b'{"model": "sage", "model_config"')),
    "config-without-train": lambda d: edit_config(
        d, lambda c: json.dumps({"model_config": json.loads(c)["model_config"]}).encode()),
    "missing-stats": lambda d: edit_blocks(d, lambda b: b.pop("stats.std")),
    "stats-width": lambda d: edit_blocks(
        d, lambda b: _set(b, "stats.mean", b["stats.mean"][:, :-1])),
    "nonfinite-stats": lambda d: edit_blocks(
        d, lambda b: _set(b, "stats.std", np.full_like(b["stats.std"], np.inf))),
    "zero-std": lambda d: edit_blocks(
        d, lambda b: _set(b, "stats.std", np.zeros_like(b["stats.std"]))),
    "nonfinite-param": lambda d: edit_blocks(
        d, lambda b: _set(b, "head.b", np.array([[np.nan]]))),
    "param-shape": lambda d: edit_blocks(d, lambda b: _set(b, "head.w", b["head.w"][:-1])),
    "param-missing": lambda d: edit_blocks(d, lambda b: b.pop("l2.w_self")),
    "param-extra": lambda d: edit_blocks(d, lambda b: _set(b, "l3.w_self", np.ones((2, 2)))),
}


def test_checkpoint_split_join_round_trip(checkpoint_bytes):
    assert edit_blocks(checkpoint_bytes, lambda b: None) == checkpoint_bytes


@pytest.mark.parametrize("case", list(MALFORMED_CHECKPOINTS))
def test_checkpoint_rejects_malformed_file(tmp_path, checkpoint_bytes, case):
    path = tmp_path / "bad.vsck"
    path.write_bytes(MALFORMED_CHECKPOINTS[case](checkpoint_bytes))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@given(data=st.data())
@settings(max_examples=1000, deadline=None)
def test_checkpoint_truncations_and_byte_flips(tmp_path_factory, checkpoint_bytes, data):
    raw = bytearray(checkpoint_bytes)
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        raw[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]), label="byte")
    path = tmp_path_factory.getbasetemp() / "fuzz.vsck"
    path.write_bytes(bytes(raw))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


def test_schema_hash_stable_and_sensitive():
    # Pinned: every checkpoint written so far carries this layout hash, and
    # any change to a column's name, unit or group would change it.
    assert SCHEMA_HASH == 0x5e706bbd5e5b3e45


# ---------------------------------------------------------------- config codecs


NON_DEFAULT_SAGE = SageConfig(aggregator=AggregatorKind.ATTENTIONAL, budget=(4, 2),
                              hidden=(8, 16), dropout=0.25)


@pytest.mark.parametrize("kind,cfg", [
    *((kind, cls()) for kind, cls in DEFAULT_MODEL_CONFIGS.items()),
    ("sage", NON_DEFAULT_SAGE),
    ("train", TrainConfig()),
    ("train", TrainConfig(epochs=7, lr=0.01, patience=3, val_fraction=0.0, seed=5,
                          model="cnn", k=5)),
])
def test_model_config_round_trip(kind, cfg):
    data = json.loads(json.dumps(cfg.to_dict()))  # as stored in a checkpoint
    assert {**DEFAULT_MODEL_CONFIGS, "train": TrainConfig}[kind].from_dict(data) == cfg


# Pinned values: config_hash lands in every report's metadata, and the same
# serialized config is written into checkpoints, so neither may drift.
@pytest.mark.parametrize("kind,cfg,want", [
    ("sage", SageConfig(), "a785c46c7a90d174"),
    ("sage", NON_DEFAULT_SAGE, "944e2cfca413bda3"),
    ("mlp", MlpConfig(), "e4a40d38503b31ce"),
    ("cnn", CnnConfig(), "29bbf7bb7494be6a"),
    ("gbt", GbtConfig(), "88207d4a37011d20"),
])
def test_config_hash_is_stable(kind, cfg, want):
    assert config_hash(TrainConfig(model=kind), cfg) == want


def test_config_hash_changes_with_settings():
    a = config_hash(TrainConfig(), SageConfig())
    b = config_hash(TrainConfig(lr=2e-3), SageConfig())
    c = config_hash(TrainConfig(), SageConfig(hidden=(16, 16)))
    d = config_hash(TrainConfig(k=5), SageConfig())
    assert len({a, b, c, d}) == 4
