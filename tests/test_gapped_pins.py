"""Bit-identity pins on a written city with deleted rows, and on a rollout
long enough to draw more than 2^15 sampler keys.

With about a quarter of the rows deleted, the frames of one training epoch
hold different numbers of present sensors, so the random inputs of one
training or validation pass come in steps of unequal size. Every digest
was computed before the random inputs were drawn in blocks of steps; any
change to how they are drawn that moves a bit of a report or a rollout
fails here.
"""

import hashlib

import numpy as np
import pytest

from virtualsensor import (
    AggregatorKind,
    CityConfig,
    SageConfig,
    build_knn_graph,
    closed_loop_predict,
    generate_city,
    load_dataset,
    prepare,
)
from virtualsensor.baselines import GbtConfig
from virtualsensor.cli import main
from virtualsensor.dataset import N_FEATURES, write_locations_csv, write_readings_csv
from virtualsensor.nncore import initialize
from virtualsensor.pipeline import TrainConfig, TrainedModel, leave_one_out

MODELS = {
    "sage-mean": ("sage", SageConfig(aggregator=AggregatorKind.MEAN)),
    "sage-max_pool": ("sage", SageConfig(aggregator=AggregatorKind.MAX_POOL)),
    "sage-mean_pool": ("sage", SageConfig(aggregator=AggregatorKind.MEAN_POOL)),
    "sage-attentional": ("sage", SageConfig(aggregator=AggregatorKind.ATTENTIONAL)),
    "mlp": ("mlp", None),
    "cnn": ("cnn", None),
    "gbt": ("gbt", GbtConfig(n_trees=10)),
}

# sha256 of `leave_one_out(...).to_json()` on the gapped city, two epochs.
PINNED_GAPPED_REPORT = {
    "sage-mean":
        "8ae70c426ad27e47d1c14cb9901aab8e057b9b7ba81eebd362aa024016ba5028",
    "sage-max_pool":
        "72541f003dc7a8f42ee20a055338e063a9b38b59606f9fe1f255a53f0d195b19",
    "sage-mean_pool":
        "805b5aa8c82fbceed74302f58efd4ea6336aa469f31bce42b2ab765e9c5b9b01",
    "sage-attentional":
        "101f9fcc8b477c038b4aa56aa48110fe38bec2f54e8cfadec468a9437e9c8cde",
    "mlp":
        "eb47c1afa2dd9055ab91d779fb19015843affb52024576e87fb5351b4f813dec",
    "cnn":
        "a48e01952e91230c63090bf1855e7df73382a14703963353f169b63405d0ae1c",
    "gbt":
        "9e70fdd4481d0361d9cbdedff1f05a62f2ccef09a8aaab9cf553506f00e616bc",
}
# sha256 of the float.hex of every prediction of the long rollout.
PINNED_LONG_ROLLOUT = "30e7574303530c0c7c7f411af133fb28119fdfe4a8d5ab92d446abfe47376ab8"


@pytest.fixture(scope="module")
def gapped_city(tmp_path_factory):
    """6 sensors x 96 hours written to CSV, with about a quarter of the rows
    deleted (the first and last hour kept), loaded back."""
    root = tmp_path_factory.mktemp("gapped")
    city = generate_city(CityConfig(n_sensors=6, n_hours=96, seed=11))
    lp, rp = root / "locations.csv", root / "readings.csv"
    write_locations_csv(city.locations, lp)
    write_readings_csv(city, rp)
    header, *rows = rp.read_bytes().splitlines(keepends=True)
    deleted = np.zeros((96, 6), dtype=bool)
    deleted[1:95] = np.random.default_rng(11).random((94, 6)) < 0.25
    rp.write_bytes(header + b"".join(row for row, gone in zip(rows, deleted.ravel()) if not gone))
    return load_dataset(lp, rp)


def test_gapped_city_has_steps_of_unequal_size(gapped_city):
    counts = gapped_city.present[1:].sum(axis=1)
    assert counts.min() < counts.max() and not gapped_city.present.all()


@pytest.mark.parametrize("key", list(MODELS))
def test_gapped_leave_one_out_keeps_its_bits(gapped_city, key):
    kind, model_cfg = MODELS[key]
    report = leave_one_out(gapped_city, build_knn_graph(gapped_city.locations, k=3),
                           TrainConfig(epochs=2, seed=4, model=kind), model_cfg)
    assert report.metadata["n_locations"] == 6
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == PINNED_GAPPED_REPORT[key]


def test_long_rollout_keeps_its_bits():
    # 2399 steps on a complete 6-node graph: each step draws 1 + 3 rows of 5
    # sampler keys, 47980 in all.
    ds = prepare(generate_city(CityConfig(n_sensors=6, n_hours=2400, seed=12)))
    g = build_knn_graph(ds.locations, k=5)
    assert g.neighbors.shape[1] == 5
    cfg = SageConfig()
    trained = TrainedModel(TrainConfig(), cfg,
                           initialize(cfg.param_shapes(N_FEATURES), np.random.default_rng(12)),
                           ds.stats)
    preds = closed_loop_predict(trained, g, ds, 4, 30.0, np.random.default_rng(13))
    assert preds.shape == (2399,) and np.isfinite(preds).all()
    text = ",".join(float(v).hex() for v in preds)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_LONG_ROLLOUT


def test_predict_on_a_one_hour_city_writes_only_the_header(tmp_path):
    # Its rollout has no step.
    data, one_hour, ckpt = tmp_path / "city", tmp_path / "one", tmp_path / "m.vsck"
    assert main(["synth", "--sensors", "3", "--hours", "30", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--out", str(ckpt), "--epochs", "1"]) == 0
    assert main(["synth", "--sensors", "3", "--hours", "1", "--out", str(one_hour)]) == 0
    out = tmp_path / "pred.csv"
    assert main(["predict", "--data", str(one_hour), "--ckpt", str(ckpt),
                 "--location", "S01", "--out", str(out)]) == 0
    assert out.read_text() == "timestamp,predicted_no2_ugm3\n"
