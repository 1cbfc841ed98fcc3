"""Acceptance suite: one check per release criterion, each printing a
pass/fail line. Exact arithmetic oracles run against published summary
numbers; directional claims run as synthetic-city experiments."""

import itertools
import json
import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from virtualsensor import (
    CityConfig,
    SensorLocation,
    TrainConfig,
    build_knn_graph,
    generate_city,
    grad_rmse,
    haversine,
    improvement,
    lag_autocorr,
    leave_one_out,
    nrmse,
    prepare,
    rmse,
    train,
)
from virtualsensor.baselines import GbtConfig, MlpConfig, best_split, gbt_fit
from virtualsensor.cli import main as cli_main
from virtualsensor.nncore import initialize, mse_loss
from virtualsensor.pipeline import DEFAULT_MODEL_CONFIGS, _run_fold
from virtualsensor.sage import (
    AggregatorKind,
    SageConfig,
    sage_forward_batch,
)

from probes import aggregate, attention_weights, grad_check, sage_dropout_masks, sample_with_rng

# Published leave-one-out averages (rmse, nrmse, grad_rmse) per model.
PUBLISHED = {
    "mlp": (27.482, 0.876, 10.812),
    "xgboost": (22.773, 0.721, 9.583),
    "cnn": (21.133, 0.672, 9.741),
    "cnn_transfer": (18.362, 0.583, 9.912),
    "graphsage": (17.016, 0.526, 9.426),
    "graphsage_transfer": (15.623, 0.481, 6.354),
}


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_verdicts(capfd):
    # let report() bypass output capture so every criterion's verdict line
    # lands in the terminal even on quiet runs
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(criterion: int, passed: bool, detail: str = ""):
    line = f"acceptance criterion {criterion:2d}: {'PASS' if passed else 'FAIL'}  {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert passed, line


# ---------------------------------------------------------------------------


def test_criterion_01_improvement_table_oracle():
    """Percentage gains derived from the published plain vs transfer-learned
    graph-model rows reproduce the published improvement figures."""
    base = PUBLISHED["graphsage"]
    new = PUBLISHED["graphsage_transfer"]
    got = [improvement(b, n) for b, n in zip(base, new)]
    want = [8.185, 8.576, 32.593]
    ok = all(abs(g - w) <= 0.05 for g, w in zip(got, want))
    report(1, ok, f"improvements {[f'{g:.3f}' for g in got]} vs {want} (+-0.05)")


def test_criterion_02_nrmse_normalizer_consistency():
    """Under mean-normalization, every published (rmse, nrmse) pair implies a
    location-mean NO2 in a common [31, 33] ug/m3 band."""
    implied = {name: r / n for name, (r, n, _) in PUBLISHED.items()}
    ok = all(31.0 <= v <= 33.0 for v in implied.values())
    detail = ", ".join(f"{k}={v:.2f}" for k, v in implied.items())
    report(2, ok, detail)


def test_criterion_03_gradient_correctness():
    """Every trainable architecture passes central finite differences at
    max relative error < 1e-4 over 5 seeds, within 30 s."""
    started = time.monotonic()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 5))
        y = rng.normal(size=4)

        for kind in AggregatorKind:
            cfg = SageConfig(aggregator=kind, hidden=(3, 3), dropout=0.5)
            params = initialize(cfg.param_shapes(5), rng)
            params = {k: v + 0.05 * rng.normal(size=v.shape) for k, v in params.items()}
            adj = tuple(tuple(v for v in range(4) if v != u) for u in range(4))
            from virtualsensor.geograph import SpatialGraph

            g = SpatialGraph(n_nodes=4, adjacency=adj)
            batch = sample_with_rng(g, [0, 1, 2, 3], cfg.budget, rng)

            # A freshly seeded generator draws the same dropout masks each call.
            def f(p, cfg=cfg, batch=batch):
                out = sage_forward_batch(p, cfg, x, batch,
                                         *sage_dropout_masks(cfg, 4, np.random.default_rng(7)),
                                         mode="train")
                return mse_loss(out, y)

            worst = max(worst, grad_check(f, params))

        from virtualsensor.baselines import CnnConfig, cnn_forward_batch, mlp_forward_batch

        mcfg = MlpConfig(hidden=(4, 4, 3))
        mp = initialize(mcfg.param_shapes(5), rng)
        mp = {k: v + 0.05 * rng.normal(size=v.shape) for k, v in mp.items()}
        worst = max(worst, grad_check(lambda p: mse_loss(mlp_forward_batch(
            p, mcfg, x, np.random.default_rng(7).random((4, 4)) >= mcfg.dropout, mode="train"), y),
            mp))

        ccfg = CnnConfig(channels=2, kernel=3, dense_hidden=3)
        cp = initialize(ccfg.param_shapes(5), rng)
        cp = {k: v + 0.05 * rng.normal(size=v.shape) for k, v in cp.items()}
        worst = max(worst, grad_check(lambda p: mse_loss(cnn_forward_batch(
            p, ccfg, x, np.random.default_rng(7).random((4, 5, 2)) >= ccfg.dropout, mode="train"),
            y), cp))

    elapsed = time.monotonic() - started
    ok = worst < 1e-4 and elapsed < 30.0
    report(3, ok, f"max rel err {worst:.2e}, {elapsed:.1f}s (< 30s)")


def test_criterion_04_aggregator_properties():
    """Permutation invariance (exhaustive, 5 neighbors), attention weights
    sum to 1 within 1e-12, empty neighborhoods yield zero vectors."""
    rng = np.random.default_rng(0)
    ok = True
    for kind in AggregatorKind:
        cfg = SageConfig(aggregator=kind, hidden=(4, 4), dropout=0.0)
        params = initialize(cfg.param_shapes(6), np.random.default_rng(1))
        self_feat = rng.normal(size=6)
        neighbors = [rng.normal(size=6) for _ in range(5)]
        base = aggregate(kind, self_feat, neighbors, params)
        for perm in itertools.permutations(range(5)):
            out = aggregate(kind, self_feat, [neighbors[i] for i in perm], params)
            ok &= bool(np.allclose(out, base, atol=1e-12))
        ok &= bool(np.allclose(aggregate(kind, self_feat, [], params), 0.0))

    acfg = SageConfig(aggregator=AggregatorKind.ATTENTIONAL, hidden=(4, 4))
    ap = initialize(acfg.param_shapes(6), np.random.default_rng(2))
    alpha = attention_weights(ap, 1, AggregatorKind.ATTENTIONAL,
                              rng.normal(size=(2, 6)), rng.normal(size=(2, 5, 6)),
                              np.ones((2, 5)))
    ok &= bool(np.all(np.abs(alpha.sum(axis=-1) - 1.0) < 1e-12))
    report(4, ok, "permutation invariance, attention sum-to-one, empty-set zero")


def test_criterion_05_leave_one_out_hygiene():
    """The held-out sensor's targets influence nothing but the rollout init
    and the metrics: poisoning them after the first frame leaves fold
    predictions byte-identical."""
    ds = generate_city(CityConfig(seed=0, n_hours=80, n_sensors=4))
    g = build_knn_graph(ds.locations, k=3)
    cfg = TrainConfig(epochs=1, seed=0)
    holdout = 2
    poisoned_targets = ds.targets.copy()
    poisoned_targets[1:, holdout] = 1e6
    poisoned = replace(ds, targets=poisoned_targets)
    pred_a, _ = _run_fold(ds, g, cfg, SageConfig(), None, holdout)
    pred_b, _ = _run_fold(poisoned, g, cfg, SageConfig(), None, holdout)
    ok = np.array_equal(pred_a, pred_b)
    report(5, ok, "predictions identical under post-init target poisoning")


def test_criterion_06_directional_ordering():
    """On 8-sensor, 4000-hour synthetic cities (3 seeds), the graph model
    beats the MLP on mean NRMSE, matching the published ordering."""
    started = time.monotonic()

    def mean_nrmse(model, seeds):
        vals = []
        for seed in seeds:
            ds = generate_city(CityConfig(seed=seed, n_hours=4000))
            g = build_knn_graph(ds.locations, k=3)
            cfg = TrainConfig(model=model, epochs=4, patience=4, seed=seed)
            holdout = seed % ds.n_sensors
            pred, actual = _run_fold(ds, g, cfg, DEFAULT_MODEL_CONFIGS[model](),
                                     None, holdout)
            vals.append(nrmse(pred, actual))
        return float(np.mean(vals)), vals

    seeds = (0, 1, 2)
    sage_mean, _ = mean_nrmse("sage", seeds)
    mlp_mean, _ = mean_nrmse("mlp", seeds)
    if abs(sage_mean - mlp_mean) < 1e-9:  # tie: re-run with a 4th seed
        sage_mean, _ = mean_nrmse("sage", seeds + (3,))
        mlp_mean, _ = mean_nrmse("mlp", seeds + (3,))
    elapsed = time.monotonic() - started
    ok = sage_mean < mlp_mean
    report(6, ok, f"graph {sage_mean:.4f} < mlp {mlp_mean:.4f} NRMSE, {elapsed:.0f}s")


def test_criterion_07_transfer_benefit():
    """Pretraining on a 60-sensor source city then fine-tuning on a target
    truncated to 10% of its frames beats from-scratch training on both mean
    NRMSE and mean Grad-RMSE (3 seeds)."""
    started = time.monotonic()
    scratch_n, transfer_n, scratch_g, transfer_g = [], [], [], []
    for seed in (0, 1, 2):
        src = generate_city(CityConfig(seed=100 + seed, n_sensors=60, n_hours=1000,
                                       bbox=(51.28, 51.70, -0.51, 0.33)))
        g_src = build_knn_graph(src.locations, k=3)
        src_prep = prepare(src)
        pre = train(src_prep, g_src, TrainConfig(epochs=2, patience=5, seed=seed))

        tgt = generate_city(CityConfig(seed=seed, n_hours=4000))
        keep = tgt.n_frames // 10
        tgt = replace(tgt, features=tgt.features[:keep], targets=tgt.targets[:keep])
        g_tgt = build_knn_graph(tgt.locations, k=3)
        cfg = TrainConfig(epochs=4, patience=4, seed=seed)
        r_scratch = leave_one_out(tgt, g_tgt, cfg)
        r_transfer = leave_one_out(tgt, g_tgt, cfg, init_params=pre.params)
        scratch_n.append(r_scratch.averages["nrmse"])
        transfer_n.append(r_transfer.averages["nrmse"])
        scratch_g.append(r_scratch.averages["grad_rmse"])
        transfer_g.append(r_transfer.averages["grad_rmse"])
    elapsed = time.monotonic() - started
    ok = (np.mean(transfer_n) < np.mean(scratch_n)
          and np.mean(transfer_g) < np.mean(scratch_g))
    report(7, ok,
           f"NRMSE {np.mean(transfer_n):.4f} < {np.mean(scratch_n):.4f}, "
           f"Grad-RMSE {np.mean(transfer_g):.3f} < {np.mean(scratch_g):.3f}, {elapsed:.0f}s")


def test_criterion_08_autocorrelation_signature():
    """Default synthetic cities keep every sensor's lag-1 autocorrelation in
    [0.85, 0.98]."""
    worst_lo, worst_hi = 1.0, 0.0
    ok = True
    for seed in range(3):
        ds = generate_city(CityConfig(seed=seed, n_hours=4000))
        for s in range(ds.n_sensors):
            r = lag_autocorr(ds.targets[:, s])
            worst_lo, worst_hi = min(worst_lo, r), max(worst_hi, r)
            ok &= 0.85 <= r <= 0.98
    report(8, ok, f"lag-1 range [{worst_lo:.3f}, {worst_hi:.3f}] within [0.85, 0.98]")


def test_criterion_09_metric_unit_oracles():
    """Direct arithmetic examples for every metric and spatial primitive."""
    checks = [
        abs(rmse([2.0, 4.0], [1.0, 2.0]) - math.sqrt(2.5)) < 1e-12,
        rmse([1.0, 2.0], [1.0, 2.0]) == 0.0,
        abs(nrmse([3.0, 3.0], [2.0, 2.0]) - 0.5) < 1e-12,
        abs(grad_rmse([0.0, 2.0, 4.0], [5.0, 5.0, 5.0]) - 2.0) < 1e-12,
        abs(improvement(20.0, 15.0) - 25.0) < 1e-12,
        abs(haversine((90.0, 0.0), (-90.0, 0.0)) - math.pi * 6_371_000.0) < 1e-3,
        abs(haversine((51.4545, -2.5879), (51.5072, -0.1276)) - 170_500.0) < 500.0,
    ]
    # standardize: [2, 4, 6] -> mean 4, population std sqrt(8/3)
    from datetime import datetime, timezone

    from virtualsensor import Dataset
    from virtualsensor.dataset import N_FEATURES, standardize

    features = np.zeros((3, 1, N_FEATURES))
    features[:, 0, 0] = [2.0, 4.0, 6.0]
    ds = Dataset(
        locations=(SensorLocation("a", 51.0, -2.0, 10.0),),
        start=datetime(2021, 1, 1, tzinfo=timezone.utc),
        features=features,
        targets=np.ones((3, 1)),
    )
    out = standardize(ds)
    stats = out.stats
    checks.append(abs(stats.mean[0] - 4.0) < 1e-12)
    checks.append(abs(stats.std[0] - math.sqrt(8.0 / 3.0)) < 1e-12)
    checks.append(np.allclose(out.features[:, 0, 0],
                              [-1.224744871391589, 0.0, 1.224744871391589]))
    ok = all(checks)
    report(9, ok, f"{sum(checks)}/{len(checks)} metric oracles exact")


def test_criterion_10_pipeline_determinism(tmp_path):
    """synth -> train -> eval repeated with identical seeds is byte-identical,
    SVG plot included."""

    def pipeline(root):
        data, ckpt, rep = root / "city", root / "m.vsck", root / "rep"
        pred, svg = root / "pred.csv", root / "plot.svg"
        for argv in (
            ["synth", "--sensors", "4", "--hours", "80", "--seed", "5", "--out", str(data)],
            ["train", "--data", str(data), "--out", str(ckpt), "--epochs", "1", "--seed", "1"],
            ["eval", "--data", str(data), "--ckpt", str(ckpt), "--out", str(rep)],
            ["predict", "--data", str(data), "--ckpt", str(ckpt),
             "--location", "S01", "--out", str(pred)],
            ["plot", "--data", str(data), "--pred", str(pred),
             "--location", "S01", "--out", str(svg)],
        ):
            assert cli_main(argv) == 0
        return [
            (data / "readings.csv").read_bytes(),
            ckpt.read_bytes(),
            (rep / "report.json").read_bytes(),
            (rep / "report.csv").read_bytes(),
            pred.read_bytes(),
            svg.read_bytes(),
        ]

    first = pipeline(tmp_path / "r1")
    second = pipeline(tmp_path / "r2")
    ok = all(a == b for a, b in zip(first, second))
    report(10, ok, "reports, checkpoint, predictions, and SVG byte-identical")


def test_criterion_11_gbt_properties():
    """Training MSE non-increasing across all 100 trees on 3 synthetic
    datasets; a depth-1 tree matches the exhaustive split-search oracle."""
    ok = True
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(60, 5))
        y = 2.0 * x[:, 0] + np.sin(x[:, 1]) + 0.2 * rng.normal(size=60)
        model = gbt_fit(x, y, GbtConfig(n_trees=100))
        ok &= len(model.train_mse) == 100
        ok &= bool(np.all(np.diff(model.train_mse) <= 1e-12))

    # depth-1 oracle: the single split chosen equals brute force
    rng = np.random.default_rng(9)
    x = rng.normal(size=(25, 3))
    y = rng.normal(size=25)
    got = best_split(x, y)
    best = None
    for j in range(3):
        for thr in np.unique(x[:, j]):
            mask = x[:, j] < thr
            if not mask.any() or mask.all():
                continue
            sse = ((y[mask] - y[mask].mean()) ** 2).sum() + ((y[~mask] - y[~mask].mean()) ** 2).sum()
            gain = ((y - y.mean()) ** 2).sum() - sse
            if best is None or gain > best[0]:
                best = (gain, j, thr)
    ok &= got is not None and abs(got[0] - best[0]) < 1e-9 and got[1] == best[1]
    report(11, ok, "monotone boosting MSE and depth-1 split oracle")
