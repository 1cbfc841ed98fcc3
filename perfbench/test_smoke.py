"""Smoke test of the benchmark itself: every workload once at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

It checks the plumbing (every metric of BENCHMARK.json present with its
unit, outputs checked, recorder loud on missing layers), not performance.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_present_with_unit(workload, trace):
    out = run_bench("--workload", workload, "--seed", "7", "--seconds", "0",
                    "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    # The human-readable block names every end-to-end figure, gated or not.
    for name in ("setup_s", "eval_s", "nrmse", "peak_rss_mb", "error_rate"):
        assert f" {name} " in out.stdout
    if workload == "cli-train-predict":
        assert " train_s " in out.stdout and " predict_s " in out.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    out = run_bench("--workload", "sage-loo", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_per_layer_list_matches_the_recorder():
    names = [f"{layer}.{stat}" for layer in tracer.LAYERS for stat, _ in tracer.LAYER_STATS]
    names += [*tracer.DERIVED, "tracing_overhead_s"]
    assert [m["name"] for m in SPEC["per_layer"]] == names
    units = {f"{layer}.{stat}": unit for layer in tracer.LAYERS for stat, unit in tracer.LAYER_STATS}
    units.update(tracer.DERIVED, tracing_overhead_s="s")
    assert all(m["unit"] == units[m["name"]] for m in SPEC["per_layer"])


def test_recorder_rejects_a_missing_layer(monkeypatch):
    monkeypatch.setitem(tracer.LAYERS, "pipeline.no_such_function",
                        ("pipeline", "no_such_function"))
    from virtualsensor import pipeline

    original = pipeline.train
    with pytest.raises(tracer.LayerMissing):
        tracer.Recorder().install()
    assert pipeline.train is original  # a failed install leaves nothing wrapped


def test_recorder_rejects_a_layer_never_called():
    from virtualsensor import pipeline

    original = pipeline.train
    rec = tracer.Recorder()
    rec.install()
    assert pipeline.train is not original
    rec.uninstall()
    assert pipeline.train is original
    with pytest.raises(tracer.LayerMissing, match="pipeline.train"):
        rec.layer_metrics(1, required=("pipeline.train",))


def test_recorder_counts_survive_threads():
    import threading

    import numpy as np
    from virtualsensor import baselines

    x = np.arange(8.0).reshape(4, 2)
    y = np.array([0.0, 0.0, 1.0, 1.0])

    def work():
        for _ in range(200):
            baselines.best_split(x, y)

    rec = tracer.Recorder()
    rec.install()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        rec.uninstall()
    metrics = rec.layer_metrics(1)
    assert metrics["baselines.best_split.calls"] == 1600
    assert metrics["baselines.best_split.useful_ratio"] == 1.0
