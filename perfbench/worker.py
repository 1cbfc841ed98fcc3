"""One workload process of the benchmark; run.py starts it, never a user.

Modes:
  setup  import the package, generate the inputs, print the set-up time.
  run    set up once, then repeat the workload until --seconds have passed,
         checking every output. With --trace 1 each repetition is a pair: one
         untraced pass, then one pass (set-up included) under the recorder.

The last line of standard output is one JSON object for run.py.
"""

import time

T0 = time.perf_counter()  # set-up time starts before the package import

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SENSORS = 8


class Workload:
    """Inputs from a seed, one timed pass, and the checks on its outputs."""

    name = ""
    required_layers: tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def run(self, state) -> dict:
        """One pass. Returns timings, ops [(name, ok, detail)], nrmse,
        averages and fingerprint (sha256 of the outputs)."""
        raise NotImplementedError


class LooWorkload(Workload):
    hours = (24, 12)  # (measured, smoke)

    def setup(self):
        from virtualsensor import geograph, synthgen

        n_sensors = 4 if self.smoke else SENSORS
        ds = synthgen.generate_city(synthgen.CityConfig(
            n_sensors=n_sensors, n_hours=self.hours[self.smoke], seed=self.seed))
        g = geograph.build_knn_graph(ds.locations, k=3)
        return ds, g

    def configs(self):
        raise NotImplementedError

    def run(self, state) -> dict:
        from virtualsensor import pipeline

        ds, g = state
        cfg, model_cfg = self.configs()
        ids = [loc.id for loc in ds.locations]
        started = time.perf_counter()
        try:
            report = pipeline.leave_one_out(ds, g, cfg, model_cfg)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return {"timings": {"eval_s": time.perf_counter() - started},
                    "ops": [(f"fold {i}", False, "leave_one_out raised") for i in ids],
                    "nrmse": math.nan, "averages": {}, "fingerprint": ""}
        timings = {"eval_s": time.perf_counter() - started}

        ops = []
        for sensor in ids:
            entry = report.per_location.get(sensor)
            if entry is None:
                ops.append((f"fold {sensor}", False, "missing from the report"))
            elif not all(math.isfinite(entry.get(m, math.nan)) for m in ("rmse", "nrmse", "grad_rmse")):
                ops.append((f"fold {sensor}", False, f"non-finite metrics {entry}"))
            else:
                ops.append((f"fold {sensor}", True, ""))
        extra = sorted(set(report.per_location) - set(ids))
        if extra:
            ops.append(("report", False, f"unknown sensors {extra}"))
        return {"timings": timings, "ops": ops,
                "nrmse": report.averages["nrmse"], "averages": report.averages,
                "fingerprint": hashlib.sha256(report.to_json().encode()).hexdigest()}


class SageLoo(LooWorkload):
    name = "sage-loo"
    required_layers = (
        "synthgen.generate_city", "geograph.build_knn_graph", "dataset.fill_prev_no2",
        "dataset.standardize", "nncore.backward", "nncore.adam_step", "nncore.wrap_params",
        "sage.sample_batch", "sage.sage_forward_batch", "pipeline.leave_one_out",
        "pipeline.train", "pipeline.closed_loop_predict",
    )

    def configs(self):
        from virtualsensor import pipeline

        return pipeline.TrainConfig(epochs=1 if self.smoke else 2), None


class GbtLoo(LooWorkload):
    name = "gbt-loo"
    required_layers = (
        "synthgen.generate_city", "geograph.build_knn_graph", "dataset.fill_prev_no2",
        "dataset.standardize", "baselines.best_split", "baselines.gbt_fit",
        "baselines.gbt_predict", "pipeline.leave_one_out", "pipeline.train",
        "pipeline.closed_loop_predict",
    )
    n_trees = (10, 2)

    def configs(self):
        from virtualsensor import baselines, pipeline

        return (pipeline.TrainConfig(model="gbt"),
                baselines.GbtConfig(n_trees=self.n_trees[self.smoke]))


class CliTrainPredict(Workload):
    name = "cli-train-predict"
    required_layers = (
        "synthgen.generate_city", "dataset.write_readings_csv", "dataset.load_dataset",
        "dataset.fill_prev_no2", "dataset.standardize", "geograph.build_knn_graph",
        "nncore.backward", "nncore.adam_step", "nncore.wrap_params", "sage.sample_batch",
        "sage.sage_forward_batch", "pipeline.train", "pipeline.closed_loop_predict",
        "pipeline.save_checkpoint", "pipeline.load_checkpoint", "cli.cmd_synth",
        "cli.cmd_train", "cli.cmd_predict",
    )
    hours = (150, 12)

    def setup(self):
        from virtualsensor import cli

        data = os.path.join(self.workdir, "city")
        n_sensors = 4 if self.smoke else SENSORS
        rc = cli.main(["synth", "--sensors", str(n_sensors), "--hours", str(self.hours[self.smoke]),
                       "--seed", str(self.seed), "--out", data])
        if rc != 0:
            raise RuntimeError(f"synth exited with {rc}")
        return data, [f"S{i:02d}" for i in range(n_sensors)]

    def _actuals(self, data) -> dict:
        """Readings per sensor, in timestamp order, parsed by the benchmark."""
        series: dict[str, list[tuple[str, float]]] = {}
        with open(os.path.join(data, "readings.csv"), newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                series.setdefault(row["sensor_id"], []).append((row["timestamp"], float(row["no2_ugm3"])))
        return {sensor: dict(rows) for sensor, rows in series.items()}

    def run(self, state) -> dict:
        from virtualsensor import cli, pipeline

        data, ids = state
        ckpt = os.path.join(self.workdir, "model.vsck")
        epochs = "1" if self.smoke else "2"
        ops, timings = [], {}

        def command(argv):
            started = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rc = "exception"
            return rc, time.perf_counter() - started

        rc, timings["train_s"] = command(["train", "--data", data, "--out", ckpt,
                                          "--aggregator", "attentional", "--epochs", epochs])
        ops.append(("train", rc == 0, f"exit {rc}"))
        predict_s, pred_paths = [], {}
        for sensor in ids:
            pred_paths[sensor] = os.path.join(self.workdir, f"pred_{sensor}.csv")
            rc, elapsed = command(["predict", "--data", data, "--ckpt", ckpt,
                                   "--location", sensor, "--out", pred_paths[sensor]])
            predict_s.append(elapsed)
            ops.append((f"predict {sensor}", rc == 0, f"exit {rc}"))
        timings["predict_s"] = statistics.median(predict_s)
        timings["eval_s"] = timings["train_s"] + sum(predict_s)

        # Output checks, outside the timed commands.
        try:
            pipeline.load_checkpoint(ckpt)
            ops.append(("checkpoint loads back", True, ""))
        except Exception as exc:
            ops.append(("checkpoint loads back", False, repr(exc)))
        actuals = self._actuals(data)
        digest = hashlib.sha256()
        if os.path.exists(ckpt):
            with open(ckpt, "rb") as fh:
                digest.update(fh.read())
        scores = []
        for sensor, path in pred_paths.items():
            ok, detail, score = self._check_prediction(path, actuals.get(sensor, {}))
            ops.append((f"prediction {sensor}", ok, detail))
            if ok:
                scores.append(score)
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        mean_nrmse = float(sum(scores) / len(scores)) if scores else math.nan
        return {"timings": timings, "ops": ops, "nrmse": mean_nrmse,
                "averages": {"nrmse": mean_nrmse}, "fingerprint": digest.hexdigest()}

    @staticmethod
    def _check_prediction(path, actual: dict):
        """T-1 finite, non-negative rows; returns (ok, detail, nrmse)."""
        if not os.path.exists(path):
            return False, "no prediction file", math.nan
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != len(actual) - 1:
            return False, f"{len(rows)} rows, expected {len(actual) - 1}", math.nan
        preds, truth = [], []
        for ts, value in rows:
            v = float(value)
            if not math.isfinite(v) or v < 0:
                return False, f"bad value {value!r} at {ts}", math.nan
            if ts not in actual:
                return False, f"timestamp {ts} not in the readings", math.nan
            preds.append(v)
            truth.append(actual[ts])
        mean = sum(truth) / len(truth)
        rmse = math.sqrt(sum((p - a) ** 2 for p, a in zip(preds, truth)) / len(truth))
        return True, "", rmse / mean


WORKLOADS = {w.name: w for w in (SageLoo, GbtLoo, CliTrainPredict)}


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "seed": seed,
    }


class Tally:
    """Operations attempted and failed, with the failures kept for the record."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.first_fingerprint = None
        self.last: dict = {}

    def add(self, result: dict) -> None:
        self.last = result
        for name, ok, detail in result["ops"]:
            self.attempted += 1
            if not ok:
                self.failures.append(f"{name}: {detail}")
        # Every pass runs the same inputs, so the outputs must be byte-identical.
        self.attempted += 1
        if self.first_fingerprint is None:
            self.first_fingerprint = result["fingerprint"]
        if not result["fingerprint"] or result["fingerprint"] != self.first_fingerprint:
            self.failures.append("outputs differ from the first pass")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import virtualsensor

    if not os.path.abspath(virtualsensor.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"virtualsensor imported from {virtualsensor.__file__}, not {SRC}")
    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
    state = workload.setup()
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tally = Tally()
    untraced, traced, recorder = [], [], None
    if args.trace:
        from tracer import Recorder

        recorder = Recorder()
    started = time.perf_counter()
    while True:
        result = workload.run(state)
        tally.add(result)
        untraced.append(result["timings"])
        if recorder is not None:
            recorder.install()
            try:
                traced_state = workload.setup()
                result = workload.run(traced_state)
            finally:
                recorder.uninstall()
            tally.add(result)
            traced.append(result["timings"])
        if time.perf_counter() - started >= args.seconds:
            break

    last = tally.last
    out.update({
        "untraced": untraced,
        "traced": traced,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "nrmse": last["nrmse"],
        "averages": last["averages"],
        "fingerprint": last["fingerprint"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(args.seed),
    })
    if recorder is not None:
        layers = recorder.layer_metrics(len(traced), workload.required_layers)
        layers["tracing_overhead_s"] = (statistics.median(t["eval_s"] for t in traced)
                                        - statistics.median(t["eval_s"] for t in untraced))
        out["per_layer"] = layers
        if args.trace_out:
            recorder.write_jsonl(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
