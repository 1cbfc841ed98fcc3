"""Benchmark entry point for virtualsensor.

    python3 perfbench/run.py --workload sage-loo --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a fresh worker process (perfbench/worker.py) started
with the package's shipped defaults; VS_THREADS is removed from the worker's
environment so folds use the default threading that `eval` users get. Set-up
time is the median over several fresh processes that only import the
package and generate the inputs.

With --trace 0 the last line of standard output is the JSON result with the
end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics of a traced run, and the traced end-to-end numbers are
printed above it, apart from the untraced ones. The full record of a run
(environment, every pass, fingerprint, failures) is written under
perfbench/out/. See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sage-loo", "gbt-loo", "cli-train-predict")
SETUP_PROBES = 6  # extra set-up-only processes per run; the worker adds one more
DEADLINE_S = 170.0  # every process of one workload ends within this


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def worker_env() -> tuple[dict, str | None]:
    env = dict(os.environ)
    cleared = env.pop("VS_THREADS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env, cleared


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the machine from /proc/stat, if there is one."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def call_worker(argv: list[str], env: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {argv[:2]} exceeded the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """All processes of one workload run; returns the full record."""
    deadline = time.monotonic() + DEADLINE_S
    env, cleared = worker_env()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT)
    common = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    try:
        setup_samples = []
        for i in range(1 if smoke else SETUP_PROBES):
            probe_dir = os.path.join(workdir, f"setup{i}")
            os.makedirs(probe_dir)
            probe = call_worker(common + ["--mode", "setup", "--workdir", probe_dir], env, deadline)
            setup_samples.append(probe["setup_s"])
        trace_out = os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl") if trace else None
        run_dir = os.path.join(workdir, "run")
        os.makedirs(run_dir)
        argv = common + ["--mode", "run", "--workdir", run_dir, "--seconds", str(seconds),
                         "--trace", str(trace)] + (["--trace-out", trace_out] if trace_out else [])
        ticks0 = cpu_ticks()
        record = call_worker(argv, env, deadline)
        ticks1 = cpu_ticks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_samples.append(record["setup_s"])
    record.update({
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "setup_samples": setup_samples,
        "trace_file": os.path.relpath(trace_out, ROOT) if trace_out else None,
    })
    record["environment"].update(vs_threads_cleared=True, vs_threads_previous=cleared)
    # Share of CPU time the hypervisor gave to other guests while the workload ran.
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        record["environment"]["steal_share"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    return record


def end_to_end(record: dict, timings: list[dict]) -> dict:
    """Medians of one set of passes (traced or untraced) plus the run-wide values."""
    values = {
        "setup_s": statistics.median(record["setup_samples"]),
        "eval_s": statistics.median(t["eval_s"] for t in timings),
        "nrmse": record["nrmse"],
        "peak_rss_mb": record["peak_rss_mb"],
    }
    for key in ("train_s", "predict_s"):  # cli-train-predict only
        if key in timings[0]:
            values[key] = statistics.median(t[key] for t in timings)
    return values


UNITS = {"setup_s": "s", "eval_s": "s", "train_s": "s", "predict_s": "s",
         "nrmse": "ratio", "peak_rss_mb": "MB", "error_rate": "ratio"}


def summary_lines(record: dict) -> list[str]:
    failed, attempted = len(record["failures"]), record["attempted"]
    lines = [f"workload {record['workload']}  seed {record['environment']['seed']}  "
             f"passes {len(record['untraced'])} untraced, {len(record['traced'])} traced  "
             f"VS_THREADS cleared (was {record['environment']['vs_threads_previous']!r})"]
    sets = [("untraced", record["untraced"])]
    if record["traced"]:
        sets.append(("traced", record["traced"]))
    for label, timings in sets:
        values = end_to_end(record, timings)
        values["error_rate"] = failed / attempted
        if label == "traced":  # only the timed passes differ under the recorder
            values = {k: v for k, v in values.items() if k in timings[0]}
        for name, value in values.items():
            lines.append(f"  {label:9s} {name:12s} {value:.6g} {UNITS[name]}")
    if record["traced"]:
        lines.append(f"  tracing_overhead_s {record['per_layer']['tracing_overhead_s']:.6g} s "
                     f"(median traced minus median untraced eval_s)")
    lines.append(f"  operations {attempted} attempted, {failed} failed")
    lines += [f"  FAILED {msg}" for msg in record["failures"]]
    lines.append(f"  averages {json.dumps(record['averages'], sort_keys=True)}")
    lines.append(f"  fingerprint sha256 {record['fingerprint']}")
    return lines


def result_line(record: dict, spec: dict) -> dict:
    if record["trace"]:
        wanted, values = spec["per_layer"], record["per_layer"]
    else:
        wanted, values = spec["end_to_end"], end_to_end(record, record["untraced"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(record["failures"])
    return {"correct": failed == 0, "attempted": record["attempted"], "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass, one set-up probe: checks the plumbing only")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "virtualsensor", "__init__.py")):
        print("error: src/virtualsensor not found next to perfbench/", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            record = run_workload(workload, args.seed, seconds, args.trace, args.smoke)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
        print("\n".join(summary_lines(record)))
        print("environment " + json.dumps(record["environment"], sort_keys=True))
        results[workload] = result_line(record, spec)

    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
