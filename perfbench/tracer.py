"""Span recorder that wraps public functions of the package from outside.

Each layer is a public function (or the public `Var.backward` method). While
the recorder is installed, every module of the package that binds the
function under some name is rebound to a wrapper, so the span is taken at
the name each caller looks up. Nothing under `src/` is edited.

A span carries: id, layer name, start and end (perf_counter seconds), busy
time (`time.thread_time()` inside the span), parent span id, fold id and the
thread it ran on. Spans stay in memory; `write_jsonl` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

import numpy as np

PACKAGE = "virtualsensor"

# layer name -> (module of the package, attribute path of the public callable)
LAYERS = {
    "synthgen.generate_city": ("synthgen", "generate_city"),
    "dataset.load_dataset": ("dataset", "load_dataset"),
    "dataset.fill_prev_no2": ("dataset", "fill_prev_no2"),
    "dataset.standardize": ("dataset", "standardize"),
    "dataset.write_readings_csv": ("dataset", "write_readings_csv"),
    "geograph.build_knn_graph": ("geograph", "build_knn_graph"),
    "nncore.backward": ("nncore", "Var.backward"),
    "nncore.adam_step": ("nncore", "adam_step"),
    "nncore.wrap_params": ("nncore", "wrap_params"),
    "sage.sample_batch": ("sage", "sample_batch"),
    "sage.sage_forward_batch": ("sage", "sage_forward_batch"),
    "baselines.best_split": ("baselines", "best_split"),
    "baselines.gbt_fit": ("baselines", "gbt_fit"),
    "baselines.gbt_predict": ("baselines", "gbt_predict"),
    "pipeline.leave_one_out": ("pipeline", "leave_one_out"),
    "pipeline.train": ("pipeline", "train"),
    "pipeline.closed_loop_predict": ("pipeline", "closed_loop_predict"),
    "pipeline.save_checkpoint": ("pipeline", "save_checkpoint"),
    "pipeline.load_checkpoint": ("pipeline", "load_checkpoint"),
    "cli.cmd_synth": ("cli", "cmd_synth"),
    "cli.cmd_train": ("cli", "cmd_train"),
    "cli.cmd_predict": ("cli", "cmd_predict"),
}

LAYER_STATS = (("calls", "count"), ("wall_s", "s"), ("busy_s", "s"), ("wait_s", "s"))

DERIVED = {
    "pipeline.fold_concurrency": "ratio",
    "pipeline.train.epochs": "count",
    "pipeline.closed_loop_predict.steps": "count",
    "baselines.best_split.useful_ratio": "ratio",
}

# Layers whose first argument is a Dataset; inside leave_one_out the fold id
# is the one sensor whose presence is censored everywhere.
_DATASET_FIRST = {"dataset.fill_prev_no2", "dataset.standardize", "pipeline.train"}


class LayerMissing(RuntimeError):
    """A listed public name no longer exists, or was never called."""


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise LayerMissing(f"{module.__name__}.{path} no longer exists")
    return owner, attr, getattr(owner, attr)


def _censored_sensor(ds):
    cols = np.flatnonzero(~ds.present.any(axis=0))
    return int(cols[0]) if cols.size == 1 else None


class Recorder:
    """Wraps the listed layers while installed and records one span per call."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters = {"pipeline.train.epochs": 0, "pipeline.closed_loop_predict.steps": 0,
                         "baselines.best_split.found": 0}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()  # fold threads update the counters
        self._local = threading.local()
        self._main_stack: list[dict] = []
        self._loo_open = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("recorder already installed")
        for mod_name, _ in LAYERS.values():
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        try:
            for layer, (mod_name, path) in LAYERS.items():
                self._install_layer(layer, mod_name, path, modules)
        except Exception:
            self.uninstall()
            raise

    def _install_layer(self, layer, mod_name, path, modules) -> None:
        if any(part.startswith("_") for part in path.split(".")):
            raise ValueError(f"{layer}: only public names may be wrapped")
        owner, attr, original = _resolve(sys.modules[f"{PACKAGE}.{mod_name}"], path)
        wrapper = self._wrap(layer, original)
        if "." in path:  # a method: patch the class attribute
            self._patch(owner, attr, original, wrapper)
            return
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> list[dict]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # Fold threads start with an empty stack; their parent is the span
            # open on the main thread (leave_one_out).
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            fold = parent["fold"] if parent is not None else None
            if self._loo_open and fold is None:
                if layer in _DATASET_FIRST:
                    fold = _censored_sensor(args[0])
                elif layer == "pipeline.closed_loop_predict":
                    fold = int(args[3] if len(args) > 3 else kwargs["target_node"])
            span = {"id": next(self._ids), "name": layer,
                    "parent": parent["id"] if parent is not None else None,
                    "fold": fold, "thread": threading.get_ident()}
            is_loo = layer == "pipeline.leave_one_out"
            if is_loo:
                self._loo_open += 1
            stack.append(span)
            busy0 = time.thread_time()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["busy"] = time.thread_time() - busy0
                stack.pop()
                if is_loo:
                    self._loo_open -= 1
                self.spans.append(span)
            self._count(layer, result)
            return result

        return wrapper

    def _count(self, layer: str, result) -> None:
        if layer == "pipeline.train":
            key, n = "pipeline.train.epochs", len(result.history["train"])
        elif layer == "pipeline.closed_loop_predict":
            key, n = "pipeline.closed_loop_predict.steps", len(result)
        elif layer == "baselines.best_split" and result is not None:
            key, n = "baselines.best_split.found", 1
        else:
            return
        with self._lock:
            self.counters[key] += n

    # -- results -------------------------------------------------------------
    def layer_metrics(self, passes: int, required=()) -> dict[str, float]:
        """Per-pass calls, wall, busy and wait of every layer, plus derived values.

        Raises LayerMissing if a layer in `required` was never called.
        """
        out = {}
        for layer in LAYERS:
            spans = [s for s in self.spans if s["name"] == layer]
            wall = sum(s["end"] - s["start"] for s in spans)
            busy = sum(s["busy"] for s in spans)
            out[f"{layer}.calls"] = len(spans) / passes
            out[f"{layer}.wall_s"] = wall / passes
            out[f"{layer}.busy_s"] = busy / passes
            out[f"{layer}.wait_s"] = (wall - busy) / passes
        never = [layer for layer in required if out[f"{layer}.calls"] == 0]
        if never:
            raise LayerMissing(f"never called in this workload: {', '.join(never)}")

        loo = {s["id"]: s["end"] - s["start"] for s in self.spans if s["name"] == "pipeline.leave_one_out"}
        fold_wall = sum(s["end"] - s["start"] for s in self.spans
                        if s["parent"] in loo and s["fold"] is not None)
        out["pipeline.fold_concurrency"] = fold_wall / sum(loo.values()) if loo else 0.0
        out["pipeline.train.epochs"] = self.counters["pipeline.train.epochs"] / passes
        out["pipeline.closed_loop_predict.steps"] = (
            self.counters["pipeline.closed_loop_predict.steps"] / passes)
        split_calls = out["baselines.best_split.calls"] * passes
        out["baselines.best_split.useful_ratio"] = (
            self.counters["baselines.best_split.found"] / split_calls if split_calls else 0.0)
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")
