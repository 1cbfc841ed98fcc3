"""Per-layer timings of virtualsensor, optionally against another checkout.

    python tools/layerbench.py                       # this tree alone
    python tools/layerbench.py --against ../parent   # this tree against another
    python tools/layerbench.py --count               # call and tape-node counts

Layers, each on fixed seeded inputs:
  sample_batch/8, sample_batch/60   one neighbour sample (sort keys drawn
                                    included) of every node of an 8- and a
                                    60-sensor k-NN graph
  train_step/<aggregator>           one sage training step, timed as `train`
                                    for one epoch over a fixed set of frames,
                                    divided by the frame count
  train_step/mlp, train_step/cnn    one MLP or CNN training step, timed the
                                    same way; only CNN training runs the
                                    convolution's backward
  rollout_step/<kind>               one step of `closed_loop_predict`, divided
                                    the same way
  best_split/root                   the root split scan of the training rows
                                    of the 8-sensor city's first fold (sensor 0
                                    held out), presort included
  gbt_fit/10                        a 10-tree `gbt_fit` on those rows
  gbt_predict/100                   one row through a 100-tree `gbt_predict`
                                    model fitted to those rows

Every layer is reached through names both trees share (`sample_batch`,
`train`, `closed_loop_predict`, `best_split`, `gbt_fit`, `gbt_predict`), so
the script runs across a change of the model-kind hooks or of the trees'
internals. For each layer it prints the median and interquartile range of
the time per step (per call for the sample, split, fit and predict layers),
the number of timed calls, and a sha256 over the `float.hex` of the outputs.

With `--against PATH` the `src/virtualsensor` of PATH is loaded into this
process under a second package name, and so is this tree's, twice. Each block
runs every tree in turn, the order rotating from block to block; a block's
ratio is this tree's median over the other's. The script prints the median
block ratio, the range of the block ratios, in how many blocks this tree was
faster, and the same ratio for this tree against its second copy (A/A), which
shows how far two runs of identical code drift apart.

With `--count` nothing is timed. Each `train_step/*` and `rollout_step/*`
layer of this tree runs once to warm up its first-call caches, then once
under `sys.setprofile`, and the script prints per step the Python-level
calls (`call` events), the C-level calls (`c_call` events) and the tape nodes
(calls of `Var.__init__`, that is `Var` constructions). The counts are
integers of the work done, so two runs print the same numbers on any box.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
AGGREGATORS = ("mean", "max_pool", "mean_pool", "attentional")
KINDS = ("sage", "mlp", "cnn", "gbt")
FLAT_KINDS = ("mlp", "cnn")  # the kinds trained by gradient on a node's own row


def load_tree(root: Path, name: str):
    """The package under `root/src/virtualsensor`, imported as `name`."""
    src = Path(root) / "src" / "virtualsensor"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def digest(arrays) -> str:
    text = ",".join(float(v).hex() for a in arrays for v in np.asarray(a, dtype=float).ravel())
    return hashlib.sha256(text.encode()).hexdigest()


class Tree:
    """One loaded package and the seeded inputs of every layer, built with
    its own functions."""

    def __init__(self, package, hours: int):
        self.vs = package
        self.pipeline = importlib.import_module(package.__name__ + ".pipeline")
        self.sage = importlib.import_module(package.__name__ + ".sage")
        self.baselines = importlib.import_module(package.__name__ + ".baselines")
        self.nncore = importlib.import_module(package.__name__ + ".nncore")
        city = package.generate_city(package.CityConfig(n_sensors=8, n_hours=hours, seed=0))
        self.prepared = package.prepare(city)
        self.g8 = package.build_knn_graph(city.locations, k=3)
        big = package.generate_city(package.CityConfig(n_sensors=60, n_hours=2, seed=0))
        self.g60 = package.build_knn_graph(big.locations, k=3)
        self.steps = hours - 1
        self.trained = {kind: self.pipeline.train(self.prepared, self.g8, self.train_cfg(kind),
                                                  self.model_cfg(kind)) for kind in KINDS}
        # The rows and targets `train` hands a one-pass kind on the first fold.
        fold = package.prepare(self.pipeline.fold_dataset(city, 0))
        rows = fold.present.copy()
        rows[0] = False
        self.fold_x, self.fold_y = np.nan_to_num(fold.features)[rows], fold.targets[rows]

    def train_cfg(self, kind: str):
        return self.pipeline.TrainConfig(epochs=1, val_fraction=0.0, seed=0, model=kind)

    def model_cfg(self, kind: str, aggregator: str = "mean_pool"):
        if kind == "sage":
            return self.vs.SageConfig(aggregator=aggregator)
        if kind == "gbt":
            return self.baselines.GbtConfig(n_trees=10)
        return None

    def layer(self, name: str):
        """(call, steps per call): `call()` runs the layer once and returns
        its output arrays."""
        family, arg = name.split("/")
        if family == "sample_batch":
            g = self.g8 if arg == "8" else self.g60
            nodes, budget, rng = np.arange(g.n_nodes), (3, 5), np.random.default_rng(1)

            def call():
                keys = rng.random((len(nodes), 1 + budget[0], g.neighbors.shape[1]))
                batch = self.sage.sample_batch(g, nodes, budget, keys)
                return [batch.rows, batch.neighbors, batch.mask]
            return call, 1
        if family == "best_split":
            x, y = self.fold_x, self.fold_y
            return (lambda: [self.baselines.best_split(x, y, 1) or ()]), 1
        if family == "gbt_fit":
            cfg = self.baselines.GbtConfig(n_trees=int(arg))

            def call():
                model = self.baselines.gbt_fit(self.fold_x, self.fold_y, cfg)
                return [a for tree in model.trees for a in tree] + [model.train_mse]
            return call, 1
        if family == "gbt_predict":
            model = self.baselines.gbt_fit(self.fold_x, self.fold_y,
                                           self.baselines.GbtConfig(n_trees=int(arg)))
            row = self.fold_x[len(self.fold_x) // 2]
            return (lambda: [self.baselines.gbt_predict(model, row)]), 1
        if family == "train_step":
            kind = arg if arg in FLAT_KINDS else "sage"

            def call():
                trained = self.pipeline.train(self.prepared, self.g8, self.train_cfg(kind),
                                              self.model_cfg(kind, arg))
                return [trained.params[k] for k in sorted(trained.params)]
            return call, self.steps
        trained = self.trained[arg]

        def call():
            return [self.vs.closed_loop_predict(trained, self.g8, self.prepared, 0, 25.0,
                                                np.random.default_rng(1))]
        return call, self.steps


def layer_names():
    return (["sample_batch/8", "sample_batch/60"]
            + [f"train_step/{a}" for a in (*AGGREGATORS, *FLAT_KINDS)]
            + [f"rollout_step/{k}" for k in KINDS]
            + ["best_split/root", "gbt_fit/10", "gbt_predict/100"])


def repeats_for(name: str, repeats: int) -> int:
    """Calls per block: a sample, a root scan or a one-row prediction is
    about 1/100 of an epoch or a rollout."""
    quick = name.split("/")[0] in ("sample_batch", "best_split", "gbt_predict")
    return repeats * 100 if quick else repeats


def measure(trees: dict, names, blocks: int, repeats: int) -> dict:
    """Per layer and tree: every per-step time and the digest of the first
    output. Blocks run the trees in rotating order."""
    order = list(trees)
    results = {}
    for name in names:
        calls = {label: trees[label].layer(name) for label in order}
        out = {label: {"times": [], "blocks": [], "digest": digest(calls[label][0]())}
               for label in order}
        n = repeats_for(name, repeats)
        for block in range(blocks):
            for label in order[block % len(order):] + order[: block % len(order)]:
                call, per = calls[label]
                times = []
                for _ in range(n):
                    started = time.perf_counter()
                    call()
                    times.append((time.perf_counter() - started) / per)
                out[label]["times"] += times
                out[label]["blocks"].append(statistics.median(times))
        results[name] = out
    return results


def count_names():
    return [name for name in layer_names() if name.split("/")[0] in ("train_step", "rollout_step")]


def count(tree: Tree, names) -> dict:
    """Per layer: Python-level calls, C-level calls and tape nodes per step of
    one call made after a warm-up call."""
    var_init, results = tree.nncore.Var.__init__.__code__, {}
    for name in names:
        call, per = tree.layer(name)
        call()
        counts = {"py_calls": 0, "c_calls": 0, "tape_nodes": 0}

        def profile(frame, event, arg):
            if event == "call":
                counts["py_calls"] += 1
                counts["tape_nodes"] += frame.f_code is var_init
            elif event == "c_call":
                counts["c_calls"] += 1

        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
        results[name] = {key: value / per for key, value in counts.items()}
    return results


def count_report(results: dict) -> str:
    return "\n".join(f"{name:24s} py_calls/step {row['py_calls']:10.1f}  "
                     f"c_calls/step {row['c_calls']:10.1f}  "
                     f"tape_nodes/step {row['tape_nodes']:8.1f}"
                     for name, row in results.items())


def quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def ratio_summary(this_blocks, base_blocks) -> dict:
    ratios = [a / b for a, b in zip(this_blocks, base_blocks)]
    return {"median": statistics.median(ratios), "min": min(ratios), "max": max(ratios),
            "faster": sum(r < 1.0 for r in ratios), "blocks": len(ratios)}


def summarize(results: dict) -> dict:
    summary = {}
    for name, out in results.items():
        row = {}
        for label, data in out.items():
            q1, med, q3 = quartiles(data["times"])
            row[label] = {"median_us": med * 1e6, "iqr_us": (q3 - q1) * 1e6,
                          "calls": len(data["times"]), "sha256": data["digest"]}
        if "base" in out:
            row["ratio"] = ratio_summary(out["this"]["blocks"], out["base"]["blocks"])
            row["aa"] = ratio_summary(out["again"]["blocks"], out["this"]["blocks"])
            row["bits_equal"] = out["this"]["digest"] == out["base"]["digest"]
        summary[name] = row
    return summary


def report(summary: dict) -> str:
    lines = []
    for name, row in summary.items():
        this = row["this"]
        line = (f"{name:24s} {this['median_us']:10.1f} us  IQR {this['iqr_us']:8.1f}  "
                f"n={this['calls']:<6d} sha256 {this['sha256'][:12]}")
        if "ratio" in row:
            r, aa = row["ratio"], row["aa"]
            line += (f"  base {row['base']['median_us']:10.1f} us  ratio {r['median']:.3f} "
                     f"[{r['min']:.3f}-{r['max']:.3f}] faster {r['faster']}/{r['blocks']}  "
                     f"A/A {aa['median']:.3f} [{aa['min']:.3f}-{aa['max']:.3f}]  "
                     f"bits {'equal' if row['bits_equal'] else 'DIFFER'}")
        lines.append(line)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="another checkout to compare with")
    parser.add_argument("--blocks", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3, help="epochs or rollouts per block")
    parser.add_argument("--hours", type=int, default=48, help="frames of the timed city")
    parser.add_argument("--count", action="store_true",
                        help="print call and tape-node counts per step instead of timings")
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args(argv)
    if args.blocks < 1 or args.repeats < 1 or args.hours < 3:
        parser.error("--blocks and --repeats must be >= 1 and --hours >= 3")
    if args.count and args.against is not None:
        parser.error("--count runs on this tree alone")

    packages = {"this": load_tree(ROOT, "vs_layerbench_this")}
    if args.against is not None:
        packages["base"] = load_tree(args.against, "vs_layerbench_base")
        packages["again"] = load_tree(ROOT, "vs_layerbench_again")
    trees = {label: Tree(pkg, args.hours) for label, pkg in packages.items()}
    if args.count:
        summary = count(trees["this"], count_names())
        print(count_report(summary))
    else:
        summary = summarize(measure(trees, layer_names(), args.blocks, args.repeats))
        print(report(summary))
    if args.json is not None:
        args.json.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
