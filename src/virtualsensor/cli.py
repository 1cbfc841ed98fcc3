"""Command-line front door: synth, train, transfer, eval, compare, predict, plot.

Every command is a pure function of (input files, flags, seed) that writes
its outputs and returns its run record: (config, seeds, inputs, outputs).
`main` runs it, times it and writes the record as its manifest: inside --out
when that is a directory, else beside it as <out>.manifest.json.
Wall-clock timings live only in the manifest, so the numeric outputs stay
byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone

import numpy as np

from .dataset import load_dataset, prepare, write_locations_csv, write_readings_csv
from .errors import ParseError, SchemaError, VirtualSensorError
from .geograph import build_knn_graph
from .pipeline import (
    DEFAULT_MODEL_CONFIGS,
    EvalReport,
    TrainConfig,
    TransferConfig,
    _averages_csv,
    closed_loop_predict,
    improvement_table,
    leave_one_out,
    load_checkpoint,
    save_checkpoint,
    train,
    transfer,
)
from .sage import AggregatorKind
from .synthgen import CityConfig, generate_city


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path, command: str, config: dict, seeds: list, inputs: list,
                    outputs: list, wall_clock_s: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "input_hashes": {str(p): _sha256(p) for p in inputs},
        "output_paths": [str(p) for p in outputs],
        "wall_clock_s": wall_clock_s,
    }
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def _data_paths(data_dir):
    return os.path.join(data_dir, "locations.csv"), os.path.join(data_dir, "readings.csv")


def _load_raw(data_dir):
    loc_path, read_path = _data_paths(data_dir)
    return load_dataset(loc_path, read_path)


def _from_flags(cls, args, **given):
    """`cls` built from `given`, and from each set flag whose dest names
    another of its fields. Flags default to None, so every other field keeps
    the dataclass's default: no flag holds a copy of one."""
    for f in fields(cls):
        value = getattr(args, f.name, None)
        if value is not None and f.name not in given:
            given[f.name] = value
    return cls(**given)


def _configs(args):
    """The TrainConfig and model config that the training flags set. A kind
    that has no aggregator rejects --aggregator rather than ignore it."""
    cfg = _from_flags(TrainConfig, args)
    model_cfg = DEFAULT_MODEL_CONFIGS[cfg.model]()
    if args.aggregator is None:
        return cfg, model_cfg
    if not hasattr(model_cfg, "aggregator"):
        raise VirtualSensorError(f"{cfg.model} has no aggregator; drop --aggregator")
    return cfg, replace(model_cfg, aggregator=args.aggregator)


def _require_checkpointable(kind: str) -> None:
    if not DEFAULT_MODEL_CONFIGS[kind].trains_by_gradient:
        raise VirtualSensorError(
            f"{kind} has no parameter checkpoint; run `eval --model {kind}` instead"
        )


def cmd_synth(args) -> tuple:
    cfg = _from_flags(CityConfig, args)
    ds = generate_city(cfg)
    os.makedirs(args.out, exist_ok=True)
    loc_path, read_path = _data_paths(args.out)
    write_locations_csv(ds.locations, loc_path)
    write_readings_csv(ds, read_path)
    return asdict(cfg), [cfg.seed], [], [loc_path, read_path]


def cmd_train(args) -> tuple:
    cfg, model_cfg = _configs(args)
    _require_checkpointable(cfg.model)
    raw = _load_raw(args.data)
    prepared = prepare(raw)
    g = build_knn_graph(raw.locations, k=cfg.k)
    save_checkpoint(args.out, train(prepared, g, cfg, model_cfg))
    return ({"train": asdict(cfg), "model_config": model_cfg.to_dict()}, [cfg.seed],
            [*_data_paths(args.data)], [args.out])


def cmd_transfer(args) -> tuple:
    base_cfg, model_cfg = _configs(args)
    _require_checkpointable(base_cfg.model)
    tcfg = _from_flags(TransferConfig, args, source=base_cfg)
    source_raw = _load_raw(args.source)
    target_raw = _load_raw(args.target)
    source_ds = prepare(source_raw)
    target_ds = prepare(target_raw)
    g_src = build_knn_graph(source_raw.locations, k=base_cfg.k)
    g_tgt = build_knn_graph(target_raw.locations, k=base_cfg.k)
    tuned = transfer(source_ds, target_ds, (g_src, g_tgt), tcfg, model_cfg)
    save_checkpoint(args.out, tuned)
    config = {"train": asdict(base_cfg), "model_config": model_cfg.to_dict(),
              "finetune_epochs": tcfg.finetune_epochs, "finetune_lr": tcfg.finetune_lr}
    inputs = [*_data_paths(args.source), *_data_paths(args.target)]
    return config, [base_cfg.seed], inputs, [args.out]


def _load_report(path) -> EvalReport:
    """An `eval` report.json; a file that is not one raises an error naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # undecodable UTF-8 or JSON
        raise ParseError(f"{path}: not a JSON report ({exc})") from exc
    try:
        return EvalReport.from_dict(data)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def cmd_compare(args) -> tuple | None:
    base, new = _load_report(args.base), _load_report(args.new)
    table = improvement_table(base, new)
    text = (_averages_csv([(f"base:{base.model}", base.averages),
                           (f"new:{new.model}", new.averages)])
            + "improvement_pct" + "".join(f",{v:.3f}" for v in table.values()) + "\n")
    record = None  # without --out compare only prints, and writes no manifest
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        out_path = os.path.join(args.out, "improvement.csv")
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        record = {}, [], [args.base, args.new], [out_path]
    sys.stdout.write(text)
    return record


def cmd_eval(args) -> tuple:
    init_params = None
    if args.ckpt:
        # Every fold retrains with the checkpoint's config; --seed may override its seed.
        flags = [f.name for f in fields(TrainConfig) if f.name != "seed"] + ["aggregator"]
        ignored = [f"--{name}" for name in flags if getattr(args, name, None) is not None]
        if ignored:
            raise VirtualSensorError(
                f"eval --ckpt trains with the checkpoint's config; drop {', '.join(ignored)}")
        trained = load_checkpoint(args.ckpt)
        cfg, model_cfg = trained.train_cfg, trained.model_config
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.finetune_from_ckpt:
            init_params = trained.params
    else:
        if not args.model:
            raise VirtualSensorError("eval needs --ckpt or --model")
        if args.finetune_from_ckpt:
            raise VirtualSensorError("eval --finetune-from-ckpt needs --ckpt")
        cfg, model_cfg = _configs(args)
    raw = _load_raw(args.data)
    g = build_knn_graph(raw.locations, k=cfg.k)
    report = leave_one_out(raw, g, cfg, model_cfg, init_params=init_params)
    os.makedirs(args.out, exist_ok=True)
    json_path = os.path.join(args.out, "report.json")
    csv_path = os.path.join(args.out, "report.csv")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    inputs = list(_data_paths(args.data)) + ([args.ckpt] if args.ckpt else [])
    return ({"train": asdict(cfg), "model_config": model_cfg.to_dict()}, [cfg.seed], inputs,
            [json_path, csv_path])


def _init_value(text: str, ds, node: int) -> float:
    """The rollout's start value in ug/m3 that --init names: the node's first
    reading (actual), the mean of every reading in `ds` (mean, 0 if there is
    none), or VALUE (fixed:VALUE)."""
    if text == "actual":
        present = ds.present[:, node]
        if not present.any():
            raise SchemaError("--init actual: the location has no readings")
        return float(ds.targets[np.argmax(present), node])
    if text == "mean":
        readings = ds.targets[ds.present]
        return float(readings.mean()) if readings.size else 0.0
    if text.startswith("fixed:"):
        try:
            return float(text.split(":", 1)[1])
        except ValueError:
            pass
    raise VirtualSensorError(f"bad --init value {text!r} (actual|mean|fixed:VALUE)")


def cmd_predict(args) -> tuple:
    raw = _load_raw(args.data)
    trained = load_checkpoint(args.ckpt)
    seed = trained.train_cfg.seed
    prepared = prepare(raw, trained.stats)
    g = build_knn_graph(raw.locations, k=trained.train_cfg.k)
    node = raw.sensor_index(args.location)
    preds = closed_loop_predict(trained, g, prepared, node, _init_value(args.init, raw, node),
                                rng=np.random.default_rng(seed))
    preds = np.clip(preds, 0.0, None)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("timestamp,predicted_no2_ugm3\n")
        for t in range(1, raw.n_frames):
            fh.write(f"{raw.hour_stamp(t)},{preds[t - 1]:.6f}\n")
    return ({"location": args.location, "init": args.init}, [seed],
            [*_data_paths(args.data), args.ckpt], [args.out])


def _svg_plot(series: list[tuple[str, list[float]]], width=800, height=300) -> str:
    """Standalone SVG overlaying the given series as exactly one path each."""
    margin = 40
    all_vals = [v for _, vals in series for v in vals]
    lo, hi = min(all_vals), max(all_vals)
    if hi - lo < 1e-9:
        hi = lo + 1.0
    n = max(len(vals) for _, vals in series)
    colors = ("#1f77b4", "#d62728", "#2ca02c")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{margin}" y="{margin - 10}" font-size="12">NO2 ug/m3 '
        f'({lo:.1f}..{hi:.1f})</text>',
    ]
    for (label, vals), color in zip(series, colors):
        points = []
        for i, v in enumerate(vals):
            x = margin + (width - 2 * margin) * (i / max(n - 1, 1))
            y = height - margin - (height - 2 * margin) * ((v - lo) / (hi - lo))
            points.append(f"{'M' if i == 0 else 'L'}{x:.2f},{y:.2f}")
        parts.append(
            f'<path d="{" ".join(points)}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"><title>{label}</title></path>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args) -> tuple:
    raw = _load_raw(args.data)
    node = raw.sensor_index(args.location)
    try:
        with open(args.pred, encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()[1:]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.pred}: not UTF-8 text ({exc.reason})") from exc
    pred_by_ts = {}
    for line_no, line in enumerate(lines, start=2):
        fields = line.split(",")
        try:
            value = float(fields[1]) if len(fields) == 2 else math.nan
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ParseError(f"{args.pred} line {line_no}: expected 'timestamp,finite value'")
        pred_by_ts[fields[0]] = value

    start_t = 1
    if args.start:
        try:
            start_dt = datetime.fromisoformat(args.start.replace("Z", "+00:00"))
        except ValueError as exc:
            raise VirtualSensorError(f"bad --start value {args.start!r} (ISO-8601 time)") from exc
        if start_dt.tzinfo is None:
            start_dt = start_dt.replace(tzinfo=timezone.utc)
        start_t = max(1, int((start_dt - raw.start).total_seconds() // 3600))
    end_t = min(raw.n_frames, start_t + args.hours)

    actual, predicted = [], []
    for t in range(start_t, end_t):
        ts = raw.hour_stamp(t)
        if ts in pred_by_ts and raw.present[t, node]:
            actual.append(float(raw.targets[t, node]))
            predicted.append(pred_by_ts[ts])
    if not actual:
        raise VirtualSensorError("no overlapping (actual, predicted) hours in window")
    svg = _svg_plot([("actual", actual), ("predicted", predicted)])
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return ({"location": args.location, "start": args.start, "hours": args.hours}, [],
            [*_data_paths(args.data), args.pred], [args.out])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="virtualsensor",
        description="Graph-based virtual air quality sensors for NO2",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic city dataset")
    # Every dest is a CityConfig field; an unset flag keeps the field's default.
    p.add_argument("--sensors", type=int, dest="n_sensors")
    p.add_argument("--hours", type=int, dest="n_hours")
    p.add_argument("--seed", type=int)
    p.add_argument("--base", type=float, dest="base_level")
    p.add_argument("--rho", type=float, dest="lag1_target")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    def add_train_flags(p):
        # TrainConfig fields but --aggregator, a SageConfig one; see _configs.
        p.add_argument("--model", choices=tuple(DEFAULT_MODEL_CONFIGS))
        p.add_argument("--seed", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--patience", type=int)
        p.add_argument("--aggregator", choices=[a.value for a in AggregatorKind])
        p.add_argument("--k", type=int, help="k-NN graph degree")

    p = sub.add_parser("train", help="train a model on all sensors")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("transfer", help="pretrain on a source city, fine-tune on a target")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)
    add_train_flags(p)
    p.add_argument("--finetune-epochs", type=int)
    p.add_argument("--finetune-lr", type=float)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("eval", help="leave-one-location-out evaluation")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt")
    add_train_flags(p)
    p.add_argument("--finetune-from-ckpt", action="store_true",
                   help="seed each fold's training from the checkpoint parameters")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="percentage improvement of one eval report over another")
    p.add_argument("base", metavar="BASE.json")
    p.add_argument("new", metavar="NEW.json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("predict", help="closed-loop prediction for one location")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--location", required=True)
    p.add_argument("--init", default="actual")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("plot", help="SVG overlay of actual vs predicted NO2")
    p.add_argument("--data", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--location", required=True)
    p.add_argument("--start")
    p.add_argument("--hours", type=int, default=10**9)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one `warning:` line, without its source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # argparse leaves the parser in reference cycles (a formatter per
    # argument). Collect them while they are young: left to a full
    # collection they pile up across the commands of one process, which
    # raised the peak RSS of a train-then-predict loop by about 1 MB.
    gc.collect(1)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        started = time.monotonic()
        try:
            record = args.func(args)
            if record is not None:
                manifest = (os.path.join(args.out, "manifest.json") if os.path.isdir(args.out)
                            else f"{args.out}.manifest.json")
                _write_manifest(manifest, args.command, *record, time.monotonic() - started)
        except (VirtualSensorError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
