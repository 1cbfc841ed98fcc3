"""Command-line front door: synth, train, transfer, eval, predict, plot.

Every command is a pure function of (input files, flags, seed) and writes a
run manifest alongside its outputs; wall-clock timings live only in the
manifest so the numeric outputs stay byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace
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
                    outputs: list, started: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "input_hashes": {str(p): _sha256(p) for p in inputs},
        "output_paths": [str(p) for p in outputs],
        "wall_clock_s": time.monotonic() - started,
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


def _model_config(args, kind: str):
    """The kind's default config, with --aggregator if given; a kind that has
    no aggregator rejects the flag rather than ignore it."""
    cfg = DEFAULT_MODEL_CONFIGS[kind]()
    if args.aggregator is None:
        return cfg
    if not hasattr(cfg, "aggregator"):
        raise VirtualSensorError(f"{kind} has no aggregator; drop --aggregator")
    return replace(cfg, aggregator=AggregatorKind(args.aggregator))


def _require_checkpointable(kind: str) -> None:
    if not DEFAULT_MODEL_CONFIGS[kind].trains_by_gradient:
        raise VirtualSensorError(
            f"{kind} has no parameter checkpoint; run `eval --model {kind}` instead"
        )


def cmd_synth(args) -> int:
    started = time.monotonic()
    cfg = CityConfig(
        n_sensors=args.sensors,
        n_hours=args.hours,
        seed=args.seed,
        base_level=args.base,
        lag1_target=args.rho,
    )
    ds = generate_city(cfg)
    os.makedirs(args.out, exist_ok=True)
    loc_path, read_path = _data_paths(args.out)
    write_locations_csv(ds.locations, loc_path)
    write_readings_csv(ds, read_path)
    _write_manifest(
        os.path.join(args.out, "manifest.json"),
        "synth", asdict(cfg), [args.seed], [], [loc_path, read_path], started,
    )
    return 0


# Flags that set the TrainConfig. eval leaves them unset (None), so that it
# can tell them apart from a checkpoint's config; unset ones take the default.
_TRAIN_CONFIG_FLAGS = ("model", "seed", "epochs", "lr", "patience")


def _train_config(args) -> TrainConfig:
    given = {name: getattr(args, name) for name in _TRAIN_CONFIG_FLAGS}
    return TrainConfig(**{name: value for name, value in given.items() if value is not None})


def cmd_train(args) -> int:
    started = time.monotonic()
    _require_checkpointable(args.model)
    cfg = _train_config(args)
    model_cfg = _model_config(args, args.model)
    raw = _load_raw(args.data)
    prepared = prepare(raw)
    g = build_knn_graph(raw.locations, k=args.k)
    save_checkpoint(args.out, train(prepared, g, cfg, model_cfg))
    loc_path, read_path = _data_paths(args.data)
    _write_manifest(
        str(args.out) + ".manifest.json", "train",
        {"train": asdict(cfg), "k": args.k}, [args.seed],
        [loc_path, read_path], [args.out], started,
    )
    return 0


def cmd_transfer(args) -> int:
    started = time.monotonic()
    _require_checkpointable(args.model)
    model_cfg = _model_config(args, args.model)
    source_raw = _load_raw(args.source)
    target_raw = _load_raw(args.target)
    source_ds = prepare(source_raw)
    target_ds = prepare(target_raw)
    g_src = build_knn_graph(source_raw.locations, k=args.k)
    g_tgt = build_knn_graph(target_raw.locations, k=args.k)
    base_cfg = _train_config(args)
    tcfg = TransferConfig(
        source=base_cfg, finetune_epochs=args.finetune_epochs,
        finetune_lr=args.finetune_lr,
    )
    tuned = transfer(source_ds, target_ds, (g_src, g_tgt), tcfg, model_cfg)
    save_checkpoint(args.out, tuned)
    inputs = [*_data_paths(args.source), *_data_paths(args.target)]
    _write_manifest(
        str(args.out) + ".manifest.json", "transfer",
        {"train": asdict(base_cfg), "finetune_epochs": args.finetune_epochs,
         "finetune_lr": args.finetune_lr, "k": args.k},
        [args.seed], inputs, [args.out], started,
    )
    return 0


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


def cmd_eval(args) -> int:
    started = time.monotonic()
    if args.compare:
        base_path, new_path = args.compare
        base, new = _load_report(base_path), _load_report(new_path)
        table = improvement_table(base, new)
        lines = ["model,rmse,nrmse,grad_rmse"]
        for label, report in (("base", base), ("new", new)):
            avg = report.averages
            lines.append(
                f"{label}:{report.model},{avg['rmse']:.6f},{avg['nrmse']:.6f},{avg['grad_rmse']:.6f}"
            )
        lines.append(
            "improvement_pct,"
            f"{table['rmse']:.3f},{table['nrmse']:.3f},{table['grad_rmse']:.3f}"
        )
        text = "\n".join(lines) + "\n"
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            out_path = os.path.join(args.out, "improvement.csv")
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            _write_manifest(
                os.path.join(args.out, "manifest.json"), "eval-compare", {},
                [], [base_path, new_path], [out_path], started,
            )
        sys.stdout.write(text)
        return 0

    if not args.data or not args.out:
        raise VirtualSensorError("eval needs --data and --out (or --compare)")
    init_params = None
    if args.ckpt:
        # Every fold retrains with the checkpoint's config; --seed may override its seed.
        ignored = [f"--{name}" for name in ("model", "epochs", "lr", "patience", "aggregator")
                   if getattr(args, name) is not None]
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
        cfg = _train_config(args)
        model_cfg = _model_config(args, args.model)
    raw = _load_raw(args.data)
    g = build_knn_graph(raw.locations, k=args.k)
    report = leave_one_out(raw, g, cfg, model_cfg, init_params=init_params)
    os.makedirs(args.out, exist_ok=True)
    json_path = os.path.join(args.out, "report.json")
    csv_path = os.path.join(args.out, "report.csv")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    inputs = list(_data_paths(args.data)) + ([args.ckpt] if args.ckpt else [])
    _write_manifest(
        os.path.join(args.out, "manifest.json"), "eval",
        {"train": asdict(cfg), "k": args.k}, [cfg.seed], inputs,
        [json_path, csv_path], started,
    )
    return 0


def _init_value(text: str, ds, node: int) -> float:
    """The rollout's start value in ug/m3 that --init names: the node's first
    reading (actual), the mean of every reading in `ds` (mean, 0 if there is
    none), or VALUE (fixed:VALUE)."""
    if text == "actual":
        observed = ds.observed[:, node]
        if not observed.any():
            raise SchemaError("--init actual: the location has no readings")
        return float(ds.targets[np.argmax(observed), node])
    if text == "mean":
        readings = ds.targets[ds.observed]
        return float(readings.mean()) if readings.size else 0.0
    if text.startswith("fixed:"):
        try:
            return float(text.split(":", 1)[1])
        except ValueError:
            pass
    raise VirtualSensorError(f"bad --init value {text!r} (actual|mean|fixed:VALUE)")


def cmd_predict(args) -> int:
    started = time.monotonic()
    raw = _load_raw(args.data)
    trained = load_checkpoint(args.ckpt)
    seed = trained.train_cfg.seed
    prepared = prepare(raw, trained.stats)
    g = build_knn_graph(raw.locations, k=args.k)
    node = raw.sensor_index(args.location)
    preds = closed_loop_predict(trained, g, prepared, node, _init_value(args.init, raw, node),
                                rng=np.random.default_rng(seed))
    preds = np.clip(preds, 0.0, None)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("timestamp,predicted_no2_ugm3\n")
        for t in range(1, raw.n_frames):
            ts = raw.timestamp(t).strftime("%Y-%m-%dT%H:00:00Z")
            fh.write(f"{ts},{preds[t - 1]:.6f}\n")
    _write_manifest(
        str(args.out) + ".manifest.json", "predict",
        {"location": args.location, "init": args.init, "k": args.k},
        [seed], [*_data_paths(args.data), args.ckpt], [args.out], started,
    )
    return 0


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


def cmd_plot(args) -> int:
    started = time.monotonic()
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
        ts = raw.timestamp(t).strftime("%Y-%m-%dT%H:00:00Z")
        if ts in pred_by_ts and raw.present[t, node]:
            actual.append(float(raw.targets[t, node]))
            predicted.append(pred_by_ts[ts])
    if not actual:
        raise VirtualSensorError("no overlapping (actual, predicted) hours in window")
    svg = _svg_plot([("actual", actual), ("predicted", predicted)])
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    _write_manifest(
        str(args.out) + ".manifest.json", "plot",
        {"location": args.location, "start": args.start, "hours": args.hours},
        [], [*_data_paths(args.data), args.pred], [args.out], started,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="virtualsensor",
        description="Graph-based virtual air quality sensors for NO2",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic city dataset")
    p.add_argument("--sensors", type=int, default=8)
    p.add_argument("--hours", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base", type=float, default=30.0)
    p.add_argument("--rho", type=float, default=0.9)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    def add_train_flags(p):
        p.add_argument("--model", choices=tuple(DEFAULT_MODEL_CONFIGS),
                       default=TrainConfig.model)
        p.add_argument("--seed", type=int, default=TrainConfig.seed)
        p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
        p.add_argument("--lr", type=float, default=TrainConfig.lr)
        p.add_argument("--patience", type=int, default=TrainConfig.patience)
        p.add_argument("--aggregator", choices=[a.value for a in AggregatorKind])
        p.add_argument("--k", type=int, default=3, help="k-NN graph degree")

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
    p.add_argument("--finetune-epochs", type=int, default=20)
    p.add_argument("--finetune-lr", type=float, default=1e-4)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("eval", help="leave-one-location-out evaluation")
    p.add_argument("--data")
    p.add_argument("--ckpt")
    add_train_flags(p)
    # No defaults: with --ckpt the config comes from the checkpoint (a given
    # --seed overrides its seed, the other flags are rejected); without, unset
    # flags take TrainConfig's defaults.
    p.set_defaults(**dict.fromkeys(_TRAIN_CONFIG_FLAGS))
    p.add_argument("--finetune-from-ckpt", action="store_true",
                   help="seed each fold's training from the checkpoint parameters")
    p.add_argument("--compare", nargs=2, metavar=("BASE.json", "NEW.json"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="closed-loop prediction for one location")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--location", required=True)
    p.add_argument("--init", default="actual")
    p.add_argument("--k", type=int, default=3)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VirtualSensorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
