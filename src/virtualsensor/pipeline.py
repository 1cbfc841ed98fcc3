"""The model-kind table, the finite model inputs and training rows every kind
reads, training, the closed-loop rollout loop, transfer learning,
leave-one-location-out evaluation, error metrics, improvement tables, and
checkpoint persistence."""

from __future__ import annotations

import hashlib
import json
import math
import struct
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .baselines import CnnConfig, GbtConfig, GbtModel, MlpConfig
from .dataset import (
    FEATURE_COLUMNS,
    N_FEATURES,
    PREV_NO2,
    Dataset,
    StandardizationStats,
    prepare,
    replacing,
)
from .errors import CheckpointError, FlatConfig, SchemaError, check_keys, check_types
from .geograph import SpatialGraph
from .nncore import AdamState, adam_step, collect_grads, initialize, mse_loss, wrap_params
from .sage import SageConfig

CHECKPOINT_MAGIC = b"VSCK"
CHECKPOINT_VERSION = 2
METRICS = ("rmse", "nrmse", "grad_rmse")  # every report's per-location metrics


# ---------------------------------------------------------------------------
# Metrics


def rmse(pred, actual) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if pred.shape != actual.shape:
        raise SchemaError("rmse: series lengths differ")
    if pred.size == 0:
        raise SchemaError("rmse: empty series")
    return float(np.sqrt(np.mean((pred - actual) ** 2)))


def nrmse(pred, actual) -> float:
    """RMSE normalized by the mean of the actual series (per location)."""
    actual = np.asarray(actual, dtype=np.float64)
    m = float(actual.mean()) if actual.size else 0.0
    if m <= 0:
        raise SchemaError("nrmse: non-positive mean of actual series")
    return rmse(pred, actual) / m


def grad_rmse(pred, actual) -> float:
    """RMSE between first differences of the two series; offset-blind."""
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if len(pred) < 2 or len(actual) < 2:
        raise SchemaError("grad_rmse: need at least 2 points")
    return rmse(np.diff(pred), np.diff(actual))


def improvement(base: float, new: float) -> float:
    """Percentage improvement of `new` over `base`: (base - new) / base * 100."""
    if base <= 0:
        raise SchemaError("improvement: base metric must be positive")
    return (base - new) / base * 100.0


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class TrainConfig(FlatConfig):
    """How a model is trained, and on which graph: the CLI builds every
    k-nearest-neighbour graph from `k`, so a checkpoint's `predict` rolls out
    on the graph it was trained on. Library callers pass their own graph to
    `train` and `leave_one_out`, which do not read `k`."""

    epochs: int = 50
    lr: float = 1e-3
    patience: int = 10  # early stop on validation MSE
    val_fraction: float = 0.1  # chronological tail of training frames
    seed: int = 0
    model: str = "sage"  # a key of DEFAULT_MODEL_CONFIGS
    k: int = 3  # k-NN graph degree

    def __post_init__(self):
        check_types(self, ints=("epochs", "patience", "seed", "k"), numbers=("lr", "val_fraction"))
        if self.epochs < 1 or self.patience < 1:
            raise SchemaError("epochs and patience must be >= 1")
        if self.k < 1:
            raise SchemaError(f"k must be >= 1, got {self.k}")
        if self.seed < 0:
            raise SchemaError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.lr < math.inf:
            raise SchemaError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise SchemaError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")
        if not isinstance(self.model, str) or self.model not in DEFAULT_MODEL_CONFIGS:
            raise SchemaError(f"unknown model kind {self.model!r}")


@dataclass(frozen=True)
class TransferConfig:
    source: TrainConfig = field(default_factory=TrainConfig)
    finetune_epochs: int = 20
    finetune_lr: float = 1e-4
    freeze: tuple[str, ...] = ()  # parameter-name prefixes left untouched

    def __post_init__(self):
        check_types(self, ints=("finetune_epochs",), numbers=("finetune_lr",))
        if self.finetune_epochs < 0:
            raise SchemaError(f"finetune_epochs must be >= 0, got {self.finetune_epochs}")
        if not 0.0 <= self.finetune_lr < math.inf:
            raise SchemaError(f"finetune_lr must be finite and >= 0, got {self.finetune_lr}")
        if self.finetune_lr > self.source.lr:
            raise SchemaError("fine-tune lr must not exceed pretrain lr")


# The one place that knows the model kinds: kind -> config class. Each class
# carries its kind's hooks: `draws(g, steps, mode, rng)` and
# `forward(params, feats, nodes, drawn)`, `to_dict` / `from_dict`, and
# `trains_by_gradient`; gradient kinds add `param_shapes(in_dim)`, whose
# shapes `train` draws with `initialize`, the others `fit(x, y)`. A training
# epoch ("train" mode), a validation pass and a rollout ("eval") list their
# steps' target nodes; `draws` yields one item per step, its random inputs,
# from one `nncore.draw_blocks` call, which draws a bounded block of steps
# per `rng.random` call and gives masks only to a train step that drops out.
# `forward` runs a step on its frame and draws. On the stored parameters it
# returns the [len(nodes)] prediction array and builds no tape, which is how
# validation and the rollout call it; training passes `wrap_params` leaves
# and gets a tape node.
DEFAULT_MODEL_CONFIGS = {
    "sage": SageConfig,
    "mlp": MlpConfig,
    "cnn": CnnConfig,
    "gbt": GbtConfig,
}


@dataclass
class TrainedModel:
    """The one record of a trained model, as `train` returns it and a
    checkpoint stores it: the TrainConfig it was trained with (its `model` is
    the kind), the model config, the parameters (a GbtModel for gbt), the
    standardization stats of the data it was fitted to, and the per-epoch
    loss history (empty once loaded from a checkpoint)."""

    train_cfg: TrainConfig
    model_config: object
    params: dict | GbtModel
    stats: StandardizationStats
    history: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Training


def _model_inputs(ds: Dataset, g: SpatialGraph) -> np.ndarray:
    """The finite [T, n, d] feature array every model reads.

    Each non-finite entry becomes 0.0, the standardized column mean; the
    loaders reject non-finite readings, so these are the NaNs of absent
    rows. `ds` must be standardized and `g` must have one node per sensor.
    """
    if ds.stats is None:
        raise SchemaError("models expect a standardized dataset")
    if g.n_nodes != ds.n_sensors:
        raise SchemaError(f"graph has {g.n_nodes} nodes for {ds.n_sensors} sensors")
    return np.nan_to_num(ds.features, nan=0.0, posinf=0.0, neginf=0.0)


def _training_rows(ds: Dataset) -> np.ndarray:
    """[T, n] mask of the teacher-forced training rows: the readings
    (`Dataset.present`) at frames t >= 1 (frame 0 has no previous hour)."""
    ok = ds.present.copy()
    ok[0] = False
    return ok


def train(ds: Dataset, g: SpatialGraph, cfg: TrainConfig, model_cfg=None,
          init_params: dict | None = None, freeze: tuple[str, ...] = ()) -> TrainedModel:
    """Teacher-forced training on a dataset made by `prepare`.

    Rows are grouped by frame (all present nodes of a frame form one batch);
    frames are shuffled per epoch. Validation uses the chronological last
    `val_fraction` of frames; early stopping restores the best parameters.
    Parameters whose names start with a `freeze` prefix keep their initial
    values.
    """
    feats = _model_inputs(ds, g)
    if model_cfg is None:
        model_cfg = DEFAULT_MODEL_CONFIGS[cfg.model]()
    elif not isinstance(model_cfg, DEFAULT_MODEL_CONFIGS[cfg.model]):
        raise SchemaError(f"{type(model_cfg).__name__} is not a {cfg.model!r} model config")
    rows = _training_rows(ds)

    if not model_cfg.trains_by_gradient:
        if init_params is not None or freeze:
            raise SchemaError(f"{cfg.model} is fitted in one pass: no init_params or freeze")
        if not rows.any():
            raise SchemaError("no training rows")
        model = model_cfg.fit(feats[rows], ds.targets[rows])
        return TrainedModel(cfg, model_cfg, model, ds.stats, {"train": model.train_mse})

    rng = np.random.default_rng(cfg.seed)
    params = (
        {k: v.copy() for k, v in init_params.items()}
        if init_params is not None
        else initialize(model_cfg.param_shapes(N_FEATURES), rng)
    )
    adam = AdamState(lr=cfg.lr)

    groups = {t: np.flatnonzero(rows[t]) for t in range(ds.n_frames) if rows[t].any()}
    frames = sorted(groups)
    if not frames:
        raise SchemaError("no training frames")
    n_val = int(len(frames) * cfg.val_fraction)
    train_frames = frames[: len(frames) - n_val] if n_val else frames
    val_frames = frames[len(frames) - n_val :] if n_val else []
    targets = ds.targets

    def evaluate(frame_list) -> float:
        total, count = 0.0, 0
        steps = [groups[t] for t in frame_list]
        for t, nodes, drawn in zip(frame_list, steps, model_cfg.draws(g, steps, "eval", rng)):
            out = model_cfg.forward(params, feats[t], nodes, drawn)
            total += float(np.sum((out - targets[t, nodes]) ** 2))
            count += nodes.size
        return total / max(count, 1)

    history = {"train": [], "val": []}
    best_val = np.inf
    # Without validation frames the final parameters are the result.
    best_params = {k: v.copy() for k, v in params.items()} if val_frames else params
    bad_epochs = 0

    for _epoch in range(cfg.epochs):
        order = rng.permutation(train_frames)
        steps = [groups[t] for t in order]
        total, count = 0.0, 0
        for t, nodes, drawn in zip(order, steps, model_cfg.draws(g, steps, "train", rng)):
            pvars = wrap_params(params)
            pred = model_cfg.forward(pvars, feats[t], nodes, drawn)
            loss = mse_loss(pred, targets[t, nodes])
            if not np.isfinite(loss.value):
                raise SchemaError(f"non-finite training loss at frame {t}")
            loss.backward()
            grads = collect_grads(pvars)
            adam_step(params, {k: v for k, v in grads.items() if not k.startswith(freeze)}, adam)
            total += float(loss.value) * nodes.size
            count += nodes.size
        history["train"].append(total / max(count, 1))

        if val_frames:
            val = evaluate(val_frames)
            history["val"].append(val)
            if val < best_val - 1e-12:
                best_val = val
                best_params = {k: v.copy() for k, v in params.items()}
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= cfg.patience:
                    break

    return TrainedModel(cfg, model_cfg, best_params, ds.stats, history)


def transfer(source_ds: Dataset, target_ds: Dataset, graphs: tuple[SpatialGraph, SpatialGraph],
             tcfg: TransferConfig, model_cfg=None) -> TrainedModel:
    """Pretrain on the source city, then fine-tune every layer that no
    `tcfg.freeze` prefix names on the target, at the (lower) fine-tune
    learning rate with a fresh optimizer. With no fine-tune epochs the
    pretrained model, source config and source stats included, is returned."""
    g_src, g_tgt = graphs
    pretrained = train(source_ds, g_src, tcfg.source, model_cfg)
    if tcfg.finetune_epochs == 0:
        return pretrained
    ft_cfg = replace(
        tcfg.source, epochs=tcfg.finetune_epochs, lr=tcfg.finetune_lr
    )
    return train(target_ds, g_tgt, ft_cfg, pretrained.model_config,
                 init_params=pretrained.params, freeze=tcfg.freeze)


# ---------------------------------------------------------------------------
# Closed-loop prediction: the one rollout loop, for every model kind


def closed_loop_predict(trained: TrainedModel, g: SpatialGraph, ds: Dataset,
                        target_node: int, init_value: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Autoregressive rollout for one node, frames t = 1..T-1, in ug/m3.

    The target's autoregressive slot holds `init_value` (ug/m3, finite) at
    t=1 and the model's own previous prediction afterwards; monitored
    neighbors keep their actual readings. A prediction that is not finite
    raises SchemaError naming the location and the hour.
    """
    if not 0 <= target_node < ds.n_sensors:
        raise SchemaError(f"unknown node index {target_node}")
    prev = float(init_value)
    if not math.isfinite(prev):
        raise SchemaError(f"rollout init value {prev} is not finite")
    feats_all = _model_inputs(ds, g)
    model_cfg = trained.model_config
    nodes = np.array([target_node])
    preds = np.empty(ds.n_frames - 1)
    steps = [nodes] * len(preds)
    for t, drawn in zip(range(1, ds.n_frames), model_cfg.draws(g, steps, "eval", rng)):
        feats = feats_all[t].copy()
        feats[target_node, PREV_NO2] = ds.stats.transform_column(PREV_NO2, prev)
        out = model_cfg.forward(trained.params, feats, nodes, drawn)
        prev = preds[t - 1] = float(out[0])
        if not math.isfinite(prev):
            raise SchemaError(f"rollout at {ds.locations[target_node].id} diverged: "
                              f"prediction {prev} at {ds.hour_stamp(t)}")
    return preds


# ---------------------------------------------------------------------------
# Leave-one-location-out evaluation


@dataclass
class EvalReport:
    model: str
    per_location: dict[str, dict[str, float]]  # sensor id -> metric -> value
    averages: dict[str, float]
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        return averages_csv([(self.model, self.averages)])

    @classmethod
    def from_dict(cls, data) -> "EvalReport":
        """Inverse of `to_dict`; a missing or wrongly typed field raises SchemaError."""
        if not isinstance(data, dict):
            raise SchemaError("report is not a JSON object")
        per_location, averages = data.get("per_location"), data.get("averages")
        metadata = data.get("metadata", {})
        if not isinstance(data.get("model"), str):
            raise SchemaError("report 'model' must be a string")
        if not (isinstance(per_location, dict)
                and all(isinstance(v, dict) for v in per_location.values())):
            raise SchemaError("report 'per_location' must map locations to metric objects")
        if not (isinstance(averages, dict)
                and all(type(averages.get(m)) in (int, float)  # a bool is no number here
                        and math.isfinite(averages[m]) for m in METRICS)):
            raise SchemaError(f"report 'averages' must hold a finite number for each of {METRICS}")
        if not isinstance(metadata, dict):
            raise SchemaError("report 'metadata' must be an object")
        return cls(
            model=data["model"],
            per_location={k: dict(v) for k, v in per_location.items()},
            averages=dict(averages),
            metadata=dict(metadata),
        )


def averages_csv(rows) -> str:
    """A header, then one `label,rmse,nrmse,grad_rmse` line for each
    `(label, averages)` row."""
    lines = ["model," + ",".join(METRICS)]
    lines += [label + "".join(f",{avg[m]:.6f}" for m in METRICS) for label, avg in rows]
    return "\n".join(lines) + "\n"


def fold_dataset(ds: Dataset, holdout: int) -> Dataset:
    """Censor one sensor: its targets become NaN, so it is never `present`;
    features are kept."""
    targets = ds.targets.copy()
    targets[:, holdout] = np.nan
    return replace(ds, targets=targets)


def _run_fold(ds_raw: Dataset, g: SpatialGraph, cfg: TrainConfig, model_cfg,
              init_params, holdout: int):
    """Train with the held-out sensor censored, then roll out on it.

    Returns (predictions over eval frames, actuals) or None when the sensor
    has fewer than two readings after the first hour, as Grad-RMSE needs two.
    The held-out sensor's actual values are touched exactly once, for the
    rollout init.
    """
    present = ds_raw.present[:, holdout]
    eval_frames = np.flatnonzero(present)
    eval_frames = eval_frames[eval_frames >= 1]
    if eval_frames.size < 2:
        count = "one reading" if eval_frames.size else "no reading"
        warnings.warn(f"holdout sensor {ds_raw.locations[holdout].id} has {count} after "
                      "the first hour; skipped")
        return None
    init_value = float(ds_raw.targets[np.argmax(present), holdout])

    prepared = prepare(fold_dataset(ds_raw, holdout))
    trained = train(prepared, g, cfg, model_cfg, init_params=init_params)
    preds = closed_loop_predict(trained, g, prepared, holdout, init_value,
                                rng=np.random.default_rng(cfg.seed + 1000 + holdout))
    pred_series = np.clip(preds[eval_frames - 1], 0.0, None)
    actual = ds_raw.targets[eval_frames, holdout]
    return pred_series, actual


def leave_one_out(ds_raw: Dataset, g: SpatialGraph, cfg: TrainConfig,
                  model_cfg=None, init_params: dict | None = None) -> EvalReport:
    """Train on all sensors but one, roll out on the excluded one, repeat.

    `ds_raw` must be unstandardized; each fold computes its own stats with
    the held-out sensor's targets censored. Folds run one after another in
    sensor order; the report lists locations in ascending sensor-id order.
    """
    if ds_raw.stats is not None:
        raise SchemaError("leave_one_out expects an unstandardized dataset")
    if ds_raw.n_sensors < 2:
        raise SchemaError("leave_one_out needs at least 2 locations")
    if model_cfg is None:
        model_cfg = DEFAULT_MODEL_CONFIGS[cfg.model]()

    per_location, skipped = {}, []
    for holdout in range(ds_raw.n_sensors):
        result = _run_fold(ds_raw, g, cfg, model_cfg, init_params, holdout)
        if result is None:
            skipped.append(ds_raw.locations[holdout].id)
            continue
        pred, actual = result
        location = ds_raw.locations[holdout].id
        try:
            per_location[location] = {
                "rmse": rmse(pred, actual),
                "nrmse": nrmse(pred, actual),
                "grad_rmse": grad_rmse(pred, actual),
            }
        except SchemaError as exc:
            raise SchemaError(f"location {location}: {exc}") from None
    if not per_location:
        raise SchemaError("no location produced evaluable predictions; skipped "
                          + ", ".join(skipped))

    ordered = dict(sorted(per_location.items()))
    averages = {
        metric: float(np.mean([entry[metric] for entry in ordered.values()]))
        for metric in METRICS
    }
    metadata = {
        "model": cfg.model,
        "seed": cfg.seed,
        "config_hash": config_hash(cfg, model_cfg),
        "n_locations": len(ordered),
        "transfer": init_params is not None,
    }
    return EvalReport(cfg.model, ordered, averages, metadata)


def improvement_table(base: EvalReport, new: EvalReport) -> dict[str, float]:
    return {
        metric: improvement(base.averages[metric], new.averages[metric])
        for metric in METRICS
    }


# ---------------------------------------------------------------------------
# Config (de)serialization and checkpoints


def config_record(cfg: TrainConfig, model_cfg) -> dict:
    """A run's configs, as checkpoints, `config_hash` and manifests record them."""
    return {"train": cfg.to_dict(), "model_config": model_cfg.to_dict()}


def _config_json(cfg: TrainConfig, model_cfg) -> bytes:
    """The canonical JSON config a checkpoint stores and `config_hash` hashes."""
    return json.dumps(config_record(cfg, model_cfg), sort_keys=True).encode()


def config_hash(cfg: TrainConfig, model_cfg) -> str:
    return hashlib.sha256(_config_json(cfg, model_cfg)).hexdigest()[:16]


# Written into every checkpoint; a checkpoint of another feature layout fails to load.
SCHEMA_HASH = struct.unpack(
    "<Q", hashlib.sha256("|".join(",".join(c) for c in FEATURE_COLUMNS).encode()).digest()[:8]
)[0]


def save_checkpoint(path, trained: TrainedModel) -> None:
    """Write `trained` as a binary checkpoint: magic, version, schema hash,
    canonical-JSON config, then named little-endian float64 blocks (the
    parameters and the stats). Only gradient-trained kinds have one."""
    train_cfg, model_cfg = trained.train_cfg, trained.model_config
    if not model_cfg.trains_by_gradient:
        raise CheckpointError(f"model kind {train_cfg.model!r} has no parameter checkpoint")
    blocks = dict(trained.params)
    blocks["stats.mean"] = trained.stats.mean.reshape(1, -1)
    blocks["stats.std"] = trained.stats.std.reshape(1, -1)
    for name, arr in blocks.items():
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"refusing to save non-finite parameter {name!r}")
    config_bytes = _config_json(train_cfg, model_cfg)
    with replacing(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", SCHEMA_HASH))
        fh.write(struct.pack("<I", len(config_bytes)))
        fh.write(config_bytes)
        fh.write(struct.pack("<I", len(blocks)))
        for name in sorted(blocks):
            arr = np.ascontiguousarray(np.atleast_2d(blocks[name]), dtype="<f8")
            raw = name.encode()
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> TrainedModel:
    """The TrainedModel `save_checkpoint` wrote, with an empty history.

    Anything `save_checkpoint` would not have written raises
    CheckpointError: another version or schema hash, short or trailing
    bytes, an undecodable config, non-finite values, or blocks whose names
    and shapes differ from the config's parameters plus the stats.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("bad checkpoint magic")
    try:
        version, stored_hash, config_len = struct.unpack_from("<HQI", data, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        if stored_hash != SCHEMA_HASH:
            raise CheckpointError("checkpoint schema hash does not match")
        pos = 18 + config_len
        config = json.loads(data[18:pos].decode())
        (n_blocks,) = struct.unpack_from("<I", data, pos)
        pos += 4
        blocks = {}
        for _ in range(n_blocks):
            (name_len,) = struct.unpack_from("<H", data, pos)
            name = data[pos + 2 : pos + 2 + name_len].decode()
            rows, cols = struct.unpack_from("<II", data, pos + 2 + name_len)
            pos += 10 + name_len
            if rows * cols * 8 > len(data) - pos:
                raise CheckpointError("checkpoint is truncated")
            arr = np.frombuffer(data, "<f8", rows * cols, pos).reshape(rows, cols)
            blocks[name] = arr.copy()
            pos += arr.nbytes
    except (struct.error, ValueError) as exc:  # short read, bad UTF-8 or JSON
        raise CheckpointError(f"checkpoint is truncated or corrupt: {exc}") from exc
    if pos != len(data):
        raise CheckpointError(f"{len(data) - pos} trailing bytes after the checkpoint")
    if not all(np.all(np.isfinite(arr)) for arr in blocks.values()):
        raise CheckpointError("checkpoint holds non-finite values")

    train_cfg, model_cfg = _decode_config(config)
    try:
        shapes = model_cfg.param_shapes(N_FEATURES)
    except SchemaError as exc:
        raise CheckpointError(f"bad {train_cfg.model} checkpoint config: {exc}") from exc
    shapes["stats.mean"] = shapes["stats.std"] = (1, N_FEATURES)
    if {name: arr.shape for name, arr in blocks.items()} != shapes:
        raise CheckpointError(f"checkpoint blocks do not fit its {train_cfg.model} config")
    try:
        stats = StandardizationStats(
            mean=blocks.pop("stats.mean")[0], std=blocks.pop("stats.std")[0]
        )
    except SchemaError as exc:
        raise CheckpointError(f"bad checkpoint stats: {exc}") from exc
    return TrainedModel(train_cfg, model_cfg, blocks, stats)


def _decode_config(config):
    """(TrainConfig, model config) from a checkpoint's JSON config, which
    holds exactly `train` and `model_config`; `train.model` names the kind."""
    try:
        check_keys(config, ("train", "model_config"), "checkpoint config")
        train_cfg = TrainConfig.from_dict(config["train"])
    except SchemaError as exc:
        raise CheckpointError(f"bad checkpoint config: {exc}") from exc
    kind = train_cfg.model
    if not DEFAULT_MODEL_CONFIGS[kind].trains_by_gradient:
        raise CheckpointError(f"model kind {kind!r} has no parameter checkpoint")
    try:
        model_cfg = DEFAULT_MODEL_CONFIGS[kind].from_dict(config["model_config"])
    except SchemaError as exc:
        raise CheckpointError(f"bad {kind} checkpoint config: {exc}") from exc
    return train_cfg, model_cfg
