"""Transfer learning between cities: pretrain on a large, data-rich network
and fine-tune on a small one with little history.

Run from the repository root:

    python3 demos/transfer_learning_demo.py  (takes a couple of minutes)
"""

from dataclasses import replace

from virtualsensor import (
    CityConfig,
    TrainConfig,
    TransferConfig,
    build_knn_graph,
    generate_city,
    leave_one_out,
    prepare,
    train,
    transfer,
)
from virtualsensor.pipeline import improvement_table

# Source: a big network (think 100+ monitors across a capital).
source = generate_city(
    CityConfig(seed=7, n_sensors=40, n_hours=800, bbox=(51.28, 51.70, -0.51, 0.33))
)
g_source = build_knn_graph(source.locations, k=3)
source_prep = prepare(source)

# Target: 8 monitors, and only ~2 weeks of usable history.
target = generate_city(CityConfig(seed=1, n_hours=4000))
keep = target.n_frames // 10
target = replace(
    target,
    features=target.features[:keep],
    targets=target.targets[:keep],
    present=target.present[:keep],
)
g_target = build_knn_graph(target.locations, k=3)
print(f"source: {source.n_sensors} sensors x {source.n_frames} h; "
      f"target: {target.n_sensors} sensors x {target.n_frames} h")

cfg = TrainConfig(epochs=4, patience=4, seed=0)

# From-scratch baseline: leave-one-location-out on the tiny target alone.
scratch = leave_one_out(target, g_target, cfg)
print(f"from scratch: NRMSE {scratch.averages['nrmse']:.4f}, "
      f"Grad-RMSE {scratch.averages['grad_rmse']:.3f}")

# Transfer: pretrain on the source, then seed every fold from those weights.
pretrained = train(source_prep, g_source, TrainConfig(epochs=2, patience=5, seed=0))
transferred = leave_one_out(target, g_target, cfg, init_params=pretrained.params)
print(f"transferred:  NRMSE {transferred.averages['nrmse']:.4f}, "
      f"Grad-RMSE {transferred.averages['grad_rmse']:.3f}")

gains = improvement_table(scratch, transferred)
print("improvement over from-scratch (%):",
      {k: round(v, 2) for k, v in gains.items()})

# The full pretrain-then-finetune path (one model, not per-fold) lives in
# `transfer`; the CLI exposes it as `virtualsensor transfer`.
tuned = transfer(source_prep, prepare(target), (g_source, g_target),
                 TransferConfig(source=TrainConfig(epochs=2, seed=0),
                                finetune_epochs=2, finetune_lr=1e-4))
print(f"fine-tuned model parameters: {sorted(tuned.params)}")
