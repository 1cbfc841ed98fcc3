"""Walkthrough: build a synthetic city, train the graph model, and stand up
a virtual sensor at a held-out location.

Run from the repository root:

    python3 demos/virtual_sensor_walkthrough.py
"""

from collections import deque

import numpy as np

from virtualsensor import (
    CityConfig,
    TrainConfig,
    build_knn_graph,
    closed_loop_predict,
    fill_prev_no2,
    generate_city,
    grad_rmse,
    lag_autocorr,
    nrmse,
    rmse,
    standardize,
    train,
)
from virtualsensor.pipeline import fold_dataset


def diameter(graph) -> int:
    """Longest finite shortest-path length, in hops, over all node pairs (BFS)."""
    best = 0
    for src in range(graph.n_nodes):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in graph.adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        best = max(best, max(dist.values()))
    return best


# --- 1. A city we fully control -------------------------------------------
# Eight monitors, ~10 weeks of hourly NO2 with diurnal/weekly cycles, a
# spatially correlated field, and wind-driven dispersion.
city = generate_city(CityConfig(seed=42, n_hours=1700))
print(f"city: {city.n_sensors} sensors x {city.n_frames} hours")
print(f"lag-1 autocorrelation, sensor 0: {lag_autocorr(city.targets[:, 0]):.3f}")

# --- 2. Pretend one monitor does not exist --------------------------------
holdout = 3
holdout_id = city.locations[holdout].id
actual = city.targets[1:, holdout].copy()
init_value = float(city.targets[0, holdout])  # the single sanctioned read
censored = fold_dataset(city, holdout)

# --- 3. Prepare features and the sensor graph -----------------------------
# fill_prev_no2 populates the autoregressive column (teacher forcing);
# standardize fits per-feature stats over the *remaining* sensors only.
prepared, stats = standardize(fill_prev_no2(censored))
graph = build_knn_graph(city.locations, k=3)
print(f"graph diameter: {diameter(graph)} hops")

# --- 4. Train the sampled graph model -------------------------------------
model = train(prepared, graph, TrainConfig(epochs=6, patience=4, seed=0))
print(f"training loss: {model.history['train'][0]:.1f} -> {model.history['train'][-1]:.1f}")

# --- 5. Closed-loop rollout at the missing location -----------------------
# Each hour's prediction becomes the next hour's autoregressive input; the
# real monitors keep feeding their actual readings through the graph.
preds = closed_loop_predict(
    model, graph, prepared, holdout, init_value, rng=np.random.default_rng(0),
)
preds = np.clip(preds, 0.0, None)

print(f"\nvirtual sensor at {holdout_id}:")
print(f"  RMSE       {rmse(preds, actual):7.3f} ug/m3")
print(f"  NRMSE      {nrmse(preds, actual):7.3f}")
print(f"  Grad-RMSE  {grad_rmse(preds, actual):7.3f} ug/m3")
print(f"  first day, predicted: {np.round(preds[:6], 1)}")
print(f"  first day, actual:    {np.round(actual[:6], 1)}")
