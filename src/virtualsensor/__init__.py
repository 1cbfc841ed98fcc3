"""Graph-based virtual air quality sensors.

Autoregressive GraphSAGE NO2 prediction at unmonitored locations, with MLP,
CNN, and gradient-boosted-tree baselines, a leave-one-location-out
evaluation protocol, pretrain/fine-tune transfer learning, and a synthetic
city generator for desk-scale experiments.
"""

from .dataset import (
    Dataset,
    SensorLocation,
    StandardizationStats,
    encode_time,
    fill_prev_no2,
    load_dataset,
    standardize,
)
from .geograph import SpatialGraph, build_knn_graph, haversine
from .pipeline import (
    EvalReport,
    TrainConfig,
    TransferConfig,
    closed_loop_predict,
    grad_rmse,
    improvement,
    leave_one_out,
    nrmse,
    rmse,
    train,
    transfer,
)
from .sage import AggregatorKind, SageConfig
from .synthgen import CityConfig, generate_city, lag_autocorr

__all__ = [
    "AggregatorKind",
    "CityConfig",
    "Dataset",
    "EvalReport",
    "SageConfig",
    "SensorLocation",
    "SpatialGraph",
    "StandardizationStats",
    "TrainConfig",
    "TransferConfig",
    "build_knn_graph",
    "closed_loop_predict",
    "encode_time",
    "fill_prev_no2",
    "generate_city",
    "grad_rmse",
    "haversine",
    "improvement",
    "lag_autocorr",
    "leave_one_out",
    "load_dataset",
    "nrmse",
    "rmse",
    "standardize",
    "train",
    "transfer",
]

__version__ = "0.1.0"
