"""Deterministic synthetic-city generator.

Produces hourly NO2 datasets with the statistical signatures the modeling
pipeline relies on: strong lag-1 autocorrelation, diurnal and weekly cycles,
spatially correlated fields, wind-driven suppression, and daily-constant
satellite columns. It generates the NO2 targets and the 11 readings.csv
feature columns; `dataset.layout_features` fills the time and dist_road
columns, as it does for a loaded city.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .dataset import READINGS_HEADER, Dataset, SensorLocation, layout_features
from .errors import SchemaError, check_types
from .geograph import distance_matrix

START = datetime(2019, 1, 1, 0, 0, tzinfo=timezone.utc)


@dataclass(frozen=True)
class CityConfig:
    n_sensors: int = 8
    n_hours: int = 4000
    bbox: tuple[float, float, float, float] = (51.42, 51.49, -2.65, -2.52)  # Bristol-ish
    seed: int = 0
    lag1_target: float = 0.9  # AR(1) coefficient of the spatial field
    diurnal_amplitude: float = 15.0  # ug/m3
    base_level: float = 30.0  # ug/m3
    spatial_length_scale: float = 2000.0  # meters
    noise_std: float = 4.0  # ug/m3
    scale_spread: float = 0.4  # +-40% per-sensor scale, makes high/low sites

    def __post_init__(self):
        check_types(self, ints=("n_sensors", "n_hours", "seed"), numbers=(
            "lag1_target", "diurnal_amplitude", "base_level", "spatial_length_scale",
            "noise_std", "scale_spread"))
        if not (isinstance(self.bbox, (tuple, list)) and len(self.bbox) == 4
                and all(not isinstance(v, bool) and isinstance(v, (int, float))
                        for v in self.bbox)):
            raise SchemaError(f"bbox must be four numbers, got {self.bbox!r}")
        for name in ("bbox", "lag1_target", "diurnal_amplitude", "base_level",
                     "spatial_length_scale", "noise_std", "scale_spread"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise SchemaError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_sensors < 2:
            raise SchemaError("need at least 2 sensors")
        if self.n_hours < 1:
            raise SchemaError("need at least 1 hour")
        if self.seed < 0:
            raise SchemaError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.lag1_target < 1.0:
            raise SchemaError("lag1_target must lie in (0, 1)")
        lat_lo, lat_hi, lon_lo, lon_hi = self.bbox
        if lat_lo >= lat_hi or lon_lo >= lon_hi:
            raise SchemaError("degenerate bounding box")
        if self.spatial_length_scale <= 0 or self.noise_std < 0:
            raise SchemaError("scales must be positive")
        if not 0.0 <= self.scale_spread < 1.0:  # keeps every sensor's 1 +- spread scale positive
            raise SchemaError(f"scale_spread must lie in [0, 1), got {self.scale_spread}")


def _smooth_series(rng, n, rho, std):
    """Zero-mean AR(1) series with stationary standard deviation `std`."""
    out = np.empty(n)
    out[0] = rng.normal(0.0, std)
    innov = rng.normal(0.0, std * math.sqrt(1.0 - rho * rho), size=n - 1)
    for t in range(1, n):
        out[t] = rho * out[t - 1] + innov[t - 1]
    return out


@np.errstate(over="ignore", invalid="ignore")  # an overflow is raised as SchemaError below
def generate_city(cfg: CityConfig) -> Dataset:
    """Build a fully observed synthetic Dataset (autoregressive column left
    NaN; run `prepare` before modeling). A config whose targets or
    readings come out non-finite raises SchemaError."""
    rng = np.random.default_rng(cfg.seed)
    lat_lo, lat_hi, lon_lo, lon_hi = cfg.bbox
    n, T = cfg.n_sensors, cfg.n_hours

    locations = tuple(
        SensorLocation(
            id=f"S{i:02d}",
            lat=float(rng.uniform(lat_lo, lat_hi)),
            lon=float(rng.uniform(lon_lo, lon_hi)),
            dist_road=float(rng.uniform(5.0, 500.0)),
        )
        for i in range(n)
    )

    hours = np.arange(T)
    hour_of_day = hours % 24
    dow = (hours // 24) % 7

    # Deterministic cycles, scaled per sensor to create high/low-NO2 sites.
    diurnal = cfg.diurnal_amplitude * np.sin(2.0 * math.pi * (hour_of_day - 6) / 24.0)
    weekly = 3.0 * np.cos(2.0 * math.pi * dow / 7.0)
    scale = 1.0 + rng.uniform(-cfg.scale_spread, cfg.scale_spread, size=n)

    # Spatially correlated AR(1) Gaussian field over the sensor layout.
    dist = distance_matrix(locations)
    field_std = 8.0
    cov = field_std**2 * np.exp(-0.5 * (dist / cfg.spatial_length_scale) ** 2)
    cov += 1e-6 * np.eye(n)
    chol = np.linalg.cholesky(cov)
    rho = cfg.lag1_target
    field = np.empty((T, n))
    field[0] = chol @ rng.standard_normal(n)
    scale_innov = math.sqrt(1.0 - rho * rho)
    for t in range(1, T):
        field[t] = rho * field[t - 1] + scale_innov * (chol @ rng.standard_normal(n))

    # City-wide weather with small per-sensor perturbations.
    wind_diurnal = 2.0 * np.sin(2.0 * math.pi * (hour_of_day - 14) / 24.0)
    wind_base = 4.0 + wind_diurnal + _smooth_series(rng, T, 0.95, 1.5)
    temp_base = (
        10.0
        + 8.0 * np.sin(2.0 * math.pi * hours / (24.0 * 365.0))
        + 4.0 * np.sin(2.0 * math.pi * (hour_of_day - 9) / 24.0)
        + _smooth_series(rng, T, 0.97, 2.0)
    )
    rh_base = np.clip(70.0 + _smooth_series(rng, T, 0.95, 8.0) - 0.8 * (temp_base - 10.0), 5.0, 100.0)
    pressure_base = 101_325.0 + _smooth_series(rng, T, 0.99, 300.0)
    cloud_base = np.clip(55.0 + _smooth_series(rng, T, 0.9, 20.0), 0.0, 100.0)
    wind_dir_base = (180.0 + np.cumsum(rng.normal(0.0, 4.0, size=T))) % 360.0

    wind = np.clip(wind_base[:, None] + rng.normal(0.0, 0.2, size=(T, n)), 0.0, None)
    temp = temp_base[:, None] + rng.normal(0.0, 0.2, size=(T, n))
    rh = np.clip(rh_base[:, None] + rng.normal(0.0, 1.0, size=(T, n)), 5.0, 100.0)
    gust = wind * 1.5 + np.abs(rng.normal(0.0, 0.3, size=(T, n)))
    pressure = pressure_base[:, None] + rng.normal(0.0, 10.0, size=(T, n))
    cloud = np.clip(cloud_base[:, None] + rng.normal(0.0, 2.0, size=(T, n)), 0.0, 100.0)
    wind_dir = (wind_dir_base[:, None] + rng.normal(0.0, 5.0, size=(T, n))) % 360.0
    sat_es = 0.6108 * np.exp(17.27 * temp / (temp + 237.3))  # kPa
    vpd = sat_es * (1.0 - rh / 100.0)
    dewpoint = temp - (100.0 - rh) / 5.0

    # Wind disperses NO2; temperature has a mild negative effect.
    met_effect = -2.0 * (wind - 4.0) - 0.3 * (temp - 10.0)

    # Slowly drifting, spatially smooth background (multi-day emission
    # episodes shared across the city); keeps the lag-1 autocorrelation
    # strong even at low-amplitude sites.
    bg_chol = (10.0 / field_std) * chol
    background = np.empty((T, n))
    background[0] = bg_chol @ rng.standard_normal(n)
    bg_scale = math.sqrt(1.0 - 0.99**2)
    for t in range(1, T):
        background[t] = 0.99 * background[t - 1] + bg_scale * (bg_chol @ rng.standard_normal(n))

    no2 = (
        scale[None, :] * (cfg.base_level + diurnal[:, None] + weekly[:, None])
        + field
        + background
        + met_effect
        + rng.normal(0.0, cfg.noise_std, size=(T, n))
    )
    no2 = np.clip(no2, 0.0, None)

    # Satellite columns: daily mean of the local truth plus noise, held
    # constant across each UTC day.
    n_days = (T + 23) // 24
    sat_no2 = np.empty((T, n))
    aerosol = np.empty((T, n))
    for day in range(n_days):
        lo, hi = day * 24, min((day + 1) * 24, T)
        daily = no2[lo:hi].mean(axis=0) * 2e-6 + rng.normal(0.0, 2e-6, size=n)
        sat_no2[lo:hi] = daily
        aerosol[lo:hi] = rng.normal(1.0, 0.3, size=n)

    # The targets, then the readings.csv feature columns in their order.
    readings = (no2, sat_no2, aerosol, wind, gust, wind_dir, vpd, temp, pressure, rh,
                dewpoint, cloud)
    for name, values in zip(READINGS_HEADER[2:], readings):
        if not np.all(np.isfinite(values)):
            raise SchemaError(f"generated {name} is not finite; check the city config")
    features = layout_features(locations, START, T)
    for j, values in enumerate(readings[1:]):
        features[:, :, j] = values

    return Dataset(locations, START, features, no2)


def lag_autocorr(series: np.ndarray, lag: int = 1) -> float:
    """Pearson correlation between x_t and x_{t+lag}."""
    series = np.asarray(series, dtype=np.float64)
    if len(series) <= lag + 1:
        raise SchemaError("series too short for requested lag")
    a, b = series[:-lag], series[lag:]
    if a.std() == 0 or b.std() == 0:
        raise SchemaError("zero-variance series has no autocorrelation")
    return float(np.corrcoef(a, b)[0, 1])
