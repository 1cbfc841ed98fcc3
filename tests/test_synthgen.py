"""Synthetic city generator: determinism, statistical signatures, structure."""

import hashlib

import numpy as np
import pytest

from virtualsensor import CityConfig, generate_city, lag_autocorr
from virtualsensor.dataset import FEATURE_NAMES, PREV_NO2
from virtualsensor.errors import SchemaError


def dataset_digest(ds):
    h = hashlib.sha256()
    h.update(ds.targets.tobytes())
    h.update(ds.features.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(seed=0, n_hours=2000))


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(SchemaError):
        CityConfig(n_sensors=1)
    with pytest.raises(SchemaError):
        CityConfig(lag1_target=1.0)
    with pytest.raises(SchemaError):
        CityConfig(bbox=(51.5, 51.4, -2.6, -2.5))
    with pytest.raises(SchemaError):
        CityConfig(spatial_length_scale=0.0)
    with pytest.raises(SchemaError, match="hour"):
        CityConfig(n_hours=0)


@pytest.mark.parametrize("spread", [1e308, 1.0, 1.5, -0.1])
def test_config_rejects_scale_spread_outside_unit_interval(spread):
    # A per-sensor scale of 1 +- spread must stay positive (and rng.uniform finite).
    with pytest.raises(SchemaError, match="scale_spread"):
        CityConfig(scale_spread=spread)


def test_config_accepts_zero_scale_spread():
    ds = generate_city(CityConfig(n_sensors=3, n_hours=48, scale_spread=0.0))
    assert np.all(np.isfinite(ds.targets))


@pytest.mark.parametrize("field,value", [
    ("base_level", float("nan")), ("base_level", float("inf")),
    ("diurnal_amplitude", float("-inf")), ("noise_std", float("inf")),
    ("spatial_length_scale", float("inf")), ("scale_spread", float("nan")),
    ("lag1_target", float("nan")), ("bbox", (51.42, float("nan"), -2.65, -2.52)),
])
def test_config_rejects_non_finite_numbers(field, value):
    with pytest.raises(SchemaError, match=f"{field} must be finite"):
        CityConfig(**{field: value})


# ---------------------------------------------------------------- determinism


def test_generate_deterministic():
    a = generate_city(CityConfig(seed=11, n_hours=300))
    b = generate_city(CityConfig(seed=11, n_hours=300))
    assert dataset_digest(a) == dataset_digest(b)
    assert [l.id for l in a.locations] == [l.id for l in b.locations]


def test_different_seeds_differ():
    digests = {dataset_digest(generate_city(CityConfig(seed=s, n_hours=200))) for s in range(4)}
    assert len(digests) == 4


# ---------------------------------------------------------------- structure


def test_city_shape_and_presence(city):
    assert city.n_sensors == 8
    assert city.n_frames == 2000
    assert city.present.all()
    assert np.all(np.isfinite(city.targets))
    assert np.all(city.targets >= 0.0)


def test_sensors_inside_bbox(city):
    lat_lo, lat_hi, lon_lo, lon_hi = CityConfig().bbox
    for loc in city.locations:
        assert lat_lo <= loc.lat <= lat_hi
        assert lon_lo <= loc.lon <= lon_hi


def test_autoregressive_column_left_unfilled(city):
    ar = PREV_NO2
    assert np.all(np.isnan(city.features[:, :, ar]))


def test_time_and_static_columns_populated(city):
    hour_sin = FEATURE_NAMES.index("hour_sin")
    assert np.all(np.isfinite(city.features[:, :, hour_sin]))
    dist = city.features[:, :, FEATURE_NAMES.index("dist_road")]
    assert np.allclose(dist, dist[0])  # static per sensor


def test_satellite_daily_constant(city):
    sat = city.features[:, :, FEATURE_NAMES.index("sat_no2")]
    for day in range(3):
        block = sat[day * 24 : (day + 1) * 24]
        assert np.allclose(block, block[0])
    # but it varies across days
    assert not np.allclose(sat[0], sat[24])


def test_diurnal_cycle_visible(city):
    # Afternoon hours (peak of the sine at hour 12) run higher than the
    # pre-dawn trough on average.
    hod = np.arange(city.n_frames) % 24
    afternoon = city.targets[(hod >= 10) & (hod <= 14)].mean()
    night = city.targets[(hod >= 22) | (hod <= 2)].mean()
    assert afternoon > night + 5.0


# ---------------------------------------------------------------- signatures


def test_lag1_autocorrelation_band():
    for seed in range(3):
        ds = generate_city(CityConfig(seed=seed, n_hours=4000))
        for s in range(ds.n_sensors):
            r = lag_autocorr(ds.targets[:, s])
            assert 0.85 <= r <= 0.98, f"seed {seed} sensor {s}: r={r:.3f}"


def test_wind_suppresses_no2(city):
    w = city.features[:, :, FEATURE_NAMES.index("wind_speed")]
    for s in range(city.n_sensors):
        r = np.corrcoef(w[:, s], city.targets[:, s])[0, 1]
        assert r < -0.1


def test_spatial_correlation_positive(city):
    # Co-located sensors share the spatial field: cross-correlations between
    # sensor series are clearly positive.
    c = np.corrcoef(city.targets.T)
    off_diag = c[~np.eye(city.n_sensors, dtype=bool)]
    assert off_diag.min() > 0.2


# ---------------------------------------------------------------- lag_autocorr


def test_lag_autocorr_perfect_ar1():
    rng = np.random.default_rng(0)
    x = np.empty(5000)
    x[0] = 0.0
    for t in range(1, 5000):
        x[t] = 0.9 * x[t - 1] + rng.normal()
    assert lag_autocorr(x) == pytest.approx(0.9, abs=0.03)


def test_lag_autocorr_white_noise_near_zero():
    x = np.random.default_rng(1).normal(size=5000)
    assert abs(lag_autocorr(x)) < 0.05


def test_lag_autocorr_lag_parameter():
    x = np.tile([1.0, -1.0], 500)
    assert lag_autocorr(x, lag=2) == pytest.approx(1.0)
    assert lag_autocorr(x, lag=1) == pytest.approx(-1.0)


def test_lag_autocorr_rejects_degenerate():
    with pytest.raises(SchemaError):
        lag_autocorr(np.array([1.0, 2.0]))
    with pytest.raises(SchemaError):
        lag_autocorr(np.full(100, 3.0))
