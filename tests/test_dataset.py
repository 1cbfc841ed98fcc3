"""Dataset layer: feature layout, CSV round trips, standardization, time
encoding, and autoregressive fill."""

import math
import os
import re
import stat
import threading
import warnings
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virtualsensor import (
    Dataset,
    SensorLocation,
    StandardizationStats,
    encode_time,
    load_dataset,
)
from virtualsensor.dataset import (
    FEATURE_COLUMNS,
    FEATURE_NAMES,
    N_FEATURES,
    PREV_NO2,
    READING_FEATURE_COLUMNS,
    fill_prev_no2,
    load_locations,
    parse_hour_timestamp,
    replacing,
    standardize,
    write_locations_csv,
    write_readings_csv,
)
from virtualsensor.errors import (
    DegenerateFeatureError,
    ParseError,
    SchemaError,
    VirtualSensorError,
)
from virtualsensor.pipeline import _training_rows
from virtualsensor.synthgen import CityConfig, generate_city

from probes import reference_fill_prev_no2, reference_load_dataset

UTC = timezone.utc


def make_dataset(targets, features=None, start=None):
    """Small helper: build a valid Dataset around given target array [T, n],
    NaN where a sensor is absent."""
    targets = np.asarray(targets, dtype=np.float64)
    T, n = targets.shape
    if features is None:
        rng = np.random.default_rng(0)
        features = rng.normal(10.0, 3.0, size=(T, n, N_FEATURES))
        features[:, :, PREV_NO2] = np.nan
    locs = tuple(
        SensorLocation(f"S{i:02d}", 51.4 + 0.01 * i, -2.6 + 0.01 * i, 10.0 * (i + 1))
        for i in range(n)
    )
    return Dataset(
        locations=locs,
        start=start or datetime(2021, 3, 1, 0, tzinfo=UTC),
        features=features,
        targets=targets,
    )


# ---------------------------------------------------------------- feature layout


def test_default_schema_shape():
    assert N_FEATURES == 19
    assert FEATURE_NAMES[:2] == ("sat_no2", "aerosol_idx")
    assert PREV_NO2 == 18
    # fixed ordering: satellite, meteorological, time, static, autoregressive
    groups = [g for _, _, g in FEATURE_COLUMNS]
    assert groups == (
        ["satellite"] * 2 + ["meteorological"] * 9 + ["time"] * 6 + ["static"] + ["autoregressive"]
    )


def test_sensor_location_validation():
    with pytest.raises(SchemaError):
        SensorLocation("a", 91.0, 0.0, 1.0)
    with pytest.raises(SchemaError):
        SensorLocation("a", 0.0, 200.0, 1.0)
    with pytest.raises(SchemaError):
        SensorLocation("a", 0.0, 0.0, -1.0)
    for dist in (math.nan, math.inf):
        with pytest.raises(SchemaError, match="dist_road"):
            SensorLocation("a", 0.0, 0.0, dist)


# ---------------------------------------------------------------- time encoding


def test_encode_time_midnight_monday():
    # 2024-01-01 is a Monday in ISO week 1: all three phases are zero.
    v = encode_time(datetime(2024, 1, 1, 0, tzinfo=UTC))
    assert np.allclose(v, [0, 1, 0, 1, 0, 1], atol=1e-12)


def test_encode_time_6am_quarter_phase():
    v = encode_time(datetime(2024, 1, 1, 6, tzinfo=UTC))
    assert v[0] == pytest.approx(1.0, abs=1e-12)  # sin(pi/2)
    assert v[1] == pytest.approx(0.0, abs=1e-12)


def test_encode_time_unit_circle():
    for hour in range(24):
        v = encode_time(datetime(2024, 5, 17, hour, tzinfo=UTC))
        assert v[0] ** 2 + v[1] ** 2 == pytest.approx(1.0)
        assert v[2] ** 2 + v[3] ** 2 == pytest.approx(1.0)
        assert v[4] ** 2 + v[5] ** 2 == pytest.approx(1.0)


def test_encode_time_hour_period_24():
    a = encode_time(datetime(2024, 1, 1, 5, tzinfo=UTC))
    b = encode_time(datetime(2024, 1, 2, 5, tzinfo=UTC))
    assert np.allclose(a[:2], b[:2])


# ---------------------------------------------------------------- timestamps


def test_parse_hour_timestamp_formats():
    want = datetime(2021, 6, 1, 13, tzinfo=UTC)
    assert parse_hour_timestamp("2021-06-01T13:00:00Z", 2) == want
    assert parse_hour_timestamp("2021-06-01T13:00:00+00:00", 2) == want
    assert parse_hour_timestamp("2021-06-01T14:00:00+01:00", 2) == want


def test_parse_hour_timestamp_rejects_unaligned():
    with pytest.raises(ParseError, match="line 7"):
        parse_hour_timestamp("2021-06-01T13:30:00Z", 7)
    with pytest.raises(ParseError):
        parse_hour_timestamp("not-a-time", 3)


# ---------------------------------------------------------------- CSV loading


def write_pair(tmp_path, locations_text, readings_text):
    lp = tmp_path / "locations.csv"
    rp = tmp_path / "readings.csv"
    lp.write_text(locations_text)
    rp.write_text(readings_text)
    return lp, rp


READINGS_HEAD = (
    "timestamp,sensor_id,no2_ugm3,sat_no2_molm2,aerosol_idx,wind_speed_ms,"
    "wind_gust_ms,wind_dir_deg,vpd_kpa,temp_c,pressure_pa,rel_humidity_pct,"
    "dewpoint_c,cloud_cover_pct\n"
)

FEAT_TAIL = "1e-05,1.0,3.0,4.5,180.0,0.5,12.0,101325.0,70.0,7.0,50.0"


def test_load_dataset_dense_timeline_with_gap(tmp_path):
    lp, rp = write_pair(
        tmp_path,
        "sensor_id,lat,lon,dist_road_m\nA,51.45,-2.58,25.0\nB,51.46,-2.59,80.0\n",
        READINGS_HEAD
        + f"2021-06-01T00:00:00Z,A,30.0,{FEAT_TAIL}\n"
        + f"2021-06-01T00:00:00Z,B,20.0,{FEAT_TAIL}\n"
        # hour 1 entirely missing for both sensors
        + f"2021-06-01T02:00:00Z,A,34.0,{FEAT_TAIL}\n",
    )
    ds = load_dataset(lp, rp)
    assert ds.n_frames == 3  # dense: the silent hour still gets a frame
    assert ds.n_sensors == 2
    assert list(ds.present[:, 0]) == [True, False, True]
    assert list(ds.present[:, 1]) == [True, False, False]
    assert ds.targets[0, 0] == 30.0
    assert np.isnan(ds.targets[1, 0])
    # absent rows: satellite/met features NaN, time + static populated
    assert np.isnan(ds.features[1, 0, FEATURE_NAMES.index("wind_speed")])
    assert np.isfinite(ds.features[1, 0, FEATURE_NAMES.index("hour_sin")])
    assert ds.features[1, 0, FEATURE_NAMES.index("dist_road")] == 25.0
    assert ds.features[1, 1, FEATURE_NAMES.index("dist_road")] == 80.0
    assert ds.timestamp(2) == datetime(2021, 6, 1, 2, tzinfo=UTC)


def test_load_dataset_unknown_sensor(tmp_path):
    lp, rp = write_pair(
        tmp_path,
        "sensor_id,lat,lon,dist_road_m\nA,51.45,-2.58,25.0\n",
        READINGS_HEAD + f"2021-06-01T00:00:00Z,GHOST,30.0,{FEAT_TAIL}\n",
    )
    with pytest.raises(SchemaError, match="GHOST"):
        load_dataset(lp, rp)


def test_load_dataset_duplicate_reading(tmp_path):
    lp, rp = write_pair(
        tmp_path,
        "sensor_id,lat,lon,dist_road_m\nA,51.45,-2.58,25.0\n",
        READINGS_HEAD
        + f"2021-06-01T00:00:00Z,A,30.0,{FEAT_TAIL}\n"
        + f"2021-06-01T00:00:00Z,A,31.0,{FEAT_TAIL}\n",
    )
    with pytest.raises(ParseError, match="duplicate"):
        load_dataset(lp, rp)


def test_load_dataset_malformed_value_reports_line(tmp_path):
    lp, rp = write_pair(
        tmp_path,
        "sensor_id,lat,lon,dist_road_m\nA,51.45,-2.58,25.0\n",
        READINGS_HEAD
        + f"2021-06-01T00:00:00Z,A,30.0,{FEAT_TAIL}\n"
        + f"2021-06-01T01:00:00Z,A,oops,{FEAT_TAIL}\n",
    )
    with pytest.raises(ParseError, match="line 3"):
        load_dataset(lp, rp)


@pytest.mark.parametrize("row,column", [
    (f"2021-06-01T01:00:00Z,A,nan,{FEAT_TAIL}", "no2_ugm3"),
    (f"2021-06-01T01:00:00Z,A,30.0,{FEAT_TAIL.replace('4.5', 'inf')}", "wind_gust_ms"),
    (f"2021-06-01T01:00:00Z,A,30.0,{FEAT_TAIL.replace('50.0', '-Infinity')}",
     "cloud_cover_pct"),
])
def test_load_dataset_nonfinite_value_reports_line(tmp_path, row, column):
    lp, rp = write_pair(
        tmp_path,
        "sensor_id,lat,lon,dist_road_m\nA,51.45,-2.58,25.0\n",
        READINGS_HEAD + f"2021-06-01T00:00:00Z,A,30.0,{FEAT_TAIL}\n" + row + "\n",
    )
    with pytest.raises(ParseError, match=f"line 3: {column}"):
        load_dataset(lp, rp)


def test_load_dataset_reports_physical_line_after_blank_lines(tmp_path):
    lp, rp = write_pair(
        tmp_path,
        "sensor_id,lat,lon,dist_road_m\nA,51.45,-2.58,25.0\n",
        READINGS_HEAD
        + "\n\n"
        + f"2021-06-01T00:00:00Z,A,30.0,{FEAT_TAIL}\n"
        + f"2021-06-01T01:00:00Z,A,oops,{FEAT_TAIL}\n",
    )
    with pytest.raises(ParseError, match="line 5: malformed row"):
        load_dataset(lp, rp)


def test_load_dataset_nonfinite_reports_physical_line_after_blank_lines(tmp_path):
    lp, rp = write_pair(
        tmp_path,
        "sensor_id,lat,lon,dist_road_m\nA,51.45,-2.58,25.0\n",
        READINGS_HEAD
        + f"2021-06-01T00:00:00Z,A,30.0,{FEAT_TAIL}\n\n"
        + f"2021-06-01T01:00:00Z,A,NaN,{FEAT_TAIL}\n"
        + "2021-06-01T02:00:00Z,GHOST\n",
    )
    with pytest.raises(ParseError, match="line 4: no2_ugm3 'NaN' is not finite"):
        load_dataset(lp, rp)


def test_load_locations_reports_physical_line_after_blank_lines(tmp_path):
    lp = tmp_path / "locations.csv"
    lp.write_text("sensor_id,lat,lon,dist_road_m\n\nA,51.0,-2.0,1.0\n\nB,north,-2.0,1.0\n")
    with pytest.raises(ParseError, match="line 5: malformed row"):
        load_locations(lp)


@pytest.mark.parametrize("row", ["A", f"A,2021-06-01T01:00:00Z,30.0,{FEAT_TAIL[:-5]}"])
def test_load_dataset_short_row_reordered_header(tmp_path, row):
    head = READINGS_HEAD.replace("timestamp,sensor_id,", "sensor_id,timestamp,")
    lp, rp = write_pair(
        tmp_path,
        "sensor_id,lat,lon,dist_road_m\nA,51.45,-2.58,25.0\n",
        head + f"A,2021-06-01T00:00:00Z,30.0,{FEAT_TAIL}\n" + row + "\n",
    )
    with pytest.raises(ParseError, match="line 3: malformed row"):
        load_dataset(lp, rp)


def test_load_locations_short_row(tmp_path):
    lp = tmp_path / "locations.csv"
    lp.write_text("lat,lon,dist_road_m,sensor_id\n51.0,-2.0,1.0,A\n51.0,-2.0,1.0\n")
    with pytest.raises(ParseError, match="line 3: malformed row"):
        load_locations(lp)


def test_load_dataset_accepts_rows_missing_only_unused_columns(tmp_path):
    # A header may carry columns the loader ignores; a row that stops after
    # the last required column still loads.
    lp, rp = write_pair(
        tmp_path,
        "sensor_id,lat,lon,dist_road_m\nA,51.45,-2.58,25.0\n",
        READINGS_HEAD.replace("\n", ",note\n")
        + f"2021-06-01T00:00:00Z,A,30.0,{FEAT_TAIL},ok\n"
        + f"2021-06-01T01:00:00Z,A,31.0,{FEAT_TAIL}\n",
    )
    ds = load_dataset(lp, rp)
    assert list(ds.targets[:, 0]) == [30.0, 31.0]


def test_load_locations_nonfinite_dist_road(tmp_path):
    lp = tmp_path / "locations.csv"
    lp.write_text("sensor_id,lat,lon,dist_road_m\nA,51.0,-2.0,nan\n")
    with pytest.raises(SchemaError, match="dist_road"):
        load_locations(lp)


def test_load_locations_missing_column(tmp_path):
    lp = tmp_path / "locations.csv"
    lp.write_text("sensor_id,lat,lon\nA,51.0,-2.0\n")
    with pytest.raises(ParseError, match="dist_road_m"):
        load_locations(lp)


def test_csv_round_trip(tmp_path):
    targets = np.array([[30.0, 20.0], [np.nan, 21.5], [34.25, np.nan]])
    ds = make_dataset(targets)
    lp = tmp_path / "loc.csv"
    rp = tmp_path / "read.csv"
    write_locations_csv(ds.locations, lp)
    write_readings_csv(ds, rp)
    back = load_dataset(lp, rp)
    assert back.n_frames == ds.n_frames
    assert np.array_equal(back.present, ds.present)
    assert np.allclose(back.targets[ds.present], ds.targets[ds.present])
    met_cols = [i for i, (_, _, g) in enumerate(FEATURE_COLUMNS) if g in ("satellite", "meteorological")]
    for j in met_cols:
        assert np.allclose(back.features[:, :, j][ds.present], ds.features[:, :, j][ds.present])


def test_a_deleted_row_is_an_absent_reading(tmp_path):
    """README's absence rule on a written city: a deleted row loads with a NaN
    target and NaN reading features, no stage reads it, and it stays absent
    when the loaded city is written and read again."""
    city = generate_city(CityConfig(n_sensors=4, n_hours=48, seed=3))
    lp, rp = tmp_path / "locations.csv", tmp_path / "readings.csv"
    write_locations_csv(city.locations, lp)
    write_readings_csv(city, rp)
    header, *rows = rp.read_bytes().splitlines(keepends=True)
    deleted = np.zeros((48, 4), dtype=bool)
    deleted[1:47] = np.random.default_rng(3).random((46, 4)) < 0.25  # first and last hour kept
    rp.write_bytes(header + b"".join(row for row, gone in zip(rows, deleted.ravel()) if not gone))

    ds = load_dataset(lp, rp)
    kept = ~deleted
    assert ds.n_frames == 48 and deleted.sum() > 0
    assert np.array_equal(ds.present, kept)
    assert np.isnan(ds.targets[deleted]).all()
    assert np.array_equal(ds.targets[kept], city.targets[kept])
    n_csv = len(READING_FEATURE_COLUMNS)
    assert np.isnan(ds.features[deleted][:, :n_csv]).all()
    assert np.array_equal(ds.features[kept][:, :n_csv], city.features[kept][:, :n_csv])

    prepared = standardize(fill_prev_no2(ds))
    for j in range(n_csv):
        column = ds.features[:, :, j][kept]
        assert prepared.stats.mean[j] == column.mean() and prepared.stats.std[j] == column.std()
    rows_expected = kept.copy()
    rows_expected[0] = False
    assert np.array_equal(_training_rows(prepared), rows_expected)

    rp2 = tmp_path / "rewritten.csv"
    write_readings_csv(ds, rp2)
    assert rp2.read_bytes() == rp.read_bytes()
    back = load_dataset(lp, rp2)
    assert np.array_equal(back.present, kept)
    assert np.array_equal(back.targets, ds.targets, equal_nan=True)
    assert np.array_equal(back.features, ds.features, equal_nan=True)


def test_replacing_swaps_the_whole_file_or_nothing(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with pytest.raises(OSError, match="half written"):
        with replacing(path) as fh:
            fh.write("new\n")
            raise OSError("half written")
    assert path.read_text() == "old\n"
    with replacing(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]  # no temp file left


def test_replacing_keeps_a_symlink_and_writes_its_target(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    with replacing(link) as fh:
        fh.write("new\n")
    assert link.is_symlink() and link.readlink() == target
    assert target.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]


def test_replacing_writes_a_fifo_in_place(tmp_path):
    # An output that is not a regular file (here a FIFO, as /dev/null is a
    # device) is written through, not replaced by a regular file.
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
    reader.start()
    with replacing(fifo, "wb") as fh:
        fh.write(b"through the pipe\n")
    reader.join(timeout=30)
    assert not reader.is_alive() and read == [b"through the pipe\n"]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]


def test_replacing_gives_a_new_file_the_mode_of_a_plain_open(tmp_path):
    umask = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        with replacing(tmp_path / "replaced") as fh:
            fh.write("new\n")
    finally:
        os.umask(umask)
    modes = {stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {0o640}


# ---------------------------------------------------------------- standardization


def test_standardize_population_std():
    # column of values 2, 4, 6 -> mean 4, population std sqrt(8/3)
    targets = np.array([[1.0], [1.0], [1.0]])
    features = np.zeros((3, 1, 19))
    features[:, 0, 0] = [2.0, 4.0, 6.0]
    ds = make_dataset(targets, features=features)
    out = standardize(ds)
    stats = out.stats
    assert stats.mean[0] == pytest.approx(4.0)
    assert stats.std[0] == pytest.approx(math.sqrt(8.0 / 3.0))
    assert out.features[:, 0, 0] == pytest.approx(
        [-1.224744871391589, 0.0, 1.224744871391589]
    )


def test_standardize_excludes_absent_entries():
    targets = np.array([[1.0, np.nan], [1.0, np.nan], [1.0, np.nan]])
    features = np.zeros((3, 2, 19))
    features[:, 0, 0] = [2.0, 4.0, 6.0]
    features[:, 1, 0] = 1e9  # absent sensor; must not pollute the stats
    ds = make_dataset(targets, features=features)
    stats = standardize(ds).stats
    assert stats.mean[0] == pytest.approx(4.0)


def test_standardize_zero_variance_column_gets_unit_std():
    targets = np.ones((3, 2))
    features = np.full((3, 2, 19), 7.0)
    ds = make_dataset(targets, features=features)
    out = standardize(ds)
    assert np.all(out.stats.std == 1.0)
    assert np.allclose(out.features, 0.0)


def test_standardize_too_few_observations():
    targets = np.array([[1.0]])
    features = np.zeros((1, 1, 19))
    ds = make_dataset(targets, features=features)
    with pytest.raises(DegenerateFeatureError):
        standardize(ds)


@pytest.mark.parametrize("scale", [1e200, 1e306])
def test_huge_finite_column_raises_without_warnings(scale):
    # Finite values whose squares (1e200) or sum (1e306) overflow: the AR fill and
    # standardize stay silent and the overflowing column is named in the error.
    rng = np.random.default_rng(4)
    targets = scale * rng.uniform(1.0, 2.0, size=(200, 3))
    features = rng.normal(size=(200, 3, 19))
    features[:, :, 4] = scale * rng.uniform(1.0, 2.0, size=(200, 3))
    ds = make_dataset(targets, features=features)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DegenerateFeatureError, match=f"{FEATURE_NAMES[4]!r} is too large"):
            standardize(fill_prev_no2(ds))
    assert [str(w.message) for w in caught] == []


def test_standardize_round_trip():
    rng = np.random.default_rng(3)
    targets = rng.uniform(5, 50, size=(20, 3))
    ds = make_dataset(targets, features=rng.normal(0, 5, size=(20, 3, 19)))
    std_ds = standardize(ds)
    back = std_ds.features * std_ds.stats.std + std_ds.stats.mean
    assert np.allclose(back, ds.features, atol=1e-9)
    # targets untouched throughout
    assert np.array_equal(std_ds.targets, ds.targets)


def test_standardize_twice_refused():
    ds = fill_prev_no2(make_dataset(np.ones((5, 2)) * 20))
    std_ds = standardize(ds)
    with pytest.raises(SchemaError):
        standardize(std_ds)
    with pytest.raises(SchemaError):
        standardize(std_ds, std_ds.stats)


def _partly_absent_dataset():
    """Absent rows (NaN features and targets) and a zero-variance feature column."""
    rng = np.random.default_rng(8)
    targets = rng.uniform(5, 50, size=(30, 3))
    targets[4:9, 1] = np.nan
    features = rng.normal(0, 5, size=(30, 3, N_FEATURES))
    features[4:9, 1] = np.nan
    features[:, :, 3] = 7.0  # zero variance
    return fill_prev_no2(make_dataset(targets, features=features))


def test_standardize_with_its_own_stats_is_bit_identical():
    ds = _partly_absent_dataset()
    fitted = standardize(ds)
    assert fitted.stats.std[3] == 1.0
    applied = standardize(ds, fitted.stats)
    assert applied.stats is fitted.stats
    assert _hex(applied.features) == _hex(fitted.features)
    assert np.array_equal(applied.targets, ds.targets, equal_nan=True)


def test_standardize_with_stats_skips_the_count_check():
    # One present row: too few to fit stats, enough to apply given ones.
    stats = standardize(_partly_absent_dataset()).stats
    one = make_dataset(np.array([[20.0, np.nan]]), features=np.ones((1, 2, N_FEATURES)))
    with pytest.raises(DegenerateFeatureError):
        standardize(one)
    assert np.array_equal(standardize(one, stats).features, stats.transform(one.features))


@pytest.mark.parametrize("scale", [1e200, 1e306])
def test_standardize_with_stats_names_an_overflowing_column(scale):
    stats = standardize(_partly_absent_dataset()).stats
    rng = np.random.default_rng(5)
    features = rng.normal(size=(50, 3, N_FEATURES))
    features[:, :, 6] = scale * rng.uniform(1.0, 2.0, size=(50, 3))
    ds = make_dataset(rng.uniform(5, 50, size=(50, 3)), features=features)
    with pytest.raises(DegenerateFeatureError, match=f"{FEATURE_NAMES[6]!r} is too large"):
        standardize(ds, stats)


def test_stats_column_transforms_match_full_transform():
    stats = StandardizationStats(mean=np.arange(19.0), std=np.arange(1.0, 20.0))
    assert stats.transform_column(18, 40.0) == pytest.approx((40.0 - 18.0) / 19.0)
    row = np.full(19, 40.0)
    assert stats.transform(row)[18] == stats.transform_column(18, 40.0)
    assert (stats.transform(row) * stats.std + stats.mean)[18] == pytest.approx(40.0)


@given(
    st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=3, max_size=40),
    st.integers(min_value=0, max_value=18),
)
@settings(max_examples=40, deadline=None)
def test_standardize_round_trip_property(values, col):
    T = len(values)
    features = np.zeros((T, 1, 19))
    features[:, 0, col] = values
    ds = make_dataset(np.ones((T, 1)), features=features)
    std_ds = standardize(ds)
    back = std_ds.features * std_ds.stats.std + std_ds.stats.mean
    assert np.allclose(back[:, 0, col], values, atol=1e-6)


# ---------------------------------------------------------------- autoregressive fill


def test_fill_prev_no2_basic_shift():
    targets = np.array([[10.0], [20.0], [30.0]])
    ds = make_dataset(targets)
    out = fill_prev_no2(ds)
    ar = out.features[:, 0, PREV_NO2]
    assert ar[0] == pytest.approx(20.0)  # dataset mean for the cold start
    assert ar[1] == pytest.approx(10.0)
    assert ar[2] == pytest.approx(20.0)


def test_fill_prev_no2_same_hour_fallback():
    # Sensor observed at hour 3 on day 1 (value 22), absent at hour 3 on day
    # 2; the AR input for day 2 hour 4 must fall back to 22.
    T = 53
    targets = np.full((T, 1), np.nan)
    targets[3, 0] = 22.0
    targets[52, 0] = 40.0  # need >= 2 observations for a meaningful mean
    ds = make_dataset(targets)
    out = fill_prev_no2(ds)
    ar = out.features[:, 0, PREV_NO2]
    assert ar[4] == pytest.approx(22.0)  # direct previous hour
    assert ar[28] == pytest.approx(22.0)  # absent at t-1=27(h3): same-hour fallback
    assert ar[1] == pytest.approx(31.0)  # nothing recorded yet: dataset mean


def test_fill_prev_no2_prefers_latest_same_hour():
    T = 73
    targets = np.full((T, 1), np.nan)
    for t, v in ((5, 11.0), (29, 17.0)):  # both hour-of-day 5
        targets[t, 0] = v
    ds = make_dataset(targets)
    ar = fill_prev_no2(ds).features[:, 0, PREV_NO2]
    assert ar[54] == pytest.approx(17.0)  # t-1 = 53 (hour 5) absent -> latest obs at hour 5


def test_fill_prev_no2_requires_raw_dataset():
    ds = fill_prev_no2(make_dataset(np.full((5, 2), 20.0)))
    std_ds = standardize(ds)
    with pytest.raises(SchemaError):
        fill_prev_no2(std_ds)


def test_fill_prev_no2_idempotent_on_targets():
    ds = make_dataset(np.arange(12.0).reshape(6, 2) + 5)
    out = fill_prev_no2(ds)
    assert np.array_equal(out.targets, ds.targets)
    assert np.array_equal(out.present, ds.present)
    ar = PREV_NO2
    again = fill_prev_no2(out)
    assert np.allclose(again.features[:, :, ar], out.features[:, :, ar])


# ---------------------------------------------------------------- dataset invariants


def test_dataset_shape_validation():
    locations = (SensorLocation("a", 0, 0, 1), SensorLocation("b", 0, 0, 1))
    start = datetime(2021, 1, 1, tzinfo=UTC)
    with pytest.raises(SchemaError):
        Dataset(
            locations=locations,
            start=start,
            features=np.zeros((4, 2, 19)),
            targets=np.zeros((4, 3)),  # wrong sensor count
        )
    # A presence mask passed positionally lands in `stats`, which refuses it.
    with pytest.raises(SchemaError, match="stats must be StandardizationStats or None"):
        Dataset(locations, start, np.zeros((4, 2, 19)), np.zeros((4, 2)),
                np.ones((4, 2), dtype=bool))


def test_dataset_duplicate_ids_rejected():
    with pytest.raises(SchemaError):
        Dataset(
            locations=(SensorLocation("a", 0, 0, 1), SensorLocation("a", 0, 0, 1)),
            start=datetime(2021, 1, 1, tzinfo=UTC),
            features=np.zeros((4, 2, 19)),
            targets=np.zeros((4, 2)),
        )


def test_present_is_the_finite_targets_and_read_only():
    ds = _partly_absent_dataset()
    assert np.array_equal(ds.present, np.isfinite(ds.targets))
    assert not ds.present[4:9, 1].any() and ds.present.sum() == 30 * 3 - 5
    with pytest.raises(ValueError):
        ds.present[0, 0] = False
    with pytest.raises(TypeError):
        Dataset(ds.locations, ds.start, ds.features, ds.targets, present=ds.present)


def test_sensor_index_lookup():
    ds = make_dataset(np.ones((2, 3)))
    assert ds.sensor_index("S01") == 1
    with pytest.raises(SchemaError):
        ds.sensor_index("nope")



# ---------------------------------------------------------------- loader and AR fill equivalence


PROPERTY_LOCATIONS = "sensor_id,lat,lon,dist_road_m\nA,51.45,-2.58,25.0\nB,51.46,-2.59,80.0\n"
BAD_VALUES = ("nan", "inf", "-Infinity", " NaN", "1e999", "oops", "", "-0.0", "7")
ODD_TIMESTAMPS = (
    "not-a-time", "2021-06-01T03:30:00Z", "2021-06-01T04:00:00+00:00",
    "2021-06-01T05:00:00+01:00", "2021-06-01T09:00:00", "2021-05-31T22:00:00Z",
)


@st.composite
def edited_readings(draw):
    """A small valid readings.csv with drawn edits: (text, whether it has blank lines)."""
    header = list(READINGS_HEAD.strip().split(","))
    rows = [
        [f"2021-06-01T{h:02d}:00:00Z", sensor, f"{20.0 + h}", *FEAT_TAIL.split(",")]
        for h in range(5) for sensor in "AB" if (h, sensor) != (1, "B")
    ]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("value", "timestamp", "duplicate", "sensor")))
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "value":
            rows[i][draw(st.integers(2, len(header) - 1))] = draw(st.sampled_from(BAD_VALUES))
        elif kind == "timestamp":
            rows[i][0] = draw(st.sampled_from(ODD_TIMESTAMPS))
        elif kind == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
        else:
            rows[i][1] = draw(st.sampled_from(("GHOST", "a", "")))
    if draw(st.booleans()):  # an extra column in the header and every row
        j = draw(st.integers(0, len(header)))
        header.insert(j, "note")
        for row in rows:
            row.insert(j, "x")
    if draw(st.booleans()):  # the columns in another order
        order = draw(st.permutations(range(len(header))))
        header = [header[k] for k in order]
        rows = [[row[k] for k in order] for row in rows]
    if draw(st.booleans()):  # a row with fields beyond the header
        rows[draw(st.integers(0, len(rows) - 1))].append("spare")
    lines = [",".join(header)] + [",".join(row) for row in rows]
    blanks = draw(st.lists(st.integers(1, len(lines)), max_size=2))
    for pos in sorted(blanks, reverse=True):
        lines.insert(pos, "")
    return "\n".join(lines) + "\n", bool(blanks)


def _hex(a: np.ndarray) -> list[str]:
    return [float(v).hex() for v in a.ravel().tolist()]


def _load_outcome(load, lp, rp, mask_lines: bool):
    """A load's arrays in float.hex form, or its error class and message."""
    try:
        ds = load(lp, rp)
    except VirtualSensorError as exc:
        message = re.sub(r"line \d+", "line N", str(exc)) if mask_lines else str(exc)
        return type(exc), message
    return ds.start, ds.locations, _hex(ds.features), _hex(ds.targets), ds.present.tolist()


@given(edited_readings())
@settings(max_examples=150, deadline=None)
def test_load_dataset_matches_row_loop(tmp_path_factory, edited):
    text, has_blank_lines = edited
    root = tmp_path_factory.getbasetemp() / "loader-property"
    root.mkdir(exist_ok=True)
    lp, rp = write_pair(root, PROPERTY_LOCATIONS, text)
    # The row loop numbers rows, not lines; after a blank line only the
    # numbers may differ.
    assert (_load_outcome(load_dataset, lp, rp, has_blank_lines)
            == _load_outcome(reference_load_dataset, lp, rp, has_blank_lines))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_fill_prev_no2_matches_hourly_loop(data):
    T = data.draw(st.integers(1, 75))
    n = data.draw(st.integers(1, 3))
    present = np.array(data.draw(st.lists(st.booleans(), min_size=T * n, max_size=T * n)))
    values = data.draw(st.lists(
        st.one_of(st.floats(-50.0, 200.0), st.just(-0.0)), min_size=T * n, max_size=T * n,
    ))
    targets = np.where(present, values, np.nan).reshape(T, n)  # an absent cell is a NaN target
    start = datetime(2021, 3, 1, data.draw(st.integers(0, 23)), tzinfo=UTC)
    ds = make_dataset(targets, start=start)
    assert _hex(fill_prev_no2(ds).features) == _hex(reference_fill_prev_no2(ds).features)
