"""Sensor dataset handling: the feature layout, CSV ingestion, time encoding,
and `prepare`, which makes model input from raw readings: the autoregressive
gap fill, then standardization with fitted or given stats.

The feature layout is fixed and lives only here, in FEATURE_COLUMNS: 2
satellite columns, 9 meteorological columns, 6 cyclical time columns, 1
static distance-to-road column, and 1 autoregressive previous-NO2 column
(19 columns total). The first 11 are the readings.csv feature columns, in
READING_FEATURE_COLUMNS order. Targets are hourly NO2 concentrations in ug/m3
and are never standardized.
"""

from __future__ import annotations

import contextlib
import csv
import math
from array import array
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from itertools import islice
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import DegenerateFeatureError, ParseError, SchemaError

# readings.csv columns after (timestamp, sensor_id, no2_ugm3), in order.
READING_FEATURE_COLUMNS = (
    "sat_no2_molm2",
    "aerosol_idx",
    "wind_speed_ms",
    "wind_gust_ms",
    "wind_dir_deg",
    "vpd_kpa",
    "temp_c",
    "pressure_pa",
    "rel_humidity_pct",
    "dewpoint_c",
    "cloud_cover_pct",
)

READINGS_HEADER = ("timestamp", "sensor_id", "no2_ugm3") + READING_FEATURE_COLUMNS
LOCATIONS_HEADER = ("sensor_id", "lat", "lon", "dist_road_m")

# The model's input columns as (name, unit, group) triples, in order.
FEATURE_COLUMNS = (
    ("sat_no2", "mol/m2", "satellite"),
    ("aerosol_idx", "1", "satellite"),
    ("wind_speed", "m/s", "meteorological"),
    ("wind_gust", "m/s", "meteorological"),
    ("wind_dir", "deg", "meteorological"),
    ("vpd", "kPa", "meteorological"),
    ("temp", "degC", "meteorological"),
    ("pressure", "Pa", "meteorological"),
    ("rel_humidity", "%", "meteorological"),
    ("dewpoint", "degC", "meteorological"),
    ("cloud_cover", "%", "meteorological"),
    ("hour_sin", "1", "time"),
    ("hour_cos", "1", "time"),
    ("dow_sin", "1", "time"),
    ("dow_cos", "1", "time"),
    ("week_sin", "1", "time"),
    ("week_cos", "1", "time"),
    ("dist_road", "m", "static"),
    ("prev_no2", "ug/m3", "autoregressive"),
)
FEATURE_NAMES = tuple(name for name, _, _ in FEATURE_COLUMNS)
N_FEATURES = len(FEATURE_COLUMNS)
PREV_NO2 = FEATURE_NAMES.index("prev_no2")


@dataclass(frozen=True)
class SensorLocation:
    """A monitored site: WGS84 coordinates plus the static road-proximity covariate."""

    id: str
    lat: float
    lon: float
    dist_road: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise SchemaError(f"sensor {self.id!r}: lat {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise SchemaError(f"sensor {self.id!r}: lon {self.lon} outside [-180, 180]")
        if not (math.isfinite(self.dist_road) and self.dist_road >= 0):
            raise SchemaError(
                f"sensor {self.id!r}: dist_road {self.dist_road} is not a finite, non-negative distance"
            )


@dataclass(frozen=True)
class StandardizationStats:
    """Per-feature mean and standard deviation in original units."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.std.shape:
            raise SchemaError("stats mean/std shape mismatch")
        if np.any(self.std <= 0):
            raise SchemaError("standardization std must be positive")

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (features - self.mean) / self.std

    def transform_column(self, index: int, value):
        return (value - self.mean[index]) / self.std[index]


@dataclass(frozen=True)
class Dataset:
    """Immutable hourly dataset over a fixed sensor set.

    The timeline is dense: frame t is `start + t hours`, and gaps appear as
    all-false rows of `present`, never as skipped timestamps. A reading is a
    finite target: an absent one is a NaN target, and construction derives
    `present`, the read-only [T, n] mask `np.isfinite(targets)` that every
    stage reads. Feature entries may be NaN where a sensor was absent.
    """

    locations: tuple[SensorLocation, ...]
    start: datetime
    features: np.ndarray  # [T, n, N_FEATURES]
    targets: np.ndarray  # [T, n], NaN where absent
    stats: StandardizationStats | None = None
    present: np.ndarray = field(init=False, repr=False, compare=False)  # [T, n] bool

    def __post_init__(self):
        T, n, d = self.features.shape
        if self.targets.shape != (T, n):
            raise SchemaError("dataset array shapes disagree")
        if d != N_FEATURES:
            raise SchemaError(f"feature width {d} != {N_FEATURES}")
        if not isinstance(self.stats, (StandardizationStats, type(None))):
            raise SchemaError(f"stats must be StandardizationStats or None, got {type(self.stats)}")
        ids = [loc.id for loc in self.locations]
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate sensor ids")
        if len(ids) != n:
            raise SchemaError("location count does not match feature columns")
        present = np.isfinite(self.targets)
        present.flags.writeable = False
        object.__setattr__(self, "present", present)

    @property
    def n_sensors(self) -> int:
        return len(self.locations)

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]

    def timestamp(self, t: int) -> datetime:
        return self.start + timedelta(hours=int(t))

    def sensor_index(self, sensor_id: str) -> int:
        for i, loc in enumerate(self.locations):
            if loc.id == sensor_id:
                return i
        raise SchemaError(f"unknown sensor id {sensor_id!r}")


def encode_time(ts: datetime) -> np.ndarray:
    """Cyclical encoding: (sin, cos) for hour-of-day, day-of-week, week-of-year."""
    hour_phase = 2.0 * math.pi * ts.hour / 24.0
    dow_phase = 2.0 * math.pi * ts.weekday() / 7.0
    week_phase = 2.0 * math.pi * (ts.isocalendar()[1] - 1) / 52.0
    return np.array(
        [
            math.sin(hour_phase),
            math.cos(hour_phase),
            math.sin(dow_phase),
            math.cos(dow_phase),
            math.sin(week_phase),
            math.cos(week_phase),
        ]
    )


def layout_features(locations: Sequence[SensorLocation], start: datetime,
                    n_hours: int) -> np.ndarray:
    """The [n_hours, n, N_FEATURES] feature array of the hours from `start`:
    time-encoding and dist_road columns filled, every other entry NaN."""
    features = np.full((n_hours, len(locations), N_FEATURES), np.nan)
    time = FEATURE_NAMES.index("hour_sin")  # first of the 6 encode_time columns
    for t in range(n_hours):
        features[t, :, time : time + 6] = encode_time(start + timedelta(hours=t))
    features[:, :, FEATURE_NAMES.index("dist_road")] = [loc.dist_road for loc in locations]
    return features


def parse_hour_timestamp(text: str, line_no: int) -> datetime:
    try:
        ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        ts = ts.astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:  # OverflowError: UTC time out of range
        raise ParseError(f"readings line {line_no}: bad timestamp {text!r}") from exc
    if ts.minute or ts.second or ts.microsecond:
        raise ParseError(f"readings line {line_no}: timestamp {text!r} not hour-aligned")
    return ts


@contextlib.contextmanager
def _csv_rows(path, kind: str, required: Sequence[str]):
    """Open a UTF-8 CSV file whose header names every `required` column.

    Yields (column index by header name, csv reader). Iterate
    `filter(None, reader)` to skip blank lines; `reader.line_num` is then the
    physical line of the row just read. A header naming a column twice maps
    it to the last one. Undecodable bytes and csv-level errors raise
    ParseError naming the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = set(required) - set(header)
            if missing:
                raise ParseError(f"{path}: {kind} header missing columns {sorted(missing)}")
            yield {name: i for i, name in enumerate(header)}, reader
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:
        raise ParseError(f"{path} line {reader.line_num}: {exc}") from exc


def load_locations(path) -> tuple[SensorLocation, ...]:
    locations = []
    with _csv_rows(path, "locations", LOCATIONS_HEADER) as (col, reader):
        fields = itemgetter(*(col[c] for c in LOCATIONS_HEADER))
        for row in filter(None, reader):
            try:
                sensor_id, lat, lon, dist_road = fields(row)
                location = SensorLocation(
                    id=sensor_id, lat=float(lat), lon=float(lon), dist_road=float(dist_road)
                )
            except (IndexError, ValueError) as exc:
                raise ParseError(f"{path} line {reader.line_num}: malformed row") from exc
            locations.append(location)
    if not locations:
        raise ParseError(f"{path}: no sensors")
    return tuple(locations)


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_HOUR = timedelta(hours=1)
_READING_VALUES = READINGS_HEADER[2:]  # no2_ugm3, then the feature columns


def _raise_first_nonfinite(readings_path, values: array, n_rows: int) -> None:
    """ParseError for the first non-finite number among the first `n_rows` rows."""
    width = len(_READING_VALUES)
    bad = ~np.isfinite(np.frombuffer(values, count=n_rows * width))
    if not bad.any():
        return
    row, j = divmod(int(bad.argmax()), width)
    column = _READING_VALUES[j]
    # The row's text was not kept; read the file again up to it.
    with _csv_rows(readings_path, "readings", READINGS_HEADER) as (col, reader):
        text = next(islice(filter(None, reader), row, None))[col[column]]
        line_no = reader.line_num
    raise ParseError(f"{readings_path} line {line_no}: {column} {text!r} is not finite")


def load_dataset(locations_path, readings_path) -> Dataset:
    """Read the locations/readings CSV pair into a dense-timeline Dataset.

    One streaming pass over readings.csv: each distinct timestamp text is
    parsed once, and each row's 12 numbers go into one flat float buffer.
    Every numeric field must be finite (ParseError otherwise). An absent
    (sensor, hour) row loads as a NaN target, so it is not `present`, with
    NaN satellite/meteorological features; time and static columns are
    always populated. The first bad row in file order decides the error,
    and errors name the file's physical line.
    """
    locations = load_locations(locations_path)
    n = len(locations)
    index_of = {loc.id: i for i, loc in enumerate(locations)}

    hour_of = {}  # timestamp text -> whole hours since the epoch
    cells = {}  # hour * n + sensor index of each complete row, in file order
    values = array("d")  # each complete row's no2 and feature values, row after row
    try:
        with _csv_rows(readings_path, "readings", READINGS_HEADER) as (col, reader):
            ts_col, id_col = col["timestamp"], col["sensor_id"]
            numbers = itemgetter(*(col[c] for c in _READING_VALUES))
            width = 1 + max(col[c] for c in READINGS_HEADER)
            for row in filter(None, reader):
                if len(row) < width:
                    raise ParseError(f"{readings_path} line {reader.line_num}: malformed row")
                text = row[ts_col]
                hour = hour_of.get(text)
                if hour is None:
                    ts = parse_hour_timestamp(text, reader.line_num)
                    hour = hour_of[text] = (ts - _EPOCH) // _HOUR
                sensor_id = row[id_col]
                s = index_of.get(sensor_id)
                if s is None:
                    raise SchemaError(
                        f"readings line {reader.line_num}: unknown sensor_id {sensor_id!r}"
                    )
                key = hour * n + s
                if key in cells:
                    raise ParseError(
                        f"readings line {reader.line_num}: duplicate reading for {sensor_id} at "
                        f"{(_EPOCH + hour * _HOUR).isoformat()}"
                    )
                try:
                    values.extend(map(float, numbers(row)))
                except ValueError as exc:
                    raise ParseError(
                        f"{readings_path} line {reader.line_num}: malformed row"
                    ) from exc
                cells[key] = None
    except (ParseError, SchemaError):
        # A non-finite number on an earlier row is the first error in the file.
        _raise_first_nonfinite(readings_path, values, len(cells))
        raise
    _raise_first_nonfinite(readings_path, values, len(cells))
    if not cells:
        raise ParseError(f"{readings_path}: no readings")

    hours, sensor = np.divmod(np.fromiter(cells, dtype=np.int64, count=len(cells)), n)
    first = int(hours.min())
    start = _EPOCH + first * _HOUR
    n_hours = int(hours.max()) - first + 1

    features = layout_features(locations, start, n_hours)
    targets = np.full((n_hours, n), np.nan)

    data = np.frombuffer(values).reshape(len(cells), len(_READING_VALUES))
    t = hours - first
    features[t, sensor, : len(READING_FEATURE_COLUMNS)] = data[:, 1:]
    targets[t, sensor] = data[:, 0]

    return Dataset(locations, start, features, targets)


def write_locations_csv(locations: Sequence[SensorLocation], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOCATIONS_HEADER)
        for loc in locations:
            writer.writerow([loc.id, repr(loc.lat), repr(loc.lon), repr(loc.dist_road)])


def write_readings_csv(ds: Dataset, path) -> None:
    """Write present readings in the canonical format, hour by hour in sensor
    order; absent pairs are skipped."""
    values = np.dstack((ds.targets, ds.features[:, :, : len(READING_FEATURE_COLUMNS)]))
    frames, sensors = np.nonzero(ds.present)
    stamps = [ds.timestamp(t).strftime("%Y-%m-%dT%H:00:00Z") for t in range(ds.n_frames)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(READINGS_HEADER)
        writer.writerows(  # csv writes a float as its repr
            [stamps[t], ds.locations[s].id, *row]
            for t, s, row in zip(frames.tolist(), sensors.tolist(), values[ds.present].tolist())
        )


def _column_moments(ds: Dataset, j: int) -> tuple[int, float, float]:
    """Count, mean and population std of feature column j over its present,
    finite entries. Raises DegenerateFeatureError when the values are finite
    but so large that their mean or std overflows."""
    col = ds.features[:, :, j][ds.present]
    col = col[np.isfinite(col)]
    if col.size == 0:
        return 0, math.nan, math.nan
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        mean, std = float(col.mean()), float(col.std())
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise DegenerateFeatureError(
            f"feature {FEATURE_NAMES[j]!r} is too large to standardize: its mean or std overflows"
        )
    return col.size, mean, std


def standardize(ds: Dataset, stats: StandardizationStats | None = None) -> Dataset:
    """Standardize every feature column; the result's `stats` are the ones used.

    With no `stats`, they are fitted: mean 0, std 1 over present entries,
    population std, and std 1 for a zero-variance column; a column with fewer
    than 2 present values raises DegenerateFeatureError. Stats that are given
    (a checkpoint's, say) are applied as they are. Either way, a column whose
    values are finite but so large that their mean or std overflows raises
    DegenerateFeatureError. Targets stay in physical units.
    """
    if ds.stats is not None:
        raise SchemaError("dataset is already standardized")
    mean = np.empty(N_FEATURES)
    std = np.empty(N_FEATURES)
    for j in range(N_FEATURES):
        count, mean[j], s = _column_moments(ds, j)
        if stats is None and count < 2:
            raise DegenerateFeatureError(
                f"feature {FEATURE_NAMES[j]!r} has {count} present observations (< 2)"
            )
        std[j] = s if s > 0 else 1.0
    if stats is None:
        stats = StandardizationStats(mean=mean, std=std)
    return replace(ds, features=stats.transform(ds.features), stats=stats)


def fill_prev_no2(ds: Dataset) -> Dataset:
    """Populate the autoregressive column with the previous hour's NO2.

    When a sensor was absent at t-1 (a NaN target, so not `present`), the
    most recent past reading at the same hour-of-day is used; sensors with
    no prior same-hour reading get the mean of every reading. Frame 0 gets
    that mean too (no prior hour). Hour-of-day repeats every 24 frames, so
    this is a forward fill down each hour's frames: a running maximum of
    present frame indices, then a gather.
    """
    if ds.stats is not None:
        raise SchemaError("fill_prev_no2 expects an unstandardized dataset")
    readings = ds.targets[ds.present]
    # Targets whose mean overflows overflow the AR column's too, which `standardize` rejects.
    with np.errstate(over="ignore"):
        fallback_mean = float(readings.mean()) if readings.size else 0.0

    T, n = ds.targets.shape
    features = ds.features.copy()
    features[0, :, PREV_NO2] = fallback_mean
    # latest[t, s]: the last frame j <= t with j % 24 == t % 24 at which sensor
    # s was present, or -1. Padded to whole days and viewed as [day, 24, n],
    # frame j + 24 sits right below frame j.
    days = -(-T // 24)
    latest = np.full((days * 24, n), -1)
    latest[:T] = np.where(ds.present, np.arange(T)[:, None], -1)
    latest = np.maximum.accumulate(latest.reshape(days, 24, n), axis=0).reshape(-1, n)[: T - 1]
    prev = np.take_along_axis(ds.targets, latest, axis=0)
    features[1:, :, PREV_NO2] = np.where(latest >= 0, prev, fallback_mean)
    return replace(ds, features=features)


def prepare(raw: Dataset, stats: StandardizationStats | None = None) -> Dataset:
    """Model input from raw readings: `fill_prev_no2`, then `standardize`
    with `stats` (fitted when None)."""
    return standardize(fill_prev_no2(raw), stats)
