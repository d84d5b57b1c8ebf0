"""Feature engineering: one-hot encoding, MinMax scaling, and supervised
windows; the one module that cuts, splits and times them.

The column layout puts the forecast target (demand, "request") in
column 0, followed by temperature, the holiday flag, and the weekday and
month one-hot groups, for a width of 22. Two flags change it: the
drop-first-month option reduces the month group to 11 columns, and the
include-hour option appends the hour of day.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConfigError, GridError
from .ingest import STEP_SECONDS, IntervalSeries, grid_times

SCALER_FORMAT = "demandcast/scaler-v1"
NUMERIC = ("request", "temperature", "hour")  # the columns the scaler maps onto [0, 1]


@dataclass(frozen=True)
class FeatureSchema:
    """The column layout, which is its two flags, as a run config and a
    checkpoint store them."""

    drop_first_month: bool = False
    include_hour: bool = False

    @classmethod
    def default(cls, drop_first_month: bool = False,
                include_hour: bool = False) -> "FeatureSchema":
        return cls(drop_first_month, include_hour)

    def group_columns(self) -> dict[str, tuple[int, ...]]:
        """Column indices per semantic feature group, in column order."""
        sizes = {"request": 1, "temperature": 1, "holiday": 1, "weekday": 7,
                 "month": 11 if self.drop_first_month else 12}
        if self.include_hour:
            sizes["hour"] = 1
        starts = accumulate(sizes.values(), initial=0)
        return {name: tuple(range(start, start + size))
                for (name, size), start in zip(sizes.items(), starts)}

    @property
    def width(self) -> int:
        return sum(map(len, self.group_columns().values()))

    def numeric_columns(self) -> list[tuple[int, str]]:
        return [(cols[0], name) for name, cols in self.group_columns().items() if name in NUMERIC]


def encode(series: IntervalSeries, schema: FeatureSchema, rows=slice(None)) -> np.ndarray:
    """Expand the ``rows`` (all by default) of an IntervalSeries into the
    (T x n) feature matrix; each row encodes on its own.

    Every one-hot group has exactly one 1 per row, but under
    drop-first-month a January row encodes as all zeros in the month group
    (standard dropped-reference encoding). The series has every column, as
    ``load_dataset`` gives it.
    """
    plain = {"request": series.demand, "temperature": series.temperature,
             "holiday": series.holiday}
    T = len(series.demand[rows])
    out = np.zeros((T, schema.width), dtype=np.float64)
    for name, (col, *_) in schema.group_columns().items():
        if name in plain:
            out[:, col] = plain[name][rows]
        elif name == "weekday":
            out[np.arange(T), col + series.weekday[rows].astype(np.int64)] = 1.0
        elif name == "month":
            month0 = series.month[rows].astype(np.int64) - 1
            if schema.drop_first_month:  # January is the dropped reference level
                keep = month0 > 0
                out[np.arange(T)[keep], col + month0[keep] - 1] = 1.0
            else:
                out[np.arange(T), col + month0] = 1.0
        else:  # hour
            times = series.times()[rows]
            out[:, col] = (times - times.astype("datetime64[D]")) / np.timedelta64(1, "h")
    return out


# ---------------------------------------------------------------------------
# MinMax scaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalerColumn:
    index: int
    name: str
    min: float
    max: float


@dataclass(frozen=True)
class MinMaxScaler:
    """Per-numeric-column min/max; one-hot and binary columns pass through."""

    columns: tuple[ScalerColumn, ...]
    width: int

    def to_dict(self) -> dict:
        return {
            "format": SCALER_FORMAT,
            "width": self.width,
            "columns": [
                {"name": c.name, "index": c.index, "min": c.min, "max": c.max}
                for c in self.columns
            ],
        }

    @classmethod
    def from_dict(cls, doc) -> "MinMaxScaler":
        """Inverse of ``to_dict``. ``doc`` comes from a checkpoint file, so
        anything else is a ConfigError."""
        if not isinstance(doc, dict) or doc.get("format") != SCALER_FORMAT:
            raise ConfigError(f"scaler is not a {SCALER_FORMAT} object: {doc!r:.60}")
        try:
            width = int(doc["width"])
            cols = tuple(
                ScalerColumn(int(c["index"]), c["name"], float(c["min"]), float(c["max"]))
                for c in doc["columns"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"scaler is malformed: {exc!r}")
        return cls(cols, width)


def fit_scaler(matrix: np.ndarray, numeric_columns) -> MinMaxScaler:
    """Column-wise min/max over the fitted rows only."""
    cols = []
    for index, name in numeric_columns:
        col = matrix[:, index]
        cols.append(ScalerColumn(index, name, float(col.min()), float(col.max())))
    return MinMaxScaler(tuple(cols), matrix.shape[1])


def transform(scaler: MinMaxScaler, matrix: np.ndarray) -> np.ndarray:
    """Map numeric columns onto [0,1] by the fitted range; constant columns
    map to 0; all other columns pass through unchanged."""
    matrix = np.asarray(matrix, dtype=np.float64)
    out = matrix.copy()
    for c in scaler.columns:
        span = c.max - c.min
        if span == 0.0:
            out[..., c.index] = 0.0
        else:
            out[..., c.index] = (matrix[..., c.index] - c.min) / span
    return out


def inverse_transform(scaler: MinMaxScaler, values: np.ndarray) -> np.ndarray:
    """Undo the scaling of the demand target, the scaler's first column."""
    demand = scaler.columns[0]
    return np.asarray(values, dtype=np.float64) * (demand.max - demand.min) + demand.min


def clamp_scaled(scaler: MinMaxScaler, matrix: np.ndarray,
                 bounds: tuple[float, float] = (-0.05, 1.05)) -> np.ndarray:
    """Clip numeric columns to ``bounds``; out-of-range values only arise
    when transforming data outside the fitted range (test rows)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    lo, hi = bounds
    out = matrix.copy()
    for c in scaler.columns:
        np.clip(out[..., c.index], lo, hi, out=out[..., c.index])
    return out


# ---------------------------------------------------------------------------
# windowing and splitting
# ---------------------------------------------------------------------------

@dataclass
class WindowedDataset:
    """Supervised pairs: inputs (N, p, n), targets (N, m) from column 0;
    ``origins`` holds the start time of each window's first input row."""

    inputs: np.ndarray
    targets: np.ndarray
    origins: np.ndarray  # datetime64
    lookback: int
    horizon: int

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def __getitem__(self, key: slice) -> "WindowedDataset":
        """The windows of a basic slice, as views of these arrays."""
        return WindowedDataset(self.inputs[key], self.targets[key], self.origins[key],
                               self.lookback, self.horizon)

    def target_timestamps(self, i: int) -> np.ndarray:
        """The start time of each forecast step of window ``i``."""
        return grid_times(self.origins[i], self.lookback + self.horizon)[self.lookback:]

    def input_hours(self) -> np.ndarray:
        """The (N, lookback) hour of day of each input step: step t of a
        window whose origin lies in quarter-hour slot s of its day falls in
        hour ((s + t) // 4) mod 24. The ``grid_times`` clock is naive, so no
        DST jump intervenes. The DST fix (a monotonic grid clock, and weekday,
        month, holiday and hour in local time from ``ingest.attach_calendar``)
        must give this rule each step's local hour."""
        origins = np.asarray(self.origins, dtype="datetime64[m]")
        slots = (origins - origins.astype("datetime64[D]")) // np.timedelta64(STEP_SECONDS, "s")
        return (slots[:, None] + np.arange(self.lookback)) // (3600 // STEP_SECONDS) % 24


@dataclass
class SplitDataset:
    train: WindowedDataset
    test: WindowedDataset


def window_count(rows: int, p: int, m: int) -> int:
    """How many windows of p inputs and m targets ``rows`` rows hold at
    stride 1; a GridError if not one."""
    if rows < p + m:
        raise GridError(f"need at least p + m = {p + m} rows to form one window, got {rows}")
    return rows - p - m + 1


def make_windows(matrix: np.ndarray, p: int, m: int, origin,
                 stride: int = 1) -> WindowedDataset:
    """Slide a (p-input, m-target) window over the rows of the (T, n)
    float64 ``matrix`` whose row 0 starts at ``origin``.

    At stride 1 the window count is T - p - m + 1; larger strides subsample
    origins for desk-scale runs. Inputs and targets are read-only views of
    ``matrix``, not copies, so they change if the caller writes to it. p, m
    and the stride are at least 1, as ``Pipeline`` and a checkpoint's model
    config check them.
    """
    n_starts = window_count(matrix.shape[0], p, m)

    # Basic slices of the sliding views keep them views; an index array
    # would copy every window.
    in_view = np.lib.stride_tricks.sliding_window_view(matrix, (p, matrix.shape[1]))
    inputs = in_view[:n_starts, 0]
    targets = np.lib.stride_tricks.sliding_window_view(matrix[:, 0], m)[p:p + n_starts]
    inputs.flags.writeable = False
    targets.flags.writeable = False
    return WindowedDataset(inputs, targets, grid_times(origin, n_starts), p, m)[::stride]


def split(dataset: WindowedDataset, fraction: float = 0.8) -> SplitDataset:
    """Chronological split: the first floor(fraction * N) windows train.
    ``Pipeline`` keeps the fraction in (0, 1) and ``window_count`` N at
    least 1, so the test windows are never empty."""
    cut = int(np.floor(fraction * len(dataset)))
    return SplitDataset(dataset[:cut], dataset[cut:])


@dataclass(frozen=True)
class Pipeline:
    """The run config's ``pipeline`` block: window lengths, the training
    share of the chronological split, the clip range of scaled rows and
    the window stride."""

    lookback: int = 96
    horizon: int = 96
    split_fraction: float = 0.8
    clamp_bounds: tuple[float, float] = (-0.05, 1.05)
    window_stride: int = 1

    def __post_init__(self):
        for name in ("lookback", "horizon", "window_stride"):
            if getattr(self, name) < 1:
                raise ConfigError(f"pipeline '{name}' must be >= 1, got {getattr(self, name)!r}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(f"pipeline 'split_fraction' must lie in (0, 1), "
                              f"got {self.split_fraction!r}")
        low, high = self.clamp_bounds
        if not low <= high:
            raise ConfigError(f"pipeline 'clamp_bounds' must be [low, high] with "
                              f"low <= high, got {[low, high]!r}")
        object.__setattr__(self, "clamp_bounds", (low, high))


def build_dataset(series: IntervalSeries, schema: FeatureSchema,
                  p: int = 96, m: int = 96, fraction: float = 0.8,
                  clamp_bounds: tuple[float, float] = (-0.05, 1.05),
                  stride: int = 1) -> tuple[SplitDataset, MinMaxScaler]:
    """Encode, scale, window, and split a series.

    The scaler is fitted on the chronological training region only, and
    test-region values that fall outside the fitted range are clipped to
    ``clamp_bounds``.
    """
    matrix = encode(series, schema)
    fit_rows = max(int(np.floor(fraction * matrix.shape[0])), 1)
    scaler = fit_scaler(matrix[:fit_rows], schema.numeric_columns())
    scaled = clamp_scaled(scaler, transform(scaler, matrix), clamp_bounds)
    windows = make_windows(scaled, p, m, origin=series.origin, stride=stride)
    return split(windows, fraction), scaler


def scaled_windows(series: IntervalSeries, schema: FeatureSchema, scaler: MinMaxScaler,
                   p: int, m: int, clamp_bounds: tuple[float, float],
                   starts=None) -> WindowedDataset:
    """The (p-input, m-target) windows of ``series``, encoded, scaled with a
    fitted ``scaler`` and clamped: all rows slid at stride 1 (as attention
    reads them), or only the rows of the windows at ``starts`` (as predict
    and explain do; a negative start counts from the end, one out of range
    is a ConfigError), in that order."""
    if starts is None:
        scaled = clamp_scaled(scaler, transform(scaler, encode(series, schema)), clamp_bounds)
        return make_windows(scaled, p, m, series.origin)
    n = window_count(len(series), p, m)
    for i in starts:
        if not -n <= i < n:
            raise ConfigError(f"window index {i} out of range 0..{n - 1}")
    starts = np.array(starts, dtype=np.int64) % n
    rows = (starts[:, None] + np.arange(p + m)).ravel()
    scaled = clamp_scaled(scaler, transform(scaler, encode(series, schema, rows)), clamp_bounds)
    block = scaled.reshape(len(starts), p + m, schema.width)
    return WindowedDataset(block[:, :p], block[:, p:, 0], series.times()[starts], p, m)
