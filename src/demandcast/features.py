"""Feature engineering: one-hot encoding, MinMax scaling, supervised
windowing, and the chronological train/test split.

The canonical layout puts the forecast target (demand, "request") in
column 0, followed by temperature, the holiday flag, and the weekday and
month one-hot groups. Default expanded width is 22; the drop-first-month
option reduces the month group to 11 columns for a width of 21.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from itertools import accumulate

import numpy as np

from .errors import ConfigError, GridError, SchemaError
from .ingest import IntervalSeries, grid_times

SCALER_FORMAT = "demandcast/scaler-v1"


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str  # "numeric" | "binary" | "onehot"
    cardinality: int = 1


@dataclass(frozen=True)
class FeatureSchema:
    features: tuple[FeatureSpec, ...]

    def __post_init__(self):
        if not self.features or self.features[0].name != "request":
            raise SchemaError("schema must start with the 'request' target feature")
        if self.features[0].kind != "numeric":
            raise SchemaError("target feature must be numeric")
        for f in self.features:
            if f.kind not in ("numeric", "binary", "onehot"):
                raise SchemaError(f"unknown feature kind '{f.kind}'")
            if f.kind == "onehot" and f.cardinality < 2:
                raise SchemaError(f"one-hot group '{f.name}' needs cardinality >= 2")
            if f.kind != "onehot" and f.cardinality != 1:
                raise SchemaError(f"feature '{f.name}' cannot have cardinality > 1")
        if self.width < 2:
            raise SchemaError("schema must expand to at least 2 columns")

    @classmethod
    def default(cls, drop_first_month: bool = False,
                include_hour: bool = False) -> "FeatureSchema":
        feats = [
            FeatureSpec("request", "numeric"),
            FeatureSpec("temperature", "numeric"),
            FeatureSpec("holiday", "binary"),
            FeatureSpec("weekday", "onehot", 7),
            FeatureSpec("month", "onehot", 11 if drop_first_month else 12),
        ]
        if include_hour:
            feats.append(FeatureSpec("hour", "numeric"))
        return cls(tuple(feats))

    @property
    def width(self) -> int:
        return sum(f.cardinality for f in self.features)

    def _first_columns(self):
        """Each feature with the index of its first column, in schema order."""
        return zip(self.features, accumulate((f.cardinality for f in self.features), initial=0))

    def numeric_columns(self) -> list[tuple[int, str]]:
        return [(col, f.name) for f, col in self._first_columns() if f.kind == "numeric"]

    def group_columns(self) -> dict[str, tuple[int, ...]]:
        """Column indices per semantic feature group, in schema order."""
        return {f.name: tuple(range(col, col + f.cardinality)) for f, col in self._first_columns()}

    @classmethod
    def from_dict(cls, doc: dict) -> "FeatureSchema":
        return cls(tuple(
            FeatureSpec(f["name"], f["kind"], f.get("cardinality", 1))
            for f in doc["features"]
        ))


def encode(series: IntervalSeries, schema: FeatureSchema) -> np.ndarray:
    """Expand an IntervalSeries into the (T x n) feature matrix.

    With the default schema every one-hot group has exactly one 1 per row;
    under drop-first-month a January row encodes as all zeros in the month
    group (standard dropped-reference encoding).
    """
    required = {"request": series.demand, "temperature": series.temperature,
                "holiday": series.holiday}
    for f in schema.features:
        if f.name in required and required[f.name] is None:
            raise SchemaError(f"series is missing the '{f.name}' column")
    if any(f.name in ("weekday", "month") for f in schema.features):
        if series.weekday is None or series.month is None:
            raise SchemaError("series is missing calendar columns; run attach_calendar")

    T = len(series)
    out = np.zeros((T, schema.width), dtype=np.float64)
    for f, col in schema._first_columns():
        if f.name == "request":
            out[:, col] = series.demand.astype(np.float64)
        elif f.name == "temperature":
            out[:, col] = series.temperature
        elif f.name == "holiday":
            out[:, col] = series.holiday.astype(np.float64)
        elif f.name == "weekday":
            out[np.arange(T), col + series.weekday.astype(np.int64)] = 1.0
        elif f.name == "month":
            month0 = series.month.astype(np.int64) - 1
            if f.cardinality == 11:  # January is the dropped reference level
                keep = month0 > 0
                out[np.arange(T)[keep], col + month0[keep] - 1] = 1.0
            else:
                out[np.arange(T), col + month0] = 1.0
        elif f.name == "hour":
            times = series.times()
            out[:, col] = (times - times.astype("datetime64[D]")) / np.timedelta64(1, "h")
        else:
            raise SchemaError(f"schema feature '{f.name}' has no source column")
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
        if not all(0 <= c.index < width for c in cols):
            raise ConfigError(f"scaler has a column index outside 0..{width - 1}")
        return cls(cols, width)


def fit_scaler(matrix: np.ndarray, numeric_columns) -> MinMaxScaler:
    """Column-wise min/max over the fitted rows only."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise SchemaError("fit_scaler needs a non-empty 2-D matrix")
    cols = []
    for index, name in numeric_columns:
        col = matrix[:, index]
        cols.append(ScalerColumn(index, name, float(col.min()), float(col.max())))
    return MinMaxScaler(tuple(cols), matrix.shape[1])


def _check_scaler(scaler, matrix_width: int) -> None:
    if scaler is None or not isinstance(scaler, MinMaxScaler):
        raise ConfigError("scaler is not fitted")
    if scaler.width != matrix_width:
        raise SchemaError(
            f"scaler fitted for width {scaler.width}, matrix has width {matrix_width}"
        )


def transform(scaler: MinMaxScaler, matrix: np.ndarray) -> np.ndarray:
    """Map numeric columns onto [0,1] by the fitted range; constant columns
    map to 0; all other columns pass through unchanged."""
    matrix = np.asarray(matrix, dtype=np.float64)
    _check_scaler(scaler, matrix.shape[-1])
    out = matrix.copy()
    for c in scaler.columns:
        span = c.max - c.min
        if span == 0.0:
            out[..., c.index] = 0.0
        else:
            out[..., c.index] = (matrix[..., c.index] - c.min) / span
    return out


def inverse_transform(scaler: MinMaxScaler, values: np.ndarray,
                      column: int = 0) -> np.ndarray:
    """Undo scaling for a single column (default: the demand target)."""
    if scaler is None or not isinstance(scaler, MinMaxScaler):
        raise ConfigError("scaler is not fitted")
    values = np.asarray(values, dtype=np.float64)
    for c in scaler.columns:
        if c.index == column:
            return values * (c.max - c.min) + c.min
    return values.copy()  # pass-through column


def clamp_scaled(scaler: MinMaxScaler, matrix: np.ndarray,
                 bounds: tuple[float, float] = (-0.05, 1.05)) -> np.ndarray:
    """Clip numeric columns to ``bounds``; out-of-range values only arise
    when transforming data outside the fitted range (test rows)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    _check_scaler(scaler, matrix.shape[-1])
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

    def target_timestamps(self, i: int) -> np.ndarray:
        """The start time of each forecast step of window ``i``."""
        return grid_times(self.origins[i], self.lookback + self.horizon)[self.lookback:]


@dataclass
class SplitDataset:
    train: WindowedDataset
    test: WindowedDataset


def make_windows(matrix: np.ndarray, p: int = 96, m: int = 96,
                 origin: datetime | None = None,
                 stride: int = 1) -> WindowedDataset:
    """Slide a (p-input, m-target) window over the rows of ``matrix``.

    At stride 1 the window count is T - p - m + 1; larger strides subsample
    origins for desk-scale runs. Inputs and targets are read-only views of
    ``matrix``, not copies, so they change if the caller writes to it.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise SchemaError("make_windows expects a 2-D matrix")
    if p < 1 or m < 1 or stride < 1:
        raise ConfigError("p, m, and stride must be positive")
    T = matrix.shape[0]
    if T < p + m:
        raise GridError(
            f"need at least p + m = {p + m} rows to form one window, got {T}"
        )
    n_starts = T - p - m + 1

    # Basic slices of the sliding views keep them views; an index array
    # would copy every window.
    in_view = np.lib.stride_tricks.sliding_window_view(matrix, (p, matrix.shape[1]))
    inputs = in_view[:n_starts:stride, 0]
    tgt_view = np.lib.stride_tricks.sliding_window_view(matrix[:, 0], m)
    targets = tgt_view[p:p + n_starts:stride]
    inputs.flags.writeable = False
    targets.flags.writeable = False

    if origin is None:
        origin = datetime(2000, 1, 3)  # placeholder grid start (a Monday)
    origins = grid_times(origin, n_starts)[::stride]
    return WindowedDataset(inputs, targets, origins, p, m)


def split(dataset: WindowedDataset, fraction: float = 0.8) -> SplitDataset:
    """Chronological split: the first floor(fraction * N) windows train."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"split fraction must lie in (0,1), got {fraction}")
    N = len(dataset)
    if N == 0:
        raise GridError("cannot split an empty dataset")
    cut = int(np.floor(fraction * N))
    train = WindowedDataset(dataset.inputs[:cut], dataset.targets[:cut],
                            dataset.origins[:cut], dataset.lookback, dataset.horizon)
    test = WindowedDataset(dataset.inputs[cut:], dataset.targets[cut:],
                           dataset.origins[cut:], dataset.lookback, dataset.horizon)
    return SplitDataset(train, test)


def build_dataset(series: IntervalSeries, schema: FeatureSchema,
                  p: int = 96, m: int = 96, fraction: float = 0.8,
                  scale_before_split: bool = False,
                  clamp_bounds: tuple[float, float] = (-0.05, 1.05),
                  stride: int = 1) -> tuple[SplitDataset, MinMaxScaler]:
    """Encode, scale, window, and split a series.

    By default the scaler is fitted on the chronological training region
    only, and test-region values that fall outside the fitted range are
    clipped to ``clamp_bounds``. ``scale_before_split`` fits on everything
    instead (no clipping needed), trading leakage for replication of the
    scale-then-split order.
    """
    matrix = encode(series, schema)
    if scale_before_split:
        scaler = fit_scaler(matrix, schema.numeric_columns())
        scaled = transform(scaler, matrix)
    else:
        fit_rows = int(np.floor(fraction * matrix.shape[0]))
        fit_rows = max(fit_rows, 1)
        scaler = fit_scaler(matrix[:fit_rows], schema.numeric_columns())
        scaled = clamp_scaled(scaler, transform(scaler, matrix), clamp_bounds)
    windows = make_windows(scaled, p, m, origin=series.origin, stride=stride)
    return split(windows, fraction), scaler
