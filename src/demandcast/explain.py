"""Exact grouped Shapley attribution of forecasts, plus the hourly
attention-weight profile.

The groups are a ``{name: columns}`` map, as ``FeatureSchema.group_columns``
returns it. A coalition takes whole feature groups (all of a one-hot
group's columns, across every timestep of the window) from the test
instance; everything else comes from the background instance. With the
schema's five groups the exact enumeration needs only 2^5 = 32 coalitions
per background window, so no sampling approximation is involved and the
Shapley axioms hold to float precision.

Each (coalition, background) pair names a masked window, and pairs that
name the same bytes are forecast once. Identity is exact and decided
before any window is built: every distinct float64 bit pattern of a
group's columns, across the test and the backgrounds, gets an id (bit
patterns, not values, so -0.0 and 0.0 differ), and a pair's window is the
tuple of block ids it takes, the test's for groups in the coalition and
the background's for the rest. The distinct windows are built from one
column-to-group bit map and forecast in chunks of at most ``FORWARD_BATCH``
distinct windows, each one call of the batched ``predict_fn``; only one
chunk exists at a time. Each forecast is then scattered back to every pair
that names its window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .features import WindowedDataset
from .lstm_att import FORWARD_BATCH, ModelParams, forward_batch, model_inputs
from .util import FLOAT_FORMAT, write_csv

@dataclass
class ShapReport:
    test_id: str
    background_id: str
    phi: dict[str, float]
    base_value: float   # value of the empty coalition
    prediction: float   # value of the full coalition
    aggregation: str    # "mean" or "step:k"
    forwarded_windows: int      # distinct masked windows forecast
    efficiency_residual: float  # |sum(phi) - (prediction - base_value)|


@dataclass
class BeeswarmRow:
    instance_id: str
    group: str
    representative: float
    phi: float


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first of each distinct row of a 2-D array, and each
    row's distinct-row number. Rows are compared by their bytes, so the
    float -0.0 and 0.0 differ."""
    if rows.shape[1] == 0:  # a group with no columns: one block
        return np.zeros(1, dtype=np.intp), np.zeros(len(rows), dtype=np.intp)
    rows = np.ascontiguousarray(rows)
    as_bytes = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    _, first, ids = np.unique(as_bytes, return_index=True, return_inverse=True)
    return first, ids.ravel()


def _coalition_values(predict_fn, test: np.ndarray, backgrounds: np.ndarray,
                      groups: dict[str, tuple[int, ...]],
                      step: int | None) -> tuple[np.ndarray, int]:
    """Value of every coalition bitmask: the scalar-aggregated forecast on
    the masked window, averaged over the (nb, p, n) background windows;
    and the number of distinct masked windows forecast.

    Row r of the flat grid is coalition r // nb against background r % nb.
    """
    nb, k = len(backgrounds), len(groups)
    column_bits = np.zeros(test.shape[1], dtype=np.int64)  # bit j: in the j-th group
    block_ids = np.empty((nb + 1, k), dtype=np.int64)  # row 0: test; 1 + b: background b
    for j, columns in enumerate(groups.values()):
        cols = list(columns)
        column_bits[cols] = 1 << j
        blocks = np.concatenate([test[None, :, cols], backgrounds[:, :, cols]])
        block_ids[:, j] = _distinct_rows(blocks.reshape(nb + 1, -1))[1]
    in_coalition = (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(bool)
    keys = np.where(in_coalition[:, None, :], block_ids[0], block_ids[1:])  # (2^k, nb, k)
    first, window_of_row = _distinct_rows(keys.reshape(-1, k))
    forecast_of_window = np.empty(len(first))
    for start in range(0, len(first), FORWARD_BATCH):
        rows = first[start:start + FORWARD_BATCH]  # one row that names each window
        from_test = ((rows // nb)[:, None] & column_bits) != 0  # (rows, n)
        masked = np.where(from_test[:, None, :], test, backgrounds[rows % nb])
        forecast = np.asarray(predict_fn(masked))
        if forecast.ndim != 2 or forecast.shape[0] != len(rows):
            raise ShapeError(
                f"predict_fn returned {forecast.shape} for {len(rows)} windows; "
                "expected (B, m)"
            )
        forecast_of_window[start:start + len(rows)] = (
            forecast.mean(axis=1) if step is None else forecast[:, step])
    values = forecast_of_window[window_of_row]
    return values.reshape(-1, nb).mean(axis=1), len(first)


def _phi_from_values(values: np.ndarray, k: int) -> list[float]:
    fact = [math.factorial(j) for j in range(k + 1)]
    weights = [fact[s] * fact[k - s - 1] / fact[k] for s in range(k)]
    phi = []
    for j in range(k):
        total = 0.0
        for bits in range(1 << k):
            if bits >> j & 1:
                continue
            s = bin(bits).count("1")
            total += weights[s] * (values[bits | (1 << j)] - values[bits])
        phi.append(total)
    return phi


def group_representative(window: np.ndarray, columns: tuple[int, ...]) -> float:
    """Scalar summary of a group's ``columns`` in a window, for beeswarm
    color: single columns use the window mean; one-hot groups use the
    normalized mean category index."""
    window = np.asarray(window, dtype=np.float64)
    cols = list(columns)
    if len(cols) == 1:
        return float(np.mean(window[:, cols[0]]))
    block = window[:, cols]
    idx = np.arange(len(cols), dtype=np.float64)
    weights = block.sum(axis=1)
    weighted = block @ idx
    active = weights > 0
    if not np.any(active):
        return 0.0
    return float(np.mean(weighted[active] / weights[active]) / (len(cols) - 1))


def shapley_series(predict_fn, instances, backgrounds,
                   groups: dict[str, tuple[int, ...]],
                   step: int | None = None) -> tuple[list[BeeswarmRow], list[ShapReport]]:
    """Exact Shapley values of the feature groups for each test instance
    against the background expectation (coalition values averaged over all
    background windows); returns (beeswarm rows, reports).

    ``instances`` is a sequence of (id, (p, n) window); ``backgrounds`` one
    (nb, p, n) array of windows of the same shape; ``groups`` maps each
    group's name to its columns and must partition the n columns, as the
    ``FeatureSchema.group_columns`` map does.
    ``predict_fn`` maps a (B, p, n) batch of windows to the (B, m)
    forecasts; the value of a coalition is the forecast mean (or the
    ``step``-th output). Rows come back sorted by group then instance.
    ``util.write_csv`` writes the ids unquoted, so no id may hold a comma, a
    quote or a line break.
    """
    instances = list(instances)
    if not instances:
        raise ConfigError("no test instances given")
    if not len(backgrounds):
        raise ConfigError("background set is empty")
    k = len(groups)
    reports = []
    rows = []
    for inst_id, window in instances:
        values, forwarded = _coalition_values(predict_fn, window, backgrounds, groups, step)
        phi = _phi_from_values(values, k)
        base_value, prediction = float(values[0]), float(values[-1])
        reports.append(ShapReport(
            test_id=str(inst_id),
            background_id=f"mean[{len(backgrounds)}]",
            phi=dict(zip(groups, phi)),
            base_value=base_value,
            prediction=prediction,
            aggregation="mean" if step is None else f"step:{step}",
            forwarded_windows=forwarded,
            efficiency_residual=float(abs(sum(phi) - (prediction - base_value))),
        ))
        for (name, columns), v in zip(groups.items(), phi):
            rows.append(BeeswarmRow(str(inst_id), name, group_representative(window, columns), v))
    rows.sort(key=lambda r: (r.group, r.instance_id))
    return rows, reports


# ---------------------------------------------------------------------------
# attention export
# ---------------------------------------------------------------------------

def attention_profile(params: ModelParams, windows: WindowedDataset) -> np.ndarray:
    """Mean attention mass per hour of day, averaged across windows, from
    one headless, tape-free ``forward_batch`` call per chunk of
    ``FORWARD_BATCH`` windows: the weights are all it reads.

    Each window's weights are binned by their step's hour, as
    ``WindowedDataset.input_hours`` gives it; the 24 bucket means sum to 1
    because every weight vector does.
    """
    if not params.config.attention:
        raise ConfigError("model has no attention layer to profile")
    inputs = model_inputs(windows.inputs, params.config)
    buckets = np.zeros(24)
    for start in range(0, len(windows), FORWARD_BATCH):
        weights = forward_batch(inputs[start:start + FORWARD_BATCH], params, head=False,
                                tape=False)[1].weights  # (p, B)
        hours = windows[start:start + FORWARD_BATCH].input_hours().T
        buckets += np.bincount(hours.ravel(), weights=weights.ravel(), minlength=24)
    return buckets / len(windows)


def write_attention_csv(path, profile: np.ndarray) -> None:
    write_csv(path, ("hour", "mean_weight"), f"%d,{FLOAT_FORMAT}",
              [range(len(profile)), profile])


def write_shap_csv(path, reports: list[ShapReport]) -> None:
    rows = [(r.test_id, r.background_id, group, phi, r.base_value, r.prediction,
             r.aggregation) for r in reports for group, phi in r.phi.items()]
    write_csv(path, ("test_id", "background_id", "group", "phi", "base_value",
                     "prediction", "aggregation"),
              f"%s,%s,%s,{FLOAT_FORMAT},{FLOAT_FORMAT},{FLOAT_FORMAT},%s",
              [[row[j] for row in rows] for j in range(7)])


def write_beeswarm_csv(path, rows: list[BeeswarmRow]) -> None:
    write_csv(path, ("instance_id", "group", "value", "phi"),
              f"%s,%s,{FLOAT_FORMAT},{FLOAT_FORMAT}",
              [[r.instance_id for r in rows], [r.group for r in rows],
               [r.representative for r in rows], [r.phi for r in rows]])
