"""Independent oracles used by the test suite.

Everything here is deliberately written without reference to the package
internals (only its error types are shared): scalar loops, minute scans,
and brute-force enumeration pin the semantics that the fast
implementations must match. The exceptions are the single-window
``forward`` and ``predict``, which wrap the package's batch forward,
``shapley_pair``, which runs ``shapley_series`` on one test and one
background window, ``temperature_readings`` and ``session_array``, which
build the inputs of ``join_temperature`` and ``aggregate_demand``, and
``per_row_sessions``, which reads each timestamp with the package's
``parse_timestamp``.
"""

import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from demandcast.errors import ConfigError, ShapeError
from demandcast.explain import shapley_series
from demandcast.ingest import READING, SESSION, parse_timestamp
from demandcast.lstm_att import forward_batch


def temperature_readings(pairs):
    """Temperature readings from (datetime, value) pairs, as the ``READING``
    array ``load_temperature_csv`` returns."""
    return np.array(list(pairs), dtype=READING)


def csv_writer_rows(path, header, rows):
    """A CSV file as ``csv.writer`` writes it: the ``header`` row, then each
    row with every float as ``f"{x:.17g}"``; CRLF line ends."""
    def cell(value):
        return f"{value:.17g}" if isinstance(value, float) else value

    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(map(cell, row))


def csv_writer_table(path, header, times, *columns):
    """A grid file as ``csv_writer_rows`` writes it: per row the time (a
    datetime) as ``YYYY-MM-DD HH:MM:SS`` and the value of each column."""
    csv_writer_rows(path, header, ([t.isoformat(sep=" "), *values] for t, *values
                                   in zip(times, *(np.asarray(c).tolist() for c in columns))))


@dataclass(frozen=True)
class SessionRecord:
    """One raw charging event; the constructor checks the rules of a session."""

    start: datetime
    charge_end: datetime
    disconnect: datetime
    energy_kwh: float

    def __post_init__(self):
        if not (self.start <= self.charge_end <= self.disconnect):
            raise ValueError("session times must satisfy start <= charge_end <= disconnect")
        if self.energy_kwh < 0:
            raise ValueError("energy_kwh must be non-negative")
        if not math.isfinite(self.energy_kwh):
            raise ValueError(f"energy_kwh must be finite, got {self.energy_kwh}")


def session_array(records):
    """``SessionRecord``s as the ``SESSION`` array ``parse_sessions`` returns."""
    return np.array([(r.start, r.charge_end, r.disconnect, r.energy_kwh) for r in records],
                    dtype=SESSION)


def per_row_sessions(text, timezone=None):
    """The ``SessionRecord``s and the (file line, message) errors of a
    sessions CSV, read one row at a time: a row whose cells are all blank is
    skipped, and any other row is a record or an error."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = [h.strip().lower() for h in next(reader)]
    start, charge_end, disconnect, energy = (
        header.index(n) for n in ("start", "charge_end", "disconnect", "energy_kwh"))
    records, errors = [], []
    for row in map(tuple, reader):
        if "".join(row).strip():
            try:
                records.append(SessionRecord(parse_timestamp(row[start], timezone),
                                             parse_timestamp(row[charge_end], timezone),
                                             parse_timestamp(row[disconnect], timezone),
                                             float(row[energy])))
            except (ValueError, IndexError) as exc:
                errors.append((reader.line_num, str(exc)))
    return records, errors


def minute_scan_demand(sessions, origin, n_intervals):
    """Count active sessions by scanning every minute of the grid.

    A session is active at minute t iff start <= t < charge_end.
    """
    counts = [0] * n_intervals
    for k in range(n_intervals):
        seen = set()
        for step in range(15):
            t = origin + timedelta(minutes=15 * k + step)
            for idx, s in enumerate(sessions):
                if s.start <= t < s.charge_end:
                    seen.add(idx)
        counts[k] = len(seen)
    return counts


def loop_grid_times(origin, n):
    """Interval starts of a grid: origin + k * 15 min for each row k."""
    return [origin + k * timedelta(minutes=15) for k in range(n)]


def loop_calendar(origin, n, holidays):
    """Weekday, month and holiday flag of each interval start, stepping a
    datetime 15 minutes at a time from ``origin``."""
    weekday, month, holiday = [], [], []
    ts = origin
    for _ in range(n):
        weekday.append(ts.weekday())
        month.append(ts.month)
        holiday.append(ts.date() in holidays)
        ts += timedelta(minutes=15)
    return weekday, month, holiday


def enumerate_windows(matrix, p, m):
    """Brute-force sliding windows: inputs rows [i, i+p), targets column 0
    of rows [i+p, i+p+m), for every valid start i."""
    matrix = np.asarray(matrix, dtype=float)
    T = matrix.shape[0]
    inputs, targets = [], []
    for i in range(T - p - m + 1):
        inputs.append(matrix[i:i + p].copy())
        targets.append(matrix[i + p:i + p + m, 0].copy())
    return np.array(inputs), np.array(targets)


def scalar_sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def scalar_lstm_step(x, h_prev, c_prev, W, U, b):
    """One LSTM step written with explicit index loops.

    W/U/b are dicts keyed by gate ("f", "i", "C", "o") holding plain nested
    lists; x, h_prev, c_prev are flat lists.
    """
    hidden = len(h_prev)
    n = len(x)

    def affine(gate, row):
        acc = b[gate][row]
        for j in range(n):
            acc += W[gate][row][j] * x[j]
        for j in range(hidden):
            acc += U[gate][row][j] * h_prev[j]
        return acc

    h_out, c_out = [], []
    for r in range(hidden):
        f = scalar_sigmoid(affine("f", r))
        i = scalar_sigmoid(affine("i", r))
        chat = math.tanh(affine("C", r))
        o = scalar_sigmoid(affine("o", r))
        c = f * c_prev[r] + i * chat
        h = o * math.tanh(c)
        c_out.append(c)
        h_out.append(h)
    return h_out, c_out


def lstm_step(x, h_prev, c_prev, W, U, b):
    """One LSTM cell update on vectors, in numpy.

    W/U/b are dicts keyed by gate ("f", "i", "C", "o") holding (H, n),
    (H, H) and (H,) arrays. Returns (h_t, C_t, {gate: activation}).
    """
    def affine(gate):
        return W[gate] @ x + U[gate] @ h_prev + b[gate]

    def logistic(z):
        return 1.0 / (1.0 + np.exp(-z))

    f = logistic(affine("f"))
    i = logistic(affine("i"))
    chat = np.tanh(affine("C"))
    o = logistic(affine("o"))
    c = f * c_prev + i * chat
    h = o * np.tanh(c)
    return h, c, {"f": f, "i": i, "C": chat, "o": o}


def forward(window, params):
    """Single-window forward; returns ((m,) forecast, trace with B = 1)."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise ShapeError(f"expected a (p, n) window, got shape {window.shape}")
    out, trace = forward_batch(window[None, :, :], params)
    return out[0], trace


def predict(window, params):
    """The (m,) forecast of one (p, n) window."""
    return forward(window, params)[0]


def attention(hidden_states, w_a, b_a):
    """Additive attention over a (p, H) state sequence: softmax over time
    of tanh(h_t . w_a + b_a). Returns the weights (p,) and the context
    vector (H,)."""
    scores = np.tanh(hidden_states @ w_a + b_a)
    exps = np.exp(scores - scores.max())
    weights = exps / exps.sum()
    return weights, weights @ hidden_states


def central_difference(f, arr, eps=1e-5):
    """Numeric gradient of scalar f w.r.t. every element of arr, in place."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = arr[idx]
        arr[idx] = old + eps
        up = f()
        arr[idx] = old - eps
        down = f()
        arr[idx] = old
        grad[idx] = (up - down) / (2.0 * eps)
    return grad


def relative_error(a, b, floor=1e-8):
    return np.abs(a - b) / (np.abs(a) + np.abs(b) + floor)


def scalar_adam_trajectory(grad_fn, w0, lr, steps,
                           beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference scalar Adam: returns the weight after each update."""
    w = w0
    m = 0.0
    v = 0.0
    out = []
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        w = w - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(w)
    return out


def adam_reference_step(values, grads, ms, vs, t, lr,
                        beta1=0.9, beta2=0.999, eps=1e-8):
    """Out-of-place bias-corrected Adam step number ``t`` over lists of
    arrays; returns the new (values, ms, vs)."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    out_values, out_ms, out_vs = [], [], []
    for value, g, m, v in zip(values, grads, ms, vs):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        out_values.append(value - lr * m_hat / (np.sqrt(v_hat) + eps))
        out_ms.append(m)
        out_vs.append(v)
    return out_values, out_ms, out_vs


def linear_window_model(weights):
    """f(window) = sum_j w_j * mean_t(window[t, j]), emitted as a length-1
    forecast per window of a (B, p, n) batch, the shapley predict_fn
    interface."""
    weights = np.asarray(weights, dtype=float)

    def predict(windows):
        return (np.mean(windows, axis=1) @ weights)[:, None]

    return predict


def shapley_pair(predict_fn, test, background, groups, step=None):
    """The ShapReport of one test window against one background window."""
    return shapley_series(predict_fn, [("test", test)], [background], groups, step)[1][0]


def mask(test, background, coalition, groups):
    """Columns of groups in the coalition come from ``test``; all other
    columns come from ``background``, uniformly across all timesteps.
    ``coalition`` holds groups or group names."""
    test = np.asarray(test, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    if test.shape != background.shape:
        raise ShapeError(
            f"test {test.shape} and background {background.shape} windows differ"
        )
    names = {getattr(item, "name", item) for item in coalition}
    by_name = {g.name: g for g in groups}
    unknown = names.difference(by_name)
    if unknown:
        raise ConfigError(f"unknown feature groups: {sorted(unknown)}")
    out = background.copy()
    for name in names:
        cols = list(by_name[name].columns)
        out[:, cols] = test[:, cols]
    return out


def loop_coalition_values(predict_one, test, backgrounds, groups, step):
    """Value of every coalition bitmask, one masked window at a time:
    ``predict_one`` maps a (p, n) window to its (m,) forecast, aggregated
    by the mean or the ``step``-th output and averaged over backgrounds."""
    k = len(groups)
    values = np.zeros(1 << k)
    for bits in range(1 << k):
        coalition = [groups[j] for j in range(k) if bits >> j & 1]
        total = 0.0
        for bg in backgrounds:
            forecast = predict_one(mask(test, bg, coalition, groups))
            total += float(np.mean(forecast)) if step is None else float(forecast[step])
        values[bits] = total / len(backgrounds)
    return values


def loop_attention_profile(weights, origins):
    """Hourly attention mass from (p, N) weights by stepping each window's
    datetime origin 15 minutes at a time; divided by N."""
    buckets = np.zeros(24)
    for j, origin in enumerate(origins):
        for t in range(weights.shape[0]):
            buckets[(origin + t * timedelta(minutes=15)).hour] += weights[t, j]
    return buckets / len(origins)


def linear_shapley(weights, test, background, groups):
    """Closed-form grouped Shapley values for the linear window model."""
    weights = np.asarray(weights, dtype=float)
    t_mean = np.mean(np.asarray(test, dtype=float), axis=0)
    b_mean = np.mean(np.asarray(background, dtype=float), axis=0)
    phi = {}
    for g in groups:
        phi[g.name] = float(sum(weights[j] * (t_mean[j] - b_mean[j])
                                for j in g.columns))
    return phi


def direct_softmax(scores):
    exps = [math.exp(s) for s in scores]
    total = sum(exps)
    return [e / total for e in exps]
