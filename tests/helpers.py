"""Independent oracles used by the test suite.

Everything here is deliberately written without reference to the package
internals (only its error types are shared): scalar loops, minute scans,
and brute-force enumeration pin the semantics that the fast
implementations must match. The exceptions are the single-window
``forward`` and ``predict``, which wrap the package's batch forward,
``batch_first``, which views its batch-last trace in the row-major layout,
``shapley_pair``, which runs ``shapley_series`` on one test and one
background window, ``temperature_readings`` and ``session_array``, which
build the inputs of ``join_temperature`` and ``aggregate_demand``,
``per_row_sessions``, which reads each timestamp with the package's
``parse_timestamp``, and ``format_times``, which decodes the package's
``time_text``. ``outcome`` and ``both_ways`` read a whole-file loader's
result by byte offsets and with every row read cell by cell, and
``random_csv``, ``mutated_export``, ``round_trip_series`` and
``random_table`` generate the seeded inputs of the differential reader and
writer check (``tests/differential.py``).
``SeparateParams``, ``per_tensor_clip`` and ``per_tensor_adam_step`` are the
per-tensor training update that the flat parameter arena replaced, and
``float64_norm`` the clip norm's float64 oracle;
``sigmoid``, ``whole_batch_forward`` and
``row_major_backward`` are the gate squash, the batched forward and its
backward pass in the row-major (B, 4H) step layout that the batch-last core
replaced; ``assert_close`` and ``assert_trace_close`` bound how far the
core may be from them, and ``random_model`` draws the seeded shapes of the
differential model check. The checkpoint helpers read and rewrite checkpoint
files byte by byte, and ``CHECKPOINT_CORRUPTIONS`` is the table of broken
files that both the loader's and the command line's tests run.
"""

import base64
import csv
import io
import json
import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from demandcast import ingest
from demandcast.errors import ConfigError, ShapeError
from demandcast.explain import shapley_series
from demandcast.ingest import (
    READING,
    SESSION,
    IntervalSeries,
    parse_timestamp,
    time_text,
    write_dataset,
    write_demand_grid,
    write_temperature_csv,
)
from demandcast.lstm_att import HEAD_INPUTS, ModelConfig, ModelParams, _head_in, forward_batch
from demandcast.synth import SynthConfig, generate


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


def format_times(times) -> list[str]:
    """``YYYY-MM-DD HH:MM:SS`` text of each time, whole seconds (``NaT`` for
    not-a-time): ``time_text`` as str."""
    return [t.decode().replace("\0", "") for t in time_text(times).tolist()]


def per_row_sessions(text, timezone=None):
    """The ``SessionRecord``s and the (file line, message) errors of a
    sessions CSV, less one leading byte-order mark, read one row at a time: a
    row whose cells are all blank is skipped, and any other row is a record
    or an error."""
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
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


def outcome(loader, *args):
    """What ``loader(*args)`` returns, as origin, dtypes and array bytes, or
    the type and message of what it raises."""
    try:
        result = loader(*args)
    except Exception as exc:  # the per-row reader's error is the expected outcome
        return type(exc), str(exc)
    if isinstance(result, IntervalSeries):
        columns = (result.demand, result.temperature, result.weekday, result.month,
                   result.holiday)
        return repr(result.origin), [None if c is None else (c.dtype.str, c.tobytes())
                                     for c in columns]
    return result.dtype.descr, result.tobytes()


def both_ways(monkeypatch, tmp_path, loader, *args):
    """The outcome of ``loader(*args)``, the outcome of the per-row oracle
    (the same loader with no text taken as plain, so that every row is read
    cell by cell), and whether the first call read every row by byte
    offsets: no row cell by cell. Each call has its own empty dataset cache,
    so neither reads what the other kept. The oracle must ask whether its
    text is plain, and so be told that it is not, even if it fails before
    any row (bytes that are not UTF-8)."""
    rows, asked = [], []
    read_rows = ingest._read_rows

    def counted(*a):
        rows.extend(a[0])
        return read_rows(*a)

    with monkeypatch.context() as m:
        m.setenv("XDG_CACHE_HOME", str(tmp_path / "cache-got"))
        m.setattr(ingest, "_read_rows", counted)
        got = outcome(loader, *args)
    columnar, got_rows = not rows, len(rows)
    with monkeypatch.context() as m:
        m.setenv("XDG_CACHE_HOME", str(tmp_path / "cache-want"))
        m.setattr(ingest, "_read_rows", counted)
        m.setattr(ingest, "_is_plain", lambda data: asked.append(data) or False)
        want = outcome(loader, *args)
    assert asked, "the oracle never asked whether its text is plain"
    assert len(rows) >= 2 * got_rows, "the oracle read fewer rows cell by cell"
    return got, want, columnar


# The columns of each loader's file, the times first, and what each holds:
# a time, a float, a float >= 0 ("energy") or an integer in a range.
CSV_COLUMNS = {
    "sessions": {"start": "time", "charge_end": "time", "disconnect": "time",
                 "energy_kwh": "energy"},
    "temperature": {"timestamp": "time", "temp_c": "float"},
    "grid": {"timestamp": "time", "demand": (0, 40)},
    "dataset": {"timestamp": "time", "demand": (0, 40), "temp_c": "float", "weekday": (0, 6),
                "month": (1, 12), "holiday": (0, 1)},
}
# Stamps that are wrong as a whole, or that leave datetime's range once
# their offset is applied.
ODD_STAMPS = ["", " ", "NaT", "today", "2023-05-01", "2022-01", "+2023-05-01 00:15:00",
              "9999-12-31T23:00:00-05:00", "0001-01-01T00:00:00+05:00",
              "2023-05-01 00:15:00\x00", "2023-05-01 00:15:0٠", "２023-05-01 00:15:00",
              "2023-05-01\x8500:15:00", "2023-05-01\x0000:15:00", '"2023-05-01 00:15:00"']
# A field of a YYYY-MM-DD HH:MM:SS stamp: its offset and the values that
# leave its range (or, for February 29 and 30, may).
ODD_FIELDS = [(0, "0000"), (5, "13"), (5, "00"), (5, "02-29"), (5, "02-30"), (8, "32"),
              (8, "00"), (11, "24"), (14, "60"), (17, "60"), (17, "69")]
ODD_NUMBERS = ["", " ", "nan", "NaN", "inf", "-inf", "1e500", "-1e500", "1e308", "-0", "+1",
               "1_0", "1__0", "_1", "1.", ".5", "1e0", "1.2.3", "0x10", "١", "1\x00",
               "1\x85", "1\x1c", "warm", "n/a", "99999999999999999999", "9223372036854775807",
               "9223372036854775808", "2.2250738585072011e-308", "5e-324", "1 2", "4\t0"]
NUMBER_BYTES = "0123456789.eE+-_ \t\x0b\x0c"


def random_csv(seed: int, kind: str) -> tuple[str, bool]:
    """A small seeded random CSV text for the loader of ``kind``, a key of
    CSV_COLUMNS, and whether it is regular: plain, with every row and cell
    in a form and range that the loader reads by byte offsets.

    Its header names the loader's columns in any order and case, among extra
    ones. Its rows hold times (a session's three, or a 15-minute or rising
    progression) and numbers, most in the forms the writers give, and each
    cell odd with a chance the file draws: a stamp with no seconds, a ``T``,
    an offset, a fraction, white space or a field out of range (ODD_FIELDS,
    ODD_STAMPS); a number with white space, over NUMBER_BYTES, 25-40 bytes
    wide, or from ODD_NUMBERS; a quoted cell. Rows may be short, long or
    blank; lines end in LF, CRLF, a lone CR or a mix; the text may start
    with a byte-order mark. A few files have several hundred rows and an odd
    stamp near the end. A regular file has no odd cell, row or line end."""
    rng = np.random.default_rng(seed)
    odd = float(rng.choice([0.0, 0.0, 0.0, 0.02, 0.1, 0.3]))
    columns = CSV_COLUMNS[kind]
    names = list(columns) + [str(rng.choice(["note", "site", "x"])) for _ in range(rng.integers(3))]
    order = rng.permutation(len(names))
    header = [_odd_case(rng, names[k]) if rng.random() < 0.1 else names[k] for k in order]
    rows = int(rng.integers(600, 800)) if rng.random() < 0.03 else int(rng.integers(0, 12))
    seconds = rng.random() < 0.7  # else every time is on a whole minute
    form = str(rng.choice(["%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M",
                           "%Y-%m-%dT%H:%M"]))
    origin = datetime(int(rng.integers(1990, 2040)), int(rng.integers(1, 13)),
                      int(rng.integers(1, 29)), int(rng.integers(24)), 15 * int(rng.integers(4)))
    t = origin
    late = rows - 5 if rows >= 600 else -1  # the row with an odd field in a long file
    lines = [",".join(header)]
    for k in range(rows):
        odd_here = odd if late < 0 else 0.0
        cells = {}
        if kind == "sessions":
            offset = int(rng.integers(10**8))
            step = int(rng.integers(60, 30000))
            if not seconds:
                offset, step = offset - offset % 60, step - step % 60
            t = origin + timedelta(seconds=offset)
            times = [t, t + timedelta(seconds=step), t + timedelta(seconds=2 * step)]
            if rng.random() < odd:
                times[0], times[1] = times[1], times[0]
            for name, time in zip(columns, times):
                cells[name] = _random_stamp(rng, time, form, odd_here)
        else:
            cells["timestamp"] = _random_stamp(rng, t, form, odd_here)
            t += timedelta(minutes=15 * (1 if kind != "temperature" else int(rng.integers(1, 5))))
            if rng.random() < odd_here / 4:  # a break in the progression
                t += timedelta(minutes=int(rng.choice([-15, 5, 15])))
        if k == late:
            name = str(rng.choice([n for n in cells]))
            cells[name] = _odd_field(rng, cells[name])
        for name, holds in columns.items():
            if name not in cells:
                cells[name] = _random_number(rng, holds, odd_here)
        row = [cells.get(names[k], str(rng.choice(["", "x", "a b", "1"]))) for k in order]
        if rng.random() < odd_here:
            row = _odd_row(rng, row)
        lines.append(",".join(row))
    end = str(rng.choice(["\n", "\r\n", "\r", "mixed"]))
    ends = [str(rng.choice(["\n", "\r\n"])) if end == "mixed" else end for _ in lines]
    if rng.random() < odd:
        ends[int(rng.integers(len(ends)))] = "\r"
    text = "".join(line + end for line, end in zip(lines, ends))
    if rng.random() < 0.1:
        text = text.rstrip("\r\n")
    regular = odd == 0 and late < 0 and "\r" not in ends
    return ("\ufeff" if rng.random() < 0.1 else "") + text, regular


def _odd_case(rng, name):
    return str(rng.choice([name.upper(), " " + name, name.title() + " "]))


def _random_stamp(rng, time, form, odd):
    """``time`` in ``form``, or with the chance ``odd`` in an odd form."""
    if rng.random() >= odd:
        return time.strftime(form)
    text = time.isoformat(" ", "seconds")
    kind = int(rng.integers(8))
    if kind == 0:
        return str(rng.choice(ODD_STAMPS))
    if kind == 1:
        text = _odd_field(rng, text)
    elif kind == 2:
        text += str(rng.choice(["Z", "+01:00", "-05:00", "+00:00", ".5", ".000", ".250000"]))
    elif kind == 3:
        text = str(rng.choice([" ", "\t", ""])) + text + str(rng.choice([" ", "\t", ""]))
    elif kind == 4:
        text = text[:16] + str(rng.choice(["", " ", ":", ":6"]))
    elif kind == 5:
        text = text[:14] + "60"  # minute 60, no seconds
    if rng.random() < 0.5:
        text = text[:10] + "T" + text[11:]
    if rng.random() < 0.3:
        text = text[:16]
    return text


def _odd_field(rng, text):
    """Stamp ``text`` with one field from ODD_FIELDS."""
    at, field = ODD_FIELDS[int(rng.integers(len(ODD_FIELDS)))]
    return text[:at] + field + text[at + len(field):]


def _random_number(rng, holds, odd):
    """A number cell of a column that ``holds`` what CSV_COLUMNS says; with
    the chance ``odd`` an odd one."""
    if rng.random() >= odd:
        if isinstance(holds, tuple):
            return str(int(rng.integers(holds[0], holds[1] + 1)))
        value = float(rng.normal() * 10.0 ** int(rng.integers(-3, 4)))
        return repr(abs(value) if holds == "energy" else value)
    kind = int(rng.integers(5))
    if kind == 0:
        return str(rng.choice(ODD_NUMBERS))
    if kind == 1:  # over the bytes of a decimal number and white space
        return "".join(rng.choice(list(NUMBER_BYTES), int(rng.integers(1, 8))))
    if kind == 2:  # 25-40 bytes wide
        width = int(rng.integers(25, 41))
        return str(rng.choice(["0.", "1", "-", " "])) + "".join(
            rng.choice(list("0123456789"), width - 2)) + str(rng.choice(["5", " ", "e"]))
    if kind == 3:
        value = _random_number(rng, holds, 0.0)
        return str(rng.choice([" ", "\t", "\x0b", ""])) + value + str(rng.choice([" ", "\x0c", ""]))
    return '"' + _random_number(rng, holds, 0.0) + '"'


def _odd_row(rng, row):
    """``row`` short, long, blank or quoted whole."""
    kind = int(rng.integers(5))
    if kind == 0:
        return row[:int(rng.integers(len(row)))]
    if kind == 1:
        return row + ["x"] * int(rng.integers(1, 3))
    if kind == 2:
        return [str(rng.choice(["", "   ", "\t"]))] * int(rng.integers(1, len(row) + 1))
    if kind == 3:
        return ['"' + cell.replace('"', '""') + '"' for cell in row]
    return row[:1] + ['"a\nb"'] + row[2:]  # a quoted line break


# The bytes a mutation of an exported file inserts or substitutes.
MUTATION_BYTES = b'0123456789,\n\r -.:T+eE_"x\t\x00\xff\xc3'
EXPORT_KINDS = ("grid", "temperature", "dataset")


def mutated_export(seed: int, path) -> str:
    """Write to ``path`` one file of a seeded 3-day synth export (the demand
    grid, temperature or dataset file, as its writer writes it) with 1-3
    byte substitutions, insertions or deletions of MUTATION_BYTES at random
    offsets; return its kind, a key of CSV_COLUMNS."""
    rng = np.random.default_rng(seed)
    start = date(int(rng.integers(1990, 2040)), int(rng.integers(1, 13)), int(rng.integers(1, 29)))
    series, _ = generate(SynthConfig(days=3, seed=int(rng.integers(1000)), start=start))
    kind = EXPORT_KINDS[int(rng.integers(len(EXPORT_KINDS)))]
    if kind == "grid":
        write_demand_grid(path, series)
    elif kind == "temperature":
        write_temperature_csv(path, series.times(), series.temperature)
    else:
        write_dataset(path, series)
    data = bytearray(Path(path).read_bytes())
    for _ in range(int(rng.integers(1, 4))):
        op, byte = int(rng.integers(3)), MUTATION_BYTES[int(rng.integers(len(MUTATION_BYTES)))]
        at = int(rng.integers(len(data) + (op == 1)))
        if op == 0:
            data[at] = byte
        elif op == 1:
            data.insert(at, byte)
        else:
            del data[at]
    Path(path).write_bytes(bytes(data))
    return kind


# Values a round trip must keep to the bit: subnormals, both zeros, the
# largest doubles and the ends of the integer range.
EDGE_FLOATS = [5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 0.0, -0.0,
               1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]
EDGE_DEMAND = [0, 2**63 - 1, 1, 10**18]


def round_trip_series(seed: int) -> tuple[IntervalSeries, np.ndarray]:
    """A seeded dataset series of 1-60 rows whose temperatures are drawn
    from EDGE_FLOATS, random finite doubles and values of a few degrees,
    and whose demand is drawn from EDGE_DEMAND and random int64s; and as
    many rising whole-second times from its origin, for its readings."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 61))
    bits = rng.integers(0, 2**63, size=n).view(np.float64)
    temps = np.where(np.isfinite(bits), bits, 0.0) * rng.choice([1, -1], n)
    pick = rng.integers(3, size=n)
    temps[pick == 1] = rng.choice(EDGE_FLOATS, n)[pick == 1]
    temps[pick == 2] = np.round(rng.normal(15.0, 10.0, n), 2)[pick == 2]
    demand = np.where(rng.random(n) < 0.5, rng.choice(EDGE_DEMAND, n),
                      rng.integers(0, 2**63 - 1, size=n, dtype=np.int64))
    origin = datetime(int(rng.integers(1, 9999)), int(rng.integers(1, 13)),
                      int(rng.integers(1, 29)), int(rng.integers(24)), 15 * int(rng.integers(4)))
    times = np.datetime64(origin, "s") + np.cumsum(rng.integers(1, 10**5, n))
    return IntervalSeries(origin=origin, demand=demand, temperature=temps,
                          weekday=rng.integers(0, 7, n).astype(np.int8),
                          month=rng.integers(1, 13, n).astype(np.int8),
                          holiday=rng.random(n) < 0.2), times


# Integers a %d column must render at the edges of int64 and where a
# digit is added; text a %s column must copy, with no comma, quote, line
# break or NUL, which write_csv does not quote.
EDGE_INTS = [-2**63, -2**63 + 1, -10**18, -1, 0, 1, 9, 10, 10**18 - 1, 10**18, 2**63 - 2,
             2**63 - 1]
TABLE_TEXT = [" ", "a", "a b", "x;y", "\t", "é", "日本", "nan", "-0", "1e5", "'q'", "#"]


def random_table(seed: int) -> tuple[list[str], str, list]:
    """A seeded table for ``util.write_csv``: its header, its row format and
    its columns, 1-5 of them and 0-60 rows. A ``%d`` column is int64, int32,
    int8 or uint64, drawn from EDGE_INTS (those that fit) and random values
    of its type. A ``%.17g`` column is float64 from EDGE_FLOATS, random
    bits (NaN and the infinities too), values of a few degrees and values
    near 1e-4 and 1e15, where the writer's positional rendering ends. A
    ``%s`` column is a list of str, or their UTF-8 bytes as numpy ``S``,
    joined from TABLE_TEXT; it may hold an empty cell unless it is the only
    column, as ``write_csv`` asks."""
    rng = np.random.default_rng(seed)
    n, width = int(rng.integers(61)), int(rng.integers(1, 6))
    specs, columns = [], []
    for _ in range(width):
        kind = int(rng.integers(3))
        if kind == 0:
            dtype = np.dtype(str(rng.choice(["int64", "int32", "int8", "uint64"])))
            info = np.iinfo(dtype)
            edges = [v for v in EDGE_INTS if info.min <= v <= info.max]
            column = rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True)
            pick = rng.random(n) < 0.5
            column[pick] = rng.choice(np.array(edges, dtype), n)[pick]
            specs.append("%d")
        elif kind == 1:
            bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
            choices = [bits, rng.choice(EDGE_FLOATS, n), np.round(rng.normal(15.0, 10.0, n), 2),
                       rng.choice([1e-4, 1e15], n) * (1 + rng.normal(0, 1e-15, n))
                       * rng.choice([1, -1], n)]
            column = np.choose(rng.integers(len(choices), size=n), choices)
            specs.append("%.17g")
        else:
            parts = rng.integers(0 if width > 1 else 1, 4, n)
            column = ["".join(rng.choice(TABLE_TEXT, k)) for k in parts]
            if rng.random() < 0.5:
                column = np.array([text.encode() for text in column], dtype="S")
            specs.append("%s")
        columns.append(column)
    return [f"c{k}" for k in range(width)], ",".join(specs), columns


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


def sigmoid(x, out=None):
    """Logistic function as 0.5 * (tanh(x / 2) + 1), which cannot overflow
    for large |x|. ``out`` may be ``x`` itself, to squash a buffer in place.
    """
    out = np.multiply(np.asarray(x, dtype=np.float64), 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def whole_batch_forward(windows, params):
    """The batched forward in the row-major step layout: one
    input-projection GEMM of the whole batch into the (p, B, 4H) gate
    buffer, one bias pass, then per step the (B, H) @ (H, 4H) recurrent
    GEMM, ``sigmoid`` on the f/i/o block and ``tanh`` on Chat. Returns
    ((B, m) forecasts, a namespace with the trace's fields, which
    ``row_major_backward`` reads)."""
    cfg = params.config
    windows = np.asarray(windows, dtype=np.float64)
    B, p, n = windows.shape
    H = cfg.hidden
    xs = np.ascontiguousarray(windows.transpose(1, 0, 2))
    gates = np.empty((p, B, 4 * H))
    np.matmul(xs.reshape(p * B, n), params.W.value.T, out=gates.reshape(p * B, 4 * H))
    gates += params.b.value
    cell = np.empty((p, B, H))
    hidden = np.empty((p, B, H))
    U_T = params.U.value.T
    recurrent = np.empty((B, 4 * H))
    carry = np.empty((B, H))
    for t in range(p):
        g = gates[t]
        if t:
            np.matmul(hidden[t - 1], U_T, out=recurrent)
            g += recurrent
        sig = g[:, :3 * H]
        sigmoid(sig, out=sig)
        chat = g[:, 3 * H:]
        np.tanh(chat, out=chat)
        c = cell[t]
        np.multiply(g[:, H:2 * H], chat, out=c)
        if t:
            np.multiply(g[:, :H], cell[t - 1], out=carry)
            c += carry
        h = hidden[t]
        np.tanh(c, out=h)
        h *= g[:, 2 * H:3 * H]

    scores = weights = context = None
    if cfg.attention:
        raw = np.einsum("tbh,h->tb", hidden, params.W_a.value[0]) + params.b_a.value[0]
        scores = np.tanh(raw)
        shifted = scores - np.max(scores, axis=0, keepdims=True)
        ex = np.exp(shifted)
        weights = ex / np.sum(ex, axis=0, keepdims=True)
        if cfg.head_input == "context":
            context = head_in = np.einsum("tb,tbh->bh", weights, hidden)
        else:
            weighted = np.empty((B, p, H))
            np.multiply(weights.T[:, :, None], hidden.transpose(1, 0, 2), out=weighted)
            head_in = weighted.reshape(B, p * H)
    else:
        head_in = hidden[-1]
    pre_head = head_in @ params.W_out.value.T + params.b_out.value
    output = np.maximum(pre_head, 0.0)
    return output, SimpleNamespace(windows=windows, gates=gates, cell=cell, hidden=hidden,
                                   scores=scores, weights=weights, context=context,
                                   head_in=head_in, pre_head=pre_head, output=output)


# The fields of a ``batch_first`` view that hold values, head included; its
# ``context`` and ``head_in`` are rebuilt from ``weights`` and ``hidden``.
TRACE_FIELDS = ("gates", "cell", "hidden", "scores", "weights", "context", "head_in",
                "pre_head", "output")
# The fields a tape-free trace keeps.
TAPE_FREE_FIELDS = ("hidden", "scores", "weights", "pre_head", "output")
# The batch-last core sums each pre-activation [W U b] [x; h; 1] in one GEMM
# and each weight gradient in one GEMM over steps and windows, in another
# order than the row-major oracles, so the last bits may differ: every
# value must lie within REL_TOL of the oracle's value, or within FLOOR of the
# largest magnitude of its array for a value that sums to near zero.
REL_TOL = 1e-12
FLOOR = 1e-14
# The default float32 arena and recurrence (``lstm_att.DTYPE``) against the
# float64 path on the same seeded draws: a bound on the largest
# |float32 - float64| over the largest |float64| of each array, about three
# times the largest that ``tests/differential.py --suite model --batches 50``
# measured over its 400 random models (in the comments). b_a is one sum of
# p B score-gradient terms that cancel.
FLOAT32_TOL = {
    "output": 1e-5,  # 2.5e-6
    "weights": 1e-6,  # 2.7e-7
    "W": 5e-6,  # 1.3e-6
    "U": 1e-5,  # 2.9e-6
    "b": 1e-5,  # 3.1e-6
    "W_a": 3e-6,  # 8.7e-7
    "b_a": 1e-4,  # 3.3e-5
    "W_out": 3e-6,  # 1.1e-6
    "b_out": 3e-6,  # 5.9e-8: a float64 sum, rounded into the float32 gradient
}


def assert_close(got, want, what):
    """|got - want| <= REL_TOL |want| + FLOOR max|want|, elementwise."""
    assert got.shape == want.shape, what
    atol = FLOOR * np.max(np.abs(want), initial=0.0)
    np.testing.assert_allclose(got, want, rtol=REL_TOL, atol=atol, err_msg=str(what))


def assert_trace_close(got, want):
    """Every value field of two traces, the output included, agrees within
    ``assert_close``; a field one trace lacks, the other lacks too."""
    for name in TRACE_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert_close(a, b, name)


def random_model(seed: int):
    """Seeded parameters with a random bias, a (B, p, n) batch and a (B, m)
    upstream gradient, of a random shape: n in 1..24, H in 1..40, p in 1..40
    (one to three of the weighted_flatten head's ``HEAD_BLOCK`` step blocks),
    m in 1..12, attention on or off, either head (p may differ from the
    lookback where the head allows it) and B in 1..300, which spans both
    sides of the forward's row-half rule and of ``FORWARD_BATCH``."""
    rng = np.random.default_rng(seed)
    attention = bool(rng.integers(2))
    head = HEAD_INPUTS[rng.integers(len(HEAD_INPUTS))]
    lookback = int(rng.integers(1, 41))
    p = lookback if attention and head == "weighted_flatten" else int(rng.integers(1, 41))
    config = ModelConfig(n_features=int(rng.integers(1, 25)), hidden=int(rng.integers(1, 41)),
                         horizon=int(rng.integers(1, 13)), lookback=lookback,
                         attention=attention, head_input=head)
    params = ModelParams.init(config, seed)
    params.b.value[:] = rng.normal(size=params.b.value.shape)
    B = int(rng.integers(1, 301))
    windows = rng.uniform(-1.0, 2.0, size=(B, p, config.n_features))
    return params, windows, rng.normal(size=(B, config.horizon))


def row_major_backward(trace, d_output, params):
    """Reverse-mode pass over a ``whole_batch_forward`` trace in its
    row-major layout: one (B, 4H) row of the gate gradient per step, then
    one GEMM each for dW, dU and the input gradient. Accumulates into each
    tensor's ``grad``, keeps the (p, B) gradient of the raw attention scores
    on the trace as ``d_raw`` (None without attention) and returns the
    (B, p, n) input gradient."""
    cfg = params.config
    p, B, H = trace.hidden.shape
    d_out = np.atleast_2d(np.asarray(d_output, dtype=np.float64))

    # head: y = relu(W_out head_in + b_out)
    dz = d_out * (trace.pre_head > 0)
    params.W_out.grad += dz.T @ trace.head_in
    params.b_out.grad += dz.sum(axis=0)
    d_head_in = dz @ params.W_out.value

    if cfg.attention:
        if cfg.head_input == "context":
            d_w = np.einsum("bh,tbh->tb", d_head_in, trace.hidden)
            dH = trace.weights[:, :, None] * d_head_in[None, :, :]
        else:
            d_weighted = d_head_in.reshape(B, p, H).transpose(1, 0, 2)
            d_w = np.einsum("tbh,tbh->tb", d_weighted, trace.hidden)
            dH = trace.weights[:, :, None] * d_weighted
        # softmax over the time axis, then the tanh score squash
        inner = np.sum(trace.weights * d_w, axis=0, keepdims=True)
        d_e = trace.weights * (d_w - inner)
        trace.d_raw = d_raw = d_e * (1.0 - trace.scores ** 2)
        params.W_a.grad[0] += np.einsum("tb,tbh->h", d_raw, trace.hidden)
        params.b_a.grad[0] += d_raw.sum()
        dH += d_raw[:, :, None] * params.W_a.value[0][None, None, :]
    else:
        trace.d_raw = None
        dH = np.zeros((p, B, H))
        dH[-1] = d_head_in

    # dG_t = local gate derivatives * per-gate multipliers:
    #   local:      s (1 - s) for f, i, o;  1 - Chat^2 for C
    #   multiplier: dC C_{t-1}, dC Chat, dh tanh(C_t), dC i
    gates, cell = trace.gates, trace.cell
    f, i, o, chat = (gates[:, :, k * H:(k + 1) * H] for k in range(4))
    U = params.U.value
    dG = np.empty((p, B, 4 * H))
    mult = np.empty((B, 4 * H))
    m_f, m_i, m_o, m_c = (mult[:, k * H:(k + 1) * H] for k in range(4))
    square = np.empty((B, 4 * H))
    dh_next = np.zeros((B, H))
    dc = np.zeros((B, H))  # dLoss/dC_t, carried back through f
    work = np.empty((B, H))
    for t in range(p - 1, -1, -1):
        dh = dH[t]
        dh += dh_next
        np.tanh(cell[t], out=work)
        np.multiply(dh, work, out=m_o)
        work *= m_o
        np.subtract(dh, work, out=work)  # dh (1 - tanh(C_t)^2)
        work *= o[t]
        dc += work
        if t:
            np.multiply(dc, cell[t - 1], out=m_f)
        else:
            m_f[...] = 0.0  # C_{-1} = 0
        np.multiply(dc, chat[t], out=m_i)
        np.multiply(dc, i[t], out=m_c)
        s = gates[t]
        g = dG[t]
        np.multiply(s, s, out=square)
        np.subtract(s, square, out=g)
        np.subtract(1.0, square[:, 3 * H:], out=g[:, 3 * H:])
        g *= mult
        dc *= f[t]
        np.matmul(g, U, out=dh_next)

    flat_g = dG.reshape(p * B, 4 * H)
    flat_x = np.ascontiguousarray(trace.windows.transpose(1, 0, 2)).reshape(p * B, -1)
    params.W.grad += (flat_x.T @ flat_g).T
    # h_{-1} = 0, so step 0 adds nothing to dU
    params.U.grad += flat_g[B:].T @ trace.hidden[:-1].reshape((p - 1) * B, H)
    params.b.grad += flat_g.sum(axis=0)
    d_inputs = flat_g @ params.W.value
    return d_inputs.reshape(p, B, -1).transpose(1, 0, 2)


# Row-block order of the stacked W, U and b, written out here so that the
# tests pin the layout instead of reading it from the module.
LAYOUT = ("f", "i", "o", "C")


def gate_blocks(params):
    """Per-gate views of the stacked W, U and b, keyed by gate name."""
    H = params.config.hidden

    def split(arr):
        return {g: arr[k * H:(k + 1) * H] for k, g in enumerate(LAYOUT)}

    return split(params.W.value), split(params.U.value), split(params.b.value)


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


def batch_first(trace, config):
    """A ``forward_batch`` trace as (p, B, .) and (B, .) views in the layout
    of a ``whole_batch_forward`` trace, with the ``f``, ``i``, ``o`` and
    ``chat`` blocks of its gates. No trace holds the head input, so a trace
    with a head gets ``head_in`` rebuilt from ``weights`` and ``hidden``:
    the flattened weighted states, or ``_head_in`` for the other heads.
    ``context`` is set for the context head only: at p = 1 a flattened head
    input has a context vector's shape."""
    def swap(a):
        return None if a is None else a.transpose(0, 2, 1)

    H = config.hidden
    gates = swap(trace.gates)
    f, i, o, chat = ((None,) * 4 if gates is None
                     else (gates[:, :, k * H:(k + 1) * H] for k in range(4)))
    if trace.output is None:
        head_in = None
    elif config.attention and config.head_input == "weighted_flatten":
        head_in = (trace.weights[:, None, :] * trace.hidden).reshape(-1, trace.hidden.shape[2]).T
    else:
        head_in = _head_in(config, trace.weights, trace.hidden).T
    context = head_in if config.attention and config.head_input == "context" else None
    return SimpleNamespace(windows=trace.windows, gates=gates, f=f, i=i, o=o, chat=chat,
                           cell=swap(trace.cell), hidden=swap(trace.hidden),
                           scores=trace.scores, weights=trace.weights, context=context,
                           head_in=head_in, pre_head=trace.pre_head, output=trace.output)


def forward(window, params):
    """Single-window forward; returns ((m,) forecast, ``batch_first`` view
    of its trace with B = 1)."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise ShapeError(f"expected a (p, n) window, got shape {window.shape}")
    out, trace = forward_batch(window[None, :, :], params)
    return out[0], batch_first(trace, params.config)


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


class SeparateParams:
    """A model's parameters as separate arrays, the layout the flat arena
    replaced: the same attribute names as ``ModelParams``, each a namespace
    with its own ``value`` copy and zeroed ``grad``. ``forward_batch`` and
    ``backward`` run on it unchanged."""

    def __init__(self, params):
        self.config = params.config
        self.W_a = self.b_a = None
        self.names = [t.name for t in params.tensors()]
        for t in params.tensors():
            setattr(self, t.name, SimpleNamespace(name=t.name, value=t.value.copy(),
                                                  grad=np.zeros_like(t.value)))

    def tensors(self):
        return [getattr(self, name) for name in self.names]


def per_tensor_clip(tensors, max_norm):
    """Gradient clipping as a loop over separate tensors: the global norm
    summed per tensor, each tensor's squares by a float64 dot product in
    the arena's order of terms, then each gradient scaled in place; returns
    the norm. ``float64_norm`` is the norm's own oracle."""
    total = 0.0
    for t in tensors:
        g = t.grad.reshape(-1)
        total += float(np.einsum("i,i->", g, g, dtype=np.float64))
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for t in tensors:
            t.grad *= scale
    return float(norm)


def float64_norm(grads):
    """The L2 norm of a list of arrays: one float64 ``np.sum`` of their
    squares, each taken in float64 (exact for a float32 value)."""
    squares = np.concatenate([np.square(g, dtype=np.float64).ravel() for g in grads])
    return math.sqrt(float(np.sum(squares)))


def per_tensor_adam_step(tensors, ms, vs, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """In-place Adam step number ``t`` as a loop over separate tensors, each
    with its own moment arrays in ``ms`` and ``vs``."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for tensor, m, v in zip(tensors, ms, vs):
        g = tensor.grad
        step, denom = np.empty_like(g), np.empty_like(g)
        m *= beta1
        m += np.multiply(1.0 - beta1, g, out=step)
        v *= beta2
        np.multiply(g, g, out=step)
        v += np.multiply(1.0 - beta2, step, out=step)
        np.sqrt(np.divide(v, bc2, out=denom), out=denom)
        denom += eps
        np.divide(m, bc1, out=step)
        step *= lr
        step /= denom
        tensor.value -= step


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
    return shapley_series(predict_fn, [("test", test)], background[None], groups, step)[1][0]


def mask(test, background, coalition, groups):
    """Columns of groups in the coalition come from ``test``; all other
    columns come from ``background``, uniformly across all timesteps.
    ``coalition`` holds group names, ``groups`` maps names to columns."""
    test = np.asarray(test, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    if test.shape != background.shape:
        raise ShapeError(
            f"test {test.shape} and background {background.shape} windows differ"
        )
    names = set(coalition)
    unknown = names.difference(groups)
    if unknown:
        raise ConfigError(f"unknown feature groups: {sorted(unknown)}")
    out = background.copy()
    for name in names:
        cols = list(groups[name])
        out[:, cols] = test[:, cols]
    return out


def loop_coalition_values(predict_one, test, backgrounds, groups, step):
    """Value of every coalition bitmask, one masked window at a time:
    ``predict_one`` maps a (p, n) window to its (m,) forecast, aggregated
    by the mean or the ``step``-th output and averaged over backgrounds."""
    names = list(groups)
    k = len(names)
    values = np.zeros(1 << k)
    for bits in range(1 << k):
        coalition = [names[j] for j in range(k) if bits >> j & 1]
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
    for name, columns in groups.items():
        phi[name] = float(sum(weights[j] * (t_mean[j] - b_mean[j]) for j in columns))
    return phi


def direct_softmax(scores):
    exps = [math.exp(s) for s in scores]
    total = sum(exps)
    return [e / total for e in exps]


def split_checkpoint(path):
    """A checkpoint file as (its first line parsed as JSON, every byte after
    that line's newline)."""
    head, _, payload = Path(path).read_bytes().partition(b"\n")
    return json.loads(head), payload


def rewrite_checkpoint_header(path, edit):
    """Rewrite a checkpoint's JSON header line as ``edit(header)`` returns
    it; the payload bytes after the line stay as they are."""
    header, payload = split_checkpoint(path)
    Path(path).write_bytes(json.dumps(edit(header)).encode("ascii") + b"\n" + payload)


def as_checkpoint_v3(path, edit=None):
    """Rewrite a checkpoint file as the ``demandcast/checkpoint-v3`` writer
    wrote the same model: the header without its payload dtype, then the
    parameters as little-endian float64. ``edit``, if given, is called with
    that float64 vector first and may change it in place."""
    header, payload = split_checkpoint(path)
    values = np.frombuffer(payload, dtype=header.pop("dtype")).astype("<f8")
    if edit is not None:
        edit(values)
    header["format"] = "demandcast/checkpoint-v3"
    Path(path).write_bytes(json.dumps(header).encode("ascii") + b"\n" + values.tobytes())


def as_checkpoint_v2(path):
    """Rewrite a checkpoint file as the ``demandcast/checkpoint-v2`` writer
    wrote the same model: one JSON document with the same keys, each
    parameter's float64 bytes in base64 beside its shape."""
    as_checkpoint_v3(path)
    header, payload = split_checkpoint(path)
    offset = 0
    for entry in header["params"].values():
        size = 8 * math.prod(entry["shape"])
        entry["data"] = base64.b64encode(payload[offset:offset + size]).decode("ascii")
        offset += size
    header["format"] = "demandcast/checkpoint-v2"
    Path(path).write_text(json.dumps(header), encoding="utf-8")


def _header_edit(edit):
    """A corruption that rewrites the header as ``edit`` leaves it."""
    def corrupt(path):
        def apply(header):
            edit(header)
            return header
        rewrite_checkpoint_header(path, apply)
    return corrupt


def _file_edit(edit):
    """A corruption that replaces the file's bytes with ``edit(bytes)``."""
    return lambda path: Path(path).write_bytes(edit(Path(path).read_bytes()))


def _swap_first_params(header):
    names = list(header["params"])
    order = [names[1], names[0], *names[2:]]
    header["params"] = {name: header["params"][name] for name in order}


def _as_v3_header(header):
    """A v3 header, which names no payload dtype: its payload is float64."""
    header["format"] = "demandcast/checkpoint-v3"
    del header["dtype"]


# A hidden size whose model would take terabytes: a loader that allocates
# before it checks the header against the file cannot load it.
HUGE_HIDDEN = 10 ** 6


def _claim_huge_model(header):
    header["model"]["hidden"] = HUGE_HIDDEN


def _claim_huge_model_and_shapes(header):
    """The header of a HUGE_HIDDEN model, shapes included; the payload stays
    that of the small model."""
    _claim_huge_model(header)
    model = header["model"]
    H, n, m = HUGE_HIDDEN, model["n_features"], model["horizon"]
    head = model["lookback"] * H if model["head_input"] == "weighted_flatten" else H
    shapes = {"W": [4 * H, n], "U": [4 * H, H], "b": [4 * H], "W_a": [1, H], "b_a": [1],
              "W_out": [m, head], "b_out": [m]}
    header["params"] = {name: {"shape": shapes[name]} for name in header["params"]}


# name -> (corrupt(path) that breaks a saved attention model's checkpoint in
# place, the error type load_checkpoint must raise)
CHECKPOINT_CORRUPTIONS = {
    "text": (_file_edit(lambda data: b"{not json"), ConfigError),
    "binary": (_file_edit(lambda data: b"\x80\xff\x00\x01"), ConfigError),
    "list": (_file_edit(lambda data: b"[]"), ConfigError),
    "empty": (_file_edit(lambda data: b""), ConfigError),
    "no_newline": (_file_edit(lambda data: data.replace(b"\n", b"", 1)), ConfigError),
    "header_only": (_file_edit(lambda data: data.partition(b"\n")[0] + b"\n"), ConfigError),
    "truncated": (_file_edit(lambda data: data[:len(data) // 2]), ConfigError),
    "header_not_object": (lambda path: rewrite_checkpoint_header(path, lambda h: [h]),
                          ConfigError),
    "no_model": (_header_edit(lambda h: h.pop("model")), ConfigError),
    "no_params": (_header_edit(lambda h: h.pop("params")), ConfigError),
    "unknown_model_key": (_header_edit(lambda h: h["model"].update(layers=2)), ConfigError),
    "names_out_of_order": (_header_edit(_swap_first_params), ConfigError),
    "name_missing": (_header_edit(lambda h: h["params"].pop("W_a")), ConfigError),
    "name_extra": (_header_edit(lambda h: h["params"].update(W_b={"shape": [1]})),
                   ConfigError),
    "shape_not_a_list": (_header_edit(lambda h: h["params"]["U"].update(shape=12)),
                         ConfigError),
    "shape_mismatch": (_header_edit(lambda h: h["params"]["U"]["shape"].reverse()),
                       ShapeError),
    "short_payload": (_file_edit(lambda data: data[:-8]), ConfigError),
    "short_payload_by_1": (_file_edit(lambda data: data[:-1]), ConfigError),
    "trailing_byte": (_file_edit(lambda data: data + b"\x00"), ConfigError),
    "v2": (as_checkpoint_v2, ConfigError),
    "unknown_dtype": (_header_edit(lambda h: h.update(dtype="<f2")), ConfigError),
    "big_endian_dtype": (_header_edit(lambda h: h.update(dtype=">f4")), ConfigError),
    "float64_dtype_on_float32_payload": (_header_edit(lambda h: h.update(dtype="<f8")),
                                         ConfigError),
    "v3_header_on_float32_payload": (_header_edit(_as_v3_header), ConfigError),
    "huge_model": (_header_edit(_claim_huge_model), ShapeError),
    "huge_model_and_shapes": (_header_edit(_claim_huge_model_and_shapes), ConfigError),
    "float_hidden": (_header_edit(lambda h: h["model"].update(hidden=float(h["model"]["hidden"]))),
                     ConfigError),
    "string_attention": (_header_edit(lambda h: h["model"].update(attention="yes")),
                         ConfigError),
}
