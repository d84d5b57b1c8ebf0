"""Raw-data ingestion: charging sessions, the 15-minute demand grid,
temperature joining, and calendar context.

All timestamps are kept as naive local wall-clock datetimes. Inputs that
carry a UTC offset are converted to the configured zone first and the
offset is dropped, since weekday/holiday semantics are local.

``grid_times`` is the one grid clock, the only code that turns a row index
into a time; every other use of interval times is array arithmetic on its
result. The DST fix (a monotonic grid clock with weekday, month, holiday and
hour derived in local time) goes in ``grid_times`` and ``attach_calendar``.

Bad input is a typed error naming the file line. The whole-file loaders
(temperature, holidays, demand grid, dataset) raise SchemaError for a cell
that does not parse, a short row, or a missing header or column, and
GridError for a break in the 15-minute progression; parse_sessions instead
skips each malformed row and collects a RowError with its line.

The temperature, demand grid and dataset loaders read the file's text once.
Plain text takes the columnar path, numpy's C reader: ASCII with no quote,
NUL or \\x1c-\\x1f character and no carriage return outside a CRLF line end,
every timestamp in the form ``format_times`` writes (``YYYY-MM-DD HH:MM:SS``,
or ``T`` as the separator), and every cell, row and time within the loader's
rules. Any other text (another timestamp form such as one with a UTC offset
or a fraction of a second, a quoted, short, all-space or all-comma row, a bad
cell, an out-of-range value or a break in the time rule) is read again by
the per-row reader ``_read_columns``, which reads the same values and names
the file line of the first bad row.
"""

from __future__ import annotations

import csv
import io
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import date, datetime, timedelta
from operator import itemgetter
from zoneinfo import ZoneInfo

import numpy as np

from .errors import GridError, SchemaError
from .util import fmt_float

STEP = timedelta(minutes=15)
STEP_SECONDS = 900
EPOCH = datetime(1970, 1, 1)
TEMP_EDGE_REACH = timedelta(hours=2)
BLOCK_ROWS = 1024


# ---------------------------------------------------------------------------
# timestamps
# ---------------------------------------------------------------------------

def parse_timestamp(text: str, timezone: str | None = None) -> datetime:
    """Parse RFC 3339 or ``YYYY-MM-DD HH:MM`` into a naive local datetime.

    Offset-aware inputs are converted to ``timezone`` (UTC if none is
    configured) before the offset is stripped.
    """
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise ValueError(f"unparseable timestamp {text!r}") from exc
    if ts.tzinfo is not None:
        zone = ZoneInfo(timezone) if timezone else ZoneInfo("UTC")
        ts = ts.astimezone(zone).replace(tzinfo=None)
    return ts


def check_aligned(ts: datetime, what: str = "origin") -> None:
    if ts.minute % 15 or ts.second or ts.microsecond:
        raise GridError(f"{what} {ts.isoformat()} is not on a 15-minute boundary")


def grid_times(origin, n: int) -> np.ndarray:
    """The start of each of the ``n`` intervals of the grid from ``origin``
    (a datetime or datetime64), as naive ``datetime64[s]`` wall-clock times."""
    return np.datetime64(origin, "s") + np.arange(n) * np.timedelta64(STEP_SECONDS, "s")


def format_times(times) -> list[str]:
    """``YYYY-MM-DD HH:MM:SS`` text of each time, whole seconds."""
    text = np.datetime_as_string(np.asarray(times, dtype="datetime64[s]"), unit="s")
    return np.char.replace(text, "T", " ").tolist()


def grid_span(first: datetime, last: datetime) -> tuple[datetime, int]:
    """Origin and number of intervals of the grid that covers [first, last):
    ``first`` rounded down to an interval start, ``last`` rounded up to one,
    and at least one interval."""
    start = (first - EPOCH) // STEP
    end = -((EPOCH - last) // STEP)
    return EPOCH + start * STEP, max(1, end - start)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SessionRecord:
    """One raw charging event."""

    start: datetime
    charge_end: datetime
    disconnect: datetime
    energy_kwh: float

    def __post_init__(self):
        if not (self.start <= self.charge_end <= self.disconnect):
            raise ValueError("session times must satisfy start <= charge_end <= disconnect")
        if self.energy_kwh < 0:
            raise ValueError("energy_kwh must be non-negative")


@dataclass(frozen=True)
class HolidayCalendar:
    dates: frozenset[date]

    @classmethod
    def from_dates(cls, dates) -> "HolidayCalendar":
        return cls(frozenset(dates))

    def __contains__(self, d: date) -> bool:
        return d in self.dates


@dataclass
class IntervalSeries:
    """Regular 15-minute grid of demand counts plus aligned context columns.

    ``temperature`` and the calendar columns are filled progressively by
    join_temperature / attach_calendar; a bare grid is a valid skeleton.
    """

    origin: datetime
    demand: np.ndarray
    temperature: np.ndarray | None = None
    weekday: np.ndarray | None = None   # 0=Mon .. 6=Sun
    month: np.ndarray | None = None     # 1..12
    holiday: np.ndarray | None = None
    _len: int = field(init=False, repr=False)

    def __post_init__(self):
        check_aligned(self.origin)
        self.demand = np.asarray(self.demand)
        if self.demand.ndim != 1:
            raise GridError("demand must be one-dimensional")
        if not np.issubdtype(self.demand.dtype, np.integer):
            as_int = self.demand.astype(np.int64)
            if not np.array_equal(as_int, self.demand):
                raise GridError("demand values must be integers")
            self.demand = as_int
        if np.any(self.demand < 0):
            raise GridError("demand values must be non-negative")
        self._len = len(self.demand)
        for name in ("temperature", "weekday", "month", "holiday"):
            col = getattr(self, name)
            if col is not None and len(col) != self._len:
                raise GridError(f"{name} length {len(col)} != demand length {self._len}")

    def __len__(self) -> int:
        return self._len

    def times(self) -> np.ndarray:
        """The start of every interval; see ``grid_times``."""
        return grid_times(self.origin, self._len)


@dataclass(frozen=True)
class RowError:
    line: int
    message: str


@dataclass
class ParseResult:
    records: list[SessionRecord]
    errors: list[RowError]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

SESSION_COLUMNS = ("start", "charge_end", "disconnect", "energy_kwh")


def parse_sessions(csv_source, timezone: str | None = None) -> ParseResult:
    """Parse a sessions CSV; malformed rows become RowErrors, not exceptions.

    ``csv_source`` may be a path, or a byte or text stream.
    """
    blocks = _read_rows(csv_source, "sessions CSV", SESSION_COLUMNS)
    start, charge_end, disconnect, energy = next(blocks)
    records, errors = [], []
    for lines, rows in blocks:
        for line, row in zip(lines, rows):
            try:
                records.append(SessionRecord(parse_timestamp(row[start], timezone),
                                             parse_timestamp(row[charge_end], timezone),
                                             parse_timestamp(row[disconnect], timezone),
                                             float(row[energy])))
            except (ValueError, IndexError) as exc:
                errors.append(RowError(line, str(exc)))
    return ParseResult(records, errors)


def aggregate_demand(sessions, origin: datetime, n_intervals: int) -> np.ndarray:
    """Count, for each grid interval, the sessions whose charging span
    [start, charge_end) overlaps it. Sessions outside the grid contribute
    nothing; the span ends at charge completion, not disconnect.
    """
    check_aligned(origin)
    if n_intervals < 1:
        raise GridError("n_intervals must be >= 1")
    counts = np.zeros(n_intervals, dtype=np.int64)
    for s in sessions:
        ts = _seconds_from(origin, s.start)
        te = _seconds_from(origin, s.charge_end)
        if te <= ts:
            continue  # empty charging span
        first = max(0, ts // STEP_SECONDS)
        last = min(n_intervals, -((-te) // STEP_SECONDS))
        if first < last:
            counts[first:last] += 1
    return counts


def _seconds_from(origin: datetime, ts: datetime) -> int:
    td = ts - origin
    return td.days * 86400 + td.seconds


def join_temperature(grid: IntervalSeries, readings: np.ndarray) -> IntervalSeries:
    """Attach a temperature value to every interval from ``readings``, a
    ``READING`` array as ``load_temperature_csv`` returns.

    Exact-timestamp readings are copied through; interior intervals are
    linearly interpolated between the bracketing readings; intervals before
    the first or after the last reading take that boundary reading if it is
    within 2 hours, otherwise the interval is reported as an error.
    """
    if not len(readings):
        raise GridError("temperature readings are empty")
    xs = _epoch_seconds(readings["time"])
    if np.any(np.diff(xs) <= 0):
        raise SchemaError("temperature readings must be strictly increasing in time")

    times = grid.times()
    grid_x = _epoch_seconds(times)
    values = np.interp(grid_x, xs, readings["temp_c"])

    reach = TEMP_EDGE_REACH.total_seconds()
    before = grid_x < xs[0]
    after = grid_x > xs[-1]
    bad_before = before & (xs[0] - grid_x > reach)
    bad_after = after & (grid_x - xs[-1] > reach)
    if bad_before.any() or bad_after.any():
        k = int(np.argmax(bad_before)) if bad_before.any() else int(np.argmax(bad_after))
        raise GridError(
            f"no temperature reading within reach of interval {times[k].item().isoformat()}"
        )
    return replace(grid, temperature=values)


def _epoch_seconds(times: np.ndarray) -> np.ndarray:
    return (times - np.datetime64(EPOCH, "s")) / np.timedelta64(1, "s")


def attach_calendar(grid: IntervalSeries, holidays: HolidayCalendar) -> IntervalSeries:
    """Derive weekday, month, and holiday flags from each interval start."""
    days = grid.times().astype("datetime64[D]")
    weekday = (days.astype(np.int64) + 3) % 7  # 1970-01-01 was a Thursday
    month = days.astype("datetime64[M]").astype(np.int64) % 12 + 1
    holiday = np.isin(days, np.array(sorted(holidays.dates), dtype="datetime64[D]"))
    return replace(grid, weekday=weekday.astype(np.int8), month=month.astype(np.int8),
                   holiday=holiday)


# ---------------------------------------------------------------------------
# file interfaces
# ---------------------------------------------------------------------------

@contextmanager
def _open_text(source):
    """A text stream over a path or a byte or text stream; a file opened
    from a path is closed on exit."""
    if isinstance(source, str) or hasattr(source, "__fspath__"):
        with open(source, "r", newline="", encoding="utf-8") as fh:
            yield fh
    elif hasattr(source, "read"):
        text = not isinstance(source.read(0), bytes)
        yield source if text else io.TextIOWrapper(source, encoding="utf-8", newline="")
    else:
        raise SchemaError(f"unsupported CSV source {type(source).__name__}")


def _column_positions(reader, kind: str, names) -> list[int]:
    """The position of each of ``names`` in the header row of ``reader``,
    which may list them in any order among other columns."""
    header = next(reader, None)
    if header is None:
        raise SchemaError(f"{kind} line 1: no header, the file is empty")
    cols = [h.strip().lower() for h in header]
    missing = [n for n in names if n not in cols]
    if missing:
        raise SchemaError(f"{kind} line 1: missing columns: {', '.join(missing)}")
    return [cols.index(n) for n in names]


def _read_rows(source, kind: str, names):
    """Read a CSV whose header names every column in ``names``.

    Yields the position of each named column, then the data rows that are
    not blank in blocks of (file lines, rows) of at most BLOCK_ROWS rows, so
    that a large file never holds all its raw cells at once."""
    with _open_text(source) as stream:
        reader = csv.reader(stream)
        yield _column_positions(reader, kind, names)
        lines, rows = [], []
        for row in reader:
            if "".join(row).strip():
                lines.append(reader.line_num)
                rows.append(tuple(row))  # a tuple of str drops out of the cyclic GC
                if len(rows) == BLOCK_ROWS:
                    yield lines, rows
                    lines, rows = [], []
        yield lines, rows


def _parse_cell(kind: str, line: int, column: str, parse, cells, i: int):
    """``parse(cells[i])``, or a SchemaError naming the file line and column."""
    try:
        return parse(cells[i])
    except (ValueError, IndexError) as exc:
        reason = "missing value" if isinstance(exc, IndexError) else str(exc)
        raise SchemaError(f"{kind} line {line}: {column}: {reason}") from None


def _read_columns(source, kind: str, parsers: dict) -> tuple[list[int], list[list]]:
    """The file line of every data row, and one list of parsed cells per
    column of ``parsers`` (column name -> cell parser). A bad cell is the
    SchemaError of ``_parse_cell`` for the first row that has one."""
    blocks = _read_rows(source, kind, parsers)
    spec = list(zip(parsers, next(blocks), parsers.values()))
    all_lines, columns = [], [[] for _ in spec]
    for lines, rows in blocks:
        try:
            for values, (_, i, parse) in zip(columns, spec):
                values.extend(map(parse, map(itemgetter(i), rows)))
        except (ValueError, IndexError):
            for line, row in zip(lines, rows):
                for column, i, parse in spec:
                    _parse_cell(kind, line, column, parse, row, i)
            raise
        all_lines += lines
    return all_lines, columns


def _bounded_int(low: int, high: int):
    """A cell parser for an integer in [low, high]."""
    def parse(text: str) -> int:
        if not low <= (value := int(text)) <= high:
            raise ValueError(f"{value} is outside {low}..{high}")
        return value
    return parse


# Each column of the whole-file loaders: its numpy type on the columnar path
# (an S20 timestamp holds one character more than the plain form, so that a
# longer cell shows), and the inclusive bounds of a bounded integer.
_COLUMNS = {
    "timestamp": ("S20", None),
    "demand": (np.int64, None),
    "temp_c": (np.float64, None),
    "weekday": (np.int64, (0, 6)),
    "month": (np.int64, (1, 12)),
    "holiday": (np.int64, (0, 1)),
}
# Characters numpy's C reader reads otherwise than the per-row reader: the
# quote (csv quoting), NUL (the pad of a numpy string) and \x1c-\x1f (white
# space to numpy's number parsers, not to int and float). A carriage return
# is plain only as part of a CRLF line end.
_NOT_PLAIN = '"\x00\x1c\x1d\x1e\x1f'
# A plain timestamp in an S20 cell, once translated by _STAMP_CLASSES:
# every digit to "d" and the "T" separator to " ".
_STAMP = b"dddd-dd-dd dd:dd:dd\0"
_STAMP_CLASSES = bytes.maketrans(b"0123456789T", b"dddddddddd ")
_MICROSECOND = timedelta(microseconds=1)


def _cell_parser(name: str, timezone: str | None):
    """The per-row reader's parser of a cell of column ``name``."""
    dtype, bounds = _COLUMNS[name]
    if name == "timestamp":
        return lambda text: parse_timestamp(text, timezone)
    if bounds:
        return _bounded_int(*bounds)
    return int if dtype is np.int64 else float


def _columnar(text: str, kind: str, names) -> list[np.ndarray]:
    """The columns ``names`` (the timestamp first) of plain CSV text, read
    by numpy's C reader: the timestamp as datetime64[s], the others as int64
    within their bounds or as float64. Any other text is a ValueError or,
    for a file with no data rows, a warning."""
    if (not text.isascii() or any(c in text for c in _NOT_PLAIN)
            or ("\r" in text and text.count("\r") != text.count("\r\n"))):
        raise ValueError("text is not plain")
    body = text.find("\n") + 1 or len(text)
    header = csv.reader(io.StringIO(text[:body], newline=""))
    usecols = _column_positions(header, kind, names)
    # numpy reads lines of bytes faster than lines of str, and from a byte
    # copy of the text, not a StringIO's buffer of four bytes a character
    stream = io.BytesIO(text.encode("ascii"))
    stream.seek(body)
    table = np.loadtxt(stream, dtype=[(n, _COLUMNS[n][0]) for n in names], delimiter=",",
                       comments=None, usecols=usecols, ndmin=1, encoding="ascii")
    stamps = table["timestamp"]
    if stamps.tobytes().translate(_STAMP_CLASSES) != _STAMP * len(stamps):
        raise ValueError("a timestamp is not in the plain form")
    times = stamps.astype("datetime64[s]")
    if times.min() < np.datetime64(datetime.min):
        raise ValueError("a timestamp is in year 0, which datetime lacks")
    columns = [times]
    for name in names[1:]:
        column = np.ascontiguousarray(table[name])
        bounds = _COLUMNS[name][1]
        if bounds and ((column < bounds[0]) | (column > bounds[1])).any():
            raise ValueError(f"a {name} is out of bounds")
        columns.append(column)
    return columns


def _read_table(source, kind: str, names, timezone: str | None, first_break) -> list[np.ndarray]:
    """The columns ``names`` (the timestamp first) of a whole CSV file as
    arrays: from the columnar path if the text is plain and keeps the
    loader's time rule, else from the per-row reader, whose values are the
    same and whose errors name the file line.

    ``first_break(times)`` is None if the rule holds, else (row, error type,
    message) for the first row that breaks it."""
    with _open_text(source) as stream:
        text = stream.read()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a file with no data rows
            columns = _columnar(text, kind, names)
        if first_break(columns[0]) is None:
            return columns
    except (ValueError, Warning):
        pass  # the per-row reader gives the values or names the bad line
    lines, cells = _read_columns(io.StringIO(text, newline=""), kind,
                                 {n: _cell_parser(n, timezone) for n in names})
    # integer microseconds: numpy converts a list of datetimes several times slower
    micros = [(t - EPOCH) // _MICROSECOND for t in cells[0]]
    columns = [np.array(micros, dtype=np.int64).view("datetime64[us]")]
    columns += [np.array(c, dtype=_COLUMNS[n][0]) for n, c in zip(names[1:], cells[1:])]
    if (broken := first_break(columns[0])) is not None:
        k, error, message = broken
        raise error(f"{kind} line {lines[k]}: {message}")
    return columns


def _off_grid(times: np.ndarray):
    """The first row that is not its interval start on the grid from the
    first row, as ``_read_table``'s ``first_break``."""
    if len(times):
        off = np.flatnonzero(times != grid_times(times[0], len(times)))
        if off.size:
            k = off[0]
            return k, GridError, f"breaks the 15-minute progression ({times[k].item()})"
    return None


def _not_later(times: np.ndarray):
    """The first row whose time is not later than the one before, as
    ``_read_table``'s ``first_break``."""
    late = np.flatnonzero(times[1:] <= times[:-1])
    if late.size:
        k = late[0] + 1
        return k, SchemaError, (f"timestamp {times[k].item()} is not later than "
                                f"{times[k - 1].item()}")
    return None


def _grid_origin(kind: str, times: np.ndarray) -> datetime:
    if not len(times):
        raise GridError(f"{kind} has no rows")
    return times[0].item()


# A temperature reading: its time and its value in degrees Celsius.
READING = np.dtype([("time", "datetime64[us]"), ("temp_c", np.float64)])


def load_temperature_csv(source, timezone: str | None = None) -> np.ndarray:
    """Read the (timestamp, temp_c) readings as a ``READING`` array; a row
    whose time is not later than the one before is a SchemaError naming its
    file line."""
    times, temps = _read_table(source, "temperature CSV", ("timestamp", "temp_c"),
                               timezone, _not_later)
    readings = np.empty(len(times), READING)
    readings["time"], readings["temp_c"] = times, temps
    return readings


def load_holidays_csv(source) -> HolidayCalendar:
    """Read one ISO date per line, under an optional ``date`` header."""
    dates = set()
    with _open_text(source) as stream:
        for line, text in enumerate(map(str.strip, stream), start=1):
            if text and text.lower() != "date":
                dates.add(_parse_cell("holidays CSV", line, "date", date.fromisoformat, [text], 0))
    return HolidayCalendar.from_dates(dates)


def load_demand_grid(source, timezone: str | None = None) -> IntervalSeries:
    """Read a pre-aggregated demand grid (columns timestamp,demand) and
    validate that it forms a gapless 15-minute progression."""
    kind = "demand grid CSV"
    times, demand = _read_table(source, kind, ("timestamp", "demand"), timezone, _off_grid)
    return IntervalSeries(origin=_grid_origin(kind, times), demand=demand)


def write_demand_grid(path, series: IntervalSeries) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "demand"])
        w.writerows(zip(format_times(series.times()), series.demand.tolist()))


def write_temperature_csv(path, timestamps, temps) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "temp_c"])
        w.writerows(zip(format_times(timestamps), map(fmt_float, np.asarray(temps).tolist())))


def write_holidays_csv(path, calendar: HolidayCalendar) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for d in sorted(calendar.dates):
            fh.write(d.isoformat() + "\n")


DATASET_COLUMNS = ["timestamp", "demand", "temp_c", "weekday", "month", "holiday"]


def write_dataset(path, series: IntervalSeries) -> None:
    """Persist a fully assembled IntervalSeries (all context columns)."""
    for name in ("temperature", "weekday", "month", "holiday"):
        if getattr(series, name) is None:
            raise SchemaError(f"cannot write dataset: {name} column missing")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(DATASET_COLUMNS)
        w.writerows(zip(format_times(series.times()), series.demand.tolist(),
                        map(fmt_float, series.temperature.tolist()),
                        series.weekday.tolist(), series.month.tolist(),
                        series.holiday.astype(np.int64).tolist()))


def load_dataset(source, timezone: str | None = None) -> IntervalSeries:
    kind = "dataset CSV"
    times, demand, temp, weekday, month, holiday = _read_table(
        source, kind, DATASET_COLUMNS, timezone, _off_grid)
    return IntervalSeries(origin=_grid_origin(kind, times), demand=demand, temperature=temp,
                          weekday=weekday.astype(np.int8), month=month.astype(np.int8),
                          holiday=holiday.astype(bool))
