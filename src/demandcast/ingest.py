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
"""

from __future__ import annotations

import csv
import io
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


def n_intervals_between(origin: datetime, end: datetime) -> int:
    """Number of 15-minute intervals in [origin, end)."""
    check_aligned(origin)
    check_aligned(end, "end")
    span = end - origin
    total = span.days * 86400 + span.seconds
    if total < 0:
        raise GridError("end precedes origin")
    return total // STEP_SECONDS


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


def join_temperature(grid: IntervalSeries, readings) -> IntervalSeries:
    """Attach a temperature value to every interval.

    Exact-timestamp readings are copied through; interior intervals are
    linearly interpolated between the bracketing readings; intervals before
    the first or after the last reading take that boundary reading if it is
    within 2 hours, otherwise the interval is reported as an error.
    """
    readings = list(readings)
    if not readings:
        raise GridError("temperature readings are empty")
    xs = np.array([(t - EPOCH).total_seconds() for t, _ in readings], dtype=np.float64)
    if np.any(np.diff(xs) <= 0):
        raise SchemaError("temperature readings must be strictly increasing in time")

    ys = np.array([float(v) for _, v in readings], dtype=np.float64)
    times = grid.times()
    grid_x = (times - np.datetime64(EPOCH, "s")) / np.timedelta64(1, "s")
    values = np.interp(grid_x, xs, ys)

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


def _read_rows(source, kind: str, names):
    """Read a CSV whose header names every column in ``names``, in any order.

    Yields the position of each named column, then the data rows that are
    not blank in blocks of (file lines, rows) of at most BLOCK_ROWS rows, so
    that a large file never holds all its raw cells at once."""
    with _open_text(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{kind} line 1: no header, the file is empty")
        cols = [h.strip().lower() for h in header]
        missing = [n for n in names if n not in cols]
        if missing:
            raise SchemaError(f"{kind} line 1: missing columns: {', '.join(missing)}")
        yield [cols.index(n) for n in names]
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


def _progression_origin(kind: str, lines: list[int], times: list[datetime]) -> datetime:
    """The first timestamp, once every row is checked to be its interval
    start on the grid from it; a break is a GridError naming its file line."""
    if not times:
        raise GridError(f"{kind} has no rows")
    expected = grid_times(times[0], len(times)).tolist()
    if times != expected:
        k = next(k for k, (ts, want) in enumerate(zip(times, expected)) if ts != want)
        raise GridError(f"{kind} line {lines[k]}: breaks the 15-minute progression ({times[k]})")
    return times[0]


def _bounded_int(low: int, high: int):
    """A cell parser for an integer in [low, high]."""
    def parse(text: str) -> int:
        if not low <= (value := int(text)) <= high:
            raise ValueError(f"{value} is outside {low}..{high}")
        return value
    return parse


def load_temperature_csv(source, timezone: str | None = None) -> list[tuple[datetime, float]]:
    """Read (timestamp, temp_c) readings; a row whose time is not later than
    the one before is a SchemaError naming its file line."""
    kind = "temperature CSV"
    lines, (times, temps) = _read_columns(source, kind, {
        "timestamp": lambda text: parse_timestamp(text, timezone), "temp_c": float,
    })
    for line, before, ts in zip(lines[1:], times, times[1:]):
        if ts <= before:
            raise SchemaError(f"{kind} line {line}: timestamp {ts} is not later than {before}")
    return list(zip(times, temps))


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
    lines, (times, demand) = _read_columns(source, kind, {
        "timestamp": lambda text: parse_timestamp(text, timezone), "demand": int,
    })
    return IntervalSeries(origin=_progression_origin(kind, lines, times),
                          demand=np.array(demand, dtype=np.int64))


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
    lines, (times, demand, temp, weekday, month, holiday) = _read_columns(source, kind, {
        "timestamp": lambda text: parse_timestamp(text, timezone),
        "demand": int, "temp_c": float, "weekday": _bounded_int(0, 6),
        "month": _bounded_int(1, 12), "holiday": _bounded_int(0, 1),
    })
    return IntervalSeries(
        origin=_progression_origin(kind, lines, times),
        demand=np.array(demand, dtype=np.int64),
        temperature=np.array(temp, dtype=np.float64),
        weekday=np.array(weekday, dtype=np.int8),
        month=np.array(month, dtype=np.int8),
        holiday=np.array(holiday, dtype=bool),
    )
