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

parse_sessions is columnar too. It splits rows with the csv module,
BLOCK_ROWS at a time, reads the plain times of a block in one numpy
conversion (``_plain_times``), its energies with ``float`` and its row rules
as array comparisons. Only the rows that fail there (a short row, another
timestamp form, a bad cell or a broken rule) are read again, one at a time,
by ``_session_row``, which gives the same values or the message of what is
wrong. ``aggregate_demand`` counts the ``SESSION`` array with numpy.

The demand grid, temperature and dataset files are each one call to
``util.write_csv``, the one CSV table writer. It formats BLOCK_ROWS rows at
a time with one ``%`` format of a row format repeated per row, so no cell
is formatted by a Python loop, and ends every line with CRLF. Its files are
plain text that the columnar path reads.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta
from operator import itemgetter
from zoneinfo import ZoneInfo

import numpy as np

from .errors import GridError, SchemaError
from .util import BLOCK_ROWS, FLOAT_FORMAT, write_csv

STEP = timedelta(minutes=15)
STEP_SECONDS = 900
EPOCH = datetime(1970, 1, 1)
TEMP_EDGE_REACH = timedelta(hours=2)
# C0 and C1 control characters. fromisoformat reads "00:15:00\x00" as 00:15
# (it stops at a NUL) and takes any character, a control one too, as the
# date-time separator.
_CONTROL = re.compile("[\x00-\x1f\x7f-\x9f]")


# ---------------------------------------------------------------------------
# timestamps
# ---------------------------------------------------------------------------

def parse_timestamp(text: str, timezone: str | None = None) -> datetime:
    """Parse RFC 3339 or ``YYYY-MM-DD HH:MM`` into a naive local datetime.

    Offset-aware inputs are converted to ``timezone`` (UTC if none is
    configured) before the offset is stripped. Text that holds a control
    character once stripped of white space is unparseable.
    """
    raw = text.strip()
    if _CONTROL.search(raw):
        raise ValueError(f"unparseable timestamp {text!r}")
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
    """``YYYY-MM-DD HH:MM:SS`` text of each time, whole seconds (``NaT`` for
    not-a-time)."""
    seconds = np.asarray(times, dtype="datetime64[s]").ravel()
    days = seconds.astype("datetime64[D]")
    # a grid has few distinct days and times of day: format each one once
    day_list, day_of = np.unique(days, return_inverse=True)
    clock_list, clock_of = np.unique((seconds - days).astype(np.int64), return_inverse=True)
    day_text = np.array([d + " " for d in np.datetime_as_string(day_list).tolist()], dtype=object)
    clock_text = np.array(["%02d:%02d:%02d" % (s // 3600, s // 60 % 60, s % 60)
                           for s in clock_list.tolist()], dtype=object)
    text = day_text[day_of] + clock_text[clock_of]
    text[np.isnat(seconds)] = "NaT"
    return text.tolist()


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
        for name in ("temperature", "weekday", "month", "holiday"):
            col = getattr(self, name)
            if col is not None and len(col) != len(self.demand):
                raise GridError(f"{name} length {len(col)} != demand length {len(self.demand)}")

    def __len__(self) -> int:
        return len(self.demand)

    def times(self) -> np.ndarray:
        """The start of every interval; see ``grid_times``."""
        return grid_times(self.origin, len(self.demand))


@dataclass(frozen=True)
class RowError:
    line: int
    message: str


# A charging session: when it started, finished charging and disconnected,
# and the energy it delivered.
SESSION = np.dtype([("start", "datetime64[us]"), ("charge_end", "datetime64[us]"),
                    ("disconnect", "datetime64[us]"), ("energy_kwh", np.float64)])


@dataclass
class ParseResult:
    records: np.ndarray  # SESSION
    errors: list[RowError]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

SESSION_COLUMNS = SESSION.names


def parse_sessions(csv_source, timezone: str | None = None) -> ParseResult:
    """Parse a sessions CSV into a ``SESSION`` array, in file order; each
    malformed row becomes a RowError naming its file line, not an exception.

    ``csv_source`` may be a path, or a byte or text stream.
    """
    blocks = _read_rows(csv_source, "sessions CSV", SESSION_COLUMNS)
    positions = next(blocks)
    parts, errors = [], []
    for lines, rows in blocks:
        sessions, read = _session_columns(rows, positions)
        for k in np.flatnonzero(~read).tolist():
            try:
                sessions[k] = _session_row(rows[k], positions, timezone)
                read[k] = True
            except (ValueError, IndexError) as exc:
                errors.append(RowError(lines[k], str(exc)))
        parts.append(sessions[read])
    return ParseResult(np.concatenate(parts), errors)


def _session_columns(rows: list[tuple], positions: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The sessions of ``rows`` read column by column, and whether each row
    was read: its times plain (see ``_plain_times``), its energy a ``float``
    and the rules of ``_session_row`` kept."""
    width = max(positions) + 1
    # a short row reads as empty cells, which are not plain times
    rows = [row if len(row) >= width else ("",) * width for row in rows]
    *stamps, energy = [list(map(itemgetter(i), rows)) for i in positions]
    sessions = np.empty(len(rows), SESSION)
    read = np.ones(len(rows), bool)
    for name, cells in zip(SESSION_COLUMNS, stamps):
        text = "".join(cells)
        if not text.isascii() or "\x00" in text:  # S20 cannot hold it, or drops a final NUL
            cells = [c if c.isascii() and "\x00" not in c else "" for c in cells]
        sessions[name], plain = _plain_times(np.array(cells, dtype="S20"))
        read &= plain
    energy = sessions["energy_kwh"] = np.fromiter(map(_or_else(float, math.nan), energy),
                                                  np.float64, len(rows))
    read &= ((sessions["start"] <= sessions["charge_end"])
             & (sessions["charge_end"] <= sessions["disconnect"])
             & (energy >= 0) & (energy < np.inf))
    return sessions, read


def _session_row(row: tuple, positions: list[int], timezone: str | None) -> tuple:
    """The session of one row, read cell by cell; a ValueError or an
    IndexError says what is wrong with the row."""
    start, charge_end, disconnect = (parse_timestamp(row[i], timezone) for i in positions[:3])
    energy = float(row[positions[3]])
    if not start <= charge_end <= disconnect:
        raise ValueError("session times must satisfy start <= charge_end <= disconnect")
    if energy < 0:
        raise ValueError("energy_kwh must be non-negative")
    if not math.isfinite(energy):
        raise ValueError(f"energy_kwh must be finite, got {energy}")
    return start, charge_end, disconnect, energy


def aggregate_demand(sessions: np.ndarray, origin: datetime, n_intervals: int) -> np.ndarray:
    """Count, for each grid interval, the sessions (a ``SESSION`` array)
    whose charging span [start, charge_end) overlaps it. Sessions outside
    the grid contribute nothing; the span ends at charge completion, not
    disconnect.
    """
    check_aligned(origin)
    if n_intervals < 1:
        raise GridError("n_intervals must be >= 1")
    # each non-empty span covers intervals [first, last): its start rounded
    # down and its end rounded up, exact to the microsecond
    live = sessions[sessions["start"] < sessions["charge_end"]]
    origin, step = np.datetime64(origin, "us"), np.timedelta64(STEP)
    first = np.clip((live["start"] - origin) // step, 0, n_intervals)
    last = np.clip(-((origin - live["charge_end"]) // step), 0, n_intervals)
    # a difference array: +1 where a span enters the grid, -1 where it leaves
    diff = (np.bincount(first, minlength=n_intervals + 1)
            - np.bincount(last, minlength=n_intervals + 1))
    return np.cumsum(diff[:n_intervals])


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


def attach_calendar(grid: IntervalSeries, holidays: frozenset[date]) -> IntervalSeries:
    """Derive weekday, month, and holiday flags from each interval start."""
    days = grid.times().astype("datetime64[D]")
    weekday = (days.astype(np.int64) + 3) % 7  # 1970-01-01 was a Thursday
    month = days.astype("datetime64[M]").astype(np.int64) % 12 + 1
    holiday = np.isin(days, np.array(sorted(holidays), dtype="datetime64[D]"))
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


def _plain_times(stamps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The time of each S20 stamp as datetime64[s], and whether the stamp is
    plain: in the form of ``_STAMP``, naming a time that numpy and datetime
    both read. A stamp that is not plain reads as NaT."""
    plain = np.frombuffer(stamps.tobytes().translate(_STAMP_CLASSES), "S20") == _STAMP
    stamps = np.where(plain, stamps, b"")  # numpy reads other forms too, b"" as NaT
    try:
        times = stamps.astype("datetime64[s]")
    except ValueError:  # a field out of range, such as February 30 or hour 24
        times = np.array([*map(_or_else(np.datetime64, np.datetime64("NaT")), stamps.tolist())],
                         "datetime64[s]")
    plain &= times >= np.datetime64(datetime.min)  # numpy reads year 0, datetime does not
    return times, plain


def _or_else(read, default):
    """``read`` as a cell reader that gives ``default`` for a cell it rejects."""
    def read_or_default(cell):
        try:
            return read(cell)
        except ValueError:
            return default
    return read_or_default


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
    times, plain = _plain_times(table["timestamp"])
    if not plain.all():
        raise ValueError("a timestamp is not plain")
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


def load_holidays_csv(source) -> frozenset[date]:
    """Read one ISO date per line, under an optional ``date`` header."""
    dates = set()
    with _open_text(source) as stream:
        for line, text in enumerate(map(str.strip, stream), start=1):
            if text and text.lower() != "date":
                dates.add(_parse_cell("holidays CSV", line, "date", date.fromisoformat, [text], 0))
    return frozenset(dates)


def load_demand_grid(source, timezone: str | None = None) -> IntervalSeries:
    """Read a pre-aggregated demand grid (columns timestamp,demand) and
    validate that it forms a gapless 15-minute progression."""
    kind = "demand grid CSV"
    times, demand = _read_table(source, kind, ("timestamp", "demand"), timezone, _off_grid)
    return IntervalSeries(origin=_grid_origin(kind, times), demand=demand)


def write_demand_grid(path, series: IntervalSeries) -> None:
    write_csv(path, ("timestamp", "demand"), "%s,%d",
              [format_times(series.times()), series.demand])


def write_temperature_csv(path, timestamps, temps) -> None:
    write_csv(path, ("timestamp", "temp_c"), "%s," + FLOAT_FORMAT,
              [format_times(timestamps), temps])


def write_holidays_csv(path, holidays: frozenset[date]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for d in sorted(holidays):
            fh.write(d.isoformat() + "\n")


DATASET_COLUMNS = ["timestamp", "demand", "temp_c", "weekday", "month", "holiday"]


def write_dataset(path, series: IntervalSeries) -> None:
    """Persist a fully assembled IntervalSeries (all context columns)."""
    for name in ("temperature", "weekday", "month", "holiday"):
        if getattr(series, name) is None:
            raise SchemaError(f"cannot write dataset: {name} column missing")
    write_csv(path, DATASET_COLUMNS, f"%s,%d,{FLOAT_FORMAT},%d,%d,%d",
              [format_times(series.times()), series.demand, series.temperature,
               series.weekday, series.month, series.holiday])


def load_dataset(source, timezone: str | None = None) -> IntervalSeries:
    kind = "dataset CSV"
    times, demand, temp, weekday, month, holiday = _read_table(
        source, kind, DATASET_COLUMNS, timezone, _off_grid)
    return IntervalSeries(origin=_grid_origin(kind, times), demand=demand, temperature=temp,
                          weekday=weekday.astype(np.int8), month=month.astype(np.int8),
                          holiday=holiday.astype(bool))
