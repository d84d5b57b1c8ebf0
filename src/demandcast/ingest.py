"""Raw-data ingestion: charging sessions, the 15-minute demand grid,
temperature joining, and calendar context.

All timestamps are kept as naive local wall-clock datetimes. Inputs that
carry a UTC offset are converted to the configured zone first and the
offset is dropped, since weekday/holiday semantics are local.

``grid_times`` is the one grid clock, the only code that turns a row index
into a time; every other use of interval times is array arithmetic on its
result. Its times are naive, with no DST jump: see
``features.WindowedDataset.input_hours`` for the fix.

Every loader takes a path or the file's bytes, and checks what it reads
once, there: the rest of the program relies on it. Bad input is a typed
error naming the file line. The whole-file loaders (temperature, holidays,
demand grid, dataset) raise SchemaError for a cell that does not parse, a
short row, or a missing header or column, and GridError for a first time off
the 15-minute grid or a break in its progression; parse_sessions instead
skips each malformed row and collects a RowError with its line.

Every loader reads the file's bytes once and drops one leading UTF-8
byte-order mark, as Excel's "CSV UTF-8" writes it. The sessions,
temperature, demand grid and dataset loaders read their rows with one
reader, ``_read_csv``. Plain text (``_is_plain``), which the csv module
splits at its line ends and commas alone, is split by ``_plain_split``, in
one numpy pass, and one pass a column reads the cells of all lines by byte
offsets (``_offset_columns``). A row whose every cell is plain is read so.
Every other row that is not blank, of plain text or of text that the csv
module splits, is read cell by cell by ``_read_rows``, whose parsers give the
same values or name what is wrong. Each loader then checks its own rule on
the rows read: ``parse_sessions`` a session's times and energy,
``load_temperature_csv`` rising times, and ``_read_grid`` the 15-minute
progression.

The demand grid, temperature and dataset files are each one call to
``util.write_csv``, the one CSV table writer, which renders a block of rows
column by column with numpy and ends every line with CRLF: integers by
digit arithmetic, floats in 1e-4 <= |x| < 1e15 by exact integer arithmetic
(``%`` one value at a time for zero, NaN, the infinities and the rest), and
the times as ``time_text`` bytes, each distinct day and time of day rendered
once into a byte table. ``synth.export`` renders its grid's times once for
both of its files. No cell may hold a NUL, a comma, a quote or a line break.
Its files are plain text.

``load_dataset`` parses each dataset content once: it keeps the parsed
columns as raw bytes in a cache entry keyed by the file's bytes, this
module's source and the timezone (see ``_cache_entry``), and a later load of
the same bytes reads the entry instead of the CSV text.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import re
import struct
import tempfile
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta
from functools import cache
from itertools import repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridError, SchemaError
from .util import FLOAT_FORMAT, write_csv

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
    character once stripped of white space is unparseable, and a time that
    leaves datetime's range in that zone is a ValueError too.
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
        try:
            ts = ts.astimezone(zone)
        except OverflowError:
            raise ValueError(f"timestamp {text!r} is out of range in {zone.key}") from None
        ts = ts.replace(tzinfo=None)
    return ts


def grid_times(origin, n: int) -> np.ndarray:
    """The start of each of the ``n`` intervals of the grid from ``origin``
    (a datetime or datetime64), as naive ``datetime64[s]`` wall-clock times
    (on DST see ``features.WindowedDataset.input_hours``)."""
    return np.datetime64(origin, "s") + np.arange(n) * np.timedelta64(STEP_SECONDS, "s")


def time_text(times) -> np.ndarray:
    """``YYYY-MM-DD HH:MM:SS`` of each time, whole seconds, as numpy ``S``
    bytes (``NaT`` for not-a-time); bytes already rendered are returned as
    they are. A grid has few distinct days and times of day, so each one is
    rendered once, into a byte table that the times index."""
    if isinstance(times, np.ndarray) and times.dtype.kind == "S":
        return times
    seconds = np.asarray(times, dtype="datetime64[s]").ravel()
    nat = np.isnat(seconds)
    stamps = np.where(nat, 0, seconds.view(np.int64))
    days = stamps // 86400
    clock = stamps - days * 86400
    day_list, day_of = np.unique(days, return_inverse=True)
    clock_list, clock_of = np.unique(clock, return_inverse=True)
    day_text = np.array([d + " " for d in np.datetime_as_string(
        day_list.astype("datetime64[D]")).tolist()], dtype="S")
    clock_text = np.array(["%02d:%02d:%02d" % (c // 3600, c // 60 % 60, c % 60)
                           for c in clock_list.tolist()], dtype="S8")
    text = np.empty(len(seconds), [("day", day_text.dtype), ("clock", "S8")])
    text["day"] = day_text[day_of]
    text["clock"] = clock_text[clock_of]
    text = text.view(f"S{text.itemsize}")
    text[nat] = b"NaT"
    return text


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
    ``origin`` is an interval start, demand an int64 count per interval and
    every column as long as it, as the loaders and ``grid_span`` give them.
    """

    origin: datetime
    demand: np.ndarray
    temperature: np.ndarray | None = None
    weekday: np.ndarray | None = None   # 0=Mon .. 6=Sun
    month: np.ndarray | None = None     # 1..12
    holiday: np.ndarray | None = None

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

    ``csv_source`` is a path or the file's bytes.
    """
    lines, columns, failed = _read_csv(csv_source, "sessions CSV", SESSION_COLUMNS, timezone)
    start, charge_end, disconnect, energy = columns
    errors = [RowError(line, str(error)) for line, _, error in failed]
    keep = np.ones(len(lines), bool)
    for broken, message in (((start > charge_end) | (charge_end > disconnect),
                             "session times must satisfy start <= charge_end <= disconnect"),
                            (energy < 0, "energy_kwh must be non-negative"),
                            (~np.isfinite(energy), "energy_kwh must be finite, got {}")):
        for r in np.flatnonzero(broken & keep).tolist():
            errors.append(RowError(int(lines[r]), message.format(float(energy[r]))))
        keep &= ~broken
    errors.sort(key=attrgetter("line"))
    sessions = np.empty(int(keep.sum()), SESSION)
    for name, column in zip(SESSION_COLUMNS, columns):  # field by field: 3x faster than records
        sessions[name] = column[keep]
    return ParseResult(sessions, errors)


def aggregate_demand(sessions: np.ndarray, origin: datetime, n_intervals: int) -> np.ndarray:
    """Count, for each grid interval, the sessions (a ``SESSION`` array)
    whose charging span [start, charge_end) overlaps it. Sessions outside
    the grid contribute nothing; the span ends at charge completion, not
    disconnect. ``origin`` and ``n_intervals`` are a ``grid_span``.
    """
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


def sessions_grid(sessions: np.ndarray) -> IntervalSeries:
    """The demand grid of a non-empty ``SESSION`` array: the ``grid_span``
    of its charging spans, each interval counted by ``aggregate_demand``."""
    origin, n = grid_span(sessions["start"].min().item(), sessions["charge_end"].max().item())
    return IntervalSeries(origin=origin, demand=aggregate_demand(sessions, origin, n))


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

    times = grid.times()
    grid_x = _epoch_seconds(times)
    values = np.interp(grid_x, xs, readings["temp_c"])

    reach = TEMP_EDGE_REACH.total_seconds()
    out = (xs[0] - grid_x > reach) | (grid_x - xs[-1] > reach)
    if out.any():
        k = int(np.argmax(out))
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

def _decode(data: bytes, kind: str) -> str:
    """``data`` as UTF-8 text, less one leading byte-order mark; a byte
    sequence that is not UTF-8 is a SchemaError naming the file line it is
    on."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # its offsets are past the mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise SchemaError(f"{kind} line {line}: not UTF-8 text "
                          f"(byte 0x{exc.object[exc.start]:02x})") from None


def _file_bytes(source) -> bytes:
    """``source`` if it is a file's bytes, else those of the file at that path."""
    return source if isinstance(source, bytes) else Path(source).read_bytes()


def _is_plain(data: bytes) -> bool:
    """Whether ``data`` is plain text, which ``_plain_split`` splits without
    the csv module: ASCII, none of _NOT_PLAIN, and no carriage return
    outside a CRLF line end."""
    if not data.isascii() or any(c in data for c in _NOT_PLAIN):
        return False
    if b"\r" not in data:
        return True
    buf = np.frombuffer(data, np.uint8)
    cr = np.flatnonzero(buf[:-1] == _CR)
    return buf[-1] != _CR and bool((buf[cr + 1] == _LF).all())


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


def _read_csv(source, kind: str, names, timezone: str | None):
    """Read the columns ``names`` of a CSV file (see ``_column_positions``):
    the file line of each data row that reads, and one array a column of
    their values in file order (a time as datetime64, a column of _BOUNDS as
    int64, any other as float64); and a (file line, column, error) of the
    first cell that does not read of each other row that is not blank. A
    regular row of plain text (see ``_offset_columns``) is read by byte
    offsets, and every other one by ``_read_rows``."""
    source = _file_bytes(source)
    text = source.removeprefix("\ufeff".encode())
    if _is_plain(text):
        positions, buf, starts, stops, full, begin, width = _plain_split(text, kind, names)
        columns, ok = _offset_columns(buf, names, begin, width)
        if ok.all() and len(full) == len(starts):
            return np.arange(2, len(starts) + 2), columns, []
        regular, columns = full[ok] + 2, [column[ok] for column in columns]  # file lines
        unread = np.delete(np.arange(len(starts)), full[ok])
        cells = zip((text[a:b].decode().split(",") for a, b in
                     zip(starts[unread].tolist(), stops[unread].tolist())), (unread + 2).tolist())
    else:
        reader = csv.reader(io.StringIO(_decode(source, kind), newline=""))
        positions, regular = _column_positions(reader, kind, names), []
        # each row, then the line it ends on: zip takes the row first
        cells = zip(reader, map(attrgetter("line_num"), repeat(reader)))
    lines, rows = [], []  # the file line and the cells of each row that is not blank
    for row, line in cells:
        if "".join(row).strip():
            lines.append(line)
            rows.append(tuple(row))  # a tuple of str drops out of the cyclic GC
    spec = [(name, i, _cell_parser(name, timezone)) for name, i in zip(names, positions)]
    values, failed = _read_rows(rows, spec)
    read = np.delete(np.array(lines, np.int64), [j for j, _, _ in failed])
    errors = [(lines[j], column, error) for j, column, error in failed]
    parsed = [_datetime64(c) if name in _TIMES
              else np.array(c, np.int64 if name in _BOUNDS else np.float64)
              for name, c in zip(names, values)]
    if not len(regular):
        return read, parsed, errors
    lines = np.concatenate([regular, read])
    order = np.argsort(lines, kind="stable")  # two sorted runs, merged in one pass
    return lines[order], [np.concatenate(c)[order] for c in zip(columns, parsed)], errors


def _read_rows(rows: list, spec) -> tuple:
    """Read the cells of ``rows`` (tuples of str) that ``spec``'s (column,
    position, parser) triples name: one list a column of the values of the
    rows whose cells read, and (index, column, ValueError or IndexError) of
    each other row's first cell, in ``spec`` order, that does not read. A
    column is read with one ``map``, or cell by cell if that fails."""
    values, failed = [], {}
    for column, i, parse in spec:
        try:
            cells = list(map(parse, map(itemgetter(i), rows)))
        except (ValueError, IndexError):
            cells = []
            for k, row in enumerate(rows):
                try:
                    cells.append(parse(row[i]))
                except (ValueError, IndexError) as exc:
                    # a copy with no traceback, whose frames would hold the whole text
                    failed.setdefault(k, (column, type(exc)(*exc.args)))
                    cells.append(None)
        values.append(cells)
    if failed:
        read = [k for k in range(len(rows)) if k not in failed]
        values = [[cells[k] for k in read] for cells in values]
    return values, [(k, *failed[k]) for k in sorted(failed)]


def _cell_parser(name: str, timezone: str | None):
    """The parser of a cell of column ``name`` that ``_read_rows`` reads."""
    if name in _TIMES:
        return lambda text: parse_timestamp(text, timezone)
    if name in _BOUNDS:
        return _bounded_int(*_BOUNDS[name])
    return float if name == "energy_kwh" else _finite_float


def _bounded_int(low: int, high: int):
    """A cell parser for an integer in [low, high]."""
    def parse(text: str) -> int:
        if not low <= (value := int(text)) <= high:
            raise ValueError(f"{value} is outside {low}..{high}")
        return value
    return parse


def _finite_float(text: str) -> float:
    """A cell parser for a finite float."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text.strip()} is not a finite number")
    return value


# The time columns of the loaders, and the inclusive bounds of each integer
# column; every other column is a float, finite but for energy_kwh, which
# parse_sessions checks.
_TIMES = ("timestamp", "start", "charge_end", "disconnect")
_BOUNDS = {"demand": (0, 2**63 - 1), "weekday": (0, 6), "month": (1, 12), "holiday": (0, 1)}
# Bytes that the byte-offset reader reads otherwise than the csv module and
# the cell parsers: the quote (csv quoting), NUL (the pad of a cell) and
# \x1c-\x1f (white space to numpy's number parser and to str.strip, not to
# int and float). A carriage return is plain only as part of a CRLF line end.
_NOT_PLAIN = (b'"', b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_LF, _CR, _COMMA = b"\n\r,"
_OFFSET32_BYTES = 2**31  # _plain_split keeps the offsets of a shorter text as int32
# The widest number cell read by byte offsets, and the bytes it may hold:
# white space that int and float strip (_SPACE, NUL padding a narrower
# cell) and those of a decimal number and "_" (_DECIMAL_BYTES). numpy's
# conversion gives float's value, or rejects the cell as float does, for any
# cell of _DECIMAL_BYTES; an integer cell is digits between white space.
_NUMBER_WIDTH = 32
_SPACE = b"\x00 \t\x0b\x0c"
_DIGITS = b"0123456789"
_DECIMAL_BYTES = _SPACE + _DIGITS + b"+-.eE_"
# A plain timestamp in an S20 cell, once translated by _STAMP_CLASSES:
# every digit to "d" and the "T" separator to " ".
_STAMP_CLASSES = bytes.maketrans(b"0123456789T", b"dddddddddd ")
# _STAMP as three words, which numpy compares faster than S20 strings
_STAMP_WORDS = np.dtype([("date", "<u8"), ("clock", "<u8"), ("end", "<u4")])
_STAMP = np.frombuffer(b"dddd-dd-dd dd:dd:dd\0", _STAMP_WORDS)[0]
# Days from 1970-01-01 to January 1 of each year 0..10000, and from January
# 1 to the first of each month 1..13 of a common year.
_YEAR_DAYS = (np.arange(-1970, 10001 - 1970).astype("datetime64[Y]")
              .astype("datetime64[D]").astype(np.int64))
_MONTH_DAYS = np.array([0, 0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365])
_MICROSECOND = timedelta(microseconds=1)


def _plain_split(data: bytes, kind: str, names):
    """Split plain ``data`` (see ``_is_plain``) at its line ends and commas,
    as the csv module splits it.

    Returns the position of each of ``names`` in its header (see
    ``_column_positions``); its bytes as a uint8 array, padded so that no
    cell's window of _NUMBER_WIDTH bytes runs off it; the start of each line
    after the header and its stop, before a CRLF's CR; the lines that have a
    cell for each column up to the last of the positions; and the offset and
    the width of each of those lines' cells at the positions, one row a
    column."""
    body = data.find(b"\n") + 1 or len(data)
    header = csv.reader(io.StringIO(data[:body].decode(), newline=""))
    positions = _column_positions(header, kind, names)
    cells = max(positions) + 1
    tail = b"" if data.endswith(b"\n") else b"\n"
    buf = np.frombuffer(data + tail + bytes(_NUMBER_WIDTH), np.uint8)
    # every line end and comma from the header's line end on
    text = buf[body - 1:len(data) + len(tail)]
    offset = np.int32 if len(buf) < _OFFSET32_BYTES else np.int64  # half the memory
    marks = np.flatnonzero((text == _LF) | (text == _COMMA)).astype(offset) + (body - 1)
    ends = np.flatnonzero(buf[marks] == _LF)
    starts = marks[ends[:-1]] + 1
    stops = marks[ends[1:]]
    stops -= buf[stops - 1] == _CR
    full = np.flatnonzero(np.diff(ends) >= cells)
    # the cell bounds of each full line, one row a bound: the line end before
    # it, then its commas, up to the end of the last cell read
    bounds = marks[ends[full] + np.arange(cells + 1)[:, None]]
    np.minimum(bounds[-1], stops[full], out=bounds[-1])
    begin = bounds[positions] + 1
    return positions, buf, starts, stops, full, begin, bounds[np.add(positions, 1)] - begin


def _offset_columns(buf: np.ndarray, names, begin: np.ndarray, width: np.ndarray):
    """The cells of ``names`` of the full lines that ``_plain_split`` gives,
    at offsets ``begin``, ``width`` bytes wide, read as one array a column;
    and whether each line is regular, its every cell plain: a
    ``_plain_times`` stamp, an ``_integers`` cell within its _BOUNDS, or a
    finite number of at most _NUMBER_WIDTH _DECIMAL_BYTES."""
    ok = np.ones(begin.shape[1], bool)
    columns = []
    for name, at, wide in zip(names, begin, width):
        if name in _TIMES:
            column, plain = _plain_times(buf, at, wide)
        else:
            cells = _cell_bytes(buf, at, wide)
            if name in _BOUNDS:
                column, plain = _integers(cells)
                low, high = _BOUNDS[name]
                plain &= (column >= low) & (column <= high)
            else:
                plain = _plain_cells(cells, _DECIMAL_BYTES) & (wide > 0) & (wide <= _NUMBER_WIDTH)
                column = _floats(cells, plain)
                plain &= np.isfinite(column)
        ok &= plain
        columns.append(column)
    return columns, ok


def _cell_bytes(buf: np.ndarray, begin: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The bytes of the cells of ``buf`` at offsets ``begin``, ``width``
    bytes wide, one row a cell, NUL-padded to the widest cell, or cut to
    _NUMBER_WIDTH bytes if it is wider."""
    w = min(int(width.max(initial=1)), _NUMBER_WIDTH)
    # the w bytes from each offset as one S{w} item: faster to gather than w bytes
    cells = sliding_window_view(buf, w).view(f"S{w}")[begin, 0].view(np.uint8).reshape(-1, w)
    cells *= np.arange(w) < width[:, None]
    return cells


def _plain_times(buf: np.ndarray, begin: np.ndarray, width: np.ndarray):
    """The time of each stamp cell of ``buf`` at offsets ``begin``,
    ``width`` bytes wide, as datetime64[s], and whether the stamp is plain:
    in the form of ``_STAMP`` (a 16-byte stamp as if it ended in ":00"),
    naming a time that datetime reads. A stamp that is not plain reads as
    NaT.

    The fields are read by digit arithmetic: numpy's string conversion is
    slower, and numpy 2.4 crashes when a field out of range (such as second
    69) follows several hundred stamps that it read."""
    stamps = sliding_window_view(buf, 20).view("S20")[begin, 0]
    cells = stamps.view(np.uint8).reshape(-1, 20)
    short = width == 16
    cells[short, 16:19] = np.frombuffer(b":00", np.uint8)
    cells[:, 19] = 0
    text = stamps.tobytes()
    plain = np.frombuffer(text.translate(_STAMP_CLASSES), _STAMP_WORDS) == _STAMP
    plain &= short | (width == 19)

    def field(i):  # the two digits at byte i as a number
        return cells[:, i].astype(np.int32) * 10 + cells[:, i + 1] - 11 * ord("0")

    year, month, day = field(0) * 100 + field(2), field(5), field(8)
    hour, minute, second = field(11), field(14), field(17)
    plain &= ((year > 0) & (month > 0) & (month <= 12) & (day > 0)
              & (hour < 24) & (minute < 60) & (second < 60))
    year, month = np.where(plain, year, 1970), np.where(plain, month, 1)
    leap = _YEAR_DAYS[year + 1] - _YEAR_DAYS[year] - 365
    plain &= day <= _MONTH_DAYS[month + 1] - _MONTH_DAYS[month] + leap * (month == 2)
    days = _YEAR_DAYS[year] + _MONTH_DAYS[month] + leap * (month > 2) + day - 1
    seconds = days * 86400 + hour * 3600 + minute * 60 + second
    seconds[~plain] = np.datetime64("NaT").view(np.int64)
    return seconds.view("datetime64[s]"), plain


def _integers(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The int64 of each cell of ``_cell_bytes``, read by digit arithmetic
    byte by byte in uint64, and whether the cell is plain: one run of digits
    between white space (_SPACE), at most 19 bytes wide, below 2^63."""
    plain = _plain_cells(cells, _SPACE + _DIGITS) & ~cells[:, 19:].any(1)
    value = np.zeros(len(cells), np.uint64)
    seen, gap = np.zeros((2, len(cells)), bool)  # a digit, and white space after one
    for byte in cells.T:
        digit = byte > ord(" ")
        plain &= ~(digit & gap)
        gap |= seen & ~digit
        seen |= digit
        value = np.where(digit, value * 10 + (byte - ord("0")), value)
    return value.view(np.int64), plain & seen & (value < 2**63)


def _plain_cells(cells: np.ndarray, allowed: bytes) -> np.ndarray:
    """Whether each cell of ``_cell_bytes`` holds only ``allowed`` bytes:
    one ``bytes.translate`` of the whole column, and a check of each cell
    only if that fails."""
    if not cells.tobytes().translate(None, allowed):
        return np.ones(len(cells), bool)
    table = np.zeros(256, bool)
    table[list(allowed)] = True
    return table[cells].all(1)


def _floats(cells: np.ndarray, plain: np.ndarray) -> np.ndarray:
    """``float`` of each ``plain`` cell of ``_cell_bytes`` by numpy's
    conversion, which gives float's bits on a cell of _DECIMAL_BYTES; NaN for
    every other cell and where float rejects the cell."""
    if not plain.all():
        values = np.full(len(cells), np.nan)
        values[plain] = _floats(cells[plain], plain[plain])
        return values
    text = cells.view(f"S{cells.shape[1]}")[:, 0]
    try:
        return text.astype(np.float64)
    except ValueError:  # such as "1.2.3": cell by cell
        return np.array([_float_or_nan(cell) for cell in text.tolist()], np.float64)


def _float_or_nan(cell: bytes) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _datetime64(times) -> np.ndarray:
    """Naive datetimes as datetime64[us], through integer microseconds:
    numpy converts a list of datetimes several times slower."""
    return np.array([(t - EPOCH) // _MICROSECOND for t in times], np.int64).view("datetime64[us]")


def _read_table(source, kind: str, names, timezone: str | None) -> tuple:
    """The file lines and the columns ``names`` of the rows of a whole CSV
    file, read by ``_read_csv``; the first row that does not read is a
    SchemaError naming its file line and column."""
    lines, columns, errors = _read_csv(source, kind, names, timezone)
    if errors:
        line, column, error = errors[0]
        reason = "missing value" if isinstance(error, IndexError) else error
        raise SchemaError(f"{kind} line {line}: {column}: {reason}")
    return lines, columns


def _read_grid(source, kind: str, names, timezone: str | None) -> tuple:
    """The origin and the columns after the timestamp of a grid file (see
    ``_read_table``), whose first time is a 15-minute interval start (a whole
    quarter hour, to the microsecond) and whose times are the interval starts
    of the grid from it; no rows, a first time off the 15-minute grid or a
    row off the grid from it is a GridError naming its file line."""
    lines, (times, *columns) = _read_table(source, kind, names, timezone)
    if not len(times):
        raise GridError(f"{kind} has no rows")
    origin = times[0].item()
    if origin.minute % 15 or origin.second or origin.microsecond:
        raise GridError(f"{kind} line {lines[0]}: first timestamp {origin} is not on a "
                        "15-minute boundary")
    off = np.flatnonzero(times != grid_times(times[0], len(times)))
    if off.size:
        k = off[0]
        raise GridError(f"{kind} line {lines[k]}: breaks the 15-minute progression "
                        f"({times[k].item()})")
    return origin, columns


# A temperature reading: its time and its value in degrees Celsius.
READING = np.dtype([("time", "datetime64[us]"), ("temp_c", np.float64)])


def load_temperature_csv(source, timezone: str | None = None) -> np.ndarray:
    """Read the (timestamp, temp_c) readings as a ``READING`` array; a row
    whose time is not later than the one before is a SchemaError naming its
    file line."""
    kind = "temperature CSV"
    lines, (times, temps) = _read_table(source, kind, ("timestamp", "temp_c"), timezone)
    late = np.flatnonzero(times[1:] <= times[:-1])
    if late.size:
        k = late[0] + 1
        raise SchemaError(f"{kind} line {lines[k]}: timestamp {times[k].item()} is not later "
                          f"than {times[k - 1].item()}")
    readings = np.empty(len(times), READING)
    readings["time"], readings["temp_c"] = times, temps
    return readings


def load_holidays_csv(source) -> frozenset[date]:
    """Read one ISO date per line, under an optional ``date`` header."""
    stream = io.StringIO(_decode(_file_bytes(source), "holidays CSV"), newline="")
    dates = set()
    for line, cell in enumerate(map(str.strip, stream), start=1):
        if cell and cell.lower() != "date":
            try:
                dates.add(date.fromisoformat(cell))
            except ValueError as exc:
                raise SchemaError(f"holidays CSV line {line}: date: {exc}") from None
    return frozenset(dates)


def load_demand_grid(source, timezone: str | None = None) -> IntervalSeries:
    """Read a pre-aggregated demand grid (columns timestamp,demand) and
    validate that it forms a gapless 15-minute progression."""
    origin, (demand,) = _read_grid(source, "demand grid CSV", ("timestamp", "demand"), timezone)
    return IntervalSeries(origin=origin, demand=demand)


def write_demand_grid(path, series: IntervalSeries, stamps=None) -> None:
    """The grid's times and demand; ``stamps`` is the ``time_text`` of the
    series' times when the caller has rendered them already."""
    write_csv(path, ("timestamp", "demand"), "%s,%d",
              [time_text(series.times() if stamps is None else stamps), series.demand])


def write_temperature_csv(path, timestamps, temps) -> None:
    """``timestamps`` are times, or their ``time_text``."""
    write_csv(path, ("timestamp", "temp_c"), "%s," + FLOAT_FORMAT,
              [time_text(timestamps), temps])


def write_holidays_csv(path, holidays: frozenset[date]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for d in sorted(holidays):
            fh.write(d.isoformat() + "\n")


DATASET_COLUMNS = ["timestamp", "demand", "temp_c", "weekday", "month", "holiday"]


def write_dataset(path, series: IntervalSeries) -> None:
    """Persist a fully assembled IntervalSeries (all context columns, as
    ``cli ingest`` attaches them)."""
    write_csv(path, DATASET_COLUMNS, f"%s,%d,{FLOAT_FORMAT},%d,%d,%d",
              [time_text(series.times()), series.demand, series.temperature,
               series.weekday, series.month, series.holiday])


def load_dataset(source, timezone: str | None = None) -> IntervalSeries:
    """Read a dataset file (``write_dataset``'s columns), a path or its
    bytes. The bytes are read once; the cache entry of those bytes gives the
    series if it holds one, else they are parsed and the result is kept as
    their entry."""
    data = _file_bytes(source)
    entry = _cache_entry(data, timezone)
    series = _read_entry(*entry) if entry else None
    if series is None:
        series = _parse_dataset(data, timezone)
        if entry:
            _write_entry(*entry, series)
    return series


def _parse_dataset(data: bytes, timezone: str | None) -> IntervalSeries:
    origin, (demand, temp, weekday, month, holiday) = _read_grid(
        data, "dataset CSV", DATASET_COLUMNS, timezone)
    return IntervalSeries(origin=origin, demand=demand, temperature=temp,
                          weekday=weekday.astype(np.int8), month=month.astype(np.int8),
                          holiday=holiday.astype(bool))


# A dataset cache entry: the _ENTRY header (format tag, key, SHA-256 of the
# rest, rows, origin in epoch seconds), then each _CACHED column's raw bytes,
# _ROW_BYTES (19) a row. It is named by its key and holds it, so a renamed
# entry does not match.
_CACHE_TAG = b"demandcast/dataset-cache-v1"
_ENTRY = struct.Struct("<32s32s32sqq")
_CACHED = (("demand", "<i8"), ("temperature", "<f8"), ("weekday", "i1"), ("month", "i1"),
           ("holiday", "?"))
_ROW_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in _CACHED)


@cache
def _reader_digest() -> bytes | None:
    """SHA-256 of this module's source, or None if it cannot be read."""
    try:
        return hashlib.sha256(Path(__file__).read_bytes()).digest()
    except OSError:  # no source to key by: every load parses
        return None


def _cache_entry(data: bytes, timezone: str | None) -> tuple[str, bytes] | None:
    """The entry path and key of a dataset file's bytes read with
    ``timezone``, or None if there is no cache: the entry lives in
    $XDG_CACHE_HOME/demandcast, or ~/.cache/demandcast if XDG_CACHE_HOME is
    not an absolute path, and nowhere if the home directory is not one."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    reader = _reader_digest()
    if reader is None or not os.path.isabs(base):
        return None
    digest = hashlib.sha256(_CACHE_TAG + reader + repr(timezone).encode() + b"\n")
    digest.update(data)
    key = digest.digest()
    return os.path.join(base, "demandcast", key.hex() + ".bin"), key


def _read_entry(path: str, key: bytes) -> IntervalSeries | None:
    """The series of the entry at ``path``, or None if it cannot be read or
    is not a whole entry of ``key``."""
    try:
        entry = bytearray(Path(path).read_bytes())  # writeable columns, as a parse gives
        tag, stored, digest, rows, origin = _ENTRY.unpack_from(entry)
    except (OSError, struct.error):  # no entry, or not even a header
        return None
    body = memoryview(entry)[_ENTRY.size:]
    if ((tag.rstrip(b"\0"), stored, len(body)) != (_CACHE_TAG, key, _ROW_BYTES * rows)
            or hashlib.sha256(body).digest() != digest):
        return None
    columns, offset = {}, _ENTRY.size
    for name, dtype in _CACHED:
        columns[name] = np.frombuffer(entry, dtype, rows, offset)
        offset += columns[name].nbytes
    return IntervalSeries(origin=EPOCH + timedelta(seconds=origin), **columns)


def _write_entry(path: str, key: bytes, series: IntervalSeries) -> None:
    """Keep ``series`` as the entry of ``key`` at ``path``: written to a
    temporary file, then renamed onto the entry. Nothing is written if the
    cache directory cannot hold it."""
    columns = [np.ascontiguousarray(getattr(series, n), d) for n, d in _CACHED]
    digest = hashlib.sha256()
    for column in columns:
        digest.update(column)
    origin = (series.origin - EPOCH) // timedelta(seconds=1)
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, temp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_ENTRY.pack(_CACHE_TAG, key, digest.digest(), len(series), origin))
                for column in columns:
                    fh.write(column)
            os.replace(temp, path)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError:
        pass  # the load stays uncached
