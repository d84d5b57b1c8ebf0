import io
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from demandcast import ingest
from demandcast.errors import GridError, SchemaError
from demandcast.explain import attention_profile
from demandcast.features import FeatureSchema, encode, make_windows
from demandcast.ingest import (
    HolidayCalendar,
    IntervalSeries,
    SessionRecord,
    aggregate_demand,
    attach_calendar,
    grid_span,
    grid_times,
    join_temperature,
    load_dataset,
    load_demand_grid,
    load_holidays_csv,
    load_temperature_csv,
    parse_sessions,
    parse_timestamp,
    write_dataset,
    write_demand_grid,
)
from demandcast.lstm_att import ModelConfig, ModelParams, forward_batch
from demandcast.synth import SynthConfig, export, generate
from helpers import (
    loop_attention_profile,
    loop_calendar,
    loop_grid_times,
    minute_scan_demand,
    temperature_readings,
)

HEADER = "start,charge_end,disconnect,energy_kwh\n"


def dt(text):
    return datetime.fromisoformat(text)


# ---------------------------------------------------------------------------
# parse_sessions
# ---------------------------------------------------------------------------

def test_parse_empty_file_header_only():
    result = parse_sessions(io.StringIO(HEADER))
    assert result.records == []
    assert result.errors == []


def test_parse_single_row():
    src = HEADER + "2023-08-02 09:00,2023-08-02 10:30,2023-08-02 11:00,7.2\n"
    result = parse_sessions(io.StringIO(src))
    assert len(result.records) == 1
    rec = result.records[0]
    assert rec.start == dt("2023-08-02 09:00")
    assert rec.charge_end == dt("2023-08-02 10:30")
    assert rec.disconnect == dt("2023-08-02 11:00")
    assert rec.energy_kwh == 7.2


def test_parse_reports_bad_row_with_line_number():
    src = HEADER + (
        "2023-08-02 09:00,2023-08-02 10:30,2023-08-02 11:00,7.2\n"
        "2023-08-02 09:00,not-a-time,2023-08-02 11:00,3.0\n"
        "2023-08-03 09:00,2023-08-03 10:00,2023-08-03 10:05,5.0\n"
    )
    result = parse_sessions(io.StringIO(src))
    assert len(result.records) == 2
    assert len(result.errors) == 1
    assert result.errors[0].line == 3


def test_parse_missing_column_is_schema_error():
    with pytest.raises(SchemaError):
        parse_sessions(io.StringIO("start,charge_end,energy_kwh\n"))


def test_parse_start_after_charge_end_is_row_error():
    src = HEADER + "2023-08-02 11:00,2023-08-02 10:00,2023-08-02 12:00,1.0\n"
    result = parse_sessions(io.StringIO(src))
    assert result.records == []
    assert result.errors[0].line == 2


def test_parse_accepts_byte_stream_and_rfc3339():
    src = (HEADER +
           "2023-08-02T09:00:00Z,2023-08-02T10:00:00Z,2023-08-02T10:30:00Z,2.0\n")
    result = parse_sessions(io.BytesIO(src.encode()))
    assert result.records[0].start == dt("2023-08-02 09:00")


def test_parse_timestamp_timezone_conversion():
    ts = parse_timestamp("2023-08-02T09:00:00-07:00", "America/Los_Angeles")
    assert ts == dt("2023-08-02 09:00")
    ts = parse_timestamp("2023-08-02T16:00:00Z", "America/Los_Angeles")
    assert ts == dt("2023-08-02 09:00")


def test_session_record_invariants():
    with pytest.raises(ValueError):
        SessionRecord(dt("2023-01-01 10:00"), dt("2023-01-01 09:00"),
                      dt("2023-01-01 11:00"), 1.0)
    with pytest.raises(ValueError):
        SessionRecord(dt("2023-01-01 09:00"), dt("2023-01-01 10:00"),
                      dt("2023-01-01 11:00"), -1.0)


# ---------------------------------------------------------------------------
# aggregate_demand
# ---------------------------------------------------------------------------

def session(start, end):
    s, e = dt(start), dt(end)
    return SessionRecord(s, e, e, 1.0)


def test_aggregate_no_sessions():
    counts = aggregate_demand([], dt("2023-08-02 09:00"), 4)
    assert counts.tolist() == [0, 0, 0, 0]


def test_aggregate_partial_overlap_counts_both_intervals():
    counts = aggregate_demand(
        [session("2023-08-02 09:05", "2023-08-02 09:20")],
        dt("2023-08-02 09:00"), 2,
    )
    assert counts.tolist() == [1, 1]


def test_aggregate_span_ends_at_charge_end_not_disconnect():
    s = SessionRecord(dt("2023-08-02 09:00"), dt("2023-08-02 09:15"),
                      dt("2023-08-02 10:00"), 1.0)
    counts = aggregate_demand([s], dt("2023-08-02 09:00"), 4)
    assert counts.tolist() == [1, 0, 0, 0]


def test_two_year_grid_has_70080_intervals():
    origin, n = grid_span(dt("2022-01-01 00:00"), dt("2024-01-01 00:00"))
    assert (origin, n) == (dt("2022-01-01 00:00"), 70080)


@pytest.mark.parametrize("first, last, origin, n", [
    pytest.param("2023-08-02 09:00", "2023-08-02 10:30", "2023-08-02 09:00", 6,
                 id="ends-on-boundaries"),
    pytest.param("2023-08-02 09:00:01", "2023-08-02 10:30:01", "2023-08-02 09:00", 7,
                 id="one-second-past-boundaries"),
    pytest.param("2023-08-02 09:14:59.999999", "2023-08-02 10:30:00.000001",
                 "2023-08-02 09:00", 7, id="microseconds"),
    pytest.param("2023-08-02 09:07", "2023-08-02 09:07", "2023-08-02 09:00", 1,
                 id="empty-span-is-one-interval"),
    pytest.param("2023-08-02 09:00", "2023-08-02 09:00", "2023-08-02 09:00", 1,
                 id="empty-span-on-a-boundary"),
    pytest.param("1969-12-31 23:59:59", "1970-01-01 00:00:00.5", "1969-12-31 23:45", 2,
                 id="across-the-epoch"),
])
def test_grid_span_rounds_out_to_interval_starts(first, last, origin, n):
    assert grid_span(dt(first), dt(last)) == (dt(origin), n)


def test_aggregate_misaligned_origin_rejected():
    with pytest.raises(GridError):
        aggregate_demand([], dt("2023-08-02 09:07"), 4)


def test_aggregate_matches_minute_scan_on_random_fixtures():
    rng = np.random.default_rng(11)
    origin = dt("2023-05-01 00:00")
    for _ in range(20):
        n_intervals = int(rng.integers(1, 40))
        sessions = []
        for _ in range(int(rng.integers(0, 25))):
            start_min = int(rng.integers(-120, n_intervals * 15 + 120))
            dur = int(rng.integers(0, 300))
            s = origin + timedelta(minutes=start_min)
            e = s + timedelta(minutes=dur)
            sessions.append(SessionRecord(s, e, e, 0.0))
        got = aggregate_demand(sessions, origin, n_intervals)
        assert got.tolist() == minute_scan_demand(sessions, origin, n_intervals)


def test_aggregate_total_equals_per_session_interval_sum():
    rng = np.random.default_rng(3)
    origin = dt("2023-05-01 00:00")
    n_intervals = 30
    sessions = []
    for _ in range(15):
        start_min = int(rng.integers(0, n_intervals * 15 - 30))
        dur = int(rng.integers(1, 240))
        s = origin + timedelta(minutes=start_min)
        e = s + timedelta(minutes=dur)
        sessions.append(SessionRecord(s, e, e, 0.0))
    total = int(aggregate_demand(sessions, origin, n_intervals).sum())
    per_session = sum(
        int(aggregate_demand([s], origin, n_intervals).sum()) for s in sessions
    )
    assert total == per_session


# ---------------------------------------------------------------------------
# join_temperature
# ---------------------------------------------------------------------------

def grid(origin, n):
    return IntervalSeries(origin=dt(origin), demand=np.zeros(n, dtype=np.int64))


def test_join_exact_alignment_copies_values():
    g = grid("2023-05-01 00:00", 4)
    readings = [(dt("2023-05-01 00:00") + k * timedelta(minutes=15), 10.0 + k)
                for k in range(4)]
    out = join_temperature(g, temperature_readings(readings))
    assert out.temperature.tolist() == [10.0, 11.0, 12.0, 13.0]


def test_join_midpoint_interpolation():
    g = IntervalSeries(origin=dt("2023-05-01 09:30"), demand=np.zeros(1, dtype=np.int64))
    readings = [(dt("2023-05-01 09:00"), 10.0), (dt("2023-05-01 10:00"), 14.0)]
    out = join_temperature(g, temperature_readings(readings))
    assert out.temperature[0] == pytest.approx(12.0, abs=1e-12)


def test_join_hourly_readings_piecewise_linear_over_a_day():
    g = grid("2023-05-01 00:00", 96)
    readings = [(dt("2023-05-01 00:00") + timedelta(hours=h), float(h * h % 17))
                for h in range(25)]
    out = join_temperature(g, temperature_readings(readings))
    # independent interpolation: locate the bracketing hour by hand
    for k in range(96):
        ts = dt("2023-05-01 00:00") + k * timedelta(minutes=15)
        h = k // 4
        frac = (k % 4) / 4.0
        lo, hi = float(h * h % 17), float((h + 1) * (h + 1) % 17)
        expected = lo + (hi - lo) * frac
        assert out.temperature[k] == pytest.approx(expected, abs=1e-9)


def test_join_keeps_sub_second_reading_times():
    g = grid("2023-05-01 00:15", 1)
    readings = [(dt("2023-05-01 00:00:00.5"), 10.0), (dt("2023-05-01 00:30:00.5"), 16.0)]
    out = join_temperature(g, temperature_readings(readings))
    assert out.temperature[0] == pytest.approx(10.0 + 6.0 * 899.5 / 1800.0, abs=1e-12)


def test_join_edges_use_nearest_within_two_hours():
    g = grid("2023-05-01 00:00", 8)  # 00:00 .. 01:45
    readings = [(dt("2023-05-01 01:00"), 20.0), (dt("2023-05-01 01:30"), 22.0)]
    out = join_temperature(g, temperature_readings(readings))
    assert out.temperature[0] == 20.0   # leading edge held
    assert out.temperature[-1] == 22.0  # trailing edge held


def test_join_gap_beyond_reach_is_error_naming_interval():
    g = grid("2023-05-01 00:00", 4)
    readings = [(dt("2023-05-01 03:00"), 20.0)]
    with pytest.raises(GridError) as err:
        join_temperature(g, temperature_readings(readings))
    assert "2023-05-01T00:00" in str(err.value)


def test_join_empty_readings_error():
    with pytest.raises(GridError):
        join_temperature(grid("2023-05-01 00:00", 1), temperature_readings([]))


# ---------------------------------------------------------------------------
# attach_calendar
# ---------------------------------------------------------------------------

def test_attach_calendar_holiday_weekday_month():
    g = grid("2023-07-04 10:00", 1)
    out = attach_calendar(g, HolidayCalendar.from_dates({date(2023, 7, 4)}))
    assert out.holiday[0]
    assert out.weekday[0] == 1  # Tuesday
    assert out.month[0] == 7


def test_attach_calendar_month_boundary():
    g = grid("2023-12-31 23:45", 2)
    out = attach_calendar(g, HolidayCalendar.from_dates(set()))
    assert out.month.tolist() == [12, 1]


def test_attach_calendar_full_week_weekday_counts():
    g = grid("2024-01-01 00:00", 7 * 96)  # a Monday
    out = attach_calendar(g, HolidayCalendar.from_dates(set()))
    for wd in range(7):
        assert int((out.weekday == wd).sum()) == 96


def test_attach_calendar_idempotent():
    g = grid("2023-05-01 00:00", 10)
    cal = HolidayCalendar.from_dates({date(2023, 5, 1)})
    once = attach_calendar(g, cal)
    twice = attach_calendar(once, cal)
    assert np.array_equal(once.weekday, twice.weekday)
    assert np.array_equal(once.month, twice.month)
    assert np.array_equal(once.holiday, twice.holiday)


# ---------------------------------------------------------------------------
# grid clock
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("origin, days", [
    # before the epoch, where % 7 on negative day numbers can go wrong, and
    # across the 1969 year end; the origin is not at midnight
    pytest.param("1969-12-24 13:45", 12, id="pre-epoch-year-end"),
    # both 2023 US DST changes (Mar 12, Nov 5), the 2023 year end and 2024-02-29
    pytest.param("2023-03-10 22:15", 358, id="dst-2023-leap-day-2024"),
])
def test_grid_clock_matches_loop_oracles(origin, days):
    origin, n, p, m, stride = dt(origin), days * 96, 8, 2, 97
    holidays = HolidayCalendar.from_dates({
        date(1969, 12, 25), date(1970, 1, 1), date(2023, 3, 12), date(2023, 11, 5),
        date(2023, 12, 25), date(2024, 2, 29)})
    series = attach_calendar(IntervalSeries(origin=origin, demand=np.zeros(n, dtype=np.int64),
                                            temperature=np.zeros(n)), holidays)
    want = loop_grid_times(origin, n)

    assert series.times().tolist() == want == grid_times(origin, n).tolist()
    weekday, month, holiday = loop_calendar(origin, n, holidays)
    assert series.weekday.tolist() == weekday
    assert series.month.tolist() == month
    assert series.holiday.tolist() == holiday
    hour = encode(series, FeatureSchema.default(include_hour=True))[:, -1]
    assert hour.tolist() == [ts.hour + ts.minute / 60.0 for ts in want]

    matrix = encode(series, FeatureSchema.default())
    windows = make_windows(matrix, p, m, origin=origin, stride=stride)
    assert windows.origins.tolist() == want[:n - p - m + 1:stride]
    last = len(windows) - 1
    assert windows.target_timestamps(last).tolist() == want[last * stride + p:][:m]
    params = ModelParams.init(ModelConfig(n_features=matrix.shape[1], hidden=4,
                                          horizon=m, lookback=p), 5)
    weights = forward_batch(np.asarray(windows.inputs), params)[1].weights
    want_profile = loop_attention_profile(weights, want[:n - p - m + 1:stride])
    assert np.max(np.abs(attention_profile(params, windows) - want_profile)) < 1e-12

    # the naive clock shows each DST hour four times: no gap, no repeat
    for day, h in ((date(2023, 3, 12), 2), (date(2023, 11, 5), 1)):
        count = sum(ts.date() == day and ts.hour == h for ts in want)
        assert count == (4 if want[0].date() <= day <= want[-1].date() else 0)
    assert np.all(np.diff(series.times()) == np.timedelta64(15, "m"))


# ---------------------------------------------------------------------------
# file round trips
# ---------------------------------------------------------------------------

def test_demand_grid_round_trip(tmp_path):
    g = IntervalSeries(origin=dt("2023-05-01 00:00"),
                       demand=np.array([1, 0, 3, 2], dtype=np.int64))
    path = tmp_path / "demand.csv"
    write_demand_grid(path, g)
    back = load_demand_grid(path)
    assert back.origin == g.origin
    assert np.array_equal(back.demand, g.demand)


def test_demand_grid_gap_detected(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_text(
        "timestamp,demand\n"
        "2023-05-01 00:00,1\n"
        "2023-05-01 00:30,2\n"
    )
    with pytest.raises(GridError):
        load_demand_grid(path)


def test_holidays_csv(tmp_path):
    path = tmp_path / "holidays.csv"
    path.write_text("2023-07-04\n2023-12-25\n")
    cal = load_holidays_csv(path)
    assert date(2023, 7, 4) in cal
    assert date(2023, 12, 25) in cal
    assert date(2023, 1, 2) not in cal


def test_temperature_csv_schema_checked(tmp_path):
    path = tmp_path / "temps.csv"
    path.write_text("time,value\n2023-05-01 00:00,10\n")
    with pytest.raises(SchemaError):
        load_temperature_csv(path)


TEMPERATURE = "timestamp,temp_c\n2023-05-01 00:00,10.5\n"
GRID = "timestamp,demand\n2023-05-01 00:00,1\n"
DATASET = "timestamp,demand,temp_c,weekday,month,holiday\n2023-05-01 00:00,1,10.5,0,5,1\n"
# 1,500 rows and a blank line: the next row is file line 1503, in the reader's second block
LONG_GRID = "timestamp,demand\n" + "".join(
    f"{dt('2023-05-01 00:00') + k * timedelta(minutes=15)},1\n" for k in range(1500)) + "\n"


@pytest.mark.parametrize("loader, text, error, where", [
    pytest.param(load_temperature_csv, TEMPERATURE + "2023-05-01 00:15,warm\n",
                 SchemaError, "line 3: temp_c:", id="temperature-cell"),
    pytest.param(load_temperature_csv, TEMPERATURE + "\n2023-05-01 00:15\n",
                 SchemaError, "line 4: temp_c:", id="temperature-short-row"),
    pytest.param(load_temperature_csv, "", SchemaError, "line 1:", id="temperature-empty"),
    pytest.param(load_temperature_csv, TEMPERATURE + "2023-05-01 00:00,11\n",
                 SchemaError, "line 3: timestamp", id="temperature-repeated-time"),
    pytest.param(load_temperature_csv,
                 TEMPERATURE + "2023-05-01 01:00,11\n\n2023-05-01 00:30,12\n",
                 SchemaError, "line 5: timestamp", id="temperature-decreasing-time"),
    pytest.param(load_demand_grid, GRID + "2023-05-01 00:15,two\n",
                 SchemaError, "line 3: demand:", id="grid-cell"),
    pytest.param(load_demand_grid, GRID + "2023-05-01 00:15\n",
                 SchemaError, "line 3: demand:", id="grid-short-row"),
    pytest.param(load_demand_grid, "", SchemaError, "line 1:", id="grid-empty"),
    pytest.param(load_demand_grid, GRID + "\n2023-05-01 00:30,2\n",
                 GridError, "line 4:", id="grid-break-after-blank-row"),
    pytest.param(load_dataset, DATASET + "2023-05-01 00:15,1,hot,0,5,1\n",
                 SchemaError, "line 3: temp_c:", id="dataset-cell"),
    pytest.param(load_dataset, DATASET + "2023-05-01 00:15,1,10.5,0,5\n",
                 SchemaError, "line 3: holiday:", id="dataset-short-row"),
    pytest.param(load_dataset,
                 DATASET + "2023-05-01 00:15,1,x,0,5,1\n2023-05-01 00:30,y,1,0,5,1\n",
                 SchemaError, "line 3: temp_c:", id="dataset-first-bad-row"),
    pytest.param(load_dataset, "", SchemaError, "line 1:", id="dataset-empty"),
    pytest.param(load_dataset, DATASET + "2023-05-01 00:15,1,10.5,300,5,1\n",
                 SchemaError, "line 3: weekday:", id="dataset-weekday-300"),
    pytest.param(load_dataset, DATASET + "2023-05-01 00:15,1,10.5,9,5,1\n",
                 SchemaError, "line 3: weekday:", id="dataset-weekday-9"),
    pytest.param(load_dataset, DATASET + "2023-05-01 00:15,1,10.5,0,13,1\n",
                 SchemaError, "line 3: month:", id="dataset-month-13"),
    pytest.param(load_dataset, DATASET + "2023-05-01 00:15,1,10.5,0,0,1\n",
                 SchemaError, "line 3: month:", id="dataset-month-0"),
    pytest.param(load_dataset, DATASET + "2023-05-01 00:15,1,10.5,0,5,2\n",
                 SchemaError, "line 3: holiday:", id="dataset-holiday-2"),
    pytest.param(load_dataset, DATASET + "\n\n2023-05-01 00:45,1,10.5,0,5,1\n",
                 GridError, "line 5:", id="dataset-break-after-blank-rows"),
    pytest.param(load_demand_grid, LONG_GRID + "2023-05-16 15:00,many\n",
                 SchemaError, "line 1503: demand:", id="grid-cell-in-later-block"),
    pytest.param(load_demand_grid, LONG_GRID + "2023-05-16 15:15,1\n",
                 GridError, "line 1503:", id="grid-break-in-later-block"),
    pytest.param(load_holidays_csv, "date\n2023-07-04\n2023-13-25\n",
                 SchemaError, "line 3: date:", id="holiday-date"),
])
def test_bad_input_is_typed_error_naming_file_line(tmp_path, loader, text, error, where):
    path = tmp_path / "input.csv"
    path.write_text(text)
    with pytest.raises(error) as err:
        loader(path)
    assert where in str(err.value)


# ---------------------------------------------------------------------------
# columnar path against the per-row reader
# ---------------------------------------------------------------------------

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


def both_ways(monkeypatch, loader, *args):
    """The outcome of ``loader(*args)``, the outcome with the columnar path
    switched off (the per-row oracle), and whether the columnar path served
    the first call."""
    per_row_calls = []
    read_columns = ingest._read_columns

    def counted(*a):
        per_row_calls.append(a)
        return read_columns(*a)

    def switched_off(*_):
        raise ValueError("columnar path switched off")

    with monkeypatch.context() as m:
        m.setattr(ingest, "_read_columns", counted)
        got = outcome(loader, *args)
    with monkeypatch.context() as m:
        m.setattr(ingest, "_columnar", switched_off)
        want = outcome(loader, *args)
    return got, want, not per_row_calls


@pytest.mark.parametrize("timezone", [None, "America/Los_Angeles"])
def test_columnar_loaders_equal_per_row_reader_on_synth_export(tmp_path, monkeypatch, timezone):
    # 2,016 rows, over the 1,024-row blocks of the per-row reader and the
    # 2023-03-12 DST change
    series, holidays = generate(SynthConfig(days=21, seed=7, start=date(2023, 3, 1)))
    paths = export(series, holidays, tmp_path)
    write_dataset(tmp_path / "dataset.csv", series)
    for loader, path in ((load_demand_grid, paths["demand"]),
                         (load_temperature_csv, paths["temperature"]),
                         (load_dataset, tmp_path / "dataset.csv")):
        got, want, columnar = both_ways(monkeypatch, loader, path, timezone)
        assert columnar, loader.__name__
        assert got == want, loader.__name__

    back = load_dataset(tmp_path / "dataset.csv", timezone)
    assert back.origin == series.origin
    for name in ("demand", "temperature", "weekday", "month", "holiday"):
        assert getattr(back, name).tobytes() == getattr(series, name).tobytes(), name
    readings = load_temperature_csv(paths["temperature"], timezone)
    assert np.array_equal(readings["time"], series.times())
    assert readings["temp_c"].tobytes() == series.temperature.tobytes()


ODD_DATASET = ("timestamp,demand,temp_c,weekday,month,holiday\n"
               "2023-05-01 00:00:00,1,10.5,0,5,1\n"
               "2023-05-01 00:15:00,0,-0.25,0,5,1\n"
               "2023-05-01 00:30:00,2,0.1,0,5,0\n")
ODD_TEMPERATURE = ("timestamp,temp_c\n"
                   "2023-05-01 00:00:00,10.5\n"
                   "2023-05-01 00:15:00,-0.25\n"
                   "2023-05-01 01:00:00,0.1\n")
ODD_GRID = "timestamp,demand\n2023-05-01 00:00:00,1\n2023-05-01 00:15:00,0\n"


def second_row(text, old, new):
    """``text`` with the first ``old`` in its second data row replaced by ``new``."""
    lines = text.split("\n")
    lines[2] = lines[2].replace(old, new, 1)
    return "\n".join(lines)


def stamp(text, new):
    return second_row(text, "2023-05-01 00:15:00", new)


def dataset_row(row):
    """ODD_DATASET with ``row`` inserted before its second data row."""
    return ODD_DATASET.replace("2023-05-01 00:15:00", row + "\n2023-05-01 00:15:00", 1)


@pytest.mark.parametrize("timezone", [None, "America/Los_Angeles"])
@pytest.mark.parametrize("loader, text, columnar", [
    # plain text: the columnar path reads it
    pytest.param(load_dataset, ODD_DATASET, True, id="lf"),
    pytest.param(load_dataset, ODD_DATASET.replace("\n", "\r\n"), True, id="crlf"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "2023-05-01T00:15:00"), True,
                 id="t-separator"),
    pytest.param(load_dataset, ODD_DATASET.replace("timestamp,demand", "TIMESTAMP, Demand"),
                 True, id="header-case-and-space"),
    pytest.param(load_dataset, ODD_DATASET.replace("\n", ",x\n"), True, id="extra-column"),
    pytest.param(load_dataset, "holiday,month,weekday,temp_c,demand,timestamp\n" + "".join(
        ",".join(reversed(row.split(","))) + "\n" for row in ODD_DATASET.splitlines()[1:]),
        True, id="reordered-columns"),
    pytest.param(load_dataset, dataset_row(""), True, id="empty-line"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,-0.25,", ", 0 ,\t-0.25 ,"), True,
                 id="spaces-around-numbers"),
    pytest.param(load_dataset, second_row(ODD_DATASET, "-0.25", "-0"), True, id="minus-zero"),
    pytest.param(load_dataset, second_row(ODD_DATASET, "-0.25", "NaN"), True, id="nan"),
    pytest.param(load_dataset, second_row(ODD_DATASET, "-0.25", "-1e500"), True,
                 id="float-overflow"),
    pytest.param(load_dataset, second_row(ODD_DATASET, "-0.25", "2.2250738585072011e-308"),
                 True, id="float-subnormal-edge"),
    pytest.param(load_temperature_csv, ODD_TEMPERATURE, True, id="temperature-lf"),
    # both paths read the header the same way, so no header fails on either
    pytest.param(load_dataset, "", True, id="empty-file"),
    pytest.param(load_demand_grid, ODD_GRID.replace("\n", "\r\n"), True, id="grid-crlf"),
    # timestamps the per-row reader reads or rejects otherwise than numpy
    pytest.param(load_dataset, stamp(ODD_DATASET, "2023-05-01 00:15"), False,
                 id="stamp-no-seconds"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "2023-05-01 00:15:00.000"), False,
                 id="stamp-zero-fraction"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "2023-05-01 00:15:00.5"), False,
                 id="stamp-fractional-seconds"),
    pytest.param(load_dataset, stamp(ODD_DATASET, " 2023-05-01 00:15:00"), False,
                 id="stamp-leading-space"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "2022-01"), False, id="stamp-year-month"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "NaT"), False, id="stamp-nat"),
    pytest.param(load_dataset, stamp(ODD_DATASET, ""), False, id="stamp-empty"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "today"), False, id="stamp-today"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "+2023-05-01 00:15:00"), False,
                 id="stamp-plus-year"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "2023-05-01T00:15:00Z"), False,
                 id="stamp-utc-z"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "2023-05-01T01:15:00+01:00"), False,
                 id="stamp-utc-offset"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "0000-05-01 00:15:00"), False,
                 id="stamp-year-0"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "2023-02-30 00:15:00"), False,
                 id="stamp-february-30"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "2023-04-30 24:15:00"), False,
                 id="stamp-hour-24"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "2023-05-01 00:15:00\x00"), False,
                 id="stamp-nul"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "2023-05-01 00:15:0\u0660"), False,
                 id="stamp-non-ascii-digit"),
    pytest.param(load_temperature_csv, stamp(ODD_TEMPERATURE, "2023-05-01 00:15:00.25"),
                 False, id="temperature-fractional-seconds"),
    pytest.param(load_temperature_csv, ODD_TEMPERATURE.replace(":00,", ":00Z,"), False,
                 id="temperature-utc-z"),
    pytest.param(load_temperature_csv,
                 ODD_TEMPERATURE.replace("2023-05-01 00:00:00", "0000-05-01 00:00:00"), False,
                 id="temperature-stamp-year-0"),
    pytest.param(load_demand_grid, stamp(ODD_GRID, "2023-05-01 00:15"), False,
                 id="grid-stamp-no-seconds"),
    # rows and cells the per-row reader reads or rejects otherwise than numpy
    pytest.param(load_dataset, ODD_DATASET.replace("\n", "\r"), False, id="cr"),
    pytest.param(load_dataset, ODD_DATASET.replace("\n", "\r", 1), False, id="cr-after-header"),
    pytest.param(load_dataset, dataset_row("   "), False, id="white-space-row"),
    pytest.param(load_dataset, dataset_row(",,,,,"), False, id="commas-row"),
    pytest.param(load_dataset, dataset_row("# a note"), False, id="hash-line"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,", ',"0",'), False,
                 id="quoted-cell"),
    pytest.param(load_dataset, second_row(ODD_DATASET, "2023-05-01 00:15:00,0,-0.25,0,5,1",
                                          '"2023-05-01 00:15:00","0","-0.25","0","5","1"'),
                 False, id="quoted-row"),
    # csv reads lines 3 and 4 as one row with a two-line note
    pytest.param(load_dataset, "timestamp,demand,temp_c,weekday,month,holiday,note\n"
                               "2023-05-01 00:00:00,1,10.5,0,5,1,x\n"
                               '2023-05-01 00:15:00,0,-0.25,0,5,1,"a\n'
                               '2023-05-01 00:30:00,2,0.1,0,5,0,b"\n', False,
                 id="quoted-line-break"),
    pytest.param(load_dataset, "\ufeff" + ODD_DATASET, False, id="byte-order-mark"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,", ",\u0660,"), False,
                 id="non-ascii-digit"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,", ",\u01fe0,"), False,
                 id="non-ascii-letter"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,", ",0\x1c,"), False,
                 id="separator-after-number"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,", ",0_0,"), False,
                 id="underscore-in-number"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,", ",1e0,"), False,
                 id="float-as-int"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,", ",99999999999999999999,"),
                 False, id="int-overflow"),
    pytest.param(load_dataset, second_row(ODD_DATASET, "-0.25", "warm"), False, id="odd-cell"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",5,1", ",5"), False, id="short-row"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,5,", ",7,5,"), False,
                 id="weekday-out-of-bounds"),
    pytest.param(load_dataset, second_row(ODD_DATASET, "00:15:00", "00:45:00"), False,
                 id="progression-break"),
    pytest.param(load_dataset, ODD_DATASET.split("\n")[0] + "\n", False, id="header-only"),
    pytest.param(load_temperature_csv, stamp(ODD_TEMPERATURE, "2023-05-01 00:00:00"), False,
                 id="temperature-repeated-time"),
])
def test_columnar_path_gives_the_per_row_result(tmp_path, monkeypatch, loader, text, columnar,
                                                timezone):
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode("utf-8"))
    got, want, took_columnar = both_ways(monkeypatch, loader, path, timezone)
    assert got == want
    assert took_columnar == columnar
