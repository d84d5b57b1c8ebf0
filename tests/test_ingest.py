import math
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from demandcast import ingest
from demandcast.errors import GridError, SchemaError, ShapeError
from demandcast.explain import attention_profile
from demandcast.features import FeatureSchema, encode, make_windows
from demandcast.ingest import (
    DATASET_COLUMNS,
    SESSION,
    IntervalSeries,
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
    write_temperature_csv,
)
from demandcast.lstm_att import ModelConfig, ModelParams, forward_batch
from demandcast.synth import SynthConfig, export, generate
from demandcast.util import WRITE_ROWS, write_csv
from helpers import (
    SessionRecord,
    both_ways,
    csv_writer_rows,
    csv_writer_table,
    format_times,
    loop_attention_profile,
    loop_calendar,
    loop_grid_times,
    minute_scan_demand,
    outcome,
    per_row_sessions,
    session_array,
    temperature_readings,
)

HEADER = "start,charge_end,disconnect,energy_kwh\n"
BLOCK_ROWS = 1024  # files of 0, 1, BLOCK_ROWS and BLOCK_ROWS + 1 rows are read below


def dt(text):
    return datetime.fromisoformat(text)


# ---------------------------------------------------------------------------
# parse_sessions
# ---------------------------------------------------------------------------

def test_parse_empty_file_header_only():
    result = parse_sessions(HEADER.encode())
    assert result.records.dtype == SESSION and len(result.records) == 0
    assert result.errors == []


def test_parse_single_row():
    src = HEADER + "2023-08-02 09:00,2023-08-02 10:30,2023-08-02 11:00,7.2\n"
    result = parse_sessions(src.encode())
    assert result.records.dtype == SESSION
    assert result.records.tolist() == [
        (dt("2023-08-02 09:00"), dt("2023-08-02 10:30"), dt("2023-08-02 11:00"), 7.2)]


def test_parse_reports_bad_row_with_line_number():
    src = HEADER + (
        "2023-08-02 09:00,2023-08-02 10:30,2023-08-02 11:00,7.2\n"
        "2023-08-02 09:00,not-a-time,2023-08-02 11:00,3.0\n"
        "2023-08-03 09:00,2023-08-03 10:00,2023-08-03 10:05,5.0\n"
    )
    result = parse_sessions(src.encode())
    assert len(result.records) == 2
    assert len(result.errors) == 1
    assert result.errors[0].line == 3


def test_parse_missing_column_is_schema_error():
    with pytest.raises(SchemaError):
        parse_sessions(b"start,charge_end,energy_kwh\n")


def test_parse_start_after_charge_end_is_row_error():
    src = HEADER + "2023-08-02 11:00,2023-08-02 10:00,2023-08-02 12:00,1.0\n"
    result = parse_sessions(src.encode())
    assert len(result.records) == 0
    assert result.errors[0].line == 2


def test_parse_accepts_byte_stream_and_rfc3339():
    src = (HEADER +
           "2023-08-02T09:00:00Z,2023-08-02T10:00:00Z,2023-08-02T10:30:00Z,2.0\n")
    result = parse_sessions(src.encode())
    assert result.records["start"].tolist() == [dt("2023-08-02 09:00")]


def test_parse_timestamp_timezone_conversion():
    ts = parse_timestamp("2023-08-02T09:00:00-07:00", "America/Los_Angeles")
    assert ts == dt("2023-08-02 09:00")
    ts = parse_timestamp("2023-08-02T16:00:00Z", "America/Los_Angeles")
    assert ts == dt("2023-08-02 09:00")


@pytest.mark.parametrize("text", [
    "2023-05-01 00:15:00\x00", "2023-05-01\x0000:15:00", "2023-05-01\x0100:15:00",
    "2023-05-01 00:15:00\x7f", "2023-05-01\x8500:15:00",
])
def test_parse_timestamp_rejects_control_characters(text):
    with pytest.raises(ValueError, match="unparseable timestamp"):
        parse_timestamp(text)


def test_parse_timestamp_strips_white_space():
    assert parse_timestamp("\t2023-05-01 00:15:00 \r\n") == dt("2023-05-01 00:15")


def test_parse_nul_in_stamp_is_row_error():
    src = HEADER + (
        "2023-08-02 09:00,2023-08-02 10:30\x00,2023-08-02 11:00,7.2\n"
        "2023-08-03 09:00,2023-08-03 10:00,2023-08-03 10:05,5.0\n"
    )
    result = parse_sessions(src.encode())
    assert result.records["start"].tolist() == [dt("2023-08-03 09:00")]
    assert [e.line for e in result.errors] == [2]
    assert "unparseable timestamp" in result.errors[0].message


def test_session_record_invariants():
    with pytest.raises(ValueError):
        SessionRecord(dt("2023-01-01 10:00"), dt("2023-01-01 09:00"),
                      dt("2023-01-01 11:00"), 1.0)
    with pytest.raises(ValueError):
        SessionRecord(dt("2023-01-01 09:00"), dt("2023-01-01 10:00"),
                      dt("2023-01-01 11:00"), -1.0)
    for energy in (math.nan, math.inf):
        with pytest.raises(ValueError, match="energy_kwh must be finite"):
            SessionRecord(dt("2023-01-01 09:00"), dt("2023-01-01 10:00"),
                          dt("2023-01-01 11:00"), energy)


# ---------------------------------------------------------------------------
# aggregate_demand
# ---------------------------------------------------------------------------

def session(start, end):
    s, e = dt(start), dt(end)
    return SessionRecord(s, e, e, 1.0)


def sessions_of(*spans):
    """The ``SESSION`` array of one session per (start, end) text pair."""
    return session_array(session(start, end) for start, end in spans)


def test_aggregate_no_sessions():
    counts = aggregate_demand(session_array([]), dt("2023-08-02 09:00"), 4)
    assert counts.tolist() == [0, 0, 0, 0]


def test_aggregate_partial_overlap_counts_both_intervals():
    counts = aggregate_demand(
        sessions_of(("2023-08-02 09:05", "2023-08-02 09:20")),
        dt("2023-08-02 09:00"), 2,
    )
    assert counts.tolist() == [1, 1]


def test_aggregate_span_ends_at_charge_end_not_disconnect():
    s = SessionRecord(dt("2023-08-02 09:00"), dt("2023-08-02 09:15"),
                      dt("2023-08-02 10:00"), 1.0)
    counts = aggregate_demand(session_array([s]), dt("2023-08-02 09:00"), 4)
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
        got = aggregate_demand(session_array(sessions), origin, n_intervals)
        assert got.tolist() == minute_scan_demand(sessions, origin, n_intervals)


@pytest.mark.parametrize("start, end, want", [
    pytest.param("2023-08-02 09:10", "2023-08-02 09:15:00.5", [1, 1, 0],
                 id="ends-half-a-second-into-an-interval"),
    pytest.param("2023-08-02 09:10", "2023-08-02 09:15", [1, 0, 0], id="ends-on-a-boundary"),
    pytest.param("2023-08-02 08:50", "2023-08-02 09:20", [1, 1, 0], id="starts-before-origin"),
    pytest.param("2023-08-02 08:00", "2023-08-02 08:59:59.5", [0, 0, 0],
                 id="ends-before-origin"),
    pytest.param("2023-08-02 09:40", "2023-08-02 11:00", [0, 0, 1], id="runs-past-the-grid"),
    pytest.param("2023-08-02 09:20", "2023-08-02 09:20", [0, 0, 0], id="empty-span"),
])
def test_aggregate_matches_minute_scan_on_edge_sessions(start, end, want):
    origin, sessions = dt("2023-08-02 09:00"), [session(start, end)]
    assert minute_scan_demand(sessions, origin, 3) == want
    assert aggregate_demand(session_array(sessions), origin, 3).tolist() == want


def test_aggregate_counts_a_sub_second_end_in_the_interval_grid_span_adds():
    sessions = [session("2023-08-02 09:10", "2023-08-02 09:15:00.5")]
    origin, n = grid_span(sessions[0].start, sessions[0].charge_end)
    assert n == 2
    assert aggregate_demand(session_array(sessions), origin, n).tolist() == [1, 1]


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
    total = int(aggregate_demand(session_array(sessions), origin, n_intervals).sum())
    per_session = sum(
        int(aggregate_demand(session_array([s]), origin, n_intervals).sum()) for s in sessions
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


def test_join_out_of_reach_at_both_ends_names_the_first_interval():
    g = grid("2023-05-01 00:00", 40)  # 00:00 .. 09:45
    readings = [(dt("2023-05-01 04:00"), 20.0), (dt("2023-05-01 05:00"), 22.0)]
    with pytest.raises(GridError) as err:
        join_temperature(g, temperature_readings(readings))
    assert "interval 2023-05-01T00:00:00" in str(err.value)


def test_join_empty_readings_error():
    with pytest.raises(GridError):
        join_temperature(grid("2023-05-01 00:00", 1), temperature_readings([]))


# ---------------------------------------------------------------------------
# attach_calendar
# ---------------------------------------------------------------------------

def test_attach_calendar_holiday_weekday_month():
    g = grid("2023-07-04 10:00", 1)
    out = attach_calendar(g, frozenset({date(2023, 7, 4)}))
    assert out.holiday[0]
    assert out.weekday[0] == 1  # Tuesday
    assert out.month[0] == 7


def test_attach_calendar_month_boundary():
    g = grid("2023-12-31 23:45", 2)
    out = attach_calendar(g, frozenset(set()))
    assert out.month.tolist() == [12, 1]


def test_attach_calendar_full_week_weekday_counts():
    g = grid("2024-01-01 00:00", 7 * 96)  # a Monday
    out = attach_calendar(g, frozenset(set()))
    for wd in range(7):
        assert int((out.weekday == wd).sum()) == 96


def test_attach_calendar_idempotent():
    g = grid("2023-05-01 00:00", 10)
    cal = frozenset({date(2023, 5, 1)})
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
    holidays = frozenset({
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


def csv_writer_files(tmp_path, series):
    """The bytes the ``csv.writer`` oracle writes for the demand grid,
    temperature and dataset files of ``series``."""
    times = loop_grid_times(series.origin, len(series))
    want = {}
    for name, header, columns in (
            ("demand", ["timestamp", "demand"], [series.demand]),
            ("temperature", ["timestamp", "temp_c"], [series.temperature]),
            ("dataset", DATASET_COLUMNS, [series.demand, series.temperature, series.weekday,
                                          series.month, series.holiday.astype(np.int64)])):
        path = tmp_path / f"want-{name}.csv"
        csv_writer_table(path, header, times, *columns)
        want[name] = path.read_bytes()
    return want


def written_files(tmp_path, series):
    """The bytes each grid writer writes for ``series``."""
    paths = {name: tmp_path / f"{name}.csv" for name in ("demand", "temperature", "dataset")}
    write_demand_grid(paths["demand"], series)
    write_temperature_csv(paths["temperature"], series.times(), series.temperature)
    write_dataset(paths["dataset"], series)
    return {name: path.read_bytes() for name, path in paths.items()}


def assert_same_files(got, want):
    for name in want:
        assert got[name] == want[name], name


def test_writers_equal_csv_writer_on_synth_export(tmp_path):
    series, holidays = generate(SynthConfig(days=730, seed=7, start=date(2023, 3, 1)))
    paths = export(series, holidays, tmp_path)
    paths["dataset"] = tmp_path / "dataset.csv"
    write_dataset(paths["dataset"], series)
    got = {name: paths[name].read_bytes() for name in ("demand", "temperature", "dataset")}
    assert_same_files(got, csv_writer_files(tmp_path, series))


EDGE_TEMPERATURES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, -40.25, -273.15, 0.1, 1 / 3, 1e16,
                     123456789.123, float("nan"), float("inf"), float("-inf"),
                     # ties at the 17th digit: half to even rounds down, then up
                     1 + 2**-17, 1 + 3 * 2**-17, 1000 + 2**-8,
                     # rounding that carries through trailing nines
                     1.998, 0.1 + 0.2, 2.675, 0.30000000000000004,
                     # integral values, where the point and fraction go
                     1.0, -40.0, 2.0**49, 1e14 + 1, 123456789012345.0, 999999999999999.0]


def decade_edges():
    """Each power of ten 1e-5..1e16, with 1e-4 and 1e15 the ends of the exact
    range, and the doubles next to it, both signs: below a power, log10
    names the next decade."""
    powers = np.array([float(f"1e{k}") for k in range(-5, 17)])
    near = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    return np.concatenate([near, -near])


def test_writers_equal_csv_writer_on_edge_values(tmp_path):
    rng = np.random.default_rng(5)
    random_doubles = rng.integers(0, 2**63, size=500).view(np.float64)
    low, high = np.array([1e-4, 1e15]).view(np.int64)
    exact_range = rng.integers(low, high, size=100_000).view(np.float64)
    temps = np.concatenate([EDGE_TEMPERATURES, decade_edges(), random_doubles, exact_range])
    temps[-len(random_doubles) - len(exact_range)::2] *= -1
    demand = rng.integers(0, 2**62, size=len(temps))
    demand[:3] = [0, 2**63 - 1, 10**12]
    series = attach_calendar(
        IntervalSeries(origin=dt("2023-03-11 22:00"), demand=demand, temperature=temps),
        frozenset([date(2023, 3, 12)]))
    assert_same_files(written_files(tmp_path, series), csv_writer_files(tmp_path, series))

    # a time that is NaT is written as NaT
    times = series.times()
    times[::3] = np.datetime64("NaT")
    write_temperature_csv(tmp_path / "nat.csv", times[:50], temps[:50])
    csv_writer_rows(tmp_path / "want-nat.csv", ["timestamp", "temp_c"],
                    ([t.isoformat(sep=" ") if t else "NaT", v]
                     for t, v in zip(times[:50].tolist(), temps[:50].tolist())))
    assert (tmp_path / "nat.csv").read_bytes() == (tmp_path / "want-nat.csv").read_bytes()
    assert b"\r\nNaT,-0\r\n" in (tmp_path / "nat.csv").read_bytes()


@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1, WRITE_ROWS, WRITE_ROWS + 1])
def test_writers_equal_csv_writer_at_block_edges(tmp_path, rows):
    rng = np.random.default_rng(rows)
    series = attach_calendar(
        IntervalSeries(origin=dt("2023-12-31 12:00"), demand=rng.integers(0, 50, size=rows),
                       temperature=rng.normal(0.0, 15.0, size=rows)),
        frozenset([date(2024, 1, 1)]))
    assert_same_files(written_files(tmp_path, series), csv_writer_files(tmp_path, series))


def test_write_csv_equals_csv_writer_on_integer_and_list_columns(tmp_path):
    """``%d`` of signed, unsigned and boolean arrays and of a list, and
    ``%.17g`` of a list and of integers, are the bytes ``csv.writer``
    writes; another spec is ``%`` of each cell."""
    signed = np.array([0, -1, 7, -10, 2**63 - 1, -2**63, 10**12, -(10**12)])
    unsigned = np.array([0, 1, 9, 10, 99, 100, 2**64 - 1, 2**63], dtype=np.uint64)
    flags = np.arange(len(signed)) % 3 == 0
    floats = [0.5, -2.0, 1e-5, 3, 1e300, -0.0, 123.25, float("nan")]
    columns = [signed, unsigned, flags, signed.tolist(), floats, signed, floats]
    write_csv(tmp_path / "got.csv", list("abcdefg"), "%d,%d,%d,%d,%.17g,%.17g,%.2f", columns)
    csv_writer_rows(tmp_path / "want.csv", list("abcdefg"),
                    ([a, b, int(c), d, float(e), float(f), "%.2f" % g]
                     for a, b, c, d, e, f, g in zip(*(np.asarray(c, dtype=object).tolist()
                                                     for c in columns))))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_writer_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ShapeError):
        write_temperature_csv(tmp_path / "t.csv", grid_times(dt("2023-05-01 00:00"), 3),
                              [1.0, 2.0])


def test_format_times_matches_isoformat():
    rng = np.random.default_rng(2)
    lo, hi = np.array(["0001-01-01", "9999-12-31T23:59:59"], "datetime64[s]").astype(np.int64)
    times = np.concatenate([rng.integers(lo, hi, size=2000).astype("datetime64[s]"),
                            grid_times(dt("2023-03-11 00:00"), 300)])
    assert format_times(times) == [t.isoformat(sep=" ") for t in times.tolist()]
    assert format_times(np.array(["NaT"], "datetime64[s]")) == ["NaT"]


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
# 1,500 rows and a blank line: the next row is file line 1503
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
    pytest.param(load_demand_grid, "timestamp,demand\n\n2023-05-01 00:07,1\n2023-05-01 00:22,2\n",
                 GridError, "line 3: first timestamp 2023-05-01 00:07:00 is not on a 15-minute "
                 "boundary", id="grid-first-stamp-off-the-grid"),
    pytest.param(load_demand_grid, GRID + "2023-05-01 00:15,-2\n", SchemaError,
                 "line 3: demand: -2 is outside 0..9223372036854775807", id="grid-demand-negative"),
    pytest.param(load_demand_grid, GRID + "2023-05-01 00:15,99999999999999999999\n", SchemaError,
                 "line 3: demand: 99999999999999999999 is outside", id="grid-demand-overflow"),
    pytest.param(load_temperature_csv, TEMPERATURE + "2023-05-01 00:15,nan\n",
                 SchemaError, "line 3: temp_c: nan is not a finite number", id="temperature-nan"),
    pytest.param(load_temperature_csv, TEMPERATURE + "2023-05-01 00:15,inf\n",
                 SchemaError, "line 3: temp_c: inf is not a finite number", id="temperature-inf"),
    pytest.param(load_temperature_csv, TEMPERATURE + "2023-05-01 00:15,1e500\n",
                 SchemaError, "line 3: temp_c: 1e500 is not a finite number",
                 id="temperature-1e500"),
    pytest.param(load_dataset, DATASET + "2023-05-01 00:15,1,hot,0,5,1\n",
                 SchemaError, "line 3: temp_c:", id="dataset-cell"),
    pytest.param(load_dataset, DATASET + "2023-05-01 00:15,1,10.5,0,5\n",
                 SchemaError, "line 3: holiday:", id="dataset-short-row"),
    pytest.param(load_dataset,
                 DATASET + "2023-05-01 00:15,1,x,0,5,1\n2023-05-01 00:30,y,1,0,5,1\n",
                 SchemaError, "line 3: temp_c:", id="dataset-first-bad-row"),
    pytest.param(load_dataset, "", SchemaError, "line 1:", id="dataset-empty"),
    pytest.param(load_dataset, DATASET + "2023-05-01 00:15,-2,10.5,0,5,1\n", SchemaError,
                 "line 3: demand: -2 is outside", id="dataset-demand-negative"),
    pytest.param(load_dataset, DATASET + "2023-05-01 00:15,1,nan,0,5,1\n", SchemaError,
                 "line 3: temp_c: nan is not a finite number", id="dataset-nan"),
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
    pytest.param(load_dataset, DATASET + "2023-05-01 00:15\x00,1,10.5,0,5,1\n",
                 SchemaError, "line 3: timestamp: unparseable", id="dataset-stamp-nul"),
    pytest.param(load_temperature_csv, TEMPERATURE + "2023-05-01 00:15:00\x00,11\n",
                 SchemaError, "line 3: timestamp: unparseable", id="temperature-stamp-nul"),
    pytest.param(load_demand_grid, GRID.encode() + b"2023-05-01 00:15,\xff\n",
                 SchemaError, "line 3: not UTF-8 text (byte 0xff)", id="grid-not-utf8"),
    pytest.param(load_temperature_csv, TEMPERATURE.encode() + b"\n2023-05-01 00:15,1\xe9\n",
                 SchemaError, "line 4: not UTF-8 text (byte 0xe9)", id="temperature-not-utf8"),
    pytest.param(load_dataset, DATASET.encode() + b"2023-05-01 00:15,\xff,10.5,0,5,1\n",
                 SchemaError, "line 3: not UTF-8 text (byte 0xff)", id="dataset-not-utf8"),
    pytest.param(parse_sessions,
                 (HEADER + "2023-05-01 08:00,2023-05-01 09:00,2023-05-01 09:30,7.5\n").encode()
                 + b"2023-05-01 10:00,2023-05-01 11:00,2023-05-01 11:30,\xff\n",
                 SchemaError, "line 3: not UTF-8 text (byte 0xff)", id="sessions-not-utf8"),
    pytest.param(load_temperature_csv, "timestamp,temp_c\n0001-01-01T00:00:00+05:00,1.0\n",
                 SchemaError, "line 2: timestamp: timestamp '0001-01-01T00:00:00+05:00' is out "
                 "of range in UTC", id="temperature-offset-before-year-1"),
    pytest.param(load_demand_grid, GRID + "9999-12-31T23:00:00-05:00,1\n", SchemaError,
                 "line 3: timestamp: timestamp '9999-12-31T23:00:00-05:00' is out of range",
                 id="grid-offset-after-year-9999"),
    pytest.param(load_holidays_csv, b"date\n2023-07-04\r\n2023-12-2\x80\n",
                 SchemaError, "line 3: not UTF-8 text (byte 0x80)", id="holiday-not-utf8"),
])
def test_bad_input_is_typed_error_naming_file_line(tmp_path, loader, text, error, where):
    """The loader names the file line from a path and from the file's bytes."""
    data = text if isinstance(text, bytes) else text.encode()
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    for source in (path, data):
        with pytest.raises(error) as err:
            loader(source)
        assert where in str(err.value), source


# ---------------------------------------------------------------------------
# columnar path against the per-row reader
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("timezone", [None, "America/Los_Angeles"])
def test_columnar_loaders_equal_per_row_reader_on_synth_export(tmp_path, monkeypatch, timezone):
    # 2,016 rows, over the 2023-03-12 DST change
    series, holidays = generate(SynthConfig(days=21, seed=7, start=date(2023, 3, 1)))
    paths = export(series, holidays, tmp_path)
    write_dataset(tmp_path / "dataset.csv", series)
    for loader, path in ((load_demand_grid, paths["demand"]),
                         (load_temperature_csv, paths["temperature"]),
                         (load_dataset, tmp_path / "dataset.csv")):
        got, want, columnar = both_ways(monkeypatch, tmp_path, loader, path, timezone)
        assert columnar, loader.__name__
        assert got == want, loader.__name__

    back = load_dataset(tmp_path / "dataset.csv", timezone)
    assert back.origin == series.origin
    for name in ("demand", "temperature", "weekday", "month", "holiday"):
        assert getattr(back, name).tobytes() == getattr(series, name).tobytes(), name
    readings = load_temperature_csv(paths["temperature"], timezone)
    assert np.array_equal(readings["time"], series.times())
    assert readings["temp_c"].tobytes() == series.temperature.tobytes()


@pytest.mark.parametrize("name, loader", [("demand", load_demand_grid),
                                          ("temperature", load_temperature_csv),
                                          ("dataset", load_dataset)])
def test_one_offset_stamp_is_the_one_row_read_cell_by_cell(tmp_path, monkeypatch, name, loader):
    """An export with one stamp given a UTC offset reads that row alone
    cell by cell, and every other row by byte offsets; the values are the
    oracle's, and those of the export without the offset."""
    series, holidays = generate(SynthConfig(days=7, seed=3))
    paths = export(series, holidays, tmp_path)
    paths["dataset"] = tmp_path / "dataset.csv"
    write_dataset(paths["dataset"], series)
    want = outcome(loader, paths[name])
    data = paths[name].read_bytes()
    stamp = format_times(series.times()[400:401])[0].encode()
    assert data.count(stamp + b",") == 1
    path = tmp_path / "offset.csv"
    path.write_bytes(data.replace(stamp + b",", stamp + b"+00:00,"))
    rows = []
    read_rows = ingest._read_rows
    monkeypatch.setattr(ingest, "_read_rows", lambda *a: rows.extend(a[0]) or read_rows(*a))
    assert outcome(loader, path) == want
    assert len(rows) == 1 and rows[0][0] == stamp.decode() + "+00:00"
    monkeypatch.undo()
    got, oracle, columnar = both_ways(monkeypatch, tmp_path, loader, path, None)
    assert got == oracle == want and not columnar


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


def test_nul_in_stamp_is_schema_error_naming_line_on_both_paths(tmp_path, monkeypatch):
    path = tmp_path / "input.csv"
    path.write_bytes(stamp(ODD_DATASET, "2023-05-01 00:15:00\x00").encode("utf-8"))
    got, want, _ = both_ways(monkeypatch, tmp_path, load_dataset, path, None)
    assert got == want
    assert got[0] is SchemaError and "line 3: timestamp: unparseable timestamp" in got[1]


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
    pytest.param(load_dataset, second_row(ODD_DATASET, "-0.25", "2.2250738585072011e-308"),
                 True, id="float-subnormal-edge"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,", ",1000000000000000000,"), True,
                 id="demand-19-digits"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,", ",9223372036854775807,"), True,
                 id="demand-int64-max"),
    pytest.param(load_temperature_csv, ODD_TEMPERATURE, True, id="temperature-lf"),
    # both paths read the header the same way, so no header fails on either
    pytest.param(load_dataset, "", True, id="empty-file"),
    pytest.param(load_demand_grid, ODD_GRID.replace("\n", "\r\n"), True, id="grid-crlf"),
    # one leading byte-order mark is dropped before the text is read
    pytest.param(load_dataset, "\ufeff" + ODD_DATASET, True, id="byte-order-mark"),
    # a 16-byte stamp reads as the 19-byte one ending in ":00"
    pytest.param(load_dataset, stamp(ODD_DATASET, "2023-05-01 00:15"), True,
                 id="stamp-no-seconds"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "2023-05-01T00:15"), True,
                 id="stamp-t-no-seconds"),
    pytest.param(load_demand_grid, stamp(ODD_GRID, "2023-05-01 00:15"), True,
                 id="grid-stamp-no-seconds"),
    pytest.param(load_dataset, ODD_DATASET.replace(":00,", ","), True, id="dataset-hh-mm"),
    pytest.param(load_temperature_csv, ODD_TEMPERATURE.replace(":00,", ","), True,
                 id="temperature-hh-mm"),
    pytest.param(load_demand_grid, ODD_GRID.replace(":00,", ",").replace("\n", "\r\n"), True,
                 id="grid-hh-mm"),
    # blank lines are skipped
    pytest.param(load_dataset, ODD_DATASET.split("\n")[0] + "\n", True, id="header-only"),
    pytest.param(load_dataset, ODD_DATASET.split("\n")[0] + "\n\r\n\n", True,
                 id="header-then-blank-lines"),
    pytest.param(load_dataset, dataset_row("   "), True, id="white-space-row"),
    pytest.param(load_dataset, dataset_row(",,,,,"), True, id="commas-row"),
    # a break in the time rule names the line of the row read by byte offsets
    pytest.param(load_dataset, second_row(ODD_DATASET, "00:15:00", "00:45:00"), True,
                 id="progression-break"),
    pytest.param(load_temperature_csv, stamp(ODD_TEMPERATURE, "2023-05-01 00:00:00"), True,
                 id="temperature-repeated-time"),
    # timestamps the per-row reader reads or rejects otherwise than numpy
    pytest.param(load_dataset, stamp(ODD_DATASET, "2023-05-01 00:60"), False,
                 id="stamp-minute-60-no-seconds"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "2023-05-01 00:15 "), False,
                 id="stamp-17-bytes"),
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
    # rows and cells the per-row reader reads or rejects otherwise than numpy
    pytest.param(load_dataset, ODD_DATASET.replace("\n", "\r"), False, id="cr"),
    pytest.param(load_dataset, ODD_DATASET.replace("\n", "\r", 1), False, id="cr-after-header"),
    pytest.param(load_dataset, ODD_DATASET.replace("\n", "\r\n").replace(",1\r\n", ",1\r", 1),
                 False, id="crlf-with-one-lone-cr"),
    pytest.param(load_dataset, ODD_DATASET.replace("\n", "\r\n") + "\r", False,
                 id="crlf-then-final-cr"),
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
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,", ",\u0660,"), False,
                 id="non-ascii-digit"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,", ",\u01fe0,"), False,
                 id="non-ascii-letter"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,", ",0\x1c,"), False,
                 id="separator-after-number"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,", ",0_0,"), False,
                 id="underscore-in-number"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,", ",1 2,"), False,
                 id="space-inside-number"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,", ",1e0,"), False,
                 id="float-as-int"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,", ",99999999999999999999,"),
                 False, id="int-overflow"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,", ",9223372036854775808,"), False,
                 id="demand-2-to-63"),
    pytest.param(load_dataset, second_row(ODD_DATASET, "-0.25", "warm"), False, id="odd-cell"),
    pytest.param(load_dataset, second_row(ODD_DATASET, "-0.25", "NaN"), False, id="nan"),
    pytest.param(load_dataset, second_row(ODD_DATASET, "-0.25", "-1e500"), False,
                 id="float-overflow"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",5,1", ",5"), False, id="short-row"),
    pytest.param(load_dataset, second_row(ODD_DATASET, ",0,5,", ",7,5,"), False,
                 id="weekday-out-of-bounds"),
])
def test_columnar_path_gives_the_per_row_result(tmp_path, monkeypatch, loader, text, columnar,
                                                timezone):
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode("utf-8"))
    got, want, took_columnar = both_ways(monkeypatch, tmp_path, loader, path, timezone)
    assert got == want
    assert took_columnar == columnar


@pytest.mark.parametrize("loader, data", [
    pytest.param(load_dataset, ODD_DATASET.replace("\n", "\r\n").encode(), id="plain"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "2023-05-01 00:15").encode(), id="per-row"),
    pytest.param(load_temperature_csv, ODD_TEMPERATURE.encode(), id="temperature"),
    pytest.param(load_dataset, second_row(ODD_DATASET, "warm", "x").encode(), id="bad-cell"),
    pytest.param(load_dataset, second_row(ODD_DATASET, "-0.25", "-0.\xff").encode("latin-1"),
                 id="not-utf-8"),
])
def test_whole_file_loaders_read_paths_and_streams_alike(tmp_path, loader, data):
    """A path, the path as str and the file's bytes give the same arrays or
    the same error."""
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    got = outcome(loader, path)
    assert outcome(loader, str(path)) == got
    assert outcome(loader, data) == got
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        assert got[0] is SchemaError and "line 3: not UTF-8 text (byte 0xff)" in got[1]


# ---------------------------------------------------------------------------
# the dataset cache
# ---------------------------------------------------------------------------

REORDERED_DATASET = "holiday,month,weekday,temp_c,demand,timestamp\n" + "".join(
    ",".join(reversed(row.split(","))) + "\n" for row in ODD_DATASET.splitlines()[1:])


def cache_files(tmp_path):
    """Every file in the dataset cache directory of the test."""
    return sorted((tmp_path / "demandcast").glob("*"))


def parses(monkeypatch):
    """A list that gets one item for every dataset CSV that is parsed."""
    calls = []
    parse = ingest._parse_dataset
    monkeypatch.setattr(ingest, "_parse_dataset", lambda *a: calls.append(a) or parse(*a))
    return calls


@pytest.mark.parametrize("timezone", [None, "America/Los_Angeles"])
@pytest.mark.parametrize("text", [
    pytest.param(ODD_DATASET, id="lf"),
    pytest.param(ODD_DATASET.replace("\n", "\r\n"), id="crlf"),
    pytest.param(stamp(ODD_DATASET, "2023-05-01T00:15:00"), id="t-separator"),
    pytest.param(REORDERED_DATASET, id="reordered-columns"),
    pytest.param(stamp(ODD_DATASET, "2023-05-01 00:15"), id="per-row-reader"),
])
def test_warm_load_equals_cold_load(tmp_path, monkeypatch, text, timezone):
    path = tmp_path / "dataset.csv"
    path.write_bytes(text.encode())
    calls = parses(monkeypatch)
    cold = load_dataset(path, timezone)
    [entry] = cache_files(tmp_path)
    assert entry.stat().st_size == ingest._ENTRY.size + 19 * len(cold)
    warm = load_dataset(path, timezone)
    assert len(calls) == 1
    assert outcome(lambda: warm) == outcome(lambda: cold)
    for name in ("demand", "temperature", "weekday", "month", "holiday"):
        column = getattr(warm, name)
        assert column.flags.c_contiguous and column.flags.writeable, name


def test_changed_bytes_timezone_or_reader_is_a_miss(tmp_path, monkeypatch):
    path = tmp_path / "dataset.csv"
    path.write_bytes(ODD_DATASET.encode())
    calls = parses(monkeypatch)
    load_dataset(path)
    path.write_bytes(second_row(ODD_DATASET, "-0.25", "-0.26").encode())
    assert load_dataset(path).temperature[1] == -0.26
    load_dataset(path, "America/Los_Angeles")
    monkeypatch.setattr(ingest, "_reader_digest", lambda: bytes(32))
    load_dataset(path, "America/Los_Angeles")
    assert len(calls) == len(cache_files(tmp_path)) == 4


def truncate(entry, other):
    entry.write_bytes(entry.read_bytes()[:-1])


def garble(entry, other):
    entry.write_bytes(np.random.default_rng(0).bytes(entry.stat().st_size))


def flip_a_payload_byte(entry, other):
    data = bytearray(entry.read_bytes())
    data[-1] ^= 1
    entry.write_bytes(bytes(data))


def rename_another_entry(entry, other):
    other.replace(entry)


@pytest.mark.parametrize("damage", [truncate, garble, flip_a_payload_byte,
                                    rename_another_entry])
def test_damaged_entry_is_ignored_and_rewritten(tmp_path, monkeypatch, damage):
    path, other = tmp_path / "dataset.csv", tmp_path / "other.csv"
    path.write_bytes(ODD_DATASET.encode())
    other.write_bytes(second_row(ODD_DATASET, "-0.25", "-0.26").encode())
    want = outcome(load_dataset, path)
    [entry] = cache_files(tmp_path)
    whole = entry.read_bytes()
    load_dataset(other)
    [other_entry] = set(cache_files(tmp_path)) - {entry}
    damage(entry, other_entry)
    calls = parses(monkeypatch)
    assert outcome(load_dataset, path) == want
    assert len(calls) == 1
    assert entry.read_bytes() == whole


@pytest.mark.parametrize("cache", ["file", "file/below", "demandcast-is-a-file"])
def test_unusable_cache_directory_still_loads(tmp_path, monkeypatch, cache):
    path = tmp_path / "dataset.csv"
    path.write_bytes(ODD_DATASET.encode())
    want = outcome(load_dataset, path)
    (tmp_path / "file").write_text("x")
    (tmp_path / "demandcast-is-a-file").mkdir()
    (tmp_path / "demandcast-is-a-file" / "demandcast").write_text("x")
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / cache))
    calls = parses(monkeypatch)
    assert outcome(load_dataset, path) == outcome(load_dataset, path) == want
    assert len(calls) == 2
    assert sorted(tmp_path.rglob("*")) == before


def test_failed_entry_write_leaves_no_file(tmp_path, monkeypatch):
    path = tmp_path / "dataset.csv"
    path.write_bytes(ODD_DATASET.encode())
    want = outcome(load_dataset, path)
    (entry,) = cache_files(tmp_path)
    entry.unlink()

    def full(*_):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(ingest.os, "replace", full)
    assert outcome(load_dataset, path) == want
    assert cache_files(tmp_path) == []


@pytest.mark.parametrize("missing", ["home", "reader-source"])
def test_no_home_directory_or_reader_source_caches_nothing(tmp_path, monkeypatch, missing):
    path = tmp_path / "dataset.csv"
    path.write_bytes(ODD_DATASET.encode())
    if missing == "home":
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setattr(ingest.os.path, "expanduser", lambda p: p)  # as with no home
    else:
        monkeypatch.setattr(ingest, "_reader_digest", lambda: None)
    monkeypatch.chdir(tmp_path)
    calls = parses(monkeypatch)
    assert outcome(load_dataset, path) == outcome(load_dataset, path)
    assert len(calls) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.csv"]


def test_relative_xdg_cache_home_is_ignored_for_the_home_cache(tmp_path, monkeypatch):
    path = tmp_path / "dataset.csv"
    path.write_bytes(ODD_DATASET.encode())
    monkeypatch.setenv("XDG_CACHE_HOME", "relative")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.chdir(tmp_path)
    load_dataset(path)
    assert len(cache_files(tmp_path / "home" / ".cache")) == 1
    assert not (tmp_path / "relative").exists()


@pytest.mark.parametrize("text, error, where", [
    pytest.param(DATASET + "2023-05-01 00:15,1,hot,0,5,1\n", SchemaError, "line 3: temp_c:",
                 id="bad-cell"),
    pytest.param(DATASET + "\n\n2023-05-01 00:45,1,10.5,0,5,1\n", GridError, "line 5:",
                 id="progression-break"),
    pytest.param(DATASET.replace("00:00", "00:07"), GridError, "line 2: first timestamp",
                 id="first-stamp-off-the-grid"),
    pytest.param(DATASET.encode() + b"2023-05-01 00:15,\xff,10.5,0,5,1\n", SchemaError,
                 "line 3: not UTF-8 text", id="not-utf8"),
])
def test_bad_csv_is_the_same_error_twice_and_no_entry(tmp_path, text, error, where):
    path = tmp_path / "dataset.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    got = outcome(load_dataset, path)
    assert got[0] is error and where in got[1]
    assert outcome(load_dataset, path) == got
    assert cache_files(tmp_path) == []


# ---------------------------------------------------------------------------
# parse_sessions against the per-row oracle
# ---------------------------------------------------------------------------

SESSIONS = HEADER + (
    "2023-08-02 09:00:00,2023-08-02 10:30:00,2023-08-02 11:00:00,7.2\n"
    "2023-08-02 09:15:00,2023-08-02 09:45:00,2023-08-02 10:00:00,1.5\n"
    "2023-08-03 09:00:00,2023-08-03 10:00:00,2023-08-03 10:05:00,5.0\n"
)


def start(text):
    """SESSIONS with the start of its second data row replaced by ``text``."""
    return second_row(SESSIONS, "2023-08-02 09:15:00", text)


def energy(text):
    return second_row(SESSIONS, ",1.5", "," + text)


def session_rows(n):
    """A sessions CSV of ``n`` rows. The first row of each BLOCK_ROWS has a
    UTC start, which only the per-row reader reads, and the last one has an
    energy that is not a number."""
    rows = [HEADER]
    for k in range(n):
        s = datetime(2023, 8, 2) + k * timedelta(minutes=7)
        cells = [str(s), str(s + timedelta(minutes=50)), str(s + timedelta(hours=1)), f"{k % 9}.25"]
        if k % BLOCK_ROWS == 0:
            cells[0] = s.isoformat() + "Z"
        if k % BLOCK_ROWS == BLOCK_ROWS - 1:
            cells[3] = "n/a"
        rows.append(",".join(cells) + "\n")
    return "".join(rows)


def malformed_sessions(n, seed):
    """A sessions CSV of ``n`` rows with CRLF line ends, as csv writes it,
    about one row in eight malformed in one of five ways (an unparseable
    start, start and charge_end swapped, a negative energy, an energy that is
    not a number, a missing cell), and the number of rows with a cell that
    does not read: the malformed rows that break no rule of a session."""
    rng = np.random.default_rng(seed)
    rows, unread = [HEADER.rstrip("\n")], 0
    for _ in range(n):
        s = datetime(2023, 1, 1) + timedelta(seconds=int(rng.integers(0, 10**7)))
        e = s + timedelta(seconds=int(rng.integers(60, 30000)))
        row = [str(s), str(e), str(e + timedelta(seconds=int(rng.integers(0, 7200)))),
               repr(round(float(rng.uniform(0, 60)), 3))]
        kind = int(rng.integers(0, 40))
        if kind == 0:
            row[0] = "not-a-time"
        elif kind == 1:
            row[0], row[1] = row[1], row[0]
        elif kind == 2:
            row[3] = "-1.5"
        elif kind == 3:
            row[3] = "n/a"
        elif kind == 4:
            row = row[:3]
        unread += kind in (0, 3, 4)
        rows.append(",".join(row))
    return "".join(row + "\r\n" for row in rows), unread


MALFORMED, UNREAD_ROWS = malformed_sessions(3 * BLOCK_ROWS + 1, seed=24)


@pytest.mark.parametrize("timezone", [None, "America/Los_Angeles"])
@pytest.mark.parametrize("text, per_row", [
    # rows the columnar path reads
    pytest.param(SESSIONS, 0, id="lf"),
    pytest.param(SESSIONS.replace("\n", "\r\n"), 0, id="crlf"),
    pytest.param(start("2023-08-02T09:15:00"), 0, id="t-separator"),
    pytest.param(start("2023-08-02 09:15"), 0, id="stamp-no-seconds"),
    pytest.param(start("2023-08-02T09:15"), 0, id="stamp-t-no-seconds"),
    pytest.param(SESSIONS.replace("\n2023-08-02 09:15", "\n\n2023-08-02 09:15"), 0,
                 id="blank-row"),
    pytest.param(SESSIONS.replace("\n2023-08-02 09:15", "\n,,,\n2023-08-02 09:15"), 0,
                 id="commas-row"),
    pytest.param(SESSIONS.replace("\n2023-08-02 09:15", "\n \t, \n2023-08-02 09:15"), 0,
                 id="white-space-row"),
    pytest.param(energy("1.5,extra"), 0, id="long-row"),
    pytest.param("note,energy_kwh,disconnect,charge_end,start\n" + "".join(
        "x," + ",".join(reversed(row.split(","))) + "\n" for row in SESSIONS.splitlines()[1:]),
        0, id="extra-and-reordered-columns"),
    pytest.param(second_row(SESSIONS, "09:45:00,2023-08-02 10:00:00", "09:15:00,2023-08-02 09:15:00"),
                 0, id="equal-times"),
    pytest.param(energy("-0.0"), 0, id="energy-minus-zero"),
    pytest.param(energy("1_0"), 0, id="energy-underscore"),
    pytest.param(energy(" 1.5\t"), 0, id="energy-white-space"),
    pytest.param(energy("1e308"), 0, id="energy-large"),
    pytest.param(HEADER.replace("\n", ",note\n") + SESSIONS.removeprefix(HEADER), 0,
                 id="rows-leave-out-a-trailing-column"),
    pytest.param(energy("1.5,extra,more"), 0, id="two-extra-cells"),
    # rows that read by byte offsets and break a rule of a session
    pytest.param(energy("-1.5"), 0, id="energy-negative"),
    pytest.param(start("2023-08-02 09:50:00"), 0, id="start-after-charge-end"),
    pytest.param(second_row(SESSIONS, "10:00:00,1.5", "09:30:00,1.5"), 0,
                 id="charge-end-after-disconnect"),
    pytest.param(second_row(start("2023-08-02 09:50:00"), ",1.5", ",-1.5"), 0,
                 id="times-and-energy-broken"),  # the times rule is checked first
    # text that is not plain: the csv module splits it, and _read_rows reads
    # every row that is not blank
    pytest.param(SESSIONS.replace("\n", "\r"), 3, id="cr"),
    pytest.param(start('"2023-08-02 09:15:00"'), 3, id="quoted-cell"),
    pytest.param(second_row(SESSIONS, "2023-08-02 09:15:00,2023-08-02 09:45:00,"
                                      "2023-08-02 10:00:00,1.5",
                            '"2023-08-02 09:15:00","2023-08-02 09:45:00",'
                            '"2023-08-02 10:00:00","1.5"'), 3, id="quoted-row"),
    pytest.param(HEADER.replace("\n", ",note\n")
                 + "2023-08-02 09:00:00,2023-08-02 10:30:00,2023-08-02 11:00:00,7.2,\"a\nb\"\n"
                 + "2023-08-02 09:15:00,2023-08-02 09:45:00,2023-08-02 10:00:00,x,\n"
                 + "2023-08-03 09:00:00,2023-08-03 10:00:00,2023-08-03 10:05:00,5.0,c\n",
                 3, id="quoted-line-break"),
    pytest.param(energy("١.5"), 3, id="energy-non-ascii-digit"),
    pytest.param(energy("1.5\x85"), 3, id="energy-c1-next-line"),  # white space to float
    pytest.param(energy("1.5\x00"), 3, id="energy-nul"),
    pytest.param(start("2023-08-02 09:15:00\x00"), 3, id="stamp-nul-at-end"),
    pytest.param(start("2023-08-02\x0009:15:00"), 3, id="stamp-nul-separator"),
    pytest.param(start("2023-08-02\x8509:15:00"), 3, id="stamp-c1-separator"),
    pytest.param(start("2023-08-02 09:15:0٠"), 3, id="stamp-non-ascii-digit"),
    pytest.param(start("２023-08-02 09:15:00"), 3, id="stamp-fullwidth-digit"),
    pytest.param(SESSIONS.replace("1.5", "-2").replace("\n", "\r"), 3, id="cr-energy-negative"),
    pytest.param("\ufeff" + start('"2023-08-02 09:15:00"'), 3, id="byte-order-mark-quoted"),
    # rows the per-row reader reads again
    pytest.param(energy("nan"), 1, id="energy-nan"),
    pytest.param(energy("inf"), 1, id="energy-inf"),
    pytest.param(energy("-inf"), 1, id="energy-minus-inf"),
    pytest.param(energy("1e999"), 1, id="energy-overflow"),
    pytest.param(energy("n/a"), 1, id="energy-not-a-number"),
    pytest.param(energy(""), 1, id="energy-empty"),
    pytest.param(energy("1__0"), 1, id="energy-double-underscore"),
    pytest.param(energy(" "), 1, id="energy-space"),
    pytest.param(energy("1." + "5" * 31), 1, id="energy-33-bytes"),  # wider than _NUMBER_WIDTH
    pytest.param(second_row(SESSIONS, ",1.5", ""), 1, id="short-row"),
    pytest.param(second_row(SESSIONS, ",2023-08-02 10:00:00,1.5", ""), 1, id="two-cell-row"),
    pytest.param(start("2023-08-02T09:15:00Z"), 1, id="stamp-utc-z"),
    pytest.param(start("2023-08-02T10:15:00+01:00"), 1, id="stamp-offset"),
    pytest.param(start("2023-08-02 09:15:00-07:00"), 1, id="stamp-offset-space"),
    pytest.param(start("2023-08-02 09:15:00.5"), 1, id="stamp-fractional-seconds"),
    pytest.param(start("2023-08-02 09:15:00.000"), 1, id="stamp-zero-fraction"),
    pytest.param(start(" 2023-08-02 09:15:00"), 1, id="stamp-leading-space"),
    pytest.param(start("2023-08-02 09:15:00 "), 1, id="stamp-trailing-space"),
    pytest.param(start("\t2023-08-02 09:15:00"), 1, id="stamp-tab"),
    pytest.param(start("2023-08-02 09:60"), 1, id="stamp-minute-60-no-seconds"),
    pytest.param(start("2023-08-02 09:15 "), 1, id="stamp-17-bytes"),
    pytest.param(start("9999-12-31T23:00:00-05:00"), 1, id="stamp-offset-after-year-9999"),
    pytest.param(start("0001-01-01T00:00:00+05:00"), 1, id="stamp-offset-before-year-1"),
    pytest.param(start("2023-08-02"), 1, id="stamp-date-only"),
    pytest.param(start("2023-08-01 24:00:00"), 1, id="stamp-hour-24"),
    pytest.param(start("2023-08-02 09:14:60"), 1, id="stamp-second-60"),
    pytest.param(start("2023-02-30 09:15:00"), 1, id="stamp-february-30"),
    pytest.param(start("0000-08-02 09:15:00"), 1, id="stamp-year-0"),
    pytest.param(start("2023-08-02 09:15:00x"), 1, id="stamp-20-characters"),
    pytest.param(start("not-a-time"), 1, id="stamp-not-a-time"),
    pytest.param(start(""), 1, id="stamp-empty"),
    pytest.param(SESSIONS.replace("1.5", "nan").replace("\n", "\r\n"), 1, id="crlf-energy-nan"),
    # 0, 1 and a block of rows, and a row past it
    pytest.param(session_rows(0), 0, id="no-rows"),
    pytest.param(session_rows(1), 1, id="one-row"),
    pytest.param(session_rows(BLOCK_ROWS), 2, id="block-rows"),
    pytest.param(session_rows(BLOCK_ROWS + 1), 3, id="block-rows-and-one"),
    # line ends, blank lines and a byte-order mark, as the byte splitter sees them
    pytest.param(SESSIONS.rstrip("\n"), 0, id="no-final-newline"),
    pytest.param(SESSIONS.replace("\n", "\r\n").rstrip("\r\n"), 0, id="crlf-no-final-newline"),
    pytest.param(SESSIONS + "\n\r\n \n,,,\n", 0, id="trailing-blank-lines"),
    pytest.param(SESSIONS.replace("\n", "\r\n", 2), 0, id="mixed-lf-crlf"),
    pytest.param(second_row(SESSIONS, "09:45:00,", "09:45:00Z,"), 1,
                 id="three-commas-20-byte-charge-end"),
    pytest.param("\ufeff" + SESSIONS, 0, id="byte-order-mark"),
    pytest.param(MALFORMED, UNREAD_ROWS, id="malformed-kinds"),
])
def test_parse_sessions_equals_per_row_oracle(tmp_path, monkeypatch, text, per_row, timezone):
    """The SESSION array and the (line, message) errors equal the per-row
    oracle's, and only the rows that plain text's byte-offset read rejects,
    or every row of other text, are read cell by cell by ``_read_rows``."""
    path = tmp_path / "sessions.csv"
    path.write_bytes(text.encode("utf-8"))
    rows = []
    read_rows = ingest._read_rows
    monkeypatch.setattr(ingest, "_read_rows", lambda *a: rows.extend(a[0]) or read_rows(*a))
    got = parse_sessions(path, timezone)
    records, errors = per_row_sessions(text, timezone)
    assert got.records.dtype == SESSION
    assert got.records.tobytes() == session_array(records).tobytes()
    assert [(e.line, e.message) for e in got.errors] == errors
    assert len(rows) == per_row


@pytest.mark.parametrize("loader, text", [
    pytest.param(parse_sessions, MALFORMED, id="sessions"),
    pytest.param(load_dataset, ODD_DATASET, id="dataset"),
    pytest.param(load_temperature_csv, ODD_TEMPERATURE.replace(":00,", ","), id="temperature"),
])
def test_int64_offsets_split_as_int32_offsets(tmp_path, monkeypatch, loader, text):
    """A text of 2 GiB or more keeps its offsets as int64; the split is the
    same."""
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode())
    want = loaded(loader, path)
    monkeypatch.setattr(ingest, "_OFFSET32_BYTES", 0)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "int64"))
    assert loaded(loader, path) == want


CSV_READER = ingest.csv.reader


class CountedReader:
    """``csv.reader`` that adds each row it yields to ``rows``."""

    def __init__(self, rows, *args, **kwargs):
        self.rows, self.reader = rows, CSV_READER(*args, **kwargs)

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self.reader)
        self.rows.append(row)
        return row

    @property
    def line_num(self):
        return self.reader.line_num


@pytest.mark.parametrize("text, plain", [
    pytest.param(SESSIONS, True, id="lf"),
    pytest.param(SESSIONS.replace("\n", "\r\n"), True, id="crlf"),
    pytest.param(MALFORMED, True, id="malformed-kinds"),
    pytest.param(start('"2023-08-02 09:15:00"'), False, id="quoted-cell"),
    pytest.param(SESSIONS.replace("\n", "\r"), False, id="cr"),
])
def test_plain_sessions_text_reads_only_its_header_with_csv(tmp_path, monkeypatch, text, plain):
    """On plain text the csv module reads the header and no data row, so a
    fallback to the csv path shows."""
    path = tmp_path / "sessions.csv"
    path.write_bytes(text.encode())
    rows = []
    monkeypatch.setattr(ingest.csv, "reader", lambda *a, **k: CountedReader(rows, *a, **k))
    records = parse_sessions(path).records
    assert rows[0] == HEADER.strip().split(",")
    assert len(rows) == (1 if plain else 1 + len(records))


LATE_STAMP = "2023-08-02 09:14:69"  # second 69, after several hundred plain stamps


@pytest.mark.parametrize("loader, text, where", [
    pytest.param(parse_sessions,
                 session_rows(700).replace(str(datetime(2023, 8, 2) + 600 * timedelta(minutes=7)),
                                           LATE_STAMP),
                 "line 602", id="sessions"),
    pytest.param(load_dataset, "timestamp,demand,temp_c,weekday,month,holiday\n" + "".join(
        f"{t},1,10.5,2,8,0\n" for t in format_times(grid_times(dt("2023-08-01 00:00"), 700)))
        .replace("2023-08-07 06:00:00", LATE_STAMP), "line 602:", id="dataset"),
])
def test_late_out_of_range_field_is_the_per_row_error(tmp_path, loader, text, where):
    """A stamp in the plain form whose field is out of range is read by the
    per-row reader, however many plain stamps come before it."""
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode())
    try:
        errors = [f"line {e.line}: {e.message}" for e in loader(path).errors]
    except SchemaError as exc:
        errors = [str(exc)]
    assert len(errors) >= 1 and where in errors[-1] and "unparseable timestamp" in errors[-1]


@pytest.mark.parametrize("rows, error", [
    pytest.param('"2023-05-01 00:00:00",1.5\n"2023-05-01 00:15:00",warm\n"x",2.5\n',
                 "line 3: temp_c: could not convert string to float: 'warm'",
                 id="later-column-first"),
    pytest.param('"2023-05-01 00:00:00",1.5\n"x",warm\n',
                 "line 3: timestamp: unparseable timestamp 'x'", id="both-cells-bad"),
    pytest.param('"2023-05-01 00:00:00",1.5\n"2023-05-01 00:15:00"\n"x",2.5\n',
                 "line 3: temp_c: missing value", id="short-row-first"),
])
def test_text_read_a_column_at_a_time_names_its_first_bad_cell(tmp_path, rows, error):
    """Text that is not plain is read one column at a time, and a column
    with a bad cell again cell by cell; the error is still that of the first
    row that does not read, at its first bad cell."""
    path = tmp_path / "temperature.csv"
    path.write_bytes(("timestamp,temp_c\n" + rows).encode())
    with pytest.raises(SchemaError) as exc:
        load_temperature_csv(path)
    assert str(exc.value) == "temperature CSV " + error


def loaded(loader, source):
    """What ``loader(source)`` gives, or the type and message of what it
    raises, in a form that compares equal for equal results."""
    try:
        result = loader(source)
    except Exception as exc:  # an error must be the same error
        return type(exc), str(exc)
    if isinstance(result, ingest.ParseResult):
        return result.records.tobytes(), result.errors
    if isinstance(result, frozenset):
        return sorted(result)
    return outcome(lambda: result)


@pytest.mark.parametrize("loader, text", [
    pytest.param(parse_sessions, SESSIONS, id="sessions"),
    pytest.param(parse_sessions, SESSIONS.replace("\n", "\r\n"), id="sessions-crlf"),
    pytest.param(parse_sessions, start("not-a-time"), id="sessions-row-error"),
    pytest.param(parse_sessions, start('"2023-08-02 09:15:00"'), id="sessions-quoted"),
    pytest.param(load_temperature_csv, ODD_TEMPERATURE, id="temperature"),
    pytest.param(load_demand_grid, ODD_GRID.replace("\n", "\r\n"), id="grid"),
    pytest.param(load_dataset, ODD_DATASET, id="dataset"),
    pytest.param(load_dataset, stamp(ODD_DATASET, "2023-05-01 00:15"), id="dataset-per-row"),
    pytest.param(load_dataset, second_row(ODD_DATASET, "-0.25", "warm"), id="dataset-bad-cell"),
    pytest.param(load_holidays_csv, "date\n2023-07-04\n2023-12-25\n", id="holidays"),
    pytest.param(load_holidays_csv, "2023-07-04\r\n2023-12-25\r\n", id="holidays-no-header"),
])
def test_byte_order_mark_is_dropped(tmp_path, loader, text):
    """Each loader reads a file that starts with a UTF-8 byte-order mark, as
    Excel's "CSV UTF-8" writes it, as it reads the file without the mark,
    from its path and from its bytes."""
    data = text.encode()
    (tmp_path / "plain.csv").write_bytes(data)
    (tmp_path / "marked.csv").write_bytes(b"\xef\xbb\xbf" + data)
    want = loaded(loader, tmp_path / "plain.csv")
    assert loaded(loader, tmp_path / "marked.csv") == want
    assert loaded(loader, b"\xef\xbb\xbf" + data) == want
