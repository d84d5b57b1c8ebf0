import calendar
import json
from datetime import date, timedelta

import numpy as np
import pytest

from demandcast.errors import ConfigError
from demandcast.ingest import attach_calendar, join_temperature, load_demand_grid, \
    load_holidays_csv, load_temperature_csv
from demandcast.synth import (
    SynthConfig,
    academic_holidays,
    default_base_profile,
    export,
    generate,
    save_config,
)


def test_zero_holiday_multiplier_means_zero_holiday_demand():
    cfg = SynthConfig(days=40, seed=1, start="2022-12-15", holiday_mult=0.0)
    series, _ = generate(cfg)
    assert series.holiday.any()
    assert int(series.demand[series.holiday].sum()) == 0


def test_same_seed_identical_series():
    a, _ = generate(SynthConfig(days=20, seed=9))
    b, _ = generate(SynthConfig(days=20, seed=9))
    assert np.array_equal(a.demand, b.demand)
    assert np.array_equal(a.temperature, b.temperature)


def test_different_seed_differs():
    a, _ = generate(SynthConfig(days=20, seed=1))
    b, _ = generate(SynthConfig(days=20, seed=2))
    assert not np.array_equal(a.demand, b.demand)


def test_weekend_weekday_ratio_default_config():
    series, _ = generate(SynthConfig(days=365, seed=3))
    d = series.demand.astype(float)
    weekend = (series.weekday >= 5) & ~series.holiday
    weekday = (series.weekday < 5) & ~series.holiday
    ratio = d[weekend].mean() / d[weekday].mean()
    assert 0.2 <= ratio <= 0.45


def test_holiday_collapse_and_summer_dip():
    series, _ = generate(SynthConfig(days=365, seed=4))
    d = series.demand.astype(float)
    assert d[series.holiday].mean() < 0.25 * d[~series.holiday].mean()
    assert d[series.month == 7].mean() < d[series.month == 1].mean()


def test_two_year_span_has_70080_rows():
    series, _ = generate(SynthConfig(days=730, seed=5))
    assert len(series) == 70080


def test_one_day_span_has_96_rows():
    series, _ = generate(SynthConfig(days=1, seed=5))
    assert len(series) == 96


def test_round_trip_through_ingest(tmp_path):
    cfg = SynthConfig(days=6, seed=8, start="2022-11-20")
    series, holidays = generate(cfg)
    paths = export(series, holidays, tmp_path)

    grid = load_demand_grid(paths["demand"])
    readings = load_temperature_csv(paths["temperature"])
    calendar = load_holidays_csv(paths["holidays"])
    rebuilt = attach_calendar(join_temperature(grid, readings), calendar)

    assert rebuilt.origin == series.origin
    assert np.array_equal(rebuilt.demand, series.demand)
    assert np.array_equal(rebuilt.temperature, series.temperature)
    assert np.array_equal(rebuilt.weekday, series.weekday)
    assert np.array_equal(rebuilt.month, series.month)
    assert np.array_equal(rebuilt.holiday, series.holiday)


def test_academic_holidays_fixed_dates():
    cal = academic_holidays([2022])
    assert date(2022, 1, 1) in cal
    assert date(2022, 1, 17) in cal    # third Monday of January
    assert date(2022, 5, 30) in cal    # last Monday of May
    assert date(2022, 7, 4) in cal
    assert date(2022, 11, 24) in cal   # Thanksgiving
    assert date(2022, 11, 25) in cal
    assert date(2022, 12, 28) in cal   # winter closure
    assert date(2022, 6, 15) not in cal


def test_academic_holidays_match_a_day_by_day_scan():
    """The weekday rules pick the days a scan of each month picks, in years
    whose months start and end on every weekday."""
    def days(y, m, weekday):
        return [d for d in calendar.Calendar().itermonthdates(y, m)
                if d.month == m and d.weekday() == weekday]

    for y in range(2020, 2032):
        thanksgiving = days(y, 11, 3)[3]
        want = {date(y, 1, 1), days(y, 1, 0)[2], days(y, 2, 0)[2], days(y, 3, 4)[-1],
                days(y, 5, 0)[-1], date(y, 7, 4), days(y, 9, 0)[0], date(y, 11, 11),
                thanksgiving, thanksgiving + timedelta(days=1),
                *(date(y, 12, d) for d in range(24, 32))}
        assert academic_holidays([y]) == want, y


def test_base_profile_shape():
    profile = default_base_profile()
    assert len(profile) == 96
    assert max(profile) == 1.0
    peak_step = profile.index(max(profile))
    assert 40 <= peak_step <= 56          # midday peak
    assert profile[0] < 0.1               # quiet overnight
    assert profile[32] > profile[20]      # morning ramp underway by 8am


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(days=0)
    with pytest.raises(ConfigError):
        SynthConfig(weekday_mult=(1.0,) * 6)
    with pytest.raises(ConfigError):
        SynthConfig(holiday_mult=-0.1)
    with pytest.raises(ConfigError):
        SynthConfig(drift_amplitudes=(0.1,), drift_periods_days=())
    with pytest.raises(ConfigError, match="days must be <= 1 for a span from 9999-12-31"):
        SynthConfig(start=date(9999, 12, 31), days=2)
    with pytest.raises(ConfigError, match="days must be <= 2913904 .*, got 3000000"):
        SynthConfig(days=3_000_000)


def test_config_json_round_trip(tmp_path):
    cfg = SynthConfig(days=14, seed=21, start="2023-02-01", peak_rate=55.0)
    path = tmp_path / "synth.json"
    save_config(path, cfg)
    back = SynthConfig(**json.loads(path.read_text(encoding="utf-8")))
    assert back == cfg
