"""Synthetic two-year campus-style charging demand.

The generator reproduces the structural patterns the real data shows:
a morning-ramp/midday-peak daily profile, a weekend collapse with a milder
Friday dip, a deep summer trough, near-zero holidays, and a mild positive
temperature coupling. Counts are Poisson draws around the deterministic
rate, so the series has realistic integer dispersion.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .ingest import (
    IntervalSeries,
    attach_calendar,
    write_demand_grid,
    write_holidays_csv,
    write_temperature_csv,
)

INTERVALS_PER_DAY = 96


def default_base_profile() -> tuple[float, ...]:
    """Mean-rate shape over one day (96 values, max 1): quiet overnight,
    ramp from ~7:00, broad midday peak, taper through the evening."""
    out = []
    for k in range(INTERVALS_PER_DAY):
        h = k / 4.0
        peak = math.exp(-((h - 12.0) / 3.4) ** 2)
        evening = 0.18 * math.exp(-((h - 18.0) / 1.8) ** 2)
        out.append(0.02 + peak + evening)
    top = max(out)
    return tuple(v / top for v in out)


# Mon..Sun; weekends collapse to ~30% with a milder Friday dip.
DEFAULT_WEEKDAY_MULT = (1.0, 1.0, 1.0, 1.0, 0.85, 0.30, 0.30)
# Jan..Dec; deep summer trough, slightly soft December (winter break).
DEFAULT_MONTH_MULT = (1.0, 1.0, 1.0, 1.0, 0.9, 0.55, 0.5, 0.6, 1.0, 1.0, 1.0, 0.8)


@dataclass
class SynthConfig:
    seed: int = 0
    days: int = 730
    start: date = date(2022, 1, 1)
    peak_rate: float = 150.0
    base_profile: tuple[float, ...] = field(default_factory=default_base_profile)
    weekday_mult: tuple[float, ...] = DEFAULT_WEEKDAY_MULT
    month_mult: tuple[float, ...] = DEFAULT_MONTH_MULT
    holiday_mult: float = 0.15
    temp_mean_c: float = 18.0
    temp_annual_amp_c: float = 8.0
    temp_daily_amp_c: float = 4.0
    temp_noise_sd_c: float = 1.0
    temp_coeff: float = 0.08
    # slow multi-week demand waves (enrollment cycles, events) on the log
    # level: smooth, near-zero mean within any month, and invisible to the
    # calendar features; only the demand history can track them
    drift_amplitudes: tuple[float, ...] = (0.14, 0.14)
    drift_periods_days: tuple[float, ...] = (20.0, 30.0)

    def __post_init__(self):
        if isinstance(self.start, str):
            self.start = date.fromisoformat(self.start)
        for name in ("base_profile", "weekday_mult", "month_mult", "drift_amplitudes",
                     "drift_periods_days"):
            setattr(self, name, tuple(getattr(self, name)))
        for name, low in (("days", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if len(self.base_profile) != INTERVALS_PER_DAY:
            raise ConfigError("base_profile must have 96 values")
        if len(self.weekday_mult) != 7 or len(self.month_mult) != 12:
            raise ConfigError("need 7 weekday and 12 month multipliers")
        for name in ("base_profile", "weekday_mult", "month_mult"):
            if any(v < 0 for v in getattr(self, name)):
                raise ConfigError(f"{name} entries must be non-negative")
        if self.holiday_mult < 0 or self.peak_rate < 0:
            raise ConfigError("rates and multipliers must be non-negative")
        if len(self.drift_amplitudes) != len(self.drift_periods_days):
            raise ConfigError("drift amplitudes and periods must pair up")
        if any(a < 0 for a in self.drift_amplitudes):
            raise ConfigError("drift amplitudes must be non-negative")
        if any(p <= 0 for p in self.drift_periods_days):
            raise ConfigError("drift periods must be positive")

    def to_dict(self) -> dict:
        return {**asdict(self), "start": self.start.isoformat()}


def _nth_weekday(year: int, month: int, weekday: int, n: int) -> date:
    """The n-th ``weekday`` (0 is Monday) of a month, from 1; n = -1 is the last."""
    start = np.datetime64(f"{year}-{month:02d}") + np.timedelta64(int(n < 0), "M")
    return np.busday_offset(start.astype("datetime64[D]"), n - (n > 0), roll="forward",
                            weekmask=np.arange(7) == weekday).item()


def academic_holidays(years) -> frozenset[date]:
    """Campus closure days: federal-style holidays plus the winter break."""
    dates: set[date] = set()
    for y in years:
        thanksgiving = _nth_weekday(y, 11, 3, 4)
        dates.update({
            date(y, 1, 1),
            _nth_weekday(y, 1, 0, 3),        # third Monday of January
            _nth_weekday(y, 2, 0, 3),        # third Monday of February
            _nth_weekday(y, 3, 4, -1),       # spring holiday: last Friday of March
            _nth_weekday(y, 5, 0, -1),       # last Monday of May
            date(y, 7, 4),
            _nth_weekday(y, 9, 0, 1),        # first Monday of September
            date(y, 11, 11),
            thanksgiving,
            thanksgiving + timedelta(days=1),
        })
        dates.update(date(y, 12, 24) + timedelta(days=i) for i in range(8))
    return frozenset(dates)


def generate(config: SynthConfig) -> tuple[IntervalSeries, frozenset[date]]:
    """Build the demand/temperature grid. Deterministic given the seed:
    demand_t ~ Poisson(rate_t) with

        rate_t = peak * base[t mod 96] * weekday_mult * month_mult
                 * holiday_mult(if holiday) * max(0, 1 + c * norm_temp_t)
                 * drift_day(t)
    """
    n = config.days * INTERVALS_PER_DAY
    origin = datetime(config.start.year, config.start.month, config.start.day)
    end_year = (config.start + timedelta(days=config.days)).year
    holidays = academic_holidays(range(config.start.year, end_year + 1))

    rng = np.random.default_rng(config.seed)
    drift_phases = rng.uniform(0.0, 2.0 * np.pi, size=len(config.drift_amplitudes))

    calendar = attach_calendar(
        IntervalSeries(origin=origin, demand=np.zeros(n, dtype=np.int64)), holidays)
    days = calendar.times().astype("datetime64[D]")
    doy = (days - days.astype("datetime64[Y]")).astype(np.float64) + 1.0
    day_index = np.arange(n) // INTERVALS_PER_DAY
    step_of_day = np.arange(n) % INTERVALS_PER_DAY

    annual = config.temp_annual_amp_c * np.cos(
        2.0 * np.pi * (doy - 213.0) / 365.25
    )
    daily = config.temp_daily_amp_c * np.cos(
        2.0 * np.pi * (step_of_day * 15.0 - 900.0) / 1440.0
    )
    noise = rng.normal(0.0, config.temp_noise_sd_c, size=n)
    temperature = config.temp_mean_c + annual + daily + noise

    log_drift = np.zeros(config.days)
    days_axis = np.arange(config.days, dtype=np.float64)
    for amp, period, phase in zip(config.drift_amplitudes,
                                  config.drift_periods_days, drift_phases):
        log_drift += amp * np.sin(2.0 * np.pi * days_axis / period + phase)
    drift = np.exp(log_drift)

    base = np.asarray(config.base_profile)[step_of_day]
    wd_mult = np.asarray(config.weekday_mult)[calendar.weekday]
    mo_mult = np.asarray(config.month_mult)[calendar.month - 1]
    hol_mult = np.where(calendar.holiday, config.holiday_mult, 1.0)
    amp = config.temp_annual_amp_c if config.temp_annual_amp_c > 0 else 1.0
    norm_temp = (temperature - config.temp_mean_c) / amp
    coupling = np.maximum(0.0, 1.0 + config.temp_coeff * norm_temp)
    rate = (config.peak_rate * base * wd_mult * mo_mult * hol_mult
            * coupling * drift[day_index])

    demand = rng.poisson(rate).astype(np.int64)
    return replace(calendar, demand=demand, temperature=temperature), holidays


def export(series: IntervalSeries, holidays: frozenset[date], out_dir) -> dict:
    """Write the grid, temperature, and holiday CSVs in the ingest formats;
    re-ingesting them reproduces the series exactly."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "demand": out / "demand.csv",
        "temperature": out / "temperature.csv",
        "holidays": out / "holidays.csv",
    }
    write_demand_grid(paths["demand"], series)
    write_temperature_csv(paths["temperature"], series.times(), series.temperature)
    write_holidays_csv(paths["holidays"], holidays)
    return paths


def save_config(path, config: SynthConfig) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2), encoding="utf-8")

