"""Seeded raw charging sessions for ``demandcast ingest --sessions``, and an
independent count of the 15-minute grid they should produce.

The CSV uses the ``SESSION_COLUMNS`` layout (start, charge_end,
disconnect, energy_kwh) over the simulated days. A fixed share of rows is
malformed in ways the parser must skip and report as ``row-error`` lines.
"""

from __future__ import annotations

import csv
from datetime import date, datetime, timedelta

import numpy as np

SESSIONS_PER_DAY = 40
MALFORMED_SHARE = 0.005
STEP_S = 900
# Kinds of malformed row: unparseable start, charge_end before start,
# negative energy, non-numeric energy, and a row with a missing field.
MALFORMED_KINDS = 5


def _stamp(t: datetime) -> str:
    return t.isoformat(sep=" ")


def write_sessions(path, seed: int, start: date, days: int):
    """Write the sessions CSV; return (valid start/charge_end second
    offsets from midnight of ``start``, number of malformed rows)."""
    rng = np.random.default_rng([seed, 7])
    n = SESSIONS_PER_DAY * days
    # Every session ends charging before 23:00 on the last day, so the grid
    # stays within reach of the simulated temperature readings.
    latest = days * 86400 - 3600
    duration = rng.integers(20 * 60, 8 * 3600, size=n)
    begin = np.sort(rng.integers(0, latest - duration.max(), size=n))
    end = begin + duration
    linger = rng.integers(0, 2 * 3600, size=n)
    energy = np.round(duration / 3600 * rng.uniform(2.0, 7.0, size=n), 3)
    bad = rng.random(n) < MALFORMED_SHARE
    kind = rng.integers(0, MALFORMED_KINDS, size=n)

    midnight = datetime(start.year, start.month, start.day)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["start", "charge_end", "disconnect", "energy_kwh"])
        for k in range(n):
            s = midnight + timedelta(seconds=int(begin[k]))
            e = midnight + timedelta(seconds=int(end[k]))
            d = e + timedelta(seconds=int(linger[k]))
            row = [_stamp(s), _stamp(e), _stamp(d), repr(float(energy[k]))]
            if bad[k]:
                if kind[k] == 0:
                    row[0] = "not-a-time"
                elif kind[k] == 1:
                    row[0], row[1] = row[1], row[0]
                elif kind[k] == 2:
                    row[3] = "-1.5"
                elif kind[k] == 3:
                    row[3] = "n/a"
                else:
                    row = row[:3]
            w.writerow(row)
    good = ~bad
    return begin[good], end[good], int(bad.sum())


def expected_grid(begin: np.ndarray, end: np.ndarray, start: date):
    """(origin, counts): sessions overlapping each 15-minute interval of
    [start, charge_end), counted with a difference array."""
    first_slot = int(begin.min()) // STEP_S
    last_slot = -(-int(end.max()) // STEP_S)
    n = last_slot - first_slot
    diff = np.zeros(n + 1, dtype=np.int64)
    np.add.at(diff, begin // STEP_S - first_slot, 1)
    np.add.at(diff, -(-end // STEP_S) - first_slot, -1)
    origin = datetime(start.year, start.month, start.day) + timedelta(
        seconds=first_slot * STEP_S)
    return origin, np.cumsum(diff)[:n]
