import itertools
import json
from datetime import date, datetime

import numpy as np
import pytest

from demandcast import cli
from demandcast.errors import ConfigError, GridError
from demandcast.features import (
    FeatureSchema,
    build_dataset,
    clamp_scaled,
    encode,
    fit_scaler,
    inverse_transform,
    make_windows,
    MinMaxScaler,
    Pipeline,
    WindowedDataset,
    split,
    transform,
)
from demandcast.ingest import IntervalSeries, attach_calendar, grid_times
from demandcast.synth import SynthConfig, generate
from helpers import enumerate_windows

ORIGIN = datetime(2023, 1, 2)  # the grid start of every matrix windowed here


def small_series(n=300, seed=0):
    cfg = SynthConfig(days=max(4, n // 96 + 2), seed=seed, start="2022-03-01")
    series, _ = generate(cfg)
    return IntervalSeries(
        origin=series.origin,
        demand=series.demand[:n],
        temperature=series.temperature[:n],
        weekday=series.weekday[:n],
        month=series.month[:n],
        holiday=series.holiday[:n],
    )


# ---------------------------------------------------------------------------
# schema and encoding
# ---------------------------------------------------------------------------

def test_schema_requires_request_first():
    """Every schema the two flags build starts with the numeric demand
    target; a checkpoint's ``schema`` that is a feature list is a
    ConfigError."""
    for drop_first_month, include_hour in itertools.product((False, True), repeat=2):
        schema = FeatureSchema.default(drop_first_month, include_hour)
        assert next(iter(schema.group_columns().items())) == ("request", (0,))
        assert schema.numeric_columns()[0] == (0, "request")
    features = [{"name": "request", "kind": "numeric", "cardinality": 1}]
    with pytest.raises(ConfigError, match="checkpoint c: schema has no key 'features'"):
        cli._build(FeatureSchema.default, {"features": features}, "schema", "checkpoint c")


WEEKDAY = tuple(range(3, 10))
MONTHS_12, MONTHS_11 = tuple(range(10, 22)), tuple(range(10, 21))
JULY_12 = [0.0] * 6 + [1.0] + [0.0] * 5
JULY_11 = [0.0] * 5 + [1.0] + [0.0] * 5


@pytest.mark.parametrize("flags, width, groups, numeric, row", [
    ((False, False), 22,
     {"month": MONTHS_12}, [(0, "request"), (1, "temperature")], JULY_12),
    ((True, False), 21,
     {"month": MONTHS_11}, [(0, "request"), (1, "temperature")], JULY_11),
    ((False, True), 23,
     {"month": MONTHS_12, "hour": (22,)}, [(0, "request"), (1, "temperature"), (22, "hour")],
     JULY_12 + [10.0]),
    ((True, True), 22,
     {"month": MONTHS_11, "hour": (21,)}, [(0, "request"), (1, "temperature"), (21, "hour")],
     JULY_11 + [10.0]),
], ids=["default", "drop-first-month", "include-hour", "drop-first-month-include-hour"])
def test_each_layout_of_the_two_flags(flags, width, groups, numeric, row):
    """The four layouts the schema's two flags build, as literal values: the
    width, the ordered column groups, the scaled columns and the encoding of
    one holiday Wednesday in July at 10:00."""
    schema = FeatureSchema.default(*flags)
    assert schema.width == width
    assert list(schema.group_columns().items()) == list({
        "request": (0,), "temperature": (1,), "holiday": (2,), "weekday": WEEKDAY,
        **groups}.items())
    assert schema.numeric_columns() == numeric
    g = IntervalSeries(origin=datetime(2023, 7, 5, 10, 0), demand=np.array([4], dtype=np.int64))
    g = attach_calendar(g, frozenset({date(2023, 7, 5)}))
    g.temperature = np.array([21.5])
    assert encode(g, schema).tolist() == [[4.0, 21.5, 1.0, 0, 0, 1, 0, 0, 0, 0] + row]


def test_encode_one_hot_groups_sum_to_one():
    series = small_series(n=500, seed=3)
    mat = encode(series, FeatureSchema.default())
    assert np.all(mat[:, 3:10].sum(axis=1) == 1.0)
    assert np.all(mat[:, 10:22].sum(axis=1) == 1.0)
    assert set(np.unique(mat[:, 2])) <= {0.0, 1.0}


def test_encode_drop_first_month_january_all_zero():
    g = IntervalSeries(origin=datetime(2023, 1, 2, 0, 0),
                       demand=np.array([1], dtype=np.int64))
    g = attach_calendar(g, frozenset(set()))
    g.temperature = np.array([10.0])
    mat = encode(g, FeatureSchema.default(drop_first_month=True))
    assert mat.shape[1] == 21
    assert mat[0, 10:21].sum() == 0.0  # January is the dropped level


@pytest.mark.parametrize("drop_first_month, include_hour", [(False, False), (True, False),
                                                            (False, True)],
                         ids=["default", "drop-first-month", "include-hour"])
def test_encode_rows_are_those_rows_of_the_whole_matrix(drop_first_month, include_hour):
    """Each row encodes on its own, so the rows ``encode`` is given are, bit
    for bit, those rows of the whole matrix: across a new year (the dropped
    January level) and on the grid clock (the hour column)."""
    series, _ = generate(SynthConfig(days=4, seed=2, start="2021-12-30"))
    schema = FeatureSchema.default(drop_first_month, include_hour)
    whole = encode(series, schema)
    for rows in (np.array([200, 0, 5, 5, 191, 383]), np.arange(150, 250), slice(7, 300, 3),
                 np.array([], dtype=np.int64)):
        part = encode(series, schema, rows)
        assert part.shape == whole[rows].shape
        assert part.tobytes() == whole[rows].tobytes()


# ---------------------------------------------------------------------------
# scaler
# ---------------------------------------------------------------------------

def test_fit_scaler_min_max():
    mat = np.array([[0.0], [5.0], [10.0]])
    scaler = fit_scaler(mat, [(0, "request")])
    assert scaler.columns[0].min == 0.0
    assert scaler.columns[0].max == 10.0
    assert transform(scaler, mat)[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_constant_column_transforms_to_zero():
    mat = np.array([[3.0], [3.0], [3.0]])
    scaler = fit_scaler(mat, [(0, "request")])
    assert transform(scaler, mat)[:, 0].tolist() == [0.0, 0.0, 0.0]


def test_round_trip_within_1e9():
    rng = np.random.default_rng(0)
    mat = rng.uniform(-50, 120, size=(1000, 3))
    scaler = fit_scaler(mat, [(0, "request"), (1, "temperature"), (2, "hour")])
    back = inverse_transform(scaler, transform(scaler, mat)[:, 0])
    assert np.max(np.abs(back - mat[:, 0])) < 1e-9


def test_one_hot_columns_pass_through():
    rng = np.random.default_rng(1)
    mat = np.column_stack([rng.uniform(0, 9, 50), rng.integers(0, 2, 50)])
    scaler = fit_scaler(mat, [(0, "request")])
    out = transform(scaler, mat)
    assert np.array_equal(out[:, 1], mat[:, 1])


def test_test_rows_outside_fitted_range_are_clamped():
    train = np.array([[0.0], [10.0]])
    test = np.array([[-4.0], [14.0]])
    scaler = fit_scaler(train, [(0, "request")])
    raw = transform(scaler, test)[:, 0]
    assert raw[0] < 0.0 and raw[1] > 1.0
    clamped = clamp_scaled(scaler, transform(scaler, test))[:, 0]
    assert clamped.tolist() == [-0.05, 1.05]


def test_unfitted_scaler_rejected():
    """A scaler enters only from a checkpoint, where anything but a fitted
    scaler's dict is a ConfigError."""
    for doc in (None, {}, {"format": "demandcast/scaler-v1", "width": 2}):
        with pytest.raises(ConfigError):
            MinMaxScaler.from_dict(doc)


def test_scaler_dict_round_trip():
    mat = np.array([[1.0, 5.0], [2.0, 9.0]])
    scaler = fit_scaler(mat, [(0, "request"), (1, "temperature")])
    back = MinMaxScaler.from_dict(json.loads(json.dumps(scaler.to_dict())))
    assert back == scaler


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def test_make_windows_boundary_exactly_one():
    mat = np.arange(192 * 2, dtype=float).reshape(192, 2)
    ds = make_windows(mat, 96, 96, ORIGIN)
    assert len(ds) == 1


def test_make_windows_count_200():
    mat = np.zeros((200, 2))
    assert len(make_windows(mat, 96, 96, ORIGIN)) == 9


def test_make_windows_toy_example():
    mat = np.array([[1.0], [2.0], [3.0], [4.0]])
    ds = make_windows(mat, 2, 1, ORIGIN)
    assert ds.inputs[:, :, 0].tolist() == [[1, 2], [2, 3]]
    assert ds.targets.tolist() == [[3], [4]]


def test_make_windows_too_short_names_minimum():
    with pytest.raises(GridError) as err:
        make_windows(np.zeros((100, 2)), 96, 96, ORIGIN)
    assert "192" in str(err.value)


def test_make_windows_matches_brute_force_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = int(rng.integers(1, 12))
        m = int(rng.integers(1, 12))
        T = int(rng.integers(p + m, p + m + 60))
        mat = rng.normal(size=(T, int(rng.integers(1, 5))))
        ds = make_windows(mat, p, m, ORIGIN)
        ins, tgts = enumerate_windows(mat, p, m)
        assert np.array_equal(np.asarray(ds.inputs), ins)
        assert np.array_equal(np.asarray(ds.targets), tgts)


def test_make_windows_stride_subsamples_origins():
    mat = np.random.default_rng(6).normal(size=(300, 2))
    full = make_windows(mat, 96, 96, ORIGIN)
    s4 = make_windows(mat, 96, 96, ORIGIN, stride=4)
    assert len(s4) == (len(full) + 3) // 4
    assert s4.origins[1] - s4.origins[0] == 4 * (full.origins[1] - full.origins[0])
    ins, tgts = enumerate_windows(mat, 96, 96)
    for ds, stride in ((full, 1), (s4, 4)):
        for arr in (ds.inputs, ds.targets):
            assert np.shares_memory(arr, mat)
            assert not arr.flags.writeable
        assert np.array_equal(ds.inputs, ins[::stride])
        assert np.array_equal(ds.targets, tgts[::stride])


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def windows_of(n):
    mat = np.zeros((n + 2, 2))
    return make_windows(mat, 2, 1, ORIGIN)


def test_split_ten_windows_80_20():
    ds = split(windows_of(10), 0.8)
    assert len(ds.train) == 8 and len(ds.test) == 2


def test_split_floor_rule_099():
    ds = split(windows_of(10), 0.99)
    assert len(ds.train) == 9 and len(ds.test) == 1


def by_hand(ds, key):
    """The cut of ``ds`` that ``split`` and ``attention --limit`` built
    field by field."""
    return WindowedDataset(ds.inputs[key], ds.targets[key], ds.origins[key],
                           ds.lookback, ds.horizon)


@pytest.mark.parametrize("key", [slice(None, 40), slice(40, None), slice(0, 63, 9),
                                 slice(5, 30, 4), slice(None, None, 7), slice(90, None)],
                         ids=["train", "test", "limit-7", "inner-strided", "stride-7", "empty"])
def test_windowed_dataset_slice_is_a_view_of_the_by_hand_cut(key):
    matrix = np.random.default_rng(5).uniform(size=(72, 3))
    ds = make_windows(matrix, 6, 4, ORIGIN)
    cut, want = ds[key], by_hand(ds, key)
    assert (cut.lookback, cut.horizon) == (6, 4) and len(cut) == len(want)
    for name in ("inputs", "targets", "origins"):
        got = getattr(cut, name)
        assert got.tobytes() == getattr(want, name).tobytes(), name
        assert got.dtype == getattr(want, name).dtype and got.shape == getattr(want, name).shape
    for got in (cut.inputs, cut.targets):
        assert not got.flags.writeable and not got.flags.owndata
        assert np.shares_memory(got, matrix) == (len(cut) > 0)


def test_split_is_the_by_hand_cut():
    ds = make_windows(np.random.default_rng(6).uniform(size=(50, 2)), 4, 3, ORIGIN)
    halves = split(ds, 0.7)
    cut = int(np.floor(0.7 * len(ds)))
    for got, key in ((halves.train, slice(None, cut)), (halves.test, slice(cut, None))):
        want = by_hand(ds, key)
        assert got.inputs.tobytes() == want.inputs.tobytes()
        assert got.targets.tobytes() == want.targets.tobytes()
        assert np.array_equal(got.origins, want.origins)


@pytest.mark.parametrize("p", [8, 96])
@pytest.mark.parametrize("origin", [datetime(2023, 5, 1, 23, 45), datetime(2023, 5, 1, 9, 0),
                                    datetime(2023, 12, 31, 22, 30)],
                         ids=["23:45", "09:00", "year-end"])
def test_input_hours_equal_a_loop_over_grid_times(p, origin):
    """Slid at stride 1 over two days, the windows start at every quarter
    hour of the clock, and their steps cross midnight."""
    ds = make_windows(np.zeros((2 * 96 + p + 2, 1)), p, 2, origin)
    want = [[ts.hour for ts in grid_times(o, p).tolist()] for o in ds.origins]
    got = ds.input_hours()
    assert got.shape == (len(ds), p) and got.tolist() == want
    assert got[0, 0] == origin.hour
    assert any(row[0] == 23 and row[-1] < 23 for row in got.tolist())  # across midnight


def test_input_hours_of_datetime_origins_and_of_a_slice():
    origins = [datetime(2023, 5, 1, 23, 45), datetime(2023, 5, 2, 0, 0),
               datetime(2023, 5, 2, 13, 15)]
    ds = WindowedDataset(np.zeros((3, 8, 1)), np.zeros((3, 2)), origins, 8, 2)
    assert ds.input_hours().tolist() == [[23, 0, 0, 0, 0, 1, 1, 1], [0, 0, 0, 0, 1, 1, 1, 1],
                                         [13, 13, 13, 14, 14, 14, 14, 15]]
    assert ds[1:].input_hours().tolist() == ds.input_hours()[1:].tolist()


def test_split_fraction_bounds():
    """The fraction enters through the run config's pipeline block, which
    keeps it in (0, 1), so no split leaves the test windows empty."""
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ConfigError, match="'split_fraction' must lie in"):
            Pipeline(split_fraction=bad)


def test_split_chronology_invariant():
    series = small_series(n=96 * 6, seed=9)
    ds, _ = build_dataset(series, FeatureSchema.default(), p=96, m=96)
    assert max(ds.train.origins) < min(ds.test.origins)
    n = len(ds.train) + len(ds.test)
    assert abs(len(ds.train) / n - 0.8) <= 1.0 / n


def test_build_dataset_train_inputs_in_unit_interval_default():
    series = small_series(n=96 * 6, seed=4)
    ds, _ = build_dataset(series, FeatureSchema.default())
    tr = np.asarray(ds.train.inputs)
    assert tr.min() >= 0.0 and tr.max() <= 1.0
    te = np.asarray(ds.test.inputs)
    assert te.min() >= -0.05 and te.max() <= 1.05
