from datetime import datetime, timedelta

import numpy as np
import pytest

from demandcast import explain
from demandcast.errors import ConfigError, ShapeError
from demandcast.explain import (
    BeeswarmRow,
    ShapReport,
    _coalition_values,
    attention_profile,
    group_representative,
    shapley_series,
    write_attention_csv,
    write_beeswarm_csv,
    write_shap_csv,
)
from demandcast.features import FeatureSchema, WindowedDataset
from demandcast.lstm_att import FORWARD_BATCH, ModelConfig, ModelParams, forward_batch
from helpers import (
    csv_writer_rows,
    linear_shapley,
    linear_window_model,
    loop_attention_profile,
    loop_coalition_values,
    mask,
    predict,
    shapley_pair,
)

GROUPS4 = {"request": (0,), "temperature": (1,), "holiday": (2,), "rest": (3, 4)}


def rand_window(rng, p=6, n=5):
    return rng.uniform(0, 1, size=(p, n))


# ---------------------------------------------------------------------------
# mask (the oracle's masking rule)
# ---------------------------------------------------------------------------

def test_mask_full_coalition_returns_test():
    rng = np.random.default_rng(0)
    t, b = rand_window(rng), rand_window(rng)
    assert np.array_equal(mask(t, b, GROUPS4, GROUPS4), t)


def test_mask_empty_coalition_returns_background():
    rng = np.random.default_rng(1)
    t, b = rand_window(rng), rand_window(rng)
    assert np.array_equal(mask(t, b, [], GROUPS4), b)


def test_mask_single_group_only_those_columns_differ():
    rng = np.random.default_rng(2)
    t, b = rand_window(rng), rand_window(rng)
    out = mask(t, b, ["temperature"], GROUPS4)
    assert np.array_equal(out[:, 1], t[:, 1])
    for col in (0, 2, 3, 4):
        assert np.array_equal(out[:, col], b[:, col])


def test_mask_shape_mismatch():
    with pytest.raises(ShapeError):
        mask(np.zeros((3, 5)), np.zeros((4, 5)), [], GROUPS4)


def test_mask_unknown_group():
    with pytest.raises(ConfigError):
        mask(np.zeros((3, 5)), np.zeros((3, 5)), ["nope"], GROUPS4)


# ---------------------------------------------------------------------------
# shapley
# ---------------------------------------------------------------------------

def test_shapley_test_equals_background_all_zero():
    rng = np.random.default_rng(3)
    w = rand_window(rng)
    fn = linear_window_model(rng.normal(size=5))
    report = shapley_pair(fn, w, w.copy(), GROUPS4)
    assert all(abs(v) < 1e-12 for v in report.phi.values())
    assert report.base_value == report.prediction


def test_shapley_matches_linear_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(10):
        weights = rng.normal(size=5)
        t, b = rand_window(rng), rand_window(rng)
        report = shapley_pair(linear_window_model(weights), t, b, GROUPS4)
        expected = linear_shapley(weights, t, b, GROUPS4)
        for name, phi in report.phi.items():
            assert abs(phi - expected[name]) < 1e-10


def test_shapley_dummy_feature_gets_zero():
    rng = np.random.default_rng(5)
    weights = rng.normal(size=5)
    weights[2] = 0.0  # model ignores the holiday column
    t, b = rand_window(rng), rand_window(rng)
    report = shapley_pair(linear_window_model(weights), t, b, GROUPS4)
    assert abs(report.phi["holiday"]) < 1e-10


def test_shapley_identical_columns_get_zero():
    rng = np.random.default_rng(6)
    t, b = rand_window(rng), rand_window(rng)
    t[:, 2] = b[:, 2]  # holiday identical in test and background
    params = ModelParams.init(ModelConfig(n_features=5, hidden=4, horizon=3,
                                          lookback=6), 7)
    report = shapley_pair(lambda w: forward_batch(w, params)[0], t, b, GROUPS4)
    assert abs(report.phi["holiday"]) < 1e-10


def test_shapley_symmetry_exchangeable_groups():
    groups = {"a": (0,), "b": (1,), "c": (2, 3, 4)}
    rng = np.random.default_rng(7)
    t, b = rand_window(rng), rand_window(rng)
    t[:, 1] = t[:, 0]
    b[:, 1] = b[:, 0]

    def symmetric_fn(windows):
        s = windows[:, :, 0] + windows[:, :, 1]
        p = windows[:, :, 0] * windows[:, :, 1]
        rest = windows[:, :, 2:].sum(axis=(1, 2))
        return (np.sin(s.sum(axis=1)) + p.sum(axis=1) + 0.3 * rest)[:, None]

    report = shapley_pair(symmetric_fn, t, b, groups)
    assert abs(report.phi["a"] - report.phi["b"]) < 1e-10


def test_shapley_linearity_of_value_functions():
    rng = np.random.default_rng(8)
    w1, w2 = rng.normal(size=5), rng.normal(size=5)
    f = linear_window_model(w1)
    g = linear_window_model(w2)
    a, b_coef = 2.5, -1.25

    def combo(window):
        return a * f(window) + b_coef * g(window)

    t, bg = rand_window(rng), rand_window(rng)
    phi_f = shapley_pair(f, t, bg, GROUPS4).phi
    phi_g = shapley_pair(g, t, bg, GROUPS4).phi
    phi_c = shapley_pair(combo, t, bg, GROUPS4).phi
    for name in phi_c:
        assert abs(phi_c[name] - (a * phi_f[name] + b_coef * phi_g[name])) < 1e-9


def test_shapley_efficiency_on_lstm_model():
    rng = np.random.default_rng(9)
    params = ModelParams.init(ModelConfig(n_features=5, hidden=4, horizon=3,
                                          lookback=6), 11)
    fn = lambda w: forward_batch(w, params)[0]
    for _ in range(5):
        t, b = rand_window(rng), rand_window(rng)
        report = shapley_pair(fn, t, b, GROUPS4)
        gap = report.prediction - report.base_value
        assert abs(sum(report.phi.values()) - gap) < 1e-6


@pytest.mark.usefixtures("float64_steps")
@pytest.mark.parametrize("step", [None, 2])
def test_coalition_values_match_loop_oracle(step):
    rng = np.random.default_rng(13)
    params = ModelParams.init(ModelConfig(n_features=5, hidden=4, horizon=3,
                                          lookback=6), 17)
    test = rand_window(rng)
    backgrounds = np.stack([rand_window(rng) for _ in range(3)])
    got, _ = _coalition_values(lambda w: forward_batch(w, params)[0], test,
                               backgrounds, GROUPS4, step)
    want = loop_coalition_values(lambda w: predict(w, params), test,
                                 backgrounds, GROUPS4, step)
    assert np.max(np.abs(got - want)) < 1e-12


def test_coalition_values_chunk_rows_bounded():
    rng = np.random.default_rng(14)
    groups = {f"g{i}": (i,) for i in range(12)}
    linear = linear_window_model(rng.normal(size=12))
    batches = []

    def counting(windows):
        batches.append(len(windows))
        return linear(windows)

    backgrounds = np.stack([rng.uniform(size=(2, 12)) for _ in range(3)])
    shapley_series(counting, [("t", rng.uniform(size=(2, 12)))], backgrounds, groups)
    assert max(batches) <= FORWARD_BATCH == 256
    # every masked window is distinct except the full coalition's, the
    # test itself against each of the three backgrounds
    assert sum(batches) == (1 << 12) * len(backgrounds) - 2


def shared_block_windows(rng, n_backgrounds=20):
    """A test and backgrounds on the default schema's 22 columns that share
    blocks the way real windows do: holiday mostly 0, few months, a repeated
    background, and a -0.0 holiday column that is not the test's 0.0."""
    schema = FeatureSchema.default()
    groups = schema.group_columns()
    cols = {name: list(columns) for name, columns in groups.items()}

    def window():
        w = np.zeros((6, schema.width))
        w[:, cols["request"]] = rng.uniform(size=(6, 1))
        w[:, cols["temperature"]] = rng.uniform(size=(6, 1))
        w[np.arange(6), cols["weekday"][0] + rng.integers(0, 7, size=6)] = 1.0
        w[:, cols["month"][0] + rng.integers(0, 3)] = 1.0
        if rng.uniform() < 0.2:
            w[rng.integers(0, 6), cols["holiday"]] = 1.0
        return w

    backgrounds = [window() for _ in range(n_backgrounds - 2)]
    backgrounds.append(backgrounds[3].copy())  # a repeated background
    negative_zero = backgrounds[0].copy()
    negative_zero[:, cols["holiday"]] = -0.0
    backgrounds.append(negative_zero)
    test = window()
    test[:, cols["holiday"] + cols["month"]] = backgrounds[1][:, cols["holiday"] + cols["month"]]
    return test, np.stack(backgrounds), groups


def lstm_fns(n_features, seed):
    params = ModelParams.init(ModelConfig(n_features=n_features, hidden=4, horizon=3,
                                          lookback=6), seed)
    return lambda w: forward_batch(w, params)[0], lambda w: predict(w, params)


@pytest.mark.usefixtures("float64_steps")
@pytest.mark.parametrize("step", [None, 2])
def test_coalition_values_with_shared_blocks_match_loop_oracle(step):
    test, backgrounds, groups = shared_block_windows(np.random.default_rng(15))
    batched, one = lstm_fns(test.shape[1], 19)
    got, forwarded = _coalition_values(batched, test, backgrounds, groups, step)
    want = loop_coalition_values(one, test, backgrounds, groups, step)
    assert forwarded < (1 << len(groups)) * len(backgrounds)
    assert np.max(np.abs(got - want)) < 1e-12


def test_coalition_values_forward_each_distinct_window_once():
    test, backgrounds, groups = shared_block_windows(np.random.default_rng(16), 40)
    batched, _ = lstm_fns(test.shape[1], 23)
    batches = []

    def counting(windows):
        batches.append(len(windows))
        return batched(windows)

    _, forwarded = _coalition_values(counting, test, backgrounds, groups, None)
    distinct = set()
    for bits in range(1 << len(groups)):
        coalition = [name for j, name in enumerate(groups) if bits >> j & 1]
        for bg in backgrounds:
            distinct.add(mask(test, bg, coalition, groups).tobytes())
    assert sum(batches) == forwarded == len(distinct)
    assert len(batches) > 1 and max(batches) <= FORWARD_BATCH


def test_group_without_columns_gets_zero():
    rng = np.random.default_rng(18)
    groups = {**GROUPS4, "empty": ()}
    weights = rng.normal(size=5)
    t, b = rand_window(rng), rand_window(rng)
    report = shapley_pair(linear_window_model(weights), t, b, groups)
    assert report.phi["empty"] == 0.0
    expected = linear_shapley(weights, t, b, GROUPS4)
    for name in expected:
        assert abs(report.phi[name] - expected[name]) < 1e-10


def test_test_equal_to_every_background_forwards_one_window():
    rng = np.random.default_rng(17)
    test = rand_window(rng)
    batched, _ = lstm_fns(5, 29)
    batches = []

    def counting(windows):
        batches.append(len(windows))
        return batched(windows)

    _, [report] = shapley_series(counting, [("t", test)], np.stack([test] * 3),
                                 GROUPS4)
    assert batches == [1] and report.forwarded_windows == 1
    assert all(v == 0.0 for v in report.phi.values())
    assert report.efficiency_residual == 0.0


def test_default_groups_partition_schema():
    schema = FeatureSchema.default()
    groups = schema.group_columns()
    assert list(groups) == ["request", "temperature", "holiday", "weekday", "month"]
    covered = sorted(c for columns in groups.values() for c in columns)
    assert covered == list(range(schema.width))


# ---------------------------------------------------------------------------
# shapley_series
# ---------------------------------------------------------------------------

def test_series_single_instance_reduces_to_single_report():
    rng = np.random.default_rng(10)
    weights = rng.normal(size=5)
    fn = linear_window_model(weights)
    t, b = rand_window(rng), rand_window(rng)
    rows, reports = shapley_series(fn, [("w0", t)], b[None], GROUPS4)
    single = shapley_pair(fn, t, b, GROUPS4)
    assert len(reports) == 1
    for name in single.phi:
        assert abs(reports[0].phi[name] - single.phi[name]) < 1e-12
    assert len(rows) == len(GROUPS4)


def test_series_efficiency_against_background_mean():
    rng = np.random.default_rng(11)
    fn = linear_window_model(rng.normal(size=5))
    instances = [(f"i{k}", rand_window(rng)) for k in range(3)]
    backgrounds = np.stack([rand_window(rng) for _ in range(4)])
    _, reports = shapley_series(fn, instances, backgrounds, GROUPS4)
    base = np.mean([fn(b[None])[0, 0] for b in backgrounds])
    for (name, window), report in zip(instances, reports):
        assert abs(report.base_value - base) < 1e-12
        total = fn(window[None])[0, 0] - base
        assert abs(sum(report.phi.values()) - total) < 1e-6


def test_series_cardinality_14_instances_5_groups():
    rng = np.random.default_rng(12)
    schema = FeatureSchema.default()
    groups = schema.group_columns()
    fn = linear_window_model(rng.normal(size=schema.width))
    instances = [(f"i{k}", rng.uniform(0, 1, size=(4, schema.width)))
                 for k in range(14)]
    rows, _ = shapley_series(fn, instances, instances[0][1][None], groups)
    assert len(rows) == 70
    sort_keys = [(r.group, r.instance_id) for r in rows]
    assert sort_keys == sorted(sort_keys)


def test_series_empty_background_rejected():
    with pytest.raises(ConfigError):
        shapley_series(lambda w: np.zeros((len(w), 1)), [("a", np.zeros((2, 5)))],
                       np.zeros((0, 2, 5)), GROUPS4)


def test_group_representative_values():
    window = np.zeros((4, 5))
    window[:, 0] = [0.2, 0.4, 0.6, 0.8]
    assert group_representative(window, (0,)) == 0.5
    onehot = np.zeros((4, 3))
    onehot[:, 2] = 1.0  # always the last category
    assert group_representative(onehot, (0, 1, 2)) == 1.0


# ---------------------------------------------------------------------------
# attention profile
# ---------------------------------------------------------------------------

def uniform_attention_params(n=3, hidden=4, p=8, m=2):
    cfg = ModelConfig(n_features=n, hidden=hidden, horizon=m, lookback=p)
    params = ModelParams.init(cfg, 3)
    params.W_a.value[:] = 0.0  # equal scores at every step: uniform weights
    params.b_a.value[:] = 0.0
    return params


def windows_at(origin_hours, p=8, n=3, seed=0):
    rng = np.random.default_rng(seed)
    N = len(origin_hours)
    inputs = rng.uniform(0, 1, size=(N, p, n))
    targets = rng.uniform(0, 1, size=(N, 2))
    origins = [datetime(2023, 5, 1, h, 0) for h in origin_hours]
    return WindowedDataset(inputs, targets, origins, p, 2)


def test_attention_profile_uniform_weights():
    params = uniform_attention_params()
    windows = windows_at([0])  # p=8 steps = 2 hours from midnight
    profile = attention_profile(params, windows)
    assert profile[0] == pytest.approx(0.5, abs=1e-12)  # 4 of 8 steps in hour 0
    assert profile[1] == pytest.approx(0.5, abs=1e-12)
    assert profile[2:].sum() == 0.0


def test_attention_profile_respects_window_origin():
    params = uniform_attention_params()
    profile = attention_profile(params, windows_at([13]))
    assert profile[13] == pytest.approx(0.5, abs=1e-12)
    assert profile[14] == pytest.approx(0.5, abs=1e-12)


def test_attention_profile_mass_sums_to_one_random_windows():
    cfg = ModelConfig(n_features=3, hidden=4, horizon=2, lookback=8)
    params = ModelParams.init(cfg, 9)
    windows = windows_at(list(range(24)) + list(range(24)) + [0, 6], seed=4)
    profile = attention_profile(params, windows)
    assert np.all(profile >= 0)
    assert abs(profile.sum() - 1.0) < 1e-6


def test_attention_profile_matches_loop_oracle(monkeypatch):
    monkeypatch.setattr(explain, "FORWARD_BATCH", 5)  # 23 windows: five chunks, the last short
    cfg = ModelConfig(n_features=3, hidden=4, horizon=2, lookback=8)
    params = ModelParams.init(cfg, 21)
    rng = np.random.default_rng(22)
    inputs = rng.uniform(0, 1, size=(23, 8, 3))
    origins = [datetime(2023, 5, 1, 23, 30) + k * timedelta(minutes=15 * 37)
               for k in range(23)]  # every quarter hour of the clock, across midnight
    windows = WindowedDataset(inputs, rng.uniform(size=(23, 2)), origins, 8, 2)
    profile = attention_profile(params, windows)
    weights = forward_batch(inputs, params)[1].weights
    want = loop_attention_profile(weights, origins)
    assert np.max(np.abs(profile - want)) < 1e-12


def test_attention_profile_requires_attention_model():
    cfg = ModelConfig(n_features=3, hidden=4, horizon=2, lookback=8,
                      attention=False)
    params = ModelParams(cfg)
    with pytest.raises(ConfigError):
        attention_profile(params, windows_at([0]))


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, float("nan"), float("inf"), float("-inf"), 1 / 3]


def test_explain_writers_equal_csv_writer(tmp_path):
    """shap.csv, beeswarm.csv and attention.csv are the bytes ``csv.writer``
    writes, for a ``step:k`` explanation and for edge floats."""
    rng = np.random.default_rng(11)
    weights = rng.normal(size=(5, 4))
    rows, reports = shapley_series(lambda w: np.mean(w, axis=1) @ weights,
                                   [("3", rand_window(rng)), ("12", rand_window(rng))],
                                   np.stack([rand_window(rng), rand_window(rng)]), GROUPS4,
                                   step=2)
    assert reports[0].aggregation == "step:2"
    edges = iter(EDGE_FLOATS * 2)
    reports.append(ShapReport("edge", "mean[1]", {name: next(edges) for name in GROUPS4},
                              next(edges), next(edges), "mean", 1, next(edges)))
    rows += [BeeswarmRow("edge", name, next(edges), next(edges)) for name in list(GROUPS4)[:2]]
    profile = np.array(EDGE_FLOATS * 3)

    write_shap_csv(tmp_path / "shap.csv", reports)
    csv_writer_rows(tmp_path / "want-shap.csv",
                    ["test_id", "background_id", "group", "phi", "base_value",
                     "prediction", "aggregation"],
                    [[r.test_id, r.background_id, group, phi, r.base_value, r.prediction,
                      r.aggregation] for r in reports for group, phi in r.phi.items()])
    write_beeswarm_csv(tmp_path / "beeswarm.csv", rows)
    csv_writer_rows(tmp_path / "want-beeswarm.csv", ["instance_id", "group", "value", "phi"],
                    [[r.instance_id, r.group, r.representative, r.phi] for r in rows])
    write_attention_csv(tmp_path / "attention.csv", profile)
    csv_writer_rows(tmp_path / "want-attention.csv", ["hour", "mean_weight"],
                    enumerate(profile.tolist()))
    got = {name: (tmp_path / f"{name}.csv").read_bytes()
           for name in ("shap", "beeswarm", "attention")}
    for name, data in got.items():
        assert data == (tmp_path / f"want-{name}.csv").read_bytes(), name
    assert b"\r\nedge,mean[1],request,-0,nan,inf,mean\r\n" in got["shap"]
    assert b"\r\n3,-4.9406564584124654e-324\r\n4,nan\r\n5,inf\r\n6,-inf\r\n" in got["attention"]
