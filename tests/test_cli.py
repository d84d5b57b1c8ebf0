"""End-to-end test of the command line on a small synthetic dataset: every
subcommand through ``cli.main``, the checkpoint it writes, ``ingest
--sessions`` against the minute-scan oracle, and how a bad checkpoint, a
bad CSV, a malformed session row or a bad timezone is reported."""

import contextlib
import csv
import io
import json
import shutil
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from demandcast import cli
from demandcast.errors import ConfigError
from demandcast.explain import default_groups
from demandcast.features import inverse_transform
from demandcast.ingest import format_times, grid_span, grid_times
from demandcast.lstm_att import forward_batch, load_checkpoint, save_checkpoint
from helpers import minute_scan_demand, per_row_sessions, predict, shapley_pair

RUN_CONFIG = {"pipeline": {"window_stride": 8}}
TRAIN_FLAGS = ["--hidden", "8", "--epochs", "2"]


def run(*argv):
    """Run one command in-process; return (exit code, stderr lines)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue().splitlines()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """simulate -> ingest -> train on 30 days. Also keeps the parameters
    the train command held in memory when it wrote checkpoint.json."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.json"
    config.write_text(json.dumps(RUN_CONFIG))
    sim, data, model = root / "sim", root / "data", root / "model"
    in_memory = {}

    def capture(path, params, extra=None):
        in_memory[Path(path).name] = params
        save_checkpoint(path, params, extra)

    codes = {
        "simulate": run("simulate", "--out", sim, "--days", 30, "--seed", 3)[0],
        "ingest": run("ingest", "--out", data, "--demand-grid", sim / "demand.csv",
                      "--temperature", sim / "temperature.csv",
                      "--holidays", sim / "holidays.csv")[0],
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "save_checkpoint", capture)
        codes["train"] = run("train", "--out", model, "--config", config,
                             "--dataset", data / "dataset.csv", *TRAIN_FLAGS)[0]
    return {"root": root, "config": config, "dataset": data / "dataset.csv",
            "model": model, "codes": codes,
            "params": in_memory.get("checkpoint.json")}


def test_pipeline_exit_codes(trained):
    assert trained["codes"] == {"simulate": 0, "ingest": 0, "train": 0}
    root, ckpt, dataset = trained["root"], trained["model"] / "checkpoint.json", trained["dataset"]
    assert (trained["model"] / "checkpoints" / "epoch_002.json").is_file()
    model_args = ["--checkpoint", ckpt, "--dataset", dataset]
    assert run("predict", "--out", root / "predict", *model_args) == (0, [])
    assert run("explain", "--out", root / "explain", *model_args,
               "--test", 100, "--background", 0) == (0, [])
    assert run("attention", "--out", root / "attention", *model_args,
               "--limit", 64) == (0, [])
    assert run("eval", "--out", root / "eval", "--config", trained["config"],
               "--dataset", dataset, *TRAIN_FLAGS) == (0, [])
    shap = json.loads((root / "explain" / "shap.json").read_text())
    assert len(shap) == 1 and len(shap[0]["phi"]) == 5
    with open(root / "eval" / "comparison.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 4
    assert sorted(p.name for p in (root / "eval").iterdir()) == [
        "comparison.csv", "manifest.json", "metrics.json"]


def test_checkpoint_is_v2(trained):
    doc = json.loads((trained["model"] / "checkpoint.json").read_text())
    assert doc["format"] == "demandcast/checkpoint-v2"
    assert doc["model"]["hidden"] == 8
    assert doc["scaler"]["format"] == "demandcast/scaler-v1"
    assert sorted(p.name for p in trained["model"].iterdir()) == [
        "checkpoint.json", "checkpoints", "manifest.json", "metrics.json"]


def test_copied_checkpoint_predicts_on_its_own(trained, tmp_path):
    """A per-epoch checkpoint copied alone into a fresh directory writes the
    same forecast as from the directory train wrote it to."""
    epoch = trained["model"] / "checkpoints" / "epoch_001.json"
    copy = tmp_path / "copy" / "epoch_001.json"
    copy.parent.mkdir()
    shutil.copy(epoch, copy)
    for name, ckpt in (("original", epoch), ("copied", copy)):
        assert run("predict", "--out", tmp_path / name, "--checkpoint", ckpt,
                   "--dataset", trained["dataset"]) == (0, [])
    assert ((tmp_path / "copied" / "forecast.csv").read_bytes()
            == (tmp_path / "original" / "forecast.csv").read_bytes())


def test_predict_from_checkpoint_equals_in_memory_params(trained):
    root, ckpt = trained["root"], trained["model"] / "checkpoint.json"
    assert run("predict", "--out", root / "predict_bits", "--checkpoint", ckpt,
               "--dataset", trained["dataset"])[0] == 0
    with open(root / "predict_bits" / "forecast.csv", newline="") as fh:
        from_cli = np.array([float(r["demand_scaled"]) for r in csv.DictReader(fh)])

    params = trained["params"]
    loaded, _, _, _, windows = cli._load_frozen(str(ckpt), trained["dataset"], None)
    for a, b in zip(params.tensors(), loaded.tensors()):
        assert a.name == b.name and np.array_equal(a.value, b.value)
    assert np.array_equal(from_cli, predict(windows.inputs[-1], params))


def test_explain_one_pair_equals_shapley(trained, tmp_path):
    ckpt, dataset = trained["model"] / "checkpoint.json", trained["dataset"]
    assert run("explain", "--out", tmp_path, "--checkpoint", ckpt, "--dataset", dataset,
               "--test", 100, "--background", 0) == (0, [])
    [doc] = json.loads((tmp_path / "shap.json").read_text())
    params, _, schema, _, windows = cli._load_frozen(str(ckpt), dataset, None)
    want = shapley_pair(cli._predict_fn(params), windows.inputs[100], windows.inputs[0],
                        default_groups(schema))
    assert doc["background_id"] == "mean[1]"
    assert doc["phi"].keys() == want.phi.keys()
    for name, phi in want.phi.items():
        assert abs(doc["phi"][name] - phi) <= 1e-12


@pytest.fixture(scope="module")
def univariate(trained):
    """The checkpoint of train --variant univariate_lstm_att on the same
    22-column dataset."""
    model = trained["root"] / "univariate"
    assert run("train", "--out", model, "--config", trained["config"],
               "--dataset", trained["dataset"], *TRAIN_FLAGS,
               "--variant", "univariate_lstm_att") == (0, [])
    return model / "checkpoint.json"


def test_univariate_model_reads_the_demand_column_only(trained, univariate, tmp_path):
    dataset = trained["dataset"]
    model_args = ["--checkpoint", univariate, "--dataset", dataset]
    params, _, schema, _, windows = cli._load_frozen(str(univariate), dataset, None)
    assert params.config.n_features == 1 and schema.width == 22

    assert run("predict", "--out", tmp_path / "predict", *model_args,
               "--index", 100) == (0, [])
    with open(tmp_path / "predict" / "forecast.csv", newline="") as fh:
        from_cli = np.array([float(r["demand_scaled"]) for r in csv.DictReader(fh)])
    demand_only = np.ascontiguousarray(windows.inputs[100:101, :, :1])
    assert np.array_equal(from_cli, forward_batch(demand_only, params)[0][0])

    assert run("explain", "--out", tmp_path / "explain", *model_args,
               "--test", 100, "--background", "0,5") == (0, [])
    [doc] = json.loads((tmp_path / "explain" / "shap.json").read_text())
    for group in ("temperature", "holiday", "weekday", "month"):
        assert doc["phi"][group] == 0.0  # dummy axiom: the model never reads it
    assert abs(sum(doc["phi"].values()) - (doc["prediction"] - doc["base_value"])) < 1e-12

    assert run("attention", "--out", tmp_path / "attention", *model_args,
               "--limit", 64) == (0, [])
    with open(tmp_path / "attention" / "attention.csv", newline="") as fh:
        weights = [float(r["mean_weight"]) for r in csv.DictReader(fh)]
    assert len(weights) == 24 and abs(sum(weights) - 1.0) < 1e-12


@pytest.mark.parametrize("corrupt", ["truncated", "bad_payload"])
def test_corrupted_checkpoint_one_config_line_no_partial_files(trained, tmp_path, corrupt):
    model = tmp_path / "model"
    shutil.copytree(trained["model"], model)
    ckpt = model / "checkpoint.json"
    text = ckpt.read_text()
    if corrupt == "truncated":
        ckpt.write_text(text[:len(text) // 2])
    else:
        doc = json.loads(text)
        doc["params"]["U"]["data"] = doc["params"]["U"]["data"][:-12]
        ckpt.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc, lines = run("predict", "--out", out, "--checkpoint", ckpt,
                    "--dataset", trained["dataset"])
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("config: "), lines
    assert list(out.iterdir()) == []


BAD_METADATA = {
    "schema": lambda meta: meta.pop("schema"),
    "scaler": lambda meta: meta.pop("scaler"),
    "scaler-file-name": lambda meta: meta.update(scaler="scaler.json"),
    "scaler-no-columns": lambda meta: meta["scaler"].pop("columns"),
    "scaler-wrong-format": lambda meta: meta["scaler"].update(format="demandcast/scaler-v0"),
    "scaler-index-out-of-range": lambda meta: meta["scaler"]["columns"][0].update(index=22),
    "scaler-min-not-a-number": lambda meta: meta["scaler"]["columns"][0].update(min="low"),
    "pipeline-not-an-object": lambda meta: meta.update(pipeline="oops"),
    "pipeline-lookback-not-an-integer": lambda meta: meta["pipeline"].update(lookback="x"),
    "pipeline-clamp-bounds-null": lambda meta: meta["pipeline"].update(clamp_bounds=None),
}


@pytest.mark.parametrize("key", list(BAD_METADATA))
def test_load_model_missing_metadata_is_config_error(trained, tmp_path, key):
    """A checkpoint without a valid schema or scaler entry fails to load,
    and predict reports it as one ``config:`` line."""
    params, meta = load_checkpoint(trained["model"] / "checkpoint.json")
    BAD_METADATA[key](meta)
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, params, meta)
    with pytest.raises(ConfigError):
        cli._load_model(str(ckpt))
    rc, lines = run("predict", "--out", tmp_path / "out", "--checkpoint", ckpt,
                    "--dataset", trained["dataset"])
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("config: "), lines


@pytest.mark.parametrize("pipeline, key", [
    ("oops", "'pipeline'"),
    ({"lookback": "x"}, "'lookback'"),
    ({"window_stride": True}, "'window_stride'"),
    ({"split_fraction": "0.8"}, "'split_fraction'"),
    ({"scale_before_split": 1}, "'scale_before_split'"),
    ({"clamp_bounds": None}, "'clamp_bounds'"),
    ({"clamp_bounds": [0.0, "1"]}, "'clamp_bounds'"),
])
def test_train_bad_pipeline_config_one_config_line_no_partial_files(trained, tmp_path,
                                                                   pipeline, key):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"pipeline": pipeline}))
    out = tmp_path / "out"
    rc, lines = run("train", "--out", out, "--config", config,
                    "--dataset", trained["dataset"], *TRAIN_FLAGS)
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith(f"config: --config {config}: "), lines
    assert key in lines[0], lines
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, doc, block, key", [
    ("train", {"train": {"bogus": 1}}, "train", "'bogus'"),
    ("train", {"train": "x"}, "'train'", "'train'"),
    ("train", {"schema": {"bogus": True}}, "schema", "'bogus'"),
    ("train", {"schema": "x"}, "'schema'", "'schema'"),
    ("train", {"schema": {"include_hour": "yes"}}, "schema", "'include_hour'"),
    ("train", {"train": {"epochs": 2.5}}, "train", "'epochs'"),
    ("train", {"train": {"batch_size": 2.5}}, "train", "'batch_size'"),
    ("train", {"train": {"clip_norm": "x"}}, "train", "'clip_norm'"),
    ("train", {"train": {"shuffle": 1}}, "train", "'shuffle'"),
    ("eval", {"train": {"learning_rate": None}}, "train", "'learning_rate'"),
    ("simulate", {"synth": {"days": "x"}}, "synth", "'days'"),
    ("simulate", {"synth": {"start": "2022-13-01"}}, "synth", "'start'"),
    ("simulate", {"synth": {"weekday_mult": [1, "a"]}}, "synth", "'weekday_mult'"),
])
def test_bad_config_block_one_config_line_no_partial_files(trained, tmp_path,
                                                          command, doc, block, key):
    """A --config block that is not an object, or has an unknown key or a
    value of the wrong type, exits 1 with one ``config:`` line naming the
    block and the key, and writes nothing."""
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    flags = [] if command == "simulate" else ["--dataset", trained["dataset"], "--hidden", 8]
    rc, lines = run(command, "--out", out, "--config", config, "--seed", 4, *flags)
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith(f"config: --config {config}: "), lines
    assert block in lines[0] and key in lines[0], lines
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "train"])
def test_negative_seed_one_config_line_no_partial_files(trained, tmp_path, command):
    out = tmp_path / "out"
    flags = ["--days", 2] if command == "simulate" else ["--dataset", trained["dataset"]]
    assert run(command, "--out", out, "--seed", -1, *flags) == (
        1, ["config: seed must be >= 0"])
    assert list(out.iterdir()) == []


def test_cli_tables_end_lines_in_crlf(trained, tmp_path):
    """forecast.csv and comparison.csv end every line with CRLF and hold
    the forecast and the metrics.json scores."""
    ckpt, dataset = trained["model"] / "checkpoint.json", trained["dataset"]
    assert run("predict", "--out", tmp_path / "predict", "--checkpoint", ckpt,
               "--dataset", dataset, "--index", 40) == (0, [])
    assert run("eval", "--out", tmp_path / "eval", "--config", trained["config"],
               "--dataset", dataset, *TRAIN_FLAGS,
               "--variants", "multivariate_lstm,univariate_lstm") == (0, [])
    forecast = (tmp_path / "predict" / "forecast.csv").read_bytes()
    comparison = (tmp_path / "eval" / "comparison.csv").read_bytes()
    for data, rows in ((forecast, 97), (comparison, 3)):
        assert data.endswith(b"\r\n") and data.count(b"\r\n") == data.count(b"\n") == rows

    params, _, _, scaler, windows = cli._load_frozen(str(ckpt), dataset, None)
    rows = list(csv.reader(io.StringIO(forecast.decode(), newline="")))
    assert rows[0] == ["timestamp", "demand_scaled", "demand"]
    scaled = predict(windows.inputs[40], params)
    assert [r[0] for r in rows[1:]] == [str(t) for t in
                                        windows.target_timestamps(40).astype(object)]
    assert np.array_equal([float(r[1]) for r in rows[1:]], scaled)
    assert np.array_equal([float(r[2]) for r in rows[1:]],
                          inverse_transform(scaler, scaled, column=0))

    metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    rows = list(csv.reader(io.StringIO(comparison.decode(), newline="")))
    assert rows[0] == ["variant", "test_mse", "wall_time_s"]
    assert [(r[0], float(r[1]), r[2]) for r in rows[1:]] == [
        (m["variant"], m["test_mse"], f"{m['wall_time_s']:.2f}") for m in metrics]


def test_json_records_keep_key_order(trained, tmp_path):
    checkpoint = json.loads((trained["model"] / "checkpoint.json").read_text())
    assert list(checkpoint["model"]) == ["n_features", "hidden", "horizon", "lookback",
                                         "attention", "head_input"]
    assert [list(f) for f in checkpoint["schema"]["features"]] == [
        ["name", "kind", "cardinality"]] * 5
    metrics = json.loads((trained["model"] / "metrics.json").read_text())
    assert list(metrics) == ["variant", "train_mse", "test_mse", "wall_time_s",
                             "epoch_losses", "seed"]
    synth = json.loads((trained["root"] / "sim" / "synth_config.json").read_text())
    assert list(synth) == ["seed", "days", "start", "peak_rate", "base_profile",
                           "weekday_mult", "month_mult", "holiday_mult", "temp_mean_c",
                           "temp_annual_amp_c", "temp_daily_amp_c", "temp_noise_sd_c",
                           "temp_coeff", "drift_amplitudes", "drift_periods_days"]
    assert synth["start"] == "2022-01-01" and synth["days"] == 30 and synth["seed"] == 3


def test_explain_reports_forwarded_windows_and_residual(trained, tmp_path):
    backgrounds = [0, 5, 5, 100, 300]
    assert run("explain", "--out", tmp_path, "--checkpoint", trained["model"] / "checkpoint.json",
               "--dataset", trained["dataset"], "--test", "100,200",
               "--background", ",".join(map(str, backgrounds))) == (0, [])
    reports = json.loads((tmp_path / "shap.json").read_text())
    assert len(reports) == 2
    for doc in reports:
        assert 1 <= doc["forwarded_windows"] <= 32 * len(backgrounds)
        residual = abs(sum(doc["phi"].values()) - (doc["prediction"] - doc["base_value"]))
        assert doc["efficiency_residual"] == residual <= 1e-9
    with open(tmp_path / "shap.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["test_id", "background_id", "group", "phi",
                                        "base_value", "prediction", "aggregation"]
    with open(tmp_path / "beeswarm.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["instance_id", "group", "value", "phi"]


@pytest.mark.parametrize("command, flags, valid", [
    ("explain", ["--test", 100, "--background", 0, "--step", 200], "0..95"),
    ("explain", ["--test", 100, "--background", 0, "--step", -1], "0..95"),
    ("attention", ["--limit", 0], ">= 1"),
])
def test_out_of_range_flag_one_config_line_no_partial_files(trained, tmp_path,
                                                            command, flags, valid):
    out = tmp_path / "out"
    rc, lines = run(command, "--out", out, "--checkpoint", trained["model"] / "checkpoint.json",
                    "--dataset", trained["dataset"], *flags)
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("config: ") and valid in lines[0], lines
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, name, line, text", [
    pytest.param("ingest", "temperature.csv", 5, "2022-01-01 00:45:00,warm",
                 id="ingest-temperature-cell"),
    pytest.param("ingest", "demand.csv", 7, "2022-01-01 01:15:00", id="ingest-demand-short-row"),
    pytest.param("ingest", "temperature.csv", 1, None, id="ingest-temperature-empty"),
    pytest.param("ingest", "holidays.csv", 2, "2022-13-01", id="ingest-holiday-date"),
    pytest.param("ingest", "temperature.csv", 5, "2022-01-01 00:15:00,10.0",
                 id="ingest-temperature-out-of-order"),
    pytest.param("train", "dataset.csv", 5, "2022-01-01 00:45:00,x,10.0,5,1,1",
                 id="train-dataset-cell"),
    pytest.param("train", "dataset.csv", 5, "2022-01-01 00:45:00,3,10.0,300,1,1",
                 id="train-dataset-weekday-out-of-range"),
])
def test_bad_csv_one_schema_line_naming_file_line(trained, tmp_path, command, name, line, text):
    """A bad cell, a short row, an empty file, a bad holiday date, a
    temperature reading out of time order or a calendar cell out of range in
    any CSV the pipeline reads exits 1 with one ``schema:`` line and no output."""
    sim = trained["root"] / "sim"
    inputs = {"demand.csv": sim / "demand.csv", "temperature.csv": sim / "temperature.csv",
              "holidays.csv": sim / "holidays.csv", "dataset.csv": trained["dataset"]}
    bad = tmp_path / name
    if text is None:
        bad.write_text("")
    else:
        rows = inputs[name].read_text().splitlines()
        rows[line - 1] = text
        bad.write_text("\n".join(rows) + "\n")
    inputs[name] = bad
    if command == "ingest":
        flags = ["--demand-grid", inputs["demand.csv"], "--temperature",
                 inputs["temperature.csv"], "--holidays", inputs["holidays.csv"]]
    else:
        flags = ["--config", trained["config"], "--dataset", inputs["dataset.csv"], *TRAIN_FLAGS]
    out = tmp_path / "out"
    rc, lines = run(command, "--out", out, *flags)
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("schema: "), lines
    assert f" line {line}: " in lines[0], lines
    assert list(out.iterdir()) == []


def sessions_csv(path, rows):
    """A sessions CSV of ``rows`` (lists of cells), under the standard header."""
    path.write_text("start,charge_end,disconnect,energy_kwh\n"
                    + "".join(",".join(row) + "\n" for row in rows))
    return path


def ingest_sessions(trained, out, sessions, *flags):
    sim = trained["root"] / "sim"
    return run("ingest", "--out", out, "--sessions", sessions, "--temperature",
               sim / "temperature.csv", "--holidays", sim / "holidays.csv", *flags)


def test_ingest_sessions_reports_malformed_rows_and_counts_the_rest(trained, tmp_path):
    """At most ten ``row-error`` lines, then the number of rows skipped; the
    dataset's demand is the minute-scan count of the valid sessions."""
    rng = np.random.default_rng(5)
    rows = []
    for k in range(60):
        start = datetime(2022, 1, 3) + timedelta(minutes=int(rng.integers(0, 2 * 24 * 60)))
        end = start + timedelta(minutes=int(rng.integers(0, 300)))
        rows.append([str(start), str(end), str(end + timedelta(minutes=5)), "3.5"])
    bad = {4: ["not-a-time", *rows[4][1:]], 9: rows[9][:3], 15: [*rows[15][:3], "-1"],
           16: [*rows[16][:3], "nan"], 22: [rows[22][1], rows[22][0], *rows[22][2:]],
           30: [*rows[30][:3], "n/a"], 31: [rows[31][0] + "\x00", *rows[31][1:]],
           33: ["2022-02-30 00:00:00", *rows[33][1:]], 40: [*rows[40][:3], "inf"],
           41: rows[41][:1], 47: ["0000-01-03 00:00:00", *rows[47][1:]],
           59: [*rows[59][:3], ""]}
    for k, row in bad.items():
        rows[k] = row
    rows.insert(20, ["2022-01-03T09:00:00Z", "2022-01-03T10:00:00Z", "2022-01-03T11:00:00Z",
                     "1.0"])  # valid, and read by the per-row reader
    path = sessions_csv(tmp_path / "sessions.csv", rows)
    rc, lines = ingest_sessions(trained, tmp_path / "out", path)
    records, errors = per_row_sessions(path.read_text())
    assert rc == 0 and len(errors) == len(bad) == 12
    assert lines == [f"row-error line {line}: {message}" for line, message in errors[:10]] + [
        "(12 malformed rows skipped)"]
    with open(tmp_path / "out" / "dataset.csv", newline="") as fh:
        table = list(csv.reader(fh))[1:]
    origin, n = grid_span(min(r.start for r in records), max(r.charge_end for r in records))
    assert [row[0] for row in table] == format_times(grid_times(origin, n))
    assert [int(row[1]) for row in table] == minute_scan_demand(records, origin, n)


def test_ingest_sessions_with_no_valid_row_is_schema_error(trained, tmp_path):
    rows = [["2022-01-03 10:00:00", "2022-01-03 09:00:00", "2022-01-03 11:00:00", "1.0"],
            ["2022-01-03 10:00:00", "2022-01-03 11:00:00"]]
    out = tmp_path / "out"
    rc, lines = ingest_sessions(trained, out, sessions_csv(tmp_path / "sessions.csv", rows))
    assert rc == 1
    assert [line.split(":")[0] for line in lines] == ["row-error line 2", "row-error line 3",
                                                      "(2 malformed rows skipped)", "schema"]
    assert lines[-1] == "schema: sessions CSV yielded no valid records"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("stamp", ["2022-01-03 09:00:00", "2022-01-03T09:00:00+00:00"])
@pytest.mark.parametrize("timezone", [5, "Mars/Olympus", "", "../etc/passwd", ["UTC"]])
def test_bad_timezone_one_config_line(trained, tmp_path, timezone, stamp):
    """A timezone that is not null or a zone zoneinfo knows is one ``config:``
    line, whether or not a cell carries a UTC offset."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"timezone": timezone}))
    later = stamp.replace("09:", "10:")
    path = sessions_csv(tmp_path / "sessions.csv", [[stamp, later, later, "1.0"]])
    out = tmp_path / "out"
    rc, lines = ingest_sessions(trained, out, path, "--config", config)
    assert rc == 1
    assert lines == [f"config: --config {config}: timezone must be null or a zone name "
                     f"that zoneinfo knows, got {timezone!r}"]
    assert not out.exists()


def test_ingest_sessions_with_a_timezone_converts_offsets(trained, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"timezone": "America/Los_Angeles"}))
    path = sessions_csv(tmp_path / "sessions.csv", [
        ["2022-01-03T17:00:00Z", "2022-01-03T18:00:00Z", "2022-01-03T18:00:00Z", "1.0"]])
    assert ingest_sessions(trained, tmp_path / "out", path, "--config", config) == (0, [])
    with open(tmp_path / "out" / "dataset.csv", newline="") as fh:
        table = list(csv.reader(fh))[1:]
    assert [row[:2] for row in table] == [[f"2022-01-03 09:{m:02d}:00", "1"]
                                          for m in (0, 15, 30, 45)]
