"""End-to-end test of the command line on a small synthetic dataset: every
subcommand through ``cli.main``, the checkpoint it writes, ``ingest
--sessions`` against the minute-scan oracle, and how a bad checkpoint, a
bad CSV, a malformed session row, a bad --variants entry or a bad timezone is
reported, what a failed or interrupted run leaves in --out, what a run
replaces there, and a run from a thread other than the main one."""

import contextlib
import csv
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from demandcast import cli
from demandcast.errors import ConfigError
from demandcast.explain import attention_profile, write_attention_csv
from demandcast.features import WindowedDataset, inverse_transform
from demandcast.ingest import grid_span, grid_times
from demandcast.lstm_att import forecast, forward_batch, load_checkpoint, save_checkpoint
from helpers import (
    CHECKPOINT_CORRUPTIONS,
    as_checkpoint_v3,
    format_times,
    minute_scan_demand,
    per_row_sessions,
    predict,
    shapley_pair,
    split_checkpoint,
)

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


def test_checkpoint_is_v4(trained):
    doc, payload = split_checkpoint(trained["model"] / "checkpoint.json")
    assert doc["format"] == "demandcast/checkpoint-v4" and doc["dtype"] == "<f4"
    assert doc["model"]["hidden"] == 8
    assert len(payload) == 4 * sum(t.value.size for t in trained["params"].tensors())
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


@pytest.mark.parametrize("starts", [[0, 1, 2688], [5, 5, 40], [2000, 3, 700, 3], [-1, -2689]],
                         ids=["first-second-last", "repeated", "unsorted", "negative"])
def test_load_frozen_starts_are_the_slid_windows_at_those_indices(trained, starts):
    """The windows of the rows ``_load_frozen`` encodes for ``starts`` are,
    bit for bit, the windows at those indices of every row slid."""
    ckpt, dataset = str(trained["model"] / "checkpoint.json"), trained["dataset"]
    every = cli._load_frozen(ckpt, dataset, None)[-1]
    some = cli._load_frozen(ckpt, dataset, None, starts)[-1]
    assert some.inputs.shape == (len(starts), 96, 22)
    assert some.inputs.tobytes() == every.inputs[starts].tobytes()
    assert some.targets.tobytes() == every.targets[starts].tobytes()
    assert np.array_equal(some.origins, every.origins[starts])
    assert (some.lookback, some.horizon) == (every.lookback, every.horizon)


def test_explain_one_pair_equals_shapley(trained, tmp_path):
    ckpt, dataset = trained["model"] / "checkpoint.json", trained["dataset"]
    assert run("explain", "--out", tmp_path, "--checkpoint", ckpt, "--dataset", dataset,
               "--test", 100, "--background", 0) == (0, [])
    [doc] = json.loads((tmp_path / "shap.json").read_text())
    params, _, schema, _, windows = cli._load_frozen(str(ckpt), dataset, None)
    want = shapley_pair(lambda batch: forecast(batch, params), windows.inputs[100],
                        windows.inputs[0], schema.group_columns())
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


@pytest.mark.parametrize("limit", [7, 64, 2688])
def test_attention_limit_profiles_every_step_th_window(trained, tmp_path, limit):
    """--limit profiles the windows 0, step, 2 step, ... of the first
    ``limit`` of ``range(0, N, step)``, ``step`` = N // limit."""
    ckpt, dataset = trained["model"] / "checkpoint.json", trained["dataset"]
    assert run("attention", "--out", tmp_path / "attention", "--checkpoint", ckpt,
               "--dataset", dataset, "--limit", limit) == (0, [])
    params, _, _, _, windows = cli._load_frozen(str(ckpt), dataset, None)
    keep = list(range(0, len(windows), len(windows) // limit))[:limit]
    write_attention_csv(tmp_path / "want.csv", attention_profile(params, WindowedDataset(
        windows.inputs[keep], windows.targets[keep], windows.origins[keep],
        windows.lookback, windows.horizon)))
    assert ((tmp_path / "attention" / "attention.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


@pytest.mark.parametrize("cache", ["usable", "a-file"])
def test_missing_dataset_one_io_line(trained, tmp_path, monkeypatch, cache):
    if cache == "a-file":
        (tmp_path / "a-file").write_text("x")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "a-file"))
    out = tmp_path / "out"
    rc, lines = run("predict", "--out", out, "--checkpoint", trained["model"] / "checkpoint.json",
                    "--dataset", tmp_path / "missing.csv")
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("io: ") and "missing.csv" in lines[0], lines
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("corrupt", sorted(CHECKPOINT_CORRUPTIONS))
def test_corrupted_checkpoint_one_config_line_no_partial_files(trained, tmp_path, corrupt):
    """Each broken checkpoint is one ``config:`` line, or one ``shape:``
    line for a header shape that is not the model's."""
    model = tmp_path / "model"
    shutil.copytree(trained["model"], model)
    ckpt = model / "checkpoint.json"
    damage, error = CHECKPOINT_CORRUPTIONS[corrupt]
    damage(ckpt)
    out = tmp_path / "out"
    rc, lines = run("predict", "--out", out, "--checkpoint", ckpt,
                    "--dataset", trained["dataset"])
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith(f"{error.code}: "), lines
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("name", ["W", "U", "b"])
def test_weight_outside_float32_range_one_numeric_line_no_partial_files(trained, tmp_path,
                                                                        name):
    """A v3 checkpoint whose LSTM weight holds 1e300, finite in its float64
    payload but not in the float32 arena it loads into, makes predict exit 1
    with one ``numeric:`` line naming stage 'lstm', with no floating-point
    warning before it (the suite turns warnings into errors), and write
    nothing."""
    ckpt = tmp_path / "checkpoint.json"
    shutil.copy(trained["model"] / "checkpoint.json", ckpt)
    tensors = trained["params"].tensors()
    offset = sum(t.value.size for t in tensors[:[t.name for t in tensors].index(name)])
    as_checkpoint_v3(ckpt, lambda values: values.__setitem__(offset, 1e300))
    out = tmp_path / "out"
    assert run("predict", "--out", out, "--checkpoint", ckpt,
               "--dataset", trained["dataset"]) == (
        1, ["numeric: non-finite values detected at stage 'lstm'"])
    assert list(out.iterdir()) == []


FEATURE_LIST = [{"name": name, "kind": kind, "cardinality": cardinality}
                for name, kind, cardinality in (("request", "numeric", 1),
                                                ("temperature", "numeric", 1),
                                                ("holiday", "binary", 1),
                                                ("weekday", "onehot", 7),
                                                ("month", "onehot", 12))]


def _add_hour_column(meta):
    """A schema and scaler for 23 columns, in front of a 22-column model."""
    meta["schema"].update(include_hour=True)
    meta["scaler"]["columns"].append({"name": "hour", "index": 22, "min": 0.0, "max": 23.75})
    meta["scaler"].update(width=23)


BAD_METADATA = {
    "schema": lambda meta: meta.pop("schema"),
    "schema-feature-list": lambda meta: meta.update(schema={"features": FEATURE_LIST}),
    "schema-flag-not-a-bool": lambda meta: meta["schema"].update(include_hour=1),
    "schema-unknown-key": lambda meta: meta["schema"].update(hour=True),
    "schema-wider-than-model": _add_hour_column,
    "scaler": lambda meta: meta.pop("scaler"),
    "scaler-file-name": lambda meta: meta.update(scaler="scaler.json"),
    "scaler-no-columns": lambda meta: meta["scaler"].pop("columns"),
    "scaler-wrong-format": lambda meta: meta["scaler"].update(format="demandcast/scaler-v0"),
    "scaler-index-out-of-range": lambda meta: meta["scaler"]["columns"][0].update(index=22),
    "scaler-min-not-a-number": lambda meta: meta["scaler"]["columns"][0].update(min="low"),
    "scaler-column-at-weekday-index":
        lambda meta: meta["scaler"]["columns"][1].update(index=5),
    "scaler-no-temperature-column":
        lambda meta: meta["scaler"].update(columns=meta["scaler"]["columns"][:1]),
    "scaler-width-not-schema": lambda meta: meta["scaler"].update(width=23),
    "pipeline-not-an-object": lambda meta: meta.update(pipeline="oops"),
    "pipeline-lookback-not-an-integer": lambda meta: meta["pipeline"].update(lookback="x"),
    "pipeline-clamp-bounds-null": lambda meta: meta["pipeline"].update(clamp_bounds=None),
    "pipeline-clamp-bounds-reversed":
        lambda meta: meta["pipeline"].update(clamp_bounds=[1.05, -0.05]),
    "pipeline-split-fraction-nan":
        lambda meta: meta["pipeline"].update(split_fraction=float("nan")),
    "pipeline-scale-before-split":
        lambda meta: meta["pipeline"].update(scale_before_split=False),
}


@pytest.mark.parametrize("key", list(BAD_METADATA))
def test_load_model_missing_metadata_is_config_error(trained, tmp_path, key):
    """A checkpoint without a valid schema, scaler or pipeline entry, or
    whose scaler or model does not fit the columns its schema expands to,
    fails to load, and predict reports it as one ``config:`` line and
    writes nothing."""
    params, meta = load_checkpoint(trained["model"] / "checkpoint.json")
    BAD_METADATA[key](meta)
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, params, meta)
    with pytest.raises(ConfigError):
        cli._load_model(str(ckpt))
    out = tmp_path / "out"
    rc, lines = run("predict", "--out", out, "--checkpoint", ckpt,
                    "--dataset", trained["dataset"])
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith(f"config: checkpoint {ckpt}"), lines
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("key", ["lookback", "horizon"])
def test_predict_uses_model_window_lengths_not_pipeline(trained, tmp_path, key):
    """predict slides the model's own lookback and horizon: a checkpoint
    whose pipeline says 48 forecasts the model's 96 steps, byte-equal to
    the untouched checkpoint."""
    ckpt = trained["model"] / "checkpoint.json"
    params, meta = load_checkpoint(ckpt)
    meta["pipeline"][key] = 48
    edited = tmp_path / "checkpoint.json"
    save_checkpoint(edited, params, meta)
    for name, path in (("want", ckpt), ("got", edited)):
        assert run("predict", "--out", tmp_path / name, "--checkpoint", path,
                   "--dataset", trained["dataset"]) == (0, [])
    got = (tmp_path / "got" / "forecast.csv").read_bytes()
    assert got.count(b"\r\n") == 1 + params.config.horizon == 97
    assert got == (tmp_path / "want" / "forecast.csv").read_bytes()


@pytest.mark.parametrize("pipeline, key", [
    ("oops", "'pipeline'"),
    ({"lookback": "x"}, "'lookback'"),
    ({"window_stride": True}, "'window_stride'"),
    ({"split_fraction": "0.8"}, "'split_fraction'"),
    ({"scale_before_split": 1}, "'scale_before_split'"),
    ({"clamp_bounds": None}, "'clamp_bounds'"),
    ({"clamp_bounds": [0.0, "1"]}, "'clamp_bounds'"),
    ({"clamp_bounds": [1.05, -0.05]}, "'clamp_bounds'"),
    ({"split_fraction": float("nan")}, "'split_fraction'"),
    ({"split_fraction": 1.0}, "'split_fraction'"),
    ({"window_stride": 0}, "'window_stride'"),
    ({"lookback": -3}, "'lookback'"),
    ({"horizon": 0}, "'horizon'"),
    ({"scale_before_split": False}, "'scale_before_split'"),
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


@pytest.mark.parametrize("data, line", [
    pytest.param(None, "config: config file not found: {config}", id="missing"),
    pytest.param(b"{not json",
                 "config: config file {config} is not valid JSON: Expecting property name",
                 id="not-json"),
    pytest.param(b"[2]", "config: config file {config} must contain a JSON object",
                 id="not-an-object"),
    pytest.param(b"\xff\xfe" + '{"synth": {"days": 2}}'.encode("utf-16-le"),
                 "config: config file {config} is not UTF-8 text (byte 0xff)", id="not-utf-8"),
    pytest.param(b'\xef\xbb\xbf{"synth": {"days": 2}}', None, id="byte-order-mark"),
])
def test_config_file_is_read_or_one_config_line_no_partial_files(tmp_path, data, line):
    """A --config file that is missing, not UTF-8, not JSON or not an object
    exits 1 with one ``config:`` line and writes nothing; a UTF-8 file that
    starts with a byte-order mark is read without it."""
    config, out = tmp_path / "run.json", tmp_path / "out"
    if data is not None:
        config.write_bytes(data)
    rc, lines = run("simulate", "--out", out, "--config", config)
    if line is None:
        assert (rc, lines) == (0, [])
        assert len((out / "demand.csv").read_text().splitlines()) == 1 + 2 * 96
    else:
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith(line.format(config=config)), lines
        assert not out.exists()


@pytest.mark.parametrize("learning_rate, line", [
    (1e300, "numeric: non-finite values detected at stage 'lstm' at epoch 1, batch 2"),
    (1e308, "numeric: non-finite values detected at stage 'lstm' at epoch 1, batch 2"),
])
def test_diverged_training_one_numeric_line_no_partial_files(trained, tmp_path,
                                                            learning_rate, line):
    """Training whose loss, or a forward stage, stops being finite exits 1
    with one ``numeric:`` line naming the epoch and the batch, with no
    floating-point warning before it (the suite turns warnings into errors),
    and writes nothing."""
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({**RUN_CONFIG, "train": {"learning_rate": learning_rate}}))
    out = tmp_path / "out"
    assert run("train", "--out", out, "--config", config, "--dataset", trained["dataset"],
               *TRAIN_FLAGS) == (1, [line])
    assert list(out.iterdir()) == []


def test_model_too_large_for_memory_one_memory_line_no_partial_files(trained, tmp_path):
    """A model whose parameter arena no machine can hold (1.42 PiB at
    10^7 hidden units) exits 1 with one ``memory:`` line and writes nothing."""
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({**RUN_CONFIG, "train": {"hidden": 10_000_000}}))
    out = tmp_path / "out"
    rc, lines = run("train", "--out", out, "--config", config, "--dataset", trained["dataset"],
                    "--epochs", 1)
    assert (rc, len(lines)) == (1, 1) and lines[0].startswith("memory: Unable to allocate"), lines
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "train"])
def test_negative_seed_one_config_line_no_partial_files(trained, tmp_path, command):
    out = tmp_path / "out"
    flags = ["--days", 2] if command == "simulate" else ["--dataset", trained["dataset"]]
    assert run(command, "--out", out, "--seed", -1, *flags) == (
        1, ["config: flags: seed must be >= 0"])
    assert list(out.iterdir()) == []


SOURCE = "config: --config {config}: "


@pytest.mark.parametrize("command, doc, line", [
    ("simulate", {"synth": {"temp_noise_sd_c": -1}},
     SOURCE + "temp_noise_sd_c must be non-negative"),
    ("simulate", {"synth": {"peak_rate": 1e300}}, SOURCE + "synth demand rate must be finite"),
    ("simulate", {"synth": {"drift_periods_days": [1e-310, 30.0]}},
     SOURCE + "synth demand rate must be finite"),
    ("train", {"train": {"clip_norm": -5}}, SOURCE + "clip_norm must be null or > 0, got -5"),
    ("train", {"train": {"clip_norm": 0}}, SOURCE + "clip_norm must be null or > 0, got 0"),
    ("train", {"train": {"beta1": 1}}, SOURCE + "beta1 must be in [0, 1), got 1"),
    ("train", {"train": {"beta2": 2, "eps": -1e-8}}, SOURCE + "beta2 must be in [0, 1), got 2"),
    ("eval", {"train": {"eps": -1e-8}}, SOURCE + "eps must be > 0, got -1e-08"),
    ("train", {"train": {"learning_rate": float("nan")}},
     SOURCE + "learning_rate must be > 0, got nan"),
], ids=["noise-sd", "peak-rate", "drift-period", "clip-negative", "clip-zero", "beta1", "beta2",
        "eps", "learning-rate-nan"])
def test_out_of_range_value_one_config_line_no_partial_files(trained, tmp_path,
                                                             command, doc, line):
    """A synth or train value that would crash the sampler or silently
    break training exits 1 with one ``config:`` line that names the config
    file, and writes nothing: a value the config constructor rejects, and a
    demand rate the sampler's check rejects."""
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    flags = (["--days", 5] if command == "simulate"
             else ["--dataset", trained["dataset"], "--hidden", 8])
    rc, lines = run(command, "--out", out, "--config", config, *flags)
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith(line.format(config=config)), lines
    assert list(out.iterdir()) == []


FILE = "config: --config {config} "


@pytest.mark.parametrize("command, config, flags, line", [
    ("train", None, ["--epochs", 0], "config: --epochs 0: epochs must be >= 1"),
    ("train", {}, ["--epochs", 0], FILE + "--epochs 0: epochs must be >= 1"),
    ("train", {}, ["--learning-rate", -1, "--epochs", 0],
     FILE + "--learning-rate -1.0: learning_rate must be > 0, got -1.0"),
    ("train", {"train": {"epochs": 0}}, ["--hidden", 4],
     "config: --config {config}: epochs must be >= 1"),
    ("eval", {}, ["--batch-size", 0, "--shuffle"], FILE + "--batch-size 0: batch_size"),
    ("simulate", None, ["--days", 0], "config: --days 0: days must be >= 1"),
    ("simulate", {}, ["--days", 0], FILE + "--days 0: days must be >= 1"),
    ("simulate", None, ["--days", 3000000],
     "config: --days 3000000: days must be <= 2913904 for a span from 2022-01-01 that ends "
     "by 9999-12-31, got 3000000"),
    ("simulate", {}, ["--start", "9999-12-31", "--days", 2],
     FILE + "--days 2 --start 9999-12-31: days must be <= 1 for a span from 9999-12-31"),
    ("train", None, ["--hidden", 0], "config: --hidden 0: hidden must be >= 1"),
    ("train", {"train": {"head_input": "sum"}}, [],
     "config: --config {config}: head_input must be one of ('context', 'weighted_flatten')"),
    ("eval", None, ["--variants", "bogus"], "config: --variants bogus: variant must be one of ("),
    ("train", None, ["--variant", "bogus"], "config: --variant bogus: variant must be one of ("),
    ("eval", {}, ["--variants", ""], FILE + "--variants: variant must be one of ("),
    ("eval", {}, ["--variants", "multivariate_lstm,multivariate_lstm"],
     FILE + "--variants multivariate_lstm: variant is repeated"),
], ids=["flag", "file-and-flag", "first-bad-flag", "file-value", "eval-flag", "days",
        "file-and-days", "days-past-year-9999", "start-and-days-past-year-9999", "hidden",
        "file-head-input", "eval-variants-unknown", "train-variant-unknown", "eval-variants-empty",
        "eval-variants-repeated"])
def test_out_of_range_flag_value_names_the_flag(trained, tmp_path, command, config, flags,
                                                line):
    """A range error that a flag's value causes names that flag, after the
    config file when there is one; an error of the file's own value names
    only the file. A bad ``--variants`` entry is named on its own. Nothing
    is written."""
    args = []
    if config is not None:
        args = ["--config", tmp_path / "run.json"]
        args[1].write_text(json.dumps(config))
    if command != "simulate":
        args += ["--dataset", trained["dataset"]]
    out = tmp_path / "out"
    rc, lines = run(command, "--out", out, *args, *flags)
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith(
        line.format(config=tmp_path / "run.json")), lines
    assert list(out.iterdir()) == []


def test_eval_variant_flag_is_read_as_variants(trained, tmp_path):
    """eval has no --variant; argparse reads it as --variants, so one
    variant is trained and compared."""
    assert run("eval", "--out", tmp_path, "--config", trained["config"],
               "--dataset", trained["dataset"], *TRAIN_FLAGS,
               "--variant", "univariate_lstm") == (0, [])
    with open(tmp_path / "comparison.csv", newline="") as fh:
        assert [r["variant"] for r in csv.DictReader(fh)] == ["univariate_lstm"]


def test_train_and_eval_of_one_variant_give_the_same_scores(trained, univariate, tmp_path):
    """train --variant V and eval --variants V on one config and seed run
    the same job: the same test_mse and epoch losses, bit for bit."""
    assert run("eval", "--out", tmp_path, "--config", trained["config"],
               "--dataset", trained["dataset"], *TRAIN_FLAGS,
               "--variants", "univariate_lstm_att") == (0, [])
    trained_report = json.loads((univariate.parent / "metrics.json").read_text())
    [eval_report] = json.loads((tmp_path / "metrics.json").read_text())
    for key in ("variant", "test_mse", "epoch_losses"):
        assert eval_report[key] == trained_report[key], key


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
                          inverse_transform(scaler, scaled))

    metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    rows = list(csv.reader(io.StringIO(comparison.decode(), newline="")))
    assert rows[0] == ["variant", "test_mse", "wall_time_s"]
    assert [(r[0], float(r[1]), r[2]) for r in rows[1:]] == [
        (m["variant"], m["test_mse"], f"{m['wall_time_s']:.2f}") for m in metrics]


def test_json_records_keep_key_order(trained, tmp_path):
    checkpoint, _ = split_checkpoint(trained["model"] / "checkpoint.json")
    assert list(checkpoint) == ["format", "dtype", "model", "params", "schema", "scaler",
                                "seed", "variant", "pipeline"]
    assert list(checkpoint["params"]) == ["W", "U", "b", "W_a", "b_a", "W_out", "b_out"]
    assert list(checkpoint["model"]) == ["n_features", "hidden", "horizon", "lookback",
                                         "attention", "head_input"]
    assert checkpoint["schema"] == {"drop_first_month": False, "include_hour": False}
    assert checkpoint["pipeline"] == {"clamp_bounds": [-0.05, 1.05]}
    assert list(checkpoint["schema"]) == ["drop_first_month", "include_hour"]
    epoch, _ = split_checkpoint(trained["model"] / "checkpoints" / "epoch_002.json")
    assert list(epoch) == list(checkpoint) + ["epoch"] and epoch["epoch"] == 2
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
    *(pytest.param(command, flags, f"window index {index} out of range 0..2688", id=name)
      for name, command, flags, index in (
          ("predict-index-n", "predict", ["--index", 2689], 2689),
          ("predict-index-minus-n-1", "predict", ["--index", -2690], -2690),
          ("explain-test-n", "explain", ["--test", 2689, "--background", 0], 2689),
          ("explain-test-minus-n-1", "explain", ["--test", -2690, "--background", 0], -2690),
          ("explain-background-n", "explain", ["--test", 100, "--background", "0,2689"], 2689),
          ("explain-background-minus-n-1", "explain",
           ["--test", 100, "--background", "-2690"], -2690))),
])
def test_out_of_range_flag_one_config_line_no_partial_files(trained, tmp_path,
                                                            command, flags, valid):
    """A flag value out of its range is one ``config:`` line naming the
    valid range; the 30-day dataset holds windows 0..2688."""
    out = tmp_path / "out"
    rc, lines = run(command, "--out", out, "--checkpoint", trained["model"] / "checkpoint.json",
                    "--dataset", trained["dataset"], *flags)
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("config: ") and valid in lines[0], lines
    assert list(out.iterdir()) == []


def test_predict_defaults_to_the_last_window(trained, tmp_path):
    """No --index, --index -1 and --index N - 1 write the same forecast."""
    model_args = ["--checkpoint", trained["model"] / "checkpoint.json",
                  "--dataset", trained["dataset"]]
    forecasts = []
    for name, flags in (("default", []), ("minus-one", ["--index", -1]),
                        ("last", ["--index", 2688])):
        assert run("predict", "--out", tmp_path / name, *model_args, *flags) == (0, [])
        forecasts.append((tmp_path / name / "forecast.csv").read_bytes())
    assert forecasts[0] == forecasts[1] == forecasts[2]


@pytest.mark.parametrize("command, flags", [
    ("predict", []),
    ("explain", ["--test", 0, "--background", 0]),
    ("attention", []),
])
def test_dataset_shorter_than_one_window_one_grid_line(trained, tmp_path, command, flags):
    """A dataset of 191 rows holds no window of 96 + 96 rows: one ``grid:``
    line naming the 192 rows needed, and --out stays empty."""
    short = tmp_path / "short.csv"
    lines = trained["dataset"].read_bytes().splitlines(keepends=True)
    short.write_bytes(b"".join(lines[:1 + 191]))
    out = tmp_path / "out"
    rc, err = run(command, "--out", out, "--checkpoint", trained["model"] / "checkpoint.json",
                  "--dataset", short, *flags)
    assert rc == 1
    assert err == ["grid: need at least p + m = 192 rows to form one window, got 191"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flag", ["--checkpoint", "--dataset", "--demand-grid", "--config"])
def test_directory_input_one_io_line_no_partial_files(trained, tmp_path, flag):
    """An input path that names a directory is one ``io:`` line naming it,
    and --out stays empty."""
    sim = trained["root"] / "sim"
    if flag == "--demand-grid":
        argv = ["ingest", "--demand-grid", tmp_path, "--temperature", sim / "temperature.csv",
                "--holidays", sim / "holidays.csv"]
    else:
        inputs = {"--checkpoint": trained["model"] / "checkpoint.json",
                  "--dataset": trained["dataset"], flag: tmp_path}
        argv = ["predict", *(part for pair in inputs.items() for part in pair)]
    out = tmp_path / "out"
    out.mkdir()
    rc, lines = run(*argv, "--out", out)
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("io: ") and str(tmp_path) in lines[0], lines
    assert list(out.iterdir()) == []


def test_out_naming_a_file_one_io_line_file_kept(trained, tmp_path):
    out = tmp_path / "out"
    out.write_text("keep")
    rc, lines = run("predict", "--out", out, "--checkpoint", trained["model"] / "checkpoint.json",
                    "--dataset", trained["dataset"])
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("io: ") and str(out) in lines[0], lines
    assert out.read_text() == "keep"


def tree(path: Path) -> dict[str, bytes]:
    """Every file under ``path``, by its relative path, with its bytes."""
    return {str(p.relative_to(path)): p.read_bytes() for p in path.rglob("*") if p.is_file()}


def test_failed_train_keeps_an_earlier_runs_outputs(trained, tmp_path):
    """A train that diverges into an --out holding an earlier run leaves
    every earlier file, the epoch checkpoints included, with its bytes."""
    out = tmp_path / "model"
    shutil.copytree(trained["model"], out)
    before = tree(out)
    assert "checkpoints/epoch_002.json" in before
    assert run("train", "--out", out, "--config", trained["config"],
               "--dataset", trained["dataset"], *TRAIN_FLAGS, "--learning-rate", 1e300) == (
        1, ["numeric: non-finite values detected at stage 'lstm' at epoch 1, batch 2"])
    assert tree(out) == before


def test_output_name_that_is_a_directory_one_io_line(trained, tmp_path):
    """An output file whose name is taken by a directory in --out is one
    ``io:`` line naming it, and nothing new appears in --out."""
    out = tmp_path / "out"
    (out / "forecast.csv").mkdir(parents=True)
    rc, lines = run("predict", "--out", out, "--checkpoint", trained["model"] / "checkpoint.json",
                    "--dataset", trained["dataset"])
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("io: ") and "forecast.csv" in lines[0], lines
    assert list(out.iterdir()) == [out / "forecast.csv"]
    assert list((out / "forecast.csv").iterdir()) == []


def test_move_that_fails_midway_leaves_no_manifest(trained, tmp_path, monkeypatch):
    """When a move into an --out holding an earlier run fails after the name
    checks and the first move, the earlier run's manifest is gone, so no
    manifest marks --out as a complete run."""
    out = tmp_path / "model"
    shutil.copytree(trained["model"], out)
    assert (out / "manifest.json").is_file()
    replace, moves = os.replace, []

    def second_fails(src, dest):
        moves.append(dest)
        if len(moves) == 2:
            raise OSError(f"cannot move to {dest}")
        replace(src, dest)

    monkeypatch.setattr(cli.os, "replace", second_fails)
    rc, lines = run("train", "--out", out, "--config", trained["config"],
                    "--dataset", trained["dataset"], "--hidden", 8, "--epochs", 1)
    assert (rc, lines) == (1, [f"io: cannot move to {moves[1]}"])
    assert sorted(p.name for p in out.iterdir()) == ["checkpoint.json", "checkpoints",
                                                     "metrics.json"]


def test_shorter_train_replaces_an_earlier_runs_checkpoints_whole(trained, tmp_path):
    """A 1-epoch train into an --out that holds a 2-epoch run leaves only
    its own epoch checkpoint, not the earlier run's epoch_002.json."""
    out = tmp_path / "model"
    shutil.copytree(trained["model"], out)
    assert run("train", "--out", out, "--config", trained["config"],
               "--dataset", trained["dataset"], "--hidden", 8, "--epochs", 1) == (0, [])
    assert sorted(tree(out)) == ["checkpoint.json", "checkpoints/epoch_001.json",
                                 "manifest.json", "metrics.json"]


@pytest.mark.parametrize("name", ["metrics.json", "checkpoints"])
def test_output_name_of_the_other_kind_moves_nothing(trained, tmp_path, name):
    """An output name that --out holds as the other kind of entry (a
    directory for a file, a file for a directory) is one ``io:`` line
    naming it, and every earlier file, the manifest included, keeps its
    bytes."""
    out = tmp_path / "model"
    shutil.copytree(trained["model"], out)
    if name == "metrics.json":
        (out / name).unlink()
        (out / name).mkdir()
    else:
        shutil.rmtree(out / name)
        (out / name).write_text("keep")
    before = tree(out)
    rc, lines = run("train", "--out", out, "--config", trained["config"],
                    "--dataset", trained["dataset"], "--hidden", 8, "--epochs", 1)
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("io: ") and name in lines[0], lines
    assert "manifest.json" in before and tree(out) == before
    assert (out / name).is_dir() == (name == "metrics.json")


def test_main_runs_outside_the_main_thread(tmp_path):
    """main called from a thread runs its command and publishes its files;
    the SIGTERM handler is left to the main thread."""
    result = []
    thread = threading.Thread(
        target=lambda: result.append(run("simulate", "--out", tmp_path, "--days", 2)))
    thread.start()
    thread.join()
    assert result == [(0, [])]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "demand.csv", "holidays.csv", "manifest.json", "synth_config.json", "temperature.csv"]


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_interrupted_train_one_interrupted_line_no_partial_files(trained, tmp_path, sig):
    """A train child sent ``sig`` once its first epoch checkpoint is staged
    exits 1 with one ``interrupted:`` line and leaves --out empty."""
    out = tmp_path / "out"
    argv = ["train", "--out", out, "--config", trained["config"],
            "--dataset", trained["dataset"], "--hidden", 8, "--epochs", 100_000]
    # A shell that starts the suite in the background leaves SIGINT ignored,
    # so the child puts back Python's own handler before it calls main.
    code = ("import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
            "from demandcast.cli import main; sys.exit(main())")
    child = subprocess.Popen(
        [sys.executable, "-c", code, *map(str, argv)],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not list(out.glob(".partial-*/checkpoints/epoch_001.json")):
            assert child.poll() is None and time.monotonic() < deadline, child.returncode
            time.sleep(0.01)
        child.send_signal(sig)
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    assert (child.returncode, err.splitlines()) == (1, [f"interrupted: {sig.name}"])
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
    pytest.param("ingest", "demand.csv", 3, "2022-01-01 00:15:00,99999999999999999999",
                 id="ingest-demand-overflow"),
    pytest.param("train", "dataset.csv", 3, "2022-01-01 00:15:00,-2,10.0,5,1,1",
                 id="train-dataset-demand-negative"),
    pytest.param("ingest", "temperature.csv", 3, "2022-01-01 00:15:00,nan",
                 id="ingest-temperature-nan"),
    pytest.param("ingest", "temperature.csv", 2, "0001-01-01T00:00:00+05:00,1.0",
                 id="ingest-temperature-offset-before-year-1"),
])
def test_bad_csv_one_schema_line_naming_file_line(trained, tmp_path, command, name, line, text):
    """A bad cell, a short row, an empty file, a bad holiday date, a
    temperature reading out of time order, a calendar cell out of range or a
    stamp whose offset leaves datetime's range in any CSV the pipeline reads
    exits 1 with one ``schema:`` line and no output."""
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


@pytest.mark.parametrize("flags, line", [
    (["--test", "", "--background", 0], "config: no test instances given"),
    (["--test", 0, "--background", ""], "config: background set is empty"),
], ids=["no-test", "no-background"])
def test_explain_empty_index_list_one_config_line_no_partial_files(trained, tmp_path, flags,
                                                                   line):
    out = tmp_path / "out"
    rc, lines = run("explain", "--out", out, "--checkpoint", trained["model"] / "checkpoint.json",
                    "--dataset", trained["dataset"], *flags)
    assert (rc, lines) == (1, [line])
    assert list(out.iterdir()) == []


def test_ingest_header_only_temperature_one_grid_line_no_partial_files(trained, tmp_path):
    sim = trained["root"] / "sim"
    temperature = tmp_path / "temperature.csv"
    temperature.write_text("timestamp,temp_c\n")
    out = tmp_path / "out"
    rc, lines = run("ingest", "--out", out, "--demand-grid", sim / "demand.csv",
                    "--temperature", temperature, "--holidays", sim / "holidays.csv")
    assert (rc, lines) == (1, ["grid: temperature readings are empty"])
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, name", [("ingest", "demand.csv"), ("train", "dataset.csv")])
def test_first_stamp_off_the_grid_one_grid_line_no_partial_files(trained, tmp_path, command,
                                                                 name):
    """A demand grid or dataset whose every stamp is 7 minutes past the
    15-minute grid keeps its progression but starts off the grid: one
    ``grid:`` line naming the first data line."""
    sim = trained["root"] / "sim"
    source = sim / "demand.csv" if name == "demand.csv" else trained["dataset"]
    header, *rows = source.read_text().splitlines()
    shifted = [header]
    for row in rows:
        stamp, rest = row.split(",", 1)
        shifted.append(f"{datetime.fromisoformat(stamp) + timedelta(minutes=7)},{rest}")
    bad = tmp_path / name
    bad.write_text("\n".join(shifted) + "\n")
    if command == "ingest":
        flags = ["--demand-grid", bad, "--temperature", sim / "temperature.csv",
                 "--holidays", sim / "holidays.csv"]
        kind = "demand grid CSV"
    else:
        flags = ["--config", trained["config"], "--dataset", bad, *TRAIN_FLAGS]
        kind = "dataset CSV"
    out = tmp_path / "out"
    rc, lines = run(command, "--out", out, *flags)
    assert (rc, lines) == (1, [f"grid: {kind} line 2: first timestamp 2022-01-01 00:07:00 is not "
                               "on a 15-minute boundary"])
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
