"""End-to-end test of the command line on a small synthetic dataset: every
subcommand through ``cli.main``, the checkpoint it writes, and how a bad
checkpoint or a bad CSV is reported."""

import contextlib
import csv
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from demandcast import cli
from demandcast.errors import ConfigError
from demandcast.explain import default_groups, shapley
from demandcast.ingest import load_dataset
from demandcast.lstm_att import load_checkpoint, save_checkpoint
from helpers import predict

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


def test_predict_from_checkpoint_equals_in_memory_params(trained):
    root, ckpt = trained["root"], trained["model"] / "checkpoint.json"
    assert run("predict", "--out", root / "predict_bits", "--checkpoint", ckpt,
               "--dataset", trained["dataset"])[0] == 0
    with open(root / "predict_bits" / "forecast.csv", newline="") as fh:
        from_cli = np.array([float(r["demand_scaled"]) for r in csv.DictReader(fh)])

    params = trained["params"]
    loaded, _, schema, scaler, pipeline = cli._load_model(str(ckpt))
    for a, b in zip(params.tensors(), loaded.tensors()):
        assert a.name == b.name and np.array_equal(a.value, b.value)
    windows = cli._model_windows(load_dataset(trained["dataset"]), schema, scaler, pipeline)
    assert np.array_equal(from_cli, predict(windows.inputs[-1], params))


def test_explain_one_pair_equals_shapley(trained, tmp_path):
    ckpt, dataset = trained["model"] / "checkpoint.json", trained["dataset"]
    assert run("explain", "--out", tmp_path, "--checkpoint", ckpt, "--dataset", dataset,
               "--test", 100, "--background", 0) == (0, [])
    [doc] = json.loads((tmp_path / "shap.json").read_text())
    params, _, schema, scaler, pipeline = cli._load_model(str(ckpt))
    windows = cli._model_windows(load_dataset(dataset), schema, scaler, pipeline)
    want = shapley(cli._predict_fn(params), windows.inputs[100], windows.inputs[0],
                   default_groups(schema))
    assert doc["background_id"] == "mean[1]"
    assert doc["phi"].keys() == want.phi.keys()
    for name, phi in want.phi.items():
        assert abs(doc["phi"][name] - phi) <= 1e-12


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


@pytest.mark.parametrize("key", ["schema", "scaler"])
def test_load_model_missing_metadata_is_config_error(trained, tmp_path, key):
    params, meta = load_checkpoint(trained["model"] / "checkpoint.json")
    del meta[key]
    shutil.copy(trained["model"] / "scaler.json", tmp_path / "scaler.json")
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, params, meta)
    with pytest.raises(ConfigError):
        cli._load_model(str(ckpt))


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
