"""The benchmark workloads: their set-up, their timed passes, and the
checks on every output.

One closed-loop caller issues the commands of a pass back to back, each
through ``demandcast.cli.main(argv)`` in this process; the ``data`` pass
also calls the dataset and checkpoint functions that every ``train`` and
``predict`` pays for. Each pass has three timed steps, reported as
``step1_s``, ``step2_s`` and ``step3_s``; README.md maps each step to its
operations.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import re
import shutil
import time
from pathlib import Path

import numpy as np

from demandcast import cli, features, ingest, lstm_att
# Bound here, before any tracing: the checks' own forwards stay out of the spans.
from demandcast.lstm_att import forward_batch
from demandcast.synth import SynthConfig
from demandcast.train import TrainConfig, build_model

import sessions

DAYS = SynthConfig().days
START = SynthConfig().start
ROWS = DAYS * 96
LOOKBACK = HORIZON = 96
N_WINDOWS = ROWS - LOOKBACK - HORIZON + 1
N_FEATURES = 22
PARAMETERS = 930_625

FIT_STRIDE = 128          # thins train and eval windows to about 1/128
SETUP_CKPT_STRIDE = 2048  # the inspect set-up checkpoint: one batch
PREDICT_SERIES = 4        # predict cycles through this many fixed windows
EXPLAIN_TESTS = 3         # explain cycles through these, one test per pass
EXPLAIN_BACKGROUNDS = 10
ATTENTION_LIMIT = 512
EVAL_VARIANTS = ("multivariate_lstm", "univariate_lstm_att")

# An output may differ from the value stored for its seed in
# reference.json by this share of the largest magnitude it is compared
# with. Reassociating a gate sum (forward outputs moved by about 5e-16
# relative) left test_mse unchanged to the last digit; flipping the sign of
# the forget-gate BPTT term moved it by about 1e-2.
REFERENCE_RTOL = 1e-6
# An inspect output may differ from the benchmark's own recomputation
# (batched forwards of the same checkpoint, see Inspect) by this much, in
# scaled units; a reordered float sum moves it by about 1e-16.
RECOMPUTE_TOL = 1e-9
EFFICIENCY_TOL = 1e-9
PROFILE_TOL = 1e-9

REFERENCE_FILE = Path(__file__).with_name("reference.json")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_close(got, want, tol: float, what: str) -> None:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    _check(got.shape == want.shape, f"{what}: shape {got.shape}, want {want.shape}")
    err = float(np.max(np.abs(got - want), initial=0.0))
    _check(err <= tol, f"{what}: differs by {err:.3g} (tolerance {tol:.3g})")


def _check_reference(got, want, what: str) -> None:
    """``got`` equals the stored ``want`` within REFERENCE_RTOL of its
    largest magnitude."""
    scale = float(np.max(np.abs(np.asarray(want, dtype=np.float64))))
    _check_close(got, want, REFERENCE_RTOL * scale, f"{what} vs reference.json")


def run_cli(argv: list[str]) -> str:
    """Run one command in-process; return its stderr or raise CheckFailed."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"exit {rc}: {err.getvalue().strip()[:300]}")
    return err.getvalue()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def read_columns(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [r for r in rows[1:] if r]
    return header, [list(col) for col in zip(*body)]


# Machine-speed calibration. On a shared machine the speed of the whole
# process drifts by 20 % and more over tens of seconds. A fixed kernel of
# Python, small-matrix, fresh-memory and JSON work is timed before and after
# every operation, and the operation's wall time is scaled by
# CALIBRATION_REF_S over the kernel's time: seconds at a reference speed.
# Program changes do not touch the kernel, so they still show in full.
CALIBRATION_REF_S = 0.02
_rng = np.random.default_rng(0)
_A = _rng.random((96, 96))
_B = _rng.random((32, 96))
_SRC = _rng.random(1_000_000)
_VALUES = _rng.random(5000).tolist()


def _kernel_s() -> float:
    t0 = time.perf_counter()
    h = np.zeros((32, 96))
    for _ in range(60):
        h = np.tanh(_B @ _A + 0.5 * h)
    counts: dict[int, int] = {}
    for i in range(30000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    fresh = np.ones(2_000_000)
    fresh += _SRC.sum()
    json.loads(json.dumps(_VALUES))
    return time.perf_counter() - t0


def calibration_s() -> float:
    """Median of three timings of the calibration kernel."""
    return sorted(_kernel_s() for _ in range(3))[1]


def timed(fn):
    """Run ``fn``; return (result, wall seconds, seconds at reference speed)."""
    before = calibration_s()
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    after = calibration_s()
    return result, elapsed, elapsed * CALIBRATION_REF_S * 2 / (before + after)


class Recorder:
    """Timings, failures and output values of one benchmark run.

    A step metric takes one sample per pass: the summed time, at reference
    speed, of the operations the pass assigns to it. ``ops`` keeps each
    operation's own times at reference speed under its label, ``wall`` its
    wall times.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.ops: dict[str, list[float]] = {}
        self.wall: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict[str, list] = {}
        self.pass_bytes: list[int] = []
        self.checkpoint_bytes: list[int] = []
        self.unreferenced: list[str] = []  # outputs with no stored value to compare
        self.tracer = None  # set while spans are recorded
        self.coverage: list[tuple[str, float, float]] = []
        self._pass: dict[str, float | None] = {}

    def step(self, metric: str, label: str, fn, check=None):
        """Time ``fn()``; then check its output. A non-zero exit, an
        exception or a failed check counts as one failed operation, and
        drops the pass's sample of ``metric``."""
        self.attempted += 1
        covered0 = self.tracer.top_level_s if self.tracer else 0.0
        try:
            result, elapsed, scaled = timed(fn)
            if self.tracer:
                self.coverage.append(
                    (label, elapsed, self.tracer.top_level_s - covered0))
            if check is not None:
                check(result)
        except Exception as exc:  # recorded as a failed operation
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            self._pass[metric] = None
            return
        self.wall.setdefault(label, []).append(elapsed)
        self.ops.setdefault(label, []).append(scaled)
        if metric in self._pass:
            if self._pass[metric] is not None:
                self._pass[metric] += scaled
        else:
            self._pass[metric] = scaled

    def end_pass(self, out: Path) -> None:
        """Close a pass: keep its samples and output size, delete its files."""
        for metric, total in self._pass.items():
            if total is not None:
                self.samples.setdefault(metric, []).append(total)
        self._pass = {}
        self.pass_bytes.append(tree_bytes(out))
        shutil.rmtree(out)

    def keep(self, key: str, value) -> None:
        self.outputs.setdefault(key, []).append(value)


# ---------------------------------------------------------------------------
# shared set-up pieces
# ---------------------------------------------------------------------------

def simulate(out: Path, seed: int) -> Path:
    run_cli(["simulate", "--out", str(out), "--seed", str(seed)])
    return out


def ingest_grid(out: Path, sim: Path) -> str:
    return run_cli(["ingest", "--out", str(out),
                    "--demand-grid", str(sim / "demand.csv"),
                    "--temperature", str(sim / "temperature.csv"),
                    "--holidays", str(sim / "holidays.csv")])


def write_config(path: Path, stride: int) -> Path:
    path.write_text(json.dumps({"pipeline": {"window_stride": stride},
                                "train": {"epochs": 1}}), encoding="utf-8")
    return path


def prepare_dataset(work: Path, seed: int) -> Path:
    simulate(work / "sim", seed)
    ingest_grid(work / "data", work / "sim")
    return work / "data" / "dataset.csv"


def stored_reference(workload: str, seed: int) -> dict | None:
    """The outputs stored for this workload and seed, or None."""
    table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return table[workload].get(str(seed))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    # The operations behind step1_s, step2_s and step3_s.
    steps: tuple[str, str, str] = ("", "", "")
    # Per-operation names printed beside the metrics: each is the sum of
    # the medians of the labelled operations.
    named: dict[str, tuple[str, ...]] = {}

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work between the set-ups and the first timed pass."""

    def run_pass(self, rec: Recorder, k: int) -> None:
        raise NotImplementedError


class Fit(Workload):
    """train, then eval on two variants, all thinned by window_stride."""

    name = "fit"
    steps = ("train multivariate_lstm_att", "eval multivariate_lstm",
             "eval univariate_lstm_att")
    named = {"train_s": ("train",),
             "eval_s": ("eval multivariate_lstm", "eval univariate_lstm_att")}

    def setup(self):
        self.dataset = prepare_dataset(self.work, self.seed)
        self.config = write_config(self.work / "fit.json", FIT_STRIDE)
        self.reference = stored_reference("fit", self.seed)

    def _check_mse(self, rec: Recorder, variant: str, metrics_path: Path):
        doc = json.loads(metrics_path.read_text(encoding="utf-8"))
        report = doc[0] if isinstance(doc, list) else doc
        _check(report["variant"] == variant, f"report is for {report['variant']}")
        mse = report["test_mse"]
        rec.keep(f"test_mse.{variant}", mse)
        _check(math.isfinite(mse) and 0.0 < mse < 1.0, f"test_mse {mse} out of range")
        if self.reference is None:
            rec.unreferenced.append(f"test_mse {variant}: range check only")
        else:
            _check_reference(mse, self.reference[variant], f"test_mse {variant}")

    def run_pass(self, rec, k):
        out = self.work / f"pass{k}"
        common = ["--dataset", str(self.dataset), "--config", str(self.config),
                  "--seed", str(self.seed)]

        def after_train(_):
            ckpt = out / "train" / "checkpoint.json"
            _check((out / "train" / "checkpoints" / "epoch_001.json").is_file(),
                   "no per-epoch checkpoint")
            rec.checkpoint_bytes.append(ckpt.stat().st_size)
            self._check_mse(rec, "multivariate_lstm_att", out / "train" / "metrics.json")

        rec.step("step1_s", "train",
                 lambda: run_cli(["train", "--out", str(out / "train")] + common),
                 after_train)
        for metric, variant in zip(("step2_s", "step3_s"), EVAL_VARIANTS):
            rec.step(metric, f"eval {variant}",
                     lambda v=variant: run_cli(["eval", "--out", str(out / v),
                                                "--variants", v] + common),
                     lambda _, v=variant: self._check_mse(rec, v, out / v / "metrics.json"))
        rec.end_pass(out)


class Inspect(Workload):
    """predict, explain and attention against the full 730-day dataset.

    The output checks recompute each output from the same checkpoint with
    the benchmark's own windows, masks, averaging and hour bins, through
    batched ``forward_batch`` calls, and compare the result with the
    values stored in reference.json for the seed.
    """

    name = "inspect"
    steps = ("predict", "explain", "attention")
    named = {"predict_s_p50": ("predict",), "explain_s": ("explain",),
             "attention_s": ("attention",)}

    def setup(self):
        self.dataset = prepare_dataset(self.work, self.seed)
        config = write_config(self.work / "coarse.json", SETUP_CKPT_STRIDE)
        run_cli(["train", "--out", str(self.work / "model"), "--dataset",
                 str(self.dataset), "--config", str(config),
                 "--seed", str(self.seed)])
        self.checkpoint = self.work / "model" / "checkpoint.json"
        rng = np.random.default_rng([self.seed, 11])
        picks = [int(i) for i in rng.choice(
            N_WINDOWS, PREDICT_SERIES + EXPLAIN_TESTS + EXPLAIN_BACKGROUNDS,
            replace=False)]
        self.predict_at = picks[:PREDICT_SERIES]
        self.tests = picks[PREDICT_SERIES:PREDICT_SERIES + EXPLAIN_TESTS]
        self.backgrounds = picks[PREDICT_SERIES + EXPLAIN_TESTS:]
        self.reference = stored_reference("inspect", self.seed)

    def _model(self) -> list[str]:
        return ["--checkpoint", str(self.checkpoint), "--dataset", str(self.dataset)]

    def warm_up(self):
        """The first 1.2 GB window array a process touches costs about 2x
        the later ones on a virtual machine; pay that before timing. Then
        load what the output checks recompute from."""
        out = self.work / "warm_up"
        run_cli(["predict", "--out", str(out), "--index", str(self.predict_at[0])]
                + self._model())
        shutil.rmtree(out)
        params, _, schema, scaler, pipeline = cli._load_model(str(self.checkpoint))
        series = ingest.load_dataset(self.dataset)
        scaled = features.clamp_scaled(
            scaler, features.transform(scaler, features.encode(series, schema)),
            tuple(pipeline["clamp_bounds"]))
        self.params = params
        self.scaled = scaled[:, :params.config.n_features]
        self.groups = schema.group_columns()
        self.demand_range = next((c.min, c.max) for c in scaler.columns if c.index == 0)
        self.first_quarter_hour = (series.origin.hour * 60 + series.origin.minute) // 15

    def _window(self, i: int) -> np.ndarray:
        return self.scaled[i:i + LOOKBACK]

    def run_pass(self, rec, k):
        out = self.work / f"pass{k}"
        model = self._model()
        index = self.predict_at[k % PREDICT_SERIES]
        rec.step("step1_s", "predict",
                 lambda: run_cli(["predict", "--out", str(out / "predict"),
                                  "--index", str(index)] + model),
                 lambda _: self._check_forecast(rec, out / "predict" / "forecast.csv", index))
        test = self.tests[k % EXPLAIN_TESTS]
        rec.step("step2_s", "explain",
                 lambda: run_cli(["explain", "--out", str(out / "explain"),
                                  "--test", str(test),
                                  "--background", ",".join(map(str, self.backgrounds))]
                                 + model),
                 lambda _: self._check_explain(rec, out / "explain" / "shap.json", test))
        rec.step("step3_s", "attention",
                 lambda: run_cli(["attention", "--out", str(out / "attention"),
                                  "--limit", str(ATTENTION_LIMIT)] + model),
                 lambda _: self._check_profile(rec, out / "attention" / "attention.csv"))
        rec.end_pass(out)

    def _compare(self, rec, key: str, got, tests: str) -> None:
        if self.reference is None:
            rec.unreferenced.append(f"{key}: {tests} only")
        else:
            _check_reference(got, self.reference[key], key)

    def _check_forecast(self, rec, path, index):
        header, cols = read_columns(path)
        _check(header == ["timestamp", "demand_scaled", "demand"], f"header {header}")
        values = np.array([cols[1], cols[2]], dtype=np.float64)
        _check(values.shape[1] == HORIZON, f"{values.shape[1]} forecast rows")
        _check(bool(np.all(np.isfinite(values)) and np.all(values >= 0.0)),
               "forecast has a negative or non-finite value")
        want = forward_batch(self._window(index)[None], self.params)[0][0]
        _check_close(values[0], want, RECOMPUTE_TOL, f"forecast of window {index}")
        lo, hi = self.demand_range
        _check_close(values[1], want * (hi - lo) + lo, RECOMPUTE_TOL * max(hi, 1.0),
                     f"unscaled forecast of window {index}")
        rec.keep("forecast", {"index": index, "demand_scaled": values[0].tolist()})
        self._compare(rec, f"forecast.{index}", values[0], "recomputation")

    def expected_shapley(self, test: int) -> dict:
        """Exact grouped Shapley values of ``test`` against the background
        expectation, by the permutation definition: the mean over all k!
        group orders of each group's marginal contribution."""
        names = list(self.groups)
        k = len(names)
        bits_of_column = np.zeros(self.scaled.shape[1], dtype=np.int64)
        for j, name in enumerate(names):
            bits_of_column[list(self.groups[name])] = 1 << j
        coalitions = np.arange(1 << k)
        from_test = (coalitions[:, None] & bits_of_column[None, :]) != 0  # (2^k, n)
        x = self._window(test)
        bgs = np.stack([self._window(b) for b in self.backgrounds])
        masked = np.where(from_test[:, None, None, :], x, bgs[None])  # (2^k, nb, p, n)
        out = forward_batch(masked.reshape(-1, *x.shape), self.params)[0]
        value = out.mean(axis=1).reshape(1 << k, len(bgs)).mean(axis=1)
        phi = np.zeros(k)
        orders = list(itertools.permutations(range(k)))
        for order in orders:
            held = 0
            for j in order:
                phi[j] += value[held | 1 << j] - value[held]
                held |= 1 << j
        return {"phi": dict(zip(names, (phi / len(orders)).tolist())),
                "base_value": float(value[0]), "prediction": float(value[-1])}

    def _check_explain(self, rec, path, test):
        reports = json.loads(path.read_text(encoding="utf-8"))
        _check(len(reports) == 1, f"{len(reports)} explain reports")
        r = reports[0]
        _check(r["test_id"] == str(test), f"report is for test {r['test_id']}")
        residual = abs(sum(r["phi"].values()) - (r["prediction"] - r["base_value"]))
        _check(residual <= EFFICIENCY_TOL,
               f"test {test}: |sum(phi) - (f(x) - base)| = {residual:.3g}")
        want = self.expected_shapley(test)
        _check(list(r["phi"]) == list(want["phi"]), f"phi groups {list(r['phi'])}")

        def flat(doc):
            return [doc["base_value"], doc["prediction"], *doc["phi"].values()]

        _check_close(flat(r), flat(want), RECOMPUTE_TOL, f"explain of window {test}")
        rec.keep("explain", {"test": test, "phi": r["phi"],
                             "base_value": r["base_value"], "prediction": r["prediction"]})
        self._compare(rec, f"explain.{test}", flat(r), "recomputation")

    def expected_profile(self) -> np.ndarray:
        """Mean attention weight per hour of day over the windows that
        ``attention --limit`` keeps (evenly spaced, stride-1 origins)."""
        step = max(1, N_WINDOWS // ATTENTION_LIMIT)
        keep = np.arange(0, N_WINDOWS, step)[:ATTENTION_LIMIT]
        buckets = np.zeros(24)
        for chunk in np.array_split(keep, math.ceil(len(keep) / 256)):
            _, trace = forward_batch(np.stack([self._window(i) for i in chunk]),
                                     self.params)
            quarter = self.first_quarter_hour + chunk[None, :] + np.arange(LOOKBACK)[:, None]
            np.add.at(buckets, (quarter // 4) % 24, trace.weights)
        return buckets / len(keep)

    def _check_profile(self, rec, path):
        header, cols = read_columns(path)
        profile = np.array(cols[1], dtype=np.float64)
        _check(len(profile) == 24, f"{len(profile)} hourly bins")
        _check(bool(np.all(profile >= 0.0)), "negative attention mass")
        _check(abs(profile.sum() - 1.0) <= PROFILE_TOL,
               f"attention profile sums to {profile.sum()!r}")
        _check_close(profile, self.expected_profile(), RECOMPUTE_TOL, "attention profile")
        rec.keep("attention_profile", profile.tolist())
        self._compare(rec, "attention_profile", profile, "recomputation")


class Data(Workload):
    """CSV and checkpoint input and output; no model maths."""

    name = "data"
    steps = ("simulate, ingest --demand-grid",
             "ingest --sessions, load_dataset + build_dataset",
             "save_checkpoint, load_checkpoint")
    named = {"simulate_s": ("simulate",),
             "ingest_grid_s": ("ingest --demand-grid",),
             "ingest_sessions_s": ("ingest --sessions",),
             "dataset_build_s": ("load_dataset + build_dataset",),
             "checkpoint_save_s": ("save_checkpoint",),
             "checkpoint_load_s": ("load_checkpoint",)}

    def setup(self):
        self.sessions_csv = self.work / "sessions.csv"
        self.begin, self.end, self.malformed = sessions.write_sessions(
            self.sessions_csv, self.seed, START, DAYS)
        self.params = build_model(N_FEATURES, LOOKBACK, HORIZON, TrainConfig(seed=self.seed))
        count = sum(t.value.size for t in self.params.tensors())
        _check(count == PARAMETERS, f"model has {count} parameters")
        self.extra = {"seed": self.seed, "variant": "multivariate_lstm_att"}

    def run_pass(self, rec, k):
        out = self.work / f"pass{k}"
        sim = out / "sim"
        grid = out / "grid" / "dataset.csv"
        ckpt = out / "checkpoint.json"
        rec.step("step1_s", "simulate", lambda: simulate(sim, self.seed),
                 lambda _: self._check_simulated(sim))
        rec.step("step1_s", "ingest --demand-grid", lambda: ingest_grid(out / "grid", sim),
                 lambda _: self._check_grid(rec, sim, grid))
        rec.step("step2_s", "ingest --sessions",
                 lambda: run_cli(["ingest", "--out", str(out / "sessions"),
                                  "--sessions", str(self.sessions_csv),
                                  "--temperature", str(sim / "temperature.csv"),
                                  "--holidays", str(sim / "holidays.csv")]),
                 lambda stderr: self._check_sessions(stderr, out / "sessions" / "dataset.csv"))
        schema = features.FeatureSchema.default()
        rec.step("step2_s", "load_dataset + build_dataset",
                 lambda: features.build_dataset(ingest.load_dataset(grid), schema,
                                                LOOKBACK, HORIZON),
                 self._check_dataset)
        rec.step("step3_s", "save_checkpoint",
                 lambda: lstm_att.save_checkpoint(ckpt, self.params, self.extra),
                 lambda _: rec.checkpoint_bytes.append(ckpt.stat().st_size))
        rec.step("step3_s", "load_checkpoint", lambda: lstm_att.load_checkpoint(ckpt),
                 self._check_round_trip)
        rec.end_pass(out)

    @staticmethod
    def _check_simulated(sim):
        header, cols = read_columns(sim / "demand.csv")
        _check(len(cols[0]) == ROWS, f"{len(cols[0])} simulated rows, want {ROWS}")

    @staticmethod
    def _check_grid(rec, sim, dataset):
        """The ingested dataset equals the simulated series; its calendar
        columns equal an independent derivation from the timestamps."""
        _, (d_ts, d_demand) = read_columns(sim / "demand.csv")
        _, (t_ts, t_temp) = read_columns(sim / "temperature.csv")
        holidays = np.array([line.strip() for line in
                             (sim / "holidays.csv").read_text().splitlines()
                             if line.strip()], dtype="datetime64[D]")
        header, cols = read_columns(dataset)
        _check(header == ingest.DATASET_COLUMNS, f"dataset header {header}")
        ts, demand, temp, weekday, month, holiday = cols
        _check(ts == d_ts == t_ts, "dataset timestamps differ from the simulated grid")
        _check(demand == d_demand, "dataset demand differs from the simulated grid")
        _check(np.array_equal(np.array(temp, dtype=np.float64),
                              np.array(t_temp, dtype=np.float64)),
               "dataset temperature differs from the simulated readings")
        stamps = np.array(ts, dtype="datetime64[m]")
        days = stamps.astype("datetime64[D]")
        want_weekday = (days.astype(np.int64) + 3) % 7  # 1970-01-01 was a Thursday
        want_month = days.astype("datetime64[M]").astype(np.int64) % 12 + 1
        want_holiday = np.isin(days, holidays).astype(np.int64)
        _check(np.array_equal(np.array(weekday, dtype=np.int64), want_weekday), "weekday column")
        _check(np.array_equal(np.array(month, dtype=np.int64), want_month), "month column")
        _check(np.array_equal(np.array(holiday, dtype=np.int64), want_holiday), "holiday column")
        rec.keep("demand_sum", int(np.array(demand, dtype=np.int64).sum()))

    def _check_sessions(self, stderr: str, dataset: Path):
        """The sessions grid equals a difference-array count of the
        sessions the benchmark wrote; malformed rows are reported."""
        skipped = re.findall(r"\((\d+) malformed rows skipped\)", stderr)
        _check(skipped == [str(self.malformed)],
               f"reported {skipped} malformed rows, wrote {self.malformed}")
        _check(stderr.count("row-error line ") == min(10, self.malformed),
               "row-error lines missing")
        origin, counts = sessions.expected_grid(self.begin, self.end, START)
        header, cols = read_columns(dataset)
        _check(cols[0][0] == origin.isoformat(sep=" "),
               f"grid starts {cols[0][0]}, sessions start {origin}")
        _check(np.array_equal(np.array(cols[1], dtype=np.int64), counts),
               "sessions grid differs from the independent count")

    @staticmethod
    def _check_dataset(result):
        split, _scaler = result
        n = len(split.train) + len(split.test)
        _check(n == N_WINDOWS, f"{n} windows, want {N_WINDOWS}")
        _check(split.train.inputs.shape[1:] == (LOOKBACK, N_FEATURES),
               f"window shape {split.train.inputs.shape}")
        _check(bool(np.isfinite(split.test.inputs[-1]).all()), "non-finite window")

    def _check_round_trip(self, result):
        params, meta = result
        _check(params.config == self.params.config, "config changed in the round trip")
        for a, b in zip(params.tensors(), self.params.tensors()):
            _check(a.name == b.name and a.value.dtype == b.value.dtype
                   and np.array_equal(a.value, b.value),
                   f"parameter {b.name} is not bit-exact after the round trip")
        _check(meta == self.extra, f"metadata changed: {meta}")


WORKLOADS = {w.name: w for w in (Fit, Inspect, Data)}
