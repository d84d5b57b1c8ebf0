"""Command-line entry point.

Subcommands: simulate, ingest, train, predict, explain, eval, attention.
Every run takes an optional JSON config (--config) with flag overrides
winning, writes its artifacts under --out along with a manifest recording
the config hash and seed, and removes partial outputs on failure. Errors
come back as a single machine-parsable ``code: message`` line on stderr
with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import asdict
from datetime import datetime
from pathlib import Path

from . import __version__
from .errors import ConfigError, DemandcastError, SchemaError
from .features import (
    SCALER_FORMAT,
    FeatureSchema,
    MinMaxScaler,
    WindowedDataset,
    build_dataset,
    clamp_scaled,
    encode,
    inverse_transform,
    make_windows,
    transform,
)
from .ingest import (
    IntervalSeries,
    aggregate_demand,
    attach_calendar,
    format_times,
    grid_span,
    join_temperature,
    load_dataset,
    load_demand_grid,
    load_holidays_csv,
    load_temperature_csv,
    parse_sessions,
    write_dataset,
)
from .lstm_att import (
    CHECKPOINT_FORMAT,
    forward_batch,
    load_checkpoint,
    save_checkpoint,
)
from .explain import (
    default_groups,
    shapley_series,
    attention_profile,
    write_attention_csv,
    write_shap_csv,
)
from .synth import SynthConfig, export, generate, save_config
from .train import VARIANTS, TrainConfig, train
from .util import config_hash, fmt_float

PIPELINE_DEFAULTS = {
    "lookback": 96,
    "horizon": 96,
    "split_fraction": 0.8,
    "scale_before_split": False,
    "clamp_bounds": [-0.05, 1.05],
    "window_stride": 1,
}


def default_config() -> dict:
    return {
        "timezone": None,
        "schema": {"drop_first_month": False, "include_hour": False},
        "pipeline": dict(PIPELINE_DEFAULTS),
        "synth": SynthConfig().to_dict(),
        "train": asdict(TrainConfig()),
    }


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def load_run_config(path: str | None) -> dict:
    cfg = default_config()
    if path:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(user, dict):
            raise ConfigError("config file must contain a JSON object")
        cfg = _deep_merge(cfg, user)
    return cfg


class OutputDir:
    """Tracks everything a command writes so failures leave no partial files."""

    def __init__(self, path):
        self.root = Path(path)
        self.root.mkdir(parents=True, exist_ok=True)
        self._files: list[Path] = []
        self._dirs: list[Path] = []

    def path(self, name: str) -> Path:
        p = self.root / name
        self._files.append(p)
        return p

    def subdir(self, name: str) -> Path:
        d = self.root / name
        d.mkdir(exist_ok=True)
        self._dirs.append(d)
        return d

    def cleanup(self) -> None:
        for f in self._files:
            f.unlink(missing_ok=True)
        for d in self._dirs:
            shutil.rmtree(d, ignore_errors=True)


def write_manifest(out: OutputDir, command: str, cfg: dict, seed: int | None) -> None:
    doc = {
        "command": command,
        "config_hash": config_hash(cfg),
        "seed": seed,
        "formats": {
            "checkpoint": CHECKPOINT_FORMAT,
            "scaler": SCALER_FORMAT,
            "tool": f"demandcast/{__version__}",
        },
        "created": datetime.now().isoformat(),
    }
    out.path("manifest.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _schema_from_cfg(cfg: dict) -> FeatureSchema:
    return FeatureSchema.default(**cfg["schema"])


def _resolve_scaler(checkpoint_path: Path, meta: dict) -> MinMaxScaler:
    ref = meta.get("scaler")
    if not ref:
        raise ConfigError("checkpoint carries no scaler reference")
    for base in (checkpoint_path.parent, checkpoint_path.parent.parent):
        candidate = base / ref
        if candidate.exists():
            return MinMaxScaler.from_json(candidate.read_text(encoding="utf-8"))
    raise ConfigError(f"scaler file '{ref}' not found near {checkpoint_path}")


def _model_windows(series, schema: FeatureSchema, scaler: MinMaxScaler,
                   pipeline: dict):
    """Windows for a frozen model: encode, scale with the persisted scaler,
    clamp, and slide at stride 1 for the finest index granularity."""
    matrix = encode(series, schema)
    scaled = clamp_scaled(scaler, transform(scaler, matrix),
                          tuple(pipeline["clamp_bounds"]))
    return make_windows(scaled, pipeline["lookback"], pipeline["horizon"],
                        origin=series.origin, stride=1)


def _load_model(path_str: str):
    path = Path(path_str)
    params, meta = load_checkpoint(path)
    try:
        schema = FeatureSchema.from_dict(meta["schema"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"checkpoint {path} has no valid 'schema' entry ({exc!r})")
    scaler = _resolve_scaler(path, meta)
    pipeline = _deep_merge(PIPELINE_DEFAULTS, meta.get("pipeline", {}))
    return params, meta, schema, scaler, pipeline


def _predict_fn(params):
    """Batched forecasts, (B, p, n) windows to (B, m), on the model's columns."""
    n = params.config.n_features

    def fn(windows):
        return forward_batch(windows[..., :n], params)[0]

    return fn


def _parse_indices(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(args, cfg: dict, out: OutputDir) -> None:
    synth_cfg = dict(cfg["synth"])
    if args.seed is not None:
        synth_cfg["seed"] = args.seed
    if args.days is not None:
        synth_cfg["days"] = args.days
    if args.start is not None:
        synth_cfg["start"] = args.start
    sc = SynthConfig.from_dict(synth_cfg)
    series, holidays = generate(sc)
    for name in ("demand.csv", "temperature.csv", "holidays.csv"):
        out.path(name)  # track before writing
    export(series, holidays, out.root)
    save_config(out.path("synth_config.json"), sc)
    write_manifest(out, "simulate", _deep_merge(cfg, {"synth": sc.to_dict()}), sc.seed)


def cmd_ingest(args, cfg: dict, out: OutputDir) -> None:
    tz = cfg.get("timezone")
    if args.demand_grid:
        grid = load_demand_grid(args.demand_grid, tz)
    elif args.sessions:
        result = parse_sessions(args.sessions, tz)
        if result.errors:
            for err in result.errors[:10]:
                print(f"row-error line {err.line}: {err.message}", file=sys.stderr)
            print(f"({len(result.errors)} malformed rows skipped)", file=sys.stderr)
        if not result.records:
            raise SchemaError("sessions CSV yielded no valid records")
        origin, n = grid_span(min(s.start for s in result.records),
                              max(s.charge_end for s in result.records))
        grid = IntervalSeries(origin=origin,
                              demand=aggregate_demand(result.records, origin, n))
    else:
        raise ConfigError("ingest needs --demand-grid or --sessions")
    readings = load_temperature_csv(args.temperature, tz)
    holidays = load_holidays_csv(args.holidays)
    series = attach_calendar(join_temperature(grid, readings), holidays)
    write_dataset(out.path("dataset.csv"), series)
    write_manifest(out, "ingest", cfg, None)


def _train_config(args, cfg: dict) -> TrainConfig:
    doc = dict(cfg["train"])
    for key in ("variant", "epochs", "seed", "batch_size", "learning_rate",
                "hidden", "shuffle"):
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = value
    return TrainConfig(**doc)


def cmd_train(args, cfg: dict, out: OutputDir) -> None:
    series = load_dataset(args.dataset, cfg.get("timezone"))
    schema = _schema_from_cfg(cfg)
    pipe = cfg["pipeline"]
    dataset, scaler = build_dataset(
        series, schema, pipe["lookback"], pipe["horizon"],
        pipe["split_fraction"], pipe["scale_before_split"],
        tuple(pipe["clamp_bounds"]), pipe["window_stride"],
    )
    tc = _train_config(args, cfg)
    out.path("scaler.json").write_text(scaler.to_json(), encoding="utf-8")
    extra = {
        "schema": schema.to_dict(),
        "scaler": "scaler.json",
        "seed": tc.seed,
        "variant": tc.variant,
        "pipeline": pipe,
    }
    ckpt_dir = out.subdir("checkpoints")
    params, report = train(dataset, tc, checkpoint_dir=ckpt_dir,
                           checkpoint_extra=extra)
    save_checkpoint(out.path("checkpoint.json"), params, extra)
    out.path("metrics.json").write_text(
        json.dumps(report.to_dict(), indent=2), encoding="utf-8"
    )
    write_manifest(out, "train", _deep_merge(cfg, {"train": asdict(tc)}), tc.seed)


def cmd_predict(args, cfg: dict, out: OutputDir) -> None:
    params, meta, schema, scaler, pipeline = _load_model(args.checkpoint)
    series = load_dataset(args.dataset, cfg.get("timezone"))
    windows = _model_windows(series, schema, scaler, pipeline)
    index = args.index if args.index is not None else len(windows) - 1
    if index < 0:
        index += len(windows)
    if not 0 <= index < len(windows):
        raise ConfigError(f"window index {args.index} out of range 0..{len(windows) - 1}")
    forecast = _predict_fn(params)(windows.inputs[index:index + 1])[0]
    demand = inverse_transform(scaler, forecast, column=0)
    times = format_times(windows.target_timestamps(index))
    with open(out.path("forecast.csv"), "w", newline="", encoding="utf-8") as fh:
        fh.write("timestamp,demand_scaled,demand\n")
        for ts, s, d in zip(times, forecast, demand):
            fh.write(f"{ts},{fmt_float(s)},{fmt_float(d)}\n")
    write_manifest(out, "predict", cfg, meta.get("seed"))


def cmd_explain(args, cfg: dict, out: OutputDir) -> None:
    params, meta, schema, scaler, pipeline = _load_model(args.checkpoint)
    horizon = params.config.horizon
    if args.step is not None and not 0 <= args.step < horizon:
        raise ConfigError(f"--step {args.step} out of range 0..{horizon - 1}")
    series = load_dataset(args.dataset, cfg.get("timezone"))
    windows = _model_windows(series, schema, scaler, pipeline)
    tests = _parse_indices(args.test)
    backgrounds = _parse_indices(args.background)
    for i in tests + backgrounds:
        if not 0 <= i < len(windows):
            raise ConfigError(f"window index {i} out of range 0..{len(windows) - 1}")
    table, reports = shapley_series(
        _predict_fn(params),
        [(str(i), windows.inputs[i]) for i in tests],
        [windows.inputs[j] for j in backgrounds],
        default_groups(schema), step=args.step,
    )
    write_shap_csv(out.path("shap.csv"), reports)
    table.write_csv(out.path("beeswarm.csv"))
    doc = [
        {"test_id": r.test_id, "background_id": r.background_id, "phi": r.phi,
         "base_value": r.base_value, "prediction": r.prediction,
         "aggregation": r.aggregation}
        for r in reports
    ]
    out.path("shap.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    write_manifest(out, "explain", cfg, meta.get("seed"))


def cmd_eval(args, cfg: dict, out: OutputDir) -> None:
    series = load_dataset(args.dataset, cfg.get("timezone"))
    schema = _schema_from_cfg(cfg)
    pipe = cfg["pipeline"]
    dataset, _scaler = build_dataset(
        series, schema, pipe["lookback"], pipe["horizon"],
        pipe["split_fraction"], pipe["scale_before_split"],
        tuple(pipe["clamp_bounds"]), pipe["window_stride"],
    )
    variants = args.variants.split(",") if args.variants else list(VARIANTS)
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant '{v}'; choose from {VARIANTS}")
    base = _train_config(args, cfg)
    reports = []
    for v in variants:
        doc = asdict(base)
        doc["variant"] = v
        _, report = train(dataset, TrainConfig(**doc))
        reports.append(report)
    with open(out.path("comparison.csv"), "w", newline="", encoding="utf-8") as fh:
        fh.write("variant,test_mse,wall_time_s\n")
        for r in reports:
            fh.write(f"{r.variant},{fmt_float(r.test_mse)},{r.wall_time_s:.2f}\n")
    out.path("metrics.json").write_text(
        json.dumps([r.to_dict() for r in reports], indent=2), encoding="utf-8"
    )
    write_manifest(out, "eval", _deep_merge(cfg, {"train": asdict(base)}), base.seed)


def cmd_attention(args, cfg: dict, out: OutputDir) -> None:
    if args.limit is not None and args.limit < 1:
        raise ConfigError(f"--limit must be >= 1, got {args.limit}")
    params, meta, schema, scaler, pipeline = _load_model(args.checkpoint)
    series = load_dataset(args.dataset, cfg.get("timezone"))
    windows = _model_windows(series, schema, scaler, pipeline)
    if args.limit is not None and args.limit < len(windows):
        step = max(1, len(windows) // args.limit)
        keep = list(range(0, len(windows), step))[:args.limit]
        windows = WindowedDataset(windows.inputs[keep], windows.targets[keep],
                                  windows.origins[keep], windows.lookback, windows.horizon)
    profile = attention_profile(params, windows)
    write_attention_csv(out.path("attention.csv"), profile)
    write_manifest(out, "attention", cfg, meta.get("seed"))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demandcast",
        description="EV charging demand forecasting with an attention LSTM "
                    "and exact grouped Shapley explanations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run-config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the configured seed")

    p = sub.add_parser("simulate", help="generate synthetic demand data")
    common(p)
    p.add_argument("--days", type=int, help="span in days (default 730)")
    p.add_argument("--start", help="first day, ISO date")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("ingest", help="build the interval dataset from CSVs")
    common(p)
    p.add_argument("--sessions", help="raw charging-sessions CSV")
    p.add_argument("--demand-grid", help="pre-aggregated demand CSV")
    p.add_argument("--temperature", required=True)
    p.add_argument("--holidays", required=True)
    p.set_defaults(fn=cmd_ingest)

    def train_flags(p):
        p.add_argument("--variant", choices=VARIANTS)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--learning-rate", dest="learning_rate", type=float)
        p.add_argument("--hidden", type=int)
        p.add_argument("--shuffle", action="store_const", const=True, default=None)

    p = sub.add_parser("train", help="fit a model on a dataset")
    common(p)
    p.add_argument("--dataset", required=True)
    train_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="forecast one window from a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--index", type=int, help="window index (default: last)")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("explain", help="grouped Shapley attribution")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--test", required=True, help="test window index(es), comma-separated")
    p.add_argument("--background", required=True,
                   help="background window index(es), comma-separated")
    p.add_argument("--step", type=int, help="attribute one horizon step instead of the mean")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("eval", help="train and compare model variants")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--variants", help="comma-separated subset of variants")
    train_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("attention", help="hourly mean attention weights")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--limit", type=int, help="cap the number of windows profiled")
    p.set_defaults(fn=cmd_attention)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        if args.seed is not None:
            cfg = _deep_merge(cfg, {"synth": {"seed": args.seed},
                                    "train": {"seed": args.seed}})
        out = OutputDir(args.out)
    except DemandcastError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    try:
        args.fn(args, cfg, out)
        return 0
    except DemandcastError as exc:
        out.cleanup()
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        out.cleanup()
        print(f"io: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        out.cleanup()
        print(f"internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
