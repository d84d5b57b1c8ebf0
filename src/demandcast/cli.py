"""Command-line entry point.

Subcommands: simulate, ingest, train, predict, explain, eval, attention.
Every run takes an optional JSON config (--config) with flag overrides
winning, writes its artifacts under --out along with a manifest recording
the config hash and seed, and removes partial outputs on failure. Errors
come back as a single machine-parsable ``code: message`` line on stderr
with exit code 1.

``train`` writes the feature schema, the pipeline settings and the fitted
scaler into each checkpoint, so predict, explain and attention need only
the checkpoint file and a dataset.
"""

from __future__ import annotations

import argparse
import inspect
import json
import shutil
import sys
from dataclasses import asdict, replace
from datetime import date, datetime
from pathlib import Path
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

from . import __version__
from .errors import ConfigError, DemandcastError, SchemaError
from .features import (
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
    model_inputs,
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
from .util import FLOAT_FORMAT, config_hash, write_csv

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
            "tool": f"demandcast/{__version__}",
        },
        "created": datetime.now().isoformat(),
    }
    out.path("manifest.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_numbers(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_is_number, value))


def _is_date(value) -> bool:
    try:
        return isinstance(value, date) or bool(date.fromisoformat(value))
    except (TypeError, ValueError):
        return False


# What a config value of each parameter type must be, and its test.
_KINDS = {
    "int": ("an integer", _is_int),
    "float": ("a number", _is_number),
    "float | None": ("a number or null", lambda v: v is None or _is_number(v)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "date": ("an ISO date", _is_date),
    "tuple[float, ...]": ("a list of numbers", _is_numbers),
    "tuple[float, float]": ("two numbers", lambda v: _is_numbers(v) and len(v) == 2),
}
_PIPELINE_TYPES = {
    "lookback": "int",
    "horizon": "int",
    "window_stride": "int",
    "split_fraction": "float",
    "scale_before_split": "bool",
    "clamp_bounds": "tuple[float, float]",
}


def _check_block(doc, block: str, types: dict, source: str) -> None:
    """A ConfigError naming ``source``, ``block`` and the key unless ``doc``
    is an object whose every key is in ``types`` (key -> a ``_KINDS`` name)
    with a value of that type. Ranges are checked where values are used."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: '{block}' must be an object, got {doc!r}")
    for key, value in doc.items():
        if key not in types:
            raise ConfigError(f"{source}: {block} has no key '{key}'")
        kind, ok = _KINDS[types[key]]
        if not ok(value):
            raise ConfigError(f"{source}: {block} '{key}' must be {kind}, got {value!r}")


def _check_timezone(timezone, source: str) -> None:
    """A ConfigError naming ``source`` unless ``timezone`` is null or a zone
    key that ZoneInfo knows."""
    if timezone is not None:
        try:
            ZoneInfo(timezone)
        except (TypeError, ValueError, ZoneInfoNotFoundError):
            raise ConfigError(f"{source}: timezone must be null or a zone name that "
                              f"zoneinfo knows, got {timezone!r}") from None


def _check_pipeline(pipeline, source: str) -> dict:
    """``pipeline`` type-checked and merged over PIPELINE_DEFAULTS."""
    _check_block(pipeline, "pipeline", _PIPELINE_TYPES, source)
    return _deep_merge(PIPELINE_DEFAULTS, pipeline)


def _from_block(build, block: str, args, cfg: dict, flags=()):
    """``build(**doc)`` for the run config's ``block`` object, with each of
    ``flags`` set on ``args`` winning; every key is type-checked against
    ``build``'s parameter of that name."""
    doc = cfg[block]
    if isinstance(doc, dict):
        doc = {**doc, **{k: getattr(args, k) for k in flags if getattr(args, k) is not None}}
    types = {k: p.annotation for k, p in inspect.signature(build).parameters.items()}
    _check_block(doc, block, types, f"--config {args.config}")
    return build(**doc)


def _build_dataset(args, cfg: dict):
    """The --dataset file, split and windowed by the run config; returns
    (schema, dataset, fitted scaler)."""
    pipe = _check_pipeline(cfg["pipeline"], f"--config {args.config}")
    series = load_dataset(args.dataset, cfg.get("timezone"))
    schema = _from_block(FeatureSchema.default, "schema", args, cfg)
    dataset, scaler = build_dataset(
        series, schema, pipe["lookback"], pipe["horizon"],
        pipe["split_fraction"], pipe["scale_before_split"],
        tuple(pipe["clamp_bounds"]), pipe["window_stride"],
    )
    return schema, dataset, scaler


def _load_model(path_str: str):
    path = Path(path_str)
    params, meta = load_checkpoint(path)
    try:
        schema = FeatureSchema.from_dict(meta["schema"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"checkpoint {path} has no valid 'schema' entry ({exc!r})")
    try:
        scaler = MinMaxScaler.from_dict(meta.get("scaler"))
    except ConfigError as exc:
        raise ConfigError(f"checkpoint {path}: {exc}")
    pipeline = _check_pipeline(meta.get("pipeline", {}), f"checkpoint {path}")
    return params, meta, schema, scaler, pipeline


def _load_frozen(checkpoint: str, dataset, timezone: str | None):
    """A checkpoint's model and the windows it reads from a dataset file:
    (params, meta, schema, scaler, windows). The windows are encoded, scaled
    with the persisted scaler, clamped, and slid at stride 1 for the finest
    index granularity."""
    params, meta, schema, scaler, pipeline = _load_model(checkpoint)
    series = load_dataset(dataset, timezone)
    matrix = encode(series, schema)
    scaled = clamp_scaled(scaler, transform(scaler, matrix),
                          tuple(pipeline["clamp_bounds"]))
    windows = make_windows(scaled, pipeline["lookback"], pipeline["horizon"],
                           origin=series.origin, stride=1)
    return params, meta, schema, scaler, windows


def _predict_fn(params):
    """Batched forecasts, (B, p, n) windows to (B, m), on the model's columns."""
    def fn(windows):
        return forward_batch(model_inputs(windows, params.config), params)[0]

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
    sc = _from_block(SynthConfig, "synth", args, cfg, ("days", "start"))
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
        if not len(result.records):
            raise SchemaError("sessions CSV yielded no valid records")
        origin, n = grid_span(result.records["start"].min().item(),
                              result.records["charge_end"].max().item())
        grid = IntervalSeries(origin=origin,
                              demand=aggregate_demand(result.records, origin, n))
    else:
        raise ConfigError("ingest needs --demand-grid or --sessions")
    readings = load_temperature_csv(args.temperature, tz)
    holidays = load_holidays_csv(args.holidays)
    series = attach_calendar(join_temperature(grid, readings), holidays)
    write_dataset(out.path("dataset.csv"), series)
    write_manifest(out, "ingest", cfg, None)


_TRAIN_FLAGS = ("variant", "epochs", "batch_size", "learning_rate", "hidden", "shuffle")


def cmd_train(args, cfg: dict, out: OutputDir) -> None:
    tc = _from_block(TrainConfig, "train", args, cfg, _TRAIN_FLAGS)
    schema, dataset, scaler = _build_dataset(args, cfg)
    extra = {
        "schema": asdict(schema),
        "scaler": scaler.to_dict(),
        "seed": tc.seed,
        "variant": tc.variant,
        "pipeline": cfg["pipeline"],
    }
    ckpt_dir = out.subdir("checkpoints")
    params, report = train(dataset, tc, checkpoint_dir=ckpt_dir,
                           checkpoint_extra=extra)
    save_checkpoint(out.path("checkpoint.json"), params, extra)
    out.path("metrics.json").write_text(json.dumps(asdict(report), indent=2), encoding="utf-8")
    write_manifest(out, "train", _deep_merge(cfg, {"train": asdict(tc)}), tc.seed)


def cmd_predict(args, cfg: dict, out: OutputDir) -> None:
    params, meta, _, scaler, windows = _load_frozen(args.checkpoint, args.dataset,
                                                    cfg.get("timezone"))
    index = args.index if args.index is not None else len(windows) - 1
    if index < 0:
        index += len(windows)
    if not 0 <= index < len(windows):
        raise ConfigError(f"window index {args.index} out of range 0..{len(windows) - 1}")
    forecast = _predict_fn(params)(windows.inputs[index:index + 1])[0]
    demand = inverse_transform(scaler, forecast, column=0)
    times = format_times(windows.target_timestamps(index))
    write_csv(out.path("forecast.csv"), ("timestamp", "demand_scaled", "demand"),
              f"%s,{FLOAT_FORMAT},{FLOAT_FORMAT}", [times, forecast, demand])
    write_manifest(out, "predict", cfg, meta.get("seed"))


def cmd_explain(args, cfg: dict, out: OutputDir) -> None:
    params, meta, schema, _, windows = _load_frozen(args.checkpoint, args.dataset,
                                                    cfg.get("timezone"))
    horizon = params.config.horizon
    if args.step is not None and not 0 <= args.step < horizon:
        raise ConfigError(f"--step {args.step} out of range 0..{horizon - 1}")
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
    doc = [asdict(r) for r in reports]
    out.path("shap.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    write_manifest(out, "explain", cfg, meta.get("seed"))


def cmd_eval(args, cfg: dict, out: OutputDir) -> None:
    variants = args.variants.split(",") if args.variants else list(VARIANTS)
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant '{v}'; choose from {VARIANTS}")
    base = _from_block(TrainConfig, "train", args, cfg, _TRAIN_FLAGS)
    _, dataset, _ = _build_dataset(args, cfg)
    reports = [train(dataset, replace(base, variant=v))[1] for v in variants]
    write_csv(out.path("comparison.csv"), ("variant", "test_mse", "wall_time_s"),
              f"%s,{FLOAT_FORMAT},%.2f", [[r.variant for r in reports],
                                           [r.test_mse for r in reports],
                                           [r.wall_time_s for r in reports]])
    out.path("metrics.json").write_text(
        json.dumps([asdict(r) for r in reports], indent=2), encoding="utf-8")
    write_manifest(out, "eval", _deep_merge(cfg, {"train": asdict(base)}), base.seed)


def cmd_attention(args, cfg: dict, out: OutputDir) -> None:
    if args.limit is not None and args.limit < 1:
        raise ConfigError(f"--limit must be >= 1, got {args.limit}")
    params, meta, _, _, windows = _load_frozen(args.checkpoint, args.dataset,
                                               cfg.get("timezone"))
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

    def command(name, fn, summary, *files):
        """The subcommand ``name`` that runs ``fn``, with the flags every
        command takes and one required flag per input file of ``files``."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON run-config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the configured seed")
        for file in files:
            p.add_argument(f"--{file}", required=True)
        p.set_defaults(fn=fn)
        return p

    def train_flags(p):
        p.add_argument("--variant", choices=VARIANTS)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--learning-rate", dest="learning_rate", type=float)
        p.add_argument("--hidden", type=int)
        p.add_argument("--shuffle", action="store_const", const=True, default=None)

    p = command("simulate", cmd_simulate, "generate synthetic demand data")
    p.add_argument("--days", type=int, help="span in days (default 730)")
    p.add_argument("--start", type=date.fromisoformat, help="first day, ISO date")

    p = command("ingest", cmd_ingest, "build the interval dataset from CSVs",
                "temperature", "holidays")
    p.add_argument("--sessions", help="raw charging-sessions CSV")
    p.add_argument("--demand-grid", help="pre-aggregated demand CSV")

    train_flags(command("train", cmd_train, "fit a model on a dataset", "dataset"))

    p = command("predict", cmd_predict, "forecast one window from a checkpoint",
                "checkpoint", "dataset")
    p.add_argument("--index", type=int, help="window index (default: last)")

    p = command("explain", cmd_explain, "grouped Shapley attribution", "checkpoint", "dataset")
    p.add_argument("--test", required=True, help="test window index(es), comma-separated")
    p.add_argument("--background", required=True,
                   help="background window index(es), comma-separated")
    p.add_argument("--step", type=int, help="attribute one horizon step instead of the mean")

    p = command("eval", cmd_eval, "train and compare model variants", "dataset")
    p.add_argument("--variants", help="comma-separated subset of variants")
    train_flags(p)

    p = command("attention", cmd_attention, "hourly mean attention weights",
                "checkpoint", "dataset")
    p.add_argument("--limit", type=int, help="cap the number of windows profiled")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        _check_timezone(cfg["timezone"], f"--config {args.config}")
        if args.seed is not None:  # a block that is no object stays for its check
            cfg = _deep_merge(cfg, {b: {"seed": args.seed} for b in ("synth", "train")
                                    if isinstance(cfg[b], dict)})
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
