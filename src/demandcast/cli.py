"""Command-line entry point.

Subcommands: simulate, ingest, train, predict, explain, eval, attention.
``eval`` runs a job list, one checked ``TrainConfig`` per ``--variants``
entry (all four by default), on one split dataset; ``train`` is its one-job
case. Every run takes an optional JSON config (--config) with flag overrides
winning. A command writes into ``--out/.partial-*``; only when it succeeds
is each of its outputs moved into --out, replacing its namesake whole
(``checkpoints/`` too), after removing an earlier manifest and before
writing a manifest of the config hash, the seed and the checkpoint format,
so a manifest marks a complete run. An output whose name --out holds as the
other kind of entry (a directory for a file, or the reverse) is an ``io:``
error that has removed only the earlier manifest. A command that fails or is
interrupted leaves --out as it was (a SIGKILLed run can leave a
``.partial-*`` directory, safe to delete). Errors come back as one
``code: message`` line on stderr with exit code 1: ``io:`` for a path that
is missing, unreadable or a directory, ``memory:`` for an allocation the
machine refuses, ``interrupted: SIGINT`` or ``SIGTERM``. ``main`` can be
called from any thread; it catches SIGTERM only on the main thread.

``train`` writes ``checkpoint.json`` and one ``checkpoints/epoch_NNN.json``
per epoch, moved into --out at the end. Despite the name, each is a
``demandcast/checkpoint-v4`` file (see ``lstm_att``): one JSON header line,
then the raw float32 parameters (v3 files, with float64 ones, still load).
The header carries the run config's ``schema`` block (the two flags of
``FeatureSchema.default``), the ``clamp_bounds`` of its ``pipeline`` block
and the fitted scaler, so predict, explain and attention need only the
checkpoint file and a dataset; no other pipeline key is kept. These commands
slide the model's own lookback and horizon: predict and explain encode and
scale only their windows' rows (a negative window index counts from the
end), attention every row.

Every command that reads a dataset file parses each content once. The
parsed columns are kept in ``$XDG_CACHE_HOME/demandcast/`` (by default
``~/.cache/demandcast/``; nothing is kept without a home directory), keyed
by the SHA-256 of the cache format, the dataset reader's source, the
timezone and the file's bytes, so an edited file, reader or timezone is
parsed again. An entry takes about 19 bytes a row (1.3 MB for 730 days).
Nothing is evicted; the directory can be deleted at any time.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import signal
import sys
import tempfile
import threading
from dataclasses import asdict
from datetime import date, datetime
from pathlib import Path
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np

from . import __version__
from .errors import ConfigError, DemandcastError, SchemaError
from .features import (
    FeatureSchema,
    MinMaxScaler,
    Pipeline,
    WindowedDataset,
    build_dataset,
    clamp_scaled,
    encode,
    inverse_transform,
    make_windows,
    transform,
    window_count,
)
from .ingest import (
    IntervalSeries,
    aggregate_demand,
    attach_calendar,
    grid_span,
    join_temperature,
    load_dataset,
    load_demand_grid,
    load_holidays_csv,
    load_temperature_csv,
    parse_sessions,
    time_text,
    write_dataset,
)
from .lstm_att import CHECKPOINT_FORMAT, forecast, load_checkpoint, save_checkpoint
from .explain import (
    shapley_series,
    attention_profile,
    write_attention_csv,
    write_beeswarm_csv,
    write_shap_csv,
)
from .synth import SynthConfig, export, generate, save_config
from .train import VARIANTS, TrainConfig, train
from .util import FLOAT_FORMAT, config_hash, write_csv

def default_config() -> dict:
    return {
        "timezone": None,
        "schema": {"drop_first_month": False, "include_hour": False},
        "pipeline": asdict(Pipeline()),
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
            user = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text "
                              f"(byte 0x{exc.object[exc.start]:02x})") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(user, dict):
            raise ConfigError(f"config file {path} must contain a JSON object")
        cfg = _deep_merge(cfg, user)
    return cfg


def write_manifest(out: Path, command: str, cfg: dict, seed: int | None) -> None:
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
    (out / "manifest.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")


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
def _check_timezone(timezone, source: str) -> None:
    """A ConfigError naming ``source`` unless ``timezone`` is null or a zone
    key that ZoneInfo knows."""
    if timezone is not None:
        try:
            ZoneInfo(timezone)
        except (TypeError, ValueError, ZoneInfoNotFoundError):
            raise ConfigError(f"{source}: timezone must be null or a zone name that "
                              f"zoneinfo knows, got {timezone!r}") from None


def _build(build, doc, block: str, source: str):
    """``build(**doc)`` once ``doc`` is an object whose every key names a
    parameter of ``build`` and holds a value of its type (a ``_KINDS``
    name). Otherwise a ConfigError naming ``source``, ``block`` and the key;
    a ConfigError that ``build`` raises on a range gets ``source`` in front."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: '{block}' must be an object, got {doc!r}")
    params = inspect.signature(build).parameters
    for key, value in doc.items():
        if key not in params:
            raise ConfigError(f"{source}: {block} has no key '{key}'")
        kind, ok = _KINDS[params[key].annotation]
        if not ok(value):
            raise ConfigError(f"{source}: {block} '{key}' must be {kind}, got {value!r}")
    try:
        return build(**doc)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _config_source(args, flags: str = "") -> str:
    """How an error names the run config's file, if any, and the ``flags`` at fault."""
    return f"--config {args.config} {flags}".rstrip() if args.config else flags or "flags"


def _from_block(build, block: str, args, cfg: dict, flags=()):
    """``_build`` of the run config's ``block`` object, with each of
    ``flags`` set on ``args`` winning. An error that goes away without a
    flag's value names that flag after the run config."""
    doc, source = cfg[block], _config_source(args)
    given = {k: getattr(args, k) for k in flags if getattr(args, k) is not None}
    if not isinstance(doc, dict) or not given:
        return _build(build, doc, block, source)
    try:
        return _build(build, {**doc, **given}, block, source)
    except ConfigError as exc:
        message = str(exc)
        blamed = [k for k in given
                  if _error(build, {**doc, **{f: v for f, v in given.items() if f != k}},
                            block, source) != message]
        if not blamed:
            raise
        named = " ".join(f"--{k.replace('_', '-')}" + ("" if given[k] is True else f" {given[k]}")
                         for k in blamed)
        raise ConfigError(f"{_config_source(args, named)}: "
                          f"{message.removeprefix(source + ': ')}") from None


def _error(build, doc, block: str, source: str) -> str | None:
    """The message of the ConfigError that ``_build`` raises, if any."""
    try:
        _build(build, doc, block, source)
    except ConfigError as exc:
        return str(exc)
    return None


def _train_jobs(args, cfg: dict, variants=()):
    """The train block with its flags, one checked TrainConfig per ``variants``
    entry (the block itself without any), and the split --dataset file."""
    flags = ("epochs", "batch_size", "learning_rate", "hidden", "shuffle")
    base = _from_block(TrainConfig, "train", args, cfg, flags + (() if variants else ("variant",)))
    jobs = [] if variants else [base]
    for v in variants:
        source = _config_source(args, f"--variants {v}")
        jobs.append(_build(TrainConfig, {**asdict(base), "variant": v}, "train", source))
        if jobs[-1] in jobs[:-1]:
            raise ConfigError(f"{source}: variant is repeated")
    pipe = _from_block(Pipeline, "pipeline", args, cfg)
    series = load_dataset(args.dataset, cfg.get("timezone"))
    schema = _from_block(FeatureSchema.default, "schema", args, cfg)
    return base, jobs, build_dataset(series, schema, pipe.lookback, pipe.horizon,
                                     pipe.split_fraction, pipe.clamp_bounds, pipe.window_stride)


def _load_model(path_str: str):
    """A checkpoint's (params, meta, schema, scaler, pipeline), with the
    metadata checked as the run config is, and the scaler and the model
    checked against the columns the schema expands to. ``pipeline`` is a
    dict holding only ``clamp_bounds``, the one key a checkpoint keeps."""
    path = Path(path_str)
    source = f"checkpoint {path}"
    params, meta = load_checkpoint(path)
    schema = _build(FeatureSchema.default, meta.get("schema"), "schema", source)
    try:
        scaler = MinMaxScaler.from_dict(meta.get("scaler"))
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}")
    have = [(c.index, c.name) for c in scaler.columns], scaler.width
    want = schema.numeric_columns(), schema.width
    if have != want:
        raise ConfigError(f"{source}: scaler columns and width {have} are not the schema's {want}")
    if params.config.n_features not in (1, schema.width):
        raise ConfigError(f"{source}: the model reads {params.config.n_features} columns; "
                          f"the schema has {schema.width}")
    pipeline = _build(Pipeline, meta.get("pipeline", {}), "pipeline", source)
    return params, meta, schema, scaler, {"clamp_bounds": pipeline.clamp_bounds}


def _load_frozen(checkpoint: str, dataset, timezone: str | None, starts=None):
    """A checkpoint's (params, meta, schema, scaler) and its model's windows
    in a dataset file, encoded, scaled with the persisted scaler and clamped:
    all rows slid at stride 1, or only the rows of the windows at ``starts``
    (a negative start counts from the end), in that order."""
    params, meta, schema, scaler, pipeline = _load_model(checkpoint)
    series = load_dataset(dataset, timezone)
    p, m = params.config.lookback, params.config.horizon
    bounds = pipeline["clamp_bounds"]
    if starts is None:
        scaled = clamp_scaled(scaler, transform(scaler, encode(series, schema)), bounds)
        return params, meta, schema, scaler, make_windows(scaled, p, m, series.origin)
    n = window_count(len(series), p, m)
    for i in starts:
        if not -n <= i < n:
            raise ConfigError(f"window index {i} out of range 0..{n - 1}")
    starts = np.array(starts, dtype=np.int64) % n
    rows = (starts[:, None] + np.arange(p + m)).ravel()
    scaled = clamp_scaled(scaler, transform(scaler, encode(series, schema, rows)), bounds)
    block = scaled.reshape(len(starts), p + m, schema.width)
    windows = WindowedDataset(block[:, :p], block[:, p:, 0], series.times()[starts], p, m)
    return params, meta, schema, scaler, windows


def _parse_indices(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(args, cfg: dict, out: Path) -> None:
    sc = _from_block(SynthConfig, "synth", args, cfg, ("days", "start"))
    try:
        series, holidays = generate(sc)
    except ConfigError as exc:  # a demand rate out of the sampler's range
        raise ConfigError(f"{_config_source(args)}: {exc}") from None
    export(series, holidays, out)
    save_config(out / "synth_config.json", sc)
    write_manifest(out, "simulate", _deep_merge(cfg, {"synth": sc.to_dict()}), sc.seed)


def cmd_ingest(args, cfg: dict, out: Path) -> None:
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
    write_dataset(out / "dataset.csv", series)
    write_manifest(out, "ingest", cfg, None)


def cmd_train(args, cfg: dict, out: Path) -> None:
    _, (tc,), (dataset, scaler) = _train_jobs(args, cfg)
    extra = {
        "schema": cfg["schema"],
        "scaler": scaler.to_dict(),
        "seed": tc.seed,
        "variant": tc.variant,
        "pipeline": {"clamp_bounds": list(cfg["pipeline"]["clamp_bounds"])},
    }
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir()

    def on_epoch(epoch: int, params) -> None:
        save_checkpoint(ckpt_dir / f"epoch_{epoch:03d}.json", params, {**extra, "epoch": epoch})

    params, report = train(dataset, tc, on_epoch)
    save_checkpoint(out / "checkpoint.json", params, extra)
    (out / "metrics.json").write_text(json.dumps(asdict(report), indent=2), encoding="utf-8")
    write_manifest(out, "train", _deep_merge(cfg, {"train": asdict(tc)}), tc.seed)


def cmd_predict(args, cfg: dict, out: Path) -> None:
    index = -1 if args.index is None else args.index
    params, meta, _, scaler, windows = _load_frozen(args.checkpoint, args.dataset,
                                                    cfg.get("timezone"), [index])
    scaled = forecast(windows.inputs, params)[0]
    demand = inverse_transform(scaler, scaled)
    times = time_text(windows.target_timestamps(0))
    write_csv(out / "forecast.csv", ("timestamp", "demand_scaled", "demand"),
              f"%s,{FLOAT_FORMAT},{FLOAT_FORMAT}", [times, scaled, demand])
    write_manifest(out, "predict", cfg, meta.get("seed"))


def cmd_explain(args, cfg: dict, out: Path) -> None:
    tests = _parse_indices(args.test)
    backgrounds = _parse_indices(args.background)
    params, meta, schema, _, windows = _load_frozen(args.checkpoint, args.dataset,
                                                    cfg.get("timezone"), tests + backgrounds)
    horizon = params.config.horizon
    if args.step is not None and not 0 <= args.step < horizon:
        raise ConfigError(f"--step {args.step} out of range 0..{horizon - 1}")
    rows, reports = shapley_series(
        lambda batch: forecast(batch, params),
        [(str(i), x) for i, x in zip(tests, windows.inputs)],
        windows.inputs[len(tests):],
        schema.group_columns(), step=args.step,
    )
    write_shap_csv(out / "shap.csv", reports)
    write_beeswarm_csv(out / "beeswarm.csv", rows)
    doc = [asdict(r) for r in reports]
    (out / "shap.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    write_manifest(out, "explain", cfg, meta.get("seed"))


def cmd_eval(args, cfg: dict, out: Path) -> None:
    base, jobs, (dataset, _) = _train_jobs(args, cfg, args.variants or VARIANTS)
    reports = [train(dataset, job)[1] for job in jobs]
    write_csv(out / "comparison.csv", ("variant", "test_mse", "wall_time_s"),
              f"%s,{FLOAT_FORMAT},%.2f", [[r.variant for r in reports],
                                           [r.test_mse for r in reports],
                                           [r.wall_time_s for r in reports]])
    (out / "metrics.json").write_text(
        json.dumps([asdict(r) for r in reports], indent=2), encoding="utf-8")
    write_manifest(out, "eval", _deep_merge(cfg, {"train": asdict(base)}), base.seed)


def cmd_attention(args, cfg: dict, out: Path) -> None:
    if args.limit is not None and args.limit < 1:
        raise ConfigError(f"--limit must be >= 1, got {args.limit}")
    params, meta, _, _, windows = _load_frozen(args.checkpoint, args.dataset,
                                               cfg.get("timezone"))
    if args.limit is not None and args.limit < len(windows):
        step = max(1, len(windows) // args.limit)
        keep = slice(0, step * args.limit, step)  # a basic slice: views, not copies
        windows = WindowedDataset(windows.inputs[keep], windows.targets[keep],
                                  windows.origins[keep], windows.lookback, windows.horizon)
    profile = attention_profile(params, windows)
    write_attention_csv(out / "attention.csv", profile)
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

    def train_flags(p, variant_flag, **kwargs):
        p.add_argument(variant_flag, **kwargs)
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

    train_flags(command("train", cmd_train, "fit a model on a dataset", "dataset"), "--variant")

    p = command("predict", cmd_predict, "forecast one window from a checkpoint",
                "checkpoint", "dataset")
    p.add_argument("--index", type=int, help="window index (default: last)")

    p = command("explain", cmd_explain, "grouped Shapley attribution", "checkpoint", "dataset")
    p.add_argument("--test", required=True, help="test window index(es), comma-separated")
    p.add_argument("--background", required=True,
                   help="background window index(es), comma-separated")
    p.add_argument("--step", type=int, help="attribute one horizon step instead of the mean")

    train_flags(command("eval", cmd_eval, "train and compare model variants", "dataset"),
                "--variants", type=lambda s: s.split(","), help="comma-separated variants")

    p = command("attention", cmd_attention, "hourly mean attention weights",
                "checkpoint", "dataset")
    p.add_argument("--limit", type=int, help="cap the number of windows profiled")
    return parser


def _terminate(signum, frame):
    raise KeyboardInterrupt(signal.Signals(signum).name)


def _publish(stage: Path, out: Path) -> None:
    """Move each top-level entry of ``stage`` to its name in ``out``, the
    manifest last, a staged directory replacing its namesake whole. A name
    taken by the other kind of entry is caught before anything moves, so an
    earlier run stays whole; then the earlier manifest goes first, so a move
    that fails midway leaves none."""
    entries = sorted(stage.iterdir(), key=lambda p: (p.name == "manifest.json", p.name))
    kinds = ("file", "directory")
    for src in entries:
        dest = out / src.name
        if dest.exists() and dest.is_dir() != src.is_dir():
            raise FileExistsError(f"{dest} is a {kinds[dest.is_dir()]}; "
                                  f"this run's {src.name} is a {kinds[src.is_dir()]}")
    replaced = Path(tempfile.mkdtemp(dir=stage))  # removed with the stage
    (out / "manifest.json").unlink(missing_ok=True)
    for src in entries:
        dest = out / src.name
        if src.is_dir() and dest.is_dir():
            os.replace(dest, replaced / src.name)
        os.replace(src, dest)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    on_main = threading.current_thread() is threading.main_thread()  # only it takes handlers
    previous = signal.signal(signal.SIGTERM, _terminate) if on_main else None
    try:
        cfg = load_run_config(args.config)
        _check_timezone(cfg["timezone"], _config_source(args))
        if args.seed is not None:  # a block that is no object stays for its check
            cfg = _deep_merge(cfg, {b: {"seed": args.seed} for b in ("synth", "train")
                                    if isinstance(cfg[b], dict)})
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".partial-", dir=out) as name:
            stage = Path(name)
            args.fn(args, cfg, stage)
            _publish(stage, out)
        return 0
    except DemandcastError as exc:
        message = f"{exc.code}: {exc}"
    except OSError as exc:  # a missing, unreadable or directory path
        message = f"io: {exc}"
    except MemoryError as exc:  # a model or batch too large for this machine
        message = f"memory: {exc}"
    except KeyboardInterrupt as exc:  # Ctrl-C, or SIGTERM through _terminate
        message = f"interrupted: {str(exc) or 'SIGINT'}"
    except Exception as exc:  # pragma: no cover - defensive
        message = f"internal: {type(exc).__name__}: {exc}"
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)
    print(message, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
