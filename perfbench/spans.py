"""Span tracing from outside the program, and the per-layer metrics.

The tracer wraps public functions of the ``demandcast`` modules. Modules
bind each other's names with ``from .x import y``, so a function has one
binding per consumer module (``train.forward_batch``,
``explain.forward_batch``, ``lstm_att.forward_batch`` ...). ``install``
replaces every binding of the original in every loaded ``demandcast``
module, then scans again and refuses to run if any binding was missed.

A span records calls, busy seconds and self seconds (busy time minus the
time covered by child spans). Spans are kept in memory, per workload pass.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


class TraceError(RuntimeError):
    """The tracer could not cover what it was asked to cover."""


# (module, function, span name). cli.cmd_* are the top-level spans of the
# CLI commands. The data workload also calls library functions directly;
# there ingest.load_dataset, features.build_dataset and the checkpoint
# functions are top-level spans.
WRAPPED = [
    ("demandcast.cli", f"cmd_{c}", f"cli.{c}")
    for c in ("simulate", "ingest", "train", "eval", "predict", "explain",
              "attention")
] + [
    ("demandcast.lstm_att", f, f"lstm_att.{f}")
    for f in ("forward_batch", "backward", "save_checkpoint", "load_checkpoint")
] + [
    ("demandcast.train", f, f"train.{f}")
    for f in ("train", "evaluate", "adam_step", "clip_gradients")
] + [
    ("demandcast.explain", f, f"explain.{f}")
    for f in ("shapley_series", "attention_profile")
] + [
    ("demandcast.features", f, f"features.{f}")
    for f in ("make_windows", "encode", "transform", "clamp_scaled",
              "build_dataset")
] + [
    ("demandcast.ingest", f, f"ingest.{f}")
    for f in ("load_dataset", "load_demand_grid", "load_temperature_csv",
              "join_temperature", "attach_calendar", "write_dataset",
              "parse_sessions", "aggregate_demand")
] + [
    ("demandcast.synth", f, f"synth.{f}") for f in ("generate", "export")
]


# ---------------------------------------------------------------------------
# computed operation counts
# ---------------------------------------------------------------------------

def _dims(windows_shape, config):
    B, p, n = windows_shape
    H, m = config.hidden, config.horizon
    head_dim = p * H if config.attention and config.head_input == "weighted_flatten" else H
    return B, p, n, H, m, head_dim


def forward_flops(windows_shape, config) -> int:
    """Computed, not counted: matrix-product flops (2 per multiply-add) of
    one ``forward_batch`` call. Gate nonlinearities are left out."""
    B, p, n, H, m, head_dim = _dims(windows_shape, config)
    flops = 8 * p * B * n * H       # input projection, 4 gates
    flops += 8 * p * B * H * H      # recurrence, 4 gates per step
    flops += 2 * B * head_dim * m   # dense head
    if config.attention:
        flops += 3 * p * B * H      # score projection and weighting
    return flops


def backward_flops(windows_shape, config) -> int:
    """Computed, not counted: matrix-product flops of one ``backward`` call."""
    B, p, n, H, m, head_dim = _dims(windows_shape, config)
    flops = 4 * B * m * head_dim    # head weight and input gradients
    flops += 8 * p * B * H * H      # BPTT through U, 4 gates per step
    flops += 8 * p * B * H * H      # U gradients
    flops += 16 * p * B * H * n     # W gradients and input gradients
    if config.attention:
        flops += 6 * p * B * H
    return flops


# ---------------------------------------------------------------------------
# per-call attributes
# ---------------------------------------------------------------------------

def _rows_of_result(args, kwargs, result):
    return {"rows": len(result)}


def _rows_of_first_arg(args, kwargs, result):
    return {"rows": len(args[0])}


def _forward_attrs(args, kwargs, result):
    windows, params = args[0], args[1]
    return {"B": windows.shape[0],
            "flops": forward_flops(windows.shape, params.config)}


def _backward_attrs(args, kwargs, result):
    trace, params = args[0], args[2]
    return {"B": trace.windows.shape[0],
            "flops": backward_flops(trace.windows.shape, params.config)}


def _file_bytes_after(args, kwargs, result):
    return {"bytes": Path(args[0]).stat().st_size}


def _window_bytes(args, kwargs, result):
    return {"bytes": result.inputs.nbytes + result.targets.nbytes}


def _parse_rows(args, kwargs, result):
    return {"rows": len(result.records) + len(result.errors)}


def _instances(args, kwargs, result):
    return {"instances": len(result[1])}


ATTRS = {
    "lstm_att.forward_batch": _forward_attrs,
    "lstm_att.backward": _backward_attrs,
    "lstm_att.save_checkpoint": _file_bytes_after,
    "lstm_att.load_checkpoint": _file_bytes_after,
    "features.make_windows": _window_bytes,
    "explain.shapley_series": _instances,
    "ingest.load_dataset": _rows_of_result,
    "ingest.load_demand_grid": _rows_of_result,
    "ingest.load_temperature_csv": _rows_of_result,
    "ingest.join_temperature": _rows_of_result,
    "ingest.attach_calendar": _rows_of_result,
    "ingest.write_dataset": lambda a, k, r: {"rows": len(a[1])},
    "ingest.parse_sessions": _parse_rows,
    "ingest.aggregate_demand": _rows_of_first_arg,
}


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

class SpanStats:
    __slots__ = ("calls", "busy", "self_s", "attrs")

    def __init__(self):
        self.calls = 0
        self.busy: list[float] = []
        self.self_s: list[float] = []
        self.attrs: list[dict] = []


class Tracer:
    """Wraps the functions in ``WRAPPED`` and keeps spans per workload."""

    def __init__(self):
        self.workload = None
        self.stats: dict[tuple[str, str], SpanStats] = defaultdict(SpanStats)
        self.top_level_s = 0.0       # busy time of spans opened at depth 0
        # One digest per window forwarded under explain.shapley_series,
        # whatever the batch size of the call.
        self.explain_windows: dict[str, list] = defaultdict(list)
        self._stack: list[list] = []  # [name, child seconds]
        self._bindings: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        originals = {}
        for module_name, func, span in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, func)
            originals[id(fn)] = (fn, self._wrap(span, fn))
        for module in self._package_modules():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._bindings.append((module, attr, value))
        missed = [f"{m.__name__}.{a}" for m in self._package_modules()
                  for a, v in vars(m).items()
                  if id(v) in originals and originals[id(v)][0] is v]
        if missed:
            self.uninstall()
            raise TraceError(f"binding(s) not re-bound: {', '.join(missed)}")
        bound = {(m.__name__, a) for m, a, _ in self._bindings}
        absent = [f"{m}.{f}" for m, f, _ in WRAPPED if (m, f) not in bound]
        if absent:
            self.uninstall()
            raise TraceError(f"function(s) not found to wrap: {', '.join(absent)}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    @staticmethod
    def _package_modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "demandcast"
                                      or name.startswith("demandcast."))]

    def _wrap(self, span: str, fn):
        attrs_fn = ATTRS.get(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            in_shapley = any(frame[0] == "explain.shapley_series" for frame in stack)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += busy
                else:
                    tracer.top_level_s += busy
            stats = tracer.stats[(tracer.workload, span)]
            stats.calls += 1
            stats.busy.append(busy)
            stats.self_s.append(busy - frame[1])
            if attrs_fn is not None:
                stats.attrs.append(attrs_fn(args, kwargs, result))
            if in_shapley and span == "lstm_att.forward_batch":
                tracer.explain_windows[tracer.workload].extend(
                    hashlib.blake2b(window.tobytes(), digest_size=16).digest()
                    for window in args[0])
            return result

        return wrapper

    # -- queries ------------------------------------------------------------

    def get(self, workload: str, span: str) -> SpanStats:
        return self.stats.get((workload, span)) or SpanStats()

    def fired(self, workload: str) -> set[str]:
        return {span for (w, span), s in self.stats.items()
                if w == workload and s.calls > 0}

    def table(self) -> list[dict]:
        """Every span of every workload, for the run record."""
        out = []
        for (workload, span), s in sorted(self.stats.items()):
            row = {"workload": workload, "span": span, "calls": s.calls,
                   "busy_s": sum(s.busy), "self_s": sum(s.self_s)}
            for key in ("rows", "bytes", "flops"):
                values = [a[key] for a in s.attrs if key in a]
                if values:
                    row[key] = values
            if span in ("lstm_att.forward_batch", "lstm_att.backward"):
                row["batch_sizes"] = sorted({a["B"] for a in s.attrs})
                row["flops_label"] = "computed"
            out.append(row)
        return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _median(values):
    if not values:
        raise TraceError("metric has no samples")
    return statistics.median(values)


def _busy_ms_at(B):
    def value(s: SpanStats):
        return 1e3 * _median([t for t, a in zip(s.busy, s.attrs) if a["B"] == B])
    return value


def _gflop_at(B):
    def value(s: SpanStats):
        return _median([a["flops"] for a in s.attrs if a["B"] == B]) / 1e9
    return value


def _gflop_per_s(s: SpanStats):
    return sum(a["flops"] for a in s.attrs) / sum(s.busy) / 1e9


def _busy_s(s):
    return _median(s.busy)


def _busy_ms(s):
    return 1e3 * _median(s.busy)


def _self_s(s):
    return _median(s.self_s)


def _attr(key):
    return lambda s: _median([a[key] for a in s.attrs])


# (metric, workload whose pass measures it, span, value). Units are those
# of BENCHMARK.json; the end-to-end metric each one should move is listed
# in README.md.
LAYER_METRICS = [
    ("lstm_att.forward_batch.b1.ms_p50", "inspect", "lstm_att.forward_batch", _busy_ms_at(1)),
    ("lstm_att.forward_batch.b32.ms_p50", "fit", "lstm_att.forward_batch", _busy_ms_at(32)),
    ("lstm_att.backward.b32.ms_p50", "fit", "lstm_att.backward", _busy_ms_at(32)),
    ("lstm_att.forward_batch.b256.ms_p50", "inspect", "lstm_att.forward_batch", _busy_ms_at(256)),
    ("lstm_att.forward_batch.gflop_per_s", "fit", "lstm_att.forward_batch", _gflop_per_s),
    ("lstm_att.backward.gflop_per_s", "fit", "lstm_att.backward", _gflop_per_s),
    ("lstm_att.forward_batch.b32.gflop", "fit", "lstm_att.forward_batch", _gflop_at(32)),
    ("lstm_att.backward.b32.gflop", "fit", "lstm_att.backward", _gflop_at(32)),
    ("lstm_att.save_checkpoint.s", "data", "lstm_att.save_checkpoint", _busy_s),
    ("lstm_att.load_checkpoint.s", "data", "lstm_att.load_checkpoint", _busy_s),
    ("lstm_att.save_checkpoint.bytes", "data", "lstm_att.save_checkpoint", _attr("bytes")),
    ("train.adam_step.ms_p50", "fit", "train.adam_step", _busy_ms),
    ("train.clip_gradients.ms_p50", "fit", "train.clip_gradients", _busy_ms),
    ("train.train.self_s", "fit", "train.train", _self_s),
    ("train.evaluate.self_s", "fit", "train.evaluate", _self_s),
    ("explain.shapley_series.self_s", "inspect", "explain.shapley_series", _self_s),
    ("explain.attention_profile.self_s", "inspect", "explain.attention_profile", _self_s),
    ("features.make_windows.s", "inspect", "features.make_windows", _busy_s),
    ("features.make_windows.bytes", "inspect", "features.make_windows", _attr("bytes")),
    ("features.encode.s", "data", "features.encode", _busy_s),
    ("features.transform.s", "data", "features.transform", _busy_s),
    ("features.clamp_scaled.s", "data", "features.clamp_scaled", _busy_s),
    ("features.build_dataset.self_s", "data", "features.build_dataset", _self_s),
    ("ingest.load_dataset.s", "data", "ingest.load_dataset", _busy_s),
    ("ingest.load_dataset.rows", "data", "ingest.load_dataset", _attr("rows")),
] + [
    (f"ingest.{f}.{kind}", "data", f"ingest.{f}", fn)
    for f in ("load_demand_grid", "load_temperature_csv", "join_temperature",
              "attach_calendar", "write_dataset", "parse_sessions",
              "aggregate_demand")
    for kind, fn in (("s", _busy_s), ("rows", _attr("rows")))
] + [
    ("synth.generate.s", "data", "synth.generate", _busy_s),
    ("synth.export.s", "data", "synth.export", _busy_s),
] + [
    (f"cli.{c}.self_s", w, f"cli.{c}", _self_s)
    for c, w in (("simulate", "data"), ("ingest", "data"), ("train", "fit"),
                 ("eval", "fit"), ("predict", "inspect"),
                 ("explain", "inspect"), ("attention", "inspect"))
]


def declared_spans(workload: str) -> set[str]:
    """Spans the workload's pass must fire: those its metrics read."""
    return {span for _, w, span, _ in LAYER_METRICS if w == workload}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    out = {}
    for name, workload, span, value in LAYER_METRICS:
        stats = tracer.get(workload, span)
        try:
            out[name] = float(value(stats))
        except (TraceError, ZeroDivisionError) as exc:
            raise TraceError(f"{name}: span {span} gave no value on the "
                             f"{workload} pass ({exc})") from exc
    shap = tracer.get("inspect", "explain.shapley_series")
    instances = sum(a["instances"] for a in shap.attrs)
    windows = tracer.explain_windows["inspect"]
    if not instances or not windows:
        raise TraceError("explain pass made no traced forwards")
    # Both count windows, not forward_batch calls, so batching the
    # coalitions leaves them unchanged.
    out["explain.forwards_per_instance"] = len(windows) / instances
    out["explain.distinct_window_ratio"] = len(set(windows)) / len(windows)
    return out
