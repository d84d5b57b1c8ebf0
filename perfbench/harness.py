"""One benchmark run: set-up, the timed or traced passes, the metrics, the
run record and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS, CheckFailed, Recorder, timed

SETUP_REPS = 3
# Passes run until --seconds have elapsed, and at least this many.
MIN_PASSES = 2
# A command's wall time not covered by its top-level span (argument parsing,
# the output directory) may exceed its own tracing overhead by this much.
COVERAGE_SLACK_S = 0.05


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in
                    ("DEMANDCAST_THREADS", "OMP_NUM_THREADS",
                     "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "effective_blas_threads": "not read back: threadpoolctl is not installed",
    }


def declared_metrics(root: Path, trace: bool) -> list[tuple[str, str]]:
    try:
        doc = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")
    return [(m["name"], m["unit"]) for m in doc["per_layer" if trace else "end_to_end"]]


def _work_dir(root: Path, workload: str, seed: int, trace: bool) -> Path:
    work = root / ".perfbench_work" / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    work.mkdir(parents=True)
    return work


def _setup(cls, seed: int, work: Path):
    """Set the workload up SETUP_REPS times; keep the last one."""
    times, wl = [], None
    for r in range(SETUP_REPS):
        if wl is not None:
            shutil.rmtree(wl.work)
        wl = cls(seed, work / f"setup{r}")
        wl.work.mkdir()
        times.append(timed(wl.setup)[2])
    wl.warm_up()
    return wl, times


def _end_to_end(wl, rec: Recorder, seconds: int, setup_times) -> dict:
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_PASSES or time.perf_counter() < deadline:
        wl.run_pass(rec, k)
        k += 1
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    for step in ("step1_s", "step2_s", "step3_s"):
        if step in rec.samples:
            metrics[step] = (statistics.median(rec.samples[step]), "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
    metrics["disk_mb"] = (statistics.median(rec.pass_bytes) / 1e6, "MB")
    return metrics


def _traced(name: str, seed: int, work: Path, rec: Recorder,
            units: dict[str, str]) -> tuple[dict, list]:
    """Set up every workload once and run one traced pass of each, so
    every per-layer metric is measured; then one untraced pass of each on
    the same inputs. An operation's tracing overhead is its traced minus
    its untraced wall time. The named workload's traced pass comes last
    and its untraced pass first, so that the two run back to back."""
    passes = {}
    for n, cls in WORKLOADS.items():
        passes[n] = cls(seed, work / n)
        passes[n].work.mkdir()
        passes[n].setup()
        passes[n].warm_up()
    order = [n for n in passes if n != name] + [name]
    tracer = spans.Tracer()
    try:
        tracer.install()
    except spans.TraceError as exc:
        raise BenchError(str(exc))
    rec.tracer = tracer
    try:
        for n in order:
            tracer.workload = n
            passes[n].run_pass(rec, 0)
    finally:
        tracer.uninstall()
        rec.tracer = None
    for n in reversed(order):
        passes[n].run_pass(rec, 0)
    overhead = {label: walls[0] - walls[1]
                for label, walls in rec.wall.items() if len(walls) == 2}

    problems = []
    for n in passes:
        missing = spans.declared_spans(n) - tracer.fired(n)
        if missing:
            problems.append(f"{n}: declared spans never fired: {sorted(missing)}")
    for label, elapsed, covered in rec.coverage:
        slack = max(overhead.get(label, 0.0), 0.0) + COVERAGE_SLACK_S
        if elapsed - covered > slack:
            problems.append(f"{label}: top-level spans cover {covered:.3f} s "
                            f"of {elapsed:.3f} s")
    if problems:
        raise BenchError("span coverage check failed: " + "; ".join(problems))

    try:
        layer = spans.layer_metrics(tracer)
    except spans.TraceError as exc:
        raise BenchError(str(exc))
    layer["process.cpu_s"] = time.process_time()
    layer["trace.overhead_s"] = sum(
        overhead.get(label, 0.0)
        for labels in passes[name].named.values() for label in labels)
    return {k: (v, units.get(k)) for k, v in layer.items()}, tracer.table()


def run(root: Path, name: str, seed: int, seconds: int, trace: bool) -> int:
    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if seconds < 1:
        raise BenchError("--seconds must be at least 1")
    declared = declared_metrics(root, trace)
    env = environment()
    rec = Recorder()
    work = _work_dir(root, name, seed, trace)
    try:
        if trace:
            metrics, detail = _traced(name, seed, work, rec, dict(declared))
            setup_times = []
        else:
            wl, setup_times = _setup(WORKLOADS[name], seed, work)
            metrics = _end_to_end(wl, rec, seconds, setup_times)
            detail = []
    except CheckFailed as exc:  # passes record theirs; this is from a set-up
        raise BenchError(f"set-up failed: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(rec.failures)
    correct = failed == 0
    if correct and sorted(metrics) != sorted(n for n, _ in declared):
        raise BenchError(f"measured metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(n for n, _ in declared)}")
    for (metric, unit) in declared:
        if metric in metrics and metrics[metric][1] != unit:
            raise BenchError(f"{metric}: unit {metrics[metric][1]} != {unit}")

    digest = hashlib.sha256(json.dumps(rec.outputs, sort_keys=True).encode()).hexdigest()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "setup_s": setup_times,
              "samples": rec.samples, "ops": rec.ops, "wall": rec.wall, "failures": rec.failures,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "outputs": rec.outputs, "outputs_sha256": digest,
              "unreferenced": rec.unreferenced, "spans": detail}
    records = root / ".perfbench_work" / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{name}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"# workload {name}  seed {seed}  trace {int(trace)}  "
          f"threads {env['threads']['DEMANDCAST_THREADS']}  nproc {env['nproc']}")
    print(f"# {env['cpu_model']}; Python {env['python']}; numpy {env['numpy']}; "
          f"{env['blas']}; effective BLAS threads {env['effective_blas_threads']}")
    for failure in rec.failures:
        print(f"# FAILED {failure}")
    if rec.unreferenced:
        print(f"# NOTE reference.json stores no outputs for seed {seed}; "
              f"{len(rec.unreferenced)} checks compared without them, e.g. "
              f"{rec.unreferenced[0]}")
    if not trace:
        print("# " + "; ".join(f"step{i}_s = {ops}" for i, ops in
                               enumerate(WORKLOADS[name].steps, start=1)))
        for named, labels in WORKLOADS[name].named.items():
            if all(label in rec.ops for label in labels):
                value = sum(statistics.median(rec.ops[label]) for label in labels)
                wall = sum(statistics.median(rec.wall[label]) for label in labels)
                counts = "+".join(str(len(rec.ops[label])) for label in labels)
                print(f"metric {named} {value:.4f} s (median of {counts} calls; "
                      f"wall {wall:.4f} s)")
        if rec.checkpoint_bytes:
            print(f"metric checkpoint_mb "
                  f"{statistics.median(rec.checkpoint_bytes) / 1e6:.4f} MB")
    for metric, (value, unit) in sorted(metrics.items()):
        print(f"metric {metric} {value:.6g} {unit}")
    print(f"metric failed_ratio {failed / max(rec.attempted, 1):.4f} "
          f"({failed} of {rec.attempted} operations)")
    print(f"# outputs sha256 {digest}; record {record_path.relative_to(root)}")
    print(json.dumps({
        "correct": correct, "attempted": rec.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1
