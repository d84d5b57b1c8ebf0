"""Differential check of the CSV loaders against their per-row oracles, of
the CSV writer against csv.writer, and of the model core against its
row-major oracles.

A batch reads seeded random CSV texts (``helpers.random_csv``) with
``parse_sessions``, ``load_temperature_csv``, ``load_demand_grid`` and
``load_dataset``, each under no time zone or a zone of its own. Each loader
must give what its oracle gives: the same values, or the same error type and
message. The oracle of ``parse_sessions`` is ``helpers.per_row_sessions``;
that of a whole-file loader is the same loader reading every row cell by
cell (``helpers.both_ways``). A regular text (see ``random_csv``) must also
be read by byte offsets alone: no row of it cell by cell by ``_read_rows``.

A batch also reads byte-mutated files of a synth export
(``helpers.mutated_export``), one for every MUTATED texts, each of which
must equal its loader's oracle; and writes a series
(``helpers.round_trip_series``) with ``write_dataset`` and
``write_temperature_csv`` for every ROUND_TRIP texts, which must read back
to the same bits, by byte offsets alone. And it writes a table
(``helpers.random_table``) with ``util.write_csv`` for every WRITE_TABLE
texts, which must be the bytes that ``csv.writer`` writes
(``helpers.csv_writer_rows``).

With ``--suite model`` a batch instead draws MODELS random models
(``helpers.random_model``). Every property below but the float32-arena ones
runs the model with a float64 parameter arena, and so a float64 recurrence
(``lstm_att.DTYPE``), the path the oracles hold to float64 tolerances. On
each, a tape-free forward must give the bits of a taped one; the forward
must equal ``whole_batch_forward``, and on its first SCALAR_WINDOWS windows
the ``scalar_lstm_step`` loop, and ``backward`` must equal
``row_major_backward``, all within ``helpers.assert_close``; and
``backward`` over an arena of noise must leave the bytes it leaves in a
fresh one. Each element of the gradients of the score weights ``W_a`` and
bias ``b_a`` sums p B terms of the raw score gradient d_raw (d_raw h and
d_raw) whose softmax parts cancel, so its error is bounded by REL_TOL times
the summed magnitudes of those terms, as the oracle computes them. On the
first FD_WINDOWS windows, ``backward`` must match ``central_difference`` on
a few random coordinates of each tensor. A checkpoint saved, loaded and saved
again must keep its bytes. And ``clip_gradients`` and ``adam_step`` on the
arena must give the bits of ``per_tensor_clip`` and
``per_tensor_adam_step`` on separate tensors, with ``train.ADAM_BLOCK`` set
to a size drawn per model, so that the arena crosses block edges; the clip
norm must equal ``helpers.float64_norm``, one float64 ``np.sum`` of the
upcast squares, within 2 N eps64 of it for N elements.

The same model with the default float32 arena (its weights rounded from the
same draws; ``check_float32_arena``) must keep its v4 checkpoint's bytes
through a load and a save, load from a v3 file of the float64 model with the
same rounded bits and save it as its own v4 file; its clip norm must equal
``float64_norm`` as above, and two ``adam_step`` calls over it must give the
bits of ``helpers.adam_reference_step``, the out-of-place formula, evaluated
in float32.

At the end of a model run, a table gives each model's shape and, for the
forward (the largest over its trace's fields) and for each gradient, the
largest difference from the oracle relative to the oracle array's largest
magnitude. Its ``32`` columns give, in the same measure, how far the default
float32 arena and recurrence move the output, the attention weights and each
gradient from the float64 path's; a last line gives each column's largest
value. The ``32`` columns are measured, not checked:
``tests/test_lstm_att.py`` states and checks the float32 tolerances.

Each batch runs in a child process of its own, one at a time, so that a
crash of the interpreter is a failure that names its seed:

    PYTHONPATH=src python tests/differential.py --batches 200 [--first 0] [--files 240]
    PYTHONPATH=src python tests/differential.py --suite model --batches 50 [--models 8]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FILES = 240  # files per batch
# random texts per mutated file, per round trip and per written table
MUTATED, ROUND_TRIP, WRITE_TABLE = 8, 24, 8
MODELS = 8  # random models per batch of the model suite
ADAM_BLOCKS = 8  # most blocks the arena is cut into for the Adam property
# windows and coordinates per tensor of the finite-difference property, and
# its bound |analytic - numeric| <= RTOL (|analytic| + |numeric|) + ATOL (1 + sum |forecast d_out|)
FD_WINDOWS, FD_COORDS, FD_RTOL, FD_ATOL = 8, 3, 1e-6, 1e-9
SCALAR_WINDOWS = 2  # windows per model of the scalar LSTM loop property
# The prefix of a child's line that carries one model's row of the table.
ROW = "difference row: "
GRADIENTS = ("W", "U", "b", "W_a", "b_a", "W_out", "b_out")
# The table's float32-against-float64 columns: output, weights, each gradient.
FLOAT32 = tuple(f"{name}32" for name in ("out", "wts", *GRADIENTS))
KINDS = ("sessions", "temperature", "grid", "dataset")
ZONES = (None, "America/Los_Angeles")


def check_batch(seed: int, files: int = FILES) -> list[str]:
    """Read the ``files`` texts of batch ``seed`` with each loader and its
    oracle; a line for each text on which they differ."""
    import numpy as np
    import pytest

    from demandcast import ingest
    from demandcast.util import write_csv
    from helpers import (
        both_ways,
        csv_writer_rows,
        mutated_export,
        outcome,
        per_row_sessions,
        random_csv,
        random_table,
        round_trip_series,
        session_array,
    )

    loaders = {"temperature": ingest.load_temperature_csv, "grid": ingest.load_demand_grid,
               "dataset": ingest.load_dataset}
    read_rows, per_row = ingest._read_rows, []
    failures = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(ingest, "_read_rows",
                            lambda *a: per_row.extend(a[0]) or read_rows(*a))
        path = Path(tmp) / "input.csv"
        for k in range(files):
            text_seed = seed * files + k
            kind, zone = KINDS[k % len(KINDS)], ZONES[k // len(KINDS) % len(ZONES)]
            text, regular = random_csv(text_seed, kind)
            path.write_bytes(text.encode())
            if kind == "sessions":
                per_row.clear()
                got = _sessions_outcome(lambda: ingest.parse_sessions(path, zone))
                columnar = not per_row
                want = _sessions_outcome(lambda: per_row_sessions(text, zone), session_array)
            else:
                got, want, columnar = both_ways(monkeypatch, Path(tmp), loaders[kind], path, zone)
            if got != want or (regular and not columnar):
                failures.append(f"random_csv({text_seed}, {kind!r}) under {zone}: {text!r}\n"
                                f"  got  {got!r}\n  want {want!r}\n  regular {regular}, "
                                f"read by byte offsets alone {columnar}")
        for k in range(files // MUTATED):
            text_seed, zone = seed * files + k, ZONES[k % len(ZONES)]
            kind = mutated_export(text_seed, path)
            got, want, _ = both_ways(monkeypatch, Path(tmp), loaders[kind], path, zone)
            if got != want:
                failures.append(f"mutated_export({text_seed}), a {kind} file, under {zone}: "
                                f"{path.read_bytes()!r}\n  got  {got!r}\n  want {want!r}")
        for k in range(files // ROUND_TRIP):
            text_seed, zone = seed * files + k, ZONES[k % len(ZONES)]
            series, times = round_trip_series(text_seed)
            readings = np.empty(len(times), ingest.READING)
            readings["time"], readings["temp_c"] = times, series.temperature
            for write, loader, value in (
                    (lambda: ingest.write_dataset(path, series), ingest.load_dataset, series),
                    (lambda: ingest.write_temperature_csv(path, times, series.temperature),
                     ingest.load_temperature_csv, readings)):
                write()
                got, want, columnar = both_ways(monkeypatch, Path(tmp), loader, path, zone)
                if not (got == want == outcome(lambda: value) and columnar):
                    failures.append(f"round_trip_series({text_seed}) through "
                                    f"{loader.__name__} under {zone}: {path.read_bytes()!r}\n"
                                    f"  got  {got!r}\n  want {want!r}\n"
                                    f"  read by byte offsets alone {columnar}")
        want_path = Path(tmp) / "want.csv"
        for k in range(files // WRITE_TABLE):
            header, row_format, columns = random_table(seed * files + k)
            write_csv(path, header, row_format, columns)
            csv_writer_rows(want_path, header, zip(*(
                [v.decode() if isinstance(v, bytes) else v for v in np.asarray(c).tolist()]
                for c in columns)))
            if path.read_bytes() != want_path.read_bytes():
                failures.append(f"random_table({seed * files + k}) as {row_format!r}:\n"
                                f"  got  {path.read_bytes()!r}\n"
                                f"  want {want_path.read_bytes()!r}")
    return failures


def check_models(seed: int, models: int = MODELS) -> tuple[list[str], list[dict]]:
    """Check the ``models`` random models of batch ``seed`` against the
    oracles; a line for each model that fails a property, and each model's
    row of the difference table (see ``print_table``)."""
    import numpy as np

    from demandcast import lstm_att, train
    from demandcast.lstm_att import (
        ModelParams,
        backward,
        forward_batch,
        load_checkpoint,
        save_checkpoint,
    )
    from helpers import (
        REL_TOL,
        TAPE_FREE_FIELDS,
        TRACE_FIELDS,
        SeparateParams,
        assert_close,
        assert_trace_close,
        batch_first,
        gate_blocks,
        per_tensor_adam_step,
        per_tensor_clip,
        random_model,
        row_major_backward,
        scalar_lstm_step,
        whole_batch_forward,
    )

    failures, rows, adam_block = [], [], train.ADAM_BLOCK
    dtype = lstm_att.DTYPE
    for k in range(models):
        model_seed = seed * models + k
        lstm_att.DTYPE = np.float64
        params, windows, d_out = random_model(model_seed)
        cfg, oracle = params.config, SeparateParams(params)
        try:
            trace = forward_batch(windows, params)[1]
            taped = batch_first(trace, cfg)
            free = batch_first(forward_batch(windows, params, tape=False)[1], cfg)
            for name in TAPE_FREE_FIELDS:
                a, b = getattr(free, name), getattr(taped, name)
                assert (a is None and b is None) or a.tobytes() == b.tobytes(), \
                    f"tape-free {name} differs from the taped one"
            want = whole_batch_forward(windows, oracle)[1]
            head = f"att/{cfg.head_input}" if cfg.attention else "lstm"
            row = {"model": model_seed, "n": cfg.n_features, "H": cfg.hidden,
                   "p": windows.shape[1], "m": cfg.horizon, "B": len(windows), "head": head,
                   "forward": max(relative(getattr(taped, f), getattr(want, f))
                                  for f in TRACE_FIELDS if getattr(want, f) is not None)}
            rows.append(row)
            assert_trace_close(taped, want)
            W, U, b = ({g: a.tolist() for g, a in blocks.items()} for blocks in gate_blocks(params))
            for j, window in enumerate(windows[:SCALAR_WINDOWS]):
                h, c, hs, cs = [0.0] * cfg.hidden, [0.0] * cfg.hidden, [], []
                for x in window.tolist():
                    h, c = scalar_lstm_step(x, h, c, W, U, b)
                    hs.append(h)
                    cs.append(c)
                assert_close(taped.hidden[:, j], np.array(hs), f"hidden of window {j}, scalar loop")
                assert_close(taped.cell[:, j], np.array(cs), f"cell of window {j}, scalar loop")
            backward(trace, d_out, params)  # consumes the taped trace
            row_major_backward(want, d_out, oracle)
            for t, o in zip(params.tensors(), oracle.tensors()):
                row[t.name] = relative(t.grad, o.grad)
                if t.name not in ("W_a", "b_a"):
                    assert_close(t.grad, o.grad, f"gradient of {t.name}")
            if cfg.attention:  # sums of d_raw terms whose softmax parts cancel
                d_raw = np.abs(want.d_raw)
                for t, o, terms in ((params.W_a, oracle.W_a,
                                     np.einsum("tb,tbh->h", d_raw, np.abs(want.hidden))),
                                    (params.b_a, oracle.b_a, d_raw.sum())):
                    assert np.all(np.abs(t.grad[0] - o.grad[0]) <= REL_TOL * terms), \
                        f"gradient of {t.name}: {t.grad[0]!r}, oracle {o.grad[0]!r}"
            fresh = params.grad.tobytes()
            params.grad[:] = np.random.default_rng(model_seed).normal(size=params.grad.size)
            backward(forward_batch(windows, params)[1], d_out, params)
            assert params.grad.tobytes() == fresh, "backward over noise differs from fresh"
            want = {t.name: t.grad.copy() for t in params.tensors()}
            # the default path, its arena rounded from the same draws
            lstm_att.DTYPE = dtype
            params32 = ModelParams(cfg)
            params32.value[...] = params.value
            out, trace = forward_batch(windows, params32)
            row["out32"] = relative(out, taped.output)
            if cfg.attention:
                row["wts32"] = relative(trace.weights, taped.weights)
            backward(trace, d_out, params32)
            row.update((f"{t.name}32", relative(t.grad, want[t.name]))
                       for t in params32.tensors())
            check_float32_arena(params32, params, k)
            lstm_att.DTYPE = np.float64
            rng = np.random.default_rng([seed, k])
            check_finite_differences(params, windows[:FD_WINDOWS], d_out[:FD_WINDOWS], rng)
            with tempfile.TemporaryDirectory() as tmp:
                first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
                save_checkpoint(first, params, {"schema": {"include_hour": bool(k % 2)},
                                                "loss": float(rng.normal())})
                save_checkpoint(second, *load_checkpoint(first))
                assert second.read_bytes() == first.read_bytes(), "checkpoint round trip differs"
            # clip, then Adam over blocks of a drawn size so that the arena
            # mostly spans several of them, the last one ragged
            for t, o in zip(params.tensors(), oracle.tensors()):
                o.grad[...] = t.grad
            max_norm = float(np.linalg.norm(params.grad)) * rng.uniform(0.5, 1.5)
            norm = train.clip_gradients(params, max_norm)
            check_norm(norm, oracle.tensors())  # before the oracle scales them
            assert norm == per_tensor_clip(oracle.tensors(), max_norm), "clip norm differs"
            size = params.value.size
            train.ADAM_BLOCK = int(rng.integers(-(-size // ADAM_BLOCKS), size + 1))
            state = train.AdamState(params.value)
            ms = [np.zeros_like(o.value) for o in oracle.tensors()]
            vs = [np.zeros_like(o.value) for o in oracle.tensors()]
            for step in (1, 2):
                train.adam_step(params.value, params.grad, state, lr=0.01)
                per_tensor_adam_step(oracle.tensors(), ms, vs, step, lr=0.01)
            for name, arena, parts in (
                    ("gradient", params.grad, [o.grad for o in oracle.tensors()]),
                    ("value", params.value, [o.value for o in oracle.tensors()]),
                    ("first moment", state.m, ms), ("second moment", state.v, vs)):
                assert arena.tobytes() == b"".join(a.tobytes() for a in parts), \
                    f"clip and Adam over blocks of {train.ADAM_BLOCK}: {name} differs"
        except Exception as exc:  # an error, too, names its model
            failures.append(f"random_model({model_seed}): {cfg}, B = {len(windows)}, "
                            f"p = {windows.shape[1]}\n  {type(exc).__name__}: {exc}")
    train.ADAM_BLOCK, lstm_att.DTYPE = adam_block, dtype
    return failures, rows


def check_norm(norm, tensors) -> None:
    """``norm``, the clip norm of ``tensors``' gradients, against one float64
    ``np.sum`` of their upcast squares, within the two sums' rounding."""
    import numpy as np

    from helpers import float64_norm

    want = float64_norm([t.grad for t in tensors])
    size = sum(t.grad.size for t in tensors)
    assert abs(norm - want) <= 2 * size * np.finfo(np.float64).eps * want, \
        f"clip norm {norm!r}, float64 sum {want!r}"


def check_float32_arena(params32, params, k) -> None:
    """The default float32 arena ``params32``, rounded from the float64
    ``params``, after its ``backward``: a v3 file of ``params`` loads as
    ``params32``, bit for bit, and saves as ``params32`` does; its v4 file
    round trips bit for bit; the clip norm sums in float64; and two Adam
    steps over it give the bits of ``adam_reference_step`` on float32
    arrays."""
    import numpy as np

    from demandcast import train
    from demandcast.lstm_att import load_checkpoint, save_checkpoint
    from helpers import adam_reference_step, as_checkpoint_v3

    meta = {"seed": k}
    with tempfile.TemporaryDirectory() as tmp:
        v4, again, v3 = (Path(tmp, name) for name in ("v4.json", "again.json", "v3.json"))
        save_checkpoint(v4, params32, meta)
        save_checkpoint(again, *load_checkpoint(v4))
        assert again.read_bytes() == v4.read_bytes(), "float32 v4 round trip differs"
        save_checkpoint(v3, params, meta)
        as_checkpoint_v3(v3)
        loaded = load_checkpoint(v3)
        assert loaded[0].value.tobytes() == params32.value.tobytes(), "v3 load differs"
        save_checkpoint(again, *loaded)
        assert again.read_bytes() == v4.read_bytes(), "v3 file saved as v4 differs"
    check_norm(train.clip_gradients(params32, np.inf), params32.tensors())
    values, grads = [params32.value.copy()], [params32.grad.copy()]
    ms, vs = [np.zeros_like(params32.value)], [np.zeros_like(params32.value)]
    state = train.AdamState(params32.value)
    for step in (1, 2):
        train.adam_step(params32.value, params32.grad, state, lr=0.01)
        values, ms, vs = adam_reference_step(values, grads, ms, vs, step, lr=0.01)
    for name, arena, want in (("value", params32.value, values), ("first moment", state.m, ms),
                              ("second moment", state.v, vs)):
        assert arena.dtype == np.float32 and arena.tobytes() == want[0].tobytes(), \
            f"float32 Adam {name} differs from the formula in float32"


def relative(got, want) -> float:
    """The largest |got - want| over the largest |want|, 0 where that is 0."""
    import numpy as np

    scale = np.max(np.abs(want), initial=0.0)
    return float(np.max(np.abs(got - want)) / scale) if scale else 0.0


def print_table(rows: list[dict]) -> None:
    """The difference table of ``rows``, one line a model, by model seed,
    then a line of each column's largest value."""
    names = ("forward", *GRADIENTS, *FLOAT32)
    print("largest |core - oracle| / max |oracle| per model, and in the 32 columns largest "
          "|float32 core - float64 core| / max |float64 core| (- where the model has no such "
          "tensor, or failed before it was compared)")
    print(f"{'model':>6} {'n':>3} {'H':>3} {'p':>3} {'m':>3} {'B':>4} {'head':<20}"
          + "".join(f" {name:>8}" for name in names))
    for row in sorted(rows, key=lambda r: r["model"]):
        print(f"{row['model']:>6} {row['n']:>3} {row['H']:>3} {row['p']:>3} {row['m']:>3} "
              f"{row['B']:>4} {row['head']:<20}"
              + "".join(f" {row[name]:>8.1e}" if name in row else f" {'-':>8}"
                        for name in names))
    largest = {name: max((row[name] for row in rows if name in row), default=None)
               for name in names}
    print(f"{'max':>6} {'':>3} {'':>3} {'':>3} {'':>3} {'':>4} {'':<20}"
          + "".join(f" {'-':>8}" if v is None else f" {v:>8.1e}" for v in largest.values()))


def check_finite_differences(params, windows, d_out, rng) -> None:
    """``backward``'s gradient of sum(d_out * forecast) over ``windows``
    against ``central_difference`` on FD_COORDS random coordinates of each
    tensor. A coordinate whose steps move a pre-activation of the ReLU head
    across zero has no central difference, so it is not compared."""
    import numpy as np

    from demandcast.lstm_att import backward, forward_batch
    from helpers import central_difference

    out, trace = forward_batch(windows, params)
    signs = trace.pre_head > 0
    scale = float(np.sum(np.abs(out * d_out)))
    backward(trace, d_out, params)
    crossed = False

    def loss():
        nonlocal crossed
        out, trace = forward_batch(windows, params, tape=False)
        crossed |= not np.array_equal(trace.pre_head > 0, signs)
        return float(np.sum(out * d_out))

    for t in params.tensors():
        flat = t.value.reshape(-1)
        for i in rng.choice(flat.size, size=min(FD_COORDS, flat.size), replace=False):
            crossed = False
            [numeric] = central_difference(loss, flat[i:i + 1])
            analytic = t.grad.reshape(-1)[i]
            bound = FD_RTOL * (abs(analytic) + abs(numeric)) + FD_ATOL * (1.0 + scale)
            assert crossed or abs(analytic - numeric) <= bound, \
                f"gradient of {t.name}[{i}] is {analytic!r}, its central difference {numeric!r}"


def _sessions_outcome(parse, records_array=None):
    """The record bytes and (line, message) errors that ``parse()`` gives,
    or the type and message of what it raises."""
    try:
        result = parse()
    except Exception as exc:  # an error must be the oracle's error
        return type(exc), str(exc)
    if records_array is None:
        return result.records.tobytes(), [(e.line, e.message) for e in result.errors]
    records, errors = result
    return records_array(records).tobytes(), errors


def run_batch(seed: int, files: int = FILES, suite: str = "csv",
              models: int = MODELS) -> tuple[int, str]:
    """Run batch ``seed`` of ``suite`` in a child process: its exit status
    (negative for the signal that ended it) and its output."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, __file__, "--child", str(seed), "--suite", suite,
                            "--files", str(files), "--models", str(models)],
                           capture_output=True, text=True, env=env)
    return child.returncode, child.stdout + child.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=0, help="seed of the first batch")
    parser.add_argument("--batches", type=int, default=20, help="number of batches")
    parser.add_argument("--suite", choices=("csv", "model"), default="csv",
                        help="the CSV readers and writer, or the model core")
    parser.add_argument("--files", type=int, default=FILES, help="texts per batch (csv)")
    parser.add_argument("--models", type=int, default=MODELS, help="models per batch (model)")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        if args.suite == "model":
            failures, rows = check_models(args.child, args.models)
            print("".join(f"{ROW}{json.dumps(row)}\n" for row in rows), end="")
        else:
            failures = check_batch(args.child, args.files)
        print("\n".join(failures[:5]))
        return 1 if failures else 0
    failed, rows = 0, []
    for seed in range(args.first, args.first + args.batches):
        status, output = run_batch(seed, args.files, args.suite, args.models)
        lines = output.splitlines()
        rows += [json.loads(line[len(ROW):]) for line in lines if line.startswith(ROW)]
        if status:
            failed += 1
            output = "\n".join(line for line in lines if not line.startswith(ROW))
            print(f"batch {seed}: exit status {status}\n{output}", flush=True)
    if args.suite == "model":
        print_table(rows)
    what = (f"{args.models} random models" if args.suite == "model" else
            f"{args.files} texts (and their mutated files, round trips and tables)")
    print(f"{args.batches - failed} of {args.batches} batches of {what} equal their oracles")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
