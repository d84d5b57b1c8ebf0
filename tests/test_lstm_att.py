import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from demandcast import lstm_att
from demandcast.errors import ConfigError, NumericError, ShapeError, TapeError
from demandcast.lstm_att import (
    FORWARD_BATCH,
    ModelConfig,
    ModelParams,
    backward,
    forecast,
    forward_batch,
    glorot_uniform,
    load_checkpoint,
    model_inputs,
    recurrent_uniform,
    save_checkpoint,
)
from demandcast.train import AdamState, adam_step, mse
from helpers import (
    CHECKPOINT_CORRUPTIONS,
    FLOAT32_TOL,
    HUGE_HIDDEN,
    LAYOUT,
    REL_TOL,
    TAPE_FREE_FIELDS,
    SeparateParams,
    as_checkpoint_v3,
    assert_close,
    assert_trace_close,
    attention,
    batch_first,
    central_difference,
    forward,
    gate_blocks,
    lstm_step,
    predict,
    relative_error,
    row_major_backward,
    scalar_lstm_step,
    sigmoid,
    split_checkpoint,
    whole_batch_forward,
)

TINY = ModelConfig(n_features=2, hidden=3, horizon=2, lookback=4)
HEAD_CONFIGS = [
    {},  # attention + weighted_flatten (default)
    {"head_input": "context"},
    {"attention": False},
]


def tiny_params(seed=3, **cfg_kwargs):
    cfg = ModelConfig(n_features=2, hidden=3, horizon=2, lookback=4, **cfg_kwargs)
    return ModelParams.init(cfg, seed)


def viewed_forward(windows, params, **kwargs):
    """``forward_batch``'s forecasts and the ``batch_first`` view of its trace."""
    out, trace = forward_batch(windows, params, **kwargs)
    return out, batch_first(trace, params.config)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg_kwargs", HEAD_CONFIGS)
def test_init_stacked_blocks_match_per_gate_draws(cfg_kwargs):
    """The seeded float64 draws, per gate in the init order, rounded into
    the float32 arena."""
    cfg = ModelConfig(n_features=3, hidden=4, horizon=2, lookback=5, **cfg_kwargs)
    params = ModelParams.init(cfg, 31)
    assert params.value.dtype == np.float32
    rng = np.random.default_rng(31)
    W = {g: glorot_uniform(rng, 4, 3).astype(np.float32) for g in ("f", "i", "C", "o")}
    U = {g: recurrent_uniform(rng, 4, 4).astype(np.float32) for g in ("f", "i", "C", "o")}
    W_a = glorot_uniform(rng, 1, 4).astype(np.float32) if cfg.attention else None
    W_out = glorot_uniform(rng, 2, cfg.head_dim).astype(np.float32)

    W_blocks, U_blocks, b_blocks = gate_blocks(params)
    for g in LAYOUT:
        assert np.array_equal(W_blocks[g], W[g]), g
        assert np.array_equal(U_blocks[g], U[g]), g
        assert np.array_equal(b_blocks[g], np.full(4, 1.0 if g == "f" else 0.0)), g
    if cfg.attention:
        assert np.array_equal(params.W_a.value, W_a)
    else:
        assert params.W_a is None
    assert np.array_equal(params.W_out.value, W_out)


# ---------------------------------------------------------------------------
# the LSTM step, read from the forward trace
# ---------------------------------------------------------------------------

def test_lstm_step_zero_params_zero_state():
    params = ModelParams(TINY)
    params.b.value[:] = 0.0  # clear the forget-bias-1 default
    _, trace = viewed_forward(np.zeros((1, 4, 2)), params)
    assert np.all(trace.f == 0.5)
    assert np.all(trace.i == 0.5)
    assert np.all(trace.o == 0.5)
    assert np.array_equal(trace.chat, np.zeros_like(trace.chat))
    assert np.array_equal(trace.cell, np.zeros_like(trace.cell))
    assert np.array_equal(trace.hidden, np.zeros_like(trace.hidden))


def test_lstm_step_saturated_forget_gate_retains_cell():
    rng = np.random.default_rng(0)
    params = tiny_params(seed=1)
    params.b.value[:3] = 50.0  # the forget-gate block
    _, trace = viewed_forward(rng.normal(size=(3, 4, 2)), params)
    expected = trace.cell[:-1] + trace.i[1:] * trace.chat[1:]
    assert np.max(np.abs(trace.cell[1:] - expected)) < 1e-9


@pytest.mark.usefixtures("float64_steps")
def test_lstm_step_matches_scalar_loop_oracle():
    rng = np.random.default_rng(8)
    params = ModelParams.init(ModelConfig(n_features=3, hidden=4, lookback=5), 5)
    window = rng.normal(size=(5, 3))
    _, trace = forward(window, params)

    W, U, b = ({g: arr.tolist() for g, arr in blocks.items()}
               for blocks in gate_blocks(params))
    h_prev, c_prev = [0.0] * 4, [0.0] * 4
    for t in range(5):
        h_prev, c_prev = scalar_lstm_step(window[t].tolist(), h_prev, c_prev, W, U, b)
        assert np.max(np.abs(trace.hidden[t, 0] - np.array(h_prev))) < 1e-12
        assert np.max(np.abs(trace.cell[t, 0] - np.array(c_prev))) < 1e-12


def test_lstm_step_shape_mismatch():
    params = tiny_params()
    with pytest.raises(ShapeError):
        forward_batch(np.zeros((4, 2)), params)  # one window without the batch axis
    with pytest.raises(ShapeError):
        forward(np.zeros((1, 4, 2)), params)  # a batch where one window is expected


@pytest.mark.usefixtures("float64_steps")
@pytest.mark.parametrize("cfg_kwargs", HEAD_CONFIGS)
def test_forward_batch_matches_numpy_oracles(cfg_kwargs):
    rng = np.random.default_rng(14)
    params = tiny_params(seed=29, **cfg_kwargs)
    cfg = params.config
    windows = rng.uniform(0, 1, size=(5, 4, 2))
    out, trace = viewed_forward(windows, params)
    W, U, b = gate_blocks(params)
    for j, window in enumerate(windows):
        h = c = np.zeros(cfg.hidden)
        hs, cs = [], []
        for x in window:
            h, c, _ = lstm_step(x, h, c, W, U, b)
            hs.append(h)
            cs.append(c)
        hs = np.array(hs)
        assert np.max(np.abs(trace.hidden[:, j] - hs)) < 1e-12
        assert np.max(np.abs(trace.cell[:, j] - np.array(cs))) < 1e-12
        if cfg.attention:
            weights, context = attention(hs, params.W_a.value[0], params.b_a.value[0])
            assert np.max(np.abs(trace.weights[:, j] - weights)) < 1e-12
            head_in = (context if cfg.head_input == "context"
                       else (weights[:, None] * hs).ravel())
        else:
            head_in = hs[-1]
        forecast = np.maximum(params.W_out.value @ head_in + params.b_out.value, 0.0)
        assert np.max(np.abs(out[j] - forecast)) < 1e-12


@pytest.mark.usefixtures("float64_steps")
def test_sigmoid_gates_are_logistic_of_pre_activation_within_tol():
    """f, i and o are ``sigmoid`` of x W + h U + b within ``assert_close``:
    the one stacked GEMM sums each pre-activation in its own order."""
    rng = np.random.default_rng(15)
    params = ModelParams.init(ModelConfig(n_features=3, hidden=5, horizon=2, lookback=6), 7)
    params.b.value[:] = rng.normal(scale=2.0, size=20)
    windows = rng.normal(scale=3.0, size=(4, 6, 3))
    _, trace = viewed_forward(windows, params)
    for t in range(6):
        z = np.ascontiguousarray(windows[:, t]) @ params.W.value.T + params.b.value
        if t:
            z += trace.hidden[t - 1] @ params.U.value.T
        for k, gate in enumerate((trace.f, trace.i, trace.o)):
            assert_close(gate[t], sigmoid(z[:, 5 * k:5 * (k + 1)]), (t, k))


def test_sigmoid_gates_are_logistic_of_pre_activation_bitwise():
    """At pre-activations of +-1000, where no summation order matters, f, i
    and o are ``sigmoid`` of them bit for bit: exactly 0 or 1."""
    rng = np.random.default_rng(15)
    params = ModelParams.init(ModelConfig(n_features=3, hidden=5, horizon=2, lookback=6), 7)
    windows = rng.normal(scale=3.0, size=(4, 6, 3))
    params.W.value[:] = 0.0
    params.U.value[:] = 0.0
    params.b.value[:15] = np.where(np.arange(15) % 2, 1000.0, -1000.0)
    _, trace = viewed_forward(windows, params)
    for k, gate in enumerate((trace.f, trace.i, trace.o)):
        want = sigmoid(params.b.value[5 * k:5 * (k + 1)])
        assert set(want.tolist()) == {0.0, 1.0}
        assert np.all(gate == want)
    assert np.all(np.isfinite(trace.gates)) and np.all(np.isfinite(trace.hidden))


# The four train variants with both head inputs, at sizes where the BLAS
# products run blocked kernels, and a weighted_flatten head over one full
# HEAD_BLOCK of steps and one partial block.
ORACLE_CONFIGS = [
    ModelConfig(n_features=n, hidden=16, horizon=3, lookback=12, attention=att, head_input=head)
    for n in (5, 1) for att in (True, False) for head in ("weighted_flatten", "context")
] + [ModelConfig(n_features=5, hidden=16, horizon=3, lookback=17)]


def config_id(cfg):
    """Names the lookback only where it is not the common 12."""
    lookback = "" if cfg.lookback == 12 else f"-p{cfg.lookback}"
    return f"n{cfg.n_features}-att{int(cfg.attention)}-{cfg.head_input}{lookback}"


def oracle_case(cfg, B):
    """Seeded parameters with a random bias, and a (B, p, n) batch."""
    params = ModelParams.init(cfg, 41)
    params.b.value[:] = np.random.default_rng(2).normal(size=params.b.value.shape)
    windows = np.random.default_rng(B).uniform(-1.0, 2.0, size=(B, cfg.lookback, cfg.n_features))
    return params, windows


@pytest.mark.usefixtures("float64_steps")
@pytest.mark.parametrize("B", [1, 3, 32, 257])
@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=config_id)
def test_forward_batch_matches_whole_batch_oracle_bitwise(cfg, B):
    """The batch-last stacked-GEMM forward matches the row-major whole-batch
    projection followed by ``sigmoid`` within ``assert_close``, not bit for
    bit: the stacked GEMM sums each pre-activation in its own order. (The
    name is kept from the bitwise check this test made before that GEMM, so
    that its recorded ids carry over.)"""
    params, windows = oracle_case(cfg, B)
    _, want = whole_batch_forward(windows, params)
    assert_trace_close(viewed_forward(windows, params)[1], want)


@pytest.mark.usefixtures("float64_steps")
@pytest.mark.parametrize("B", [1, 32])
def test_forward_batch_matches_whole_batch_oracle_at_paper_size(B):
    params = ModelParams.init(ModelConfig(n_features=22), 6)
    windows = np.random.default_rng(B).uniform(0.0, 1.0, size=(B, 96, 22))
    _, want = whole_batch_forward(windows, params)
    assert_trace_close(viewed_forward(windows, params)[1], want)


@pytest.mark.parametrize("B", [1, 3, 257])
@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=config_id)
def test_tape_free_forward_runs_the_same_loop(cfg, B):
    """A tape-free call gives the bits of a taped one and keeps no tape."""
    params, windows = oracle_case(cfg, B)
    out, taped = viewed_forward(windows, params)
    got, trace = viewed_forward(windows, params, tape=False)
    assert got.tobytes() == out.tobytes()
    for name in TAPE_FREE_FIELDS:
        a, b = getattr(trace, name), getattr(taped, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), name
    for name in ("gates", "f", "i", "o", "chat", "cell"):
        assert getattr(trace, name) is None, name


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=config_id)
def test_trace_holds_the_loops_batch_last_buffers(cfg):
    """A taped trace keeps the loop's own C-contiguous (p, H, B) hidden
    states, (p, 4H, B) gates and (p, H, B) cells, with no batch-first copy
    or view, and no (head_dim, B) head input."""
    params, windows = oracle_case(cfg, 3)
    _, trace = forward_batch(windows, params)
    p, H = cfg.lookback, cfg.hidden
    for name, shape in (("hidden", (p, H, 3)), ("gates", (p, 4 * H, 3)), ("cell", (p, H, 3))):
        arr = getattr(trace, name)
        assert arr.shape == shape and arr.flags.c_contiguous, name
    assert not hasattr(trace, "head_in")


def test_tape_free_forward_peaks_below_the_tape_it_skips():
    """At paper size and B = 256, a tape-free call allocates less at its
    peak than the (p, 4H, B) gate tape alone."""
    params = ModelParams.init(ModelConfig(n_features=22), 6)
    windows = np.random.default_rng(0).uniform(0.0, 1.0, size=(256, 96, 22))
    tape_bytes = 8 * 96 * 4 * 96 * 256
    tracemalloc.start()
    try:
        forward_batch(windows, params, tape=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tape_bytes


@pytest.mark.parametrize("B, tape", [(64, True), (256, False)])
def test_forward_never_holds_the_weighted_flatten_head_input(B, tape):
    """At paper size a forward allocates, at its peak beyond the arrays its
    trace keeps, less than the (p H, B) input of the weighted_flatten head:
    the head sums a_t (W_out,t h_t) over blocks of steps instead."""
    params = ModelParams.init(ModelConfig(n_features=22), 6)
    windows = np.random.default_rng(B).uniform(0.0, 1.0, size=(B, 96, 22))
    tracemalloc.start()
    try:
        _, trace = forward_batch(windows, params, tape=tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(getattr(trace, name).nbytes for name in ("gates", "cell", *TAPE_FREE_FIELDS)
               if getattr(trace, name) is not None)
    assert peak - held < 96 * 96 * B * 8


@pytest.mark.parametrize("cfg_kwargs", HEAD_CONFIGS)
def test_headless_forward_stops_after_attention_weights(cfg_kwargs):
    params = tiny_params(seed=33, **cfg_kwargs)
    windows = np.random.default_rng(16).uniform(0, 1, size=(6, 4, 2))
    _, full = viewed_forward(windows, params)
    out, trace = viewed_forward(windows, params, head=False)
    assert out is None
    for name in ("gates", "cell", "hidden", "scores", "weights"):
        a, b = getattr(trace, name), getattr(full, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), name
    assert (trace.weights is None) == (not params.config.attention)
    assert trace.context is trace.head_in is trace.pre_head is trace.output is None


# ---------------------------------------------------------------------------
# attention, read from the forward trace
# ---------------------------------------------------------------------------

def test_attention_single_step_weight_one():
    params = ModelParams.init(
        ModelConfig(n_features=2, hidden=3, lookback=1, head_input="context"), 3)
    window = np.random.default_rng(1).normal(size=(1, 2))
    _, trace = forward(window, params)
    assert trace.weights[:, 0].tolist() == [1.0]
    assert np.array_equal(trace.context[0], trace.hidden[0, 0])


def test_attention_identical_states_uniform():
    params = ModelParams.init(
        ModelConfig(n_features=2, hidden=3, lookback=5, head_input="context"), 3)
    params.U.value[:] = 0.0
    params.b.value[:3] = -1000.0  # forget gate shut: C_t = i Chat at every step
    window = np.tile(np.random.default_rng(2).uniform(size=2), (5, 1))
    _, trace = forward(window, params)
    h = trace.hidden[0, 0]
    assert np.max(np.abs(trace.hidden[:, 0] - h)) == 0.0
    assert np.allclose(trace.weights[:, 0], 0.2, atol=1e-12)
    assert np.max(np.abs(trace.context[0] - h)) < 1e-12


def test_attention_hand_computed():
    params = ModelParams.init(
        ModelConfig(n_features=2, hidden=2, lookback=3, head_input="context"), 4)
    params.W_a.value[0] = [1.0, -1.0]
    params.b_a.value[0] = 0.5
    window = np.random.default_rng(3).uniform(size=(3, 2))
    _, trace = forward(window, params)
    hs = trace.hidden[:, 0]
    scores = np.tanh(hs @ np.array([1.0, -1.0]) + 0.5)
    expected_w = np.exp(scores - scores.max())
    expected_w /= expected_w.sum()
    assert np.max(np.abs(trace.weights[:, 0] - expected_w)) < 1e-12
    assert np.max(np.abs(trace.context[0] - expected_w @ hs)) < 1e-12


def test_attention_requires_attention_layer(tmp_path):
    params = tiny_params(attention=False)
    assert params.W_a is None and params.b_a is None
    _, trace = viewed_forward(np.random.default_rng(4).normal(size=(3, 4, 2)), params)
    assert trace.scores is None and trace.weights is None and trace.context is None
    assert np.array_equal(trace.head_in, trace.hidden[-1])
    # an attention model's checkpoint must carry its attention layer
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, tiny_params())
    drop_w_a, error = CHECKPOINT_CORRUPTIONS["name_missing"]
    drop_w_a(path)
    with pytest.raises(error):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_zero_everything_gives_zero_forecast():
    params = ModelParams(TINY)
    out, trace = forward(np.zeros((4, 2)), params)
    assert np.array_equal(out, np.zeros(2))
    assert np.all(trace.output >= 0)


def test_forward_forecast_nonnegative_random():
    rng = np.random.default_rng(4)
    params = tiny_params(seed=9)
    for _ in range(20):
        out, _ = forward(rng.uniform(0, 1, size=(4, 2)), params)
        assert np.all(out >= 0)


def test_forward_attention_weights_sum_to_one_100_draws():
    rng = np.random.default_rng(5)
    params = tiny_params(seed=11)
    for _ in range(100):
        _, trace = forward(rng.uniform(0, 1, size=(4, 2)), params)
        w = trace.weights[:, 0]
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) < 1e-9


def test_forward_gate_ranges():
    rng = np.random.default_rng(6)
    params = tiny_params(seed=13)
    _, trace = viewed_forward(rng.uniform(0, 1, size=(8, 4, 2)), params)
    for arr in (trace.f, trace.i, trace.o):
        assert np.all(arr > 0) and np.all(arr < 1)
    assert np.all(trace.chat > -1) and np.all(trace.chat < 1)


def test_forward_nan_input_names_stage():
    params = tiny_params()
    window = np.zeros((4, 2))
    window[1, 1] = np.nan
    with pytest.raises(NumericError) as err:
        forward(window, params)
    assert "input" in str(err.value)


def test_forward_permutation_sensitivity():
    rng = np.random.default_rng(7)
    params = tiny_params(seed=15)
    window = rng.uniform(0, 1, size=(4, 2))
    base = predict(window, params)
    permuted = predict(window[::-1].copy(), params)
    assert not np.allclose(base, permuted)


@pytest.mark.usefixtures("float64_steps")
def test_forward_batch_equals_single_window_loop():
    rng = np.random.default_rng(8)
    params = tiny_params(seed=17)
    windows = rng.uniform(0, 1, size=(6, 4, 2))
    batch_out, _ = forward_batch(windows, params)
    for j in range(6):
        single, _ = forward(windows[j], params)
        assert np.max(np.abs(single - batch_out[j])) < 1e-12


def test_forward_feature_width_checked():
    params = tiny_params()
    with pytest.raises(ShapeError):
        forward(np.zeros((4, 3)), params)


def test_model_inputs_is_a_view_of_the_leading_columns():
    params = tiny_params()
    windows = np.random.default_rng(4).normal(size=(5, 4, 6))
    inputs = model_inputs(windows, params.config)
    assert inputs.shape == (5, 4, 2) and inputs.base is windows
    assert np.array_equal(inputs, windows[:, :, :2])
    assert np.array_equal(forward_batch(inputs, params)[0],
                          forward_batch(np.ascontiguousarray(windows[:, :, :2]), params)[0])
    with pytest.raises(ShapeError):  # narrower than n_features
        forward_batch(model_inputs(windows[:, :, :1], params.config), params)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_zero_upstream_zero_grads():
    """Zero upstream gradient: every parameter gradient is written as zero
    over a stale arena, and the input gradient of the row-major oracle is
    zero too (``backward`` computes none)."""
    rng = np.random.default_rng(9)
    params = tiny_params(seed=19)
    windows = rng.uniform(0, 1, size=(3, 4, 2))
    out, trace = forward_batch(windows, params)
    params.grad[:] = 1.0
    backward(trace, np.zeros_like(out), params)
    for t in params.tensors():
        assert np.array_equal(t.grad, np.zeros_like(t.grad))
    oracle = SeparateParams(params)
    d_in = row_major_backward(whole_batch_forward(windows, oracle)[1], np.zeros_like(out), oracle)
    assert np.array_equal(d_in, np.zeros_like(d_in))


@pytest.mark.usefixtures("float64_steps")
@pytest.mark.parametrize("cfg_kwargs", HEAD_CONFIGS)
def test_backward_matches_finite_differences(cfg_kwargs):
    rng = np.random.default_rng(10)
    params = tiny_params(seed=21, **cfg_kwargs)
    X = rng.uniform(0, 1, size=(5, 4, 2))
    Y = rng.uniform(0, 1, size=(5, 2))

    def loss():
        out, _ = forward_batch(X, params)
        return mse(out, Y)

    out, trace = forward_batch(X, params)
    backward(trace, 2.0 * (out - Y) / out.size, params)
    # the input gradient, which ``backward`` does not compute, of the
    # row-major oracle that test_backward_matches_row_major_oracle pins
    oracle = SeparateParams(params)
    d_in = row_major_backward(whole_batch_forward(X, oracle)[1], 2.0 * (out - Y) / out.size,
                              oracle)

    for tensor in params.tensors():
        numeric = central_difference(loss, tensor.value)
        assert np.max(relative_error(tensor.grad, numeric)) < 1e-4, tensor.name
    numeric_in = central_difference(loss, X)
    assert np.max(relative_error(d_in, numeric_in)) < 1e-4


def test_backward_attention_simplex_constraint():
    # perturbing the attention parameters must leave sum(a_t) = 1: the
    # directional derivative of the weight sum is zero
    rng = np.random.default_rng(11)
    params = tiny_params(seed=23)
    window = rng.uniform(0, 1, size=(4, 2))
    direction = rng.normal(size=params.W_a.value.shape)
    eps = 1e-6

    def weight_sum():
        _, trace = forward(window, params)
        return float(trace.weights[:, 0].sum())

    params.W_a.value += eps * direction
    up = weight_sum()
    params.W_a.value -= 2 * eps * direction
    down = weight_sum()
    params.W_a.value += eps * direction
    assert abs((up - down) / (2 * eps)) < 1e-8


@pytest.mark.usefixtures("float64_steps")
@pytest.mark.parametrize("B", [1, 3, 32])
@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=config_id)
def test_backward_matches_row_major_oracle(cfg, B):
    """Every parameter gradient matches the row-major BPTT oracle within
    ``assert_close``, but that of the score bias ``b_a``: one sum of p B
    softmax terms that cancel, whose error is bounded by REL_TOL times the
    summed magnitudes of those terms, as the oracle computes them."""
    params, windows = oracle_case(cfg, B)
    oracle = SeparateParams(params)
    d_out = np.random.default_rng(B + 1).normal(size=(B, cfg.horizon))
    out, trace = forward_batch(windows, params)
    backward(trace, d_out, params)
    want_out, want = whole_batch_forward(windows, oracle)
    row_major_backward(want, d_out, oracle)
    assert_close(out, want_out, "output")
    for t, o in zip(params.tensors(), oracle.tensors()):
        assert np.any(o.grad != 0.0), t.name
        if t.name == "b_a":
            assert abs(t.grad[0] - o.grad[0]) <= REL_TOL * np.sum(np.abs(want.d_raw)), t.name
        else:
            assert_close(t.grad, o.grad, t.name)


@pytest.mark.parametrize("B", [1, 32])
@pytest.mark.parametrize("cfg", ORACLE_CONFIGS + [ModelConfig(n_features=22)], ids=config_id)
def test_float32_steps_stay_within_the_stated_tolerances_of_float64(monkeypatch, cfg, B):
    """The float32 arena and recurrence move the forecasts, the attention
    weights and each gradient from the float64 path's, on the same seeded
    draws, by at most ``FLOAT32_TOL`` of the float64 array's largest
    magnitude."""
    d_out = np.random.default_rng(B + 1).normal(size=(B, cfg.horizon))
    runs = []
    for dtype in (np.float64, np.float32):
        monkeypatch.setattr(lstm_att, "DTYPE", dtype)
        params, windows = oracle_case(cfg, B)
        out, trace = forward_batch(windows, params)
        backward(trace, d_out, params)
        runs.append({"output": out, "weights": trace.weights,
                     **{t.name: t.grad.copy() for t in params.tensors()}})
    want, got = runs
    assert list(want) == ["output", "weights", *(t.name for t in params.tensors())]
    for name, tol in FLOAT32_TOL.items():
        if want.get(name) is not None:
            assert np.max(np.abs(got[name] - want[name])) <= tol * np.max(np.abs(want[name])), name


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=config_id)
def test_arena_tape_and_moments_are_float32_while_scores_and_head_sums_stay_float64(cfg):
    """By default the parameter arena, its gradient, Adam's moments, the
    hidden states and the gate and cell tape are float32; the attention
    scores and weights, the head's pre-activation and the forecasts are
    float64."""
    assert lstm_att.DTYPE is np.float32
    params, windows = oracle_case(cfg, 3)
    out, trace = forward_batch(windows, params)
    dtypes = {name: getattr(trace, name).dtype for name in ("hidden", "gates", "cell", "scores",
                                                            "weights", "pre_head", "output")
              if getattr(trace, name) is not None}
    assert dtypes == {name: np.float32 if name in ("hidden", "gates", "cell") else np.float64
                      for name in dtypes}
    assert forward_batch(windows, params, tape=False)[1].hidden.dtype == np.float32
    backward(trace, np.ones_like(out), params)
    state = AdamState(params.value)
    adam_step(params.value, params.grad, state, lr=0.01)
    assert out.dtype == np.float64
    assert [a.dtype for a in (params.value, params.grad, state.m, state.v)] == [np.float32] * 4


def test_one_window_forecast_stays_within_float32_tol_of_its_chunked_row():
    """A window's forecast depends on the width of the batch it is forecast
    in (OpenBLAS picks its float32 GEMM kernels by width): ``predict`` on
    one window and the same row of a ``forecast`` in chunks of
    ``FORWARD_BATCH`` differ by at most ``FLOAT32_TOL["output"]`` of the
    forecasts' largest magnitude, at paper size."""
    params = ModelParams.init(ModelConfig(n_features=22), 6)
    params.b_out.value[:] = 0.1  # every output alive
    windows = np.random.default_rng(7).uniform(0.0, 1.0, size=(FORWARD_BATCH + 8, 96, 22))
    chunked = forecast(windows, params)
    scale = np.max(np.abs(chunked))
    for j in (0, 5, FORWARD_BATCH - 1, FORWARD_BATCH + 3):
        assert np.max(np.abs(predict(windows[j], params) - chunked[j])) <= (
            FLOAT32_TOL["output"] * scale), j


def test_forecast_equals_its_chunks_bitwise():
    """On the default float32 path, ``forecast`` of 257 windows gives the bits
    of its two tape-free ``forward_batch`` chunks, of 256 windows and of 1."""
    params = ModelParams.init(ModelConfig(n_features=3, hidden=4, horizon=8, lookback=8), 5)
    inputs = np.random.default_rng(6).uniform(size=(FORWARD_BATCH + 1, 8, 3))
    chunks = [forward_batch(inputs[lo:lo + FORWARD_BATCH], params, tape=False)[0]
              for lo in (0, FORWARD_BATCH)]
    assert forecast(inputs, params).tobytes() == np.concatenate(chunks).tobytes()


@pytest.mark.parametrize("rows, inner, B, products", [
    (384, 119, 21, [384]),  # 959,616 multiply-adds: one small product
    (384, 119, 22, [192, 192]),  # 1,005,312, halves of 502,656
    (384, 119, 43, [192, 192]),  # 1,964,928, halves of 982,464
    (384, 119, 44, [384]),  # 2,010,624: halves of 1,005,312 are not small
    (97, 388, 32, [49, 48]),  # an odd row count, as U^T g with H = 97
])
def test_step_gemm_takes_row_halves_only_where_both_are_small(monkeypatch, rows, inner, B,
                                                               products):
    """``_matmul`` takes two row halves exactly when the whole product is
    above 100^3 multiply-adds and its larger half is not (the forward's gate
    GEMM at n = 22 and H = 96 is 384 x 119 x B), and its result equals one
    ``np.matmul`` within ``assert_close``; ``a`` is a transposed view, as
    BPTT's ``U^T`` is."""
    rng = np.random.default_rng(B)
    a, b = rng.normal(size=(inner, rows)).T, rng.normal(size=(inner, B))
    want = np.matmul(a, b)
    taken = []

    def matmul(x, y, out):
        taken.append(len(x))
        return np.matmul(x, y, out=out)

    monkeypatch.setattr(lstm_att, "np", SimpleNamespace(matmul=matmul))
    got = np.empty((rows, B))
    lstm_att._matmul(a, b, got)
    assert taken == products
    assert_close(got, want, "product")


def test_backward_tape_reuse_rejected():
    """Backward consumes its trace: it drops the tape, and a second call is
    a TapeError."""
    rng = np.random.default_rng(12)
    params = tiny_params(seed=25)
    out, trace = forward_batch(rng.uniform(0, 1, size=(2, 4, 2)), params)
    backward(trace, np.zeros_like(out), params)
    assert trace.gates is None and trace.cell is None
    with pytest.raises(TapeError, match="consumed by backward"):
        backward(trace, np.zeros_like(out), params)


@pytest.mark.parametrize("cfg_kwargs", HEAD_CONFIGS)
def test_backward_writes_over_stale_gradients(cfg_kwargs):
    """Backward writes the gradients of its one call: over an arena of
    seeded noise it leaves the bytes it leaves in a fresh, zeroed one."""
    rng = np.random.default_rng(14)
    params = tiny_params(seed=29, **cfg_kwargs)
    X = rng.uniform(0, 1, size=(5, 4, 2))
    d_out = rng.normal(size=(5, 2))
    backward(forward_batch(X, params)[1], d_out, params)
    fresh = params.grad.tobytes()
    params.grad[:] = rng.normal(size=params.grad.size)
    backward(forward_batch(X, params)[1], d_out, params)
    assert params.grad.tobytes() == fresh


def test_backward_through_a_dead_head_writes_positive_zeros():
    """With every output at the ReLU floor and a negative upstream gradient,
    each gradient is +0.0, the bits a sum into a zeroed arena gave, not -0.0."""
    params = tiny_params(seed=29)
    params.b_out.value[:] = -1e3
    out, trace = forward_batch(np.random.default_rng(15).uniform(0, 1, size=(3, 4, 2)), params)
    assert np.all(trace.pre_head < 0)
    params.grad[:] = 1.0
    backward(trace, -np.ones_like(out), params)
    assert params.grad.tobytes() == np.zeros_like(params.grad).tobytes()


def test_backward_peaks_under_5_mb_beyond_its_tape():
    """At paper size and B = 32, backward allocates under 5 MB at its peak
    beyond the forward's buffers: the gate gradient goes over the gate tape
    and the W_out gradient straight into the arena."""
    params = ModelParams.init(ModelConfig(n_features=22), 6)
    windows = np.random.default_rng(0).uniform(0.0, 1.0, size=(32, 96, 22))
    out, trace = forward_batch(windows, params)
    d_out = np.random.default_rng(1).normal(size=out.shape)
    tracemalloc.start()
    try:
        backward(trace, d_out, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_backward_rejects_headless_trace():
    """A headless or tape-free trace is a TapeError that touches no gradient."""
    params = tiny_params(seed=25)
    for kwargs in ({"head": False}, {"tape": False}):
        _, trace = forward_batch(np.random.default_rng(12).uniform(0, 1, size=(2, 4, 2)),
                                 params, **kwargs)
        with pytest.raises(TapeError):
            backward(trace, np.ones((2, 2)), params)
        assert np.array_equal(params.grad, np.zeros_like(params.grad)), kwargs


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

# The four train variants (n_features, attention), each with both head inputs.
CHECKPOINT_CONFIGS = [
    ModelConfig(n_features=n, hidden=3, horizon=2, lookback=4, attention=att, head_input=head)
    for n in (2, 1) for att in (True, False) for head in ("weighted_flatten", "context")
]


def edge_values(dtype):
    """Values of ``dtype`` whose bits a text or decimal round trip could
    lose: -0.0, the smallest subnormal and the largest finite magnitudes."""
    info = np.finfo(dtype)
    return [-0.0, info.smallest_subnormal, info.max, -info.max]


def test_checkpoint_round_trip_bit_exact(tmp_path, monkeypatch):
    """Every variant and head input loads back bit for bit, -0.0, a
    subnormal and the largest finite magnitudes included, with a float32
    arena (the default) and a float64 one."""
    path = tmp_path / "model.json"
    for dtype in (np.float32, np.float64):
        monkeypatch.setattr(lstm_att, "DTYPE", dtype)
        edges = edge_values(dtype)
        for k, cfg in enumerate(CHECKPOINT_CONFIGS):
            params = ModelParams.init(cfg, 27 + k)
            for t in params.tensors():
                t.value.flat[:len(edges)] = edges[:t.value.size]
            save_checkpoint(path, params, {"seed": 27, "variant": "multivariate_lstm_att"})
            loaded, meta = load_checkpoint(path)
            assert meta == {"seed": 27, "variant": "multivariate_lstm_att"}
            assert loaded.config == cfg and loaded.value.dtype == dtype
            assert [t.name for t in loaded.tensors()] == [t.name for t in params.tensors()]
            for a, b in zip(params.tensors(), loaded.tensors()):
                assert a.value.shape == b.value.shape and a.value.tobytes() == b.value.tobytes()
    params = tiny_params(seed=27)
    save_checkpoint(path, params)
    window = np.random.default_rng(1).uniform(0, 1, size=(4, 2))
    assert np.array_equal(predict(window, params), predict(window, load_checkpoint(path)[0]))


@pytest.mark.parametrize("cfg", CHECKPOINT_CONFIGS)
def test_checkpoint_header_line_then_raw_payload_in_the_arena_dtype(tmp_path, cfg):
    """The file is the JSON header line, naming the v4 format and the
    payload dtype, then each tensor's little-endian float32 bytes in
    tensors() order and nothing else."""
    path = tmp_path / "model.json"
    params = ModelParams.init(cfg, 5)
    save_checkpoint(path, params, {"note": "line\nbreak"})
    header, payload = split_checkpoint(path)
    assert list(header) == ["format", "dtype", "model", "params", "note"]
    assert header["format"] == "demandcast/checkpoint-v4" and header["dtype"] == "<f4"
    assert header["note"] == "line\nbreak"
    assert header["params"] == {t.name: {"shape": list(t.value.shape)}
                                for t in params.tensors()}
    assert payload == b"".join(t.value.astype("<f4").tobytes() for t in params.tensors())
    assert payload == params.value.tobytes()
    assert load_checkpoint(path)[1] == {"note": "line\nbreak"}


# float64 values and the float32 values a v3 payload rounds them to, to
# nearest (ties to even): the largest float32 and the halfway point above
# it, 1/3, a tie between two float32 neighbours, a float32 subnormal, a
# value below half the smallest one, and -0.0.
V3_ROUNDING = [
    (3.4028234663852886e38, 3.4028234663852886e38),
    (3.4028235677973366e38, np.inf),
    (1.0 / 3.0, 0.3333333432674408),
    (1.0 + 2.0 ** -24, 1.0),
    (1e-40, 9.99994610111476e-41),
    (7e-46, 0.0),
    (-0.0, -0.0),
]


def test_checkpoint_v3_loads_rounded_into_the_float32_arena(tmp_path, monkeypatch):
    """A v3 file (no payload dtype, a float64 payload) loads into the
    float32 arena with each value rounded to nearest, ties to even, one
    too large for float32 becoming infinite with no warning; into a float64
    arena it loads bit for bit. Its metadata is the v4 file's."""
    path = tmp_path / "model.json"
    cfg = CHECKPOINT_CONFIGS[0]
    monkeypatch.setattr(lstm_att, "DTYPE", np.float64)
    params = ModelParams.init(cfg, 5)
    params.value[:len(V3_ROUNDING)] = [v for v, _ in V3_ROUNDING]
    save_checkpoint(path, params, {"seed": 5})
    as_checkpoint_v3(path)
    header, payload = split_checkpoint(path)
    assert header["format"] == "demandcast/checkpoint-v3" and "dtype" not in header
    assert payload == params.value.astype("<f8").tobytes()
    assert load_checkpoint(path)[0].value.tobytes() == params.value.tobytes()
    monkeypatch.setattr(lstm_att, "DTYPE", np.float32)
    loaded, meta = load_checkpoint(path)
    assert meta == {"seed": 5} and loaded.value.dtype == np.float32
    assert loaded.value[:len(V3_ROUNDING)].tolist() == [r for _, r in V3_ROUNDING]
    assert np.signbit(loaded.value[len(V3_ROUNDING) - 1])
    with np.errstate(over="ignore"):
        assert loaded.value.tobytes() == params.value.astype(np.float32).tobytes()


def test_checkpoint_bad_format_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ConfigError):
        load_checkpoint(path)


@pytest.mark.parametrize("case", sorted(CHECKPOINT_CORRUPTIONS))
def test_checkpoint_malformed_is_config_error(tmp_path, case):
    """Each broken file is a ConfigError, or a ShapeError where a header
    shape is not the model's; a v2 file names its format, a v4 header its
    unknown payload dtype, and a payload checked against its dtype's item
    size (float32 bytes under a '<f8' header) both byte counts."""
    path = tmp_path / "model.json"
    params = tiny_params(seed=27)
    save_checkpoint(path, params, {"seed": 27})
    corrupt, error = CHECKPOINT_CORRUPTIONS[case]
    corrupt(path)
    with pytest.raises(error) as info:
        load_checkpoint(path)
    message = {
        "v2": "unrecognized checkpoint format: 'demandcast/checkpoint-v2'",
        "unknown_dtype": "checkpoint payload dtype '<f2' is not '<f4' or '<f8'",
        "float64_dtype_on_float32_payload": (
            f"checkpoint {path} holds {params.value.nbytes} payload bytes; "
            f"its parameter shapes call for {2 * params.value.nbytes}"),
    }.get(case)
    assert message is None or str(info.value) == message


@pytest.mark.parametrize("case", ["huge_model", "huge_model_and_shapes"])
def test_checkpoint_claiming_a_huge_model_allocates_nothing(tmp_path, case):
    """A header that claims a terabyte model fails its check against the
    file before anything is allocated; a payload of the wrong size names
    both byte counts."""
    path = tmp_path / "model.json"
    params = tiny_params(seed=27)
    save_checkpoint(path, params, {"seed": 27})
    corrupt, error = CHECKPOINT_CORRUPTIONS[case]
    corrupt(path)
    tracemalloc.start()
    try:
        with pytest.raises(error) as info:
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    if case == "huge_model":
        assert str(info.value) == (f"checkpoint parameter 'W' has shape (12, 2), "
                                   f"expected ({4 * HUGE_HIDDEN}, 2)")
    else:
        assert f"holds {params.value.nbytes} payload bytes" in str(info.value)
        assert str(4 * (4 * HUGE_HIDDEN * (2 + HUGE_HIDDEN + 1) + HUGE_HIDDEN + 1
                        + 2 * 4 * HUGE_HIDDEN + 2)) in str(info.value)


def test_checkpoint_shrinking_while_read_is_config_error(tmp_path, monkeypatch):
    """A file that loses bytes between its size check and the read is a
    ConfigError, not a model whose last parameters are zero."""
    path = tmp_path / "model.json"
    save_checkpoint(path, tiny_params(seed=27))
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])
    with monkeypatch.context() as mp:
        mp.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=size))
        with pytest.raises(ConfigError, match="shrank while it was read"):
            load_checkpoint(path)


def test_grad_arena_initialized_and_zeroed():
    """The grad arena starts zeroed, and each tensor's grad views it."""
    params = tiny_params(seed=3)
    assert np.array_equal(params.grad, np.zeros_like(params.value))
    params.grad += 1.0
    assert all(np.all(t.grad == 1.0) for t in params.tensors())
