import base64
import json

import numpy as np
import pytest

from demandcast.errors import ConfigError, NumericError, ShapeError, TapeError
from demandcast.lstm_att import (
    CHECKPOINT_FORMAT,
    ModelConfig,
    ModelParams,
    backward,
    forward_batch,
    load_checkpoint,
    save_checkpoint,
)
from demandcast.nn_core import glorot_uniform, recurrent_uniform
from demandcast.train import mse
from helpers import (
    attention,
    central_difference,
    forward,
    lstm_step,
    predict,
    relative_error,
    scalar_lstm_step,
)

TINY = ModelConfig(n_features=2, hidden=3, horizon=2, lookback=4)
HEAD_CONFIGS = [
    {},  # attention + weighted_flatten (default)
    {"head_input": "context"},
    {"attention": False},
]
# Row-block order of the stacked W, U and b, written out here so that the
# tests pin the layout instead of reading it from the module.
LAYOUT = ("f", "i", "o", "C")


def tiny_params(seed=3, **cfg_kwargs):
    cfg = ModelConfig(n_features=2, hidden=3, horizon=2, lookback=4, **cfg_kwargs)
    return ModelParams.init(cfg, seed)


def gate_blocks(params):
    """Per-gate views of the stacked W, U and b, keyed by gate name."""
    H = params.config.hidden

    def split(arr):
        return {g: arr[k * H:(k + 1) * H] for k, g in enumerate(LAYOUT)}

    return split(params.W.value), split(params.U.value), split(params.b.value)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg_kwargs", HEAD_CONFIGS)
def test_init_stacked_blocks_match_per_gate_draws(cfg_kwargs):
    cfg = ModelConfig(n_features=3, hidden=4, horizon=2, lookback=5, **cfg_kwargs)
    params = ModelParams.init(cfg, 31)
    rng = np.random.default_rng(31)
    W = {g: glorot_uniform(rng, 4, 3) for g in ("f", "i", "C", "o")}
    U = {g: recurrent_uniform(rng, 4, 4) for g in ("f", "i", "C", "o")}
    W_a = glorot_uniform(rng, 1, 4) if cfg.attention else None
    W_out = glorot_uniform(rng, 2, cfg.head_dim)

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
    _, trace = forward_batch(np.zeros((1, 4, 2)), params)
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
    _, trace = forward_batch(rng.normal(size=(3, 4, 2)), params)
    expected = trace.cell[:-1] + trace.i[1:] * trace.chat[1:]
    assert np.max(np.abs(trace.cell[1:] - expected)) < 1e-9


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


@pytest.mark.parametrize("cfg_kwargs", HEAD_CONFIGS)
def test_forward_batch_matches_numpy_oracles(cfg_kwargs):
    rng = np.random.default_rng(14)
    params = tiny_params(seed=29, **cfg_kwargs)
    cfg = params.config
    windows = rng.uniform(0, 1, size=(5, 4, 2))
    out, trace = forward_batch(windows, params)
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
    _, trace = forward_batch(np.random.default_rng(4).normal(size=(3, 4, 2)), params)
    assert trace.scores is None and trace.weights is None and trace.context is None
    assert np.array_equal(trace.head_in, trace.hidden[-1])
    # an attention model's checkpoint must carry its attention layer
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, tiny_params())
    doc = json.loads(path.read_text())
    del doc["params"]["W_a"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
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
    _, trace = forward_batch(rng.uniform(0, 1, size=(8, 4, 2)), params)
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


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_zero_upstream_zero_grads():
    rng = np.random.default_rng(9)
    params = tiny_params(seed=19)
    out, trace = forward_batch(rng.uniform(0, 1, size=(3, 4, 2)), params)
    params.zero_grad()
    d_in = backward(trace, np.zeros_like(out), params)
    assert np.array_equal(d_in, np.zeros_like(d_in))
    for t in params.tensors():
        assert np.array_equal(t.grad, np.zeros_like(t.grad))


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
    params.zero_grad()
    d_in = backward(trace, 2.0 * (out - Y) / out.size, params)

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


def test_backward_tape_reuse_rejected():
    rng = np.random.default_rng(12)
    params = tiny_params(seed=25)
    out, trace = forward_batch(rng.uniform(0, 1, size=(2, 4, 2)), params)
    backward(trace, np.zeros_like(out), params)
    with pytest.raises(TapeError):
        backward(trace, np.zeros_like(out), params)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = tiny_params(seed=27)
    path = tmp_path / "model.json"
    save_checkpoint(path, params, {"seed": 27, "variant": "multivariate_lstm_att"})
    assert json.loads(path.read_text())["format"] == "demandcast/checkpoint-v2"
    loaded, meta = load_checkpoint(path)
    assert meta == {"seed": 27, "variant": "multivariate_lstm_att"}
    assert loaded.config == params.config
    for a, b in zip(params.tensors(), loaded.tensors()):
        assert a.name == b.name
        assert np.array_equal(a.value, b.value)
    window = np.random.default_rng(1).uniform(0, 1, size=(4, 2))
    assert np.array_equal(predict(window, params), predict(window, loaded))


def test_checkpoint_bad_format_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def _short_payload(doc):
    raw = base64.b64decode(doc["params"]["W"]["data"])
    doc["params"]["W"]["data"] = base64.b64encode(raw[:-8]).decode("ascii")


def _unknown_model_key(doc):
    doc["model"]["layers"] = 2


CORRUPTIONS = {
    "text": b"{not json",
    "binary": b"\x80\xff\x00\x01",
    "list": b"[]",
    "no_model": lambda doc: doc.pop("model"),
    "no_params": lambda doc: doc.pop("params"),
    "unknown_model_key": _unknown_model_key,
    "bad_base64": lambda doc: doc["params"]["W"].update(data="not*base64!"),
    "short_payload": _short_payload,
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_checkpoint_malformed_is_config_error(tmp_path, case):
    path = tmp_path / "model.json"
    save_checkpoint(path, tiny_params(seed=27), {"seed": 27})
    corrupt = CORRUPTIONS[case]
    if isinstance(corrupt, bytes):
        path.write_bytes(corrupt)
    else:
        doc = json.loads(path.read_text())
        corrupt(doc)
        assert doc["format"] == CHECKPOINT_FORMAT
        path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_checkpoint(path)
