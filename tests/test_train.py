import copy
import math

import numpy as np
import pytest

from demandcast import lstm_att
from demandcast.errors import ConfigError
from demandcast.features import FeatureSchema, WindowedDataset, build_dataset
from demandcast.lstm_att import (
    FORWARD_BATCH,
    ModelConfig,
    ModelParams,
    backward,
    forecast,
    forward_batch,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
)
from demandcast.synth import SynthConfig, generate
from demandcast.train import (
    ADAM_BLOCK,
    AdamState,
    TrainConfig,
    adam_step,
    clip_gradients,
    evaluate,
    mse,
    train,
)
from helpers import (
    SeparateParams,
    adam_reference_step,
    assert_close,
    float64_norm,
    per_tensor_adam_step,
    per_tensor_clip,
    predict,
    scalar_adam_trajectory,
)


# ---------------------------------------------------------------------------
# mse
# ---------------------------------------------------------------------------

def test_mse_zero_for_equal():
    v = np.array([1.0, 2.0, 3.0])
    assert mse(v, v) == 0.0


def test_mse_hand_value():
    assert mse(np.array([1.0, 1.0]), np.array([0.0, 2.0])) == 1.0


def test_batch_mse_equals_mean_of_window_mses():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=(7, 5))
    target = rng.normal(size=(7, 5))
    batch = mse(pred, target)
    per_window = np.mean([mse(pred[i], target[i]) for i in range(7)])
    assert abs(batch - per_window) < 1e-12


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def test_adam_first_step_magnitude_is_learning_rate():
    value = np.full(4, 10.0)
    grad = np.full(4, 3.7)  # any nonzero constant
    state = AdamState(value)
    adam_step(value, grad, state, lr=0.01)
    update = np.abs(value - 10.0)
    assert np.max(np.abs(update - 0.01)) < 1e-6


def test_adam_zero_gradient_leaves_params():
    value = np.array([1.0, -2.0])
    state = AdamState(value)
    adam_step(value, np.zeros(2), state, lr=0.1)
    assert np.array_equal(value, np.array([1.0, -2.0]))
    assert state.t == 1


def test_adam_matches_scalar_oracle_on_quadratic():
    # f(w) = w^2, gradient 2w, from w=1 with lr=0.1
    value = np.array([1.0])
    grad = np.empty(1)
    state = AdamState(value)
    mine = []
    for _ in range(10):
        grad[:] = 2.0 * value
        adam_step(value, grad, state, lr=0.1)
        mine.append(float(value[0]))
    reference = scalar_adam_trajectory(lambda w: 2.0 * w, 1.0, 0.1, 10)
    assert np.max(np.abs(np.array(mine) - np.array(reference))) < 1e-12


def test_adam_in_place_matches_out_of_place_formula_bitwise():
    """One flat step over three tensors' worth of elements equals the
    out-of-place formula run per tensor, bit for bit, in float64 and in
    float32 (the default arena's), where the formula runs in float32 too."""
    shapes = ((6, 4), (6,), (1,))
    splits = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    for dtype in (np.float64, np.float32):
        rng = np.random.default_rng(3)
        # values well below the step size, so a last-bit change of the step shows
        value = np.concatenate([1e-3 * rng.normal(size=shape).ravel()
                                for shape in shapes]).astype(dtype)
        state = AdamState(value)
        values = np.split(value.copy(), splits)
        ms = [np.zeros_like(v) for v in values]
        vs = [np.zeros_like(v) for v in values]
        for step in range(1, 4):
            grads = [rng.normal(size=shape).ravel().astype(dtype) for shape in shapes]
            adam_step(value, np.concatenate(grads), state, lr=0.01)
            values, ms, vs = adam_reference_step(values, grads, ms, vs, step, lr=0.01)
            for k, (mine, m, v) in enumerate(zip(np.split(value, splits),
                                                 np.split(state.m, splits),
                                                 np.split(state.v, splits))):
                assert mine.dtype == m.dtype == v.dtype == values[k].dtype == dtype
                assert mine.tobytes() == values[k].tobytes()
                assert m.tobytes() == ms[k].tobytes()
                assert v.tobytes() == vs[k].tobytes()


def tiny_arena():
    """A model with 14 parameters in five tensors."""
    return ModelParams(ModelConfig(n_features=1, hidden=1, horizon=1, lookback=1,
                                   attention=False))


def test_clip_gradients_scales_to_max_norm(monkeypatch):
    """With a float64 arena and the default float32 one; the scaled norm is
    1 within a few units in the last place of the arena's dtype."""
    for dtype in (np.float64, np.float32):
        monkeypatch.setattr(lstm_att, "DTYPE", dtype)
        tol = 4 * np.finfo(dtype).eps
        a = tiny_arena()
        a.grad[:3] = [3.0, 4.0, 0.0]  # norm 5
        norm = clip_gradients(a, 1.0)
        assert norm == 5.0
        assert abs(np.linalg.norm(a.grad) - 1.0) < tol
        assert abs(np.linalg.norm(a.W.grad) - 1.0) < tol  # the views see the scaling
        b = tiny_arena()
        b.grad[-2:] = [0.3, 0.4]
        assert abs(clip_gradients(b, 1.0) - 0.5) < tol
        assert np.array_equal(b.grad[-2:], np.array([0.3, 0.4], dtype))  # under the cap


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_clip_norm_sums_in_float64(monkeypatch, dtype):
    """The clip norm of a paper-size arena equals one float64 ``np.sum`` of
    the upcast squares within the two sums' rounding, 2 N eps64 of it, in
    either arena dtype; a float32 sum would be about 1e-7 off."""
    monkeypatch.setattr(lstm_att, "DTYPE", dtype)
    params = ModelParams(ModelConfig(n_features=22))
    params.grad[:] = np.random.default_rng(8).normal(scale=1e-3, size=params.grad.size)
    want = float64_norm([t.grad for t in params.tensors()])
    norm = clip_gradients(params, 2 * want)
    assert abs(norm - want) <= 2 * params.grad.size * np.finfo(np.float64).eps * want


# A cap far below these models' gradient norms, so that every step clips.
TIGHT_CLIP = 1e-3


# The last case's arena spans one full ADAM_BLOCK and part of a second.
@pytest.mark.parametrize("cfg_kwargs", [{}, {"head_input": "context"}, {"attention": False},
                                        {"hidden": 90}])
def test_arena_update_matches_per_tensor_oracle_bitwise(cfg_kwargs):
    """Seeded training steps with clipping: backward over stale gradients,
    clip_gradients and adam_step on the arena give the values and moments of
    the per-tensor loop over separate arrays, bit for bit, on the default
    float32 arena."""
    rng = np.random.default_rng(17)
    cfg = ModelConfig(**{"n_features": 3, "hidden": 4, "horizon": 5, "lookback": 6,
                         **cfg_kwargs})
    params = ModelParams.init(cfg, 41)
    if "hidden" in cfg_kwargs:
        assert ADAM_BLOCK < params.value.size < 2 * ADAM_BLOCK
    oracle = SeparateParams(params)
    state = AdamState(params.value)
    assert params.value.dtype == state.m.dtype == np.float32
    ms = [np.zeros_like(t.value) for t in oracle.tensors()]
    vs = [np.zeros_like(t.value) for t in oracle.tensors()]
    for step in range(1, 5):
        X = rng.uniform(0, 1, size=(7, 6, 3))
        Y = rng.uniform(0, 1, size=(7, 5))
        params.grad[:] = rng.normal(size=params.grad.size)  # stale: backward writes over it
        for t in oracle.tensors():
            t.grad[...] = rng.normal(size=t.grad.shape)
        for model in (params, oracle):
            out, trace = forward_batch(X, model)
            backward(trace, 2.0 * (out - Y) / out.size, model)
        norm = clip_gradients(params, TIGHT_CLIP)
        assert norm > TIGHT_CLIP
        assert norm == per_tensor_clip(oracle.tensors(), TIGHT_CLIP)
        adam_step(params.value, params.grad, state, lr=0.01)
        per_tensor_adam_step(oracle.tensors(), ms, vs, step, lr=0.01)
        for t, o in zip(params.tensors(), oracle.tensors()):
            assert t.name == o.name
            assert t.value.tobytes() == o.value.tobytes(), t.name
            assert t.grad.tobytes() == o.grad.tobytes(), t.name
        assert state.m.tobytes() == b"".join(m.tobytes() for m in ms)
        assert state.v.tobytes() == b"".join(v.tobytes() for v in vs)


# ---------------------------------------------------------------------------
# train / evaluate on a desk-scale dataset
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_dataset():
    series, _ = generate(SynthConfig(days=12, seed=6, start="2022-03-01"))
    return build_dataset(series, FeatureSchema.default(), stride=8)[0]


def desk_config(**kw):
    base = dict(variant="multivariate_lstm_att", epochs=3, seed=5,
                hidden=8, batch_size=16, shuffle=True)
    base.update(kw)
    return TrainConfig(**base)


def test_train_loss_decreases(desk_dataset):
    _, report = train(desk_dataset, desk_config())
    assert report.epoch_losses[-1] < report.epoch_losses[0]
    assert report.train_mse == report.epoch_losses[-1]
    assert report.test_mse >= 0.0


def test_train_deterministic_given_seed(desk_dataset):
    p1, r1 = train(desk_dataset, desk_config())
    p2, r2 = train(desk_dataset, desk_config())
    assert r1.test_mse == r2.test_mse
    for a, b in zip(p1.tensors(), p2.tensors()):
        assert np.array_equal(a.value, b.value)


def test_tensors_stay_arena_views_after_train(desk_dataset):
    """After training with clipping, every tensor's value and grad are still
    the views of the arena at the offsets param_shapes gives."""
    params, _ = train(desk_dataset, desk_config(epochs=1, clip_norm=TIGHT_CLIP))
    shapes = param_shapes(params.config)
    assert [t.name for t in params.tensors()] == list(shapes)
    offset = 0
    for t, shape in zip(params.tensors(), shapes.values()):
        end = offset + math.prod(shape)
        for view, arena in ((t.value, params.value), (t.grad, params.grad)):
            assert view.shape == shape and view.flags.c_contiguous, t.name
            assert np.shares_memory(view, arena[offset:end]), t.name
            assert view.ctypes.data == arena[offset:end].ctypes.data, t.name
        offset = end
    assert offset == params.value.size == params.grad.size


def test_train_univariate_uses_single_column(desk_dataset):
    params, _ = train(desk_dataset, desk_config(variant="univariate_lstm", epochs=1))
    assert params.config.n_features == 1
    assert params.config.attention is False


def test_train_writes_per_epoch_checkpoints(desk_dataset, tmp_path):
    """``on_epoch`` gets each epoch, from 1, with the parameters as they are
    after it; a checkpoint saved there at the last epoch holds the returned
    ones."""
    def on_epoch(epoch, params):
        save_checkpoint(tmp_path / f"epoch_{epoch:03d}.json", params, {"epoch": epoch})

    params, _ = train(desk_dataset, desk_config(epochs=2), on_epoch)
    files = sorted(p.name for p in tmp_path.glob("epoch_*.json"))
    assert files == ["epoch_001.json", "epoch_002.json"]
    first, meta_first = load_checkpoint(tmp_path / "epoch_001.json")
    last, meta_last = load_checkpoint(tmp_path / "epoch_002.json")
    assert (meta_first, meta_last) == ({"epoch": 1}, {"epoch": 2})
    assert np.array_equal(last.value, params.value)
    assert not np.array_equal(first.value, params.value)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(variant="tcn_att")
    with pytest.raises(ConfigError, match="hidden must be >= 1"):
        TrainConfig(hidden=0)
    with pytest.raises(ConfigError, match="head_input must be one of"):
        TrainConfig(head_input="sum")


def test_evaluate_perfect_model_zero_mse(desk_dataset):
    # zero weights and zero bias emit a zero forecast; targets forced to zero
    cfg = ModelConfig(n_features=desk_dataset.test.inputs.shape[2], hidden=4,
                      horizon=desk_dataset.test.horizon,
                      lookback=desk_dataset.test.lookback)
    params = ModelParams(cfg)
    windows = copy.copy(desk_dataset.test)
    windows.targets = np.zeros_like(np.asarray(windows.targets))
    assert evaluate(params, windows) == 0.0


def test_evaluate_constant_half_predictor_closed_form(desk_dataset):
    cfg = ModelConfig(n_features=desk_dataset.test.inputs.shape[2], hidden=4,
                      horizon=desk_dataset.test.horizon,
                      lookback=desk_dataset.test.lookback)
    params = ModelParams(cfg)
    params.b_out.value[:] = 0.5
    targets = np.clip(np.asarray(desk_dataset.test.targets), 0.0, 1.0)
    expected = float(np.mean((0.5 - targets) ** 2))
    assert abs(evaluate(params, desk_dataset.test) - expected) < 1e-12


@pytest.mark.usefixtures("float64_steps")
def test_forecast_and_evaluate_across_the_chunk_edge():
    """257 windows cross ``FORWARD_BATCH``: ``forecast`` gives the bits of
    its two tape-free chunks, and ``evaluate`` the MSE of a per-window loop
    against targets clipped to [0, 1]."""
    cfg = ModelConfig(n_features=3, hidden=4, horizon=8, lookback=8)
    params = ModelParams.init(cfg, 5)
    rng = np.random.default_rng(6)
    N = FORWARD_BATCH + 1
    inputs = rng.uniform(size=(N, 8, 3))
    targets = rng.uniform(-0.2, 1.2, size=(N, 8))
    windows = WindowedDataset(inputs, targets, np.zeros(N, dtype="datetime64[m]"), 8, 8)
    chunks = [forward_batch(inputs[lo:lo + FORWARD_BATCH], params, tape=False)[0]
              for lo in (0, FORWARD_BATCH)]
    assert forecast(inputs, params).tobytes() == np.concatenate(chunks).tobytes()
    loop = np.stack([predict(window, params) for window in inputs])
    want = np.mean((loop - np.clip(targets, 0.0, 1.0)) ** 2)
    assert_close(np.array(evaluate(params, windows)), np.array(want), "test_mse")


def test_evaluate_is_read_only(desk_dataset):
    params, _ = train(desk_dataset, desk_config(epochs=1))
    before = [t.value.copy() for t in params.tensors()]
    evaluate(params, desk_dataset.test)
    for b, t in zip(before, params.tensors()):
        assert np.array_equal(b, t.value)
