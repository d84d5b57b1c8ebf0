"""Training and evaluation: MSE loss on scaled targets, Adam updates,
chronological batching, and the baseline-variant comparison.

Variants reuse one architecture: the univariate baselines see only the
demand column, and the plain-LSTM baselines feed the last hidden state to
the head instead of the attention context.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .features import SplitDataset, WindowedDataset
from .lstm_att import (
    HEAD_INPUTS,
    ModelConfig,
    ModelParams,
    backward,
    forecast,
    forward_batch,
    model_inputs,
)

VARIANTS = (
    "multivariate_lstm_att",
    "multivariate_lstm",
    "univariate_lstm",
    "univariate_lstm_att",
)


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 15
    batch_size: int = 32
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    variant: str = "multivariate_lstm_att"
    hidden: int = 96
    head_input: str = "weighted_flatten"
    clip_norm: float | None = 5.0
    shuffle: bool = False

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate!r}")
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0), ("hidden", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}")
        if self.head_input not in HEAD_INPUTS:
            raise ConfigError(f"head_input must be one of {HEAD_INPUTS}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ConfigError(f"clip_norm must be null or > 0, got {self.clip_norm!r}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)!r}")
        if not self.eps > 0:
            raise ConfigError(f"eps must be > 0, got {self.eps!r}")

    @property
    def univariate(self) -> bool:
        return self.variant.startswith("univariate")

    @property
    def attention(self) -> bool:
        return self.variant.endswith("_att")


@dataclass
class MetricsReport:
    variant: str
    train_mse: float
    test_mse: float
    wall_time_s: float
    epoch_losses: list[float]
    seed: int


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared difference of two arrays of one shape."""
    diff = pred - target
    return float(np.mean(diff * diff))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class AdamState:
    """First/second moment vectors shaped and typed like the arena ``value``, and the step."""

    def __init__(self, value: np.ndarray):
        self.m = np.zeros_like(value)
        self.v = np.zeros_like(value)
        self.t = 0


# Elements per block of adam_step: a block's slices of the four vectors and
# its two scratch rows (6 x 128 KiB in float32) stay in cache across its 14 passes.
ADAM_BLOCK = 1 << 15


def adam_step(value: np.ndarray, grad: np.ndarray, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One bias-corrected Adam update of the ``value`` vector from ``grad``.

    Adam is elementwise, so a pass over the arena block by block gives the
    bits of a pass per tensor. The moments and the step are updated in
    place, in the operation order of m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*(g*g) and value -= lr*(m/bc1) / (sqrt(v/bc2) + eps),
    so results are bitwise those of the out-of-place formula evaluated in
    the arena's dtype, to which each coefficient is rounded.
    """
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    scratch = np.empty((2, min(ADAM_BLOCK, grad.size)), grad.dtype)
    for lo in range(0, grad.size, ADAM_BLOCK):
        g = grad[lo:lo + ADAM_BLOCK]
        m, v = state.m[lo:lo + ADAM_BLOCK], state.v[lo:lo + ADAM_BLOCK]
        step, denom = scratch[:, :g.size]
        m *= beta1
        m += np.multiply(1.0 - beta1, g, out=step)
        v *= beta2
        np.multiply(g, g, out=step)
        v += np.multiply(1.0 - beta2, step, out=step)
        np.sqrt(np.divide(v, bc2, out=denom), out=denom)
        denom += eps
        np.divide(m, bc1, out=step)
        step *= lr
        step /= denom
        value[lo:lo + ADAM_BLOCK] -= step


def clip_gradients(params: ModelParams, max_norm: float) -> float:
    """Scale the gradient vector so its global L2 norm is at most
    ``max_norm``; returns the norm before scaling. Each tensor's squares,
    exact in float64, are summed in float64 by ``einsum``, which casts in
    buffers, tensor by tensor in ``tensors()`` order: that fixes the bits."""
    total = 0.0
    for t in params.tensors():
        g = t.grad.reshape(-1)
        total += float(np.einsum("i,i->", g, g, dtype=np.float64))
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0.0:
        params.grad *= max_norm / norm
    return float(norm)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def build_model(dataset_width: int, lookback: int, horizon: int,
                config: TrainConfig) -> ModelParams:
    n = 1 if config.univariate else dataset_width
    model_cfg = ModelConfig(n_features=n, hidden=config.hidden, horizon=horizon,
                            lookback=lookback, attention=config.attention,
                            head_input=config.head_input)
    return ModelParams.init(model_cfg, config.seed)


def train(dataset: SplitDataset, config: TrainConfig,
          on_epoch=None) -> tuple[ModelParams, MetricsReport]:
    """Fit the configured variant on the training split.

    Batches run in chronological order unless ``shuffle`` draws a seeded
    permutation per epoch. Targets are clipped to [0,1] for the loss (test
    targets scaled with train statistics can stray slightly outside).
    After each epoch, ``on_epoch(epoch, params)`` is called, if given, with
    the epoch counted from 1; ``cli train`` saves a checkpoint there.
    """
    t0 = time.perf_counter()
    tr = dataset.train
    if len(tr) == 0:
        raise ConfigError("training split is empty")
    params = build_model(tr.inputs.shape[2], tr.lookback, tr.horizon, config)
    state = AdamState(params.value)
    shuffle_rng = np.random.default_rng(config.seed) if config.shuffle else None

    N = len(tr)
    inputs = model_inputs(tr.inputs, params.config)
    targets = np.clip(tr.targets, 0.0, 1.0)
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        order = (shuffle_rng.permutation(N) if shuffle_rng is not None
                 else np.arange(N))
        total = 0.0
        for b, start in enumerate(range(0, N, config.batch_size)):
            idx = order[start:start + config.batch_size]
            X, Y = inputs[idx], targets[idx]
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # finiteness is checked
                    out, trace = forward_batch(X, params)
                    loss = mse(out, Y)
                if not np.isfinite(loss):
                    raise NumericError("loss diverged")
                backward(trace, 2.0 * (out - Y) / out.size, params)
            except NumericError as exc:
                raise NumericError(f"{exc} at epoch {epoch + 1}, batch {b + 1}") from None
            with np.errstate(over="ignore", invalid="ignore"):  # the next forward checks
                if config.clip_norm is not None:
                    clip_gradients(params, config.clip_norm)
                adam_step(params.value, params.grad, state, config.learning_rate,
                          config.beta1, config.beta2, config.eps)
            total += loss * len(idx)
        epoch_losses.append(total / N)
        if on_epoch is not None:
            on_epoch(epoch + 1, params)

    test_mse = evaluate(params, dataset.test)
    report = MetricsReport(
        variant=config.variant,
        train_mse=epoch_losses[-1],
        test_mse=test_mse,
        wall_time_s=time.perf_counter() - t0,
        epoch_losses=epoch_losses,
        seed=config.seed,
    )
    return params, report


def evaluate(params: ModelParams, windows: WindowedDataset) -> float:
    """MSE of the model's ``forecast`` over all windows, against targets
    clipped to [0, 1]; read-only. ``split`` leaves no test split empty."""
    return mse(forecast(windows.inputs, params), np.clip(windows.targets, 0.0, 1.0))
