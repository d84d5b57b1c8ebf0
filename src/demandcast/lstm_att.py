"""The forecasting model: a single LSTM layer over the input window,
additive attention over its hidden states, and a ReLU dense head that
emits the full multi-step forecast in one shot.

Per step t (input x_t, previous hidden h, previous cell C):

    f_t = sigmoid(W_f x_t + U_f h + b_f)
    i_t = sigmoid(W_i x_t + U_i h + b_i)
    o_t = sigmoid(W_o x_t + U_o h + b_o)
    Chat_t = tanh(W_C x_t + U_C h + b_C)
    C_t = f_t * C + i_t * Chat_t
    h_t = o_t * tanh(C_t)

The four gates are stacked in the order (f, i, o, C): ``W`` is (4H, n),
``U`` is (4H, H) and ``b`` is (4H,), so the three sigmoid gates form one
contiguous block. The forward pass writes the input projection of the
whole batch, one GEMM, into a (p, B, 4H) gate buffer; each step adds one
(B, H) @ (H, 4H) recurrent GEMM to its slice and squashes it in place, so
the gate activations the trace keeps are views of that buffer. BPTT fills
the matching (p, B, 4H) gate-gradient buffer with one GEMM per step and
ends with one GEMM each for dW, dU and the input gradient.

Attention scores e_t = tanh(W_a h_t + b_a) (one scalar per step) are
softmax-normalized over time into weights a_t. The head reads either the
context vector sum(a_t h_t) or the flattened weighted states a_t h_t, and
emits relu(W_out . + b_out); without attention it reads the last h_t.

A checkpoint (``demandcast/checkpoint-v2``) is one JSON document: the
model config, free-form metadata, and every parameter as its shape plus
its row-major little-endian float64 bytes in base64.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError, TapeError
from .nn_core import (
    ParamTensor,
    as_f64,
    assert_finite,
    glorot_uniform,
    matmul,
    recurrent_uniform,
    relu,
    sigmoid,
    softmax,
)

CHECKPOINT_FORMAT = "demandcast/checkpoint-v2"
# Row-block order of the stacked W, U and b: the sigmoid gates first.
GATES = ("f", "i", "o", "C")
# Order of the seeded per-gate draws, kept from the per-gate layout so that
# a seed still gives the same weights.
INIT_ORDER = ("f", "i", "C", "o")
HEAD_INPUTS = ("context", "weighted_flatten")
PARAM_DTYPE = np.dtype("<f8")


@dataclass(frozen=True)
class ModelConfig:
    n_features: int
    hidden: int = 96
    horizon: int = 96
    lookback: int = 96
    attention: bool = True
    head_input: str = "weighted_flatten"

    def __post_init__(self):
        if self.n_features < 1 or self.hidden < 1:
            raise ConfigError("n_features and hidden must be positive")
        if self.horizon < 1 or self.lookback < 1:
            raise ConfigError("horizon and lookback must be positive")
        if self.head_input not in HEAD_INPUTS:
            raise ConfigError(f"head_input must be one of {HEAD_INPUTS}")

    @property
    def head_dim(self) -> int:
        if self.attention and self.head_input == "weighted_flatten":
            return self.lookback * self.hidden
        return self.hidden

    def to_dict(self) -> dict:
        return {
            "n_features": self.n_features,
            "hidden": self.hidden,
            "horizon": self.horizon,
            "lookback": self.lookback,
            "attention": self.attention,
            "head_input": self.head_input,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ConfigError(f"invalid model config: {exc}")


class ModelParams:
    """All trainable weights, each a ParamTensor with an in-place gradient."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        self.config = config
        H, n, m = config.hidden, config.n_features, config.horizon

        def draw(init, rows, cols):
            if rng is None:
                return np.zeros((rows, cols))
            return init(rng, rows, cols)

        def stacked(init, cols):
            blocks = {g: draw(init, H, cols) for g in INIT_ORDER}
            return np.concatenate([blocks[g] for g in GATES])

        self.W = ParamTensor("W", stacked(glorot_uniform, n))
        self.U = ParamTensor("U", stacked(recurrent_uniform, H))
        self.b = ParamTensor("b", np.zeros(4 * H))
        self.b.value[:H] = 1.0  # forget bias aids early-epoch memory
        if config.attention:
            self.W_a = ParamTensor("W_a", draw(glorot_uniform, 1, H))
            self.b_a = ParamTensor("b_a", np.zeros(1))
        else:
            self.W_a = None
            self.b_a = None
        self.W_out = ParamTensor("W_out", draw(glorot_uniform, m, config.head_dim))
        self.b_out = ParamTensor("b_out", np.zeros(m))

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "ModelParams":
        return cls(config, np.random.default_rng(seed))

    def tensors(self) -> list[ParamTensor]:
        out = [self.W, self.U, self.b]
        if self.W_a is not None:
            out += [self.W_a, self.b_a]
        out += [self.W_out, self.b_out]
        return out

    def zero_grad(self) -> None:
        for t in self.tensors():
            t.zero_grad()


# ---------------------------------------------------------------------------
# batched forward / backward
# ---------------------------------------------------------------------------

class ForwardTrace:
    """Everything the backward pass and the attention export need from one
    forward call. Arrays are batched: ``gates`` is (p, B, 4H) and ``f``,
    ``i``, ``o``, ``chat`` are (p, B, H) views of it; cell/hidden states
    are (p, B, H), scores/weights (p, B). Single use."""

    __slots__ = ("windows", "gates", "f", "i", "o", "chat", "cell", "hidden",
                 "scores", "weights", "context", "head_in", "pre_head",
                 "output", "consumed")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.get(name))
        self.consumed = False


def forward_batch(windows, params: ModelParams):
    """Run the model over a (B, p, n) batch; returns ((B, m) forecasts, trace)."""
    cfg = params.config
    windows = as_f64(windows)
    if windows.ndim != 3:
        raise ShapeError(f"expected (B, p, n) windows, got shape {windows.shape}")
    B, p, n = windows.shape
    if n != cfg.n_features:
        raise ShapeError(f"window feature width {n} != model n_features {cfg.n_features}")
    if cfg.attention and cfg.head_input == "weighted_flatten" and p != cfg.lookback:
        raise ShapeError(f"weighted_flatten head requires p == {cfg.lookback}")
    assert_finite("input", windows)

    H = cfg.hidden
    xs = np.ascontiguousarray(windows.transpose(1, 0, 2))  # (p, B, n)
    gates = np.empty((p, B, 4 * H))
    np.matmul(xs.reshape(p * B, n), params.W.value.T, out=gates.reshape(p * B, 4 * H))
    gates += params.b.value
    cell = np.empty((p, B, H))
    hidden = np.empty((p, B, H))
    U_T = params.U.value.T
    recurrent = np.empty((B, 4 * H))
    carry = np.empty((B, H))
    for t in range(p):
        g = gates[t]
        if t:
            np.matmul(hidden[t - 1], U_T, out=recurrent)
            g += recurrent
        sig = g[:, :3 * H]
        sigmoid(sig, out=sig)
        chat = g[:, 3 * H:]
        np.tanh(chat, out=chat)
        c = cell[t]
        np.multiply(g[:, H:2 * H], chat, out=c)
        if t:
            np.multiply(g[:, :H], cell[t - 1], out=carry)
            c += carry
        h = hidden[t]
        np.tanh(c, out=h)
        h *= g[:, 2 * H:3 * H]
    assert_finite("lstm", hidden[-1])

    scores = weights = context = None
    if cfg.attention:
        raw = np.einsum("tbh,h->tb", hidden, params.W_a.value[0]) + params.b_a.value[0]
        scores = np.tanh(raw)
        weights = softmax(scores, axis=0)
        if cfg.head_input == "context":
            context = np.einsum("tb,tbh->bh", weights, hidden)
            head_in = context
        else:
            # a_t h_t for every step, written straight into the (B, p*H) layout
            weighted = np.empty((B, p, H))
            np.multiply(weights.T[:, :, None], hidden.transpose(1, 0, 2), out=weighted)
            head_in = weighted.reshape(B, p * H)
        assert_finite("attention", weights)
    else:
        head_in = hidden[-1]

    pre_head = matmul(head_in, params.W_out.value.T) + params.b_out.value
    output = relu(pre_head)
    assert_finite("head", output)

    trace = ForwardTrace(windows=windows, gates=gates,
                         f=gates[:, :, :H], i=gates[:, :, H:2 * H],
                         o=gates[:, :, 2 * H:3 * H], chat=gates[:, :, 3 * H:],
                         cell=cell, hidden=hidden, scores=scores,
                         weights=weights, context=context, head_in=head_in,
                         pre_head=pre_head, output=output)
    return output, trace


def backward(trace: ForwardTrace, d_output, params: ModelParams) -> np.ndarray:
    """Reverse-mode pass: accumulate all parameter gradients in place and
    return the gradient w.r.t. the input windows, shape (B, p, n)."""
    if trace.consumed:
        raise TapeError("forward trace already consumed by a backward call")
    trace.consumed = True
    cfg = params.config
    p, B, H = trace.hidden.shape
    d_out = as_f64(d_output)
    if d_out.ndim == 1:
        d_out = d_out[None, :]
    if d_out.shape != trace.output.shape:
        raise ShapeError(
            f"upstream gradient {d_out.shape} != output {trace.output.shape}"
        )

    # head: y = relu(W_out head_in + b_out)
    dz = d_out * (trace.pre_head > 0)
    params.W_out.grad += matmul(dz.T, trace.head_in)
    params.b_out.grad += dz.sum(axis=0)
    d_head_in = matmul(dz, params.W_out.value)

    if cfg.attention:
        if cfg.head_input == "context":
            d_ctx = d_head_in  # (B, H)
            d_w = np.einsum("bh,tbh->tb", d_ctx, trace.hidden)
            dH = trace.weights[:, :, None] * d_ctx[None, :, :]
        else:
            d_weighted = d_head_in.reshape(B, p, H).transpose(1, 0, 2)
            d_w = np.einsum("tbh,tbh->tb", d_weighted, trace.hidden)
            dH = trace.weights[:, :, None] * d_weighted
        # softmax over the time axis, then the tanh score squash
        inner = np.sum(trace.weights * d_w, axis=0, keepdims=True)
        d_e = trace.weights * (d_w - inner)
        d_raw = d_e * (1.0 - trace.scores ** 2)
        params.W_a.grad[0] += np.einsum("tb,tbh->h", d_raw, trace.hidden)
        params.b_a.grad[0] += d_raw.sum()
        dH += d_raw[:, :, None] * params.W_a.value[0][None, None, :]
    else:
        dH = np.zeros((p, B, H))
        dH[-1] = d_head_in

    # Backpropagation through time, one (B, 4H) row of dG per step:
    # dG_t = local gate derivatives * per-gate multipliers, each row built
    # with whole-row operations where the stacked layout allows.
    #   local:      s (1 - s) for f, i, o;  1 - Chat^2 for C
    #   multiplier: dC C_{t-1}, dC Chat, dh tanh(C_t), dC i
    f, i, o, chat, cell = trace.f, trace.i, trace.o, trace.chat, trace.cell
    U = params.U.value
    dG = np.empty((p, B, 4 * H))
    mult = np.empty((B, 4 * H))
    m_f, m_i, m_o, m_c = (mult[:, k * H:(k + 1) * H] for k in range(4))
    square = np.empty((B, 4 * H))
    dh_next = np.zeros((B, H))
    dc = np.zeros((B, H))  # dLoss/dC_t, carried back through f
    work = np.empty((B, H))
    for t in range(p - 1, -1, -1):
        dh = dH[t]
        dh += dh_next
        np.tanh(cell[t], out=work)
        np.multiply(dh, work, out=m_o)
        work *= m_o
        np.subtract(dh, work, out=work)  # dh (1 - tanh(C_t)^2)
        work *= o[t]
        dc += work
        if t:
            np.multiply(dc, cell[t - 1], out=m_f)
        else:
            m_f[...] = 0.0  # C_{-1} = 0
        np.multiply(dc, chat[t], out=m_i)
        np.multiply(dc, i[t], out=m_c)
        s = trace.gates[t]
        g = dG[t]
        np.multiply(s, s, out=square)
        np.subtract(s, square, out=g)
        np.subtract(1.0, square[:, 3 * H:], out=g[:, 3 * H:])
        g *= mult
        dc *= f[t]
        np.matmul(g, U, out=dh_next)

    flat_g = dG.reshape(p * B, 4 * H)
    flat_x = np.ascontiguousarray(trace.windows.transpose(1, 0, 2)).reshape(p * B, -1)
    params.W.grad += matmul(flat_x.T, flat_g).T
    # h_{-1} = 0, so step 0 adds nothing to dU
    params.U.grad += matmul(flat_g[B:].T, trace.hidden[:-1].reshape((p - 1) * B, H))
    params.b.grad += flat_g.sum(axis=0)
    d_inputs = matmul(flat_g, params.W.value)
    return d_inputs.reshape(p, B, -1).transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: ModelParams, extra: dict | None = None) -> None:
    """Write a versioned checkpoint: model config, metadata, and every
    parameter's shape and base64 little-endian float64 bytes, in one JSON
    document."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "model": params.config.to_dict(),
        "params": {
            t.name: {
                "shape": list(t.value.shape),
                "data": base64.b64encode(
                    np.ascontiguousarray(t.value, dtype=PARAM_DTYPE).tobytes()
                ).decode("ascii"),
            }
            for t in params.tensors()
        },
    }
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def _decode_param(name: str, entry, shape: tuple) -> np.ndarray:
    try:
        raw = base64.b64decode(entry["data"], validate=True)
        stored = tuple(entry["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint parameter '{name}' is malformed: {exc}")
    if stored != shape:
        raise ShapeError(
            f"checkpoint parameter '{name}' has shape {stored}, expected {shape}"
        )
    want = PARAM_DTYPE.itemsize * int(np.prod(shape))
    if len(raw) != want:
        raise ConfigError(
            f"checkpoint parameter '{name}' holds {len(raw)} bytes, "
            f"shape {shape} needs {want}"
        )
    return np.frombuffer(raw, dtype=PARAM_DTYPE).reshape(shape)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    try:
        doc = json.loads(Path(path).read_bytes())
    except ValueError as exc:
        raise ConfigError(f"checkpoint {path} is not valid JSON: {exc}")
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ConfigError(f"unrecognized checkpoint format: {fmt!r}")
    for key in ("model", "params"):
        if not isinstance(doc.get(key), dict):
            raise ConfigError(f"checkpoint has no '{key}' object")
    config = ModelConfig.from_dict(doc["model"])
    params = ModelParams(config)
    for t in params.tensors():
        entry = doc["params"].get(t.name)
        if entry is None:
            raise ConfigError(f"checkpoint is missing parameter '{t.name}'")
        t.value[...] = _decode_param(t.name, entry, t.value.shape)
    meta = {k: v for k, v in doc.items() if k not in ("format", "model", "params")}
    return params, meta
