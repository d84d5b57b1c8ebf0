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
contiguous block. The recurrence runs batch-last, every per-step array
(rows, B). The forward pass stacks [W U b] with the sigmoid rows halved
(exact in binary), as sigmoid(z) = (tanh(z / 2) + 1) / 2. Each step is one
GEMM of it with the operand [x_t; h_{t-1}; 1], a (n + H + 1, B) slot of two
that alternate, into a (4H, B) gate row, then one tanh over the row and
(t + 1) / 2 over its sigmoid block; h_t goes to the (p, H, B) hidden states
and to the next slot. A taped call keeps every gate and cell row for BPTT, a
tape-free one reuses one of each. BPTT writes step t's gate gradient, as
(B, 4H), over gate row t once it has read that row, with one GEMM for the
hidden-state gradient; one GEMM of the tape, now (p B, 4H) dG, against the
stacked operands [x; h; 1] gives [dW dU db]. No input gradient is computed.

OpenBLAS runs a product of at most 100^3 multiply-adds (M N K) on its
small-matrix kernel, which skips packing. So ``_matmul`` runs the forward's
gate GEMM and BPTT's ``U^T g`` as two row halves when the whole product is
above that bound and each half is at or below it. Single-thread float32
times in us on a 2-core AVX-512 VM at H = 96, whole product / two halves:

    B     gate, K = 119   gate, K = 98    U^T g
    1       4.0 / 5.3       3.6 / 5.1      2.6 / 4.4
    21     20.3 / 22.1     17.3 / 19.2    15.5 / 18.4
    24     23.2 / 24.1     18.6 / 20.4    20.6 / 24.1
    32     27.7 / 19.9     23.3 / 16.2    23.9 / 18.7
    40     33.0 / 28.9     27.8 / 25.0    28.0 / 27.4
    48     35.7 / 39.3     30.0 / 27.6    31.3 / 32.6
    256   152.1 / 161.6   131.9 / 136.3  131.9 / 143.3

Training (B = 32) splits all three; the forwards at B = 1 and B >= 110 keep
one call.

Attention scores e_t = tanh(W_a h_t + b_a) (one scalar per step) are
softmax-normalized over time into weights a_t. The head reads either the
context vector sum(a_t h_t) or the flattened weighted states a_t h_t, and
emits relu(W_out . + b_out); without attention it reads the last h_t. The
forward sums the flattened head's pre-activation over steps, as sum_t a_t
(W_out,t h_t) with W_out,t the (m, H) column block of step t: one batched
GEMM per ``HEAD_BLOCK`` steps over a (p, m, H) view of W_out, so no forward
allocates the (p H, B) flattened input.

The model reads the first ``n_features`` columns of a window
(``model_inputs``): all of them for the multivariate variants, column 0
(demand) for the univariate ones.

Numerics: mixed precision (Micikevicius et al., arXiv:1710.03740), with
float32 state and float64 reductions. ``DTYPE`` (float32) is the parameter
arena's dtype, so its gradient's, Adam's moments' and the checkpoint
payload's, and the forward and ``backward`` run in the arena's dtype: the
stacked [W U b] operand and the Z slots, the gate, cell and hidden tape, the
per-step tanh, products and sums, every LSTM GEMM and BPTT's work arrays,
and the head's GEMMs on W_out and the hidden states (the attention weights
and, in ``backward``, the (B, m) head gradient are cast down, never W_out
up). In
float32 the loop's tanh costs about a fifth of float64's per element, and
the GEMMs and Adam move half the bytes. Float64 are: the attention scores
and softmax (W_a is cast up, never the hidden states) and the score
gradient's d_w; the head's sum over blocks of steps, its pre-activation
and the forecasts; the clip norm, the loss and every mean. Against the
float64 path on the same seeded draws, the forecasts, attention weights and
gradients move by about 1e-7 to 1e-6 of their largest magnitude
(``tests/differential.py --suite model`` prints the table;
``tests/helpers.py`` states the tolerances). With ``DTYPE`` float64 before
the parameters are made, the model, clip, Adam and checkpoint run in
float64 throughout, as the oracle tests do. A window's float32 forecast also
depends on its batch's width, as OpenBLAS picks GEMM kernels by width:
``predict`` on one window and the same row of a chunked ``forecast`` can
differ in the last float32 digits, within the output tolerance.
``forward_batch`` converts its windows, and ``backward`` its upstream
gradient, to float64 first. A window or gradient that float32 cannot hold
becomes infinite in its cast, which, like a NaN or an infinity in the LSTM
weights, after the input, the LSTM, the attention weights or the head, is a
NumericError naming that stage ('input', 'lstm' or 'head'), with no warning.
``softmax`` subtracts the maximum before ``exp``. A seeded ``ModelParams``
draws W, W_a and W_out Glorot-uniform and U uniform in +-1/sqrt(H) in
float64, rounded into the arena.

A ``ForwardTrace`` holds the loop's own buffers, batch last: ``hidden``
(p, H, B) and the tape ``gates`` (p, 4H, B) and ``cell`` (p, H, B), all in
the arena's dtype; ``scores`` and ``weights`` (p, B), ``pre_head`` and
``output`` (B, m) in float64. No trace holds the head's (head_dim, B)
input: ``backward`` rebuilds the flattened one block by block for the W_out
gradient GEMM, and the context or last state with ``_head_in``, as the
forward's heads read them. ``backward`` reads the rest as they are,
overwrites ``gates`` and drops the tape.

The parameters live in one arena. ``param_shapes(config)`` gives each
parameter's name and shape in ``tensors()`` order; ``ModelParams`` holds one
flat ``value`` vector and one ``grad`` vector of ``DTYPE`` in that layout,
and each ``ParamTensor`` is a pair of reshaped views into them. ``backward``
writes, not adds, each gradient of its one call, so nothing zeroes ``grad``;
clipping, Adam and the checkpoint payload each work on a whole vector.

A checkpoint (``demandcast/checkpoint-v4``) is one line of JSON, then
raw bytes. The JSON header holds the format tag, the payload dtype (the
arena's, "<f4" or "<f8"), the model config, each parameter's shape in
``tensors()`` order and free-form metadata; after its newline come the
parameters' row-major little-endian bytes in that dtype, back to back in
that order, with nothing after them. A v3 file has no dtype field and a
"<f8" payload: the one load path reads a missing dtype as "<f8", and rounds
a payload into the arena to nearest, ties to even, a value beyond float32's
range to an infinity that the forward reports at stage 'lstm' for W, U or b.
``json.dumps`` escapes every newline, so the first line of a checkpoint is
valid JSON on its own. The metadata is what ``cli train`` writes: the run
config's ``schema`` block, a ``pipeline`` block holding only
``clamp_bounds``, the scaler fitted on the training rows, the seed and the
variant (and the epoch in a per-epoch file), so a checkpoint file serves on
its own.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError, TapeError

CHECKPOINT_FORMAT = "demandcast/checkpoint-v4"
# Row-block order of the stacked W, U and b: the sigmoid gates first.
GATES = ("f", "i", "o", "C")
# Order of the seeded per-gate draws, kept from the per-gate layout so that
# a seed still gives the same weights.
INIT_ORDER = ("f", "i", "C", "o")
HEAD_INPUTS = ("context", "weighted_flatten")
FORWARD_BATCH = 256  # windows per tape-free forward in forecast, explain and attention
SMALL_GEMM = 100 ** 3  # OpenBLAS's small-matrix bound on M N K
HEAD_BLOCK = 16  # steps per batched GEMM of the weighted_flatten head and its gradient
DTYPE = np.float32  # the parameter arena's, and so the recurrence's and Adam's (see Numerics)


def assert_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values detected at stage '{name}'")


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax (max subtraction); output sums to 1 along ``axis``."""
    ex = np.exp(scores - np.max(scores, axis=axis, keepdims=True))
    return ex / np.sum(ex, axis=axis, keepdims=True)


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out = a @ b``, as two row halves when only the halves fall under
    ``SMALL_GEMM`` (see the module docstring); the halves are views."""
    rows, inner = a.shape
    half = (rows + 1) // 2
    if rows * inner * b.shape[1] > SMALL_GEMM >= half * inner * b.shape[1]:
        np.matmul(a[:half], b, out=out[:half])
        np.matmul(a[half:], b, out=out[half:])
    else:
        np.matmul(a, b, out=out)


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def recurrent_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    # plain uniform scaled by fan-in; no orthogonalization
    limit = 1.0 / np.sqrt(cols)
    return rng.uniform(-limit, limit, size=(rows, cols))


@dataclass(frozen=True)
class ModelConfig:
    n_features: int
    hidden: int = 96
    horizon: int = 96
    lookback: int = 96
    attention: bool = True
    head_input: str = "weighted_flatten"

    def __post_init__(self):
        for name in ("n_features", "hidden", "horizon", "lookback"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"model {name} must be a positive integer, got {value!r}")
        if not isinstance(self.attention, bool):
            raise ConfigError(f"model attention must be true or false, got {self.attention!r}")
        if self.head_input not in HEAD_INPUTS:
            raise ConfigError(f"head_input must be one of {HEAD_INPUTS}")

    @property
    def head_dim(self) -> int:
        if self.attention and self.head_input == "weighted_flatten":
            return self.lookback * self.hidden
        return self.hidden

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ConfigError(f"invalid model config: {exc}")


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Each parameter's name and shape, in ``tensors()`` and arena order."""
    H, m = config.hidden, config.horizon
    shapes = {"W": (4 * H, config.n_features), "U": (4 * H, H), "b": (4 * H,)}
    if config.attention:
        shapes.update(W_a=(1, H), b_a=(1,))
    shapes.update(W_out=(m, config.head_dim), b_out=(m,))
    return shapes


@dataclass
class ParamTensor:
    """One parameter: its value and its gradient, both views into the
    arena of the ModelParams that owns it."""

    name: str
    value: np.ndarray
    grad: np.ndarray


class ModelParams:
    """All trainable weights as one arena: flat ``value`` and ``grad``
    vectors of ``DTYPE``, with each parameter an attribute ParamTensor of
    views into them. Without an rng the weights are zero (the forget-gate
    bias is 1); a seeded draw is made in float64 and rounded into the arena."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        self.config = config
        shapes = param_shapes(config)
        size = sum(math.prod(shape) for shape in shapes.values())
        self.value = np.zeros(size, DTYPE)
        self.grad = np.zeros(size, DTYPE)
        self.W_a = self.b_a = None
        offset = 0
        for name, shape in shapes.items():
            end = offset + math.prod(shape)
            setattr(self, name, ParamTensor(name, self.value[offset:end].reshape(shape),
                                            self.grad[offset:end].reshape(shape)))
            offset = end
        H = config.hidden
        self.b.value[:H] = 1.0  # forget bias aids early-epoch memory
        if rng is None:
            return
        for t, init in ((self.W, glorot_uniform), (self.U, recurrent_uniform)):
            for g in INIT_ORDER:
                t.value.reshape(4, H, -1)[GATES.index(g)] = init(rng, H, t.value.shape[1])
        for t in (self.W_a, self.W_out):
            if t is not None:
                t.value[...] = glorot_uniform(rng, *t.value.shape)

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "ModelParams":
        return cls(config, np.random.default_rng(seed))

    def tensors(self) -> list[ParamTensor]:
        return [getattr(self, name) for name in param_shapes(self.config)]


# ---------------------------------------------------------------------------
# batched forward / backward
# ---------------------------------------------------------------------------

class ForwardTrace:
    """What ``backward`` and the attention export need from one forward
    call, in the batch-last layout of the module docstring. A tape-free
    call leaves ``gates`` and ``cell`` None, a headless call the head
    fields, and ``backward`` rejects both. No field holds the head input,
    which ``backward`` rebuilds. Single use: ``backward`` writes the gate
    gradient over ``gates``, then drops the tape."""

    __slots__ = ("windows", "gates", "cell", "hidden", "scores", "weights", "pre_head", "output")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.get(name))


def _head_in(cfg: ModelConfig, weights, hidden: np.ndarray) -> np.ndarray:
    """The (H, B) input of the last-state or the context head: the last
    hidden state without attention, else the context vector sum_t a_t h_t
    (``einsum`` casts ``hidden`` to float64 in buffers, not as a whole)."""
    if not cfg.attention:
        return hidden[-1]
    return np.einsum("tb,thb->hb", weights, hidden)


def _in_steps(stage: str, arr: np.ndarray, dtype) -> np.ndarray:
    """``arr`` as a C-contiguous ``dtype`` array, the recurrence's. A value
    outside that dtype's range, which the cast makes infinite, is a
    NumericError naming ``stage``, as a NaN or an infinity already there is."""
    with np.errstate(over="ignore"):
        out = np.ascontiguousarray(arr, dtype=dtype)
    assert_finite(stage, out)
    return out


def model_inputs(windows: np.ndarray, config: ModelConfig) -> np.ndarray:
    """The columns of (..., n) windows that the model reads, as a view."""
    return windows[..., :config.n_features]


def forward_batch(windows, params: ModelParams, *, head: bool = True, tape: bool = True):
    """Run the model over a (B, p, n) batch; returns ((B, m) forecasts, trace).
    With ``head=False`` it stops after the attention weights and returns
    (None, trace). With ``tape=False`` it keeps no per-step tape for
    ``backward``, and gives the same bits."""
    cfg = params.config
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ShapeError(f"expected (B, p, n) windows, got shape {windows.shape}")
    B, p, n = windows.shape
    if n != cfg.n_features:
        raise ShapeError(f"window feature width {n} != model n_features {cfg.n_features}")
    if cfg.attention and cfg.head_input == "weighted_flatten" and p != cfg.lookback:
        raise ShapeError(f"weighted_flatten head requires p == {cfg.lookback}")
    H, dt = cfg.hidden, params.W.value.dtype  # the arena's
    xs = _in_steps("input", windows.transpose(1, 2, 0), dt)  # (p, n, B)
    Wcat = np.concatenate([params.W.value, params.U.value, params.b.value[:, None]], axis=1)
    Wcat[:3 * H] *= 0.5
    assert_finite("lstm", Wcat)
    # step t's one GEMM reads [x_t; h_{t-1}; 1] from slot t % 2 of Z
    Z = np.empty((2, n + H + 1, B), dt)
    Z[0, n:n + H] = 0.0
    Z[:, n + H] = 1.0
    hidden = np.empty((p, H, B), dt)
    gates = np.empty((p if tape else 1, 4 * H, B), dt)
    cell = np.empty((p if tape else 1, H, B), dt)
    carry = np.empty((H, B), dt)
    for t in range(p):
        k = t if tape else 0
        g, c, z = gates[k], cell[k], Z[t % 2]
        z[:n] = xs[t]
        _matmul(Wcat, z, g)
        np.tanh(g, out=g)
        g[:3 * H] += 1.0
        g[:3 * H] *= 0.5
        if t:  # f C_{t-1}; a tape-free call's one cell row still holds C_{t-1}
            np.multiply(g[:H], cell[k - 1] if tape else c, out=carry)
        np.multiply(g[H:2 * H], g[3 * H:], out=c)
        if t:
            c += carry
        h = hidden[t]
        np.tanh(c, out=h)
        h *= g[2 * H:3 * H]
        Z[(t + 1) % 2, n:n + H] = h
    assert_finite("lstm", hidden[-1])

    trace = ForwardTrace(windows=windows, hidden=hidden)
    if tape:
        trace.gates, trace.cell = gates, cell
    if cfg.attention:
        W_a = params.W_a.value[0].astype(np.float64)  # so the scores sum in float64
        trace.scores = np.tanh(np.einsum("h,thb->tb", W_a, hidden) + params.b_a.value[0])
        trace.weights = weights = softmax(trace.scores, axis=0)
        assert_finite("attention", weights)
    if not head:
        return None, trace
    if cfg.attention and cfg.head_input == "weighted_flatten":
        # sum over steps of a_t (W_out,t h_t), HEAD_BLOCK steps per batched GEMM
        m = cfg.horizon
        W_steps = params.W_out.value.reshape(m, p, H).transpose(1, 0, 2)
        block, z = np.empty((min(HEAD_BLOCK, p), m, B), dt), np.zeros((m, B))
        weights = weights.astype(dt, copy=False)
        for lo in range(0, p, HEAD_BLOCK):  # each block sums in dt, z in float64
            part = block[:min(HEAD_BLOCK, p - lo)]
            np.matmul(W_steps[lo:lo + HEAD_BLOCK], hidden[lo:lo + HEAD_BLOCK], out=part)
            part *= weights[lo:lo + HEAD_BLOCK, None, :]
            z += part.sum(axis=0)
        trace.pre_head = np.add(z.T, params.b_out.value, out=np.empty((B, m)))  # C order
    else:
        head_in = _head_in(cfg, trace.weights, hidden)
        trace.pre_head = (np.matmul(head_in.T, params.W_out.value.T, dtype=np.float64)
                          + params.b_out.value)
    trace.output = output = relu(trace.pre_head)
    assert_finite("head", output)
    return output, trace


def forecast(windows: np.ndarray, params: ModelParams) -> np.ndarray:
    """The (N, m) forecasts of (N, p, n) windows on the model's columns
    (``model_inputs``), from tape-free ``forward_batch`` calls of at most
    ``FORWARD_BATCH`` windows written into one array."""
    inputs = model_inputs(windows, params.config)
    out = np.empty((len(inputs), params.config.horizon))
    for start in range(0, len(inputs), FORWARD_BATCH):
        out[start:start + FORWARD_BATCH] = forward_batch(
            inputs[start:start + FORWARD_BATCH], params, tape=False)[0]
    return out


def backward(trace: ForwardTrace, d_output, params: ModelParams) -> None:
    """Reverse-mode pass: write every parameter gradient of this one call
    over whatever the arena held, consuming the trace (see ForwardTrace).
    The head's GEMMs and the recurrence run in the arena's dtype. The
    gradient w.r.t. the input windows is not computed."""
    if trace.output is None:
        raise TapeError("forward trace has no head to differentiate (head=False)")
    if trace.gates is None:
        raise TapeError("forward trace holds no tape (tape=False, or consumed by backward)")
    cfg, hidden = params.config, trace.hidden
    p, H, B = hidden.shape
    dt = params.W.value.dtype  # the arena's, as in the forward
    n = cfg.n_features
    d_out = np.atleast_2d(np.asarray(d_output, dtype=np.float64))
    if d_out.shape != trace.output.shape:
        raise ShapeError(f"upstream gradient {d_out.shape} != output {trace.output.shape}")

    # head: y = relu(W_out head_in + b_out); a dead output passes +0, not -0.
    # No trace holds head_in: the flattened one is rebuilt one HEAD_BLOCK of
    # steps at a time, straight into its columns of the W_out gradient.
    # The GEMMs take dz and the weights cast down, never W_out cast up.
    dz = np.where(trace.pre_head > 0, d_out, 0.0)
    params.b_out.grad[...] = dz.sum(axis=0)
    dz = _in_steps("head", dz, dt)
    weights = None if trace.weights is None else trace.weights.astype(dt, copy=False)
    if cfg.attention and cfg.head_input == "weighted_flatten":
        for lo in range(0, p, HEAD_BLOCK):
            a_h = weights[lo:lo + HEAD_BLOCK, None, :] * hidden[lo:lo + HEAD_BLOCK]
            a_h = a_h.reshape(-1, B)
            np.matmul(dz.T, a_h.T, out=params.W_out.grad[:, lo * H:lo * H + len(a_h)])
    else:
        np.matmul(dz.T, _head_in(cfg, trace.weights, hidden).T, out=params.W_out.grad)
    d_head_in = params.W_out.value.T @ dz.T  # (head_dim, B)

    if cfg.attention:  # d_w sums in float64, as the softmax runs
        if cfg.head_input == "context":
            d_w = np.einsum("hb,thb->tb", d_head_in, hidden, dtype=np.float64)
            dH = weights[:, None, :] * d_head_in
        else:
            dH = d_head_in.reshape(p, H, B)
            d_w = np.einsum("thb,thb->tb", dH, hidden, dtype=np.float64)
            dH *= weights[:, None, :]
        # softmax over the time axis, then the tanh score squash
        inner = np.sum(trace.weights * d_w, axis=0, keepdims=True)
        d_e = trace.weights * (d_w - inner)
        d_raw = d_e * (1.0 - trace.scores ** 2)
        params.W_a.grad[0] = np.einsum("tb,thb->h", d_raw, hidden)
        params.b_a.grad[0] = d_raw.sum()
        # the recurrence's share, in the arena's dtype
        dH, d_raw, W_a_T = (_in_steps("lstm", a, dt) for a in (dH, d_raw, params.W_a.value.T))
    else:
        d_head_in = _in_steps("lstm", d_head_in, dt)

    # BPTT, one row of dG = dLoss/d(pre-activation) per step, written as
    # (B, 4H) over gate row t once read, so the tape read as (p B, 4H) is dG:
    # the local gate derivatives times per-gate multipliers,
    #   local:      s (1 - s) for f, i, o;  1 - Chat^2 for C
    #   multiplier: dC C_{t-1}, dC Chat, dh tanh(C_t), dC i
    gates, cell = trace.gates, trace.cell
    trace.gates = trace.cell = None  # consumed: the gate rows become dG
    f, i, o, chat = (gates[:, k * H:(k + 1) * H] for k in range(4))
    dG = gates.reshape(p, B, 4 * H)
    U_T = params.U.value.T
    local, mult = np.empty((4 * H, B), dt), np.empty((4 * H, B), dt)
    m_f, m_i, m_o, m_c = (mult[k * H:(k + 1) * H] for k in range(4))
    dh_next = np.zeros((H, B), dt)
    dc = np.zeros((H, B), dt)  # dLoss/dC_t, carried back through f
    work = np.empty((H, B), dt)
    for t in range(p - 1, -1, -1):
        if cfg.attention:  # the score's share, with no (p, H, B) temporary
            dh = dH[t]
            dh += np.multiply(W_a_T, d_raw[t], out=work)
            dh += dh_next
        else:  # the head reads only the last hidden state
            dh = dh_next if t < p - 1 else d_head_in
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
        s = gates[t]
        np.multiply(s, s, out=local)
        np.subtract(s[:3 * H], local[:3 * H], out=local[:3 * H])
        np.subtract(1.0, local[3 * H:], out=local[3 * H:])
        dc *= f[t]  # dLoss/dC_{t-1}, before row t is overwritten
        g = np.multiply(local, mult, out=dG[t].T)
        if t:
            _matmul(U_T, g, dh_next)

    # [dW dU db] = dG [x; h; 1]^T, summed over steps and windows
    dH = dh = d_head_in = None  # freed before the operands, for a lower peak
    operands = np.empty((n + H + 1, p, B), dt)
    operands[:n] = trace.windows.transpose(2, 1, 0)  # in range: the forward cast it
    operands[n:n + H, 0] = 0.0
    operands[n:n + H, 1:] = hidden[:-1].transpose(1, 0, 2)
    operands[n + H] = 1.0
    d_cat = operands.reshape(n + H + 1, p * B) @ dG.reshape(p * B, 4 * H)
    params.W.grad[...] = d_cat[:n].T
    params.U.grad[...] = d_cat[n:n + H].T
    params.b.grad[...] = d_cat[n + H]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: ModelParams, extra: dict | None = None) -> None:
    """Write a versioned checkpoint: a one-line JSON header with the format,
    the payload dtype, the model config, each parameter's shape and the
    metadata, then the arena's row-major little-endian bytes in its dtype."""
    dtype = params.value.dtype.newbyteorder("<")
    header = {
        "format": CHECKPOINT_FORMAT,
        "dtype": dtype.str,
        "model": asdict(params.config),
        "params": {name: {"shape": list(shape)}
                   for name, shape in param_shapes(params.config).items()},
    }
    if extra:
        header.update(extra)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(params.value, dtype=dtype).data)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """A v3 or v4 checkpoint's parameters, in a ``DTYPE`` arena (see the
    module docstring), and metadata, checked against ``param_shapes`` before
    anything is allocated. A file that is not exactly a valid header and the
    payload its shapes and dtype call for is a ConfigError, a parameter of
    the wrong shape a ShapeError."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:
            raise ConfigError(f"checkpoint {path} has no valid JSON header: {exc}")
        fmt = header.get("format") if isinstance(header, dict) else None
        if fmt not in ("demandcast/checkpoint-v3", CHECKPOINT_FORMAT):
            raise ConfigError(f"unrecognized checkpoint format: {fmt!r}")
        dtype = header.get("dtype", "<f8")  # v3 names none
        if dtype not in ("<f4", "<f8"):
            raise ConfigError(f"checkpoint payload dtype {dtype!r} is not '<f4' or '<f8'")
        dtype = np.dtype(dtype)
        for key in ("model", "params"):
            if not isinstance(header.get(key), dict):
                raise ConfigError(f"checkpoint has no '{key}' object")
        config = ModelConfig.from_dict(header["model"])
        shapes = param_shapes(config)
        if list(header["params"]) != list(shapes):
            raise ConfigError(f"checkpoint parameters {list(header['params'])} "
                              f"are not the model's {list(shapes)}")
        for name, shape in shapes.items():
            try:
                stored = tuple(header["params"][name]["shape"])
            except (KeyError, TypeError) as exc:
                raise ConfigError(f"checkpoint parameter '{name}' is malformed: {exc!r}")
            if stored != shape:
                raise ShapeError(f"checkpoint parameter '{name}' has shape {stored}, "
                                 f"expected {shape}")
        want = dtype.itemsize * sum(math.prod(shape) for shape in shapes.values())
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        if have != want:
            raise ConfigError(f"checkpoint {path} holds {have} payload bytes; "
                              f"its parameter shapes call for {want}")
        params = ModelParams(config)
        payload = (params.value if params.value.dtype == dtype
                   else np.empty(params.value.size, dtype))
        if fh.readinto(payload) != want:
            raise ConfigError(f"checkpoint {path} shrank while it was read")
    if payload is not params.value:
        with np.errstate(over="ignore"):
            params.value[...] = payload
    meta = {k: v for k, v in header.items() if k not in ("format", "dtype", "model", "params")}
    return params, meta
