"""Numeric building blocks of the model: float64 coercion, a shape-checked
matmul, activations, trainable tensors with in-place gradients, and the
seeded initializers.

All tensors are float64 numpy arrays in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError

Array = np.ndarray


def as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


def assert_finite(name: str, arr: Array) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values detected at stage '{name}'")


def matmul(a: Array, b: Array) -> Array:
    """Matrix/vector product with an explicit inner-dimension check."""
    a = as_f64(a)
    b = as_f64(b)
    inner_a = a.shape[-1]
    inner_b = b.shape[0] if b.ndim >= 1 else None
    if inner_a != inner_b:
        raise ShapeError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    return a @ b


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def sigmoid(x: Array, out: Array | None = None) -> Array:
    """Logistic function as 0.5 * (tanh(x / 2) + 1), which cannot overflow
    for large |x|. ``out`` may be ``x`` itself, to squash a buffer in place.
    """
    out = np.multiply(as_f64(x), 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def relu(x: Array) -> Array:
    return np.maximum(as_f64(x), 0.0)


def softmax(scores: Array, axis: int = -1) -> Array:
    """Stable softmax (max subtraction); output sums to 1 along ``axis``."""
    scores = as_f64(scores)
    shifted = scores - np.max(scores, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# parameters and initializers
# ---------------------------------------------------------------------------

@dataclass
class ParamTensor:
    """A trainable array paired with its accumulated gradient."""

    name: str
    value: Array
    grad: Array = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.value = as_f64(self.value)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        elif self.grad.shape != self.value.shape:
            raise ShapeError(
                f"grad shape {self.grad.shape} != value shape {self.value.shape}"
                f" for '{self.name}'"
            )

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> Array:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def recurrent_uniform(rng: np.random.Generator, rows: int, cols: int) -> Array:
    # plain uniform scaled by fan-in; no orthogonalization
    limit = 1.0 / np.sqrt(cols)
    return rng.uniform(-limit, limit, size=(rows, cols))
