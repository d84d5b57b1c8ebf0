"""Numeric building blocks of the model: float64 coercion, the finiteness
check, activations and the seeded initializers.

All tensors are float64 numpy arrays in row-major order.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

Array = np.ndarray


def as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


def assert_finite(name: str, arr: Array) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values detected at stage '{name}'")


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(x: Array) -> Array:
    return np.maximum(as_f64(x), 0.0)


def softmax(scores: Array, axis: int = -1) -> Array:
    """Stable softmax (max subtraction); output sums to 1 along ``axis``."""
    scores = as_f64(scores)
    shifted = scores - np.max(scores, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# initializers
# ---------------------------------------------------------------------------

def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> Array:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def recurrent_uniform(rng: np.random.Generator, rows: int, cols: int) -> Array:
    # plain uniform scaled by fan-in; no orthogonalization
    limit = 1.0 / np.sqrt(cols)
    return rng.uniform(-limit, limit, size=(rows, cols))
