import numpy as np
import pytest

from demandcast.errors import NumericError
from demandcast.lstm_att import (
    assert_finite,
    glorot_uniform,
    recurrent_uniform,
    relu,
    softmax,
)
from helpers import direct_softmax, scalar_sigmoid, sigmoid


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def test_activation_fixed_points():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert relu(np.array([-1.0]))[0] == 0.0
    assert relu(np.array([2.5]))[0] == 2.5


def test_sigmoid_extreme_inputs_stay_finite():
    out = sigmoid(np.array([-1000.0, 1000.0]))
    assert out[0] == 0.0 and out[1] == 1.0


def test_sigmoid_matches_scalar_oracle_in_place():
    x = np.linspace(-40.0, 40.0, 801)
    expected = np.array([scalar_sigmoid(v) for v in x])
    buf = x.copy()
    out = sigmoid(buf, out=buf)
    assert out is buf
    assert np.max(np.abs(buf - expected)) < 1e-15


def test_softmax_uniform_vector():
    out = softmax(np.full(5, 3.7))
    assert np.allclose(out, 0.2, atol=1e-12)


def test_softmax_matches_direct_evaluation():
    scores = np.array([1.0, 2.0, 3.0])
    assert np.max(np.abs(softmax(scores) - direct_softmax([1.0, 2.0, 3.0]))) < 1e-12


def test_softmax_simplex_properties():
    rng = np.random.default_rng(2)
    for _ in range(50):
        out = softmax(rng.normal(scale=30.0, size=int(rng.integers(1, 40))))
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) < 1e-9


def test_assert_finite_raises_with_stage_name():
    with pytest.raises(NumericError) as err:
        assert_finite("lstm", np.array([1.0, np.nan]))
    assert "lstm" in str(err.value)


# ---------------------------------------------------------------------------
# initializers
# ---------------------------------------------------------------------------

def test_glorot_deterministic_given_seed():
    a = glorot_uniform(np.random.default_rng(7), 4, 5)
    b = glorot_uniform(np.random.default_rng(7), 4, 5)
    assert np.array_equal(a, b)


def test_determinism_same_seed_bit_identical():
    def build():
        rng = np.random.default_rng(123)
        return glorot_uniform(rng, 4, 6), recurrent_uniform(rng, 4, 4)

    (w1, u1), (w2, u2) = build(), build()
    assert np.array_equal(w1, w2)
    assert np.array_equal(u1, u2)
    assert np.max(np.abs(u1)) <= 0.5  # recurrent limit 1 / sqrt(fan-in)
