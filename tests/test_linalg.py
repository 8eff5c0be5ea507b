import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tokmem.linalg import (DegenerateNormWarning, finite_diff_grad,
                           normalize_rows, relative_error, row_norms)
from tokmem.losses import softmax_ce

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                          allow_infinity=False)


def test_normalize_345_triangle():
    np.testing.assert_allclose(normalize_rows(np.array([3.0, 4.0])), [0.6, 0.8],
                               rtol=0, atol=1e-15)


def test_normalize_already_unit():
    v = np.array([0.0, 0.0, 1.0])
    np.testing.assert_array_equal(normalize_rows(v), v)


def test_normalize_zero_vector_warns_and_passes_through():
    with pytest.warns(DegenerateNormWarning):
        out = normalize_rows(np.zeros(2))
    np.testing.assert_array_equal(out, np.zeros(2))


def test_normalize_rows_zero_row_warns():
    m = np.array([[3.0, 4.0], [0.0, 0.0]])
    with pytest.warns(DegenerateNormWarning):
        out = normalize_rows(m)
    np.testing.assert_allclose(out[0], [0.6, 0.8])
    np.testing.assert_array_equal(out[1], [0.0, 0.0])


@given(arrays(np.float64, st.integers(1, 16), elements=finite_floats))
def test_normalize_unit_norm(v):
    if np.linalg.norm(v) == 0.0:
        return
    assert abs(np.linalg.norm(normalize_rows(v)) - 1.0) <= 1e-9


def test_normalize_tiny_vector_is_unit():
    # the square of 4.9e-160 is subnormal; a plain norm misses by 8e-7
    out = normalize_rows(np.array([[4.92545877e-160, 0.0], [3e-170, 4e-170]]))
    np.testing.assert_allclose(out, [[1.0, 0.0], [0.6, 0.8]], rtol=0, atol=1e-15)


@pytest.mark.parametrize("shape", [(7,), (5, 9), (2, 3, 32)])
def test_row_norms_equal_numpy_norm_bitwise(rng, shape):
    """Random rows at every scale, from the subnormal-square range near
    1e-160 to 1e150, plus zero rows, match ``np.linalg.norm`` bit for bit."""
    scales = np.array([1e-160, 3e-155, 1e-150, 1e-3, 1.0, 1e3, 1e150, 0.0])
    m = rng.normal(size=shape) * rng.choice(scales, size=(*shape[:-1], 1))
    if m.ndim > 1:
        m.reshape(-1, shape[-1])[0] = 0.0
    expected = np.linalg.norm(m, axis=-1, keepdims=True)
    np.testing.assert_array_equal(row_norms(m), expected)
    assert row_norms(m).shape == (*shape[:-1], 1)


def test_finite_diff_square():
    grad = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), h=1e-5)
    assert grad[0] == pytest.approx(6.0, abs=1e-8)


def test_finite_diff_constant_is_zero():
    grad = finite_diff_grad(lambda x: 7.5, np.arange(4.0), h=1e-5)
    np.testing.assert_array_equal(grad, np.zeros(4))


def test_finite_diff_nonfinite_names_coordinate():
    def f(x):
        return float("nan") if x[2] != 1.0 else 0.0

    with pytest.raises(ValueError, match="coordinate 2"):
        finite_diff_grad(f, np.array([1.0, 1.0, 1.0]), h=1e-3)


def test_finite_diff_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda x: 0.0, np.zeros(2), h=0.0)
    # a NaN step is not positive either; it would make every entry NaN
    with pytest.raises(ValueError, match="step h must be positive"):
        finite_diff_grad(lambda x: 0.0, np.zeros(2), h=float("nan"))


def test_finite_diff_is_the_oracle_for_constraint_loss(rng):
    """The central-difference gradient agrees with the analytic gradient of
    the token-constraint loss at a random input."""
    d, r = 6, 3
    vecs = rng.normal(size=(2 + r, d))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    f, tokens = vecs[:1], vecs[None, 1:]
    out = softmax_ce(f, tokens, 0, temperature=0.2)

    def value_at(x):
        return softmax_ce(x, tokens, 0, temperature=0.2).value[0]

    numeric = finite_diff_grad(value_at, f, h=1e-5)
    assert relative_error(out.grad_image_feature, numeric) < 1e-4


def test_relative_error_scale_free():
    a = np.array([1.0, 2.0])
    assert relative_error(a, a) == 0.0
    assert relative_error(a, np.zeros(2)) == pytest.approx(1.0)
