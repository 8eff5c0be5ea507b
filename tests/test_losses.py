import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_rows
from oracles import topk_by_full_sort
from tokmem.linalg import finite_diff_grad, relative_error
from tokmem.losses import (anchor_loss, constraint_loss, patch_rate,
                           prototype_loss, select_constraint_tokens, total_loss)
from tokmem.memory import PrototypeMemory


def make_rng(*key):
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


# ---------------------------------------------------------------- patch rate

def test_patch_rate_values():
    assert patch_rate(128, 0.075) == 9
    assert patch_rate(128, 1.0) == 128
    assert patch_rate(10, 0.025) == 1  # floor gives 0, clamped up


def test_patch_rate_validation():
    with pytest.raises(ValueError):
        patch_rate(128, 0.0)
    with pytest.raises(ValueError):
        patch_rate(128, -0.1)
    with pytest.raises(ValueError):
        patch_rate(128, 1.1)
    with pytest.raises(ValueError):
        patch_rate(0, 0.5)


# ----------------------------------------------------------- token selection

def token_set_for(sims):
    """Tokens t_i = sims[i] * f + orthogonal residue, so t_i . f == sims[i]."""
    sims = np.asarray(sims, dtype=np.float64)
    f = np.zeros(len(sims) + 1)
    f[0] = 1.0
    tokens = np.zeros((len(sims), len(sims) + 1))
    tokens[:, 0] = sims
    tokens[np.arange(len(sims)), np.arange(1, len(sims) + 1)] = 1.0
    return f, tokens


def test_select_example():
    f, tokens = token_set_for([0.9, 0.1, 0.5, -0.2])
    pos, negs = select_constraint_tokens(f, tokens, rate=0.5)  # R = 2
    assert pos == 0
    np.testing.assert_array_equal(negs, [3, 1])


def test_select_all_equal_tie_rules():
    f, tokens = token_set_for([0.4, 0.4, 0.4, 0.4])
    pos, negs = select_constraint_tokens(f, tokens, rate=0.25)  # R = 1
    assert pos == 0
    np.testing.assert_array_equal(negs, [1])


def test_select_rejects_too_few_tokens():
    f, tokens = token_set_for([0.4, 0.1])
    with pytest.raises(ValueError):
        select_constraint_tokens(f, tokens, rate=1.0)


@pytest.mark.parametrize("trial", range(10))
def test_select_matches_full_sort_oracle(trial):
    rng = make_rng(31, trial)
    sims = rng.uniform(-1, 1, size=128)
    f, tokens = token_set_for(sims)
    pos, negs = select_constraint_tokens(f, tokens, rate=0.075)
    assert pos == topk_by_full_sort(sims, 1, descending=True)[0]
    expected = [i for i in topk_by_full_sort(sims, 10, descending=False) if i != pos][:9]
    np.testing.assert_array_equal(negs, expected)


# ----------------------------------------------------------------- the losses

def test_constraint_uniform_similarities_closed_form():
    f, tokens = token_set_for([0.3] * 10)
    out = constraint_loss(f, tokens[0], tokens[1:], temperature=0.05)
    assert out.value == pytest.approx(math.log(10), abs=1e-12)


def test_constraint_dominant_positive_is_tiny():
    f = np.zeros(4)
    f[0] = 1.0
    negs = np.eye(4)[1:]  # orthogonal to f
    out = constraint_loss(f, f, negs, temperature=0.05)
    assert 0.0 <= out.value < 1e-7


def test_constraint_gradients_match_finite_differences():
    for trial in range(10):
        rng = make_rng(32, trial)
        d, r = 5, 4
        vecs = unit_rows(rng, 2 + r, d)
        f, pos, negs = vecs[0], vecs[1], vecs[2:]
        out = constraint_loss(f, pos, negs, temperature=0.1)
        analytic = np.concatenate([out.grad_image_feature, out.grad_tokens.ravel()])

        def value_at(x):
            toks = x[d:].reshape(1 + r, d)
            return constraint_loss(x[:d], toks[0], toks[1:], temperature=0.1).value

        numeric = finite_diff_grad(value_at, np.concatenate([f, pos, negs.ravel()]))
        assert relative_error(analytic, numeric) < 1e-4


def test_constraint_token_gradients_sum_to_zero(rng):
    """The softmax weights sum to one, so the token gradients (each a
    weight-coefficient times the image feature) cancel exactly."""
    vecs = unit_rows(rng, 6, 4)
    f, pos, negs = vecs[0], vecs[1], vecs[2:]
    out = constraint_loss(f, pos, negs, temperature=0.05)
    np.testing.assert_allclose(out.grad_tokens.sum(axis=0), np.zeros(4), atol=1e-12)
    # recover the weights from the gradients and check they sum to 1
    coeffs = out.grad_tokens @ f * 0.05  # w - [is positive]
    weights = coeffs + np.eye(1 + 4)[0][: len(coeffs)]
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert (weights > 0).all()


def test_prototype_two_equal_prototypes_closed_form():
    f = np.array([1.0, 0.0, 0.0])
    protos = PrototypeMemory(prototypes=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    out = prototype_loss(f, protos, label=0, temperature=0.7)
    assert out.value == pytest.approx(math.log(2), abs=1e-12)


def test_prototype_own_prototype_closed_form():
    protos = PrototypeMemory(prototypes=np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = prototype_loss(np.array([1.0, 0.0]), protos, label=0, temperature=1.0)
    assert out.value == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)


def test_prototype_label_validation():
    protos = PrototypeMemory(prototypes=np.eye(2))
    with pytest.raises(ValueError):
        prototype_loss(np.array([1.0, 0.0]), protos, label=2, temperature=0.5)
    with pytest.raises(ValueError):
        prototype_loss(np.array([1.0, 0.0]), protos, label=-1, temperature=0.5)
    with pytest.raises(ValueError):
        prototype_loss(np.array([1.0, 0.0]), protos, label=0, temperature=0.0)


def test_prototype_gradients_match_finite_differences():
    for trial in range(10):
        rng = make_rng(33, trial)
        c, d = 8, 5
        protos = PrototypeMemory(prototypes=unit_rows(rng, c, d))
        f = unit_rows(rng, 1, d)[0]
        label = int(rng.integers(0, c))
        out = prototype_loss(f, protos, label, temperature=0.1)

        def value_at(x):
            return prototype_loss(x, protos, label, temperature=0.1).value

        numeric = finite_diff_grad(value_at, f)
        assert relative_error(out.grad_image_feature, numeric) < 1e-4


def test_anchor_uniform_similarities_closed_form():
    f, tokens = token_set_for([0.2] * 5)
    out = anchor_loss(f, tokens[0], tokens[1:], temperature=0.05)
    assert out.value == pytest.approx(math.log(5), abs=1e-12)
    assert out.grad_tokens is None


def test_anchor_dominant_positive_is_tiny():
    f = np.zeros(3)
    f[0] = 1.0
    out = anchor_loss(f, f, np.tile(-f, (4, 1)), temperature=0.05)
    assert 0.0 <= out.value < 1e-12


def test_anchor_gradients_match_finite_differences():
    for trial in range(10):
        rng = make_rng(34, trial)
        d, k = 6, 3
        vecs = unit_rows(rng, 2 + k, d)
        f, pos, negs = vecs[0], vecs[1], vecs[2:]
        out = anchor_loss(f, pos, negs, temperature=0.05)

        def value_at(x):
            return anchor_loss(x, pos, negs, temperature=0.05).value

        numeric = finite_diff_grad(value_at, f)
        assert relative_error(out.grad_image_feature, numeric) < 1e-4


# ------------------------------------------------------------- combinations

def combo(rng):
    vecs = unit_rows(rng, 8, 4)
    f = vecs[0]
    con = constraint_loss(f, vecs[1], vecs[2:4], temperature=0.1)
    pro = prototype_loss(f, PrototypeMemory(prototypes=vecs[4:6]), 0, temperature=0.1)
    anc = anchor_loss(f, vecs[6], vecs[7:], temperature=0.1)
    return con, pro, anc


def test_total_unit_weights_is_plain_sum(rng):
    con, pro, anc = combo(rng)
    out = total_loss(con, pro, anc, 1.0, 1.0, 1.0)
    assert out.value == pytest.approx(con.value + pro.value + anc.value, rel=1e-15)
    np.testing.assert_allclose(
        out.grad_image_feature,
        con.grad_image_feature + pro.grad_image_feature + anc.grad_image_feature,
        atol=1e-15)
    np.testing.assert_array_equal(out.grad_tokens, con.grad_tokens)


def test_total_zero_weights_zero_everything(rng):
    con, pro, anc = combo(rng)
    out = total_loss(con, pro, anc, 0.0, 0.0, 0.0)
    assert out.value == 0.0
    np.testing.assert_array_equal(out.grad_image_feature, np.zeros(4))
    np.testing.assert_array_equal(out.grad_tokens, np.zeros_like(con.grad_tokens))


def test_total_scales_single_term(rng):
    con, pro, anc = combo(rng)
    out = total_loss(con, pro, anc, 2.0, 0.0, 0.0)
    assert out.value == pytest.approx(2 * con.value, rel=1e-15)
    np.testing.assert_allclose(out.grad_image_feature, 2 * con.grad_image_feature,
                               atol=1e-15)
    np.testing.assert_array_equal(out.grad_tokens, 2 * con.grad_tokens)


def test_total_accepts_missing_terms(rng):
    con, pro, _ = combo(rng)
    out = total_loss(con, pro, None, 1.0, 1.0, 1.0)
    assert out.value == pytest.approx(con.value + pro.value, rel=1e-15)
    with pytest.raises(ValueError):
        total_loss(None, None, None, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        total_loss(con, pro, None, -1.0, 1.0, 1.0)


# ------------------------------------------------------------ invariants

@given(st.lists(st.floats(-1, 1), min_size=2, max_size=12),
       st.sampled_from([0.05, 0.2, 1.0]))
@settings(max_examples=60, deadline=None)
def test_losses_nonnegative(sims, temperature):
    f, tokens = token_set_for(sims)
    out = anchor_loss(f, tokens[0], tokens[1:], temperature)
    assert out.value >= 0.0
    assert np.isfinite(out.value)


def test_monotone_in_positive_similarity():
    base = [0.2, 0.5, -0.1, 0.3]
    values = []
    for pos_sim in (-0.5, 0.0, 0.4, 0.9):
        f, tokens = token_set_for([pos_sim] + base)
        values.append(anchor_loss(f, tokens[0], tokens[1:], temperature=0.1).value)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_numerically_stable_at_extreme_ratios():
    # similarity / temperature of +-1000
    f = np.array([50.0, 0.0])
    pos = np.array([1.0, 0.0])
    negs = np.array([[-1.0, 0.0]])
    out = constraint_loss(f, pos, negs, temperature=0.05)
    assert np.isfinite(out.value) and out.value >= 0.0
    out2 = constraint_loss(f, negs[0], pos[None, :], temperature=0.05)
    assert np.isfinite(out2.value)
    assert out2.value == pytest.approx(2000.0, rel=1e-12)
