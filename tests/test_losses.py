import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE, unit_rows
from oracles import topk_by_full_sort
from tokmem.encoder import image_feature, init_params, patch_means
from tokmem.linalg import finite_diff_grad, relative_error
from tokmem.losses import patch_rate, select_constraint_tokens, softmax_ce
from tokmem.memory import compute_prototypes, label_runs
from tokmem.training import TrainConfig, train_step


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
    selected = select_constraint_tokens(f, tokens, rate=0.5)  # R = 2
    np.testing.assert_array_equal(selected, [0, 3, 1])  # the positive, then the negatives


def test_select_all_equal_tie_rules():
    f, tokens = token_set_for([0.4, 0.4, 0.4, 0.4])
    pos, *negs = select_constraint_tokens(f, tokens, rate=0.25)  # R = 1
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
    pos, *negs = select_constraint_tokens(f, tokens, rate=0.075)
    assert pos == topk_by_full_sort(sims, 1, descending=True)[0]
    expected = [i for i in topk_by_full_sort(sims, 10, descending=False) if i != pos][:9]
    np.testing.assert_array_equal(negs, expected)


# ----------------------------------------------------------------- the losses
# Every loss is one ``softmax_ce`` call: the constraint loss with per-row
# token candidates, the prototype loss with one shared prototype set, the
# anchor loss with constant memory candidates. These tests use B = 1.

def token_grads(out, f, temperature):
    """d value / d c_k of per-row candidates, as ``train_step`` forms it."""
    return out.coeff[:, :, None] * f[:, None, :] / temperature


def constraint(f, pos, negs, temperature):
    return softmax_ce(f[None], np.vstack([pos, negs])[None], 0, temperature)


def anchor(f, pos, negs, temperature):
    return softmax_ce(f[None], np.vstack([pos, negs]), 0, temperature)


def test_constraint_uniform_similarities_closed_form():
    f, tokens = token_set_for([0.3] * 10)
    out = softmax_ce(f[None], tokens[None], 0, temperature=0.05)
    assert out.value[0] == pytest.approx(math.log(10), abs=1e-12)


def test_constraint_dominant_positive_is_tiny():
    f = np.zeros(4)
    f[0] = 1.0
    negs = np.eye(4)[1:]  # orthogonal to f
    out = constraint(f, f, negs, temperature=0.05)
    assert 0.0 <= out.value[0] < 1e-7


def test_constraint_gradients_match_finite_differences():
    for trial in range(10):
        rng = make_rng(32, trial)
        d, r = 5, 4
        vecs = unit_rows(rng, 2 + r, d)
        f, toks = vecs[0], vecs[1:]
        out = softmax_ce(f[None], toks[None], 0, temperature=0.1)
        analytic = np.concatenate([out.grad_image_feature[0],
                                   token_grads(out, f[None], 0.1)[0].ravel()])

        def value_at(x):
            return softmax_ce(x[None, :d], x[d:].reshape(1, 1 + r, d), 0,
                              temperature=0.1).value[0]

        numeric = finite_diff_grad(value_at, np.concatenate([f, toks.ravel()]))
        assert relative_error(analytic, numeric) < 1e-4


def test_constraint_token_gradients_sum_to_zero(rng):
    """The softmax weights sum to one, so the token gradients (each a
    weight-coefficient times the image feature) cancel exactly."""
    vecs = unit_rows(rng, 6, 4)
    f, pos, negs = vecs[0], vecs[1], vecs[2:]
    grad_tokens = token_grads(constraint(f, pos, negs, temperature=0.05), f[None], 0.05)[0]
    np.testing.assert_allclose(grad_tokens.sum(axis=0), np.zeros(4), atol=1e-12)
    # recover the weights from the gradients and check they sum to 1
    coeffs = grad_tokens @ f * 0.05  # w - [is positive]
    weights = coeffs + np.eye(1 + 4)[0][: len(coeffs)]
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert (weights > 0).all()


def test_prototype_two_equal_prototypes_closed_form():
    f = np.array([[1.0, 0.0, 0.0]])
    protos = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    out = softmax_ce(f, protos, 0, temperature=0.7)
    assert out.value[0] == pytest.approx(math.log(2), abs=1e-12)
    np.testing.assert_allclose(out.coeff, [[-0.5, 0.5]], atol=1e-15)


def test_prototype_own_prototype_closed_form():
    protos = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = softmax_ce(np.array([[1.0, 0.0]]), protos, 0, temperature=1.0)
    assert out.value[0] == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)


def test_prototype_label_validation():
    protos = np.eye(2)
    f = np.array([[1.0, 0.0]])
    for target in (2, -1, np.array([2]), np.array([-1])):  # an int and a (B,) array alike
        with pytest.raises(ValueError, match=r"target out of range \[0, 2\)"):
            softmax_ce(f, protos, target, temperature=0.5)
    with pytest.raises(ValueError, match="temperature"):
        softmax_ce(f, protos, 0, temperature=0.0)
    with pytest.raises(ValueError, match="temperature"):
        softmax_ce(f, protos, 0, temperature=float("nan"))


def test_prototype_gradients_match_finite_differences():
    for trial in range(10):
        rng = make_rng(33, trial)
        c, d = 8, 5
        protos = unit_rows(rng, c, d)
        f = unit_rows(rng, 1, d)
        label = int(rng.integers(0, c))
        out = softmax_ce(f, protos, label, temperature=0.1)

        def value_at(x):
            return softmax_ce(x, protos, label, temperature=0.1).value[0]

        numeric = finite_diff_grad(value_at, f)
        assert relative_error(out.grad_image_feature, numeric) < 1e-4


def test_anchor_uniform_similarities_closed_form():
    f, tokens = token_set_for([0.2] * 5)
    out = softmax_ce(f[None], tokens, 0, temperature=0.05)
    assert out.value[0] == pytest.approx(math.log(5), abs=1e-12)
    np.testing.assert_allclose(out.coeff, [[-0.8, 0.2, 0.2, 0.2, 0.2]], atol=1e-15)


def test_anchor_dominant_positive_is_tiny():
    f = np.zeros(3)
    f[0] = 1.0
    out = anchor(f, f, np.tile(-f, (4, 1)), temperature=0.05)
    assert 0.0 <= out.value[0] < 1e-12


def test_anchor_gradients_match_finite_differences():
    for trial in range(10):
        rng = make_rng(34, trial)
        d, k = 6, 3
        vecs = unit_rows(rng, 2 + k, d)
        f, cand = vecs[:1], vecs[1:]
        out = softmax_ce(f, cand, 0, temperature=0.05)

        def value_at(x):
            return softmax_ce(x, cand, 0, temperature=0.05).value[0]

        numeric = finite_diff_grad(value_at, f)
        assert relative_error(out.grad_image_feature, numeric) < 1e-4


def test_masked_per_row_candidates_get_zero_token_gradients(rng):
    """Per-row candidates, as ``train_step`` mines them for the anchor
    term; a masked candidate has weight 0, so its gradient is exactly
    zero, while the others keep (w_k - [k == 0]) f / t."""
    f, cand = unit_rows(rng, 3, 4), unit_rows(rng, 15, 4).reshape(3, 5, 4)
    valid = np.array([[1, 1, 0, 1, 0], [1, 0, 0, 0, 0], [1, 1, 1, 1, 1]], dtype=bool)
    grad_tokens = token_grads(softmax_ce(f, cand, 0, temperature=0.1, valid=valid), f, 0.1)
    assert grad_tokens.shape == cand.shape
    assert (grad_tokens[~valid] == 0.0).all()
    np.testing.assert_array_equal(grad_tokens[1, 0], np.zeros(4))  # only its positive
    assert (grad_tokens[valid & (np.arange(5) > 0)] != 0.0).any(axis=1).all()


# ------------------------------------------------------------- combinations
# ``train_step`` sums the three terms as w_con*con + w_pro*pro + w_anc*anc;
# the SGD step is linear in that sum's gradient, so parameter changes add
# and scale with the weights.

def step_with(labels=(0, 0, 1, 1, 2, 2, -1, 0), **overrides):
    """One ``train_step`` on a fixed instance: (step losses, parameter change)."""
    cfg = TrainConfig(batch_size=4, temperature=0.1, neg_token_rate=0.2,
                      num_negatives=2, feature_dim=4, part_tokens=2, **overrides)
    labels = np.asarray(labels, dtype=np.int64)
    patches = make_rng(35, 0).normal(size=(len(labels), 6, 3))
    params = init_params(4, 3, 2, seed=1)
    means = patch_means(patches, 2)
    bank = image_feature(params, means)
    batch = np.flatnonzero(labels >= 0)[:4]
    before = params.vec.copy()
    runs = label_runs(labels)
    step = train_step(cfg, params, patches[batch], means[:, batch], batch, labels[batch],
                      bank, bank.astype(np.float32), runs, compute_prototypes(bank, runs),
                      lr=0.1)
    return step, params.vec - before


def weights(con, pro, anc):
    return dict(weight_constraint=con, weight_prototype=pro, weight_anchor=anc)


def test_total_unit_weights_is_plain_sum():
    step, delta = step_with()
    np.testing.assert_array_equal(step.total, step.constraint + step.proto + step.anchor)
    parts = sum(step_with(**weights(*w))[1] for w in np.eye(3))
    np.testing.assert_allclose(delta, parts, rtol=1e-12, atol=1e-15)


def test_total_zero_weights_zero_everything():
    step, delta = step_with(**weights(0.0, 0.0, 0.0))
    np.testing.assert_array_equal(step.total, np.zeros(4))
    np.testing.assert_array_equal(delta, np.zeros_like(delta))


def test_total_scales_single_term():
    step, delta = step_with(**weights(2.0, 0.0, 0.0))
    np.testing.assert_array_equal(step.total, 2 * step.constraint)
    _, unit = step_with(**weights(1.0, 0.0, 0.0))
    np.testing.assert_allclose(delta, 2 * unit, rtol=1e-12, atol=1e-15)


def test_total_accepts_missing_terms():
    """Rows without a negative candidate carry no anchor term."""
    layout = dict(labels=(0, 0, 0, 0, 0, -1, -1), anchor_include_outliers=False)
    step, delta = step_with(**layout)
    assert not step.has_anchor.any()
    np.testing.assert_array_equal(step.total, step.constraint + step.proto)
    np.testing.assert_array_equal(delta, step_with(**layout, weight_anchor=0.0)[1])
    with pytest.raises(ValueError, match="weight_constraint"):
        TrainConfig(weight_constraint=-1.0).validate(REFERENCE.data)


# ------------------------------------------------------------ invariants

@given(st.lists(st.floats(-1, 1), min_size=2, max_size=12),
       st.sampled_from([0.05, 0.2, 1.0]))
@settings(max_examples=60, deadline=None)
def test_losses_nonnegative(sims, temperature):
    f, tokens = token_set_for(sims)
    out = softmax_ce(f[None], tokens, 0, temperature)
    assert out.value[0] >= 0.0
    assert np.isfinite(out.value[0])


def test_monotone_in_positive_similarity():
    base = [0.2, 0.5, -0.1, 0.3]
    values = []
    for pos_sim in (-0.5, 0.0, 0.4, 0.9):
        f, tokens = token_set_for([pos_sim] + base)
        values.append(softmax_ce(f[None], tokens, 0, temperature=0.1).value[0])
    assert all(a > b for a, b in zip(values, values[1:]))


def test_numerically_stable_at_extreme_ratios():
    # similarity / temperature of +-1000
    f = np.array([50.0, 0.0])
    pos = np.array([1.0, 0.0])
    negs = np.array([[-1.0, 0.0]])
    out = constraint(f, pos, negs, temperature=0.05)
    assert np.isfinite(out.value[0]) and out.value[0] >= 0.0
    out2 = constraint(f, negs[0], pos[None, :], temperature=0.05)
    assert np.isfinite(out2.value[0])
    assert out2.value[0] == pytest.approx(2000.0, rel=1e-12)
