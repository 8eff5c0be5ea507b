import numpy as np
import pytest

from oracles import patch_means_by_stack
from tokmem.encoder import (CHUNK, EncoderParams, _head, encode, encode_backward,
                            image_feature, init_params, load_checkpoint,
                            part_slices, patch_means, save_checkpoint)
from tokmem.errors import DataFormatError
from tokmem.linalg import finite_diff_grad, normalize_rows, relative_error
from tokmem.synth import SynthSpec
from tokmem.training import TrainConfig


def fwd(params, patches):
    """``encode`` of patch stacks with their own ``patch_means``."""
    return encode(params, patches, patch_means(patches, params.part_tokens))


def every_token(patches):
    """The ``selected`` argument naming all I tokens of each stack, in order."""
    return np.broadcast_to(np.arange(patches.shape[-2]), patches.shape[:-1])


def test_init_deterministic():
    a = init_params(4, 8, 3, seed=11)
    b = init_params(4, 8, 3, seed=11)
    np.testing.assert_array_equal(a.w_patch, b.w_patch)
    np.testing.assert_array_equal(a.w_head, b.w_head)


def test_init_shapes():
    p = init_params(4, 8, 3, seed=0)
    assert p.w_patch.shape == (4, 8)
    assert p.w_head.shape == (1 + 3, 4, 8)


def test_init_entry_variance_matches_fan_in():
    p = init_params(100, 25, 2, seed=5)
    entries = p.vec  # 10^4 draws
    assert entries.size == 10_000
    assert entries.var() == pytest.approx(1 / 25, abs=3e-3)
    assert entries.mean() == pytest.approx(0.0, abs=3e-3)


@pytest.mark.parametrize("d,d_in,z,seed", [(2, 1, 1, 0), (4, 8, 3, 11), (32, 16, 3, 42),
                                           (5, 7, 2, 2**64 - 1)])
def test_init_is_three_block_draws_in_layout_order(d, d_in, z, seed):
    """One draw of the whole vector equals the three block draws in
    w_patch, global head, part heads order, bit for bit."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    std = 1.0 / np.sqrt(d_in)
    blocks = [std * rng.normal(size=(d, d_in)), std * rng.normal(size=(d, d_in)),
              std * rng.normal(size=(z, d, d_in))]
    p = init_params(d, d_in, z, seed)
    for view, block in zip((p.w_patch, p.w_head[0], p.w_head[1:]), blocks):
        np.testing.assert_array_equal(view, block)
    np.testing.assert_array_equal(p.vec, np.concatenate([b.ravel() for b in blocks]))


def test_blocks_are_views_of_the_vector():
    p = init_params(4, 6, 3, seed=1)
    assert p.vec.shape == ((2 + 3) * 4 * 6,)
    for block in (p.w_patch, p.w_head):
        assert np.shares_memory(block, p.vec)
    before = p.vec.copy()
    p.w_head[2] -= 1.0  # the second part head is the fourth block of 24 entries
    np.testing.assert_array_equal(np.flatnonzero(p.vec != before), np.arange(72, 96))
    p.vec[:] = 0.0
    assert not p.w_patch.any() and not p.w_head.any()


def test_constructor_copies_and_round_trips():
    p = init_params(4, 6, 3, seed=1)
    vec = p.vec.copy()
    q = EncoderParams(vec, 4, 6)
    assert not np.shares_memory(q.vec, vec)
    np.testing.assert_array_equal(q.vec, vec)
    assert (q.feature_dim, q.patch_input_dim, q.part_tokens) == (4, 6, 3)
    for name in ("w_patch", "w_head"):
        np.testing.assert_array_equal(getattr(q, name), getattr(p, name))
    vec[:] = 0.0
    np.testing.assert_array_equal(q.vec, p.vec)


@pytest.mark.parametrize("size,d,d_in", [(5 * 24 + 1, 4, 6), (2 * 24, 4, 6), (24, 4, 6),
                                         (3 * 6, 1, 6), (10, 0, 6)])
def test_constructor_rejects_bad_layout(size, d, d_in):
    with pytest.raises(ValueError):
        EncoderParams(np.zeros(size), d, d_in)


@pytest.mark.parametrize("at,value", [(0, np.nan), (30, np.inf), (119, -np.inf)])
def test_constructor_rejects_non_finite_entries(at, value):
    vec = init_params(4, 6, 3, seed=1).vec
    vec[at] = value
    with pytest.raises(ValueError, match="non-finite"):
        EncoderParams(vec, 4, 6)


def test_identity_projection_passes_patch_through():
    eye = np.eye(3)
    params = EncoderParams(np.tile(eye.ravel(), 3), 3, 3)
    patch = np.array([[1.0, 0.0, 0.0]])
    out = fwd(params, patch)
    np.testing.assert_allclose(out.patch_tokens[0], [1.0, 0.0, 0.0], atol=1e-15)


def test_equal_patches_identity_heads_gives_patch_direction():
    eye = np.eye(3)
    params = EncoderParams(np.tile(eye.ravel(), 4), 3, 3)
    p = np.array([2.0, 1.0, -1.0])
    out = fwd(params, np.tile(p, (6, 1)))
    # stripe means all equal p, so the pre-normalization feature is 2p
    np.testing.assert_allclose(out.image_feature, 2 * p / np.linalg.norm(2 * p),
                               atol=1e-14)


def test_encode_matches_straight_line_reevaluation(rng):
    """Independent re-computation of the forward pass with plain loops."""
    d, d_in, num_patches, z = 4, 6, 6, 3
    params = init_params(d, d_in, z, seed=77)
    patches = rng.normal(size=(num_patches, d_in))
    out = fwd(params, patches)

    for i in range(num_patches):
        u = params.w_patch @ patches[i]
        np.testing.assert_allclose(out.patch_tokens[i], u / np.linalg.norm(u),
                                   atol=1e-12)

    xbar = sum(patches[i] for i in range(num_patches)) / num_patches
    groups = [patches[0:2], patches[2:4], patches[4:6]]
    pre = params.w_head[0] @ xbar
    for wz, grp in zip(params.w_head[1:], groups):
        pre = pre + wz @ (grp.sum(axis=0) / len(grp)) / z
    np.testing.assert_allclose(out.image_feature, pre / np.linalg.norm(pre),
                               atol=1e-12)


def test_all_outputs_unit_norm(rng):
    params = init_params(5, 7, 2, seed=3)
    out = fwd(params, rng.normal(size=(9, 7)))
    assert abs(np.linalg.norm(out.image_feature) - 1) <= 1e-9
    np.testing.assert_allclose(np.linalg.norm(out.patch_tokens, axis=1), 1.0,
                               atol=1e-9)


def test_image_feature_normalizes_chunks_as_one_call(rng):
    """``image_feature`` normalizes ``CHUNK`` rows at a time, in place: the
    bits are those of one ``normalize_rows`` call over the heads, with a
    last chunk of one row, a row whose squares are subnormal, and with two
    leading axes."""
    params = init_params(8, 5, 3, seed=4)
    means = patch_means(rng.normal(size=(2 * CHUNK + 1, 6, 5)), 3)
    means[:, 7] *= 1e-160
    expected = normalize_rows(_head(params, means))
    assert image_feature(params, means).tobytes() == expected.tobytes()
    stacked = means.reshape(4, 5, 205, 5)
    feats = image_feature(params, stacked)
    assert feats.shape == (5, 205, 8)
    assert feats.tobytes() == normalize_rows(_head(params, stacked)).tobytes()


def test_part_slices_remainder_goes_last():
    slices = part_slices(16, 3)
    assert [s.stop - s.start for s in slices] == [5, 5, 6]
    assert slices[-1].stop == 16


def test_fewer_patches_than_part_tokens_rejected():
    params = init_params(4, 6, 3, seed=1)
    with pytest.raises(ValueError):
        patch_means(np.zeros((2, 6)), params.part_tokens)


@pytest.mark.parametrize("num_patches,z", [(16, 3), (7, 2), (6, 3), (5, 1)])
def test_patch_means_of_a_batch_are_rows_of_the_whole(rng, num_patches, z):
    """A batch's means equal the whole set's rows bit for bit, also where
    the last stripe takes remainder patches (16 = 5 + 5 + 6, 7 = 3 + 4)."""
    x = rng.normal(size=(40, num_patches, 4)) * rng.choice([1e-3, 1.0, 1e3], size=(40, 1, 1))
    whole = patch_means(x, z)
    assert whole.shape == (1 + z, 40, 4)
    for size in (1, 5, 32, 40):
        b = rng.permutation(40)[:size]
        np.testing.assert_array_equal(whole[:, b], patch_means(x[b], z))
    np.testing.assert_array_equal(whole[:, 3], patch_means(x[3], z))
    # float32 stacks give the means of their float64 copy bit for bit, also
    # with a second leading axis
    x32 = (rng.normal(size=(259, num_patches, 4))
           * rng.choice([1e-3, 1.0, 1e3], size=(259, 1, 1))).astype(np.float32)
    wide = patch_means(x32.astype(np.float64), z)
    assert patch_means(x32, z).tobytes() == wide.tobytes()
    stacked = patch_means(x32.reshape(7, 37, num_patches, 4), z)
    assert stacked.shape == (1 + z, 7, 37, 4)
    assert stacked.tobytes() == wide.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("num_patches,z", [(6, 6), (5, 5), (9, 4), (16, 3), (7, 1)])
def test_patch_means_equal_the_per_stack_mean_oracle(rng, dtype, num_patches, z):
    """Bit for bit the per-stack ``mean`` of the float64 stacks: stripes of
    width 1 (Z = I), a remainder stripe (9 = 2 + 2 + 2 + 3, 16 = 5 + 5 + 6),
    patch magnitudes from 1e-3 to 1e30 within each stack, where the order
    of the adds shows in the bits, and more stacks than one ``CHUNK``."""
    count = CHUNK + 7  # the last chunk of stacks is a short one
    scale = 10.0 ** rng.uniform(-3, 30, size=(count, num_patches, 1))
    x = (rng.normal(size=(count, num_patches, 3)) * scale).astype(dtype)
    assert patch_means(x, z).tobytes() == patch_means_by_stack(x, z).tobytes()
    stacked = x[:50].reshape(5, 10, num_patches, 3)
    assert patch_means(stacked, z).tobytes() == patch_means_by_stack(stacked, z).tobytes()


def test_patch_means_rejects_fewer_than_two_axes():
    with pytest.raises(ValueError, match=r"patches must be \(\.\.\., I, d_in\)"):
        patch_means(np.zeros(6), 2)


def test_patch_means_refuse_a_blank_stack_by_its_flat_index(rng):
    """A stack whose patch and stripe means are all zero has no feature
    direction; the refusal names its flat index, also past the first
    ``CHUNK`` and with two leading axes, where ``-0.0`` counts as zero."""
    message = "sample {} is blank: its patch and stripe means are all zero"
    flat = rng.normal(size=(CHUNK + 5, 6, 3))
    flat[CHUNK + 2] = 0.0
    with pytest.raises(ValueError, match=f"^{message.format(CHUNK + 2)}$"):
        patch_means(flat, 2)
    stacked = rng.normal(size=(3, 4, 6, 3)).astype(np.float32)
    stacked[1, 2] = -0.0
    with pytest.raises(ValueError, match=f"^{message.format(6)}$"):
        patch_means(stacked, 2)
    # one non-zero patch, in the last stripe, gives the stack a direction
    stacked[1, 2, -1, 0] = 1.0
    means = patch_means(stacked, 2)
    assert means[:, 1, 2].any(axis=-1).tolist() == [True, False, True]


def test_encode_rejects_patches_of_another_width(rng):
    params = init_params(4, 6, 2, seed=9)
    patches = rng.normal(size=(3, 5, 7))
    with pytest.raises(ValueError, match=r"patches must be \(\.\.\., I, 6\)"):
        encode(params, patches, patch_means(patches, 2))


def test_encode_rejects_means_of_another_shape(rng):
    params = init_params(4, 6, 2, seed=9)
    patches = rng.normal(size=(3, 5, 6))
    means = patch_means(patches, 2)
    for bad in (means[:, :2], means[:2], patch_means(patches, 3), means[..., :5]):
        with pytest.raises(ValueError, match="patch_means"):
            encode(params, patches, bad)
    with pytest.raises(ValueError, match="patch_means"):
        image_feature(params, means[:2])


def grad_blocks(params, patches, g_f, g_t):
    """``encode_backward``'s vector, viewed as blocks laid out like ``params``."""
    grad = encode_backward(fwd(params, patches), g_f, every_token(patches), g_t)
    assert grad.shape == params.vec.shape
    return EncoderParams(grad, params.feature_dim, params.patch_input_dim)


def test_backward_zero_grads_give_zero(rng):
    params = init_params(4, 6, 2, seed=9)
    patches = rng.normal(size=(5, 6))
    grad = encode_backward(fwd(params, patches), np.zeros(4), every_token(patches),
                           np.zeros((5, 4)))
    assert not grad.any()


def test_backward_image_grad_never_touches_patch_projection(rng):
    params = init_params(4, 6, 2, seed=9)
    patches = rng.normal(size=(5, 6))
    grads = grad_blocks(params, patches, rng.normal(size=4), np.zeros((5, 4)))
    assert not grads.w_patch.any()
    assert grads.w_head[0].any()


def test_backward_token_grad_never_touches_heads(rng):
    params = init_params(4, 6, 2, seed=9)
    patches = rng.normal(size=(5, 6))
    grads = grad_blocks(params, patches, np.zeros(4), rng.normal(size=(5, 4)))
    assert grads.w_patch.any()
    assert not grads.w_head[0].any()
    assert not grads.w_head[1:].any()


def test_backward_shape_mismatch_rejected(rng):
    params = init_params(4, 6, 2, seed=9)
    patches = rng.normal(size=(5, 6))
    out = fwd(params, patches)
    with pytest.raises(ValueError):
        encode_backward(out, np.zeros(3), every_token(patches), np.zeros((5, 4)))
    with pytest.raises(ValueError):
        encode_backward(out, np.zeros(4), every_token(patches), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        encode_backward(out, np.zeros(4), np.arange(3), np.zeros((5, 4)))
    with pytest.raises(ValueError):
        encode_backward(out, np.zeros(4), np.arange(5.0), np.zeros((5, 4)))


def assert_matches_dense(out, g_f, selected, g_s):
    """``encode_backward`` on ``selected`` equals the backward over all I
    tokens with each selected row's gradients summed into its token and
    zero elsewhere. The two products add the same terms over B*K and B*I
    rows, so they agree to rounding: within 1e-13 of the largest entry."""
    dense = np.zeros(out.patch_tokens.shape)
    np.add.at(dense, (np.arange(len(selected))[:, None], selected), g_s)
    expected = encode_backward(out, g_f, every_token(out.patches), dense)
    np.testing.assert_allclose(encode_backward(out, g_f, selected, g_s), expected,
                               rtol=0, atol=1e-13 * np.abs(expected).max())


@pytest.mark.parametrize("k", [1, 3, 7])
def test_subset_backward_equals_dense_backward(rng, k):
    """The backward on K distinct selected tokens per stack, in any order,
    equals the backward over all I tokens with zero gradient rows elsewhere."""
    params = init_params(8, 5, 3, seed=4)
    patches = rng.normal(size=(6, 7, 5))
    selected = np.argsort(rng.random((6, 7)), axis=1)[:, :k]
    assert_matches_dense(fwd(params, patches), rng.normal(size=(6, 8)), selected,
                         rng.normal(size=(6, k, 8)))


def test_repeated_token_backward_sums_its_gradients(rng):
    """A token selected twice in a stack takes the sum of its two gradients."""
    params = init_params(8, 5, 3, seed=4)
    patches = rng.normal(size=(4, 7, 5))
    selected = np.array([[0, 0, 3], [6, 2, 6], [1, 1, 1], [5, 4, 2]])
    assert_matches_dense(fwd(params, patches), rng.normal(size=(4, 8)), selected,
                         rng.normal(size=(4, 3, 8)))


def test_unselected_tokens_add_exact_zero(rng):
    """No selected token: the w_patch block is exact +0.0, and a zero
    gradient on a selected token adds nothing either."""
    params = init_params(4, 6, 2, seed=9)
    patches = rng.normal(size=(3, 5, 6))
    out = fwd(params, patches)
    for selected in (np.zeros((3, 0), dtype=np.int64), np.array([[0], [4], [2]])):
        grad = encode_backward(out, rng.normal(size=(3, 4)), selected,
                               np.zeros((*selected.shape, 4)))
        block = EncoderParams(grad, 4, 6).w_patch
        assert not block.any() and not np.signbit(block).any()


@pytest.mark.parametrize("selected", [[[0, 2], [1, 3], [4, 5]], [[0, 2], [-1, 3], [3, 4]]])
def test_backward_rejects_out_of_range_token(rng, selected):
    """A negative index would silently wrap around to the last tokens."""
    params = init_params(4, 6, 2, seed=9)
    patches = rng.normal(size=(3, 5, 6))
    with pytest.raises(ValueError, match="out of range"):
        encode_backward(fwd(params, patches), np.zeros((3, 4)), np.array(selected),
                        rng.normal(size=(3, 2, 4)))


def test_backward_accepts_an_index_repeated_across_rows(rng):
    params = init_params(4, 6, 2, seed=9)
    patches = rng.normal(size=(3, 5, 6))
    selected = np.array([[1, 2], [1, 2], [2, 1]])
    assert encode_backward(fwd(params, patches), np.zeros((3, 4)), selected,
                           rng.normal(size=(3, 2, 4))).any()


@pytest.mark.parametrize("trial", range(20))
def test_backward_matches_finite_differences(trial):
    rng = np.random.Generator(np.random.Philox(key=np.array([404, trial],
                                                            dtype=np.uint64)))
    d = int(rng.integers(3, 6))
    d_in = int(rng.integers(3, 7))
    z = int(rng.integers(1, 4))
    num_patches = int(rng.integers(z, z + 4))
    params = init_params(d, d_in, z, seed=trial)
    patches = rng.normal(size=(num_patches, d_in))
    g_f = rng.normal(size=d)
    g_t = rng.normal(size=(num_patches, d))

    analytic = encode_backward(fwd(params, patches), g_f, every_token(patches), g_t)

    def value_at(vec):
        out = fwd(EncoderParams(vec, d, d_in), patches)
        return float(g_f @ out.image_feature + np.sum(g_t * out.patch_tokens))

    numeric = finite_diff_grad(value_at, params.vec, h=1e-5)
    assert relative_error(analytic, numeric) < 1e-4


@pytest.mark.parametrize("trial", range(20))
def test_backward_with_repeated_tokens_matches_finite_differences(trial):
    """The functional <g_f, f> + sum_k <g_s[k], token_{selected[k]}> with
    indices repeated within a stack: each occurrence adds its own term."""
    rng = np.random.Generator(np.random.Philox(key=np.array([405, trial],
                                                            dtype=np.uint64)))
    d, d_in, z = int(rng.integers(3, 6)), int(rng.integers(3, 7)), int(rng.integers(1, 4))
    num_patches = int(rng.integers(z, z + 4))
    params = init_params(d, d_in, z, seed=trial)
    patches = rng.normal(size=(3, num_patches, d_in))
    selected = rng.integers(0, num_patches, size=(3, num_patches + 2))
    selected[:, -1] = selected[:, 0]  # at least one repeat in every stack
    g_f = rng.normal(size=(3, d))
    g_s = rng.normal(size=(*selected.shape, d))
    rows = np.arange(3)[:, None]

    analytic = encode_backward(fwd(params, patches), g_f, selected, g_s)

    def value_at(vec):
        out = fwd(EncoderParams(vec, d, d_in), patches)
        return float(np.sum(g_f * out.image_feature)
                     + np.sum(g_s * out.patch_tokens[rows, selected]))

    numeric = finite_diff_grad(value_at, params.vec, h=1e-5)
    assert relative_error(analytic, numeric) < 1e-4


def test_batch_axes_match_single_images(rng):
    params = init_params(4, 6, 3, seed=21)
    patches = rng.normal(size=(2, 3, 7, 6))
    g_f = rng.normal(size=(2, 3, 4))
    g_t = rng.normal(size=(2, 3, 7, 4))
    out = fwd(params, patches)
    assert out.image_feature.shape == (2, 3, 4)
    np.testing.assert_array_equal(image_feature(params, patch_means(patches, 3)),
                                  out.image_feature)
    grad = encode_backward(out, g_f, every_token(patches), g_t)
    summed = np.zeros_like(params.vec)
    for idx in np.ndindex(2, 3):
        single = fwd(params, patches[idx])
        np.testing.assert_allclose(out.image_feature[idx], single.image_feature,
                                   atol=1e-15)
        np.testing.assert_allclose(out.patch_tokens[idx], single.patch_tokens,
                                   atol=1e-15)
        summed += encode_backward(single, g_f[idx], np.arange(7), g_t[idx])
    np.testing.assert_allclose(grad, summed, rtol=1e-12, atol=1e-12)


# the config sections that make and read a checkpoint of dims (6, 5, 3)
MADE_BY = {"data": SynthSpec(num_identities=4, samples_per_identity=3, patches_per_image=6,
                             patch_input_dim=5, identity_spread=0.1, noise_patch_prob=0.1,
                             seed=0),
           "train": TrainConfig(feature_dim=6, part_tokens=3)}


def test_checkpoint_round_trip(tmp_path):
    params = init_params(6, 5, 3, seed=17)
    save_checkpoint(params, tmp_path / "ckpt", MADE_BY)
    loaded = load_checkpoint(tmp_path / "ckpt", MADE_BY)
    assert (loaded.feature_dim, loaded.patch_input_dim, loaded.part_tokens) == (6, 5, 3)
    np.testing.assert_array_equal(loaded.vec, params.vec.astype(np.float32))


def test_checkpoint_blob_is_the_vector_as_float32(tmp_path):
    params = init_params(6, 5, 3, seed=17)
    save_checkpoint(params, tmp_path / "ckpt", MADE_BY)
    assert (tmp_path / "ckpt.f32").read_bytes() == params.vec.astype("<f4").tobytes()


def test_checkpoint_truncated_blob_rejected(tmp_path):
    params = init_params(6, 5, 3, seed=17)
    save_checkpoint(params, tmp_path / "ckpt", MADE_BY)
    blob = (tmp_path / "ckpt.f32").read_bytes()
    (tmp_path / "ckpt.f32").write_bytes(blob[:-4])
    with pytest.raises(DataFormatError):
        load_checkpoint(tmp_path / "ckpt", MADE_BY)
