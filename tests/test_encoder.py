import numpy as np
import pytest

from tokmem.encoder import (EncoderParams, encode, encode_backward,
                            flatten_params, image_feature, init_params,
                            load_checkpoint, part_slices, save_checkpoint,
                            unflatten_params)
from tokmem.errors import DataFormatError
from tokmem.linalg import finite_diff_grad, relative_error


def test_init_deterministic():
    a = init_params(4, 8, 3, seed=11)
    b = init_params(4, 8, 3, seed=11)
    np.testing.assert_array_equal(a.w_patch, b.w_patch)
    np.testing.assert_array_equal(a.w_cls, b.w_cls)
    np.testing.assert_array_equal(a.w_part, b.w_part)


def test_init_shapes():
    p = init_params(4, 8, 3, seed=0)
    assert p.w_patch.shape == (4, 8)
    assert p.w_cls.shape == (4, 8)
    assert p.w_part.shape == (3, 4, 8)


def test_init_entry_variance_matches_fan_in():
    p = init_params(100, 25, 2, seed=5)
    entries = flatten_params(p)  # 10^4 draws
    assert entries.size == 10_000
    assert entries.var() == pytest.approx(1 / 25, abs=3e-3)
    assert entries.mean() == pytest.approx(0.0, abs=3e-3)


def test_identity_projection_passes_patch_through():
    eye = np.eye(3)
    params = EncoderParams(w_patch=eye, w_cls=eye, w_part=eye[None, :, :])
    patch = np.array([[1.0, 0.0, 0.0]])
    out = encode(params, patch)
    np.testing.assert_allclose(out.patch_tokens[0], [1.0, 0.0, 0.0], atol=1e-15)


def test_equal_patches_identity_heads_gives_patch_direction():
    eye = np.eye(3)
    params = EncoderParams(w_patch=eye, w_cls=eye, w_part=np.stack([eye, eye]))
    p = np.array([2.0, 1.0, -1.0])
    out = encode(params, np.tile(p, (6, 1)))
    # stripe means all equal p, so the pre-normalization feature is 2p
    np.testing.assert_allclose(out.image_feature, 2 * p / np.linalg.norm(2 * p),
                               atol=1e-14)


def test_encode_matches_straight_line_reevaluation(rng):
    """Independent re-computation of the forward pass with plain loops."""
    d, d_in, num_patches, z = 4, 6, 6, 3
    params = init_params(d, d_in, z, seed=77)
    patches = rng.normal(size=(num_patches, d_in))
    out = encode(params, patches)

    for i in range(num_patches):
        u = params.w_patch @ patches[i]
        np.testing.assert_allclose(out.patch_tokens[i], u / np.linalg.norm(u),
                                   atol=1e-12)

    xbar = sum(patches[i] for i in range(num_patches)) / num_patches
    groups = [patches[0:2], patches[2:4], patches[4:6]]
    pre = params.w_cls @ xbar
    for wz, grp in zip(params.w_part, groups):
        pre = pre + wz @ (grp.sum(axis=0) / len(grp)) / z
    np.testing.assert_allclose(out.image_feature, pre / np.linalg.norm(pre),
                               atol=1e-12)


def test_all_outputs_unit_norm(rng):
    params = init_params(5, 7, 2, seed=3)
    out = encode(params, rng.normal(size=(9, 7)))
    assert abs(np.linalg.norm(out.image_feature) - 1) <= 1e-9
    np.testing.assert_allclose(np.linalg.norm(out.patch_tokens, axis=1), 1.0,
                               atol=1e-9)


def test_part_slices_remainder_goes_last():
    slices = part_slices(16, 3)
    assert [s.stop - s.start for s in slices] == [5, 5, 6]
    assert slices[-1].stop == 16


def test_fewer_patches_than_part_tokens_rejected():
    params = init_params(4, 6, 3, seed=1)
    with pytest.raises(ValueError):
        encode(params, np.zeros((2, 6)))


def test_backward_zero_grads_give_zero(rng):
    params = init_params(4, 6, 2, seed=9)
    patches = rng.normal(size=(5, 6))
    grads = encode_backward(encode(params, patches), np.zeros(4), np.zeros((5, 4)))
    assert not grads.w_patch.any()
    assert not grads.w_cls.any()
    assert not grads.w_part.any()


def test_backward_image_grad_never_touches_patch_projection(rng):
    params = init_params(4, 6, 2, seed=9)
    patches = rng.normal(size=(5, 6))
    grads = encode_backward(encode(params, patches), rng.normal(size=4), np.zeros((5, 4)))
    assert not grads.w_patch.any()
    assert grads.w_cls.any()


def test_backward_token_grad_never_touches_heads(rng):
    params = init_params(4, 6, 2, seed=9)
    patches = rng.normal(size=(5, 6))
    grads = encode_backward(encode(params, patches), np.zeros(4), rng.normal(size=(5, 4)))
    assert grads.w_patch.any()
    assert not grads.w_cls.any()
    assert not grads.w_part.any()


def test_backward_shape_mismatch_rejected(rng):
    params = init_params(4, 6, 2, seed=9)
    patches = rng.normal(size=(5, 6))
    with pytest.raises(ValueError):
        encode_backward(encode(params, patches), np.zeros(3), np.zeros((5, 4)))
    with pytest.raises(ValueError):
        encode_backward(encode(params, patches), np.zeros(4), np.zeros((4, 4)))


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

    grads = encode_backward(encode(params, patches), g_f, g_t)
    analytic = np.concatenate([grads.w_patch.ravel(), grads.w_cls.ravel(),
                               grads.w_part.ravel()])

    def value_at(vec):
        p = unflatten_params(vec, params)
        out = encode(p, patches)
        return float(g_f @ out.image_feature + np.sum(g_t * out.patch_tokens))

    numeric = finite_diff_grad(value_at, flatten_params(params), h=1e-5)
    assert relative_error(analytic, numeric) < 1e-4


def test_batch_axes_match_single_images(rng):
    params = init_params(4, 6, 3, seed=21)
    patches = rng.normal(size=(2, 3, 7, 6))
    g_f = rng.normal(size=(2, 3, 4))
    g_t = rng.normal(size=(2, 3, 7, 4))
    out = encode(params, patches)
    assert out.image_feature.shape == (2, 3, 4)
    np.testing.assert_array_equal(image_feature(params, patches), out.image_feature)
    grads = encode_backward(encode(params, patches), g_f, g_t)
    summed = [np.zeros_like(params.w_patch), np.zeros_like(params.w_cls),
              np.zeros_like(params.w_part)]
    for idx in np.ndindex(2, 3):
        single = encode(params, patches[idx])
        np.testing.assert_allclose(out.image_feature[idx], single.image_feature,
                                   atol=1e-15)
        np.testing.assert_allclose(out.patch_tokens[idx], single.patch_tokens,
                                   atol=1e-15)
        g = encode_backward(encode(params, patches[idx]), g_f[idx], g_t[idx])
        for acc, block in zip(summed, (g.w_patch, g.w_cls, g.w_part)):
            acc += block
    for acc, block in zip(summed, (grads.w_patch, grads.w_cls, grads.w_part)):
        np.testing.assert_allclose(block, acc, rtol=1e-12, atol=1e-12)


def test_checkpoint_round_trip(tmp_path):
    params = init_params(6, 5, 3, seed=17)
    save_checkpoint(params, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    for name in ("w_patch", "w_cls", "w_part"):
        stored = getattr(params, name).astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(getattr(loaded, name), stored)


def test_checkpoint_truncated_blob_rejected(tmp_path):
    params = init_params(6, 5, 3, seed=17)
    save_checkpoint(params, tmp_path / "ckpt")
    blob = (tmp_path / "ckpt.f32").read_bytes()
    (tmp_path / "ckpt.f32").write_bytes(blob[:-4])
    with pytest.raises(DataFormatError):
        load_checkpoint(tmp_path / "ckpt")
