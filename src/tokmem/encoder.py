"""Toy differentiable patch encoder with analytic gradients.

The encoder projects every raw patch through a shared matrix to produce
per-patch token features, and composes the image feature from a global
head applied to the patch mean plus the average of several part heads,
each applied to the mean of one contiguous patch stripe. All outputs are
L2-normalized inside the encoder so every downstream dot product is a
cosine similarity.

``encode_backward`` is the exact analytic adjoint of ``encode`` for a
linear functional of its outputs, including the normalization Jacobian
``(I - u_hat u_hat^T) / ||u||``. Where a pre-normalization vector is zero
(the warning path of ``normalize_rows``), the Jacobian degenerates to the
identity pass-through. Both take any leading batch axes on the patches.
The backward takes the forward's ``EncodeOutput``, which records every
intermediate the adjoint reads, so no part of the forward runs twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blobio
from .errors import DataFormatError, check_fields
from .linalg import normalize_rows

__all__ = ["EncoderParams", "EncodeOutput", "init_params", "encode",
           "encode_backward", "image_feature", "part_slices",
           "save_checkpoint", "load_checkpoint"]


class EncoderParams:
    """The encoder weights as one float64 vector ``vec``, laid out as the
    blocks w_patch (D, d_in) and w_head (1 + Z, D, d_in) in this order, the
    checkpoint's. Row 0 of w_head is the global head and rows 1..Z are the
    part heads. Each block attribute is a view of ``vec``, so an in-place
    update of either updates both."""

    def __init__(self, vec, feature_dim: int, patch_input_dim: int) -> None:
        """Params whose ``vec`` is a copy of ``vec``; Z follows from its length."""
        vec = np.array(vec, dtype=np.float64)
        mat = feature_dim * patch_input_dim
        if feature_dim < 2:
            raise ValueError("feature_dim must be >= 2")
        if vec.ndim != 1 or mat < 1 or vec.size % mat or vec.size < 3 * mat:
            raise ValueError("parameter vector has the wrong length")
        if not np.isfinite(vec).all():
            raise ValueError("encoder weights contain non-finite entries")
        self.vec = vec
        self.w_patch, self.w_head = self._blocks(vec, feature_dim, patch_input_dim)

    @staticmethod
    def _blocks(vec: np.ndarray, d: int, d_in: int) -> tuple[np.ndarray, np.ndarray]:
        """(w_patch, w_head) as views of a vector in this layout."""
        mat = d * d_in
        return vec[:mat].reshape(d, d_in), vec[mat:].reshape(-1, d, d_in)

    @property
    def feature_dim(self) -> int:
        return self.w_patch.shape[0]

    @property
    def patch_input_dim(self) -> int:
        return self.w_patch.shape[1]

    @property
    def part_tokens(self) -> int:
        return len(self.w_head) - 1


@dataclass
class EncodeOutput:
    """The outputs of ``encode`` and the record its backward reads."""
    image_feature: np.ndarray  # (..., D), unit norm
    patch_tokens: np.ndarray   # (..., I, D), unit rows
    patches: np.ndarray        # (..., I, d_in), the input
    pre_tokens: np.ndarray     # (..., I, D), the tokens before normalization
    head: tuple                # _head's (feature before normalization, head input means)


# encoder dimension (a checkpoint manifest field) -> its least valid value
_DIMS = {"feature_dim": 2, "patch_input_dim": 1, "part_tokens": 1}


def _dim_rules(dims: dict) -> list[tuple]:
    """The :func:`check_fields` rows of ``_DIMS`` for ``dims``, keyed like it."""
    return [(name, dims[name] >= low, f">= {low}") for name, low in _DIMS.items()]


def init_params(feature_dim: int, patch_input_dim: int, part_tokens: int,
                seed: int) -> EncoderParams:
    """Entries i.i.d. Gaussian with std 1/sqrt(d_in), Philox-keyed by seed."""
    dims = dict(zip(_DIMS, (feature_dim, patch_input_dim, part_tokens)))
    check_fields(dims, _dim_rules(dims))
    rng = np.random.Generator(np.random.Philox(key=seed))
    std = 1.0 / np.sqrt(patch_input_dim)
    vec = std * rng.normal(size=(2 + part_tokens) * feature_dim * patch_input_dim)
    return EncoderParams(vec, feature_dim, patch_input_dim)


def part_slices(num_patches: int, part_tokens: int) -> list[slice]:
    """Contiguous equal patch stripes; remainder patches go to the last stripe."""
    if num_patches < part_tokens:
        raise ValueError(f"need at least {part_tokens} patches, got {num_patches}")
    base = num_patches // part_tokens
    out = [slice(z * base, (z + 1) * base) for z in range(part_tokens - 1)]
    out.append(slice((part_tokens - 1) * base, num_patches))
    return out


def _check_patches(params: EncoderParams, patches: np.ndarray) -> np.ndarray:
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim < 2 or patches.shape[-1] != params.patch_input_dim:
        raise ValueError(f"patches must be (..., I, {params.patch_input_dim})")
    return patches


def _head(params: EncoderParams, patches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The image feature before normalization, W_head[0] xbar + mean_z W_head[z] xbar_z,
    with the (1 + Z, ..., d_in) means it is made of: the patch mean xbar,
    then the stripe means xbar_z."""
    z = params.part_tokens
    means = np.empty((1 + z, *patches.shape[:-2], patches.shape[-1]))
    patches.mean(axis=-2, out=means[0])
    for h, sl in enumerate(part_slices(patches.shape[-2], z), start=1):
        patches[..., sl, :].mean(axis=-2, out=means[h])
    pre = means[0] @ params.w_head[0].T
    for h in range(1, 1 + z):
        pre = pre + (means[h] @ params.w_head[h].T) / z
    return pre, means


def image_feature(params: EncoderParams, patches: np.ndarray) -> np.ndarray:
    """The image feature of ``encode`` alone, (..., D); builds no tokens."""
    return normalize_rows(_head(params, _check_patches(params, patches))[0])


def encode(params: EncoderParams, patches: np.ndarray) -> EncodeOutput:
    """Forward pass for (..., I, d_in) patch stacks; leading axes are a batch.

    tokens[i] = normalize(W_patch @ patches[i]);
    f = normalize(W_head[0] @ mean(patches) + mean_z(W_head[z] @ stripe_mean_z)).
    """
    patches = _check_patches(params, patches)
    head, pre_tokens = _head(params, patches), patches @ params.w_patch.T
    return EncodeOutput(normalize_rows(head[0]), normalize_rows(pre_tokens), patches,
                        pre_tokens, head)


def _normalize_backward(grad_out: np.ndarray, pre: np.ndarray) -> np.ndarray:
    """Adjoint of v -> v/||v|| along the last axis: (g - (g . v_hat) v_hat) / ||v||;
    identity where ||v|| = 0."""
    norms = np.linalg.norm(pre, axis=-1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    units = pre / safe
    proj = np.einsum("...d,...d->...", grad_out, units)[..., None]
    return np.where(norms == 0.0, grad_out, (grad_out - proj * units) / safe)


def encode_backward(out: EncodeOutput, grad_image_feature: np.ndarray,
                    grad_tokens: np.ndarray) -> np.ndarray:
    """Gradient of <g_f, image_feature> + sum_i <g_t[i], token_i> w.r.t. the
    params of the ``encode`` call that made ``out``, summed over its batch
    axes: one vector laid out like ``EncoderParams.vec``.

    The batch sum is one reshaped matmul per weight matrix, so its order
    is fixed. The image feature does not depend on ``w_patch``, and the
    tokens do not depend on ``w_head``, so the two output gradients
    touch disjoint parameter blocks.
    """
    grad_image_feature = np.asarray(grad_image_feature, dtype=np.float64)
    grad_tokens = np.asarray(grad_tokens, dtype=np.float64)
    if grad_image_feature.shape != out.image_feature.shape:
        raise ValueError(f"grad_image_feature must be {out.image_feature.shape}")
    if grad_tokens.shape != out.patch_tokens.shape:
        raise ValueError(f"grad_tokens must be {out.patch_tokens.shape}")
    pre, means = out.head
    d, d_in = pre.shape[-1], means.shape[-1]
    grad = np.zeros((1 + len(means)) * d * d_in)
    g_w_patch, g_w_head = EncoderParams._blocks(grad, d, d_in)

    # Token path: t_i = normalize(W_patch p_i).
    g_pre_tokens = _normalize_backward(grad_tokens, out.pre_tokens)
    g_w_patch[...] = g_pre_tokens.reshape(-1, d).T @ out.patches.reshape(-1, d_in)

    # Image-feature path: f = normalize(W_head[0] xbar + mean_z W_head[z] xbar_z).
    g_pre = _normalize_backward(grad_image_feature, pre).reshape(-1, d)
    for h, mean in enumerate(means):
        g_w_head[h] = g_pre.T @ mean.reshape(-1, d_in)
    g_w_head[1:] /= len(means) - 1
    return grad


def save_checkpoint(params: EncoderParams, prefix, with_files=()) -> None:
    """Manifest records dims; blob is ``params.vec`` as float32.
    ``with_files`` (``(path, bytes)`` entries) are written with the
    checkpoint, see :func:`blobio.write_pair`."""
    manifest = {name: getattr(params, name) for name in _DIMS}
    blobio.write_pair(prefix, manifest, blobio.floats_to_bytes(params.vec), with_files)


def load_checkpoint(prefix) -> EncoderParams:
    manifest, blob = blobio.read_pair(prefix)
    dims = {name: blobio.manifest_field(manifest, name, "int", prefix) for name in _DIMS}
    check_fields(dims, _dim_rules(dims), DataFormatError,
                 lambda name: f"{prefix}: manifest field {name!r}")
    d, d_in, z = dims.values()
    count = (2 + z) * d * d_in
    if len(blob) != 4 * count:
        raise DataFormatError(
            f"checkpoint blob has {len(blob)} bytes, expected {4 * count} from manifest dims")
    return EncoderParams(blobio.floats_from_bytes(blob), d, d_in)
