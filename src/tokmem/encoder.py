"""Toy differentiable patch encoder with analytic gradients.

The encoder projects every raw patch through a shared matrix to produce
per-patch token features, and composes the image feature from a global
head applied to the patch mean plus the average of several part heads,
each applied to the mean of one contiguous patch stripe. All outputs are
L2-normalized inside the encoder so every downstream dot product is a
cosine similarity.

The head reads only the patch and stripe means, which do not depend on
the weights: ``patch_means`` computes them once, and ``image_feature``
and ``encode`` take them as an argument, so a training run re-projects
the cached means instead of re-averaging every patch stack. The means of
a batch of stacks are rows of the whole set's means, bit for bit.

``encode_backward`` is the exact analytic adjoint of ``encode`` for a
linear functional of its outputs, including the normalization Jacobian
``(I - u_hat u_hat^T) / ||u||``. Where a pre-normalization vector is zero
(the warning path of ``normalize_rows``), the Jacobian degenerates to the
identity pass-through. The token gradient is given for a selection of
tokens per stack, the way training's constraint loss reads them; the
adjoint runs on those rows only, and a token selected twice adds both
of its gradients. Both take any leading batch axes on the patches. The
backward takes the forward's ``EncodeOutput``, which records every
intermediate the adjoint reads, so no part of the forward runs twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blobio
from .errors import DataFormatError, check_fields, check_made_by
from .linalg import CHUNK, normalize_rows, row_norms

__all__ = ["EncoderParams", "EncodeOutput", "init_params", "encode",
           "encode_backward", "image_feature", "part_slices", "patch_means",
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
    head: tuple                # (feature before normalization, the patch_means it read)


def init_params(feature_dim: int, patch_input_dim: int, part_tokens: int,
                seed: int) -> EncoderParams:
    """Entries i.i.d. Gaussian with std 1/sqrt(d_in), Philox-keyed by seed."""
    check_fields(locals(), [("feature_dim", feature_dim >= 2, ">= 2"),
                            ("patch_input_dim", patch_input_dim >= 1, ">= 1"),
                            ("part_tokens", part_tokens >= 1, ">= 1")])
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


def patch_means(patches: np.ndarray, part_tokens: int) -> np.ndarray:
    """The head's inputs for (..., I, d_in) patch stacks, (1 + Z, ..., d_in):
    the patch mean xbar, then the Z stripe means xbar_z of ``part_slices``.
    Each head's patches are added into its float64 row of the output in
    patch order, then divided by their count: the adds and the divide of
    ``mean(axis=-2)`` on the stacks widened to float64, so each stack's
    means are reduced over its own patches alone, and
    ``patch_means(x)[:, b]`` equals ``patch_means(x[b])`` bit for bit.
    The stacks are summed ``CHUNK`` at a time, which stay in cache across
    the heads' adds; no copy of them is made. Raises ValueError naming the
    first stack (flat index) whose means are all zero: no feature direction."""
    patches = np.asarray(patches)
    if patches.ndim < 2:
        raise ValueError("patches must be (..., I, d_in)")
    *batch, num_patches, d_in = patches.shape
    heads = [slice(None), *part_slices(num_patches, part_tokens)]
    stacks = patches.reshape(np.prod(batch, dtype=int), num_patches, d_in)
    means = np.empty((1 + part_tokens, len(stacks), d_in))
    for s in range(0, len(stacks), CHUNK):
        chunk = stacks[s:s + CHUNK]
        for acc, sl in zip(means[:, s:s + CHUNK], heads):
            first, *rest = range(num_patches)[sl]
            np.copyto(acc, chunk[:, first])
            for j in rest:
                acc += chunk[:, j]
            acc /= 1 + len(rest)
    blank = np.flatnonzero(~means.any(axis=(0, 2)))
    if blank.size:
        raise ValueError(f"sample {blank[0]} is blank: its patch and stripe means are all zero")
    return means.reshape(1 + part_tokens, *batch, d_in)


def _check_means(params: EncoderParams, means: np.ndarray,
                 batch: tuple | None) -> np.ndarray:
    """``means`` as float64 if it is (1 + Z, *batch, d_in); ``batch`` None takes any."""
    means = np.asarray(means, dtype=np.float64)
    z, d_in = params.part_tokens, params.patch_input_dim
    if (means.ndim < 2 or means.shape[0] != 1 + z or means.shape[-1] != d_in
            or batch is not None and means.shape[1:-1] != batch):
        raise ValueError(f"means must be (1 + {z}, ..., {d_in}) from patch_means, "
                         f"got {means.shape}")
    return means


def _head(params: EncoderParams, means: np.ndarray) -> np.ndarray:
    """The image feature before normalization, W_head[0] xbar + mean_z W_head[z] xbar_z,
    from the (1 + Z, ..., d_in) ``patch_means``; each part head is made in
    one reused buffer, divided by Z and added into the output in place."""
    z = params.part_tokens
    pre = means[0] @ params.w_head[0].T
    part = np.empty_like(pre)
    for h in range(1, 1 + z):
        np.matmul(means[h], params.w_head[h].T, out=part)
        part /= z
        pre += part
    return pre


def image_feature(params: EncoderParams, means: np.ndarray) -> np.ndarray:
    """The image feature of ``encode`` alone, (..., D), from the stacks'
    (1 + Z, ..., d_in) ``patch_means``; builds no tokens. Normalizes in
    place, ``CHUNK`` rows at a time: each row's norm is its own, so the
    bits are those of one ``normalize_rows`` call, and the pass holds one
    chunk's temporaries beside the features instead of two more copies."""
    pre = _head(params, _check_means(params, means, None))
    rows = pre.reshape(-1, pre.shape[-1])
    for s in range(0, len(rows), CHUNK):
        rows[s:s + CHUNK] = normalize_rows(rows[s:s + CHUNK])
    return rows.reshape(pre.shape)


def encode(params: EncoderParams, patches: np.ndarray, means: np.ndarray) -> EncodeOutput:
    """Forward pass for (..., I, d_in) patch stacks; leading axes are a batch.
    ``means`` are the stacks' (1 + Z, ..., d_in) ``patch_means``.

    tokens[i] = normalize(W_patch @ patches[i]);
    f = normalize(W_head[0] @ mean(patches) + mean_z(W_head[z] @ stripe_mean_z)).
    """
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim < 2 or patches.shape[-1] != params.patch_input_dim:
        raise ValueError(f"patches must be (..., I, {params.patch_input_dim})")
    means = _check_means(params, means, patches.shape[:-2])
    pre, pre_tokens = _head(params, means), patches @ params.w_patch.T
    return EncodeOutput(normalize_rows(pre), normalize_rows(pre_tokens), patches,
                        pre_tokens, (pre, means))


def _normalize_backward(grad_out: np.ndarray, pre: np.ndarray) -> np.ndarray:
    """Adjoint of v -> v/||v|| along the last axis: (g - (g . v_hat) v_hat) / ||v||;
    identity where ||v|| = 0."""
    norms = row_norms(pre)
    safe = np.where(norms == 0.0, 1.0, norms)
    units = pre / safe
    proj = np.einsum("...d,...d->...", grad_out, units)[..., None]
    return np.where(norms == 0.0, grad_out, (grad_out - proj * units) / safe)


def encode_backward(out: EncodeOutput, grad_image_feature: np.ndarray,
                    selected: np.ndarray, grad_selected: np.ndarray) -> np.ndarray:
    """Gradient of <g_f, image_feature> + sum_k <g_s[k], token_{selected[k]}>
    w.r.t. the params of the ``encode`` call that made ``out``, summed over
    its batch axes: one vector laid out like ``EncoderParams.vec``.

    ``selected`` (..., K) holds token indices per stack and
    ``grad_selected`` (..., K, D) their gradients; every other token's
    gradient is zero. The normalization adjoint and the ``w_patch``
    product read the K selected rows of each stack only, so an index
    repeated within a stack adds each of its gradients, as the sum says.
    The batch sum is one reshaped matmul per weight matrix, so its order
    is fixed. The image feature does not depend on ``w_patch``, and the
    tokens do not depend on ``w_head``, so the two output gradients touch
    disjoint parameter blocks.
    """
    grad_image_feature = np.asarray(grad_image_feature, dtype=np.float64)
    selected = np.asarray(selected)
    grad_selected = np.asarray(grad_selected, dtype=np.float64)
    *batch, num_tokens, d = out.patch_tokens.shape
    if grad_image_feature.shape != out.image_feature.shape:
        raise ValueError(f"grad_image_feature must be {out.image_feature.shape}")
    if selected.dtype.kind not in "iu" or selected.shape[:-1] != tuple(batch):
        raise ValueError(f"selected must be integer (..., K) with batch axes {tuple(batch)}")
    if grad_selected.shape != (*selected.shape, d):
        raise ValueError(f"grad_selected must be {(*selected.shape, d)}")
    pre_tokens = out.pre_tokens.reshape(-1, num_tokens, d)
    selected = selected.reshape(len(pre_tokens), -1)
    if selected.size and (selected.min() < 0 or selected.max() >= num_tokens):
        raise ValueError(f"selected token index out of range [0, {num_tokens})")
    pre, means = out.head
    d_in = means.shape[-1]
    grad = np.zeros((1 + len(means)) * d * d_in)
    g_w_patch, g_w_head = EncoderParams._blocks(grad, d, d_in)

    # Token path: t_i = normalize(W_patch p_i), on the selected rows only.
    rows = np.arange(len(selected))[:, None]
    g_pre_tokens = _normalize_backward(grad_selected.reshape(*selected.shape, d),
                                       pre_tokens[rows, selected])
    patches = out.patches.reshape(-1, num_tokens, d_in)[rows, selected]
    g_w_patch[...] = g_pre_tokens.reshape(-1, d).T @ patches.reshape(-1, d_in)

    # Image-feature path: f = normalize(W_head[0] xbar + mean_z W_head[z] xbar_z).
    g_pre = _normalize_backward(grad_image_feature, pre).reshape(-1, d)
    g_w_head[...] = g_pre.T @ means.reshape(len(means), -1, d_in)
    g_w_head[1:] /= len(means) - 1
    return grad


def save_checkpoint(params: EncoderParams, prefix, made_by: dict, with_files=()) -> None:
    """Manifest records ``made_by``, the ``data`` and ``train`` sections that
    made ``params``; blob is ``params.vec`` as float32. ``with_files``
    (``(path, bytes)`` entries) go with it, see :func:`blobio.write_pair`."""
    manifest = {section: vars(config) for section, config in made_by.items()}
    blobio.write_pair(prefix, manifest, blobio.floats_buffer(params.vec), with_files)


def load_checkpoint(prefix, made_by: dict) -> EncoderParams:
    """The checkpoint at ``prefix`` if it records ``made_by`` (ConfigError
    otherwise, see :func:`errors.check_made_by`), read with its dims."""
    manifest, blob = blobio.read_pair(prefix)
    check_made_by(manifest, made_by, f"checkpoint {prefix}", "train")
    data, train = made_by["data"], made_by["train"]
    d, d_in, z = train.feature_dim, data.patch_input_dim, train.part_tokens
    count = (2 + z) * d * d_in
    if len(blob) != 4 * count:
        raise DataFormatError(
            f"checkpoint blob has {len(blob)} bytes, expected {4 * count} from the config's dims")
    return EncoderParams(blobio.floats_from_bytes(blob), d, d_in)
