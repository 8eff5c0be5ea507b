"""The three contrastive losses and their analytic gradients.

All three share one functional form: a temperature-scaled softmax
cross-entropy over a positive similarity and a set of negative
similarities,

    value = -log( exp(s_pos/t) / sum_j exp(s_j/t) ),

evaluated with the max-shifted log-sum-exp so the value stays finite for
similarity/temperature ratios up to +-1000 and far beyond. One batched
kernel, ``softmax_ce``, implements it for a whole batch of anchors.

* token-constraint loss: positive is the patch token most similar to the
  image feature, in column 0 of one (B, 1 + R) selection, then its R least
  similar tokens as negatives; gradients flow into the image feature AND
  the selected tokens (both are live encoder outputs).
* prototype-contrast loss: positive is the anchor's own cluster
  prototype, the denominator runs over ALL prototypes; prototypes are
  gradient constants.
* anchor-contrast loss: positive is the hardest (least similar)
  same-cluster instance, negatives the most similar cross-cluster
  instances; memory entries are gradient constants.

Selection (argmax / argmin / top-k) happens outside the differentiated
graph: gradients treat the selected set as fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LossOutput", "patch_rate", "select_constraint_tokens", "softmax_ce"]


@dataclass
class LossOutput:
    """``value`` holds one non-negative negative-log-probability per row.

    ``coeff`` (B, K) is each row's softmax weights minus its one-hot
    target, the value's gradient with respect to the logits s / t.
    """

    value: np.ndarray
    grad_image_feature: np.ndarray
    coeff: np.ndarray


def patch_rate(num_patches: int, rate: float) -> int:
    """Number of negative tokens: floor(I * rate), clamped to at least 1.

    Without the clamp a small I * rate would select zero negatives and
    make the constraint loss identically zero.
    """
    if num_patches < 1:
        raise ValueError("num_patches must be >= 1")
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    return max(1, math.floor(num_patches * rate))


def select_constraint_tokens(image_feature: np.ndarray, tokens: np.ndarray,
                             rate: float) -> np.ndarray:
    """Pick the most similar token as positive and the R least similar as
    negatives (ascending similarity), positive excluded, ties to the
    lowest index.

    Takes any leading batch axes, ``(..., D)`` features against
    ``(..., I, D)`` tokens, and returns ``(..., 1 + R)`` token indices: the
    positive, then the negatives, as ``memory.mine`` lays out candidates.
    """
    f = np.asarray(image_feature, dtype=np.float64)
    tokens = np.asarray(tokens, dtype=np.float64)
    num = tokens.shape[-2]
    r = patch_rate(num, rate)
    if num <= r:
        raise ValueError(f"need more than {r} tokens to pick {r} negatives, got {num}")
    sims = (tokens @ f[..., None])[..., 0]
    pos = np.argmax(sims, axis=-1)[..., None]  # first max = lowest index on ties
    order = np.argsort(sims, axis=-1, kind="stable")
    negs = order[order != pos].reshape(*order.shape[:-1], num - 1)[..., :r]
    return np.concatenate([pos, negs], axis=-1)


def softmax_ce(image_features: np.ndarray, candidates: np.ndarray,
               target: int | np.ndarray, temperature: float,
               valid: np.ndarray | None = None) -> LossOutput:
    """Batched softmax cross-entropy, the one kernel behind all three losses.

    Row b scores ``image_features[b]`` (B, D) against its candidates:
    ``candidates[b]`` (B, K, D), or one shared (K, D) set for every row.
    ``target`` (int or (B,)) is the column of each row's positive, and
    ``valid`` (B, K) masks absent candidates to a -inf logit. With
    softmax weights w and s = candidates . f,

      value      = -log w[target],  evaluated max-shifted
      d/d f      = (1/t) sum_k (w_k - [k == target]) c_k
      d/d c_k    = (1/t) (w_k - [k == target]) f

    ``coeff`` holds w_k - [k == target]; d/d c_k, which only the
    constraint term's live tokens need, is ``coeff[:, :, None] * f[:, None, :] / t``.
    """
    if not temperature > 0.0:  # NaN fails too
        raise ValueError("temperature must be positive")
    f = np.asarray(image_features, dtype=np.float64)
    cand = np.asarray(candidates, dtype=np.float64)
    shared = cand.ndim == 2
    sims = f @ cand.T if shared else (cand @ f[:, :, None])[:, :, 0]
    z = sims / temperature
    if isinstance(target, int):  # one column for every row: a slice
        bounds, pick = (target,), (slice(None), target)
    else:
        bounds, pick = (np.min(target), np.max(target)), (np.arange(z.shape[0]), target)
    if min(bounds) < 0 or max(bounds) >= z.shape[1]:
        raise ValueError(f"target out of range [0, {z.shape[1]})")
    if valid is not None:
        z = np.where(valid, z, -np.inf)
    shift = z.max(axis=1, keepdims=True)
    exp = np.exp(z - shift)
    total = exp.sum(axis=1, keepdims=True)
    value = np.log(total[:, 0]) + shift[:, 0] - z[pick]
    coeff = exp / total
    coeff[pick] -= 1.0
    grad_f = (coeff @ cand if shared else (coeff[:, None, :] @ cand)[:, 0, :]) / temperature
    return LossOutput(value=value, grad_image_feature=grad_f, coeff=coeff)
