"""Instance and prototype memory banks, hard-sample mining, momentum updates.

The instance bank is an (N, D) array of unit rows, one per training
sample, outliers included, read through the (N,) ``cluster.dbscan``
labels; the prototype bank is a (C, D) array of normalized cluster
centroids. Memory entries are gradient constants, refreshed only by
``momentum_update``: ``stored <- mu * stored + (1 - mu) * fresh``
followed by re-normalization (without it, mixing shrinks norms and the
temperature-scaled softmaxes drift).

Mining rules: the positive for a clustered anchor is its least similar
same-cluster memory entry; negatives are the k most similar entries of
any other label, outliers included. Ties always break toward the lowest
index via stable sorts. ``mine`` does this for a whole batch with one
similarity matmul.
"""

from __future__ import annotations

import numpy as np

from .cluster import OUTLIER
from .linalg import normalize_rows

__all__ = ["compute_prototypes", "mine", "momentum_update"]


def compute_prototypes(bank: np.ndarray, bank_labels: np.ndarray) -> np.ndarray:
    """(C, D) normalized per-cluster centroids over non-outlier members only."""
    if (bank_labels < 0).all():
        raise ValueError("no clustered samples: every label is -1")
    num_clusters = int(bank_labels.max()) + 1
    protos = np.empty((num_clusters, bank.shape[1]))
    for c in range(num_clusters):
        members = bank[bank_labels == c]
        if members.shape[0] == 0:
            raise ValueError(f"cluster ids are not dense: no member for cluster {c}")
        protos[c] = members.mean(axis=0)
    return normalize_rows(protos)


def mine(bank: np.ndarray, bank_labels: np.ndarray, features: np.ndarray, labels: np.ndarray,
         k: int, include_outliers: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Mine a batch of (B, D) anchors with one (B, N) similarity matmul.

    Returns (B, 1 + min(k, N)) memory indices and a validity mask of the
    same shape. Column 0 is the row's hardest positive, the least similar
    entry of its label (masked argmin); the rest are its negatives, the
    most similar entries of any other label in descending similarity
    (stable top-k), invalid past the row's candidate count.
    ``include_outliers=False`` drops outliers from the candidates.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if (labels < 0).any():
        raise ValueError("anchor label must be a cluster id (>= 0)")
    if k < 1:
        raise ValueError("k must be >= 1")
    same = bank_labels == labels[:, None]
    same_count = same.sum(axis=1)
    if (same_count == 0).any():
        raise ValueError(f"no memory entry carries label {labels[same_count == 0][0]}")
    sims = features @ bank.T
    picked = np.empty((len(labels), 1 + min(k, len(bank))), dtype=np.int64)
    picked[:, 0] = np.argmin(np.where(same, sims, np.inf), axis=1)
    # sims becomes the negatives' key; anchor labels are >= 0, so same and dropped are disjoint
    dropped = (bank_labels == OUTLIER) & (not include_outliers)
    np.copyto(sims, -np.inf, where=same)
    np.copyto(sims, -np.inf, where=dropped)
    # Stable top-k as k masked argmax passes (argmax takes the first
    # maximum); for small k this is far cheaper than sorting every row.
    rows = np.arange(len(labels))
    for j in range(1, picked.shape[1]):
        picked[:, j] = np.argmax(sims, axis=1)
        sims[rows, picked[:, j]] = -np.inf
    candidates = len(bank) - same_count - np.count_nonzero(dropped)
    valid = np.arange(picked.shape[1]) <= candidates[:, None]
    return picked, valid


def momentum_update(bank: np.ndarray, index, features: np.ndarray,
                    momentum: float) -> None:
    """In place, exactly as B sequential writes in batch order:
    ``bank[index[b]] <- normalize(mu * bank[index[b]] + (1 - mu) * features[b])``.

    ``bank`` is (R, D), ``index`` (B,) slots, ``features`` (B, D); a repeated
    slot mixes every occurrence, each earlier one decayed by mu. Round j
    writes the j-th occurrence of every slot at once (its rank in a stable
    argsort of ``index``), so there are as many rounds as the top multiplicity.
    """
    if not 0.0 <= momentum <= 1.0:
        raise ValueError("momentum must be in [0, 1]")
    index = np.asarray(index, dtype=np.int64)
    features = np.asarray(features, dtype=np.float64)
    if index.ndim != 1 or features.shape != (index.size, bank.shape[1]):
        raise ValueError(f"need (B,) slots and (B, {bank.shape[1]}) features, "
                         f"got {index.shape} and {features.shape}")
    if ((index < 0) | (index >= len(bank))).any():
        raise ValueError(f"index {index} out of range [0, {len(bank)})")
    order = np.argsort(index, kind="stable")
    ranked = index[order]
    rank = np.empty_like(index)
    rank[order] = np.arange(index.size) - np.searchsorted(ranked, ranked)
    for j in range(int(rank.max(initial=-1)) + 1):
        slots, fresh = index[rank == j], features[rank == j]
        bank[slots] = normalize_rows(momentum * bank[slots] + (1.0 - momentum) * fresh)
