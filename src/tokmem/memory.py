"""Instance and prototype memory banks, hard-sample mining, momentum updates.

The instance memory stores one feature per training sample, outliers
included; the prototype memory is a plain (C, D) array of normalized
cluster centroids. Memory entries are gradient constants, refreshed only
by ``momentum_update``: ``stored <- mu * stored + (1 - mu) * fresh``
followed by re-normalization (without it, mixing shrinks norms and the
temperature-scaled softmaxes drift).

Mining rules: the positive for a clustered anchor is its least similar
same-cluster memory entry; negatives are the k most similar entries of
any other label, outliers included. Ties always break toward the lowest
index via stable sorts. ``mine`` does this for a whole batch with one
similarity matmul.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import OUTLIER, PseudoLabels
from .linalg import normalize_rows

__all__ = ["InstanceMemory", "build_instance_memory", "compute_prototypes",
           "mine", "momentum_update"]


@dataclass
class InstanceMemory:
    features: np.ndarray  # (N, D), unit rows
    labels: np.ndarray    # (N,) int64, -1 allowed

    @property
    def size(self) -> int:
        return self.features.shape[0]


def build_instance_memory(features: np.ndarray, labels: PseudoLabels) -> InstanceMemory:
    """Store normalized copies of ALL features, outliers included."""
    features = np.asarray(features, dtype=np.float64)
    label_arr = np.asarray(labels.labels, dtype=np.int64)
    if features.shape[0] != label_arr.shape[0]:
        raise ValueError(
            f"{features.shape[0]} features but {label_arr.shape[0]} labels")
    return InstanceMemory(features=normalize_rows(features), labels=label_arr.copy())


def compute_prototypes(mem: InstanceMemory) -> np.ndarray:
    """(C, D) normalized per-cluster centroids over non-outlier members only."""
    if (mem.labels < 0).all():
        raise ValueError("no clustered samples: every label is -1")
    num_clusters = int(mem.labels.max()) + 1
    protos = np.empty((num_clusters, mem.features.shape[1]))
    for c in range(num_clusters):
        members = mem.features[mem.labels == c]
        if members.shape[0] == 0:
            raise ValueError(f"cluster ids are not dense: no member for cluster {c}")
        protos[c] = members.mean(axis=0)
    return normalize_rows(protos)


def mine(mem: InstanceMemory, features: np.ndarray, labels: np.ndarray, k: int,
         include_outliers: bool = True) -> tuple[np.ndarray, np.ndarray]:
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
    same = mem.labels == labels[:, None]
    missing = ~same.any(axis=1)
    if missing.any():
        raise ValueError(f"no memory entry carries label {labels[missing][0]}")
    sims = features @ mem.features.T
    cand = ~same
    if not include_outliers:
        cand &= mem.labels != OUTLIER
    picked = np.empty((len(labels), 1 + min(k, mem.size)), dtype=np.int64)
    picked[:, 0] = np.argmin(np.where(same, sims, np.inf), axis=1)
    # Stable top-k as k masked argmax passes (argmax takes the first
    # maximum); for small k this is far cheaper than sorting every row.
    key = np.where(cand, sims, -np.inf)
    rows = np.arange(len(labels))
    for j in range(1, picked.shape[1]):
        picked[:, j] = np.argmax(key, axis=1)
        key[rows, picked[:, j]] = -np.inf
    valid = np.arange(picked.shape[1]) <= cand.sum(axis=1)[:, None]
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
