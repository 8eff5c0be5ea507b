"""Instance and prototype memory banks, hard-sample mining, momentum updates.

The instance memory stores one feature per training sample, outliers
included; the prototype memory stores one normalized centroid per
cluster. Memory entries are gradient constants: the trainer reads them
as fixed targets and refreshes them only through the momentum mixing
rule ``stored <- mu * stored + (1 - mu) * fresh`` followed by
re-normalization (without it, mixing shrinks norms and the temperature-
scaled softmaxes drift).

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

__all__ = ["InstanceMemory", "PrototypeMemory", "build_instance_memory",
           "compute_prototypes", "mine", "momentum_update_prototype",
           "momentum_update_instance"]


@dataclass
class InstanceMemory:
    features: np.ndarray  # (N, D), unit rows
    labels: np.ndarray    # (N,) int64, -1 allowed

    @property
    def size(self) -> int:
        return self.features.shape[0]


@dataclass
class PrototypeMemory:
    prototypes: np.ndarray  # (C, D), unit rows

    @property
    def num_clusters(self) -> int:
        return self.prototypes.shape[0]


def build_instance_memory(features: np.ndarray, labels: PseudoLabels) -> InstanceMemory:
    """Store normalized copies of ALL features, outliers included."""
    features = np.asarray(features, dtype=np.float64)
    label_arr = np.asarray(labels.labels, dtype=np.int64)
    if features.shape[0] != label_arr.shape[0]:
        raise ValueError(
            f"{features.shape[0]} features but {label_arr.shape[0]} labels")
    return InstanceMemory(features=normalize_rows(features), labels=label_arr.copy())


def compute_prototypes(mem: InstanceMemory) -> PrototypeMemory:
    """Normalized per-cluster centroids over non-outlier members only."""
    clustered = mem.labels >= 0
    if not clustered.any():
        raise ValueError("no clustered samples: every label is -1")
    num_clusters = int(mem.labels.max()) + 1
    protos = np.empty((num_clusters, mem.features.shape[1]))
    for c in range(num_clusters):
        members = mem.features[mem.labels == c]
        if members.shape[0] == 0:
            raise ValueError(f"cluster ids are not dense: no member for cluster {c}")
        protos[c] = members.mean(axis=0)
    return PrototypeMemory(prototypes=normalize_rows(protos))


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


def _momentum_mix(stored: np.ndarray, feature: np.ndarray, momentum: float) -> np.ndarray:
    if not 0.0 <= momentum <= 1.0:
        raise ValueError("momentum must be in [0, 1]")
    feature = np.asarray(feature, dtype=np.float64)
    if feature.shape != stored.shape:
        raise ValueError(f"feature shape {feature.shape} != stored {stored.shape}")
    return normalize_rows(momentum * stored + (1.0 - momentum) * feature)


def momentum_update_prototype(mem: PrototypeMemory, cluster: int,
                              feature: np.ndarray, momentum: float) -> None:
    """In-place: prototypes[cluster] <- normalize(mu*p + (1-mu)*feature)."""
    if not 0 <= cluster < mem.num_clusters:
        raise ValueError(f"cluster {cluster} out of range [0, {mem.num_clusters})")
    mem.prototypes[cluster] = _momentum_mix(mem.prototypes[cluster], feature, momentum)


def momentum_update_instance(mem: InstanceMemory, index, feature: np.ndarray,
                             momentum: float) -> None:
    """In-place update of the samples' own slots, same mixing rule.

    ``index`` is one slot with a (D,) feature or B unique slots with
    (B, D) features; unique slots make the one vectorised write equal to
    B sequential ones.
    """
    index = np.asarray(index, dtype=np.int64)
    if ((index < 0) | (index >= mem.size)).any():
        raise ValueError(f"index {index} out of range [0, {mem.size})")
    if (np.diff(np.sort(index, axis=None)) == 0).any():
        raise ValueError("instance indices must be unique")
    mem.features[index] = _momentum_mix(mem.features[index], feature, momentum)
