"""Instance and prototype memory banks, hard-sample mining, momentum updates.

The instance bank is an (N, D) array of unit rows, one per training
sample, outliers included; the prototype bank is a (C, D) array of
normalized cluster centroids. Both are read through the label index of
the (N,) ``cluster.dbscan`` labels, built once per epoch by
``label_runs``: one stable argsort of the labels and the bounds of each
cluster's run in it, with the outliers as run -1. Memory entries are
gradient constants, refreshed only by ``momentum_update``: ``stored <- mu
* stored + (1 - mu) * fresh`` followed by re-normalization (without it,
mixing shrinks norms and the temperature-scaled softmaxes drift).

Mining rules: the positive for a clustered anchor is its least similar
same-cluster memory entry; negatives are the k most similar entries of
any other label, outliers included. Ties always break toward the lowest
index. ``mine`` does this for a whole batch with one similarity matmul;
it reads each anchor's cluster as a slice of the index, so its only
other (B, N) work is the k argmax passes of the negatives.

What depends only on the labels and the batch order is planned once per
epoch (``plan_epoch``): the anchors' checked labels and candidate masks
(``plan_anchors``) and each bank's write rounds (``write_rounds``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .cluster import OUTLIER
from .linalg import gather_runs, group_runs, normalize_rows

__all__ = ["label_runs", "compute_prototypes", "Anchors", "plan_anchors", "write_rounds",
           "BatchPlan", "plan_epoch", "mine", "momentum_update"]


def label_runs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The label index ``(order, lo, hi)`` of (N,) pseudo-labels: one stable
    argsort of ``labels`` and the bounds of each run in it. Cluster c's
    members, ascending, are ``order[lo[c]:hi[c]]`` for c in [0, C), C the
    largest label + 1; run -1, the last, holds the outliers."""
    labels = np.asarray(labels, dtype=np.int64)
    clusters = np.arange(labels.max(initial=OUTLIER) + 1)
    return group_runs(labels, np.append(clusters, OUTLIER))


def compute_prototypes(bank: np.ndarray, runs) -> np.ndarray:
    """(C, D) normalized per-cluster centroids over non-outlier members only;
    ``runs`` is the ``label_runs`` index of the bank's labels."""
    order, lo, hi = runs
    if len(lo) == 1:
        raise ValueError("no clustered samples: every label is -1")
    protos = np.empty((len(lo) - 1, bank.shape[1]))
    for c, (start, stop) in enumerate(zip(lo[:-1].tolist(), hi[:-1].tolist())):
        if start == stop:
            raise ValueError(f"cluster ids are not dense: no member for cluster {c}")
        protos[c] = bank[order[start:stop]].mean(axis=0)
    return normalize_rows(protos)


class Anchors(NamedTuple):
    """``mine``'s view of a batch (``plan_anchors``): checked cluster ids,
    the validity of each pick, and whether outliers are candidates."""
    labels: np.ndarray
    valid: np.ndarray
    include_outliers: bool


def plan_anchors(runs, labels: np.ndarray, k: int, include_outliers: bool = True) -> Anchors:
    """The ``Anchors`` of cluster ids ``labels`` (any shape) in the bank that
    ``runs`` indexes: pick j of a row, (..., 1 + min(k, N)), is valid while
    j is at most the row's count of other-label candidates."""
    labels = np.asarray(labels, dtype=np.int64)
    order, lo, hi = runs
    if (labels < 0).any():
        raise ValueError("anchor label must be a cluster id (>= 0)")
    if k < 1:
        raise ValueError("k must be >= 1")
    same_count = np.zeros(labels.shape, dtype=np.int64)
    known = labels < len(lo) - 1  # past the clusters lies run -1, the outliers
    same_count[known] = (hi - lo)[labels[known]]
    if (same_count == 0).any():
        raise ValueError(f"no memory entry carries label {labels[same_count == 0][0]}")
    candidates = len(order) - same_count - (0 if include_outliers else hi[OUTLIER] - lo[OUTLIER])
    return Anchors(labels, np.arange(1 + min(k, len(order))) <= candidates[..., None],
                   include_outliers)


def write_rounds(batches, size: int) -> list[tuple[np.ndarray, np.ndarray, list[int]]]:
    """The write rounds of each of (S, B) ``batches`` of slots in a bank of
    ``size`` rows, from one stable sort of (batch, slot) pairs. A batch's
    rounds are ``(slots, rows, stops)``: round j writes features ``rows[a:b]``
    into bank rows ``slots[a:b]``, ``a, b = stops[j - 1], stops[j]`` (a = 0
    for j = 0), and holds the j-th occurrence of each of its slots. A batch
    of distinct slots, such as a slice of one permutation, is one round."""
    index = np.asarray(batches, dtype=np.int64)
    if index.ndim != 2:
        raise ValueError(f"need (S, B) slots, got shape {index.shape}")
    if ((index < 0) | (index >= size)).any():
        raise ValueError(f"slots {index} out of range [0, {size})")
    num, width = index.shape
    key = (index + size * np.arange(num)[:, None]).ravel()
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    # pair i of the sort is in batch i // width, and its round is its rank
    # among its slot's pairs: i less the place of the first of them
    batch_round = np.arange(key.size) - np.searchsorted(ranked, ranked) % width
    by_round = order[np.argsort(batch_round, kind="stable")].reshape(num, width)
    counts = np.bincount(batch_round, minlength=key.size).reshape(num, width)
    stops = np.cumsum(counts, axis=1).tolist()
    num_rounds = np.count_nonzero(counts, axis=1).tolist()
    return [(slots, rows, ends[:n]) for slots, rows, ends, n
            in zip(index.ravel()[by_round], by_round % width, stops, num_rounds)]


class BatchPlan(NamedTuple):
    """One batch of ``plan_epoch``: its instance-bank slots, its ``Anchors``
    and the ``write_rounds`` of both banks."""
    indices: np.ndarray
    anchors: Anchors
    instance_writes: tuple
    prototype_writes: tuple


def plan_epoch(labels: np.ndarray, runs, batches, k: int,
               include_outliers: bool = True) -> list[BatchPlan]:
    """Plan each of ``batches`` (``training.sample_batches``) in one pass from
    the (N,) ``labels`` and their ``label_runs`` index ``runs``."""
    index = np.asarray(batches, dtype=np.int64)
    anchors = plan_anchors(runs, labels[index], k, include_outliers)
    writes = zip(write_rounds(index, len(labels)), write_rounds(anchors.labels, len(runs[1]) - 1))
    return [BatchPlan(rows, Anchors(ids, valid, include_outliers), *pair)
            for rows, ids, valid, pair in zip(index, anchors.labels, anchors.valid, writes)]


def mine(bank: np.ndarray, runs, features: np.ndarray,
         anchors: Anchors) -> tuple[np.ndarray, np.ndarray]:
    """Mine a batch of (B, D) anchors with one (B, N) similarity matmul.

    ``runs`` is the ``label_runs`` index of the bank's labels, and
    ``anchors`` the batch's ``plan_anchors``. Returns (B, 1 + min(k, N))
    memory indices and their validity mask, ``anchors.valid``. Column 0 is
    the row's hardest positive, the least similar member of its cluster (a
    segmented argmin over only the batch's clusters' members); the rest
    are its negatives, the most similar entries of any other label in
    descending similarity (stable top-k), invalid past the row's candidate
    count.
    """
    features = np.asarray(features, dtype=np.float64)
    labels, valid, include_outliers = anchors
    order, lo, hi = runs
    sims = features @ bank.T
    rows, members, first = gather_runs(order, lo[labels], hi[labels])
    own = sims[rows, members]
    # Each run ascends, so the lowest member at its row's least value is
    # the stable argmin. A NaN counts as least, as it does for argmin, so
    # a diverged feature still picks a slot in the bank.
    hit = (own == np.minimum.reduceat(own, first)[rows]) | np.isnan(own)
    picked = np.empty(valid.shape, dtype=np.int64)
    picked[:, 0] = np.minimum.reduceat(np.where(hit, members, len(bank)), first)
    # sims becomes the negatives' key: the anchor's own cluster and,
    # if asked, the outliers (run -1) are out
    sims[rows, members] = -np.inf
    if not include_outliers:
        sims[:, order[lo[OUTLIER]:hi[OUTLIER]]] = -np.inf
    # Stable top-k as k masked argmax passes (argmax takes the first
    # maximum); for small k this is far cheaper than sorting every row.
    rows = np.arange(len(labels))
    for j in range(1, picked.shape[1]):
        picked[:, j] = np.argmax(sims, axis=1)
        sims[rows, picked[:, j]] = -np.inf
    return picked, valid


def momentum_update(bank: np.ndarray, rounds, features: np.ndarray, momentum: float) -> None:
    """In place, exactly as B sequential writes in batch order:
    ``bank[slot_b] <- normalize(mu * bank[slot_b] + (1 - mu) * features[b])``.

    ``bank`` is (R, D), ``rounds`` the batch's ``write_rounds`` and
    ``features`` (B, D); a repeated slot mixes every occurrence, each
    earlier one decayed by mu. Each round is one batched write.
    """
    slots, rows, stops = rounds
    if not 0.0 <= momentum <= 1.0:
        raise ValueError("momentum must be in [0, 1]")
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (rows.size, bank.shape[1]):
        raise ValueError(f"need ({rows.size}, {bank.shape[1]}) features for {rows.size} slots, "
                         f"got {features.shape}")
    fresh = (1.0 - momentum) * features[rows]
    start = 0
    for stop in stops:
        part = slots[start:stop]
        bank[part] = normalize_rows(momentum * bank[part] + fresh[start:stop])
        start = stop
