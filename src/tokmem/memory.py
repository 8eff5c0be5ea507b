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

``momentum_update`` writes a batch in batch order, one round per
occurrence of its most repeated slot (the prototype bank's labels
repeat); ``training.train_step`` writes distinct slots as one slice.
"""

from __future__ import annotations

import numpy as np

from .cluster import OUTLIER
from .linalg import gather_runs, group_runs, normalize_rows

__all__ = ["label_runs", "compute_prototypes", "mine", "momentum_update"]


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
    ``runs`` is the ``label_runs`` index of the bank's labels. One
    ``np.add.at`` adds each run's rows in ascending order, as
    ``mean(axis=0)`` does, so a centroid is its run's mean bit for bit."""
    order, lo, hi = runs
    if len(lo) == 1:
        raise ValueError("no clustered samples: every label is -1")
    counts = hi[:-1] - lo[:-1]
    if not counts.all():
        raise ValueError(f"cluster ids are not dense: no member for cluster {counts.argmin()}")
    sums = np.zeros((len(counts), bank.shape[1]))
    # label -1 sorts first, so the clusters' members fill the tail of order
    np.add.at(sums, np.repeat(np.arange(len(counts)), counts), bank[order[lo[0]:]])
    return normalize_rows(sums / counts[:, None])


def mine(bank: np.ndarray, runs, features: np.ndarray, labels: np.ndarray,
         k: int, include_outliers: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Mine a batch of (B, D) anchors with one (B, N) similarity matmul.

    ``runs`` is the ``label_runs`` index of the bank's labels, and
    ``labels`` the anchors' (B,) cluster ids. Returns (B, 1 + min(k, N))
    memory indices and a validity mask of the same shape. Column 0 is the
    row's hardest positive, the least similar member of its cluster (a
    segmented argmin over only the batch's clusters' members); the rest
    are its negatives, the most similar entries of any other label in
    descending similarity (stable top-k), invalid past the row's candidate
    count. ``include_outliers=False`` drops outliers from the candidates.
    The similarities are computed in the bank's dtype.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    order, lo, hi = runs
    if (labels < 0).any():
        raise ValueError("anchor label must be a cluster id (>= 0)")
    if k < 1:
        raise ValueError("k must be >= 1")
    same_count = np.zeros(len(labels), dtype=np.int64)
    known = labels < len(lo) - 1  # past the clusters lies run -1, the outliers
    same_count[known] = (hi - lo)[labels[known]]
    if not same_count.all():
        raise ValueError(f"no memory entry carries label {labels[same_count == 0][0]}")
    sims = features.astype(bank.dtype) @ bank.T
    rows, members, first = gather_runs(order, lo[labels], hi[labels])
    own = sims[rows, members]
    # Each run ascends, so the lowest member at its row's least value is
    # the stable argmin. A NaN counts as least, as it does for argmin, so
    # a diverged feature still picks a slot in the bank.
    hit = (own == np.minimum.reduceat(own, first)[rows]) | np.isnan(own)
    picked = np.empty((len(labels), 1 + min(k, len(bank))), dtype=np.int64)
    picked[:, 0] = np.minimum.reduceat(np.where(hit, members, len(bank)), first)
    # sims becomes the negatives' key: the anchor's own cluster and,
    # if asked, the outliers (run -1) are out
    sims[rows, members] = -np.inf
    candidates = len(bank) - same_count
    if not include_outliers:
        sims[:, order[lo[OUTLIER]:hi[OUTLIER]]] = -np.inf
        candidates -= hi[OUTLIER] - lo[OUTLIER]
    # Stable top-k as k masked argmax passes (argmax takes the first
    # maximum); for small k this is far cheaper than sorting every row.
    rows = np.arange(len(labels))
    for j in range(1, picked.shape[1]):
        picked[:, j] = np.argmax(sims, axis=1)
        sims[rows, picked[:, j]] = -np.inf
    return picked, np.arange(picked.shape[1]) <= candidates[:, None]


def momentum_update(bank: np.ndarray, slots, features: np.ndarray, momentum: float) -> None:
    """In place, exactly as B sequential writes in batch order:
    ``bank[slot_b] <- normalize(mu * bank[slot_b] + (1 - mu) * features[b])``.

    ``bank`` is (R, D), ``slots`` (B,) and ``features`` (B, D); a repeated
    slot mixes every occurrence, each earlier one decayed by mu. Round j,
    one batched write, holds the j-th occurrence of every slot.
    """
    if not 0.0 <= momentum <= 1.0:
        raise ValueError("momentum must be in [0, 1]")
    slots = np.asarray(slots, dtype=np.int64)
    features = np.asarray(features, dtype=np.float64)
    if slots.ndim != 1 or features.shape != (slots.size, bank.shape[1]):
        raise ValueError(f"need (B,) slots and (B, {bank.shape[1]}) features, "
                         f"got {slots.shape} slots and {features.shape} features")
    outside = (slots < 0) | (slots >= len(bank))
    if outside.any():
        raise ValueError(f"slot {slots[outside][0]} out of range [0, {len(bank)})")
    order = np.argsort(slots, kind="stable")
    ranked = slots[order]
    # a slot's occurrences sit together in batch order: round = place - first place
    rank = np.arange(slots.size) - np.searchsorted(ranked, ranked)
    by_round = order[np.argsort(rank, kind="stable")]
    slots, fresh = slots[by_round], (1.0 - momentum) * features[by_round]
    start = 0
    for stop in np.cumsum(np.bincount(rank)).tolist():
        part = slots[start:stop]
        bank[part] = normalize_rows(momentum * bank[part] + fresh[start:stop])
        start = stop
