"""Density-based pseudo-labeling over normalized features.

Classic DBSCAN on cosine distance: a core point has at least ``min_pts``
neighbors within ``eps`` (itself included), clusters are maximal
density-connected sets, and points reachable from no core point are
outliers with label -1. Each unlabeled core point, in ascending index
order, seeds a cluster that grows one breadth-first level per array pass:
every still-unlabeled neighbour of the frontier joins it, and its core
points form the next frontier. So cluster ids are dense and follow each
cluster's smallest core index, and a border point within eps of several
clusters' cores joins the lowest-numbered one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["OUTLIER", "dbscan"]

OUTLIER = -1
BLOCK = 128         # rows per distance block; larger blocks raise peak memory
ZERO_DIST = 1e-12   # neighbour radius floor: round-off of a unit-norm dot is ~1e-15


def dbscan(features: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Cluster unit-norm features; returns (N,) int64 labels, dense cluster
    ids from 0 and ``OUTLIER`` (-1) for outliers."""
    if not eps > 0.0:  # NaN fails too
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    features = np.ascontiguousarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a (N, D) array")
    n = features.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if not np.abs(np.linalg.norm(features, axis=1) - 1.0).max() <= 1e-6:  # NaN fails too
        raise ValueError("features must be unit-norm (tolerance 1e-6)")

    # Distances are thresholded one row block at a time, so the float
    # buffer is at most (BLOCK, N). Each block of rows makes one diagonal
    # block, which numpy computes with syrk (one triangle, mirrored) and so
    # exactly symmetric, and one gemm strip right of it, whose threshold is
    # mirrored below the diagonal: each pair is thresholded once, so the
    # neighbour relation is exactly symmetric. Only an eps >= 2 sees
    # round-off above 2, so one clamp suffices. Exact duplicates, at
    # distance 0, round to at most ~1e-15 whichever kernel computed their
    # block, so every pair within ZERO_DIST neighbours, whatever eps.
    radius = max(eps, ZERO_DIST)
    within = np.empty((n, n), dtype=bool)
    for i in range(0, n, BLOCK):
        rows = features[i:i + BLOCK]
        end = i + len(rows)
        for j, cols in ((i, rows), (end, features[end:])):
            dist = rows @ cols.T
            np.subtract(1.0, dist, out=dist)
            np.minimum(dist, 2.0, out=dist)
            np.less_equal(dist, radius, out=within[i:end, j:j + len(cols)])
        within[end:, i:end] = within[i:end, end:].T
    np.fill_diagonal(within, True)  # every point neighbours itself
    core = within.sum(axis=1) >= min_pts

    labels = np.full(n, OUTLIER, dtype=np.int64)
    cluster_id = 0
    for seed in np.flatnonzero(core):
        if labels[seed] >= 0:
            continue
        labels[seed] = cluster_id
        frontier = np.array([seed])
        while frontier.size:
            # BLOCK frontier rows at a time, so no (frontier, N) copy is made
            reached = np.zeros(n, dtype=bool)
            for k in range(0, frontier.size, BLOCK):
                reached |= within[frontier[k:k + BLOCK]].any(axis=0)
            reached &= labels == OUTLIER
            labels[reached] = cluster_id
            frontier = np.flatnonzero(reached & core)
        cluster_id += 1
    return labels
