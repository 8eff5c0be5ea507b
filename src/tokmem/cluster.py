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

from dataclasses import dataclass

import numpy as np

__all__ = ["PseudoLabels", "dbscan"]

OUTLIER = -1


@dataclass
class PseudoLabels:
    labels: np.ndarray  # (N,) int64; cluster id >= 0 or -1 for outliers
    num_clusters: int

    @property
    def outlier_count(self) -> int:
        return int(np.sum(self.labels == OUTLIER))

    @property
    def clustered_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels >= 0)


def dbscan(features: np.ndarray, eps: float, min_pts: int) -> PseudoLabels:
    """Cluster unit-norm features; returns dense labels with -1 outliers."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    # In C order numpy computes F @ F.T with syrk (one triangle, mirrored),
    # so distances, and hence neighbours, are exactly symmetric.
    features = np.ascontiguousarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a (N, D) array")
    n = features.shape[0]
    if n == 0:
        return PseudoLabels(labels=np.empty(0, dtype=np.int64), num_clusters=0)
    if np.abs(np.linalg.norm(features, axis=1) - 1.0).max() > 1e-6:
        raise ValueError("features must be unit-norm (tolerance 1e-6)")

    # One (N, N) float buffer. Only an eps >= 2 sees round-off above 2, and
    # no eps > 0 sees round-off below 0, so one clamp suffices.
    dist = features @ features.T
    np.subtract(1.0, dist, out=dist)
    np.minimum(dist, 2.0, out=dist)
    within = dist <= eps
    del dist
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
            reached = within[frontier].any(axis=0) & (labels == OUTLIER)
            labels[reached] = cluster_id
            frontier = np.flatnonzero(reached & core)
        cluster_id += 1
    return PseudoLabels(labels=labels, num_clusters=cluster_id)
