"""Density-based pseudo-labeling over normalized features.

Classic DBSCAN on cosine distance: a core point has at least ``min_pts``
neighbors within ``eps`` (itself included), clusters are maximal
density-connected sets, and points reachable from no core point are
outliers with label -1. Cluster ids are dense and follow each cluster's
smallest core index, and a border point within eps of several clusters'
cores joins the lowest-numbered one.

No (N, N) array is built, nor a (BLOCK, N) one. A pair neighbours when
its dot product is at least eps's floor, found once by bisection over
the float64 values, and the neighbour pairs are computed once from
(BLOCK, TILE) tiles of dot products and replayed: the first pass counts
each point's neighbours, which finds the core points; the second joins
the core-core pairs in a union-find forest whose roots are the smallest
core index of each component, and keeps each non-core point's few core
neighbours. Pairs too many to keep are computed again for the second
pass instead. Point indices are int32: N float64 features fit in memory
first.
"""

from __future__ import annotations

import functools

import numpy as np

from .linalg import row_norms

__all__ = ["OUTLIER", "dbscan"]

OUTLIER = -1
ZERO_DIST = 1e-12   # neighbour radius floor: round-off of a unit-norm dot is ~1e-15
BLOCK = 128        # rows per block of dot products
# columns per tile of a row block's strip: a (BLOCK, TILE) float64 tile is
# 1 MB. On epoch-0 features at N = 6,000 (seeds 42, 952 and 3, one BLAS
# thread) this width ran fastest of 128 to N: 39.5-59.4 ms, against
# 41.1-61.3 ms at 2,048 columns and 42.3-60.0 ms at N
TILE = 8 * BLOCK


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
    if not np.abs(row_norms(features) - 1.0).max() <= 1e-6:  # NaN fails too
        raise ValueError("features must be unit-norm (tolerance 1e-6)")

    floor = _dot_floor(max(eps, ZERO_DIST))
    return _label(n, lambda: _neighbour_pairs(features, floor), min_pts)


def _label(n, sweep, min_pts):
    """DBSCAN labels of ``n`` points from their neighbour relation.

    ``sweep()`` yields index arrays ``(a, b)`` holding every pair of
    distinct neighbours once, and the same pairs on each call. The first
    pass counts each point's neighbours, which finds the core points. In
    the second, a core pair joins two components of a union-find forest,
    and a core point and a non-core point make the latter a border point.
    Up to ``BLOCK * n / 4`` pairs, ``2 * BLOCK * n`` bytes of int32 indices,
    are held at a time: the first pass's chunks while they total that
    many, which the second pass replays (past it, it calls ``sweep()``
    again), and the core pairs that wait in ``links``. The replayed chunks
    go before the last join."""
    cap = BLOCK * n // 4
    degree = np.ones(n, dtype=np.int64)  # every point neighbours itself
    kept, pairs = [], 0
    for a, b in sweep():
        degree += np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
        pairs += a.size
        if pairs <= cap:
            kept.append((a, b))
        else:
            kept.clear()
    core = degree >= min_pts

    root = np.arange(n, dtype=np.int32)
    links, held, border = [], 0, []
    for a, b in kept if pairs <= cap else sweep():
        core_a, core_b = core[a], core[b]
        both = core_a & core_b
        links.append((a[both], b[both]))
        held += links[-1][0].size
        one = core_a != core_b  # (the non-core point, its core neighbour)
        border.append((np.where(core_a, b, a)[one], np.where(core_a, a, b)[one]))
        if held >= cap:
            _join(root, links)
            held = 0
    kept.clear()
    _join(root, links)

    first = core & (root == np.arange(n))  # the smallest core index of each cluster
    labels = np.full(n, OUTLIER, dtype=np.int64)
    labels[core] = (np.cumsum(first) - 1)[root[core]]
    point, near = (np.concatenate(side) for side in zip(*border))
    lowest = np.full(n, n)  # n: above every cluster id
    np.minimum.at(lowest, point, labels[near])
    reached = lowest < n  # border points, all of them non-core
    labels[reached] = lowest[reached]
    return labels


@functools.cache
def _dot_floor(radius: float) -> float:
    """The smallest float64 dot product ``d`` with ``min(1 - d, 2) <= radius``,
    or ``-inf`` when every ``d`` passes.

    ``fl(1 - d)`` falls as ``d`` grows, so the passing ``d`` are exactly
    those at or above the floor. It is found by bisection over the float64
    values from ``d = -1``, which fails, and ``d = 1``, which passes, until
    their midpoint rounds to one of them: no float lies between them then."""
    if radius >= 2.0:
        return -np.inf
    lo, hi = -1.0, 1.0
    while (mid := lo + (hi - lo) / 2) not in (lo, hi):
        if min(1.0 - mid, 2.0) <= radius:
            hi = mid
        else:
            lo = mid
    return hi


def _neighbour_pairs(features, floor):
    """Yield int32 index arrays ``(a, b)`` with ``a < b``: every pair of
    distinct neighbouring points once, in chunks of at most ``BLOCK * TILE``
    pairs, and in the same order on every call.

    Each row block makes one diagonal block, which numpy computes with syrk
    (one triangle, mirrored) and so exactly symmetric, of which the upper
    triangle is read, and then the strip right of it, ``TILE`` columns at
    a time, with gemm. So the neighbour relation is exactly symmetric, a
    second sweep sees the same bits, and no block is wider than ``TILE``.
    The tiling moves the last bits of some dot products, but only the
    decisions ``dot >= floor`` leave this function, and they did not move
    on any data tried (see ROADMAP). ``dot >= floor`` is
    ``min(1 - dot, 2) <= radius`` (:func:`_dot_floor`); the clamp keeps a
    radius >= 2 from failing round-off above 2. Exact duplicates, at
    distance 0, round to at most ~1e-15 whichever kernel computed their
    block, so every pair within ZERO_DIST neighbours, whatever eps."""
    n = len(features)
    for i in range(0, n, BLOCK):
        rows = features[i:i + BLOCK]
        a, b = _nonzero(rows @ rows.T >= floor)
        upper = a < b
        yield a[upper] + i, b[upper] + i
        for j in range(i + len(rows), n, TILE):
            a, b = _nonzero(rows @ features[j:j + TILE].T >= floor)
            yield a + i, b + j


def _nonzero(tile):
    """The int32 (row, column) indices of a 2-D bool tile's true entries,
    row-major: ``np.nonzero`` took 6 times as long on a (BLOCK, TILE) tile."""
    return np.divmod(np.flatnonzero(tile).astype(np.int32), tile.shape[1])


def _join(root, links):
    """Join the components of the pairs in ``links`` into the forest
    ``root``, in which every point points at its root, the smallest index
    of its component; it still does on return. Empties ``links``, whose
    pairs it holds concatenated, and narrows them one array at a time."""
    if not links:
        return
    a, b = (np.concatenate(side) for side in zip(*links))
    links.clear()
    while True:
        root_a, root_b = root[a], root[b]
        apart = root_a != root_b
        if not apart.any():
            return
        a = a[apart]
        b = b[apart]
        root_a = root_a[apart]
        root_b = root_b[apart]
        # each larger root points at the smallest root it is paired with
        np.minimum.at(root, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
        while True:  # pointer jumping, until every point points at a root again
            up = root[root]
            if np.array_equal(up, root):
                break
            root[:] = up
