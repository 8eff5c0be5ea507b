import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import REFERENCE, unit_rows
from oracles import (cosine_dist_oracle, dbscan_oracle, neighbours,
                     partition_of_core_points)
import tokmem.cluster as cluster_mod
from tokmem.cluster import BLOCK, OUTLIER, TILE, _dot_floor, _neighbour_pairs, dbscan
from tokmem.encoder import image_feature, init_params, patch_means
from tokmem.synth import generate


def num_clusters(labels):
    return int(labels.max(initial=OUTLIER)) + 1


def on_circle(angles):
    angles = np.asarray(angles, dtype=np.float64)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def test_pairwise_identical_orthogonal_antipodal():
    # cosine distances: 0 (identical), 1 (orthogonal), 2 (antipodal)
    feats = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(dbscan(feats, 0.999, 1), [0, 0, 1, 2])
    np.testing.assert_array_equal(dbscan(feats, 1.0, 1), [0, 0, 0, 0])
    antipodal = feats[[0, 3]]
    np.testing.assert_array_equal(dbscan(antipodal, 1.999, 1), [0, 1])
    np.testing.assert_array_equal(dbscan(antipodal, 2.0, 1), [0, 0])


def test_pairwise_requires_normalized_inputs():
    with pytest.raises(ValueError, match="unit-norm"):
        dbscan(np.array([[2.0, 0.0], [0.0, 1.0]]), eps=0.5, min_pts=1)
    with pytest.raises(ValueError, match=r"\(N, D\)"):
        dbscan(np.array([1.0, 0.0]), eps=0.5, min_pts=1)
    # a NaN norm is no distance from 1 and must not pass as within tolerance
    with pytest.raises(ValueError, match="unit-norm"):
        dbscan(np.array([[1.0, 0.0], [np.nan, 0.0]]), eps=0.5, min_pts=1)


def test_pairwise_symmetric_zero_diagonal_clamped(rng):
    feats = unit_rows(rng, 40, 5)
    raw = 1.0 - feats @ feats.T
    # round-off leaves some self-distances above 1e-18; every point still
    # neighbours itself, so with min_pts = 1 each is its own cluster
    assert np.diag(raw).max() > 1e-18
    np.testing.assert_array_equal(dbscan(feats, 1e-18, 1), np.arange(40))
    # norms within the 1e-6 tolerance put antipodes at 2 + 2e-7, which the
    # clamp to 2 brings within eps = 2, but not within a smaller eps
    antipodes = np.array([[1.0 + 1e-7, 0.0], [-1.0 - 1e-7, 0.0]])
    np.testing.assert_array_equal(dbscan(antipodes, 2.0, 2), [0, 0])
    np.testing.assert_array_equal(dbscan(antipodes, 1.999, 2), [-1, -1])


@pytest.mark.parametrize("n", [1, 2, 7, 64, 513, 6000])
def test_gram_matrix_is_bitwise_symmetric(n):
    """dbscan relies on each diagonal block R @ R.T, R a row slice of the
    C-ordered features, being exactly symmetric (numpy computes it with
    syrk); the off-diagonal strips are gemm, and each of their pairs is
    read once."""
    rng = np.random.Generator(np.random.Philox(key=np.array([556, n], dtype=np.uint64)))
    feats = unit_rows(rng, n, 32)
    for rows in (feats, feats[n // 3:n // 3 + BLOCK]):
        gram = rows @ rows.T
        assert np.array_equal(gram, gram.T)


def test_peak_memory_is_bool_matrix_and_one_block_strip(rng):
    """Spread features, and features within 1e-3 of one direction, which
    all neighbour each other: 4.5 M pairs, more than can be held at once."""
    center = unit_rows(rng, 1, 8)
    collapsed = unit_rows(rng, 3000, 8) * 1e-3 + center
    collapsed /= np.linalg.norm(collapsed, axis=1, keepdims=True)
    for feats in (unit_rows(rng, 1500, 8), collapsed):
        n = len(feats)
        tracemalloc.start()
        try:
            dbscan(feats, eps=0.05, min_pts=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * n + 2 * 8 * BLOCK * n


def collapsed_rows(rng, n):
    """``n`` unit rows within 1e-3 of one direction: every pair neighbours
    at eps 0.05, n (n - 1) / 2 pairs."""
    center = unit_rows(rng, 1, 8)
    rows = unit_rows(rng, n, 8) * 1e-3 + center
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def clustered_rows(rng, n):
    """``n`` unit rows in tight groups of 20 around random directions."""
    centers = unit_rows(rng, n // 20, 8)
    rows = np.repeat(centers, 20, axis=0) + 0.05 * rng.normal(size=(n, 8))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def count_sweeps(monkeypatch):
    """A list that gains one entry per call of ``_neighbour_pairs``."""
    calls, real = [], cluster_mod._neighbour_pairs

    def spy(features, floor):
        calls.append(len(features))
        return real(features, floor)

    monkeypatch.setattr(cluster_mod, "_neighbour_pairs", spy)
    return calls


@pytest.mark.parametrize("make,n,sweeps", [(clustered_rows, 600, 1), (collapsed_rows, 300, 2)])
def test_pairs_that_fit_are_replayed_and_others_computed_again(rng, monkeypatch, make, n,
                                                               sweeps):
    """Up to ``BLOCK * n / 4`` pairs are computed once and replayed; the
    300 collapsed points' 44,850 pairs are more, and are computed again.
    Both give the oracle's labels."""
    calls = count_sweeps(monkeypatch)
    feats = make(rng, n)
    assert_matches_oracle(feats, 0.05, 4)
    assert calls == [n] * sweeps


def test_peak_memory_cases_sweep_once_and_twice(rng, monkeypatch):
    """The data of the peak memory test above: the collapsed 3,000 points'
    4.5 M pairs exceed the budget, and the spread 1,500 points, of which
    none has min_pts neighbours, fit it. The oracle's labels follow from
    that: one cluster, and all outliers."""
    calls = count_sweeps(monkeypatch)
    collapsed = dbscan(collapsed_rows(rng, 3000), eps=0.05, min_pts=4)
    np.testing.assert_array_equal(collapsed, np.zeros(3000))
    assert calls == [3000, 3000]
    calls.clear()
    spread = unit_rows(rng, 1500, 8)
    assert neighbours(cosine_dist_oracle(spread), 0.05).sum(axis=1).max() < 4
    np.testing.assert_array_equal(dbscan(spread, eps=0.05, min_pts=4), np.full(1500, OUTLIER))
    assert calls == [1500]


def test_peak_memory_is_linear_in_n(rng):
    """6,000 spread points: no (N, N) array and no (BLOCK, N) one, only one
    (BLOCK, TILE) float tile with its bool mask and a few (N,) arrays."""
    feats = unit_rows(rng, 6000, 8)
    n = len(feats)
    tracemalloc.start()
    try:
        dbscan(feats, eps=0.05, min_pts=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * BLOCK * TILE + 40 * n


def ulps_around(x, count):
    """The ``2 * count + 1`` float64 values nearest ``x``, ascending."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[:0:-1] + above)


@pytest.mark.parametrize("radius", [
    5e-324, 2.0**-53, 1e-13, 1e-12, 0.15, 0.5, 0.6, float(np.nextafter(1.0, 0.0)), 1.0,
    1.9999999, float(np.nextafter(2.0, 0.0)), 2.0, 3.0])
def test_dot_floor_is_the_distance_threshold(radius):
    """``dot >= floor`` is ``min(1 - dot, 2) <= radius`` near the floor, at
    the ends and middle of the dot range, and on the subnormals next to 0,
    where ``1 - dot`` rounds to 1."""
    floor = _dot_floor(radius)
    tiny = np.nextafter(0.0, 1.0)
    dots = [ulps_around(x, 64) for x in (-1.0, 1.0) + ((floor,) if floor > -np.inf else ())]
    dots.append(np.array([-1.0, -0.0, 0.0, 1.0, -tiny, tiny, -2 * tiny, 2 * tiny,
                          -2.0**-53, 2.0**-53]))
    dots = np.concatenate(dots)
    np.testing.assert_array_equal(dots >= floor, np.minimum(1.0 - dots, 2.0) <= radius)
    assert (floor == -np.inf) == (radius >= 2.0)


def test_two_pairs_and_a_singleton():
    feats = on_circle([0.0, 0.01, 2.0, 2.01, 4.0])
    result = dbscan(feats, eps=0.1, min_pts=2)
    np.testing.assert_array_equal(result, [0, 0, 1, 1, -1])
    assert num_clusters(result) == 2


def test_all_identical_single_cluster():
    feats = np.tile([1.0, 0.0], (6, 1))
    result = dbscan(feats, eps=0.01, min_pts=6)
    np.testing.assert_array_equal(result, np.zeros(6))
    assert num_clusters(result) == 1


def test_tiny_eps_everything_outlier():
    feats = on_circle([0.0, 1.0, 2.0, 3.0])
    result = dbscan(feats, eps=1e-12, min_pts=2)
    np.testing.assert_array_equal(result, [-1, -1, -1, -1])
    assert num_clusters(result) == 0


def test_empty_input():
    result = dbscan(np.empty((0, 4)), eps=0.5, min_pts=2)
    assert result.size == 0
    assert num_clusters(result) == 0


def test_parameter_validation():
    feats = on_circle([0.0, 1.0])
    with pytest.raises(ValueError):
        dbscan(feats, eps=0.0, min_pts=2)
    with pytest.raises(ValueError, match="eps"):
        dbscan(feats, eps=float("nan"), min_pts=1)
    with pytest.raises(ValueError):
        dbscan(feats, eps=0.5, min_pts=0)


def assert_labels_well_formed(labels, n):
    """An (N,) int64 vector of dense cluster ids from 0 and OUTLIER."""
    assert labels.dtype == np.int64 and labels.shape == (n,)
    assert (labels >= OUTLIER).all()
    present = np.unique(labels[labels != OUTLIER])
    np.testing.assert_array_equal(present, np.arange(num_clusters(labels)))


def assert_matches_oracle(feats, eps, min_pts):
    """The full labeling rule: cluster k is the k-th core component in order
    of smallest core index, each border point takes the smallest label among
    its core neighbours, and every other point is an outlier."""
    result = dbscan(feats, eps, min_pts)
    assert_labels_well_formed(result, len(feats))
    dist = cosine_dist_oracle(feats)
    core, clusters, border, noise = dbscan_oracle(dist, eps, min_pts)
    expected = np.full(len(feats), -1)
    for k, members in enumerate(clusters):  # listed by smallest core index
        expected[sorted(members)] = k
    for b in np.flatnonzero(border):
        expected[b] = expected[core & neighbours(dist[b], eps)].min()
    np.testing.assert_array_equal(result, expected)
    assert num_clusters(result) == len(clusters)


@pytest.mark.parametrize("trial", range(30))
def test_matches_brute_force_oracle(trial):
    rng = np.random.Generator(np.random.Philox(key=np.array([555, trial],
                                                            dtype=np.uint64)))
    n = int(rng.integers(1, 61))
    d = int(rng.integers(2, 6))
    feats = unit_rows(rng, n, d)
    eps = float(rng.uniform(0.05, 1.5))
    min_pts = int(rng.integers(1, 9))
    assert_matches_oracle(feats, eps, min_pts)


def test_full_labeling_rule_on_hard_instances():
    """300 instances, a third of them clustered, with exact duplicates,
    exact antipodes and eps at the ends of the distance range [0, 2]."""
    rng = np.random.Generator(np.random.Philox(key=557))
    edge_eps = (1e-18, 1.999, 2.0, 2.5)
    for trial in range(300):
        n, d = int(rng.integers(1, 300)), int(rng.integers(2, 8))
        feats = unit_rows(rng, n, d)
        if trial % 3 == 0:
            centers = unit_rows(rng, int(rng.integers(1, 6)), d)
            feats = centers[rng.integers(0, len(centers), n)] + 0.05 * feats
            feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        half = n // 2
        if trial % 5 == 1:
            feats[half:] = feats[:n - half]
        elif trial % 5 == 2:
            feats[half:] = -feats[:n - half]
        eps = edge_eps[trial // 2 % 4] if trial % 2 else float(rng.uniform(0.01, 1.5))
        assert_matches_oracle(feats, eps, int(rng.integers(1, 8)))


@pytest.mark.parametrize("n", [1, 127, 128, 129, 255, 256, 257, 641, TILE - 1, TILE + 1,
                               BLOCK + TILE - 1, BLOCK + TILE + 1])
def test_matches_oracle_at_block_edges(n):
    """Sizes on either side of one, two and five row blocks, of one tile
    width, and of the first row block's strip filling one tile, so that
    its last tile is one column wide or one column short; clustered
    around a few centers, with eps across the distance range."""
    rng = np.random.Generator(np.random.Philox(key=np.array([558, n], dtype=np.uint64)))
    centers = unit_rows(rng, 6, 4)
    feats = centers[rng.integers(0, 6, n)] + 0.2 * unit_rows(rng, n, 4)
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    for eps in (0.05, 0.3, 1.0, 1.999, 2.0):
        assert_matches_oracle(feats, eps, min_pts=4)


def test_clusters_across_a_tile_boundary_match_oracle(rng):
    """Two pairs from the first row block to the columns on either side of
    its strip's first tile boundary, among spread points off their plane:
    with min_pts = 2 each pair is a cluster only if its tile holds it."""
    n, edge = BLOCK + 2 * TILE, BLOCK + TILE
    pairs = {5: 0.0, edge - 1: 0.01, 6: 1.0, edge: 1.01}  # index: angle
    eps = 1.0 - np.cos(0.05)
    feats = np.zeros((n, 8))
    feats[:, 2:] = unit_rows(rng, n, 6)  # at distance 1 from every pair's points
    feats[list(pairs)] = 0.0
    feats[list(pairs), :2] = on_circle(list(pairs.values()))
    expected = np.full(n, OUTLIER)
    expected[[5, edge - 1]] = 0
    expected[[6, edge]] = 1
    np.testing.assert_array_equal(dbscan(feats, eps, 2), expected)
    assert_matches_oracle(feats, eps, 2)


def test_neighbour_pairs_are_each_pair_once_in_one_order(rng):
    """Over row blocks whose strips make two tiles and a remainder, every
    neighbouring pair, near the diagonal or far from it, comes once, as
    int32 ``a < b``, and a second sweep yields the same chunks in the same
    order."""
    n = 2 * BLOCK + TILE + 40
    feats = unit_rows(rng, n, 3)
    floor = _dot_floor(0.1)
    sweeps = [list(_neighbour_pairs(feats, floor)) for _ in range(2)]
    assert len(sweeps[0]) == len(sweeps[1])
    for (a, b), (a2, b2) in zip(*sweeps):
        assert a.dtype == b.dtype == np.int32
        assert len(a) <= BLOCK * TILE
        np.testing.assert_array_equal(a, a2)
        np.testing.assert_array_equal(b, b2)
    a, b = (np.concatenate(side) for side in zip(*sweeps[0]))
    assert (a < b).all()
    dots = feats @ feats.T
    expected = np.flatnonzero(np.triu(dots >= floor, k=1))
    np.testing.assert_array_equal(np.sort(a.astype(np.int64) * n + b), expected)


@pytest.mark.parametrize("seed", [42, 952])
def test_labels_do_not_depend_on_the_tile_width(monkeypatch, seed):
    """Tiles change the last bits of some dot products, not the labels:
    epoch-0 features of the scaled shape (200 identities x 30; seed 952
    chains 2,533 samples into one cluster) get the same labels with tiles
    of BLOCK, 2 BLOCK, TILE and N columns."""
    spec = dataclasses.replace(REFERENCE.data, num_identities=200, samples_per_identity=30,
                               seed=seed)
    config = REFERENCE.train
    params = init_params(config.feature_dim, spec.patch_input_dim, config.part_tokens, seed)
    feats = image_feature(params, patch_means(generate(spec).patches, config.part_tokens))
    labels = []
    for width in (BLOCK, 2 * BLOCK, TILE, len(feats)):
        monkeypatch.setattr(cluster_mod, "TILE", width)
        labels.append(dbscan(feats, config.dbscan_eps, config.dbscan_min_pts))
    assert labels[0].max() > 50  # many clusters, not one or none
    for other in labels[1:]:
        np.testing.assert_array_equal(other, labels[0])


def test_duplicates_in_different_blocks_are_neighbours(rng):
    # each row of the first block is repeated in the third; at eps = 1e-18
    # only the ZERO_DIST floor makes the copies neighbours, however the
    # BLAS rounds their dot product
    n = 3 * BLOCK
    feats = unit_rows(rng, n, 5)
    feats[2 * BLOCK:] = feats[:BLOCK]
    result = dbscan(feats, eps=1e-18, min_pts=2)
    expected = np.full(n, -1)
    expected[:BLOCK] = expected[2 * BLOCK:] = np.arange(BLOCK)
    np.testing.assert_array_equal(result, expected)


def test_border_point_between_two_clusters_joins_cluster_0():
    # two 4-point arcs 0.26 rad apart and a point 0.13 rad from the nearest
    # core of each; it has 3 neighbours, so with min_pts = 4 it is a border
    # point, and it takes the lower id whichever arc comes first
    arc_a, arc_b = [0.0, 0.01, 0.02, 0.03], [0.29, 0.30, 0.31, 0.32]
    eps = 1.0 - np.cos(0.135)
    for first, second in ((arc_a, arc_b), (arc_b, arc_a)):
        result = dbscan(on_circle([0.16] + first + second), eps, min_pts=4)
        np.testing.assert_array_equal(result, [0] * 5 + [1] * 4)


def test_border_point_between_clusters_in_two_blocks_matches_oracle(rng):
    """Past two row blocks: a border point in the middle block whose core
    neighbours are two clusters, one in the first block and one in the
    third, among spread points off the arcs' plane."""
    n, border = 2 * BLOCK + 50, BLOCK + 30
    eps = 1.0 - np.cos(0.135)
    arc_a, arc_b = [0.0, 0.01, 0.02, 0.03], [0.29, 0.30, 0.31, 0.32]
    for low, high in ((arc_a, arc_b), (arc_b, arc_a)):
        angles = {border: 0.16, **dict(zip(range(20, 24), low)),
                  **dict(zip(range(2 * BLOCK + 10, 2 * BLOCK + 14), high))}
        feats = np.zeros((n, 8))
        feats[:, 2:] = unit_rows(rng, n, 6)  # at distance 1 from every arc point
        feats[list(angles)] = 0.0
        feats[list(angles), :2] = on_circle(list(angles.values()))
        labels = dbscan(feats, eps, 4)
        assert labels[border] == labels[20] == 0 and labels[2 * BLOCK + 10] == 1
        assert_matches_oracle(feats, eps, 4)


def test_clustered_blobs_recovered(rng):
    centers = unit_rows(rng, 3, 8)
    feats = np.concatenate([
        unit_rows_around(rng, centers[c], 12, scale=0.02) for c in range(3)])
    result = dbscan(feats, eps=0.3, min_pts=4)
    assert num_clusters(result) == 3
    labels = result.reshape(3, 12)
    for row in labels:
        assert (row == row[0]).all() and row[0] >= 0


def unit_rows_around(rng, center, n, scale):
    rows = center[None, :] + scale * rng.normal(size=(n, center.size))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def test_core_membership_invariant_under_permutation(rng):
    feats = unit_rows(rng, 50, 4)
    eps, min_pts = 0.6, 3
    base = dbscan(feats, eps, min_pts)
    dist = cosine_dist_oracle(feats)
    core, _, _, _ = dbscan_oracle(dist, eps, min_pts)

    perm = rng.permutation(50)
    permuted = dbscan(feats[perm], eps, min_pts)
    # map permuted labels back to original indexing
    back = np.empty(50, dtype=np.int64)
    back[perm] = permuted

    def core_partition(labels):
        groups = {}
        for i in np.flatnonzero(core):
            groups.setdefault(labels[i], set()).add(i)
        return {frozenset(g) for g in groups.values()}

    assert core_partition(base) == core_partition(back)
