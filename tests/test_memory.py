import numpy as np
import pytest

from conftest import unit_rows
from oracles import sequential_momentum, topk_by_full_sort
from tokmem.cluster import PseudoLabels
from tokmem.memory import (build_instance_memory, compute_prototypes, mine,
                           momentum_update)


def labels_of(values):
    arr = np.asarray(values, dtype=np.int64)
    positive = arr[arr >= 0]
    return PseudoLabels(labels=arr, num_clusters=int(positive.max()) + 1 if positive.size else 0)


def memory_from(features, labels):
    return build_instance_memory(np.asarray(features, dtype=np.float64), labels_of(labels))


def test_build_retains_outliers_and_normalizes():
    feats = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 0.0], [0.0, 1.0], [3.0, 4.0]])
    mem = memory_from(feats, [0, 0, 1, -1, 1])
    assert mem.size == 5
    np.testing.assert_array_equal(mem.labels, [0, 0, 1, -1, 1])
    np.testing.assert_allclose(np.linalg.norm(mem.features, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(mem.features[4], [0.6, 0.8], atol=1e-15)


def test_build_empty():
    mem = build_instance_memory(np.empty((0, 3)),
                                PseudoLabels(labels=np.empty(0, dtype=np.int64), num_clusters=0))
    assert mem.size == 0


def test_build_length_mismatch():
    with pytest.raises(ValueError, match="labels"):
        build_instance_memory(np.eye(3), labels_of([0, 1]))


def test_prototype_two_member_cluster():
    mem = memory_from([[1.0, 0.0], [0.0, 1.0]], [0, 0])
    protos = compute_prototypes(mem)
    np.testing.assert_allclose(protos[0], [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)


def test_prototype_singleton_cluster_is_the_feature():
    f = np.array([0.6, 0.8])
    mem = memory_from([f], [0])
    protos = compute_prototypes(mem)
    np.testing.assert_allclose(protos[0], f, atol=1e-15)


def test_prototype_weighted_centroid():
    mem = memory_from([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], [0, 0, 0])
    protos = compute_prototypes(mem)
    centroid = np.array([2 / 3, 1 / 3])
    np.testing.assert_allclose(protos[0], centroid / np.linalg.norm(centroid), atol=1e-12)
    np.testing.assert_allclose(protos[0], [0.8944, 0.4472], atol=1e-4)


def test_prototypes_ignore_outliers(rng):
    feats = unit_rows(rng, 8, 4)
    base = memory_from(feats, [0, 0, 1, 1, 1, 2, 2, 2])
    with_outliers = memory_from(
        np.concatenate([feats, unit_rows(rng, 3, 4)]),
        [0, 0, 1, 1, 1, 2, 2, 2, -1, -1, -1])
    np.testing.assert_array_equal(compute_prototypes(base),
                                  compute_prototypes(with_outliers))


def test_prototypes_all_outliers_rejected():
    mem = memory_from([[1.0, 0.0], [0.0, 1.0]], [-1, -1])
    with pytest.raises(ValueError, match="-1"):
        compute_prototypes(mem)


def hardest(mem, anchor, label):
    """Memory index of the anchor's hardest positive."""
    picked, _ = mine(mem, anchor[None], np.array([label]), 1)
    return picked[0, 0]


def negatives(mem, anchor, label, k, include_outliers=True):
    """Memory indices of the anchor's valid negatives, most similar first."""
    picked, valid = mine(mem, anchor[None], np.array([label]), k, include_outliers)
    return picked[0, 1:][valid[0, 1:]]


def test_hardest_positive_is_least_similar():
    anchor = np.array([1.0, 0.0])
    feats = on_angles([0.1, 1.2, 0.6])
    mem = memory_from(feats, [0, 0, 0])
    assert hardest(mem, anchor, 0) == 1


def on_angles(angles):
    angles = np.asarray(angles, dtype=np.float64)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def test_hardest_positive_singleton_returns_own_slot():
    feats = on_angles([0.3, 1.0])
    mem = memory_from(feats, [0, 1])
    assert hardest(mem, feats[0], 0) == 0


def test_hardest_positive_tie_lowest_index():
    feats = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    mem = memory_from(feats, [0, 0, 0])
    anchor = np.array([0.0, 1.0])
    # entries 0 and 2 tie at similarity 1; entry 1 at 0 is the hardest
    assert hardest(mem, anchor, 0) == 1
    anchor2 = np.array([1.0, 0.0])
    # now entries 0 and 2 tie at the minimum; the lower index wins
    assert hardest(mem, anchor2, 0) == 0


def test_hardest_positive_requires_cluster_label():
    mem = memory_from([[1.0, 0.0]], [0])
    with pytest.raises(ValueError, match="cluster id"):
        hardest(mem, np.array([1.0, 0.0]), -1)
    with pytest.raises(ValueError, match="label 5"):
        hardest(mem, np.array([1.0, 0.0]), 5)


def test_top_k_includes_outliers():
    anchor = np.array([1.0, 0.0])
    feats = on_angles([0.0, 1.4, 0.2, 1.0])
    mem = memory_from(feats, [0, 1, -1, 1])
    # candidates are indices 1, 2, 3 with sims cos(1.4) < cos(0.2) > cos(1.0);
    # the outlier at index 2 is the most similar
    np.testing.assert_array_equal(negatives(mem, anchor, 0, k=2), [2, 3])


def test_top_k_exclude_outliers_switch():
    anchor = np.array([1.0, 0.0])
    feats = on_angles([0.0, 1.4, 0.2, 1.0])
    mem = memory_from(feats, [0, 1, -1, 1])
    np.testing.assert_array_equal(
        negatives(mem, anchor, 0, k=2, include_outliers=False), [3, 1])


def test_top_k_truncates_to_candidate_count():
    anchor = np.array([1.0, 0.0])
    feats = on_angles([0.0, 1.4, 0.2])
    mem = memory_from(feats, [0, 1, -1])
    picked, valid = mine(mem, anchor[None], np.array([0]), k=10)
    assert picked.shape == (1, 4)  # 1 + min(k, N) columns
    np.testing.assert_array_equal(valid[0], [True, True, True, False])
    np.testing.assert_array_equal(negatives(mem, anchor, 0, k=10), [2, 1])


def test_mine_zero_candidates_marks_every_negative_invalid():
    mem = memory_from([[1.0, 0.0], [0.0, 1.0]], [0, -1])
    anchors = np.array([[1.0, 0.0], [0.0, 1.0]])
    _, with_outliers = mine(mem, anchors, np.array([0, 0]), k=1)
    np.testing.assert_array_equal(with_outliers, [[True, True], [True, True]])
    _, valid = mine(mem, anchors, np.array([0, 0]), k=1, include_outliers=False)
    np.testing.assert_array_equal(valid, [[True, False], [True, False]])


@pytest.mark.parametrize("trial", range(20))
def test_mining_matches_full_sort_oracle(trial):
    rng = np.random.Generator(np.random.Philox(key=np.array([777, trial],
                                                            dtype=np.uint64)))
    n = int(rng.integers(5, 501))
    feats = unit_rows(rng, n, 6)
    labels = rng.integers(-1, 4, size=n)
    while not (labels == 0).any():
        labels = rng.integers(-1, 4, size=n)
    mem = memory_from(feats, labels)
    anchor = unit_rows(rng, 1, 6)[0]
    sims = mem.features @ anchor

    pos_pool = np.flatnonzero(mem.labels == 0)
    expected_pos = pos_pool[topk_by_full_sort(sims[pos_pool], 1, descending=False)[0]]
    assert hardest(mem, anchor, 0) == expected_pos

    neg_pool = np.flatnonzero(mem.labels != 0)
    if neg_pool.size:
        k = int(rng.integers(1, 8))
        expected = neg_pool[topk_by_full_sort(sims[neg_pool], min(k, neg_pool.size))]
        np.testing.assert_array_equal(negatives(mem, anchor, 0, k), expected)


def test_with_outliers_dominates_without(rng):
    """Selecting from the larger candidate pool can only raise each ranked
    similarity."""
    for _ in range(10):
        feats = unit_rows(rng, 30, 5)
        labels = rng.integers(-1, 3, size=30)
        if not ((labels == 0).any() and (labels > 0).any()):
            continue
        mem = memory_from(feats, labels)
        anchor = unit_rows(rng, 1, 5)[0]
        with_out = mem.features[negatives(mem, anchor, 0, k=5)] @ anchor
        without = mem.features[negatives(mem, anchor, 0, k=5,
                                         include_outliers=False)] @ anchor
        for j in range(min(len(with_out), len(without))):
            assert with_out[j] >= without[j] - 1e-12


def test_momentum_endpoints_exact():
    protos = compute_prototypes(memory_from([[1.0, 0.0]], [0]))
    momentum_update(protos, [0], [[0.0, 1.0]], momentum=1.0)
    np.testing.assert_array_equal(protos[0], [1.0, 0.0])
    momentum_update(protos, [0], [[0.0, 1.0]], momentum=0.0)
    np.testing.assert_array_equal(protos[0], [0.0, 1.0])


def test_momentum_prototype_mixing():
    protos = compute_prototypes(memory_from([[1.0, 0.0]], [0]))
    momentum_update(protos, [0], [[0.0, 1.0]], momentum=0.2)
    mixed = np.array([0.2, 0.8])
    np.testing.assert_allclose(protos[0], mixed / np.linalg.norm(mixed), atol=1e-15)
    np.testing.assert_allclose(protos[0], [0.2425, 0.9701], atol=1e-4)


def test_momentum_instance_mixing():
    mem = memory_from([[0.0, 1.0]], [0])
    momentum_update(mem.features, [0], [[1.0, 0.0]], momentum=0.5)
    np.testing.assert_allclose(mem.features[0], [np.sqrt(0.5), np.sqrt(0.5)],
                               atol=1e-15)


def test_momentum_validation():
    mem = memory_from([[1.0, 0.0]], [0])
    protos = compute_prototypes(mem)
    with pytest.raises(ValueError, match="range"):
        momentum_update(mem.features, [3], [[1.0, 0.0]], 0.5)
    with pytest.raises(ValueError, match="range"):
        momentum_update(protos, [-1], [[1.0, 0.0]], 0.5)
    with pytest.raises(ValueError, match="momentum"):
        momentum_update(mem.features, [0], [[1.0, 0.0]], 1.5)
    # one form only: (B,) slots with (B, D) features
    for index, fresh in ((0, [1.0, 0.0]), ([0], [1.0, 0.0]), ([0, 0], [[1.0, 0.0]]),
                         ([0], [[1.0, 0.0, 0.0]])):
        with pytest.raises(ValueError, match="slots"):
            momentum_update(mem.features, index, fresh, 0.5)
    np.testing.assert_array_equal(mem.features, [[1.0, 0.0]])


def test_momentum_instance_batch_equals_sequential_updates(rng):
    """Repeated slots mean sequential writes in batch order."""
    feats = unit_rows(rng, 8, 4)
    batched = memory_from(feats, [0, 0, 1, 1, 2, 2, -1, 0])
    sequential = memory_from(feats, [0, 0, 1, 1, 2, 2, -1, 0])
    index = np.array([5, 0, 7, 5, 2, 0, 5])
    fresh = unit_rows(rng, 7, 4)
    momentum_update(batched.features, index, fresh, 0.2)
    for i, f in zip(index, fresh):
        momentum_update(sequential.features, [i], f[None], 0.2)
    np.testing.assert_array_equal(batched.features, sequential.features)
    # every occurrence counts: the last writer alone gives another result
    last_only = memory_from(feats, [0, 0, 1, 1, 2, 2, -1, 0])
    momentum_update(last_only.features, index[4:], fresh[4:], 0.2)
    assert not np.allclose(last_only.features[5], batched.features[5])


def test_momentum_repeated_slots_match_sequential_oracle():
    """240 random banks and batches, repeated slots included: the batched
    write equals the per-row loop bit for bit."""
    rng = np.random.Generator(np.random.Philox(key=91))
    for case in range(240):
        rows = int(rng.integers(1, 25))
        batch = int(rng.integers(0, 40))
        dim = int(rng.integers(1, 7))
        momentum = (0.0, 1.0, 0.2, float(rng.random()))[case % 4]
        bank = unit_rows(rng, rows, dim)
        index = rng.integers(0, rows, size=batch)
        fresh = unit_rows(rng, batch, dim)
        expected = bank.copy()
        sequential_momentum(expected, index, fresh, momentum)
        momentum_update(bank, index, fresh, momentum)
        np.testing.assert_array_equal(bank, expected)


def test_updates_keep_unit_norm(rng):
    feats = unit_rows(rng, 10, 4)
    mem = memory_from(feats, [0, 0, 1, 1, 2, 2, -1, -1, 0, 1])
    protos = compute_prototypes(mem)
    for _ in range(25):
        f = unit_rows(rng, 1, 4)
        momentum_update(mem.features, rng.integers(0, 10, size=1), f, 0.2)
        momentum_update(protos, rng.integers(0, 3, size=1), f, 0.2)
    np.testing.assert_allclose(np.linalg.norm(mem.features, axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(np.linalg.norm(protos, axis=1), 1.0, atol=1e-9)
