import numpy as np
import pytest

from conftest import unit_rows
from oracles import sequential_momentum, topk_by_full_sort
import tokmem.memory as memory_mod
from tokmem.linalg import CHUNK, normalize_rows
from tokmem.memory import compute_prototypes, label_runs, mine, momentum_update


def memory_from(features, labels):
    """(bank, runs): the unit rows of ``features`` and the label index of ``labels``."""
    return (normalize_rows(np.asarray(features, dtype=np.float64)),
            label_runs(np.asarray(labels, dtype=np.int64)))


def test_prototype_two_member_cluster():
    protos = compute_prototypes(*memory_from([[1.0, 0.0], [0.0, 1.0]], [0, 0]))
    np.testing.assert_allclose(protos[0], [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)


def test_prototype_singleton_cluster_is_the_feature():
    f = np.array([0.6, 0.8])
    protos = compute_prototypes(*memory_from([f], [0]))
    np.testing.assert_allclose(protos[0], f, atol=1e-15)


def test_prototype_weighted_centroid():
    protos = compute_prototypes(*memory_from([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
                                             [0, 0, 0]))
    centroid = np.array([2 / 3, 1 / 3])
    np.testing.assert_allclose(protos[0], centroid / np.linalg.norm(centroid), atol=1e-12)
    np.testing.assert_allclose(protos[0], [0.8944, 0.4472], atol=1e-4)


def test_prototypes_ignore_outliers(rng):
    feats = unit_rows(rng, 8, 4)
    base = memory_from(feats, [0, 0, 1, 1, 1, 2, 2, 2])
    with_outliers = memory_from(
        np.concatenate([feats, unit_rows(rng, 3, 4)]),
        [0, 0, 1, 1, 1, 2, 2, 2, -1, -1, -1])
    np.testing.assert_array_equal(compute_prototypes(*base),
                                  compute_prototypes(*with_outliers))


def test_prototypes_all_outliers_rejected():
    mem = memory_from([[1.0, 0.0], [0.0, 1.0]], [-1, -1])
    with pytest.raises(ValueError, match="-1"):
        compute_prototypes(*mem)


def test_prototypes_reject_missing_cluster_id():
    mem = memory_from([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]], [0, 2, -1])
    with pytest.raises(ValueError, match="cluster ids are not dense: no member for cluster 1"):
        compute_prototypes(*mem)


@pytest.mark.parametrize("trial", [*range(12), "chunks"])
def test_prototypes_match_per_cluster_mean_bitwise(trial):
    """Each prototype is bit for bit the normalized mean of the bank rows
    with its label, in ascending row order; outliers are left out. The
    members are added ``CHUNK`` at a time: the "chunks" bank has a
    cluster that spans three chunks and clusters cut by a chunk boundary."""
    if trial == "chunks":
        rng = np.random.Generator(np.random.Philox(key=781))
        sizes = [2 * CHUNK + 5, 3, CHUNK - 1, 40]
        num_clusters = len(sizes)
        labels = rng.permutation(np.concatenate(
            [np.full(size, c) for c, size in enumerate(sizes)] + [np.full(30, -1)]))
    else:
        rng = np.random.Generator(np.random.Philox(key=np.array([778, trial], dtype=np.uint64)))
        num_clusters = 1 + 3 * trial
        rest = rng.integers(-1, num_clusters, size=int(rng.integers(0, 600)))
        labels = rng.permutation(np.concatenate([np.arange(num_clusters), [-1], rest]))
    bank = unit_rows(rng, len(labels), int(rng.integers(2, 40)))
    expected = np.stack([normalize_rows(bank[labels == c].mean(axis=0))
                         for c in range(num_clusters)])
    np.testing.assert_array_equal(compute_prototypes(bank, label_runs(labels)), expected)


def hardest(mem, anchor, label):
    """Memory index of the anchor's hardest positive."""
    picked, _ = mine(*mem, anchor[None], np.array([label]), 1)
    return picked[0, 0]


def negatives(mem, anchor, label, k, include_outliers=True):
    """Memory indices of the anchor's valid negatives, most similar first."""
    picked, valid = mine(*mem, anchor[None], np.array([label]), k, include_outliers)
    return picked[0, 1:][valid[0, 1:]]


def test_mine_ranks_in_the_bank_dtype():
    """Row 1 is more similar to the anchor than row 0 by 8e-10, which
    float64 resolves and float32 rounds away: a float32 bank ties the two
    and takes the lower index, as ``training.train``'s mining copy does."""
    bank = np.array([[1.0, 0.0], [1.0, 1e-9], [0.0, 1.0]])
    runs = label_runs(np.array([1, 1, 0]))
    anchor = np.array([[0.6, 0.8]])
    assert mine(bank, runs, anchor, np.array([0]), 1)[0][0, 1] == 1
    bank32 = np.asfortranarray(bank, dtype=np.float32)
    assert mine(bank32, runs, anchor, np.array([0]), 1)[0][0, 1] == 0


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


def test_absent_cluster_ids_rejected_beside_outliers():
    """An id in a gap of the labels, or just past the largest, has no
    members; the outlier run, indexed last, must not stand in for it."""
    mem = memory_from([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]], [0, 2, -1])
    for label in (1, 3):
        with pytest.raises(ValueError, match=f"no memory entry carries label {label}"):
            hardest(mem, np.array([1.0, 0.0]), label)


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
    picked, valid = mine(*mem, anchor[None], np.array([0]), k=10)
    assert picked.shape == (1, 4)  # 1 + min(k, N) columns
    np.testing.assert_array_equal(valid[0], [True, True, True, False])
    np.testing.assert_array_equal(negatives(mem, anchor, 0, k=10), [2, 1])


def test_mine_zero_candidates_marks_every_negative_invalid():
    mem = memory_from([[1.0, 0.0], [0.0, 1.0]], [0, -1])
    anchors = np.array([[1.0, 0.0], [0.0, 1.0]])
    _, with_outliers = mine(*mem, anchors, np.array([0, 0]), k=1)
    np.testing.assert_array_equal(with_outliers, [[True, True], [True, True]])
    _, valid = mine(*mem, anchors, np.array([0, 0]), k=1, include_outliers=False)
    np.testing.assert_array_equal(valid, [[True, False], [True, False]])


def test_mine_rejects_k_below_one():
    mem = memory_from([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    with pytest.raises(ValueError, match="k must be >= 1"):
        mine(*mem, np.array([[1.0, 0.0]]), np.array([0]), k=0)


@pytest.mark.parametrize("trial", [*range(20), "skewed"])
def test_mining_matches_full_sort_oracle(trial):
    """One call mines anchors of every present cluster, one label twice;
    with outliers included and excluded, each row's picks and candidate
    count match full sorts of its pools. The "skewed" bank has gaps in
    its cluster ids and one cluster of 644 members beside ones of 30-50,
    the shape DBSCAN gives on the scaled benchmark; that cluster anchors
    4 of the 11 rows."""
    if trial == "skewed":
        rng = np.random.Generator(np.random.Philox(key=779))
        ids = np.array([0, 3, 4, 9, 17, 18, 25, 40])
        sizes = [44, 31, 644, 38, 50, 30, 41, 47]
        labels = rng.permutation(np.concatenate(
            [np.full(size, c) for c, size in zip(ids, sizes)] + [np.full(90, -1)]))
        n = len(labels)
        feats = unit_rows(rng, n, 6)
        anchor_labels = np.concatenate([ids, np.full(3, 4)])
    else:
        rng = np.random.Generator(np.random.Philox(key=np.array([777, trial],
                                                                dtype=np.uint64)))
        n = int(rng.integers(5, 501))
        feats = unit_rows(rng, n, 6)
        labels = rng.integers(-1, 4, size=n)
        while np.unique(labels[labels >= 0]).size < 2:
            labels = rng.integers(-1, 4, size=n)
        present = np.unique(labels[labels >= 0])
        anchor_labels = np.concatenate([present, present[:1]])
    mem = memory_from(feats, labels)
    bank = mem[0]
    anchors = unit_rows(rng, len(anchor_labels), 6)
    k = int(rng.integers(1, n + 2))  # often more than a row's candidates
    for include_outliers in (True, False):
        picked, valid = mine(*mem, anchors, anchor_labels, k, include_outliers)
        assert picked.shape == valid.shape == (len(anchor_labels), 1 + min(k, n))
        for row, (anchor, label) in enumerate(zip(anchors, anchor_labels)):
            sims = bank @ anchor
            pos_pool = np.flatnonzero(labels == label)
            expected_pos = pos_pool[topk_by_full_sort(sims[pos_pool], 1, descending=False)[0]]
            assert picked[row, 0] == expected_pos

            neg_pool = np.flatnonzero((labels != label) & (include_outliers | (labels >= 0)))
            np.testing.assert_array_equal(valid[row],
                                          np.arange(1 + min(k, n)) <= neg_pool.size)
            expected = neg_pool[topk_by_full_sort(sims[neg_pool], min(k, neg_pool.size))]
            np.testing.assert_array_equal(picked[row, 1:][valid[row, 1:]], expected)


def test_mining_a_few_anchors_at_a_time_picks_what_one_gather_picks(monkeypatch):
    """``mine`` gathers the clusters of ``POSITIVES // largest`` anchors at
    a time: one anchor at a time, two, and the whole batch at once pick
    the same slots, with and without outliers, beside a cluster of 644."""
    rng = np.random.Generator(np.random.Philox(key=780))
    sizes = [644, 31, 44, 50]
    labels = rng.permutation(np.concatenate(
        [np.full(size, c) for c, size in enumerate(sizes)] + [np.full(60, -1)]))
    mem = memory_from(unit_rows(rng, len(labels), 6), labels)
    anchor_labels = np.array([0, 1, 0, 2, 3, 0, 0, 1, 2])
    anchors = unit_rows(rng, len(anchor_labels), 6)
    widths = (1, 2 * 644, memory_mod.POSITIVES)
    for include_outliers in (True, False):
        results = []
        for positives in widths:
            monkeypatch.setattr(memory_mod, "POSITIVES", positives)
            results.append(mine(*mem, anchors, anchor_labels, 5, include_outliers))
        for picked, valid in results[1:]:
            np.testing.assert_array_equal(picked, results[0][0])
            np.testing.assert_array_equal(valid, results[0][1])


def test_with_outliers_dominates_without(rng):
    """Selecting from the larger candidate pool can only raise each ranked
    similarity."""
    for _ in range(10):
        feats = unit_rows(rng, 30, 5)
        labels = rng.integers(-1, 3, size=30)
        if not ((labels == 0).any() and (labels > 0).any()):
            continue
        mem = memory_from(feats, labels)
        bank = mem[0]
        anchor = unit_rows(rng, 1, 5)[0]
        with_out = bank[negatives(mem, anchor, 0, k=5)] @ anchor
        without = bank[negatives(mem, anchor, 0, k=5, include_outliers=False)] @ anchor
        for j in range(min(len(with_out), len(without))):
            assert with_out[j] >= without[j] - 1e-12


def test_momentum_endpoints_exact():
    protos = compute_prototypes(*memory_from([[1.0, 0.0]], [0]))
    momentum_update(protos, [0], [[0.0, 1.0]], momentum=1.0)
    np.testing.assert_array_equal(protos[0], [1.0, 0.0])
    momentum_update(protos, [0], [[0.0, 1.0]], momentum=0.0)
    np.testing.assert_array_equal(protos[0], [0.0, 1.0])


def test_momentum_prototype_mixing():
    protos = compute_prototypes(*memory_from([[1.0, 0.0]], [0]))
    momentum_update(protos, [0], [[0.0, 1.0]], momentum=0.2)
    mixed = np.array([0.2, 0.8])
    np.testing.assert_allclose(protos[0], mixed / np.linalg.norm(mixed), atol=1e-15)
    np.testing.assert_allclose(protos[0], [0.2425, 0.9701], atol=1e-4)


def test_momentum_instance_mixing():
    bank, _ = memory_from([[0.0, 1.0]], [0])
    momentum_update(bank, [0], [[1.0, 0.0]], momentum=0.5)
    np.testing.assert_allclose(bank[0], [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-15)


def test_momentum_validation():
    mem = memory_from([[1.0, 0.0]], [0])
    bank = mem[0]
    protos = compute_prototypes(*mem)
    with pytest.raises(ValueError, match="range"):
        momentum_update(bank, [3], [[1.0, 0.0]], 0.5)
    with pytest.raises(ValueError, match="range"):
        momentum_update(protos, [-1], [[1.0, 0.0]], 0.5)
    with pytest.raises(ValueError, match="momentum"):
        momentum_update(bank, [0], [[1.0, 0.0]], 1.5)
    # one form only: (B,) slots with (B, D) features
    for index, fresh in ((0, [1.0, 0.0]), ([0], [1.0, 0.0]), ([0, 0], [[1.0, 0.0]]),
                         ([0], [[1.0, 0.0, 0.0]])):
        with pytest.raises(ValueError, match="slots"):
            momentum_update(bank, index, fresh, 0.5)
    np.testing.assert_array_equal(bank, [[1.0, 0.0]])


def test_momentum_instance_batch_equals_sequential_updates(rng):
    """Repeated slots mean sequential writes in batch order."""
    feats = unit_rows(rng, 8, 4)
    batched = normalize_rows(feats)
    sequential = normalize_rows(feats)
    index = np.array([5, 0, 7, 5, 2, 0, 5])
    fresh = unit_rows(rng, 7, 4)
    momentum_update(batched, index, fresh, 0.2)
    for i, f in zip(index, fresh):
        momentum_update(sequential, [i], f[None], 0.2)
    np.testing.assert_array_equal(batched, sequential)
    # every occurrence counts: the last writer alone gives another result
    last_only = normalize_rows(feats)
    momentum_update(last_only, index[4:], fresh[4:], 0.2)
    assert not np.allclose(last_only[5], batched[5])


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
    bank = mem[0]
    protos = compute_prototypes(*mem)
    for _ in range(25):
        f = unit_rows(rng, 1, 4)
        momentum_update(bank, rng.integers(0, 10, size=1), f, 0.2)
        momentum_update(protos, rng.integers(0, 3, size=1), f, 0.2)
    np.testing.assert_allclose(np.linalg.norm(bank, axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(np.linalg.norm(protos, axis=1), 1.0, atol=1e-9)


# ------------------------------------------------------- an epoch's batches

def random_epoch(rng, n, num_batches, width, num_clusters):
    """(labels, runs, batches): labels with repeats and some outliers, and
    batches that are slices of one permutation of the clustered samples."""
    labels = rng.integers(-1, num_clusters, size=n)
    labels[:num_clusters] = np.arange(num_clusters)
    clustered = rng.permutation(np.flatnonzero(labels >= 0))
    num_batches = min(num_batches, clustered.size // width)
    batches = [clustered[b * width:(b + 1) * width] for b in range(num_batches)]
    return labels, label_runs(labels), batches


@pytest.mark.parametrize("trial", range(12))
def test_plan_masks_and_picks_equal_per_call_mining(trial):
    """Mining each batch of an epoch gives the picks and validity mask of
    the stepwise oracle; with repeated labels, outliers included and
    excluded, and a single-cluster batch."""
    from oracles import stepwise_mine

    rng = np.random.Generator(np.random.Philox(key=np.array([780, trial], dtype=np.uint64)))
    n, width = int(rng.integers(30, 200)), int(rng.integers(1, 12))
    labels, runs, batches = random_epoch(rng, n, 3, width, int(rng.integers(1, 6)))
    batches.append(runs[0][runs[1][0]:runs[1][0] + 1].repeat(width))  # one cluster only
    bank = unit_rows(rng, n, 5)
    k = int(rng.integers(1, n + 2))
    for include_outliers in (True, False):
        for batch in batches:
            anchors = unit_rows(rng, width, 5)
            expected = stepwise_mine(bank, runs, anchors, labels[batch], k, include_outliers)
            picked, valid = mine(bank, runs, anchors, labels[batch], k, include_outliers)
            np.testing.assert_array_equal(picked, expected[0])
            np.testing.assert_array_equal(valid, expected[1])


def test_batch_writes_match_sequential_oracle_across_an_epoch():
    """Several batches of one epoch, each written in turn as ``train_step``
    writes them (one slice write into the instance bank, ``momentum_update``
    on the prototypes), give both banks bit for bit the per-row loop's
    values; repeated labels make several prototype rounds per batch."""
    rng = np.random.Generator(np.random.Philox(key=92))
    for case in range(40):
        n, width = int(rng.integers(30, 120)), int(rng.integers(1, 9))
        num_clusters = int(rng.integers(1, 7))
        labels, runs, batches = random_epoch(rng, n, int(rng.integers(1, 5)), width,
                                             num_clusters)
        momentum = (0.0, 1.0, 0.2, float(rng.random()))[case % 4]
        bank, protos = unit_rows(rng, n, 4), unit_rows(rng, num_clusters, 4)
        expected_bank, expected_protos = bank.copy(), protos.copy()
        for batch in batches:
            fresh = unit_rows(rng, width, 4)
            bank[batch] = normalize_rows(momentum * bank[batch] + (1.0 - momentum) * fresh)
            momentum_update(protos, labels[batch], fresh, momentum)
            sequential_momentum(expected_bank, batch, fresh, momentum)
            sequential_momentum(expected_protos, labels[batch], fresh, momentum)
        np.testing.assert_array_equal(bank, expected_bank)
        np.testing.assert_array_equal(protos, expected_protos)


def test_momentum_update_takes_each_occurrence_in_turn(rng):
    """Round j writes the j-th occurrence of each slot, so repeated and
    distinct slots alike end as the per-row loop leaves them."""
    for slots in ([1, 1, 1, 2, 2, 3, 4], [4, 0, 3, 2, 6, 1, 5]):
        bank, fresh = unit_rows(rng, 7, 3), unit_rows(rng, len(slots), 3)
        expected = bank.copy()
        sequential_momentum(expected, slots, fresh, 0.3)
        momentum_update(bank, slots, fresh, 0.3)
        np.testing.assert_array_equal(bank, expected)


def test_momentum_update_names_the_first_slot_out_of_range():
    """One line, naming the batch's first slot outside the bank."""
    bank = np.eye(7)
    with pytest.raises(ValueError, match=r"^slot -1 out of range \[0, 7\)$"):
        momentum_update(bank, [6, -1, 9], np.eye(3, 7), 0.5)
    np.testing.assert_array_equal(bank, np.eye(7))


def test_mine_rejects_bad_anchor_labels():
    """A negative anchor label, one in a gap of the cluster ids, one equal
    to C (which would read run -1, the outliers) and k below 1 each fail;
    the message names the batch's first offending label."""
    mem = memory_from([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0], [0.8, 0.6], [0.6, -0.8]],
                      [0, 0, 2, -1, 2])
    anchors = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="anchor label must be a cluster id"):
        mine(*mem, anchors, np.array([0, -1]), 1)
    for labels, first in (([0, 1], 1), ([2, 3], 3), ([3, 1], 3)):
        with pytest.raises(ValueError, match=f"no memory entry carries label {first}$"):
            mine(*mem, anchors, np.array(labels), 1)
    with pytest.raises(ValueError, match="k must be >= 1"):
        mine(*mem, anchors, np.array([0, 2]), 0)
