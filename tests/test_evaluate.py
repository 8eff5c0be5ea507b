import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import features_ranking_as, observed_rankings, unit_rows
from oracles import (average_precision_oracle, cmc_oracle, retrieval_by_stable_argsort,
                     topk_by_full_sort)
from tokmem.config import EvalConfig
from tokmem.encoder import init_params
from tokmem.evaluate import (BLOCK, evaluate_encoder, evaluate_retrieval, metrics_dict,
                             write_metrics)
from tokmem.synth import SynthSpec, generate, load_dataset, save_dataset


def gallery_with_sims(sims):
    """Gallery rows whose dot with e_1 equals the given similarities."""
    sims = np.asarray(sims, dtype=np.float64)
    g = np.zeros((len(sims), 2))
    g[:, 0] = sims
    g[:, 1] = 1.0
    return np.array([1.0, 0.0]), g


def rank(query, gallery):
    """The gallery ranking of one query."""
    return observed_rankings(query, gallery)[0]


def evaluate_rankings(rankings, query_ids, gallery_ids, k_max):
    query, gallery = features_ranking_as(rankings)
    np.testing.assert_array_equal(observed_rankings(query, gallery), rankings)
    return evaluate_retrieval(query, np.asarray(query_ids), gallery,
                              np.asarray(gallery_ids), k_max)


def test_rank_example():
    q, g = gallery_with_sims([0.2, 0.9, 0.5])
    np.testing.assert_array_equal(rank(q, g), [1, 2, 0])


def test_rank_ties_keep_index_order(rng):
    q, g = gallery_with_sims([0.5, 0.5, 0.5])
    np.testing.assert_array_equal(rank(q, g), [0, 1, 2])
    # every query row: scores from a small set of exact values, so most
    # gallery items tie with others; ties go to the lower gallery index
    num_q, num_g = 12, 40
    scores = rng.integers(0, 4, size=(num_q, num_g)).astype(np.float64)
    for row, ranking in zip(scores, observed_rankings(np.eye(num_q), scores.T)):
        np.testing.assert_array_equal(ranking, topk_by_full_sort(row, num_g))


def test_rank_empty_gallery_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        evaluate_retrieval(np.array([[1.0, 0.0]]), np.zeros(1), np.empty((0, 2)),
                           np.empty(0), k_max=1)


def test_k_max_range_checked():
    q, g = gallery_with_sims([0.2, 0.9, 0.5])
    for k_max in (0, 4):
        with pytest.raises(ValueError, match=r"k_max must be in \[1, 3\]"):
            evaluate_retrieval(q[None], np.zeros(1), g, np.zeros(3), k_max)


@pytest.mark.parametrize("trial", range(10))
def test_rank_matches_full_sort_oracle(trial):
    rng = np.random.Generator(np.random.Philox(key=np.array([91, trial],
                                                            dtype=np.uint64)))
    q, g = gallery_with_sims(rng.uniform(-1, 1, size=100))
    np.testing.assert_array_equal(rank(q, g), topk_by_full_sort(g @ q, 100))


def test_nonfinite_features_rejected():
    q, g = gallery_with_sims([0.2, 0.9, 0.5])
    bad_g = g.copy()
    bad_g[1, 0] = np.inf
    for query, gallery in ((np.array([[np.nan, 0.0]]), g), (q[None], bad_g)):
        with pytest.raises(ValueError, match="features must be finite"):
            evaluate_retrieval(query, np.zeros(1), gallery, np.zeros(3), k_max=1)


def test_overflowing_similarities_rejected():
    """Finite features whose dot products overflow have no order to rank,
    also where the product is -inf, below the weakest positive, where
    lifting it to that positive would hide it, and where the overflowing
    query has no positive, beside a valid one or alone in the last block."""
    big, valid = [1e200], [1.0]
    cases = [([big], [0], [[1e200], [1.0]], [0, 0]), ([big], [0], [[-1e200], [1.0]], [0, 0]),
             ([big], [0], [[-1e200], [1.0]], [1, 0]),  # the -inf is no positive
             ([big, valid], [9, 0], [[1e200], [1.0]], [0, 0]),
             ([valid] * BLOCK + [big], [0] * BLOCK + [9], [[1e200], [1.0]], [0, 0])]
    with np.errstate(over="ignore"):
        for queries, query_ids, gallery, gallery_ids in cases:
            with pytest.raises(ValueError, match="similarities overflow the float range"):
                evaluate_retrieval(np.array(queries), np.array(query_ids), np.array(gallery),
                                   np.array(gallery_ids), k_max=1)


@pytest.mark.parametrize("num_query_ids, num_gallery_ids", [(2, 3), (1, 2), (1, 4)])
def test_id_count_must_match_feature_rows(num_query_ids, num_gallery_ids):
    q, g = gallery_with_sims([0.2, 0.9, 0.5])
    with pytest.raises(ValueError, match="ids must be one per feature row"):
        evaluate_retrieval(q[None], np.zeros(num_query_ids), g, np.zeros(num_gallery_ids),
                           k_max=1)


@pytest.mark.parametrize("query", [np.zeros((1, 3)), np.zeros(2), np.zeros((1, 1))])
def test_query_gallery_dims_must_match(query):
    _, g = gallery_with_sims([0.2, 0.9, 0.5])
    with pytest.raises(ValueError, match=r"query features must be a \(Q, 2\) array"):
        evaluate_retrieval(query, np.zeros(1), g, np.zeros(3), k_max=1)


def _retrieval_case(kind, rng):
    """(query, query_ids, gallery, gallery_ids) of one kind of input."""
    num_q, num_g = int(rng.integers(1, 10)), int(rng.integers(1, 40))
    num_ids = int(rng.integers(1, 6))
    query_ids = rng.integers(0, num_ids + 2, num_q)  # ids >= num_ids: no positive
    gallery_ids = rng.integers(0, num_ids, num_g)
    if kind == "unit":
        return unit_rows(rng, num_q, 4), query_ids, unit_rows(rng, num_g, 4), gallery_ids
    if kind == "integer":  # integer scores in [-12, 12]: most of a row ties
        return (rng.integers(-2, 3, (num_q, 3)).astype(float), query_ids,
                rng.integers(-2, 3, (num_g, 3)).astype(float), gallery_ids)
    if kind == "duplicate_gallery":
        base = unit_rows(rng, 3, 4)
        return (unit_rows(rng, num_q, 4), query_ids, base[rng.integers(0, 3, num_g)],
                gallery_ids)
    if kind == "query_blocks":
        # more than two blocks of queries; the queries on either side of each
        # block boundary are one row, and the gallery rows repeat
        query = unit_rows(rng, 2 * BLOCK + 7, 4)
        query_ids = rng.integers(0, num_ids + 2, len(query))
        for edge in (BLOCK, 2 * BLOCK):
            query[edge], query_ids[edge] = query[edge - 1], query_ids[edge - 1]
        return query, query_ids, unit_rows(rng, 3, 4)[rng.integers(0, 3, num_g)], gallery_ids
    if kind == "signed_zero":
        # entries -1, -0.0, +0.0, 1: zero similarities from products of
        # signed zeros, of whichever sign the matmul sums them to
        values = np.array([-1.0, -0.0, 0.0, 1.0])
        return (values[rng.integers(0, 4, (num_q, 2))], query_ids,
                values[rng.integers(0, 4, (num_g, 2))], gallery_ids)
    # single positive: every gallery id distinct
    return (unit_rows(rng, num_q, 4), rng.integers(0, num_g + 2, num_q),
            unit_rows(rng, num_g, 4), rng.permutation(num_g))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["unit", "integer", "duplicate_gallery", "query_blocks",
                             "signed_zero", "single_positive"]),
       seed=st.integers(0, 2**32 - 1))
def test_metrics_bit_equal_stable_argsort_oracle(kind, seed):
    """AP (NaN positions included), CMC and mAP equal, bit for bit, those of
    a full stable argsort of every similarity row."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    query, query_ids, gallery, gallery_ids = _retrieval_case(kind, rng)
    k_max = int(rng.integers(1, len(gallery) + 1))
    expected = retrieval_by_stable_argsort(query, query_ids, gallery, gallery_ids, k_max)
    if expected is None:
        with pytest.raises(ValueError, match="every query lacks gallery positives"):
            evaluate_retrieval(query, query_ids, gallery, gallery_ids, k_max)
        return
    result = evaluate_retrieval(query, query_ids, gallery, gallery_ids, k_max)
    ap, cmc, mean_ap = expected
    assert result.per_query_ap.tobytes() == ap.tobytes()
    assert result.cmc.tobytes() == cmc.tobytes()
    assert result.mean_ap == mean_ap


def assert_equals_stable_argsort_oracle(query, query_ids, gallery, gallery_ids):
    k_max = len(gallery)
    ap, cmc, mean_ap = retrieval_by_stable_argsort(query, query_ids, gallery, gallery_ids,
                                                   k_max)
    result = evaluate_retrieval(query, query_ids, gallery, gallery_ids, k_max)
    assert result.per_query_ap.tobytes() == ap.tobytes()
    assert result.cmc.tobytes() == cmc.tobytes()
    assert result.mean_ap == mean_ap


BELOW_HALF = np.nextafter(0.5, -np.inf)  # what a weakest positive 0.5 lifts lower values to


@pytest.mark.parametrize("sims, positive", [
    # a negative already at the lifted value, beside lower ones lifted to it
    ([BELOW_HALF, 0.5, 0.1, 0.7, BELOW_HALF, 0.6], [0, 1, 0, 0, 0, 1]),
    # negatives tied with the weakest positive, at lower and at higher indices
    ([0.5, 0.9, 0.2, 0.5, 0.5, 0.1, 0.5], [0, 1, 0, 0, 1, 0, 0]),
    # the weakest positive is the row minimum: nothing is lifted
    ([0.3, 0.1, 0.8, 0.5, 0.2], [0, 1, 1, 0, 0]),
    # ... and tied with negatives on both sides
    ([0.1, 0.1, 0.8, 0.5, 0.1], [0, 1, 1, 0, 0]),
])
def test_lifted_ranking_edge_cases_equal_the_oracle(sims, positive):
    """Lifting the similarities below a query's weakest positive to one
    value just below it changes no place, bit for bit."""
    q, g = gallery_with_sims(sims)
    assert_equals_stable_argsort_oracle(q[None], np.ones(1), g, np.array(positive))


@pytest.mark.parametrize("first_valid", [0, 5, BLOCK + 2])
def test_queries_without_positives_inside_a_block_equal_the_oracle(rng, first_valid):
    """Queries without gallery positives sit among valid ones in a block, and
    with ``first_valid > BLOCK`` fill a whole block; each valid row is lifted
    to its own weakest positive. The queries are the identity, so each
    query's similarities are a column of scores in steps of 1/4, most of
    them tied."""
    num_q, num_g = BLOCK + 9, 30
    scores = rng.integers(0, 6, size=(num_q, num_g)) / 4.0
    query_ids = rng.integers(0, 6, num_q)  # ids 4 and 5: no gallery positive
    query_ids[:first_valid] = 5
    gallery_ids = rng.integers(0, 4, num_g)
    assert_equals_stable_argsort_oracle(np.eye(num_q), query_ids, scores.T, gallery_ids)


def test_ap_worked_example():
    # matches at ranks 1 and 3 of a 3-item gallery
    result = evaluate_rankings([[0, 1, 2]], [7], [7, 5, 7], k_max=3)
    ap = result.per_query_ap[0]
    assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)
    assert ap == pytest.approx(0.83333, abs=1e-4)


def test_ap_single_positive_first_and_last():
    first = evaluate_rankings([np.arange(4)], [3], [3, 0, 0, 0], k_max=4)
    assert first.per_query_ap[0] == 1.0
    last = evaluate_rankings([np.arange(4)], [3], [0, 0, 0, 3], k_max=4)
    assert last.per_query_ap[0] == pytest.approx(1 / 4)


def test_ap_zero_positives_signalled():
    result = evaluate_rankings([np.arange(3)] * 2, [9, 1], [0, 1, 2], k_max=3)
    assert np.isnan(result.per_query_ap[0])
    assert result.excluded_queries == 1
    with pytest.raises(ValueError, match="every query lacks gallery positives"):
        evaluate_rankings([np.arange(3)], [9], [0, 1, 2], k_max=3)


def test_cmc_all_first():
    result = evaluate_rankings(np.tile(np.arange(4), (3, 1)), [1, 1, 1],
                               [1, 0, 0, 0], k_max=3)
    np.testing.assert_array_equal(result.cmc, [1.0, 1.0, 1.0])


def test_cmc_split_first_matches():
    result = evaluate_rankings([[0, 1], [0, 1]], [1, 2], [1, 2], k_max=2)
    np.testing.assert_array_equal(result.cmc, [0.5, 1.0])


@pytest.mark.parametrize("trial", range(10))
def test_metrics_match_brute_force(trial):
    rng = np.random.Generator(np.random.Philox(key=np.array([92, trial],
                                                            dtype=np.uint64)))
    num_q, num_g = 8, 30
    gallery_ids = rng.integers(0, 5, size=num_g)
    query_ids = rng.integers(0, 5, size=num_q)
    rankings = np.stack([rng.permutation(num_g) for _ in range(num_q)])

    ranked_id_lists = [gallery_ids[r] for r in rankings]
    expected_cmc = cmc_oracle(ranked_id_lists, query_ids, k_max=10)
    if expected_cmc is None:
        with pytest.raises(ValueError):
            evaluate_rankings(rankings, query_ids, gallery_ids, k_max=10)
        return
    result = evaluate_rankings(rankings, query_ids, gallery_ids, k_max=10)
    for ap, qid, ranked in zip(result.per_query_ap, query_ids, ranked_id_lists):
        expected = average_precision_oracle(list(ranked), qid)
        if expected is None:
            assert np.isnan(ap)
        else:
            assert ap == pytest.approx(expected, abs=1e-12)
    np.testing.assert_allclose(result.cmc, expected_cmc, atol=1e-12)


def test_cmc_monotone_and_saturates(rng):
    gallery = unit_rows(rng, 20, 4)
    queries = unit_rows(rng, 6, 4)
    gallery_ids = rng.integers(0, 3, size=20)
    query_ids = rng.integers(0, 3, size=6)
    result = evaluate_retrieval(queries, query_ids, gallery, gallery_ids, k_max=20)
    assert (np.diff(result.cmc) >= 0).all()
    assert result.cmc[-1] == pytest.approx(1.0)


def test_perfect_ranking_gives_map_one():
    gallery_ids = np.array([0, 0, 1, 1])
    gallery = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
    queries = np.array([[1.0, 0.0], [0.0, 1.0]])
    result = evaluate_retrieval(queries, np.array([0, 1]), gallery, gallery_ids,
                                k_max=4)
    assert result.mean_ap == 1.0


def test_rank_invariant_under_increasing_transform(rng):
    """s -> 2s + 3 realized by doubling the gallery and appending a bias
    coordinate; rankings must not move."""
    gallery = unit_rows(rng, 25, 5)
    query = unit_rows(rng, 1, 5)[0]
    base = rank(query, gallery)
    transformed_gallery = np.hstack([2.0 * gallery, 3.0 * np.ones((25, 1))])
    transformed_query = np.concatenate([query, [1.0]])
    np.testing.assert_array_equal(base, rank(transformed_query, transformed_gallery))


def test_excluded_queries_counted(rng):
    gallery = unit_rows(rng, 6, 3)
    queries = unit_rows(rng, 3, 3)
    gallery_ids = np.array([0, 0, 1, 1, 1, 0])
    query_ids = np.array([0, 1, 9])  # id 9 has no positives
    result = evaluate_retrieval(queries, query_ids, gallery, gallery_ids, k_max=6)
    assert result.num_queries == 2
    assert result.excluded_queries == 1
    assert np.isnan(result.per_query_ap[2])


@pytest.mark.parametrize("trial", range(6))
def test_positives_match_the_match_matrix(monkeypatch, trial):
    """The positives the ranking sees, from one grouping of the gallery ids,
    are those of the (Q, G) match matrix: the row-major (row, column)
    pairs, split into query blocks of 7 rows, every block scored and each
    placing its own queries' positives. One query id is absent from the
    gallery."""
    import tokmem.evaluate as evaluate_mod

    rng = np.random.Generator(np.random.Philox(key=np.array([313, trial], dtype=np.uint64)))
    num_q, num_g, num_ids = int(rng.integers(1, 60)), int(rng.integers(1, 300)), 1 + 4 * trial
    gallery_ids = rng.integers(0, num_ids, size=num_g)
    query_ids = np.append(rng.integers(0, num_ids, size=num_q), num_ids)
    query_ids[0] = gallery_ids[0]  # at least one query is scored
    blocks = []
    real = evaluate_mod._block_places

    def spy(queries, gallery_features, rows, cols, first):
        places = real(queries, gallery_features, rows, cols, first)
        mine = (rows >= first) & (rows < first + len(queries))
        blocks.append((first, len(queries), rows[mine], cols[mine], places))
        return places

    monkeypatch.setattr(evaluate_mod, "BLOCK", 7)
    monkeypatch.setattr(evaluate_mod, "_block_places", spy)
    result = evaluate_retrieval(unit_rows(rng, len(query_ids), 4), query_ids,
                                unit_rows(rng, num_g, 4), gallery_ids, k_max=1)
    matches = gallery_ids == query_ids[:, None]
    assert [(first, size) for first, size, *_ in blocks] == [
        (first, min(7, len(query_ids) - first)) for first in range(0, len(query_ids), 7)]
    rows, cols = np.nonzero(matches)
    np.testing.assert_array_equal(np.concatenate([block[2] for block in blocks]), rows)
    np.testing.assert_array_equal(np.concatenate([block[3] for block in blocks]), cols)
    for first, size, block_rows, _, places in blocks:
        assert len(places) == matches[first:first + size].sum() == len(block_rows)
    assert np.isnan(result.per_query_ap[-1])
    assert result.excluded_queries == (matches.sum(axis=1) == 0).sum()


def test_peak_memory_is_about_one_query_gallery_block(rng):
    """Evaluation holds about one (BLOCK, G) 8-byte array at a time, a
    block of similarities, sorted in place: no sorted copy, no (Q, G)
    array, float cumsum or precision matrix."""
    num_q, num_g = 400, 3000
    queries, gallery = unit_rows(rng, num_q, 16), unit_rows(rng, num_g, 16)
    query_ids, gallery_ids = rng.integers(0, 100, num_q), rng.integers(0, 100, num_g)
    tracemalloc.start()
    try:
        evaluate_retrieval(queries, query_ids, gallery, gallery_ids, k_max=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * BLOCK * num_g


def test_loaded_dataset_eval_peak_memory_is_below_a_float64_copy(tmp_path):
    """Loading and evaluating hold less than one float64 copy of the
    patches: the file's float32 values, widened a block at a time, and one
    block of similarities."""
    spec = SynthSpec(num_identities=60, samples_per_identity=20, patches_per_image=64,
                     patch_input_dim=16, identity_spread=0.15, noise_patch_prob=0.1, seed=5)
    save_dataset(generate(spec), tmp_path / "data")
    params = init_params(32, spec.patch_input_dim, 3, seed=1)
    tracemalloc.start()
    try:
        evaluate_encoder(params, load_dataset(tmp_path / "data"), EvalConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * spec.num_samples * spec.patches_per_image * spec.patch_input_dim


def test_metrics_file_outputs(tmp_path, rng):
    gallery = unit_rows(rng, 8, 3)
    queries = unit_rows(rng, 2, 3)
    result = evaluate_retrieval(queries, np.array([0, 1]), gallery,
                                np.array([0, 1, 0, 1, 0, 1, 0, 1]), k_max=4)
    write_metrics(result, tmp_path / "metrics.json",
                  per_query_csv=tmp_path / "per_query.csv")
    doc = json.loads((tmp_path / "metrics.json").read_text())
    assert set(doc) == {"mAP", "cmc", "num_queries", "excluded_queries"}
    assert doc == metrics_dict(result)
    lines = (tmp_path / "per_query.csv").read_text().strip().splitlines()
    assert lines[0] == "query,average_precision"
    assert len(lines) == 3
