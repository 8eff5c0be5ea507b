from pathlib import Path

import numpy as np
import pytest

from tokmem import load_run_config
from tokmem.evaluate import evaluate_retrieval

# The committed reference experiment, the file CI, the scripts and the
# benchmark run; training-dependent regression thresholds in the
# acceptance suite are pinned against it.
REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"
REFERENCE = load_run_config(REFERENCE_CONFIG)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20240810))


def unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def features_ranking_as(rankings):
    """(query, gallery) features under which retrieval ranks the gallery of
    query q in the order ``rankings[q]``: the queries are the identity, so
    the similarities are exactly the gallery's columns, descending scores."""
    rankings = np.asarray(rankings)
    num_q, num_g = rankings.shape
    scores = np.empty((num_q, num_g))
    scores[np.arange(num_q)[:, None], rankings] = np.arange(num_g, 0, -1)
    return np.eye(num_q), scores.T


def observed_rankings(queries, gallery):
    """The (Q, G) gallery order that retrieval gives each query, read back
    through AP alone. Copy g of query q has gallery item g as its only
    positive, so its AP is 1 / (1 + place of g), and sorting the gallery by
    1 / AP restores the order."""
    queries, gallery = np.atleast_2d(queries), np.asarray(gallery)
    num_q, num_g = len(queries), len(gallery)
    result = evaluate_retrieval(np.repeat(queries, num_g, axis=0),
                                np.tile(np.arange(num_g), num_q), gallery,
                                np.arange(num_g), k_max=1)
    return np.argsort(np.rint(1.0 / result.per_query_ap).reshape(num_q, num_g), axis=1)
