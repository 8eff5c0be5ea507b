import numpy as np
import pytest

from tokmem.evaluate import evaluate_retrieval
from tokmem.synth import SynthSpec
from tokmem.training import TrainConfig

# The committed reference experiment; training-dependent regression
# thresholds in the acceptance suite are pinned against this exact setup.
REFERENCE_SPEC = SynthSpec(
    num_identities=20,
    samples_per_identity=15,
    patches_per_image=16,
    patch_input_dim=16,
    identity_spread=0.15,
    noise_patch_prob=0.1,
    seed=42,
)

REFERENCE_TRAIN = TrainConfig(
    epochs=30,
    batch_size=32,
    lr=0.05,
    lr_decay_every=20,
    lr_decay_factor=0.1,
    temperature=0.05,
    momentum=0.2,
    neg_token_rate=0.075,
    num_negatives=4,
    weight_constraint=1.0,
    weight_prototype=1.0,
    weight_anchor=1.0,
    dbscan_eps=0.15,
    dbscan_min_pts=4,
    seed=42,
    feature_dim=32,
    part_tokens=3,
)

REFERENCE_EVAL = {"query_per_identity": 3, "k_max": 10, "seed": 7}


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
