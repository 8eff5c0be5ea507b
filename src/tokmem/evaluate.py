"""Retrieval evaluation: mean average precision and CMC rank-k curves.

Each query ranks the whole gallery by descending dot-product similarity,
ties to the lower gallery index. The queries are scored ``BLOCK`` rows
at a time, so no (Q, G) array is made. Only the places of the gallery
positives are computed: a positive's 0-based place is the number of
gallery items with a higher similarity, read from one value sort of the
query's similarity row, plus, only where its value is tied, the number
of equal similarities at a lower gallery index. Only the similarities
at or above a query's weakest positive can outrank one, so every lower
value is lifted to one value just below it before the sort, which
leaves every place as it was. One block is held at a time and lifted
and sorted in place; a block with a tie makes its product again to
read the unsorted row. Average precision is the plain uninterpolated
form; queries with zero gallery positives are excluded from both
metrics and reported, never silently counted as zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import blobio
from . import encoder as encoder_mod
from . import synth as synth_mod
from .linalg import gather_runs, group_runs

__all__ = ["RankingResult", "evaluate_retrieval", "evaluate_encoder", "metrics_dict",
           "write_metrics"]

# query rows per block of similarities: a (64, G) float64 block is 2.8 MB at
# G = 5,400. 128 rows ranked Q = 600 queries 4.5 % faster (25.0 against
# 26.2 ms, one BLAS thread) but held twice that; 32 rows took 13 % longer.
BLOCK = 64


@dataclass
class RankingResult:
    per_query_ap: np.ndarray  # (Q,), NaN for excluded queries
    cmc: np.ndarray           # (k_max,)
    mean_ap: float
    num_queries: int          # queries actually evaluated
    excluded_queries: int


def evaluate_retrieval(query_features: np.ndarray, query_ids: np.ndarray,
                       gallery_features: np.ndarray, gallery_ids: np.ndarray,
                       k_max: int) -> RankingResult:
    """Score the queries in blocks of ``BLOCK`` rows; AP and CMC are read
    from the places of the positives, so no similarity row is argsorted.
    The positives come from one stable argsort of ``gallery_ids``."""
    query_features = np.asarray(query_features, dtype=np.float64)
    gallery_features = np.asarray(gallery_features, dtype=np.float64)
    query_ids, gallery_ids = np.asarray(query_ids), np.asarray(gallery_ids)
    if gallery_features.ndim != 2 or gallery_features.shape[0] < 1:
        raise ValueError("gallery must be a non-empty (G, D) array")
    dim = gallery_features.shape[1]
    if query_features.ndim != 2 or query_features.shape[1] != dim:
        raise ValueError(f"query features must be a (Q, {dim}) array like the gallery's, "
                         f"got shape {query_features.shape}")
    num_q, num_g = len(query_features), len(gallery_features)
    if query_ids.shape != (num_q,) or gallery_ids.shape != (num_g,):
        raise ValueError(f"ids must be one per feature row: shapes {query_ids.shape} and "
                         f"{gallery_ids.shape} for {num_q} queries and {num_g} gallery items")
    if not (np.isfinite(query_features).all() and np.isfinite(gallery_features).all()):
        raise ValueError("query and gallery features must be finite")
    if not 1 <= k_max <= num_g:
        raise ValueError(f"k_max must be in [1, {num_g}]")
    # each query's positives are its id's run in one grouping of the gallery
    order, lo, hi = group_runs(gallery_ids, query_ids)
    positives = hi - lo
    valid = positives > 0
    if not valid.any():
        raise ValueError("every query lacks gallery positives")
    rows, cols, row_start = gather_runs(order, lo, hi)
    # one (BLOCK, G) block of similarities at a time, freed on return
    places = np.concatenate([
        _block_places(query_features[q:q + BLOCK], gallery_features, rows, cols, q)
        for q in range(0, num_q, BLOCK)])
    # a positive's hit count is its index among its row's ascending places
    hits = np.arange(1, len(rows) + 1) - row_start[rows]
    precision_sums = np.bincount(rows, weights=hits / (places + 1), minlength=num_q)
    per_query_ap = np.full(num_q, np.nan)
    per_query_ap[valid] = precision_sums[valid] / positives[valid]
    first = places[row_start[valid]]  # 0-based rank of each valid query's first match
    cmc = np.cumsum(np.bincount(first[first < k_max], minlength=k_max)) / valid.sum()
    return RankingResult(
        per_query_ap=per_query_ap,
        cmc=cmc,
        mean_ap=float(per_query_ap[valid].mean()),
        num_queries=int(valid.sum()),
        excluded_queries=int(num_q - valid.sum()),
    )


def _block_places(queries, gallery_features, rows, cols, first):
    """0-based ranking places of the positives of the query rows
    ``first:first + len(queries)``. ``(rows, cols)`` are all the positives
    of the query-gallery similarities, row-major, sorted within each row;
    the block finds its own with one ``searchsorted``. Every block is
    multiplied and checked for overflow, one without positives too.

    The place of the positive at column c with similarity s is
    ``#{s' > s} + #{c' < c : s' == s}``. The first term is ``G`` minus the
    right insertion point of s in the value-sorted row; the block is sorted
    in place. Before the sort, every similarity below its row's weakest
    positive w is lifted to the one value just below w: it stays below
    every positive, so neither term changes, and a row of mostly one value
    sorts faster. A row without positives is lifted whole. The second term
    is counted in the unsorted row, and only where s is tied: then the
    block's product is made again, the same call on the same operands,
    which gives the same bits."""
    sims = queries @ gallery_features.T
    if not np.isfinite(sims).all():  # before the lift, which would hide a -inf
        raise ValueError("query-gallery similarities overflow the float range")
    num_g = sims.shape[1]
    starts = np.searchsorted(rows, np.arange(first, first + len(queries) + 1))
    rows, cols = rows[starts[0]:starts[-1]] - first, cols[starts[0]:starts[-1]]
    starts -= starts[0]
    keys = sims[rows, cols]
    query = np.flatnonzero(starts[1:] > starts[:-1])
    weakest = np.full(len(sims), np.inf)
    weakest[query] = np.minimum.reduceat(keys, starts[query])
    np.maximum(sims, np.nextafter(weakest, -np.inf)[:, None], out=sims)
    sims.sort(axis=1)
    right = np.empty(len(rows), dtype=np.int64)
    bounds = zip(query.tolist(), starts[query].tolist(), starts[query + 1].tolist())
    for q, start, stop in bounds:
        right[start:stop] = np.searchsorted(sims[q], keys[start:stop], side="right")
    places = num_g - right
    # right - 1 is the last copy of the value; a copy before it means a tie
    tied = np.flatnonzero((right >= 2) & (sims[rows, right - 2] == keys))
    if tied.size:
        del sims  # the sorted block goes before the unsorted one is made again
        sims = queries @ gallery_features.T
        for i in tied:
            places[i] += np.count_nonzero(sims[rows[i], :cols[i]] == keys[i])
    offset = rows * num_g
    return np.sort(offset + places) - offset


def evaluate_encoder(params, dataset: synth_mod.SynthDataset, eval_cfg) -> RankingResult:
    """Retrieval metrics of an encoder: encode every sample, then split and
    rank as ``eval_cfg`` (an ``EvalConfig``) says. ``encoder.patch_means``
    raises ValueError for a sample whose patch and stripe means are all zero."""
    features = encoder_mod.image_feature(
        params, encoder_mod.patch_means(dataset.patches, params.part_tokens))
    query, gallery = synth_mod.split_query_gallery(
        dataset, eval_cfg.query_per_identity, eval_cfg.seed)
    ids = dataset.spec.identities
    query_features, gallery_features = features[query], features[gallery]
    del features  # the ranking holds the two halves only
    return evaluate_retrieval(query_features, ids[query], gallery_features, ids[gallery],
                              eval_cfg.k_max)


def metrics_dict(result: RankingResult) -> dict:
    return {
        "mAP": result.mean_ap,
        "cmc": [float(x) for x in result.cmc],
        "num_queries": result.num_queries,
        "excluded_queries": result.excluded_queries,
    }


def write_metrics(result: RankingResult, path, per_query_csv=None) -> None:
    """Write the metrics JSON and, if asked, the per-query AP CSV (CRLF
    rows, empty AP for an excluded query), each atomically."""
    text = json.dumps(metrics_dict(result), indent=2, sort_keys=True) + "\n"
    files = [(Path(path), text.encode())]
    if per_query_csv is not None:
        rows = "".join(f"{i},{'' if np.isnan(ap) else repr(float(ap))}\r\n"
                       for i, ap in enumerate(result.per_query_ap))
        files.append((Path(per_query_csv), f"query,average_precision\r\n{rows}".encode()))
    blobio.write_atomic(files)
