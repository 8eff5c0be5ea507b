"""Retrieval evaluation: mean average precision and CMC rank-k curves.

Each query ranks the whole gallery by descending dot-product similarity
(ties to the lower index). Average precision is the plain uninterpolated
form; queries with zero gallery positives are excluded from both metrics
and reported, never silently counted as zero.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import synth as synth_mod
from . import training as training_mod

__all__ = ["RankingResult", "rank_gallery", "average_precision", "cmc_curve",
           "evaluate_retrieval", "evaluate_encoder", "metrics_dict", "write_metrics"]


@dataclass
class RankingResult:
    rankings: np.ndarray      # (Q, G) gallery indices, best first
    per_query_ap: np.ndarray  # (Q,), NaN for excluded queries
    cmc: np.ndarray           # (k_max,)
    mean_ap: float
    num_queries: int          # queries actually evaluated
    excluded_queries: int


def rank_gallery(query: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Gallery indices sorted by descending similarity to the query."""
    gallery = np.asarray(gallery, dtype=np.float64)
    if gallery.ndim != 2 or gallery.shape[0] < 1:
        raise ValueError("gallery must be a non-empty (G, D) array")
    sims = gallery @ np.asarray(query, dtype=np.float64)
    return np.argsort(-sims, kind="stable").astype(np.int64)


def average_precision(ranking: np.ndarray, query_id: int,
                      gallery_ids: np.ndarray) -> float:
    """AP = (1/P) * sum over match positions r of (matches up to r) / r."""
    gallery_ids = np.asarray(gallery_ids)
    matches = gallery_ids[np.asarray(ranking)] == query_id
    positives = int(matches.sum())
    if positives == 0:
        raise ValueError(f"query id {query_id} has no gallery positives")
    ranks = np.flatnonzero(matches) + 1  # 1-based positions of the matches
    precisions = np.arange(1, positives + 1) / ranks
    return float(precisions.sum() / positives)


def cmc_curve(rankings: np.ndarray, query_ids: np.ndarray,
              gallery_ids: np.ndarray, k_max: int) -> np.ndarray:
    """cmc[k] = fraction of queries whose first match is at rank <= k+1.

    Queries with no gallery positives are excluded from the denominator.
    """
    rankings = np.asarray(rankings)
    gallery_ids = np.asarray(gallery_ids)
    if not 1 <= k_max <= rankings.shape[1]:
        raise ValueError(f"k_max must be in [1, {rankings.shape[1]}]")
    hits = np.zeros(k_max)
    valid = 0
    for ranking, qid in zip(rankings, np.asarray(query_ids)):
        matches = gallery_ids[ranking] == qid
        if not matches.any():
            continue
        valid += 1
        first = int(np.flatnonzero(matches)[0])  # 0-based rank of first match
        if first < k_max:
            hits[first:] += 1
    if valid == 0:
        raise ValueError("no query has any gallery positive")
    return hits / valid


def evaluate_retrieval(query_features: np.ndarray, query_ids: np.ndarray,
                       gallery_features: np.ndarray, gallery_ids: np.ndarray,
                       k_max: int) -> RankingResult:
    query_features = np.asarray(query_features, dtype=np.float64)
    gallery_ids = np.asarray(gallery_ids)
    num_q = query_features.shape[0]
    rankings = np.stack([rank_gallery(q, gallery_features) for q in query_features])
    per_query_ap = np.full(num_q, np.nan)
    for i, qid in enumerate(np.asarray(query_ids)):
        if (gallery_ids == qid).any():
            per_query_ap[i] = average_precision(rankings[i], qid, gallery_ids)
    valid = ~np.isnan(per_query_ap)
    excluded = int(num_q - valid.sum())
    if not valid.any():
        raise ValueError("every query lacks gallery positives")
    cmc = cmc_curve(rankings[valid], np.asarray(query_ids)[valid], gallery_ids, k_max)
    return RankingResult(
        rankings=rankings,
        per_query_ap=per_query_ap,
        cmc=cmc,
        mean_ap=float(per_query_ap[valid].mean()),
        num_queries=int(valid.sum()),
        excluded_queries=excluded,
    )


def evaluate_encoder(params, dataset: synth_mod.SynthDataset, eval_cfg) -> RankingResult:
    """Retrieval metrics of an encoder: encode every sample, then split and
    rank as ``eval_cfg`` (an ``EvalConfig``) says."""
    features = training_mod.encode_dataset(params, dataset)
    query, gallery = synth_mod.split_query_gallery(
        dataset, eval_cfg.query_per_identity, eval_cfg.seed)
    return evaluate_retrieval(features[query], dataset.identities[query],
                              features[gallery], dataset.identities[gallery],
                              eval_cfg.k_max)


def metrics_dict(result: RankingResult) -> dict:
    return {
        "mAP": result.mean_ap,
        "cmc": [float(x) for x in result.cmc],
        "num_queries": result.num_queries,
        "excluded_queries": result.excluded_queries,
    }


def write_metrics(result: RankingResult, path, per_query_csv=None) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(metrics_dict(result), indent=2, sort_keys=True) + "\n")
    if per_query_csv is not None:
        per_query_csv = Path(per_query_csv)
        per_query_csv.parent.mkdir(parents=True, exist_ok=True)
        with per_query_csv.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["query", "average_precision"])
            for i, ap in enumerate(result.per_query_ap):
                writer.writerow([i, "" if np.isnan(ap) else repr(float(ap))])
