"""Retrieval evaluation: mean average precision and CMC rank-k curves.

Each query ranks the whole gallery by descending dot-product similarity
(ties to the lower index). Average precision is the plain uninterpolated
form; queries with zero gallery positives are excluded from both metrics
and reported, never silently counted as zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import blobio
from . import encoder as encoder_mod
from . import synth as synth_mod

__all__ = ["RankingResult", "evaluate_retrieval", "evaluate_encoder", "metrics_dict",
           "write_metrics"]


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
    """Rank the gallery for all queries in one ``(Q, G)`` pass; AP and CMC are
    read from the match positions, so no other ``(Q, G)`` float array exists."""
    query_features = np.asarray(query_features, dtype=np.float64)
    gallery_features = np.asarray(gallery_features, dtype=np.float64)
    query_ids, gallery_ids = np.asarray(query_ids), np.asarray(gallery_ids)
    if gallery_features.ndim != 2 or gallery_features.shape[0] < 1:
        raise ValueError("gallery must be a non-empty (G, D) array")
    num_q, num_g = len(query_features), len(gallery_features)
    if not 1 <= k_max <= num_g:
        raise ValueError(f"k_max must be in [1, {num_g}]")
    order = np.argsort(-(query_features @ gallery_features.T), axis=1, kind="stable")
    matches = gallery_ids[order] == query_ids[:, None]
    positives = matches.sum(axis=1)
    valid = positives > 0
    if not valid.any():
        raise ValueError("every query lacks gallery positives")
    # Row-major match positions: a match's hit count is its place in its row.
    rows, cols = np.nonzero(matches)
    row_start = np.cumsum(positives) - positives
    hits = np.arange(1, len(rows) + 1) - row_start[rows]
    precision_sums = np.bincount(rows, weights=hits / (cols + 1), minlength=num_q)
    per_query_ap = np.full(num_q, np.nan)
    per_query_ap[valid] = precision_sums[valid] / positives[valid]
    first = cols[row_start[valid]]  # 0-based rank of each valid query's first match
    cmc = np.cumsum(np.bincount(first[first < k_max], minlength=k_max)) / valid.sum()
    return RankingResult(
        per_query_ap=per_query_ap,
        cmc=cmc,
        mean_ap=float(per_query_ap[valid].mean()),
        num_queries=int(valid.sum()),
        excluded_queries=int(num_q - valid.sum()),
    )


def evaluate_encoder(params, dataset: synth_mod.SynthDataset, eval_cfg) -> RankingResult:
    """Retrieval metrics of an encoder: encode every sample, then split and
    rank as ``eval_cfg`` (an ``EvalConfig``) says."""
    features = encoder_mod.image_feature(params, dataset.patches)
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
    """Write the metrics JSON and, if asked, the per-query AP CSV (CRLF
    rows, empty AP for an excluded query), each atomically."""
    text = json.dumps(metrics_dict(result), indent=2, sort_keys=True) + "\n"
    files = [(Path(path), text.encode())]
    if per_query_csv is not None:
        rows = "".join(f"{i},{'' if np.isnan(ap) else repr(float(ap))}\r\n"
                       for i, ap in enumerate(result.per_query_ap))
        files.append((Path(per_query_csv), f"query,average_precision\r\n{rows}".encode()))
    blobio.write_atomic(files)
