"""Epoch-based training loop over the full pipeline.

The patch and stripe means the encoder's head reads depend on the data
only, so ``train`` computes them once (``encoder.patch_means``). Per
epoch: re-project them with the current encoder into fresh features,
cluster those into a label vector, index it once (``memory.label_runs``),
rebuild the instance bank from the features (stale features would
poison the clustering), compute the cluster prototypes, and derive both
banks' write rounds for all of the epoch's batches
(``memory.write_rounds``). Each ``train_step`` then runs in one array
pass over the batch: encode, token selection, the
three losses against the frozen memory snapshot (one mining matmul), one
batched backward (its token adjoint on the selected tokens only), the
memory writes, and one plain SGD step. Every loss reads the snapshot
before any write, and each bank's ``momentum_update`` equals writing the
rows in batch order. Gradients and loss sums are added in a fixed order,
so a config reproduces bit-identically on one platform.

Outlier-labeled samples never appear as anchors (they have no prototype
to serve as a positive) but stay in the instance memory as negative
candidates.

Randomness: encoder init uses Philox keyed by the config seed; the epoch
shuffle uses Philox keyed by (seed, 1 + epoch) so the two streams never
collide.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import cluster as cluster_mod
from . import encoder as encoder_mod
from . import losses as losses_mod
from . import memory as memory_mod
from .errors import NumericError, check_fields
from .linalg import normalize_rows
from .synth import MAX_SEED, SEED_RANGE, SynthDataset, SynthSpec

__all__ = ["TrainConfig", "TrainResult", "StepLosses", "learning_rate",
           "sample_batches", "train", "train_step"]

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 0.05
    lr_decay_every: int = 20
    lr_decay_factor: float = 0.1
    temperature: float = 0.05
    momentum: float = 0.2
    neg_token_rate: float = 0.075   # fraction of tokens used as constraint negatives
    num_negatives: int = 4          # cross-cluster negatives per anchor
    weight_constraint: float = 1.0
    weight_prototype: float = 1.0
    weight_anchor: float = 1.0
    dbscan_eps: float = 0.15
    dbscan_min_pts: int = 4
    seed: int = 42
    feature_dim: int = 32
    part_tokens: int = 3
    anchor_include_outliers: bool = True

    def validate(self, data: SynthSpec, error=ValueError, label=str) -> None:
        """Raise ``error`` for the first field out of range, then for an lr past
        float range, or a batch, stripes or negative tokens ``data`` cannot fill."""
        check_fields(vars(self), [
            ("epochs", self.epochs >= 0, ">= 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("lr", self.lr > 0, "positive"),
            ("lr_decay_every", self.lr_decay_every >= 1, ">= 1"),
            ("lr_decay_factor", self.lr_decay_factor > 0, "positive"),
            ("temperature", self.temperature > 0, "positive"),
            ("momentum", 0 <= self.momentum <= 1, "in [0, 1]"),
            ("neg_token_rate", 0 < self.neg_token_rate <= 1, "in (0, 1]"),
            ("num_negatives", self.num_negatives >= 1, ">= 1"),
            ("weight_constraint", self.weight_constraint >= 0, ">= 0"),
            ("weight_prototype", self.weight_prototype >= 0, ">= 0"),
            ("weight_anchor", self.weight_anchor >= 0, ">= 0"),
            ("dbscan_eps", self.dbscan_eps > 0, "positive"),
            ("dbscan_min_pts", self.dbscan_min_pts >= 1, ">= 1"),
            ("seed", 0 <= self.seed < MAX_SEED, f"in {SEED_RANGE}"),
            ("feature_dim", self.feature_dim >= 2, ">= 2"),
            ("part_tokens", self.part_tokens >= 1, ">= 1")], error, label)
        patches = data.patches_per_image  # after the rows above: patch_rate needs a valid rate
        try:  # the largest lr of a growing schedule; a decaying one starts at lr
            last_lr = learning_rate(self, max(self.epochs, 1) - 1)
        except OverflowError:
            last_lr = np.inf
        check_fields(vars(self), [
            ("lr_decay_factor", np.isfinite(last_lr),
             "small enough that the last epoch's lr is finite"),
            ("batch_size", self.batch_size <= data.num_samples,
             f"<= {data.num_samples}, the dataset size"),
            ("part_tokens", self.part_tokens <= patches,
             f"<= {patches}, the patches per image"),
            ("neg_token_rate", losses_mod.patch_rate(patches, self.neg_token_rate) < patches,
             f"small enough to pick < {patches} negative tokens, the patches per image")],
            error, label)


@dataclass
class TrainResult:
    params: encoder_mod.EncoderParams
    log: list[dict] = field(default_factory=list)


def learning_rate(config: TrainConfig, epoch: int) -> float:
    """lr(epoch) = lr0 * factor ** floor(epoch / decay_every), 0-based epochs."""
    return config.lr * config.lr_decay_factor ** (epoch // config.lr_decay_every)


def sample_batches(labels: np.ndarray, batch_size: int, seed: int,
                   epoch: int) -> list[np.ndarray]:
    """Shuffle the clustered indices of ``labels`` and emit floor(N_clustered
    / B) full batches; outliers never appear. Returns [] (with a warning)
    when fewer than one full batch of clustered samples exists."""
    clustered = np.flatnonzero(labels >= 0)
    if clustered.size < batch_size:
        logger.warning("epoch %d skipped: %d clustered samples < batch size %d",
                       epoch, clustered.size, batch_size)
        return []
    key = np.array([seed, 1 + epoch], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    perm = rng.permutation(clustered)
    num_batches = clustered.size // batch_size
    return [perm[b * batch_size:(b + 1) * batch_size] for b in range(num_batches)]


def train(config: TrainConfig, dataset: SynthDataset) -> TrainResult:
    """Run the full loop; returns final params plus one log record per epoch.
    The encoder's patch geometry is the one of ``dataset.spec``.

    Log record keys: epoch, mean_constraint, mean_proto, mean_anchor,
    mean_total, C (cluster count), outliers, lr. Loss means are null for
    a skipped epoch (not enough clustered samples). Raises NumericError on
    a non-finite loss, and after an epoch that leaves a weight no float32
    checkpoint can store.
    """
    config.validate(dataset.spec)

    params = encoder_mod.init_params(config.feature_dim, dataset.spec.patch_input_dim,
                                     config.part_tokens, config.seed)
    means = encoder_mod.patch_means(dataset.patches, config.part_tokens)
    log: list[dict] = []
    # every non-finite result raises NumericError below; numpy's own
    # warnings would only add lines before that one-line error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs):
            lr = learning_rate(config, epoch)
            features = encoder_mod.image_feature(params, means)
            labels = cluster_mod.dbscan(features, config.dbscan_eps, config.dbscan_min_pts)
            record = {
                "epoch": epoch,
                "mean_constraint": None,
                "mean_proto": None,
                "mean_anchor": None,
                "mean_total": None,
                "C": int(labels.max(initial=-1)) + 1,
                "outliers": int((labels == cluster_mod.OUTLIER).sum()),
                "lr": lr,
            }
            batches = sample_batches(labels, config.batch_size, config.seed, epoch)
            if not batches:
                log.append(record)
                continue

            # unit rows already, but renormalizing moves some last bits, and training follows
            bank = normalize_rows(features)
            runs = memory_mod.label_runs(labels)
            protos = memory_mod.compute_prototypes(bank, runs)
            index = np.asarray(batches)
            writes = zip(memory_mod.write_rounds(index, len(bank)),
                         memory_mod.write_rounds(labels[index], len(protos)))
            steps = []
            for iteration, (batch, rounds) in enumerate(zip(index, writes)):
                try:
                    steps.append(train_step(config, params, dataset.patches.take(batch, axis=0),
                                            means.take(batch, axis=1), batch, labels[batch],
                                            rounds, bank, runs, protos, lr))
                except NumericError as exc:
                    raise NumericError(
                        f"non-finite loss at epoch {epoch} iteration {iteration}",
                        {"epoch": epoch, "iteration": iteration, **exc.diagnostics}) from None
            largest = float(np.abs(params.vec).max())
            if not largest <= float(np.finfo(np.float32).max):  # NaN fails too
                raise NumericError(f"weights beyond float32 range at epoch {epoch}",
                                   {"epoch": epoch, "lr": lr, "max_abs_weight": largest})

            # each step's B values summed, then the step sums in step order from 0.0
            losses = np.array([[step.constraint, step.proto, step.anchor, step.total]
                               for step in steps]).sum(axis=2)
            con, pro, anc, total = np.cumsum(np.vstack([np.zeros(4), losses]), axis=0)[-1].tolist()
            anchor_count = int(np.count_nonzero([step.has_anchor for step in steps]))
            sample_count = len(batches) * config.batch_size
            record["mean_constraint"] = con / sample_count
            record["mean_proto"] = pro / sample_count
            record["mean_anchor"] = (anc / anchor_count) if anchor_count else None
            record["mean_total"] = total / sample_count
            log.append(record)
    return TrainResult(params=params, log=log)


@dataclass
class StepLosses:
    """Per-anchor loss values of one step, (B,) each; ``anchor`` is 0
    where ``has_anchor`` is False (no negative candidate in memory)."""
    constraint: np.ndarray
    proto: np.ndarray
    anchor: np.ndarray
    total: np.ndarray
    has_anchor: np.ndarray


def train_step(config: TrainConfig, params: encoder_mod.EncoderParams,
               patches: np.ndarray, means: np.ndarray, indices: np.ndarray,
               labels: np.ndarray, rounds, bank: np.ndarray, runs, protos: np.ndarray,
               lr: float) -> StepLosses:
    """One iteration on a batch of B clustered anchors, in place on
    ``params``, ``bank`` and ``protos``.

    ``patches`` (B, I, d_in) are the anchors' patch stacks, ``means``
    their (1 + Z, B, d_in) ``encoder.patch_means``, ``indices`` their
    slots in the (N, D) instance ``bank``, ``labels`` their cluster ids,
    and ``rounds`` the batch's ``memory.write_rounds`` in ``bank`` and in
    ``protos``, the (C, D) prototype bank; ``runs`` is the bank's
    ``memory.label_runs`` index. Raises NumericError, before any write,
    if an anchor's total loss is not finite; its diagnostics name the
    first such ``sample``.
    """
    t = config.temperature
    out = encoder_mod.encode(params, patches, means)
    f, tokens = out.image_feature, out.patch_tokens
    rows = np.arange(f.shape[0])[:, None]

    selected = losses_mod.select_constraint_tokens(f, tokens, config.neg_token_rate)
    con = losses_mod.softmax_ce(f, tokens[rows, selected], 0, t)
    pro = losses_mod.softmax_ce(f, protos, labels, t)
    # Missing negatives get -inf logits. A row without any candidate then
    # scores only its positive: its anchor term is exactly 0 with zero
    # gradient, the same as leaving the term out.
    picked, valid = memory_mod.mine(bank, runs, f, labels, config.num_negatives,
                                    config.anchor_include_outliers)
    anc = losses_mod.softmax_ce(f, bank.take(picked, axis=0), 0, t, valid=valid)
    w_con, w_pro, w_anc = (config.weight_constraint, config.weight_prototype,
                           config.weight_anchor)
    total = w_con * con.value + w_pro * pro.value + w_anc * anc.value
    has_anchor = valid[:, 1]
    bad = np.flatnonzero(~np.isfinite(total))
    if bad.size:
        b = bad[0]
        raise NumericError("non-finite loss", diagnostics={
            "sample": int(indices[b]), "constraint": float(con.value[b]),
            "proto": float(pro.value[b]), "lr": lr, "C": protos.shape[0],
            "anchor": float(anc.value[b]) if has_anchor[b] else None})

    grad_f = (w_con * con.grad_image_feature + w_pro * pro.grad_image_feature
              + w_anc * anc.grad_image_feature)
    grad = encoder_mod.encode_backward(out, grad_f, selected, w_con * con.grad_tokens)

    # Writes only now, after every read of the snapshot.
    memory_mod.momentum_update(bank, rounds[0], f, config.momentum)
    memory_mod.momentum_update(protos, rounds[1], f, config.momentum)

    params.vec -= (lr / f.shape[0]) * grad
    return StepLosses(constraint=con.value, proto=pro.value, anchor=anc.value,
                      total=total, has_anchor=has_anchor)
