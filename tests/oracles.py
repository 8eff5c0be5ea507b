"""Brute-force oracles used by the test suite.

These re-derive each answer by the most literal method available
(explicit transitive closure, full sorts, per-rank scans). The DBSCAN,
distance, top-k and retrieval-metric oracles share no code with the
implementations they check; ``sequential_momentum`` normalizes with
tokmem's ``normalize_rows``, so that the two compare bit for bit. The
two training oracles re-derive the step and reuse the stages they do
not check:

- ``per_anchor_train`` runs one anchor at a time with its own encoder,
  prototypes, losses, mining and momentum writes, and takes encoder
  init, DBSCAN, batch sampling, the learning rate, the negative-token
  count (``patch_rate``) and ``normalize_rows`` from tokmem. It is
  compared within a tolerance.
- ``stepwise_train`` is compared byte for byte, so it shares with tokmem
  the encoder (forward and backward), DBSCAN, batch sampling, the
  learning rate, token selection, ``label_runs``, ``compute_prototypes``,
  ``gather_runs`` and ``normalize_rows``. It reads the epoch's features
  as its instance bank and has its own copy of the mining checks, the
  write rounds, the softmax cross-entropies and the loss sums. It mines
  in float64, where ``train`` ranks a float32 copy of the bank: the
  equality also checks that float32 picks the same entries there.

``generate_one_draw`` is the dataset generator as it was before it drew
in chunks: every (N, I, d_in) array in one draw, in float64, and the
float32-range check on the finished patches. tokmem's ``generate`` must
equal it byte for byte, refusals included.
"""

import numpy as np

# Exact duplicates are at distance 0, but a rounded unit-norm dot product
# can put them at about 1e-15; every pair within this radius neighbours,
# whatever eps, so the answer does not depend on how the BLAS rounds.
ZERO_DIST = 1e-12


def neighbours(dist, eps):
    """``dist <= max(eps, ZERO_DIST)``: the neighbour relation of ``dist``."""
    return np.asarray(dist) <= max(eps, ZERO_DIST)


def dbscan_oracle(dist, eps, min_pts):
    """Classify points by explicit density-reachability closure.

    Returns (core mask, list of core-point index frozensets = clusters,
    border mask, noise mask). Border points are non-core points within
    eps (at least ZERO_DIST) of at least one core point; which cluster
    claims them is order-dependent and deliberately left open here.
    """
    dist = np.asarray(dist)
    n = dist.shape[0]
    within = neighbours(dist, eps)
    core = within.sum(axis=1) >= min_pts

    # transitive closure of core-core adjacency by boolean matrix powers
    adj = within & core[:, None] & core[None, :]
    np.fill_diagonal(adj, False)
    reach = adj | np.eye(n, dtype=bool)
    while True:
        nxt = reach | (reach @ reach)
        if np.array_equal(nxt, reach):
            break
        reach = nxt

    clusters = []
    seen = np.zeros(n, dtype=bool)
    for i in range(n):
        if core[i] and not seen[i]:
            members = np.flatnonzero(reach[i] & core)
            seen[members] = True
            clusters.append(frozenset(int(m) for m in members))

    border = ~core & (within & core[None, :]).any(axis=1)
    noise = ~core & ~border
    return core, clusters, border, noise


def cosine_dist_oracle(features):
    """``1 - f_i . f_j`` for every pair, clamped to [0, 2], zero diagonal."""
    features = np.asarray(features, dtype=np.float64)
    dist = np.clip(1.0 - features @ features.T, 0.0, 2.0)
    np.fill_diagonal(dist, 0.0)
    return dist


def partition_of_core_points(labels, core):
    """Group core-point indices by their assigned label."""
    out = {}
    for i in np.flatnonzero(core):
        out.setdefault(int(labels[i]), set()).add(int(i))
    return {frozenset(v) for v in out.values()}


def topk_by_full_sort(sims, k, descending=True):
    """Indices of the k best similarities via a full stable sort."""
    keys = -np.asarray(sims) if descending else np.asarray(sims)
    order = sorted(range(len(sims)), key=lambda i: (keys[i], i))
    return order[:k]


def average_precision_oracle(ranked_ids, query_id):
    """Walk the ranking rank by rank, accumulating precision at each hit."""
    hits = 0
    precisions = []
    for rank, gid in enumerate(ranked_ids, start=1):
        if gid == query_id:
            hits += 1
            precisions.append(hits / rank)
    if hits == 0:
        return None
    return sum(precisions) / hits


def cmc_oracle(all_ranked_ids, query_ids, k_max):
    """First-match scan per query, ignoring queries without positives."""
    totals = np.zeros(k_max)
    valid = 0
    for ranked_ids, qid in zip(all_ranked_ids, query_ids):
        first = None
        for rank, gid in enumerate(ranked_ids, start=1):
            if gid == qid:
                first = rank
                break
        if first is None:
            continue
        valid += 1
        for k in range(k_max):
            if first <= k + 1:
                totals[k] += 1
    return totals / valid if valid else None


def retrieval_by_stable_argsort(query_features, query_ids, gallery_features,
                                gallery_ids, k_max):
    """(per_query_ap, cmc, mean_ap) from a full stable argsort of every row
    of ``-(Q @ G.T)``, reading AP and CMC from the match positions in the
    sorted rows; ``None`` when no query has a gallery positive. This is the
    ranking that counting the places of the positives alone replaces."""
    sims = (np.asarray(query_features, dtype=np.float64)
            @ np.asarray(gallery_features, dtype=np.float64).T)
    order = np.argsort(-sims, axis=1, kind="stable")
    matches = np.asarray(gallery_ids)[order] == np.asarray(query_ids)[:, None]
    positives = matches.sum(axis=1)
    valid = positives > 0
    if not valid.any():
        return None
    rows, cols = np.nonzero(matches)
    row_start = np.cumsum(positives) - positives
    hits = np.arange(1, len(rows) + 1) - row_start[rows]
    precision_sums = np.bincount(rows, weights=hits / (cols + 1), minlength=len(sims))
    per_query_ap = np.full(len(sims), np.nan)
    per_query_ap[valid] = precision_sums[valid] / positives[valid]
    first = cols[row_start[valid]]
    cmc = np.cumsum(np.bincount(first[first < k_max], minlength=k_max)) / valid.sum()
    return per_query_ap, cmc, float(per_query_ap[valid].mean())


# ------------------------------------------------ per-anchor training step
#
# The training step as it ran before it was batched: one encode, token
# selection, three softmax cross-entropies, mining and backward pass per
# anchor, with per-anchor sorts and sequential momentum updates. It reuses
# only the pipeline stages the batching leaves alone (init, DBSCAN, batch
# sampling), computes its own prototypes as the normalized mean of each
# cluster's bank rows, and is the equivalence oracle for the batched step
# in tokmem.training.

def _unit(v):
    return v / np.linalg.norm(v)


def sequential_momentum(bank, index, features, momentum):
    """Write ``features`` into ``bank`` one row at a time in batch order,
    in place. Each row is normalized by ``normalize_rows``, the batched
    update's own primitive, so the two can be compared bit for bit: this
    oracle checks the order of the writes, not the normalization."""
    from tokmem.linalg import normalize_rows

    for slot, f in zip(index, features):
        bank[slot] = normalize_rows(momentum * bank[slot] + (1.0 - momentum) * f)


def _stripe_means(patches, z):
    """Means of Z contiguous stripes of I // Z patches each; the last
    stripe also takes the I % Z remainder patches."""
    size = patches.shape[0] // z
    starts = [k * size for k in range(z)] + [patches.shape[0]]
    return [patches[starts[k]:starts[k + 1]].mean(axis=0) for k in range(z)]


def patch_means_by_stack(patches, z):
    """(1 + Z, ..., d_in) patch and stripe means of (..., I, d_in) stacks,
    one stack at a time: each is widened to float64 and reduced by its
    own ``mean``, the form ``tokmem.encoder.patch_means`` must equal bit
    for bit."""
    patches = np.asarray(patches)
    *batch, num_patches, d_in = patches.shape
    stacks = patches.reshape(-1, num_patches, d_in).astype(np.float64)
    means = [[x.mean(axis=0), *_stripe_means(x, z)] for x in stacks]
    return np.stack(means, axis=1).reshape(1 + z, *batch, d_in)


def encode_one(params, patches):
    """(image feature, tokens) of one (I, d_in) patch stack, widened to
    float64 as ``encode`` widens it."""
    z = params.part_tokens
    patches = np.asarray(patches, dtype=np.float64)
    pre_tokens = patches @ params.w_patch.T
    tokens = pre_tokens / np.linalg.norm(pre_tokens, axis=1, keepdims=True)
    pre = params.w_head[0] @ patches.mean(axis=0)
    for wz, sm in zip(params.w_head[1:], _stripe_means(patches, z)):
        pre = pre + (wz @ sm) / z
    return _unit(pre), tokens


def encode_backward_one(params, patches, g_f, g_t):
    """(g_w_patch, g_w_head) of <g_f, f> + sum_i <g_t[i], t_i>."""
    z = params.part_tokens
    patches = np.asarray(patches, dtype=np.float64)
    pre_tokens = patches @ params.w_patch.T
    norms = np.linalg.norm(pre_tokens, axis=1, keepdims=True)
    units = pre_tokens / norms
    proj = np.einsum("ij,ij->i", g_t, units)[:, None]
    g_w_patch = ((g_t - proj * units) / norms).T @ patches

    xbar = patches.mean(axis=0)
    stripes = _stripe_means(patches, z)
    pre = params.w_head[0] @ xbar
    for wz, sm in zip(params.w_head[1:], stripes):
        pre = pre + (wz @ sm) / z
    norm = np.linalg.norm(pre)
    unit = pre / norm
    g_pre = (g_f - np.dot(g_f, unit) * unit) / norm
    return g_w_patch, np.stack([np.outer(g_pre, xbar)]
                               + [np.outer(g_pre, sm) / z for sm in stripes])


def softmax_ce_one(sims, target, temperature):
    """(-log softmax(sims/t)[target], softmax - onehot(target))."""
    z = sims / temperature
    shift = z.max()
    exp = np.exp(z - shift)
    total = exp.sum()
    coeff = exp / total
    coeff[target] -= 1.0
    return float(np.log(total) + shift - z[target]), coeff


def per_anchor_step(params, patches, batch, bank, bank_labels, protos, config, lr):
    """One iteration, anchor by anchor, in place on params, bank and protos.

    Returns one (constraint, proto, anchor or None, total) tuple per anchor.
    """
    from tokmem.losses import patch_rate

    t = config.temperature
    wc, wp, wa = (config.weight_constraint, config.weight_prototype,
                  config.weight_anchor)
    g_patch = np.zeros_like(params.w_patch)
    g_head = np.zeros_like(params.w_head)
    feats, rows = [], []
    for n in batch:
        x = patches[n]
        f, tokens = encode_one(params, x)
        feats.append(f)
        label = int(bank_labels[n])

        sims = tokens @ f
        pos = int(np.argmax(sims))
        order = np.argsort(sims, kind="stable")
        r = patch_rate(len(sims), config.neg_token_rate)
        sel = np.concatenate([[pos], order[order != pos][:r]])
        con, coeff = softmax_ce_one(tokens[sel] @ f, 0, t)
        grad_f = wc * ((coeff @ tokens[sel]) / t)
        grad_tokens = np.zeros_like(tokens)
        grad_tokens[sel] = wc * (np.outer(coeff, f) / t)

        pro, coeff = softmax_ce_one(protos @ f, label, t)
        grad_f = grad_f + wp * ((coeff @ protos) / t)

        anc = None
        same = np.flatnonzero(bank_labels == label)
        hardest = same[int(np.argmin(bank[same] @ f))]
        cand = bank_labels != label
        if not config.anchor_include_outliers:
            cand &= bank_labels >= 0
        idx = np.flatnonzero(cand)
        if idx.size:
            order = np.argsort(-(bank[idx] @ f), kind="stable")
            top = idx[order[:config.num_negatives]]
            stacked = bank[np.concatenate([[hardest], top])]
            anc, coeff = softmax_ce_one(stacked @ f, 0, t)
            grad_f = grad_f + wa * ((coeff @ stacked) / t)
        total = wc * con + wp * pro + (0.0 if anc is None else wa * anc)
        rows.append((con, pro, anc, total))

        gp, gh = encode_backward_one(params, x, grad_f, grad_tokens)
        g_patch += gp
        g_head += gh

    for n, f in zip(batch, feats):
        m = config.momentum
        label = int(bank_labels[n])
        protos[label] = _unit(m * protos[label] + (1 - m) * f)
        bank[n] = _unit(m * bank[n] + (1 - m) * f)
    scale = lr / len(batch)
    params.w_patch -= scale * g_patch
    params.w_head -= scale * g_head
    return rows


def per_anchor_train(config, dataset):
    """The whole epoch loop around :func:`per_anchor_step`.

    Returns (params, log); each log record carries epoch, C, outliers and
    the per-anchor loss rows of the epoch.
    """
    from tokmem.cluster import dbscan
    from tokmem.encoder import init_params
    from tokmem.linalg import normalize_rows
    from tokmem.training import learning_rate, sample_batches

    params = init_params(config.feature_dim, dataset.spec.patch_input_dim,
                         config.part_tokens, config.seed)
    log = []
    for epoch in range(config.epochs):
        feats = np.stack([encode_one(params, x)[0] for x in dataset.patches])
        labels = dbscan(feats, config.dbscan_eps, config.dbscan_min_pts)
        record = {"epoch": epoch, "C": len(np.unique(labels[labels >= 0])),
                  "outliers": int(np.sum(labels < 0)), "rows": []}
        batches = sample_batches(labels, config.batch_size, config.seed, epoch)
        if batches:
            bank = normalize_rows(feats)
            protos = normalize_rows(np.stack([bank[labels == c].mean(axis=0)
                                              for c in range(labels.max() + 1)]))
            for batch in batches:
                record["rows"] += per_anchor_step(
                    params, dataset.patches, batch, bank, labels, protos,
                    config, learning_rate(config, epoch))
        log.append(record)
    return params, log


# ------------------------------------------------------ stepwise training loop
#
# A frozen copy of the batched training loop, kept as the byte-identity
# oracle for tokmem.training.train so that every later refactor of the
# loop must reproduce it. Its steps check their anchors' labels and count
# their candidates (``stepwise_mine``) and derive each bank's write rounds
# (``stepwise_momentum``) as ``train`` does, in code of their own, and
# softmax_ce indexes its target column with a row arange. It shares the
# encoder, DBSCAN, batch sampling, prototypes and token selection with
# tokmem.

def stepwise_softmax_ce(f, cand, target, temperature, valid=None):
    """(value, grad_image_feature, grad_tokens or None) of one batched
    softmax cross-entropy, as ``tokmem.losses.softmax_ce`` computes it."""
    shared = cand.ndim == 2
    sims = f @ cand.T if shared else (cand @ f[:, :, None])[:, :, 0]
    z = sims / temperature
    if valid is not None:
        z = np.where(valid, z, -np.inf)
    shift = z.max(axis=1, keepdims=True)
    exp = np.exp(z - shift)
    total = exp.sum(axis=1, keepdims=True)
    rows = np.arange(z.shape[0])
    value = np.log(total[:, 0]) + shift[:, 0] - z[rows, target]
    coeff = exp / total
    coeff[rows, target] -= 1.0
    if shared:
        return value, (coeff @ cand) / temperature, None
    grad_f = (coeff[:, None, :] @ cand)[:, 0, :] / temperature
    return value, grad_f, coeff[:, :, None] * f[:, None, :] / temperature


def stepwise_mine(bank, runs, features, labels, k, include_outliers=True):
    """(picked, valid) of ``tokmem.memory.mine``, with the label checks and
    candidate counts derived on every call."""
    from tokmem.linalg import gather_runs

    labels = np.asarray(labels, dtype=np.int64)
    order, lo, hi = runs
    if (labels < 0).any():
        raise ValueError("anchor label must be a cluster id (>= 0)")
    same_count = np.zeros(len(labels), dtype=np.int64)
    known = labels < len(lo) - 1
    same_count[known] = (hi - lo)[labels[known]]
    if (same_count == 0).any():
        raise ValueError(f"no memory entry carries label {labels[same_count == 0][0]}")
    sims = features @ bank.T
    rows, members, first = gather_runs(order, lo[labels], hi[labels])
    own = sims[rows, members]
    hit = (own == np.minimum.reduceat(own, first)[rows]) | np.isnan(own)
    picked = np.empty((len(labels), 1 + min(k, len(bank))), dtype=np.int64)
    picked[:, 0] = np.minimum.reduceat(np.where(hit, members, len(bank)), first)
    sims[rows, members] = -np.inf
    candidates = len(bank) - same_count
    if not include_outliers:
        sims[:, order[lo[-1]:hi[-1]]] = -np.inf
        candidates -= hi[-1] - lo[-1]
    rows = np.arange(len(labels))
    for j in range(1, picked.shape[1]):
        picked[:, j] = np.argmax(sims, axis=1)
        sims[rows, picked[:, j]] = -np.inf
    return picked, np.arange(picked.shape[1]) <= candidates[:, None]


def stepwise_momentum(bank, index, features, momentum):
    """``tokmem.memory.momentum_update`` for (B,) slots, with the write
    rounds derived on every call: round j writes the j-th occurrence of
    every slot, ranked by one stable argsort of the slots."""
    from tokmem.linalg import normalize_rows

    order = np.argsort(index, kind="stable")
    ranked = index[order]
    rank = np.arange(index.size) - np.searchsorted(ranked, ranked)
    by_round = order[np.argsort(rank, kind="stable")]
    slots, fresh = index[by_round], (1.0 - momentum) * features[by_round]
    start = 0
    for stop in np.cumsum(np.bincount(rank)).tolist():
        part = slots[start:stop]
        bank[part] = normalize_rows(momentum * bank[part] + fresh[start:stop])
        start = stop


def stepwise_train(config, dataset):
    """(params, log) of ``tokmem.training.train``, one step at a time: each
    step's loss sums are added into the epoch's as the step ends."""
    from tokmem import encoder
    from tokmem.cluster import dbscan
    from tokmem.losses import select_constraint_tokens
    from tokmem.memory import compute_prototypes, label_runs
    from tokmem.training import learning_rate, sample_batches

    params = encoder.init_params(config.feature_dim, dataset.spec.patch_input_dim,
                                 config.part_tokens, config.seed)
    means = encoder.patch_means(dataset.patches, config.part_tokens)
    t, mu = config.temperature, config.momentum
    w_con, w_pro, w_anc = (config.weight_constraint, config.weight_prototype,
                           config.weight_anchor)
    log = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs):
            lr = learning_rate(config, epoch)
            features = encoder.image_feature(params, means)
            labels = dbscan(features, config.dbscan_eps, config.dbscan_min_pts)
            record = {"epoch": epoch, "mean_constraint": None, "mean_proto": None,
                      "mean_anchor": None, "mean_total": None,
                      "C": int(labels.max(initial=-1)) + 1,
                      "outliers": int((labels == -1).sum()), "lr": lr}
            batches = sample_batches(labels, config.batch_size, config.seed, epoch)
            if not batches:
                log.append(record)
                continue
            bank = features
            runs = label_runs(labels)
            protos = compute_prototypes(bank, runs)
            sums = {"constraint": 0.0, "proto": 0.0, "anchor": 0.0, "total": 0.0}
            anchor_count = 0
            for batch in batches:
                out = encoder.encode(params, dataset.patches[batch], means[:, batch])
                f, tokens = out.image_feature, out.patch_tokens
                rows = np.arange(f.shape[0])[:, None]
                selected = select_constraint_tokens(f, tokens, config.neg_token_rate)
                con = stepwise_softmax_ce(f, tokens[rows, selected], 0, t)
                pro = stepwise_softmax_ce(f, protos, labels[batch], t)
                picked, valid = stepwise_mine(bank, runs, f, labels[batch],
                                              config.num_negatives,
                                              config.anchor_include_outliers)
                anc = stepwise_softmax_ce(f, bank[picked], 0, t, valid=valid)
                total = w_con * con[0] + w_pro * pro[0] + w_anc * anc[0]
                grad_f = w_con * con[1] + w_pro * pro[1] + w_anc * anc[1]
                grad = encoder.encode_backward(out, grad_f, selected, w_con * con[2])
                stepwise_momentum(bank, batch, f, mu)
                stepwise_momentum(protos, labels[batch], f, mu)
                params.vec -= (lr / f.shape[0]) * grad
                for key, value in zip(sums, (con[0], pro[0], anc[0], total)):
                    sums[key] += float(value.sum())
                anchor_count += int(valid[:, 1].sum())
            sample_count = len(batches) * config.batch_size
            record["mean_constraint"] = sums["constraint"] / sample_count
            record["mean_proto"] = sums["proto"] / sample_count
            record["mean_anchor"] = (sums["anchor"] / anchor_count) if anchor_count else None
            record["mean_total"] = sums["total"] / sample_count
            log.append(record)
    return params, log


def generate_one_draw(spec):
    """(N, I, d_in) float32 patches of ``spec``, each array drawn whole in
    float64; ValueError if a patch the mask keeps is beyond float32 range."""
    from tokmem.linalg import normalize_rows

    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    n, i, d = spec.num_samples, spec.patches_per_image, spec.patch_input_dim
    anchors = normalize_rows(rng.normal(size=(spec.num_identities, d)))
    patches = rng.normal(size=(n, i, d))
    with np.errstate(over="ignore"):
        patches *= spec.identity_spread
    patches += anchors[spec.identities][:, None, :]
    noise = rng.normal(size=(n, i, d))
    mask = rng.random(size=(n, i)) < spec.noise_patch_prob
    np.copyto(patches, noise, where=mask[:, :, None])
    if max(patches.max(), -patches.min()) > np.finfo(np.float32).max:
        raise ValueError("patch values beyond the float32 range")
    return patches.astype(np.float32)
