import dataclasses
import json
import logging
import tracemalloc

import numpy as np
import pytest

import tokmem.training as training_mod
from tokmem.cluster import dbscan
from tokmem.encoder import EncoderParams, image_feature, init_params, patch_means
from tokmem.errors import NumericError
from tokmem.synth import SynthDataset, SynthSpec, generate, load_dataset, save_dataset
from tokmem.training import TrainConfig, learning_rate, sample_batches, train


def tiny_dataset(seed=3, num_identities=4, spi=6, noise=0.1):
    spec = SynthSpec(num_identities=num_identities, samples_per_identity=spi,
                     patches_per_image=6, patch_input_dim=5, identity_spread=0.1,
                     noise_patch_prob=noise, seed=seed)
    return generate(spec)


def tiny_config(**overrides):
    base = dict(epochs=3, batch_size=4, lr=0.05, temperature=0.05, momentum=0.2,
                neg_token_rate=0.2, num_negatives=2, dbscan_eps=0.3,
                dbscan_min_pts=2, seed=11, feature_dim=8, part_tokens=2)
    base.update(overrides)
    return TrainConfig(**base)


def test_sample_batches_floor_division():
    labels = np.array([0] * 10 + [-1] * 3)
    batches = sample_batches(labels, batch_size=4, seed=1, epoch=0)
    assert len(batches) == 2
    used = np.concatenate(batches)
    assert used.size == 8
    assert np.unique(used).size == 8
    assert (labels[used] >= 0).all()


def test_sample_batches_skips_outliers():
    labels = np.array([0, -1, 0, -1, 0, 0, 1, 1])
    batches = sample_batches(labels, batch_size=3, seed=5, epoch=2)
    for batch in batches:
        assert (labels[batch] >= 0).all()


def test_sample_batches_all_outliers_warns(caplog):
    labels = np.array([-1, -1, -1, -1])
    with caplog.at_level(logging.WARNING):
        batches = sample_batches(labels, batch_size=2, seed=1, epoch=4)
    assert batches == []
    assert "skipped" in caplog.text


def test_sample_batches_deterministic():
    labels = np.array([0, 0, 1, 1, 0, 1, 2, 2, 2, 0])
    a = sample_batches(labels, 3, seed=9, epoch=5)
    b = sample_batches(labels, 3, seed=9, epoch=5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = sample_batches(labels, 3, seed=9, epoch=6)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_learning_rate_schedule():
    cfg = tiny_config(lr=0.05, lr_decay_every=20, lr_decay_factor=0.1)
    assert learning_rate(cfg, 0) == 0.05
    assert learning_rate(cfg, 19) == 0.05
    assert learning_rate(cfg, 20) == pytest.approx(0.005)
    assert learning_rate(cfg, 39) == pytest.approx(0.005)
    assert learning_rate(cfg, 40) == pytest.approx(0.0005)


def test_zero_epochs_returns_initial_params():
    ds = tiny_dataset()
    cfg = tiny_config(epochs=0)
    result = train(cfg, ds)
    import tokmem.encoder as enc
    fresh = enc.init_params(cfg.feature_dim, ds.spec.patch_input_dim, cfg.part_tokens,
                            cfg.seed)
    np.testing.assert_array_equal(result.params.vec, fresh.vec)
    assert result.log == []


def test_zero_weights_leave_params_unchanged():
    ds = tiny_dataset()
    cfg = tiny_config(epochs=2, weight_constraint=0.0, weight_prototype=0.0,
                      weight_anchor=0.0)
    result = train(cfg, ds)
    import tokmem.encoder as enc
    fresh = enc.init_params(cfg.feature_dim, ds.spec.patch_input_dim, cfg.part_tokens,
                            cfg.seed)
    np.testing.assert_array_equal(result.params.vec, fresh.vec)
    assert len(result.log) == 2


def test_training_is_deterministic():
    ds = tiny_dataset()
    cfg = tiny_config(epochs=3)
    a = train(cfg, ds)
    b = train(cfg, ds)
    np.testing.assert_array_equal(a.params.vec, b.params.vec)
    assert a.log == b.log


def test_log_record_schema():
    ds = tiny_dataset()
    result = train(tiny_config(epochs=2), ds)
    assert len(result.log) == 2
    for epoch, record in enumerate(result.log):
        assert record["epoch"] == epoch
        assert set(record) == {"epoch", "mean_constraint", "mean_proto",
                               "mean_anchor", "mean_total", "C", "outliers", "lr"}
        assert record["C"] >= 0 and record["outliers"] >= 0
        assert record["lr"] == learning_rate(tiny_config(), epoch)
        for key in ("mean_constraint", "mean_proto", "mean_anchor", "mean_total"):
            assert record[key] is None or np.isfinite(record[key])


def test_skipped_epoch_logs_null_means():
    # eps tiny: everything is an outlier, every epoch skipped
    ds = tiny_dataset()
    cfg = tiny_config(epochs=2, dbscan_eps=1e-9, dbscan_min_pts=3)
    result = train(cfg, ds)
    assert len(result.log) == 2
    for record in result.log:
        assert record["mean_total"] is None
        assert record["C"] == 0


def test_dimension_mismatch_rejected():
    ds = tiny_dataset()  # 6 patches per image
    with pytest.raises(ValueError, match="part_tokens"):
        train(tiny_config(part_tokens=7), ds)
    with pytest.raises(ValueError, match="batch_size"):
        train(tiny_config(batch_size=1000), ds)


def test_oversize_neg_token_rate_rejected_before_any_epoch(monkeypatch):
    """Rate 1.0 picks all 6 patches as negatives; ``train`` refuses it up
    front rather than at the first step."""
    def no_epoch(*args):
        raise AssertionError("an epoch ran")

    monkeypatch.setattr(training_mod.encoder_mod, "image_feature", no_epoch)
    with pytest.raises(ValueError, match=r"^neg_token_rate must be small enough"):
        train(tiny_config(neg_token_rate=1.0), tiny_dataset())


def test_losses_read_snapshot_before_updates(monkeypatch):
    """Within an iteration every loss and mining read sees the banks (the
    instance bank, its float32 mining copy and the prototypes) as they
    were when the step began; the bank and the prototypes change by its
    end."""
    seen = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            assert all(np.array_equal(now, then) for now, then in seen[-1][1:])
            seen[-1][0] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    def step(*args):
        bank, bank32, protos = args[6], args[7], args[9]
        seen.append([0, (bank, bank.copy()), (protos, protos.copy()), (bank32, bank32.copy())])
        out = real_step(*args)
        # the float32 copy may round a small change of the bank away
        assert not any(np.array_equal(now, then) for now, then in seen[-1][1:3])
        return out

    spy(training_mod.losses_mod, "softmax_ce")
    spy(training_mod.memory_mod, "mine")
    real_step = training_mod.train_step
    monkeypatch.setattr(training_mod, "train_step", step)
    train(tiny_config(epochs=1, batch_size=4), tiny_dataset())
    # three loss kernels and one mining pass in each step
    assert len(seen) >= 2
    assert [calls for calls, *_ in seen] == [4] * len(seen)


def test_step_runs_the_encoder_head_once(monkeypatch):
    """The backward reads the forward's record: one train_step evaluates
    the image-feature head once, for all anchors at once."""
    from tokmem.memory import compute_prototypes, label_runs

    calls = []
    real = training_mod.encoder_mod._head

    def spy(*args):
        calls.append(args)
        return real(*args)

    cfg = tiny_config()
    ds = tiny_dataset()
    params = init_params(cfg.feature_dim, ds.spec.patch_input_dim, cfg.part_tokens, cfg.seed)
    labels = np.repeat(np.arange(4), 6)
    means = patch_means(ds.patches, cfg.part_tokens)
    bank = image_feature(params, means)
    batch = np.array([0, 7, 14, 21])
    monkeypatch.setattr(training_mod.encoder_mod, "_head", spy)
    runs = label_runs(labels)
    training_mod.train_step(cfg, params, ds.patches[batch], means[:, batch], batch,
                            labels[batch], bank, bank.astype(np.float32), runs,
                            compute_prototypes(bank, runs), lr=0.05)
    assert len(calls) == 1


def test_step_writes_the_float32_mining_bank_after_the_bank():
    """``train`` mines from a float32 copy of the instance bank; a step
    writes its slots into the copy from the float64 bank's new rows. The
    bank holds another encoder's features, so that the writes move them
    by more than float32 rounds away."""
    from tokmem.memory import compute_prototypes, label_runs

    cfg = tiny_config()
    ds = tiny_dataset()
    params = init_params(cfg.feature_dim, ds.spec.patch_input_dim, cfg.part_tokens, cfg.seed)
    labels = np.repeat(np.arange(4), 6)
    means = patch_means(ds.patches, cfg.part_tokens)
    other = init_params(cfg.feature_dim, ds.spec.patch_input_dim, cfg.part_tokens, cfg.seed + 1)
    bank = image_feature(other, means)
    bank32 = bank.astype(np.float32)
    before = bank.copy()
    batch = np.array([0, 7, 14, 21])
    runs = label_runs(labels)
    training_mod.train_step(cfg, params, ds.patches[batch], means[:, batch], batch,
                            labels[batch], bank, bank32, runs,
                            compute_prototypes(bank, runs), lr=0.05)
    assert not np.array_equal(bank32, before.astype(np.float32))
    np.testing.assert_array_equal(bank32, bank.astype(np.float32))


def test_train_computes_the_patch_means_once(monkeypatch):
    """Every epoch's features and every step's head read one cached means
    array; only the patch stacks themselves are read per step."""
    calls = []
    real = training_mod.encoder_mod.patch_means

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(training_mod.encoder_mod, "patch_means", spy)
    result = train(tiny_config(epochs=3), tiny_dataset())
    assert sum(r["mean_total"] is not None for r in result.log) == 3
    assert len(calls) == 1


def test_nonfinite_loss_aborts_with_diagnostics(monkeypatch):
    real = training_mod.losses_mod.softmax_ce

    def broken(*args, **kwargs):
        out = real(*args, **kwargs)
        out.value[1] = float("nan")
        return out

    monkeypatch.setattr(training_mod.losses_mod, "softmax_ce", broken)
    ds = tiny_dataset()
    cfg = tiny_config(epochs=1)
    with pytest.raises(NumericError) as info:
        train(cfg, ds)
    fresh = init_params(cfg.feature_dim, ds.spec.patch_input_dim, cfg.part_tokens, cfg.seed)
    plabels = dbscan(image_feature(fresh, patch_means(ds.patches, cfg.part_tokens)),
                     cfg.dbscan_eps, cfg.dbscan_min_pts)
    first_batch = sample_batches(plabels, cfg.batch_size, cfg.seed, 0)[0]
    diagnostics = info.value.diagnostics
    assert diagnostics["epoch"] == 0
    assert diagnostics["iteration"] == 0
    assert diagnostics["sample"] == int(first_batch[1])


def test_nan_weights_mid_epoch_raise_numeric_error():
    """Weights that an SGD step left NaN give NaN anchor features; mining
    still returns slots in the bank, so the step reports the non-finite
    loss instead of failing on an index."""
    from tokmem.memory import compute_prototypes, label_runs

    cfg = tiny_config()
    ds = tiny_dataset()
    params = init_params(cfg.feature_dim, ds.spec.patch_input_dim, cfg.part_tokens, cfg.seed)
    labels = np.repeat(np.arange(4), 6)
    means = patch_means(ds.patches, cfg.part_tokens)
    bank = image_feature(params, means)
    runs = label_runs(labels)
    params.vec[:] = np.nan
    batch = np.array([0, 7, 14, 21])
    with pytest.raises(NumericError, match="non-finite loss"):
        training_mod.train_step(cfg, params, ds.patches[batch], means[:, batch], batch,
                                labels[batch], bank, bank.astype(np.float32), runs,
                                compute_prototypes(bank, runs), lr=0.05)


@pytest.mark.parametrize("lr", [1e40, 1e200])
def test_weights_beyond_float32_range_abort_training(lr):
    """An epoch whose steps leave a weight no float32 checkpoint can hold
    raises, naming the epoch, the lr and the largest |weight|."""
    with pytest.raises(NumericError, match="float32") as info:
        train(tiny_config(lr=lr), tiny_dataset())
    diagnostics = info.value.diagnostics
    assert (diagnostics["epoch"], diagnostics["lr"]) == (0, lr)
    assert not diagnostics["max_abs_weight"] <= float(np.finfo(np.float32).max)


def test_loss_decreases_on_easy_task():
    ds = tiny_dataset(noise=0.0)
    cfg = tiny_config(epochs=8, dbscan_eps=0.2, dbscan_min_pts=2)
    result = train(cfg, ds)
    totals = [r["mean_total"] for r in result.log if r["mean_total"] is not None]
    assert len(totals) >= 4
    assert totals[-1] < totals[0]


def test_config_validation_messages():
    spec = tiny_dataset().spec
    with pytest.raises(ValueError, match="temperature"):
        tiny_config(temperature=0.0).validate(spec)
    with pytest.raises(ValueError, match="momentum"):
        tiny_config(momentum=1.5).validate(spec)
    with pytest.raises(ValueError, match="weight_anchor"):
        tiny_config(weight_anchor=-1.0).validate(spec)


# ------------------------------------- batched step vs the per-anchor oracle

def _layout(name, rng, n):
    """Memory labels, the anchor batch and the outlier switch of one case."""
    if name.startswith("mixed"):
        labels = np.concatenate([np.arange(4), rng.integers(-1, 4, size=n - 4)])
        return labels, np.flatnonzero(labels >= 0)[:6], name == "mixed"
    if name == "fewer_than_k":
        # cluster-0 anchors see only the two cluster-1 entries (k = 4)
        labels = np.array([1, 1, -1, -1] + [0] * (n - 4))
        return labels, np.array([0, 4, 5, 1, 6, 7]), False
    assert name == "none"
    labels = np.array([-1, -1] + [0] * (n - 2))
    return labels, np.arange(2, 8), False


@pytest.mark.parametrize("name", ["mixed", "mixed_no_outliers", "fewer_than_k", "none"])
def test_batched_step_matches_per_anchor_oracle(name):
    from oracles import encode_one, per_anchor_step
    from tokmem.linalg import normalize_rows
    from tokmem.memory import compute_prototypes, label_runs

    rng = np.random.Generator(np.random.Philox(key=np.array([55, len(name)],
                                                            dtype=np.uint64)))
    n = 20
    labels, batch, include = _layout(name, rng, n)
    candidates = ((labels != labels[batch, None]) & (include | (labels >= 0))).sum(axis=1)
    if name == "fewer_than_k":
        assert ((candidates > 0) & (candidates < 4)).any()
    cfg = tiny_config(num_negatives=4, anchor_include_outliers=include)
    patches = rng.normal(size=(n, 6, 5))  # the geometry of tiny_dataset
    params = init_params(cfg.feature_dim, 5, cfg.part_tokens, 5)
    feats = np.stack([encode_one(params, x)[0] for x in patches])

    def fresh_state():
        bank = normalize_rows(feats)
        return (EncoderParams(params.vec, cfg.feature_dim, 5), bank,
                compute_prototypes(bank, label_runs(labels)))

    p_b, bank_b, protos_b = fresh_state()
    step = training_mod.train_step(cfg, p_b, patches[batch],
                                   patch_means(patches[batch], cfg.part_tokens), batch,
                                   labels[batch], bank_b, bank_b.astype(np.float32),
                                   label_runs(labels), protos_b, lr=0.05)
    p_o, bank_o, protos_o = fresh_state()
    rows = per_anchor_step(p_o, patches, batch, bank_o, labels, protos_o, cfg, lr=0.05)

    def close(a, b):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    con, pro, anc, total = zip(*rows)
    close(step.constraint, con)
    close(step.proto, pro)
    close(step.total, total)
    np.testing.assert_array_equal(step.has_anchor, [a is not None for a in anc])
    close(step.anchor, [0.0 if a is None else a for a in anc])
    np.testing.assert_array_equal(step.has_anchor, name != "none")
    close(p_b.vec, p_o.vec)
    close(bank_b, bank_o)
    close(protos_b, protos_o)


@pytest.mark.parametrize("overrides", [{}, {"dbscan_eps": 0.15,
                                            "anchor_include_outliers": False}])
def test_batched_training_matches_per_anchor_oracle(overrides):
    from oracles import per_anchor_train

    ds = tiny_dataset()
    cfg = tiny_config(epochs=3, **overrides)
    result = train(cfg, ds)
    params, log = per_anchor_train(cfg, ds)
    assert [(r["C"], r["outliers"]) for r in result.log] == \
        [(r["C"], r["outliers"]) for r in log]
    for ours, oracle in zip(result.log, log):
        con, pro, anc, total = zip(*oracle["rows"])
        np.testing.assert_allclose(
            [ours["mean_constraint"], ours["mean_proto"], ours["mean_total"]],
            [np.mean(con), np.mean(pro), np.mean(total)], rtol=1e-12)
    np.testing.assert_allclose(result.params.vec, params.vec, rtol=1e-9, atol=1e-9)


def test_train_on_a_loaded_dataset_equals_train_on_its_float64_values(tmp_path):
    """Float32 patches, widened per block and per batch, train bit for bit
    like the same values held as float64."""
    save_dataset(tiny_dataset(), tmp_path / "data")
    loaded = load_dataset(tmp_path / "data")
    wide = SynthDataset(loaded.patches.astype(np.float64), loaded.spec)
    a, b = train(tiny_config(), loaded), train(tiny_config(), wide)
    assert a.params.vec.tobytes() == b.params.vec.tobytes()
    assert a.log == b.log
    assert a.log[-1]["mean_total"] is not None


def test_train_on_generated_data_equals_train_on_the_saved_pair(tmp_path):
    """``generate`` returns the float32 values a saved pair stores, so an
    in-process run trains on what a CLI run trains on: the reference
    experiment gives the same parameter bytes and the same log."""
    from conftest import REFERENCE

    generated = generate(REFERENCE.data)
    save_dataset(generated, tmp_path / "data")
    a = train(REFERENCE.train, generated)
    b = train(REFERENCE.train, load_dataset(tmp_path / "data"))
    assert a.params.vec.tobytes() == b.params.vec.tobytes()
    assert json.dumps(a.log) == json.dumps(b.log)


def test_loaded_dataset_train_peak_memory_is_below_a_float64_copy(tmp_path):
    """Loading and a 1-epoch train hold less than one float64 copy of the
    patches: the file's float32 values, and training's own arrays."""
    spec = SynthSpec(num_identities=60, samples_per_identity=20, patches_per_image=64,
                     patch_input_dim=16, identity_spread=0.15, noise_patch_prob=0.1, seed=5)
    save_dataset(generate(spec), tmp_path / "data")
    tracemalloc.start()
    try:
        train(TrainConfig(epochs=1), load_dataset(tmp_path / "data"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * spec.num_samples * spec.patches_per_image * spec.patch_input_dim


# --------------------------------- batch writes vs the stepwise loop, bytes

def _reference(seed, epochs=3, **data):
    from conftest import REFERENCE

    spec = dataclasses.replace(REFERENCE.data, seed=seed, **data)
    return dataclasses.replace(REFERENCE.train, epochs=epochs, seed=seed), generate(spec)


@pytest.mark.parametrize("case", ["outliers_included", "outliers_excluded",
                                  "skipped_epoch", "reference_42", "reference_7", "scaled_42"])
def test_train_equals_stepwise_oracle_bytes(case):
    """``train`` writes the instance batch as one slice and the prototypes
    in ``momentum_update``'s rounds; the oracle derives both banks' write
    rounds on every step and adds each step's loss sums as it ends.
    Both give the same parameter bytes and the same log. "scaled_42" is
    the benchmark's scaled shape (200 identities x 30 samples, 1 epoch),
    where the prototype rounds run over 114 clusters."""
    from oracles import stepwise_train

    if case.startswith("reference"):
        cfg, ds = _reference(int(case.split("_")[1]))
    elif case == "scaled_42":
        cfg, ds = _reference(42, epochs=1, num_identities=200, samples_per_identity=30)
    elif case == "skipped_epoch":
        # epoch 0 trains; in epochs 1 and 2 fewer than 22 samples are clustered
        cfg = tiny_config(epochs=3, dbscan_eps=0.15, batch_size=22, lr=2.0)
        ds = tiny_dataset(seed=5)
    else:
        cfg = tiny_config(epochs=3, dbscan_eps=0.15,
                          anchor_include_outliers=case == "outliers_included")
        ds = tiny_dataset()
    result = train(cfg, ds)
    params, log = stepwise_train(cfg, ds)
    assert result.params.vec.tobytes() == params.vec.tobytes()
    assert json.dumps(result.log) == json.dumps(log)
    trained = [r["mean_total"] is not None for r in result.log]
    assert trained == ([True, False, False] if case == "skipped_epoch" else [True] * cfg.epochs)
    if case.startswith("outliers"):
        assert all(r["outliers"] > 0 for r in result.log)
