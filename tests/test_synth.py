import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracles import generate_one_draw
from tokmem.errors import DataFormatError
from tokmem.linalg import CHUNK
from tokmem.synth import (SynthSpec, generate, load_dataset, save_dataset,
                          split_query_gallery)


def make_spec(**overrides):
    base = dict(num_identities=2, samples_per_identity=3, patches_per_image=4,
                patch_input_dim=8, identity_spread=0.1, noise_patch_prob=0.0,
                seed=7)
    base.update(overrides)
    return SynthSpec(**base)


def test_counts_and_identity_order():
    ds = generate(make_spec())
    assert ds.patches.shape == (6, 4, 8)
    np.testing.assert_array_equal(ds.spec.identities, [0, 0, 0, 1, 1, 1])


def test_generation_is_deterministic():
    spec = make_spec(noise_patch_prob=0.3, seed=123)
    a, b = generate(spec), generate(spec)
    np.testing.assert_array_equal(a.patches, b.patches)


def test_different_seeds_differ():
    a = generate(make_spec(seed=1))
    b = generate(make_spec(seed=2))
    assert not np.array_equal(a.patches, b.patches)


@pytest.mark.parametrize("field,value,message", [
    ("num_identities", 1, "num_identities"),
    ("patches_per_image", 3, "patches_per_image"),
    ("noise_patch_prob", 1.0, "noise_patch_prob"),
    ("samples_per_identity", 0, "samples_per_identity"),
    ("identity_spread", -0.5, "identity_spread"),
    ("identity_spread", float("nan"), "identity_spread"),
    ("seed", -1, "seed"),
])
def test_invalid_spec_names_field(field, value, message):
    with pytest.raises(ValueError, match=message):
        generate(make_spec(**{field: value}))


def test_peak_memory_is_two_patch_arrays():
    """The patches are built a chunk at a time: generation holds the
    float32 patches and noise values, one float64 chunk and some (N, I)
    per-patch values (the mask's draw), and no float64 (N, I, d_in) array."""
    spec = make_spec(num_identities=50, samples_per_identity=40, patches_per_image=16,
                     patch_input_dim=16, noise_patch_prob=0.1)
    n, i, d = spec.num_samples, 16, 16
    assert n > 3 * CHUNK
    generate(make_spec())  # numpy's first-call allocations are not the generator's
    tracemalloc.start()
    try:
        generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 4 * n * i * d + 8 * CHUNK * i * d + 8 * n * i


@pytest.mark.parametrize("num_identities, samples_per_identity, spread, noise", [
    (2, 3, 0.1, 0.2),                 # below one chunk
    (8, CHUNK // 8, 0.1, 0.2),        # exactly one chunk
    (19, 27, 0.1, 0.2),               # one stack past it
    (41, 40, 0.1, 0.3),               # several chunks
    (41, 40, 0.1, 0.0),               # no noise patch
    (41, 40, 0.0, 0.3),               # every clean patch its anchor
])
def test_generate_equals_the_one_draw_generator(num_identities, samples_per_identity,
                                                spread, noise):
    """Drawing in chunks gives the bytes of drawing each array whole."""
    spec = make_spec(num_identities=num_identities, samples_per_identity=samples_per_identity,
                     identity_spread=spread, noise_patch_prob=noise, seed=31)
    patches = generate(spec).patches
    assert patches.dtype == np.float32
    assert patches.tobytes() == generate_one_draw(spec).tobytes()


def one_draw_refuses(spec):
    try:
        generate_one_draw(spec)
    except ValueError:
        return True
    return False


def assert_generates_as_one_draw(spec):
    if one_draw_refuses(spec):
        with pytest.raises(ValueError, match="float32 range"):
            generate(spec)
    else:
        assert generate(spec).patches.tobytes() == generate_one_draw(spec).tobytes()


@pytest.mark.parametrize("spread", [1e37, 1e38, 1e39, 1e308])
@pytest.mark.parametrize("noise", [0.0, 0.5])
def test_refuses_exactly_what_the_one_draw_generator_refuses(spread, noise):
    """A spread whose clean patches pass the float32 range, float64's
    included (1e308), is refused where the one-draw generator refuses it."""
    for seed in range(4):
        assert_generates_as_one_draw(make_spec(identity_spread=spread,
                                               noise_patch_prob=noise, seed=seed))


def test_spread_past_range_under_noise_patches_only_is_no_refusal():
    """Every patch of a small spec is noise at noise_patch_prob 0.999 for
    most seeds; then no clean value is kept, and a spread that puts each
    of them past float32 range is no refusal."""
    def spec(seed):
        return make_spec(identity_spread=1e39, noise_patch_prob=0.999, seed=seed)

    seed = next(seed for seed in range(100) if not one_draw_refuses(spec(seed)))
    assert generate(spec(seed)).patches.tobytes() == generate_one_draw(spec(seed)).tobytes()


def test_range_is_checked_after_the_mask():
    """A seed whose clean draw has values past float32 range (the spec
    without noise is refused) that the mask replaces every one of."""
    def masked_away(seed):
        clean = make_spec(identity_spread=1e38, seed=seed)
        return (one_draw_refuses(clean)
                and not one_draw_refuses(dataclasses.replace(clean, noise_patch_prob=0.5)))

    seed = next(seed for seed in range(1000) if masked_away(seed))
    with pytest.raises(ValueError, match="float32 range"):
        generate(make_spec(identity_spread=1e38, seed=seed))
    assert_generates_as_one_draw(make_spec(identity_spread=1e38, noise_patch_prob=0.5,
                                           seed=seed))


def test_zero_spread_zero_noise_collapses_to_anchor():
    ds = generate(make_spec(identity_spread=0.0))
    for k in range(2):
        sample_patches = ds.patches[ds.spec.identities == k].reshape(-1, 8)
        assert (sample_patches == sample_patches[0]).all()
        assert np.linalg.norm(sample_patches[0]) == pytest.approx(1.0, abs=1e-12)


def test_noise_patch_count_monte_carlo():
    """Noise patches have norm near sqrt(d_in) while clean patches sit near
    the unit anchor, so a norm threshold separates them; the total count over
    1000 images of 128 patches must sit inside the binomial band around
    p * total."""
    spec = make_spec(num_identities=10, samples_per_identity=100,
                     patches_per_image=128, patch_input_dim=16,
                     identity_spread=0.1, noise_patch_prob=0.25, seed=99)
    ds = generate(spec)
    norms = np.linalg.norm(ds.patches, axis=2)
    noisy = int((norms > 2.0).sum())
    total = 1000 * 128
    mean = 0.25 * total
    std = np.sqrt(total * 0.25 * 0.75)
    assert abs(noisy - mean) < 4 * std
    assert noisy / 1000 == pytest.approx(32.0, abs=4 * std / 1000)


def test_split_counts():
    ds = generate(make_spec())
    query, gallery = split_query_gallery(ds, query_per_identity=1, seed=5)
    assert query.size == 2 and gallery.size == 4
    for k in range(2):
        assert (ds.spec.identities[query] == k).sum() == 1


def test_split_query_equal_to_spi_rejected():
    ds = generate(make_spec())
    with pytest.raises(ValueError):
        split_query_gallery(ds, query_per_identity=3, seed=5)


def test_split_disjoint_and_covering():
    ds = generate(make_spec(num_identities=4, samples_per_identity=5))
    query, gallery = split_query_gallery(ds, query_per_identity=2, seed=11)
    combined = np.sort(np.concatenate([query, gallery]))
    np.testing.assert_array_equal(combined, np.arange(ds.spec.num_samples))
    assert np.intersect1d(query, gallery).size == 0


def test_split_deterministic():
    ds = generate(make_spec())
    a = split_query_gallery(ds, 1, seed=3)
    b = split_query_gallery(ds, 1, seed=3)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_split_matches_per_identity_scan():
    """The split equals the rule it implements: per identity k, a
    permutation of the ascending indices of k, drawn in identity order
    from one generator."""
    ds = generate(make_spec(num_identities=5, samples_per_identity=4))
    query, gallery = split_query_gallery(ds, query_per_identity=2, seed=9)

    ids = ds.spec.identities
    draws = np.random.Generator(np.random.Philox(key=9))
    expected = np.sort(np.concatenate(
        [draws.permutation(np.flatnonzero(ids == k))[:2] for k in range(5)]))
    np.testing.assert_array_equal(query, expected)
    np.testing.assert_array_equal(gallery, np.setdiff1d(np.arange(20), expected))


def test_save_load_round_trip(tmp_path):
    ds = generate(make_spec(noise_patch_prob=0.2, seed=21))
    prefix = tmp_path / "data"
    save_dataset(ds, prefix)
    loaded = load_dataset(prefix)
    assert loaded.spec == ds.spec
    # storage is float32; loading reproduces exactly those values
    np.testing.assert_array_equal(loaded.patches,
                                  ds.patches.astype(np.float32).astype(np.float64))
    # and keeps them as they are in the file: a read-only float32 view
    assert loaded.patches.dtype == np.float32
    assert not loaded.patches.flags.writeable


def test_load_peak_memory_is_the_blob(tmp_path):
    """Loading holds the blob's bytes and no float64 copy of the patches."""
    spec = make_spec(num_identities=50, samples_per_identity=20, patches_per_image=16,
                     patch_input_dim=16, noise_patch_prob=0.1)
    save_dataset(generate(spec), tmp_path / "data")
    blob_bytes = (tmp_path / "data.f32").stat().st_size
    tracemalloc.start()
    try:
        load_dataset(tmp_path / "data")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * blob_bytes + 64 * 1024


def test_save_holds_no_copy_of_the_blob(tmp_path):
    """The blob is written from the patches' own buffer."""
    ds = generate(make_spec(num_identities=50, samples_per_identity=20, patches_per_image=16,
                            patch_input_dim=16, noise_patch_prob=0.1))
    save_dataset(generate(make_spec()), tmp_path / "first")  # first-call allocations
    tracemalloc.start()
    try:
        save_dataset(ds, tmp_path / "data")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "data.f32").read_bytes() == ds.patches.tobytes()
    assert peak <= 64 * 1024 < ds.patches.nbytes / 10


def test_dataset_blob_is_the_patches_as_float32(tmp_path):
    ds = generate(make_spec(noise_patch_prob=0.2, seed=21))
    save_dataset(ds, tmp_path / "data")
    assert (tmp_path / "data.f32").read_bytes() == ds.patches.astype("<f4").tobytes()


def test_save_is_byte_deterministic(tmp_path):
    ds = generate(make_spec(seed=4))
    save_dataset(ds, tmp_path / "a")
    save_dataset(ds, tmp_path / "b")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.f32").read_bytes() == (tmp_path / "b.f32").read_bytes()


def test_manifest_records_spec_and_sizes(tmp_path):
    import json

    ds = generate(make_spec())
    save_dataset(ds, tmp_path / "data")
    manifest = json.loads((tmp_path / "data.json").read_text())
    for f in dataclasses.fields(SynthSpec):
        assert manifest[f.name] == getattr(ds.spec, f.name)
    assert manifest["format_version"] == 1
    assert set(manifest) == {f.name for f in dataclasses.fields(SynthSpec)} | {
        "format_version", "blob_bytes"}
    assert manifest["blob_bytes"] == (tmp_path / "data.f32").stat().st_size


def test_truncated_blob_rejected(tmp_path):
    ds = generate(make_spec())
    save_dataset(ds, tmp_path / "data")
    blob = (tmp_path / "data.f32").read_bytes()
    (tmp_path / "data.f32").write_bytes(blob[:-8])
    with pytest.raises(DataFormatError, match="blob"):
        load_dataset(tmp_path / "data")


def test_missing_files_rejected(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nope")


@pytest.mark.parametrize("values, finite", [
    ([np.nan], False), ([np.inf], False), ([-np.inf], False), ([np.inf, -np.inf], False),
    ([np.nan, np.inf], False), ([3.4028235e38, -3.4028235e38], True)])
def test_load_refuses_exactly_the_non_finite_blobs(tmp_path, values, finite):
    """NaN, either infinity or both are refused, in any sample; the float32
    extremes on both sides load as they are."""
    ds = generate(make_spec())
    patches = ds.patches.copy()
    patches.flat[[1, -2][:len(values)]] = values
    save_dataset(dataclasses.replace(ds, patches=patches), tmp_path / "data")
    if finite:
        assert load_dataset(tmp_path / "data").patches.tobytes() == patches.tobytes()
    else:
        with pytest.raises(DataFormatError, match="non-finite patch values"):
            load_dataset(tmp_path / "data")
