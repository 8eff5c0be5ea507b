"""Reproducible synthetic identity datasets with injected noise patches.

Each identity gets a random unit anchor direction; every clean patch is
that anchor plus Gaussian jitter, and each patch is independently
replaced by an isotropic standard-Gaussian noise patch with probability
``noise_patch_prob``. A noise patch has norm about sqrt(d_in), 4 at the
reference shape, a clean one about sqrt(1 + d_in * identity_spread**2),
1.17 there: noise patches weigh far more in a plain patch mean.

All randomness comes from numpy's Philox counter-based generator keyed
by the spec seed, so a spec regenerates bit-identically on any platform.
Samples are ordered by identity: sample ``n`` has identity
``n // samples_per_identity`` (:attr:`SynthSpec.identities`), so a saved
dataset stores its spec and its patches only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import blobio
from .errors import DataFormatError, check_fields
from .linalg import CHUNK, normalize_rows

__all__ = ["SynthSpec", "SynthDataset", "generate", "split_query_gallery",
           "save_dataset", "load_dataset"]

MAX_SEED = 2**64  # every seed keys a Philox generator: a 64-bit unsigned integer
SEED_RANGE = f"[0, 2**{MAX_SEED.bit_length() - 1})"
F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class SynthSpec:
    num_identities: int
    samples_per_identity: int
    patches_per_image: int
    patch_input_dim: int
    identity_spread: float
    noise_patch_prob: float
    seed: int

    def validate(self, error=ValueError, label=str) -> None:
        """Raise ``error`` for the first field out of range; see :func:`check_fields`."""
        check_fields(vars(self), [
            ("num_identities", self.num_identities >= 2, ">= 2"),
            ("samples_per_identity", self.samples_per_identity >= 1, ">= 1"),
            ("patches_per_image", self.patches_per_image >= 4, ">= 4"),
            ("patch_input_dim", self.patch_input_dim >= 1, ">= 1"),
            ("identity_spread", self.identity_spread >= 0, ">= 0"),  # NaN fails too
            ("noise_patch_prob", 0.0 <= self.noise_patch_prob < 1.0, "in [0, 1)"),
            ("seed", 0 <= self.seed < MAX_SEED, f"in {SEED_RANGE}")], error, label)

    @property
    def num_samples(self) -> int:
        return self.num_identities * self.samples_per_identity

    @property
    def identities(self) -> np.ndarray:
        """(N,) int64 identity of each sample; identity k holds the samples
        ``[k * samples_per_identity, (k + 1) * samples_per_identity)``."""
        return np.arange(self.num_samples) // self.samples_per_identity


@dataclass
class SynthDataset:
    """Immutable after creation; ``patches`` is (N, I, d_in) float32, the
    values a saved pair stores (read-only from :func:`load_dataset`), and
    sample ``n``'s identity is ``spec.identities[n]``."""

    patches: np.ndarray
    spec: SynthSpec


def generate(spec: SynthSpec) -> SynthDataset:
    """Generate the dataset described by ``spec``; a pure function of the
    spec. The patches are built ``CHUNK`` stacks at a time, widened to
    float64 only to scale the jitter and add the anchors, so it holds two
    float32 (N, I, d_in) arrays, the patches and the noise values, and one
    float64 chunk at most; the patches are returned as float32, the values
    every saved pair trains on."""
    spec.validate()
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    n, i, d = spec.num_samples, spec.patches_per_image, spec.patch_input_dim

    anchors = normalize_rows(rng.normal(size=(spec.num_identities, d)))
    ids = spec.identities
    # Fixed draw order (clean jitter, noise values, noise mask) keeps the
    # stream layout independent of the mask outcome; a Philox stream drawn
    # in chunks holds the values of one draw. The clean patches, anchor +
    # spread * jitter, are built in place in each chunk.
    patches = np.empty((n, i, d), dtype=np.float32)
    beyond = np.zeros((n, i), dtype=bool)  # a clean patch past the float32 range
    with np.errstate(over="ignore"):  # refused below unless the mask replaces it
        for s in range(0, n, CHUNK):
            clean = rng.normal(size=(min(CHUNK, n - s), i, d))
            clean *= spec.identity_spread
            clean += anchors[ids[s:s + CHUNK]][:, None, :]
            if clean.max() > F32_MAX or clean.min() < -F32_MAX:  # rare: flag its patches
                beyond[s:s + CHUNK] = ((clean.max(axis=2) > F32_MAX)
                                       | (clean.min(axis=2) < -F32_MAX))
            patches[s:s + CHUNK] = clean
    del clean  # the noise chunks take its place
    noise = np.empty_like(patches)
    for s in range(0, n, CHUNK):
        noise[s:s + CHUNK] = rng.normal(size=(min(CHUNK, n - s), i, d))
    mask = rng.random(size=(n, i)) < spec.noise_patch_prob
    np.copyto(patches, noise, where=mask[:, :, None])
    if (beyond & ~mask).any():
        raise ValueError(f"identity_spread {spec.identity_spread} puts patch values beyond "
                         "the float32 range (about ±3.4e38)")
    return SynthDataset(patches=patches, spec=spec)


def split_query_gallery(ds: SynthDataset, query_per_identity: int,
                        seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint query/gallery index sets with exactly ``query_per_identity``
    queries drawn per identity, deterministic in ``seed``."""
    spi = ds.spec.samples_per_identity
    if not 0 < query_per_identity < spi:
        raise ValueError(
            f"query_per_identity must be in [1, {spi - 1}], got {query_per_identity}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    # identity k's samples are k * spi + [0, spi), see SynthSpec.identities
    query_idx = np.sort(np.concatenate(
        [k * spi + rng.permutation(spi)[:query_per_identity]
         for k in range(ds.spec.num_identities)]))
    mask = np.ones(ds.spec.num_samples, dtype=bool)
    mask[query_idx] = False
    return query_idx, np.flatnonzero(mask)


def save_dataset(ds: SynthDataset, prefix) -> None:
    """Write ``<prefix>.json`` (manifest) and ``<prefix>.f32`` (blob).

    The blob holds the patches only: N*I*d_in little-endian float32
    values in sample-major, patch-major, coordinate order. Identities are
    not stored; sample n has identity n // samples_per_identity.
    """
    blobio.write_pair(prefix, vars(ds.spec), blobio.floats_buffer(ds.patches))


def load_dataset(prefix) -> SynthDataset:
    """Read a dataset pair written by :func:`save_dataset`.

    The patches are a read-only float32 view of the blob, which every
    reader widens to float64 a patch or batch at a time; the identities
    follow from the spec. A missing, mistyped or invalid manifest field, a
    blob of another length than the spec's patches, or a non-finite patch
    value raise DataFormatError; other fields (an old ``num_samples``) are ignored.
    """
    manifest, blob = blobio.read_pair(prefix)
    spec = SynthSpec(**{f.name: blobio.manifest_field(manifest, f.name, f.type, prefix)
                        for f in fields(SynthSpec)})
    spec.validate(DataFormatError, lambda field: f"{prefix}: manifest field {field!r}")
    n, i, d = spec.num_samples, spec.patches_per_image, spec.patch_input_dim
    expected = 4 * n * i * d
    if len(blob) != expected:
        raise DataFormatError(
            f"dataset blob has {len(blob)} bytes, expected {expected} from manifest fields")
    patches = blobio.floats_from_bytes(blob).reshape(n, i, d)
    # max and min propagate NaN, and one of them is ±inf if any value is;
    # neither makes a temporary or a float64 copy
    if not (np.isfinite(patches.max()) and np.isfinite(patches.min())):
        raise DataFormatError("dataset blob has non-finite patch values")
    return SynthDataset(patches=patches, spec=spec)
