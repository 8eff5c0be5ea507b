"""Finite-difference verification of every analytic gradient.

Each component check builds a random instance (unit-Gaussian features,
normalized), evaluates the analytic gradient, and compares it against
the central-difference oracle from :mod:`tokmem.linalg` over all
differentiated inputs. The three loss checks call the batched
``losses.softmax_ce`` on B >= 2 rows the way training does: per-row
token candidates, one shared prototype set, and masked per-row memory
candidates. Each row's target is its least similar candidate: a
dominant target would leave a gradient so small that the rounding error
of the central difference swamps it. The report text is deterministic
for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from . import encoder as encoder_mod
from . import losses as losses_mod
from .errors import check_fields
from .linalg import finite_diff_grad, normalize_rows, relative_error
from .synth import MAX_SEED, SEED_RANGE

__all__ = ["COMPONENTS", "run_gradcheck", "format_report", "TOLERANCE", "STEP"]

TOLERANCE = 1e-4
STEP = 1e-5

_TEMPERATURES = (0.05, 0.2, 1.0)
_ENCODER_BATCH = 3
_MAX_BATCH = 4


def _units(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return normalize_rows(rng.normal(size=(n, d)))


def _softmax_ce_error(f: np.ndarray, cand: np.ndarray, target, temperature: float,
                      valid: np.ndarray | None = None, wrt_cand: bool = False) -> float:
    """Relative gradient error of the row-summed ``softmax_ce`` value over
    the (B, D) features, and over per-row candidates too if ``wrt_cand``."""
    out = losses_mod.softmax_ce(f, cand, target, temperature, valid)

    def value_at(x: np.ndarray) -> float:
        c = x[f.size:].reshape(cand.shape) if wrt_cand else cand
        return losses_mod.softmax_ce(x[:f.size].reshape(f.shape), c, target,
                                     temperature, valid).value.sum()

    x0, analytic = f.ravel(), out.grad_image_feature.ravel()
    if wrt_cand:
        x0 = np.concatenate([x0, cand.ravel()])
        analytic = np.concatenate([analytic, out.grad_tokens.ravel()])
    return relative_error(analytic, finite_diff_grad(value_at, x0, STEP))


def _instance(rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """A temperature and (B, D) unit features with B >= 2 rows."""
    b, d = int(rng.integers(2, _MAX_BATCH + 1)), int(rng.integers(4, 10))
    return float(rng.choice(_TEMPERATURES)), _units(rng, b, d)


def _hardest_first(rng: np.random.Generator, f: np.ndarray, k: int) -> np.ndarray:
    """Random per-row (B, K, D) unit candidates in ascending similarity:
    each row's target, column 0, is its least similar candidate."""
    b, d = f.shape
    cand = _units(rng, b * k, d).reshape(b, k, d)
    order = np.argsort((cand @ f[:, :, None])[:, :, 0], axis=1)
    return np.take_along_axis(cand, order[:, :, None], axis=1)


def _check_constraint(rng: np.random.Generator) -> float:
    """Per-row (B, 1 + R, D) token candidates, differentiated jointly
    with the features."""
    temperature, f = _instance(rng)
    tokens = _hardest_first(rng, f, 1 + int(rng.integers(1, 8)))
    return _softmax_ce_error(f, tokens, 0, temperature, wrt_cand=True)


def _check_prototype(rng: np.random.Generator) -> float:
    """One shared (C, D) prototype set with per-row targets."""
    temperature, f = _instance(rng)
    protos = _units(rng, int(rng.integers(2, 10)), f.shape[1])
    return _softmax_ce_error(f, protos, np.argmin(f @ protos.T, axis=1), temperature)


def _check_anchor(rng: np.random.Generator) -> float:
    """Per-row constant (B, 1 + k, D) memory candidates under a validity
    mask in which one row keeps fewer than k negatives, possibly none."""
    temperature, f = _instance(rng)
    k = int(rng.integers(1, 8))
    cand = _hardest_first(rng, f, 1 + k)
    valid = np.ones(cand.shape[:2], dtype=bool)
    valid[int(rng.integers(0, len(f))), 1 + int(rng.integers(0, k)):] = False
    return _softmax_ce_error(f, cand, 0, temperature, valid)


def _check_encoder(rng: np.random.Generator) -> float:
    """Check the parameter gradient of a random linear functional of the
    encoder outputs over every parameter entry, summed over a batch of
    distinct patch stacks. As in training, the token term reads K
    distinct tokens per stack, a random subset in random order with K
    drawn from [1, I], so both K < I and K = I occur."""
    d = int(rng.integers(3, 6))
    d_in = int(rng.integers(3, 7))
    z = int(rng.integers(1, 4))
    num_patches = int(rng.integers(z, z + 5))
    params = encoder_mod.init_params(d, d_in, z, seed=int(rng.integers(0, 2**63)))
    patches = rng.normal(size=(_ENCODER_BATCH, num_patches, d_in))
    means = encoder_mod.patch_means(patches, z)
    k = int(rng.integers(1, num_patches + 1))
    selected = np.argsort(rng.random((_ENCODER_BATCH, num_patches)), axis=1)[:, :k]
    g_f = rng.normal(size=(_ENCODER_BATCH, d))
    g_s = rng.normal(size=(_ENCODER_BATCH, k, d))

    analytic = encoder_mod.encode_backward(encoder_mod.encode(params, patches, means),
                                           g_f, selected, g_s)
    rows = np.arange(_ENCODER_BATCH)[:, None]

    def value_at(vec: np.ndarray) -> float:
        out = encoder_mod.encode(encoder_mod.EncoderParams(vec, d, d_in), patches, means)
        return float(np.sum(g_f * out.image_feature)
                     + np.sum(g_s * out.patch_tokens[rows, selected]))

    numeric = finite_diff_grad(value_at, params.vec, STEP)
    return relative_error(analytic, numeric)


# name -> per-instance check returning a relative error
COMPONENTS = {
    "constraint_loss": _check_constraint,
    "prototype_loss": _check_prototype,
    "anchor_loss": _check_anchor,
    "encode_backward": _check_encoder,
}


def run_gradcheck(seed: int = 0, trials: int = 50) -> dict[str, float]:
    """Max relative error per component over ``trials`` random instances."""
    check_fields({"seed": seed, "trials": trials}, [
        ("trials", trials >= 1, ">= 1"),
        ("seed", 0 <= seed < MAX_SEED, f"in {SEED_RANGE}")])
    results: dict[str, float] = {}
    for name, check in COMPONENTS.items():
        rng = np.random.Generator(np.random.Philox(key=np.array(
            [seed, _component_key(name)], dtype=np.uint64)))
        worst = 0.0
        for _ in range(trials):
            worst = max(worst, check(rng))
        results[name] = worst
    return results


def _component_key(name: str) -> int:
    # stable small integers so the stream layout never depends on dict order
    return 1 + sorted(COMPONENTS).index(name)


def format_report(results: dict[str, float], trials: int) -> str:
    lines = [f"gradient check: {trials} trials per component, tolerance {TOLERANCE:g}"]
    for name in COMPONENTS:
        err = results[name]
        status = "PASS" if err < TOLERANCE else "FAIL"
        lines.append(f"{status} {name}: max relative error {err:.3e}")
    return "\n".join(lines)
