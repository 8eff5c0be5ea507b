"""Finite-difference verification of every analytic gradient.

Each component check builds a random instance (unit-Gaussian features,
normalized), evaluates the analytic gradient, and compares it against
the central-difference oracle from :mod:`tokmem.linalg` over all
differentiated inputs. The report text is deterministic for a fixed
seed.
"""

from __future__ import annotations

import numpy as np

from . import encoder as encoder_mod
from . import losses as losses_mod
from .linalg import finite_diff_grad, normalize_rows, relative_error
from .memory import PrototypeMemory

__all__ = ["COMPONENTS", "run_gradcheck", "format_report", "TOLERANCE", "STEP"]

TOLERANCE = 1e-4
STEP = 1e-5

_TEMPERATURES = (0.05, 0.2, 1.0)
_ENCODER_BATCH = 3


def _units(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return normalize_rows(rng.normal(size=(n, d)))


def _check_constraint(rng: np.random.Generator) -> float:
    """Compare against finite differences over the image feature, the
    positive token, and every negative token jointly."""
    d = int(rng.integers(4, 10))
    r = int(rng.integers(1, 8))
    temperature = float(rng.choice(_TEMPERATURES))
    f, pos = _units(rng, 2, d)
    negs = _units(rng, r, d)

    out = losses_mod.constraint_loss(f, pos, negs, temperature)
    analytic = np.concatenate([out.grad_image_feature, out.grad_tokens.ravel()])

    def value_at(x: np.ndarray) -> float:
        ff = x[:d]
        toks = x[d:].reshape(1 + r, d)
        return losses_mod.constraint_loss(ff, toks[0], toks[1:], temperature).value

    x0 = np.concatenate([f, pos, negs.ravel()])
    numeric = finite_diff_grad(value_at, x0, STEP)
    return relative_error(analytic, numeric)


def _check_prototype(rng: np.random.Generator) -> float:
    d = int(rng.integers(4, 10))
    c = int(rng.integers(2, 10))
    temperature = float(rng.choice(_TEMPERATURES))
    f = _units(rng, 1, d)[0]
    protos = PrototypeMemory(prototypes=_units(rng, c, d))
    label = int(rng.integers(0, c))

    out = losses_mod.prototype_loss(f, protos, label, temperature)

    def value_at(x: np.ndarray) -> float:
        return losses_mod.prototype_loss(x, protos, label, temperature).value

    numeric = finite_diff_grad(value_at, f, STEP)
    return relative_error(out.grad_image_feature, numeric)


def _check_anchor(rng: np.random.Generator) -> float:
    d = int(rng.integers(4, 10))
    k = int(rng.integers(1, 8))
    temperature = float(rng.choice(_TEMPERATURES))
    f, pos = _units(rng, 2, d)
    negs = _units(rng, k, d)

    out = losses_mod.anchor_loss(f, pos, negs, temperature)

    def value_at(x: np.ndarray) -> float:
        return losses_mod.anchor_loss(x, pos, negs, temperature).value

    numeric = finite_diff_grad(value_at, f, STEP)
    return relative_error(out.grad_image_feature, numeric)


def _check_encoder(rng: np.random.Generator) -> float:
    """Check the parameter gradient of a random linear functional of the
    encoder outputs over every parameter entry, summed over a batch of
    distinct patch stacks."""
    d = int(rng.integers(3, 6))
    d_in = int(rng.integers(3, 7))
    z = int(rng.integers(1, 4))
    num_patches = int(rng.integers(z, z + 5))
    params = encoder_mod.init_params(d, d_in, z, seed=int(rng.integers(0, 2**63)))
    patches = rng.normal(size=(_ENCODER_BATCH, num_patches, d_in))
    g_f = rng.normal(size=(_ENCODER_BATCH, d))
    g_t = rng.normal(size=(_ENCODER_BATCH, num_patches, d))

    grads = encoder_mod.encode_backward(params, patches, g_f, g_t)
    analytic = np.concatenate([grads.w_patch.ravel(), grads.w_cls.ravel(),
                               grads.w_part.ravel()])

    def value_at(vec: np.ndarray) -> float:
        p = encoder_mod.unflatten_params(vec, params)
        out = encoder_mod.encode(p, patches)
        return float(np.sum(g_f * out.image_feature) + np.sum(g_t * out.patch_tokens))

    numeric = finite_diff_grad(value_at, encoder_mod.flatten_params(params), STEP)
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
    if trials < 1:
        raise ValueError("trials must be >= 1")
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
