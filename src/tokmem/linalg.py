"""Dense vector and grouping helpers shared by every other module.

All in-memory arithmetic is double precision; file I/O downcasts to
float32 at the serialization boundary only. Everything here is a pure
function and thread-safe.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable

import numpy as np

__all__ = [
    "DegenerateNormWarning",
    "row_norms",
    "normalize_rows",
    "finite_diff_grad",
    "relative_error",
    "group_runs",
    "gather_runs",
]

# patch stacks per pass of encoder.patch_means and synth.generate: 512 KB of
# float32 patches at the reference shape (16 x 16), which a 2 MB L2 cache
# holds: patch_means took 6.3 ms against 9.6 ms for all N = 6,000 stacks in
# one pass, on a 2-core Xeon. Also the rows per pass of
# encoder.image_feature's normalization and memory.compute_prototypes'
# gather, whose times did not change from 512 rows to all N = 6,000.
CHUNK = 512


class DegenerateNormWarning(UserWarning):
    """A zero vector could not be normalized and was returned unchanged."""


def row_norms(m: np.ndarray) -> np.ndarray:
    """The L2 norm of each row along the last axis, keeping that axis as 1:
    what ``np.linalg.norm(m, axis=-1, keepdims=True)`` computes for real
    float input, bit for bit, without its argument dispatch."""
    return np.sqrt(np.add.reduce(m * m, axis=-1, keepdims=True))


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """L2-normalize a vector, or each row along the last axis, as a new
    float64 array.

    Zero rows are returned unchanged with a :class:`DegenerateNormWarning`;
    degenerate inputs must not abort a training run.
    """
    m = np.asarray(m, dtype=np.float64)
    norms = row_norms(m)
    tiny = norms < 1e-150
    if tiny.any():
        # Squares this small are subnormal and lose precision: divide such
        # rows by their largest entry first. Other rows keep their bits.
        peak = np.where(tiny, np.abs(m).max(axis=-1, keepdims=True, initial=0.0), 1.0)
        if (peak == 0.0).any():
            warnings.warn("cannot normalize zero rows; returning them unchanged",
                          DegenerateNormWarning, stacklevel=2)
        m = m / np.where(peak == 0.0, 1.0, peak)
        norms = row_norms(m)
        norms[norms == 0.0] = 1.0
    return m / norms


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                     h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient ``(f(x + h e_i) - f(x - h e_i)) / (2h)``.

    This is the numerical oracle every analytic gradient in the package
    is checked against. Raises ValueError naming the coordinate if ``f``
    evaluates to a non-finite value.
    """
    x = np.asarray(x, dtype=np.float64)
    if not h > 0.0:  # NaN fails too
        raise ValueError("step h must be positive")
    grad = np.empty(x.shape, dtype=np.float64)
    for i in range(x.size):
        xp = x.copy()
        xp.flat[i] += h
        xm = x.copy()
        xm.flat[i] -= h
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function value at coordinate {i}")
        grad.flat[i] = (fp - fm) / (2.0 * h)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """``||a - b|| / max(||a||, ||b||, 1e-12)``, the gradient-check metric."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


def group_runs(keys: np.ndarray, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the positions of ``keys`` by value with one stable argsort.

    Returns ``(order, lo, hi)``: ``order[lo[i]:hi[i]]`` are the positions
    where ``keys == values[i]``, ascending, and empty where there are none.
    """
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    return (order, np.searchsorted(ordered, values, side="left"),
            np.searchsorted(ordered, values, side="right"))


def gather_runs(order: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs ``order[lo[i]:hi[i]]`` laid end to end.

    Returns ``(rows, members, starts)``: ``members[j]`` comes from run
    ``rows[j]``, and run i fills ``members[starts[i]:starts[i] + hi[i] - lo[i]]``.
    """
    counts = hi - lo
    starts = np.cumsum(counts) - counts
    at = np.repeat(lo - starts, counts)
    at += np.arange(len(at))  # in place: one gather-sized array fewer at once
    return np.repeat(np.arange(len(counts)), counts), order[at], starts
