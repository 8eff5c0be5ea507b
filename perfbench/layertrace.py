"""Outside-in layer tracing for tokmem.

A :class:`Tracer` replaces each listed public function with a wrapper
at the module attribute its callers look up (``training`` calls
``encoder_mod.encode``, ``evaluate_retrieval`` calls the module global
``rank_gallery``; both resolve through the module's namespace), so no
file under ``src/`` changes. Each wrapper records a span (name, start,
end, parent span) in memory; self time is a span's duration minus the
time its child spans cover. Computed counts (bytes, rows, pairs) are
taken from each call's arguments or result.

A listed function that no longer exists is skipped and reports zero
calls. :meth:`Tracer.restore` puts every original back and then fails
loudly if any wrapper is still reachable; :func:`assert_clean` makes the
same check before an untraced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path

PACKAGE = "tokmem"
ROOT = "cli.main"   # one root span per CLI call; its self time is the residual
MARK = "__perfbench_original__"

LAYERS = (
    "synth.generate",
    "blobio.write_pair", "blobio.read_pair",
    "training.encode_dataset", "training.train",
    "encoder.encode", "encoder.encode_backward",
    "cluster.dbscan",
    "memory.build_instance_memory", "memory.compute_prototypes",
    "memory.hardest_positive", "memory.top_k_negatives",
    "memory.momentum_update_instance", "memory.momentum_update_prototype",
    "losses.select_constraint_tokens", "losses.constraint_loss",
    "losses.prototype_loss", "losses.anchor_loss", "losses.total_loss",
    "losses.scatter_token_gradients",
    "evaluate.evaluate_retrieval", "evaluate.rank_gallery",
    "evaluate.average_precision", "evaluate.cmc_curve",
)


def _count_write(counts, args, kwargs, result):
    counts["blobio.bytes"] += Path(result[1]).stat().st_size


def _count_read(counts, args, kwargs, result):
    counts["blobio.bytes"] += len(result[1])


def _count_dbscan(counts, args, kwargs, result):
    n = len(args[0])
    counts["cluster.dbscan.dist_bytes"] += 8 * n * n


def _count_top_k(counts, args, kwargs, result):
    counts["memory.top_k_negatives.rows_scanned"] += len(args[0].features)


def _count_rank_pairs(counts, args, kwargs, result):
    counts["evaluate.rank_pairs"] += len(args[0]) * len(args[2])


COUNTERS = {
    "blobio.write_pair": _count_write,
    "blobio.read_pair": _count_read,
    "cluster.dbscan": _count_dbscan,
    "memory.top_k_negatives": _count_top_k,
    "evaluate.evaluate_retrieval": _count_rank_pairs,
}

COUNT_NAMES = ("blobio.bytes", "cluster.dbscan.dist_bytes",
               "memory.top_k_negatives.rows_scanned", "evaluate.rank_pairs")


def _split(layer: str) -> tuple[str, str]:
    module, _, attr = layer.rpartition(".")
    return f"{PACKAGE}.{module}", attr


def assert_clean(layers=LAYERS) -> None:
    """Raise RuntimeError if any listed module attribute is still a wrapper."""
    left = []
    for layer in layers:
        module_name, attr = _split(layer)
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        if hasattr(getattr(module, attr, None), MARK):
            left.append(layer)
    if left:
        raise RuntimeError(f"trace wrappers left installed: {', '.join(left)}")


class Tracer:
    """Wraps the listed layers, records spans, and restores the originals."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        assert_clean(self.layers)
        for layer in self.layers:
            module_name, attr = _split(layer)
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        assert_clean(self.layers)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    @contextlib.contextmanager
    def span(self):
        """The root span around one CLI call."""
        index = len(self.spans)
        self.spans.append([ROOT, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer: str, fn):
        count = COUNTERS.get(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Kept lean: this runs ~10^5 times per traced reference train.
            index = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def layer_times(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "self_s", "total_s"}}`` for the root and every
        listed layer; a layer never called reports zeros."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for name in (ROOT,) + self.layers}
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered
            entry["total_s"] += end - start
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON object per span; ``parent`` is the index of the causing span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
