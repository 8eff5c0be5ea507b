"""tokmem benchmark: CLI gen-data / train / eval time, memory and mAP.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reference --seed 42 --seconds 55 --trace 0

``--workload`` is one of ``reference``, ``scaled``, ``retrieval`` or
``all`` (``BENCHMARK.json`` lists the first two). The benchmark drives
the user-facing path, ``tokmem.cli.main([command, "--config", ...])``,
in a fresh worker process per repetition. With ``--trace 0`` it runs
``UNTRACED_WORKERS`` repetitions that share the ``--seconds`` between
them and prints the end-to-end metrics (medians over every sample); with
``--trace 1`` it alternates one-pass untraced and traced repetitions
until ``--seconds`` have passed and prints the per-layer metrics of the
traced ones. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import worker  # noqa: E402
from workloads import REFERENCE_CONFIG, WORKLOADS  # noqa: E402

THREADS = 1          # BLAS / OpenMP threads per worker; the pipeline is single-threaded
SLICE_S = 0.3        # time each command repeats for in every cycle of a worker
UNTRACED_WORKERS = 2  # fresh processes that share an untraced run's seconds
RUN_LIMIT_S = 170    # hard cap on one invocation, whatever --seconds asks for

END_TO_END_UNITS = {"setup_s": "s", "train_s": "s", "eval_s": "s",
                    "peak_rss_mb": "MB", "map": "fraction", "ok_frac": "fraction"}
PHASE_OF = {"setup_s": "gen-data", "train_s": "train", "eval_s": "eval"}
COUNT_UNITS = {"blobio.bytes": "B", "cluster.dbscan.dist_bytes": "B",
               "memory.top_k_negatives.rows_scanned": "count",
               "evaluate.rank_pairs": "count"}


def machine(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": THREADS, "seed": seed, "platform": platform.platform()}


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def _run_child(spec: str, timeout: float) -> dict:
    """One repetition; a crash, a timeout or unparsable output is an error."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), spec],
                              capture_output=True, text=True, env=_env(),
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"repetition timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"worker exited {proc.returncode} without a result"}
    if "error" in result:
        sys.stderr.write(proc.stderr[-2000:])
    return result


def _repetitions(root: Path, workload, seed: int, seconds: float, trace: bool,
                 scratch: Path) -> list[tuple[bool, dict]]:
    """Untraced, ``UNTRACED_WORKERS`` repetitions split ``seconds`` between
    them; with ``trace``, untraced repetitions of one pass and traced ones
    alternate until ``seconds`` pass, and each kind runs at least once."""
    start = time.perf_counter()
    reps: list[tuple[bool, dict]] = []
    spans_out = root / ".perfbench" / "trace" / f"{workload.name}-seed{seed}.jsonl"
    while True:
        traced = trace and len(reps) % 2 == 1
        elapsed = time.perf_counter() - start
        budget = 0.0 if trace else (seconds - elapsed) / (UNTRACED_WORKERS - len(reps))
        work_dir = scratch / f"rep{len(reps)}"
        spec = worker.make_spec(root, workload, seed, work_dir, trace=traced,
                                budget_s=max(budget, 0.0), slice_s=SLICE_S,
                                spans_out=spans_out if traced else None)
        reps.append((traced, _run_child(spec, RUN_LIMIT_S - elapsed)))
        shutil.rmtree(work_dir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        mean_rep = elapsed / len(reps)
        if trace:
            done = len(reps) >= 2 and elapsed + mean_rep / 2 >= seconds
        else:
            done = len(reps) >= UNTRACED_WORKERS
        if done or elapsed + mean_rep > RUN_LIMIT_S:
            return reps


def _check_repeats(reps: list[tuple[bool, dict]]) -> None:
    """Every repetition of one commit and seed must write identical bytes."""
    first = None
    for _, result in reps:
        if "error" in result:
            continue
        if first is None:
            first = result["digests"]
        elif result["digests"] != first:
            result["error"] = "outputs differ from the first repetition"


def _median(values: list[float]) -> float:
    if not values:
        raise RuntimeError("no repetition produced this measurement")
    return statistics.median(values)


def end_to_end(reps: list[tuple[bool, dict]]) -> tuple[dict, dict]:
    results = [r for traced, r in reps if not traced]
    samples = {name: [t for r in results for t in r.get(phase, [])]
               for name, phase in PHASE_OF.items()}
    samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in results if "peak_rss_mb" in r]
    samples["map"] = [r["map"] for r in results if "map" in r]
    values = {name: _median(v) for name, v in samples.items()}
    values["ok_frac"] = sum("error" not in r for r in results) / len(results)
    spread = {name: {"n": len(v), "min": min(v), "median": values[name], "max": max(v)}
              for name, v in samples.items()}
    return values, spread


def per_layer(reps: list[tuple[bool, dict]]) -> dict:
    traced = [r for t, r in reps if t and "layers" in r]
    untraced = [r for t, r in reps if not t]
    values: dict = {}
    for name in (layertrace.ROOT,) + layertrace.LAYERS:
        values[f"{name}.calls"] = (_median([r["layers"][name]["calls"] for r in traced]), "count")
        values[f"{name}.self_s"] = (_median([r["layers"][name]["self_s"] for r in traced]), "s")
    root_total = [r["layers"][layertrace.ROOT]["total_s"] for r in traced]
    values[f"{layertrace.ROOT}.total_s"] = (_median(root_total), "s")
    for name, unit in COUNT_UNITS.items():
        values[name] = (_median([r["counts"][name] for r in traced]), unit)
    values["cluster.clustered_frac"] = (_median([r["clustered_frac"] for r in traced]),
                                        "fraction")
    layers = traced[0]["layers"]
    proto_calls = layers["losses.prototype_loss"]["calls"]
    values["losses.anchor_term_frac"] = (
        layers["losses.anchor_loss"]["calls"] / proto_calls if proto_calls else 0.0,
        "fraction")

    def train_eval(r, reduce):
        return reduce(r.get("train", [])) + reduce(r.get("eval", []))
    values["trace_overhead_s"] = (
        _median([train_eval(r, _median) for r in traced])
        - _median([train_eval(r, _median) for r in untraced if "train" in r and "eval" in r]),
        "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_workload(root: Path, workload, seed: int, seconds: float, trace: bool) -> dict:
    """One workload's result object, as printed on the last stdout line."""
    scratch = root / ".perfbench" / "work" / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        reps = _repetitions(root, workload, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    _check_repeats(reps)
    failed = [r["error"] for _, r in reps if "error" in r]
    for error in failed:
        print(f"{workload.name}: failed repetition: {error}", file=sys.stderr)
    if trace:
        metrics = per_layer(reps)
        samples = {"traced": sum(t for t, _ in reps), "untraced": sum(not t for t, _ in reps)}
    else:
        values, samples = end_to_end(reps)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print("samples " + json.dumps({"workload": workload.name, **samples}))
    return {"correct": not failed, "attempted": len(reps), "failed": len(failed),
            "metrics": metrics}


def _parse(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None, workloads: dict = WORKLOADS,
         root: Path = ROOT) -> int:
    args = _parse(argv, workloads)
    missing = [p for p in (Path("src/tokmem/cli.py"), REFERENCE_CONFIG)
               if not (root / p).is_file()]
    if missing:
        print(f"error: {root} is not a tokmem checkout (missing "
              f"{', '.join(map(str, missing))})", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine(args.seed)))
    names = list(workloads) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(root, workloads[name], args.seed, args.seconds,
                                         bool(args.trace))
        except RuntimeError as exc:  # no repetition measured anything
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if len(names) == 1:
        if not results[names[0]]["metrics"]:
            return 1
        final = results[names[0]]
    else:
        for name, result in results.items():
            print(f"result {name} " + json.dumps(result))
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": value for name, r in results.items()
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
