"""One benchmark repetition in a fresh process: gen-data, train, eval.

Usage: ``python3 perfbench/worker.py '<json spec>'`` (``run.py`` builds the
spec). The worker imports tokmem from the checkout's ``src/``, writes the
run-configs of the run's datasets (``workloads.dataset_seeds``), calls
``tokmem.cli.main`` for each command, checks every output, and prints
one JSON result as its last stdout line. A fresh process per repetition
makes its peak resident set that of one workload.

Each command first runs once, in order, on every dataset, and the peak
resident set is read after that pass. Untraced, the worker then runs
cycles, taking the datasets in turn, until its ``budget_s`` is spent: in
each cycle every command repeats, in order, until it has run
``slice_s`` seconds (at least once). Short commands so collect many
samples, spread evenly over the whole budget rather than bunched into
one window, which keeps their medians from following the host's changes
of speed. Every repeat on a dataset must write byte-identical outputs.
Traced, the first pass runs under a :class:`layertrace.Tracer`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layertrace  # noqa: E402
from workloads import Workload, dataset_seeds, run_config  # noqa: E402

COMMANDS = ("gen-data", "train", "eval")
OUTPUTS = {
    "gen-data": ("dataset.json", "dataset.f32"),
    "train": ("checkpoint.json", "checkpoint.f32", "train_log.jsonl"),
    "eval": ("metrics.json",),
}
LOSS_KEYS = ("mean_constraint", "mean_proto", "mean_anchor", "mean_total")


class CheckFailed(Exception):
    """An output check failed; the repetition counts as failed."""


def make_spec(root: Path, workload: Workload, seed: int, work_dir: Path, *,
              trace: bool, budget_s: float, slice_s: float,
              spans_out: Path | None = None) -> str:
    return json.dumps({"root": str(root), "workload": asdict(workload), "seed": seed,
                       "work_dir": str(work_dir), "trace": trace,
                       "budget_s": budget_s, "slice_s": slice_s,
                       "spans_out": None if spans_out is None else str(spans_out)})


def import_cli(root: Path):
    """Import tokmem.cli from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    from tokmem import cli
    if src not in Path(cli.__file__).resolve().parents:
        raise CheckFailed(f"imported tokmem from {cli.__file__}, not from {src}")
    return cli


@dataclass(frozen=True)
class Dataset:
    """One dataset of a run: its run-config and the directory it writes to."""
    index: int
    config: Path
    work_dir: Path
    num_samples: int


def _digest(work_dir: Path, command: str) -> str:
    h = hashlib.sha256()
    for name in OUTPUTS[command]:
        h.update((work_dir / name).read_bytes())
    return h.hexdigest()


def _run_command(cli, command: str, data: Dataset, tracer, result: dict) -> None:
    """Time one CLI call and append its time; every repeat of a command
    on a dataset must write the same bytes as its first call."""
    argv = [command, "--config", str(data.config)]
    start = time.perf_counter()
    if tracer is None:
        code = cli.main(argv)
    else:
        with tracer.span():
            code = cli.main(argv)
    result.setdefault(command, []).append(time.perf_counter() - start)
    if code != 0:
        raise CheckFailed(f"{command} exited with code {code}")
    digest = _digest(data.work_dir, command)
    if result["digests"].setdefault(f"{command}#{data.index}", digest) != digest:
        raise CheckFailed(f"{command} outputs differ between repeats")


def _read_outputs(data: Dataset) -> tuple[float, list[dict]]:
    """One dataset's mAP and train-log records."""
    map_value = json.loads((data.work_dir / "metrics.json").read_text())["mAP"]
    records = [json.loads(line) for line in
               (data.work_dir / "train_log.jsonl").read_text().splitlines()]
    return map_value, records


def _check_outputs(map_value, records: list[dict], workload: Workload) -> None:
    if not (isinstance(map_value, float) and math.isfinite(map_value)):
        raise CheckFailed(f"mAP {map_value!r} is not a finite number")
    if map_value < workload.map_floor:
        raise CheckFailed(f"mAP {map_value:.4f} below floor {workload.map_floor}")
    for record in records:
        for key in LOSS_KEYS:
            value = record[key]
            if value is not None and not math.isfinite(value):
                raise CheckFailed(f"epoch {record['epoch']} {key} is {value}")


def _clustered_frac(records: list[dict], num_samples: int) -> float:
    clustered = [1.0 - record["outliers"] / num_samples for record in records]
    return sum(clustered) / len(clustered) if clustered else 0.0


def _cycles(cli, datasets: list[Dataset], result: dict, start: float,
            budget_s: float, slice_s: float) -> None:
    """Repeat every command, one slice each per cycle, while the next cycle
    should still end within ``budget_s`` of ``start``. Cycles take the
    datasets in turn; the first pass, over all of them, estimates the
    first cycle."""
    cycle_s = (time.perf_counter() - start) / len(datasets)
    cycle = 0
    while time.perf_counter() + cycle_s - start <= budget_s:
        cycle_start = time.perf_counter()
        data = datasets[cycle % len(datasets)]
        for command in COMMANDS:
            slice_start = time.perf_counter()
            while True:
                _run_command(cli, command, data, None, result)
                if time.perf_counter() - slice_start >= slice_s:
                    break
        cycle_s = time.perf_counter() - cycle_start
        cycle += 1


def _write_configs(root: Path, workload: Workload, seed: int,
                   work_dir: Path) -> list[Dataset]:
    datasets = []
    for index, data_seed in enumerate(dataset_seeds(workload, seed)):
        out_dir = work_dir / f"data{index}"
        out_dir.mkdir(parents=True, exist_ok=True)
        doc = run_config(root, workload, data_seed, out_dir)
        config = out_dir / "config.json"
        config.write_text(json.dumps(doc, indent=2) + "\n")
        num_samples = doc["data"]["num_identities"] * doc["data"]["samples_per_identity"]
        datasets.append(Dataset(index, config, out_dir, num_samples))
    return datasets


def run(spec: dict, result: dict) -> None:
    """Fill ``result`` as the repetition proceeds, so a failed check still
    leaves the timings that were measured."""
    root = Path(spec["root"])
    workload = Workload(**spec["workload"])
    datasets = _write_configs(root, workload, spec["seed"], Path(spec["work_dir"]))

    cli = import_cli(root)
    layertrace.assert_clean()
    tracer = layertrace.Tracer() if spec["trace"] else None
    result["digests"] = {}
    start = time.perf_counter()
    with tracer or contextlib.nullcontext(), contextlib.redirect_stdout(io.StringIO()):
        for data in datasets:
            for command in COMMANDS:
                _run_command(cli, command, data, tracer, result)
        # Peak memory of the first pass; the cycles below only add samples.
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                 * 1024 / 1e6)
        if tracer is None:
            _cycles(cli, datasets, result, start, spec["budget_s"], spec["slice_s"])
    layertrace.assert_clean()
    if tracer is not None:
        result["layers"] = tracer.layer_times()
        result["counts"] = {name: tracer.counts[name] for name in layertrace.COUNT_NAMES}
        if spec["spans_out"]:
            tracer.write_spans(Path(spec["spans_out"]))
    outputs = [_read_outputs(data) for data in datasets]
    result["map"] = statistics.fmean(map_value for map_value, _ in outputs)
    result["clustered_frac"] = statistics.fmean(
        _clustered_frac(records, data.num_samples)
        for data, (_, records) in zip(datasets, outputs))
    for map_value, records in outputs:
        _check_outputs(map_value, records, workload)


def main(argv: list[str]) -> int:
    result: dict = {}
    try:
        run(json.loads(argv[1]), result)
    except Exception as exc:  # the repetition's boundary: report, never hang
        traceback.print_exc(file=sys.stderr)
        result["error"] = f"{type(exc).__name__}: {exc}"
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
