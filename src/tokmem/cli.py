"""Command-line front end.

Subcommands: ``gen-data``, ``train``, ``eval``, ``gradcheck``. Exit
codes: 0 success, 1 check failure, 2 config/input or usage error (an
input too large for the available memory included), 3 runtime numeric
failure. Every command is deterministic given its config file, which
names every artifact it reads or writes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import blobio
from . import encoder as encoder_mod
from . import evaluate as evaluate_mod
from . import gradcheck as gradcheck_mod
from . import synth as synth_mod
from . import training as train_mod
from .config import RunConfig, check_distinct_files, load_run_config
from .errors import ConfigError, DataFormatError, NumericError, check_made_by

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERIC_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error: one line and exit 2, subparsers included
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_INPUT_ERROR)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: each ``parse_args`` call
    returns a new namespace, and the parser keeps nothing between calls."""
    parser = _Parser(
        prog="tokmem",
        description="token-constrained contrastive learning on synthetic identity data")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a dataset file pair")
    gen.add_argument("--config", required=True)

    tr = sub.add_parser("train", help="train the encoder and write a checkpoint")
    tr.add_argument("--config", required=True)

    ev = sub.add_parser("eval", help="evaluate a checkpoint with retrieval metrics")
    ev.add_argument("--config", required=True)
    ev.add_argument("--per-query-csv", type=Path, help="also write per-query average precision")

    gc = sub.add_parser("gradcheck", help="verify analytic gradients numerically")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--trials", type=int, default=50)
    return parser


def _cmd_gen_data(args) -> int:
    cfg = load_run_config(args.config)
    synth_mod.save_dataset(synth_mod.generate(cfg.data), cfg.paths.dataset)
    print(f"wrote {cfg.data.num_samples} samples ({cfg.data.num_identities} identities) "
          f"to {cfg.paths.dataset}.json / {cfg.paths.dataset}.f32")
    return EXIT_OK


def _load_dataset(cfg: RunConfig) -> synth_mod.SynthDataset:
    """The dataset at ``paths.dataset``; ConfigError unless its spec is ``cfg.data``."""
    ds = synth_mod.load_dataset(cfg.paths.dataset)
    check_made_by({"data": vars(ds.spec)}, {"data": cfg.data},
                  f"dataset {cfg.paths.dataset}", "gen-data")
    return ds


def _cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    ds = _load_dataset(cfg)
    try:
        result = train_mod.train(cfg.train, ds)
    except NumericError as exc:
        # strict JSON: a non-finite float is written as "nan", "inf" or "-inf"
        diag = {key: repr(value) if isinstance(value, float) and not math.isfinite(value)
                else value for key, value in exc.diagnostics.items()}
        text = json.dumps(diag, indent=2, sort_keys=True, allow_nan=False) + "\n"
        blobio.write_atomic([(cfg.paths.diagnostics, text.encode())])
        print(f"error: {exc} (diagnostics in {cfg.paths.diagnostics})", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    log = "".join(json.dumps(record) + "\n" for record in result.log)
    encoder_mod.save_checkpoint(result.params, cfg.paths.checkpoint,
                                {"data": cfg.data, "train": cfg.train},
                                with_files=[(cfg.paths.log, log.encode())])
    if result.log:
        last = result.log[-1]
        print(f"epoch {last['epoch']}: total={_fmt(last['mean_total'])} "
              f"constraint={_fmt(last['mean_constraint'])} "
              f"proto={_fmt(last['mean_proto'])} anchor={_fmt(last['mean_anchor'])} "
              f"C={last['C']} outliers={last['outliers']} lr={last['lr']:g}")
    else:
        print("no epochs run")
    print(f"checkpoint written to {cfg.paths.checkpoint}.json / .f32")
    return EXIT_OK


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def _cmd_eval(args) -> int:
    cfg = load_run_config(args.config)  # checks the config's own paths
    if args.per_query_csv is not None:
        check_distinct_files(cfg.paths, args.config, args.per_query_csv)
    ds = _load_dataset(cfg)
    params = encoder_mod.load_checkpoint(cfg.paths.checkpoint,
                                         {"data": cfg.data, "train": cfg.train})
    result = evaluate_mod.evaluate_encoder(params, ds, cfg.eval)
    evaluate_mod.write_metrics(result, cfg.paths.metrics, per_query_csv=args.per_query_csv)
    print(f"mAP={result.mean_ap:.4f} rank1={result.cmc[0]:.4f} "
          f"queries={result.num_queries} excluded={result.excluded_queries}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    results = gradcheck_mod.run_gradcheck(seed=args.seed, trials=args.trials)
    print(gradcheck_mod.format_report(results, args.trials))
    failures = [n for n, err in results.items() if err >= gradcheck_mod.TOLERANCE]
    if failures:
        print(f"gradcheck failed for: {', '.join(failures)} (seed {args.seed})",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DataFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:  # an input too large for this machine, e.g. a dataset shape
        print(f"error: out of memory ({exc})" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
