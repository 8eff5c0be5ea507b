#!/usr/bin/env python3
"""Loss-combination and outlier-strategy ablation on the reference task.

Trains every variant of ``VARIANTS`` on each seed's dataset and prints the
per-seed and mean mAP table. The first variant is the fresh-init encoder
that a 0-epoch ``train`` returns, the one every other variant starts from;
``--seeds 42`` prints the committed reference run's row.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tokmem import evaluate_encoder, generate, load_run_config, train
from tokmem.errors import ConfigError
from tokmem.training import TrainResult

SEEDS = (42, 43, 44, 45, 46)

# Each variant's overrides of the config's `train` section.
VARIANTS = {
    "fresh init": dict(epochs=0),
    "constraint": dict(weight_prototype=0.0, weight_anchor=0.0),
    "constraint+proto": dict(weight_anchor=0.0),
    "all": dict(),
    "all, no outlier negatives": dict(anchor_include_outliers=False),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad input: one stderr line and exit 2, as in the tokmem CLI
        print(f"error: {message}", file=sys.stderr)
        sys.exit(2)


class Run(NamedTuple):
    result: TrainResult
    seconds: float  # wall time of `train` alone
    mean_ap: float


def run_seed(cfg, seed: int) -> dict[str, Run]:
    """Every variant of ``VARIANTS``, trained with ``seed`` on the one
    dataset ``cfg.data`` generates at ``seed``, and scored on its split."""
    ds = generate(dataclasses.replace(cfg.data, seed=seed))
    runs = {}
    for name, overrides in VARIANTS.items():
        start = time.perf_counter()
        result = train(dataclasses.replace(cfg.train, seed=seed, **overrides), ds)
        seconds = time.perf_counter() - start
        runs[name] = Run(result, seconds, evaluate_encoder(result.params, ds, cfg.eval).mean_ap)
    return runs


def main() -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--config",
                        default=str(Path(__file__).resolve().parent.parent
                                    / "configs" / "reference.json"))
    parser.add_argument("--seeds", type=int, nargs="+", default=SEEDS)
    args = parser.parse_args()

    try:
        cfg = load_run_config(args.config)
        for i, seed in enumerate(args.seeds):
            dataclasses.replace(cfg.data, seed=seed).validate(ConfigError, lambda _: "`--seeds`")
            if seed in args.seeds[:i]:
                raise ConfigError(f"`--seeds` names seed {seed} twice")
    except (ConfigError, OSError) as exc:  # OSError: a directory or unreadable file
        parser.error(str(exc))

    table: dict[str, list[float]] = {name: [] for name in VARIANTS}
    for seed in args.seeds:
        for name, run in run_seed(cfg, seed).items():
            table[name].append(run.mean_ap)
        # the per-seed row calls fresh init "fresh"
        print(f"seed {seed}: " + " ".join(f"{name.removesuffix(' init')}={scores[-1]:.4f}"
                                          for name, scores in table.items()))

    print(f"\nmean over {len(args.seeds)} seeds:")
    for name, scores in table.items():
        print(f"  {name:28s} mAP={np.mean(scores):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
