#!/usr/bin/env python3
"""Loss-combination and outlier-strategy ablation on the reference task.

Trains four variants (constraint only; constraint+prototype; all three;
all three without outlier negatives) across several seeds and prints the
per-seed and mean mAP table, beside the fresh-init encoder that a
0-epoch ``train`` returns.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tokmem import evaluate_encoder, generate, load_run_config, train

VARIANTS = {
    "constraint": dict(weight_prototype=0.0, weight_anchor=0.0),
    "constraint+proto": dict(weight_anchor=0.0),
    "all": dict(),
    "all, no outlier negatives": dict(anchor_include_outliers=False),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config",
                        default=str(Path(__file__).resolve().parent.parent
                                    / "configs" / "reference.json"))
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[42, 43, 44, 45, 46])
    args = parser.parse_args()

    cfg = load_run_config(args.config)
    table: dict[str, list[float]] = {name: [] for name in VARIANTS}
    fresh_scores: list[float] = []

    for seed in args.seeds:
        data_spec = dataclasses.replace(cfg.data, seed=seed)
        ds = generate(data_spec)

        def retrieval(**overrides):
            variant_cfg = dataclasses.replace(cfg.train, seed=seed, **overrides)
            return evaluate_encoder(train(variant_cfg, ds).params, ds, cfg.eval).mean_ap

        fresh_scores.append(retrieval(epochs=0))
        for name, overrides in VARIANTS.items():
            table[name].append(retrieval(**overrides))
        print(f"seed {seed}: fresh={fresh_scores[-1]:.4f} "
              + " ".join(f"{name}={table[name][-1]:.4f}" for name in VARIANTS))

    print(f"\nmean over {len(args.seeds)} seeds:")
    print(f"  {'fresh init':28s} mAP={np.mean(fresh_scores):.4f}")
    for name, scores in table.items():
        print(f"  {name:28s} mAP={np.mean(scores):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
