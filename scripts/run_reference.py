#!/usr/bin/env python3
"""End-to-end reference experiment: generate data, train, evaluate, and
compare against the fresh-init encoder on the same query/gallery split.
The fresh encoder is what a 0-epoch ``train`` returns: the one training
starts from."""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tokmem import evaluate_encoder, generate, load_run_config, train


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config",
                        default=str(Path(__file__).resolve().parent.parent
                                    / "configs" / "reference.json"))
    args = parser.parse_args()

    cfg = load_run_config(args.config)
    ds = generate(cfg.data)
    print(f"dataset: {cfg.data.num_samples} samples, {cfg.data.num_identities} identities")

    start = time.time()
    result = train(cfg.train, ds)
    print(f"trained {cfg.train.epochs} epochs in {time.time() - start:.1f}s")
    last = result.log[-1]
    print(f"final epoch: total={last['mean_total']:.4f} C={last['C']} "
          f"outliers={last['outliers']}")

    trained = evaluate_encoder(result.params, ds, cfg.eval)
    fresh = evaluate_encoder(train(dataclasses.replace(cfg.train, epochs=0), ds).params,
                             ds, cfg.eval)
    print(f"trained : mAP={trained.mean_ap:.4f} rank1={trained.cmc[0]:.4f}")
    print(f"fresh   : mAP={fresh.mean_ap:.4f} rank1={fresh.cmc[0]:.4f}")
    print(f"margin  : {trained.mean_ap - fresh.mean_ap:+.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
