#!/usr/bin/env python3
"""Monte Carlo comparison of the three pmf estimators.

For each study truth and sample size, draws `reps` samples, computes the
empirical, rearranged, and Grenander estimates, and records Hellinger, l1,
and l2 distances from the truth.  Writes the files of `monopmf simulate`
(a raw CSV, a summary CSV and a JSON config record) per (truth, n) pair;
the raw files carry the data behind box plots.

Usage:
  python3 scripts/estimator_comparison.py --outdir results --reps 1000
"""

import argparse
from pathlib import Path

from monopmf import ExperimentConfig, TruthSpec, run_experiment
from monopmf.cli import write_experiment

STUDY_TRUTHS = [
    TruthSpec.parse("uniform:5"),
    TruthSpec.parse("geometric:0.75"),
    TruthSpec.parse("mixture:0.2:3,0.8:7"),
    TruthSpec.parse("mixture:0.15:3,0.1:7,0.75:11"),
    TruthSpec.parse("mixture:0.25:1,0.2:3,0.15:5,0.4:7"),
]


def slug(label: str) -> str:
    return label.replace(":", "_").replace(",", "+")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results", type=Path)
    ap.add_argument("--reps", default=1000, type=int)
    ap.add_argument("--sizes", default="20,100", help="comma list of sample sizes")
    ap.add_argument("--seed", default=0, type=int)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    sizes = [int(s) for s in args.sizes.split(",")]
    for spec in STUDY_TRUTHS:
        for n in sizes:
            cfg = ExperimentConfig(truth=spec, n=n, reps=args.reps, seed=args.seed)
            summary = run_experiment(cfg)
            base = args.outdir / f"compare_{slug(spec.label)}_n{n}"
            write_experiment(str(base), summary)
            print(f"{spec.label} n={n}: wrote {base}_raw.csv / _summary.csv / _meta.json")
            for metric in cfg.metrics:
                row = ", ".join(
                    f"{est.value} {summary.stat(est, metric).mean:.4f}" for est in cfg.estimators
                )
                print(f"  mean {metric.label}: {row}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
