#!/usr/bin/env python3
"""Diagnostics for the limit-process simulators against closed forms.

Emits three CSVs:
  zero_probability.csv   P(Grenander limit == 0) under uniform truths,
                         swept over support sizes, from 2 * --reps draws
                         each (the exact value is 1/(y+1); the worked
                         value at y=9 is 0.1);
  touchpoints.csv        Monte Carlo mean touchpoint counts vs harmonic
                         sums for a range of walk lengths;
  efficiency.csv         closed-form limit moments for the study truths
                         next to Monte Carlo estimates from limit draws.

Usage:
  python3 scripts/limit_diagnostics.py --outdir results
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from monopmf import (
    TruthSpec,
    asymptotics,
    draw_limit_batch,
    gren_zero_probability,
    harmonic,
    touch_count,
)
from monopmf.rng import make_generator

STUDY_TRUTHS = [
    TruthSpec.parse("uniform:5"),
    TruthSpec.parse("geometric:0.75"),
    TruthSpec.parse("mixture:0.2:3,0.8:7"),
    TruthSpec.parse("mixture:0.25:1,0.2:3,0.15:5,0.4:7"),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results", type=Path)
    ap.add_argument("--reps", default=10**5, type=int)
    ap.add_argument("--seed", default=0, type=int)
    args = ap.parse_args()
    if args.reps // 2 < 2:
        ap.error("--reps must be at least 4: touchpoints.csv uses --reps // 2 walks per length")
    args.outdir.mkdir(parents=True, exist_ok=True)

    with open(args.outdir / "zero_probability.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "estimate", "reps"])
        zero_reps = 2 * args.reps
        for y in range(1, 13):
            est = gren_zero_probability(y, zero_reps, args.seed + y)
            w.writerow([y, f"{est:.6f}", zero_reps])
            print(f"P(gren limit == 0 | uniform 0..{y}) = {est:.4f}")

    with open(args.outdir / "touchpoints.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "mc_mean", "harmonic_sum", "reps"])
        reps = args.reps // 2
        for k in (2, 3, 4, 6, 10):
            rng = make_generator(args.seed + 100 + k)
            counts = touch_count(rng.standard_normal((reps, k)))
            w.writerow([k, f"{np.mean(counts):.6f}", f"{harmonic(k):.6f}", reps])
            print(f"k={k}: mean touches {np.mean(counts):.4f} vs H_k {harmonic(k):.4f}")

    with open(args.outdir / "efficiency.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["truth", "e_sq_l2_emp", "e_sq_l2_gren", "mc_sq_l2_emp", "mc_sq_l2_gren",
             "e_hell_emp", "e_hell_gren", "e_l1_emp"]
        )
        for spec in STUDY_TRUTHS:
            truth = spec.to_pmf()
            rep = asymptotics(truth)
            y, _, y_gren = draw_limit_batch(truth, args.reps, args.seed + 200)
            mc_emp = float((y**2).sum(axis=1).mean())
            mc_gren = float((y_gren**2).sum(axis=1).mean())
            w.writerow(
                [spec.label]
                + [f"{v:.6f}" for v in (rep.e_sq_l2_emp, rep.e_sq_l2_gren, mc_emp, mc_gren,
                                        rep.e_hell_emp, rep.e_hell_gren, rep.e_l1_emp)]
            )
            print(
                f"{spec.label}: E||Y||^2 {rep.e_sq_l2_emp:.4f} (mc {mc_emp:.4f}), "
                f"E||Y_gren||^2 {rep.e_sq_l2_gren:.4f} (mc {mc_gren:.4f})"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
