#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

1. A tiny-length run of every workload, untraced and traced, with every
   output check; each must pass, and the traced run must show the call
   counts the code implies (sample once per replicate, distance nine times
   per replicate on mc-small and never on risk-large, mixing_estimate only
   in mixing-study).
2. The benchmark's closed forms agree with monopmf's own, and
   BENCHMARK.json names the workloads and metrics run.py reports.
3. Corrupted outputs (a Grenander distance above the empirical one, a
   wrong summary mean, a limit kernel that sorts instead of pooling, a
   risk above the empirical bound, a mixing error that grows with n, a
   changed byte) are each reported as failures.
Exits non-zero on the first failed expectation.
"""

import csv
import json
import shutil
import sys
import time

import numpy as np

import run
import workloads
from workloads import WORKLOADS

SEED = 7


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        sys.exit(1)


def tiny_pass():
    for name, w in WORKLOADS.items():
        for trace in (0, 1):
            result, record = run.run(name, SEED, 0, trace, tiny=True)
            problems = [p for s in record["samples"] for p in s["problems"]] + record["pooled_problems"]
            expect(result["correct"] and result["failed"] == 0 and not problems,
                   f"{name} trace={trace}: {result['attempted']} samples pass every check {problems or ''}")
            if not trace:
                continue
            m = {k: v["value"] for k, v in result["metrics"].items()}
            reps = w.tiny_reps
            calls = {k: m[k] for k in ("pmf.sample.calls", "metrics.distance.calls", "operators.mixing_estimate.calls",
                                       "operators.gren.calls", "cli.write.calls")}
            expected = {
                "mc-small": {"pmf.sample.calls": reps, "metrics.distance.calls": 9 * reps,
                             "operators.mixing_estimate.calls": 0, "operators.gren.calls": reps, "cli.write.calls": 3},
                "risk-large": {"pmf.sample.calls": reps, "metrics.distance.calls": 0,
                               "operators.mixing_estimate.calls": 0, "operators.gren.calls": reps, "cli.write.calls": 0},
                "limits-write": {"pmf.sample.calls": 0, "metrics.distance.calls": 0,
                                 "operators.mixing_estimate.calls": 0, "operators.gren.calls": reps, "cli.write.calls": 2},
                # 12 configs x reps x (rear, gren), plus the truth's own weights once per config
                "mixing-study": {"pmf.sample.calls": 12 * reps, "metrics.distance.calls": 12 * reps * 2 * 3,
                                 "operators.mixing_estimate.calls": 12 * (2 * reps + 1),
                                 "operators.gren.calls": 12 * reps, "cli.write.calls": 0},
            }[name]
            expect(calls == expected, f"{name} traced call counts {calls}")
            loop_layer = {"mc-small": "experiments.run_experiment.self_s", "mixing-study": "experiments.run_experiment.self_s",
                       "risk-large": "experiments.estimate_risk.self_s", "limits-write": "limits.draw_limit_batch.s"}
            expect(m[loop_layer[name]] > 0, f"{name} traced {loop_layer[name]} = {m[loop_layer[name]]:.3g}")
            expect(m["workload.units"] == reps * w.units_per_rep and m["reps_per_s.traced"] > 0,
                   f"{name} traced run timed {m['workload.units']:g} units")


def benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([(w["name"], w["why"]) for w in bench["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()],
           "BENCHMARK.json workloads match workloads.py")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end metrics match run.py")
    expect([(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER,
           "BENCHMARK.json per_layer metrics match run.py")


def closed_forms():
    sys.path.insert(0, str(run.ROOT / "src"))
    from monopmf import TruthSpec, asymptotics, uniform_pmf

    expect(np.allclose(workloads._mixture_probs(workloads.MC_TRUTH), TruthSpec.parse(workloads.MC_TRUTH).to_pmf().probs,
                       rtol=0, atol=1e-15), "mixture probabilities match TruthSpec")
    ours = workloads.limit_gren_sq_l2(workloads.LIMITS_TRUTH_Y)
    theirs = asymptotics(uniform_pmf(workloads.LIMITS_TRUTH_Y)).e_sq_l2_gren
    expect(abs(ours - theirs) < 1e-14, f"E|Y^G|^2 closed form {ours!r} matches asymptotics {theirs!r}")


def tiny_output(name):
    """Output files of one tiny sample of `name`, copied to their own directory."""
    w = WORKLOADS[name]
    sample, _ = run.run_sample(w, w.tiny_reps, SEED, False, time.monotonic() + 120, None)
    expect(not sample["problems"], f"{name} tiny sample for corruption runs clean")
    target = run.OUT_DIR / f"selftest-{name}"
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(run.OUT_DIR / "work", target)
    return target


def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def corrupted_outputs():
    # mc-small: one Grenander distance above the empirical one
    d = tiny_output("mc-small")
    reps = WORKLOADS["mc-small"].tiny_reps

    def gren_worse(rows):  # rows[1 + 9*i + 3*e + m]; replicate 5, l1 (m=1), empirical e=0, gren e=2
        rows[1 + 9 * 5 + 6 + 1][3] = repr(float(rows[1 + 9 * 5 + 1][3]) + 1e-3)

    rewrite_csv(d / "run_raw.csv", gren_worse)
    problems, _ = workloads.check_mc_small(d, "", reps)
    expect(any("replicate 5" in p and "grenander l1" in p for p in problems), f"gren above empirical reported: {problems[:1]}")

    d = tiny_output("mc-small")
    rewrite_csv(d / "run_summary.csv", lambda rows: rows[1].__setitem__(2, repr(float(rows[1][2]) * 1.001)))
    problems, _ = workloads.check_mc_small(d, "", reps)
    expect(any("summary mean" in p for p in problems), f"wrong summary mean reported: {problems[:1]}")

    # limits-write: a kernel that rearranges instead of pooling passes every
    # per-sample check, but E sum (Y^G)^2 no longer matches the closed form
    d = tiny_output("limits-write")
    reps = WORKLOADS["limits-write"].tiny_reps
    with open(d / "run_draws.csv") as fh:
        header = fh.readline()
        data = np.loadtxt(fh, delimiter=",")
    data[:, 4] = data[:, 3]
    with open(d / "run_draws.csv", "w") as fh:
        fh.write(header)
        fh.writelines(",".join(("%d,%d" % (a, b), *("%.17g" % v for v in rest))) + "\n" for a, b, *rest in data)
    y_rear = data[:, 3].reshape(reps, -1)

    def gren_columns_from_rear(rows):  # mean_y_gren and mean_sq_y_gren
        for x, row in enumerate(rows[1:]):
            row[3] = "%.17g" % y_rear[:, x].mean()
            row[6] = "%.17g" % (y_rear[:, x] ** 2).mean()

    rewrite_csv(d / "run_aggregate.csv", gren_columns_from_rear)
    problems, stats = workloads.check_limits_write(d, "", reps)
    expect(not problems, f"sorted 'gren' passes the per-sample checks {problems[:1]}")
    problems = workloads.pooled_limits_write([stats])
    expect(any("mean_sq_y_gren" in p for p in problems), f"wrong limit kernel reported: {problems[:1]}")

    # risk-large: a risk above the empirical pmf's exact risk
    w = WORKLOADS["risk-large"]
    fake = f"estimator\tgrenander\nk\t2\nn\t{workloads.RISK_N}\nreps\t{w.tiny_reps}\nrisk_mean\t1.2e-05\nrisk_se\t1e-08\nscaled_risk\t1.2\n"
    problems, stats = workloads.check_risk_large(run.OUT_DIR, fake, w.tiny_reps)
    problems += workloads.pooled_risk_large([stats])
    expect(any("exceeds 1 - 1/(K+1)" in p for p in problems), f"risk above the empirical bound reported: {problems[:1]}")

    # mixing-study: mean l1 error that grows with n
    d = tiny_output("mixing-study")

    def grow(rows):
        for row in rows[1:]:
            if row[3] == "l1" and row[1] == "1000":
                row[4] = "10"
                row[5] = row[6] = row[7] = "10"

    rewrite_csv(d / "mixing_summary.csv", grow)
    problems, _ = workloads.check_mixing_study(d, "", WORKLOADS["mixing-study"].tiny_reps)
    expect(any("does not shrink" in p for p in problems), f"l1 growing with n reported: {problems[:1]}")

    # same-bytes check: one changed byte changes the digest
    before = run.digest(d, "")
    with open(d / "mixing_summary.csv", "r+b") as fh:
        first = fh.read(1)
        fh.seek(0)
        fh.write(b"T" if first != b"T" else b"t")
    expect(run.digest(d, "") != before, "one changed output byte changes the digest")


def main():
    run.OUT_DIR.mkdir(exist_ok=True)
    benchmark_json()
    tiny_pass()
    closed_forms()
    corrupted_outputs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
