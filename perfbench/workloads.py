"""The four benchmark workloads and the checks on their outputs.

Each workload is one monopmf command line (or study script) whose length
is fixed here; run.py starts it as a separate process once per sample.
`check` inspects the outputs of one process and returns a list of
problems plus the statistics the run-level `pooled` check needs.  The
checks are exact identities or inequalities from the paper, so a wrong
kernel fails them, not only a crash:

  mc-small      rear/gren no farther from the truth than empirical on every
                replicate; summary means equal the raw columns; E n*l2^2 of
                the empirical pmf equals 1 - sum p^2.
  risk-large    n * risk of the Grenander estimator is at most that of the
                empirical pmf, 1 - 1/(K+1).
  limits-write  E Y_x^2 = p_x (1 - p_x); E sum_x (Y^G_x)^2 equals the
                closed form theta * (H_{K+1} - 1) of a flat truth.
  mixing-study  every summary value finite; mean l1 error shrinks with n.

Statistical checks pool every distinct process of a run and allow 4
standard errors.  The closed forms are computed here, not by monopmf.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TOL = 1e-9  # slack of the monotone-estimator inequality (as in run_experiment)
N_SE = 4.0

MC_TRUTH = "mixture:0.2:3,0.8:7"
MC_N = 100
RISK_TRUTH_Y = 9999
RISK_N = 100000
LIMITS_TRUTH_Y = 9
MIXING_SCRIPT = "scripts/mixing_comparison.py"
MIXING_TRUTHS = 4
MIXING_SIZES = (20, 100, 1000)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    reps: int  # replicates (or limit draws, or per-config reps) per process
    tiny_reps: int  # the self-test's length
    units_per_rep: int
    target: str  # "cli" or a script path relative to the checkout root
    args: tuple  # its command line, less --reps and --seed
    check: Callable  # (outdir, stdout, reps) -> (problems, stats)
    pooled: Callable  # (list of stats) -> problems

    def argv(self, reps, seed):
        return [*self.args, "--reps", str(reps), "--seed", str(seed)]


def _mixture_probs(spec):
    """Probabilities of "mixture:w1:y1,w2:y2,..." on {0..max y}."""
    parts = [item.split(":") for item in spec.partition(":")[2].split(",")]
    top = max(int(y) for _, y in parts)
    probs = np.zeros(top + 1)
    for w, y in parts:
        probs[: int(y) + 1] += float(w) / (int(y) + 1)
    return probs


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


def _within_se(label, mean, se, target):
    if not abs(mean - target) <= N_SE * se:
        return [f"{label}: {mean!r} is {abs(mean - target) / se:.2f} SE from {target!r}"]
    return []


# ---------------------------------------------------------------- mc-small

MC_ESTIMATORS = ("empirical", "rearrangement", "grenander")
MC_METRICS = ("hellinger", "l1", "l2")


def check_mc_small(outdir, stdout, reps):
    outdir = Path(outdir)
    problems = []
    header, rows = _read_csv(outdir / "run_raw.csv")
    shape = (reps, len(MC_ESTIMATORS), len(MC_METRICS))
    if header != ["replicate", "estimator", "metric", "value"] or len(rows) != math.prod(shape):
        return [f"run_raw.csv: header {header} with {len(rows)} rows, expected {math.prod(shape)}"], None
    expected = [(e, m) for e in MC_ESTIMATORS for m in MC_METRICS]
    raw = np.empty(shape)
    for j, row in enumerate(rows):
        i, rest = divmod(j, len(expected))
        if int(row[0]) != i or tuple(row[1:3]) != expected[rest]:
            return [f"run_raw.csv row {j + 1} is {row[:3]}, expected {[i, *expected[rest]]}"], None
        raw[i].flat[rest] = float(row[3])
    if not np.all(np.isfinite(raw)):
        problems.append("run_raw.csv has non-finite values")
    for m, metric in enumerate(MC_METRICS):
        for e in (1, 2):
            worse = np.nonzero(raw[:, e, m] > raw[:, 0, m] + TOL)[0]
            if worse.size:
                i = int(worse[0])
                problems.append(
                    f"replicate {i}: {MC_ESTIMATORS[e]} {metric} {float(raw[i, e, m])!r} "
                    f"exceeds empirical {float(raw[i, 0, m])!r} ({worse.size} replicates)"
                )
    header, rows = _read_csv(outdir / "run_summary.csv")
    if header[:3] != ["estimator", "metric", "mean"] or len(rows) != len(expected):
        problems.append(f"run_summary.csv: header {header} with {len(rows)} rows")
    else:
        for row in rows:
            key = (row[0], row[1])
            if key not in expected:
                problems.append(f"run_summary.csv: unexpected row {row[:2]}")
                continue
            col = raw[:, MC_ESTIMATORS.index(key[0]), MC_METRICS.index(key[1])]
            stats = dict(zip(header[2:], (float(v) for v in row[2:])))
            if not _close(stats["mean"], float(col.mean())):
                problems.append(f"summary mean {key}: {stats['mean']!r} != raw mean {float(col.mean())!r}")
            if stats["min"] != col.min() or stats["max"] != col.max():
                problems.append(f"summary min/max {key} differ from the raw column")
    return problems, MC_N * raw[:, 0, MC_METRICS.index("l2")] ** 2


def pooled_mc_small(stats):
    values = np.concatenate(stats)
    if values.size < 2:
        return []
    target = 1.0 - float(np.sum(_mixture_probs(MC_TRUTH) ** 2))
    se = float(values.std(ddof=1)) / math.sqrt(values.size)
    return _within_se(f"n*mean(l2^2) of empirical over {values.size} replicates", float(values.mean()), se, target)


# -------------------------------------------------------------- risk-large

def check_risk_large(outdir, stdout, reps):
    fields = dict(line.split("\t", 1) for line in stdout.splitlines() if "\t" in line)
    want = {"estimator": "grenander", "k": "2", "n": str(RISK_N), "reps": str(reps)}
    problems = [f"stdout {key}={fields.get(key)!r}, expected {value!r}" for key, value in want.items() if fields.get(key) != value]
    try:
        mean, se, scaled = (float(fields[k]) for k in ("risk_mean", "risk_se", "scaled_risk"))
    except (KeyError, ValueError):
        return problems + [f"stdout lacks risk_mean/risk_se/scaled_risk: {stdout!r}"], None
    if not (math.isfinite(mean) and math.isfinite(se) and mean >= 0 and se >= 0):
        problems.append(f"risk_mean {mean!r} / risk_se {se!r} not finite and non-negative")
    if not _close(scaled, RISK_N * mean, 1e-12):
        problems.append(f"scaled_risk {scaled!r} != n * risk_mean {RISK_N * mean!r}")
    return problems, (mean, se)


def pooled_risk_large(stats):
    means = np.array([m for m, _ in stats])
    ses = np.array([s for _, s in stats])
    mean = float(means.mean())
    se = float(np.sqrt(np.sum(ses**2))) / means.size
    bound = 1.0 - 1.0 / (RISK_TRUTH_Y + 1)
    if not RISK_N * mean <= bound + N_SE * RISK_N * se:
        return [f"n*risk {RISK_N * mean!r} exceeds 1 - 1/(K+1) = {bound!r} by more than {N_SE} SE ({RISK_N * se!r})"]
    return []


# ------------------------------------------------------------ limits-write

def limit_gren_sq_l2(y):
    """E sum_x (Y^G_x)^2 at uniform{0..y}: one flat block, theta * (H_{y+1} - (y+1) theta)."""
    theta = 1.0 / (y + 1)
    return theta * (math.fsum(1.0 / j for j in range(1, y + 2)) - 1.0)


def check_limits_write(outdir, stdout, reps):
    outdir = Path(outdir)
    size = LIMITS_TRUTH_Y + 1
    p = 1.0 / size
    problems = []
    with open(outdir / "run_draws.csv", encoding="utf-8") as fh:
        header = fh.readline().strip()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != "draw,x,y,y_rear,y_gren" or data.shape != (reps * size, 5):
        return [f"run_draws.csv: header {header!r}, shape {data.shape}, expected {(reps * size, 5)}"], None
    index = np.indices((reps, size)).reshape(2, -1).T
    if not np.array_equal(data[:, :2], index):
        problems.append("run_draws.csv draw/x columns are not the full (draw, x) grid")
    y, y_rear, y_gren = (data[:, c].reshape(reps, size) for c in (2, 3, 4))
    if not np.all(np.isfinite(data)):
        problems.append("run_draws.csv has non-finite values")
    if np.any(np.abs(y.sum(axis=1)) > 1e-12):
        problems.append("some draws of Y do not sum to zero")
    if not np.array_equal(np.sort(y_rear, axis=1), np.sort(y, axis=1)) or np.any(np.diff(y_rear, axis=1) > 0):
        problems.append("y_rear is not the decreasing rearrangement of y")
    if np.any(np.diff(y_gren, axis=1) > 1e-12):
        problems.append("y_gren is not non-increasing")
    if np.any(np.abs(y_gren.sum(axis=1) - y.sum(axis=1)) > 1e-12):
        problems.append("y_gren does not preserve the sum of y")
    if np.any(np.cumsum(y_gren, axis=1) < np.cumsum(y, axis=1) - 1e-12):
        problems.append("partial sums of y_gren do not majorise those of y")

    header, rows = _read_csv(outdir / "run_aggregate.csv")
    agg_cols = ["x", "mean_y", "mean_y_rear", "mean_y_gren", "mean_sq_y", "mean_sq_y_rear", "mean_sq_y_gren", "var_limit"]
    if header != agg_cols or len(rows) != size:
        return problems + [f"run_aggregate.csv: header {header} with {len(rows)} rows"], None
    agg = np.array(rows, dtype=float)
    expect = np.column_stack(
        [np.arange(size)]
        + [a.mean(axis=0) for a in (y, y_rear, y_gren)]
        + [(a**2).mean(axis=0) for a in (y, y_rear, y_gren)]
        + [np.full(size, p * (1 - p))]
    )
    for c, name in enumerate(agg_cols):
        if not all(_close(a, b) for a, b in zip(agg[:, c], expect[:, c])):
            problems.append(f"run_aggregate.csv column {name} disagrees with the draws")
    return problems, (y**2, np.sum(y_gren**2, axis=1))


def pooled_limits_write(stats):
    sq = np.concatenate([s for s, _ in stats])
    gren_sq = np.concatenate([g for _, g in stats])
    if gren_sq.size < 2:
        return []
    p = 1.0 / (LIMITS_TRUTH_Y + 1)
    problems = []
    for x in range(sq.shape[1]):
        col = sq[:, x]
        se = float(col.std(ddof=1)) / math.sqrt(col.size)
        problems += _within_se(f"mean_sq_y[{x}]", float(col.mean()), se, p * (1 - p))
    se = float(gren_sq.std(ddof=1)) / math.sqrt(gren_sq.size)
    problems += _within_se("sum_x mean_sq_y_gren", float(gren_sq.mean()), se, limit_gren_sq_l2(LIMITS_TRUTH_Y))
    return problems


# ------------------------------------------------------------ mixing-study

def check_mixing_study(outdir, stdout, reps):
    header, rows = _read_csv(Path(outdir) / "mixing_summary.csv")
    expected_rows = MIXING_TRUTHS * len(MIXING_SIZES) * 2 * 3
    if header != ["truth", "n", "estimator", "metric", "mean", "q1", "median", "q3"] or len(rows) != expected_rows:
        return [f"mixing_summary.csv: header {header} with {len(rows)} rows, expected {expected_rows}"], None
    problems = []
    l1 = {}
    for row in rows:
        mean, q1, median, q3 = (float(v) for v in row[4:])
        if not all(math.isfinite(v) for v in (mean, q1, median, q3)):
            problems.append(f"non-finite summary row {row}")
        elif not q1 <= median <= q3:
            problems.append(f"quartiles out of order in row {row[:4]}")
        if row[3] == "l1":
            l1.setdefault((row[0], row[2]), []).append((int(row[1]), mean))
    for key, points in l1.items():
        means = [m for _, m in sorted(points)]
        if [n for n, _ in sorted(points)] != list(MIXING_SIZES) or any(a <= b for a, b in zip(means, means[1:])):
            problems.append(f"mean l1 of {key} does not shrink with n: {sorted(points)}")
    return problems, None


def pooled_none(stats):
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-small",
            "simulate, K=7, n=100: per-replicate Python overhead dominates (sample, nine distance calls per replicate, CSV rows)",
            4000, 300, 1, "cli",
            ("simulate", "--truth", MC_TRUTH, "--n", str(MC_N), "--out", "run"),
            check_mc_small, pooled_mc_small,
        ),
        Workload(
            "risk-large",
            "risk, uniform K=10^4, n=10^5: the sample and gren kernels; no distance calls, no summary, almost no output",
            40, 3, 1, "cli",
            ("risk", "--truth", f"uniform:{RISK_TRUTH_Y}", "--n", str(RISK_N), "--k", "2", "--estimator", "gren"),
            check_risk_large, pooled_risk_large,
        ),
        Workload(
            "limits-write",
            "limits, uniform K=9: gren on many short rows and CSV formatting of a large file buffered in memory",
            20000, 2000, 1, "cli",
            ("limits", "--truth", f"uniform:{LIMITS_TRUTH_Y}", "--out", "run"),
            check_limits_write, pooled_limits_write,
        ),
        Workload(
            "mixing-study",
            "the paper's mixing study script, 12 (truth, n) configs up to K=96: the only user of mixing_estimate and of a script",
            300, 20, MIXING_TRUTHS * len(MIXING_SIZES), MIXING_SCRIPT,
            ("--outdir", "."),
            check_mixing_study, pooled_none,
        ),
    )
}
