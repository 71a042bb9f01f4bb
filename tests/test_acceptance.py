"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is fixed here; Monte Carlo criteria use standard
errors computed from the same run, so they are independent of replicate
counts.  All randomness is seeded and the suite is deterministic.
"""

import math

import numpy as np
from scipy import special, stats

from monopmf import (
    EstimatorKind,
    ExperimentConfig,
    MetricKind,
    Pmf,
    TruthSpec,
    asymptotics,
    draw_limit_batch,
    empirical_pmf,
    estimate_risk,
    fluctuation_cdf,
    gren,
    gren_zero_probability,
    harmonic,
    mix_seed,
    mixing_estimate,
    mixture_of_uniforms,
    rear,
    sample,
    touch_count,
    uniform_pmf,
)
from monopmf.experiments import replicate_distances
from monopmf.metrics import distance
from monopmf.pmf import sample_counts
from monopmf.rng import make_generator
from references import gren_oracle, gren_oracle_stack

SEED = 20260810

EXAMPLE_EMPIRICAL = np.array([0.20, 0.14, 0.11, 0.22, 0.15, 0.18])


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_worked_example_exact():
    r = rear(EXAMPLE_EMPIRICAL)
    g = gren(EXAMPLE_EMPIRICAL)
    r_err = np.max(np.abs(r - np.array([0.22, 0.20, 0.18, 0.15, 0.14, 0.11])))
    g_err = np.max(np.abs(g - np.array([0.20, 0.16, 0.16, 0.16, 0.16, 0.16])))
    _report(1, r_err <= 1e-15 and g_err <= 1e-15,
            f"rear/gren of the worked sample exact to 1e-15 (errors {r_err:.2e}, {g_err:.2e})")


def test_criterion_02_distance_table():
    cfg = ExperimentConfig(
        truth=TruthSpec("uniform", y=5), n=100, reps=1, seed=0,
        metrics=(MetricKind.hellinger(), MetricKind.ell(2), MetricKind.ell(1)),
    )
    counts = np.array([20, 14, 11, 22, 15, 18])
    dists = replicate_distances(cfg, cfg.truth.to_pmf().probs, counts[None, :])
    labels = [m.label for m in cfg.metrics]
    expected = {
        (EstimatorKind.EMPIRICAL, "hellinger"): 0.08043,
        (EstimatorKind.EMPIRICAL, "l2"): 0.09129,
        (EstimatorKind.EMPIRICAL, "l1"): 0.2,
        (EstimatorKind.REARRANGEMENT, "hellinger"): 0.08043,
        (EstimatorKind.REARRANGEMENT, "l2"): 0.09129,
        (EstimatorKind.REARRANGEMENT, "l1"): 0.2,
        (EstimatorKind.GRENANDER, "hellinger"): 0.03048,
        (EstimatorKind.GRENANDER, "l2"): 0.03651,
        (EstimatorKind.GRENANDER, "l1"): 0.06667,
    }
    worst = max(
        abs(dists[0, cfg.estimators.index(est), labels.index(label)] - value)
        for (est, label), value in expected.items()
    )
    _report(2, worst <= 5e-5, f"all nine reference distances match (worst gap {worst:.2e})")


def test_criterion_03_gren_agrees_with_oracle():
    # the grid of each length (rows in itertools.product order) is checked
    # as stacks of up to 2^16 rows; test_operators pins stacked gren to 1-D
    # gren and the stacked oracle to the 1-D oracle, bit for bit
    grid = np.array([round(0.1 * i, 1) for i in range(11)])
    worst = 0.0
    for length in range(1, 7):
        stack = grid[np.indices((grid.size,) * length, dtype=np.int8).reshape(length, -1).T]
        for start in range(0, stack.shape[0], 1 << 16):
            rows = stack[start : start + (1 << 16)]
            worst = max(worst, float(np.max(np.abs(gren(rows) - gren_oracle_stack(rows)))))
    rng = make_generator(SEED + 3)
    for i in range(10**4):
        size = int(rng.integers(1, 51))
        kind = i % 3
        if kind == 0:
            v = rng.uniform(-1.0, 1.0, size)
        elif kind == 1:
            v = rng.standard_normal(size)
        else:
            v = rng.integers(-5, 6, size) / 10.0  # quantized values force ties
        gap = np.max(np.abs(gren(v) - gren_oracle(v)))
        if gap > worst:
            worst = gap
    _report(3, worst <= 1e-12,
            f"exhaustive grid (lengths<=6) plus 10^4 random sequences agree (worst {worst:.2e})")


def test_criterion_04_monotone_estimators_never_worse():
    rng = make_generator(SEED + 4)
    metrics = [MetricKind.hellinger(), MetricKind.ell(1), MetricKind.ell(2), MetricKind.ell(math.inf)]
    violations = 0
    checks = 0
    for t in range(10**3):
        m = int(rng.integers(1, 5))
        ys = np.sort(rng.choice(20, size=m, replace=False))
        weights = rng.dirichlet(np.ones(m))
        truth = mixture_of_uniforms(weights, ys)
        for n in (10, 100):
            emp = empirical_pmf(sample(truth, n, mix_seed(SEED + 4, 2 * t + (n == 100)))).probs
            fits = (rear(emp), gren(emp))
            for metric in metrics:
                base = distance(emp, truth.probs, metric)
                for fit in fits:
                    checks += 1
                    if distance(fit, truth.probs, metric) > base + 1e-12:
                        violations += 1
    _report(4, violations == 0,
            f"{checks} inequality checks over 10^3 random monotone truths, {violations} violations")


def test_criterion_05_exact_risk_identity():
    truth = uniform_pmf(5)
    target = 5.0 / 6.0
    ok = True
    details = []
    for n in (10, 100):
        r = estimate_risk(truth, n, 2, EstimatorKind.EMPIRICAL, reps=10**5, seed=SEED + 5)
        gap = abs(n * r.value - target)
        ok &= gap <= 3 * n * r.se
        details.append(f"n={n}: n*R2={n * r.value:.5f} (|gap| {gap:.5f} <= 3SE {3 * n * r.se:.5f})")
    _report(5, ok, "; ".join(details))


def test_criterion_06_asymptotic_closed_forms():
    rep = asymptotics(uniform_pmf(5))
    closed_ok = (
        abs(rep.e_sq_l2_emp - 5 / 6) <= 1e-9
        and abs(rep.e_sq_l2_gren - (harmonic(6) - 1) / 6) <= 1e-9
    )
    y, _, y_gren = draw_limit_batch(uniform_pmf(5), 10**5, seed=SEED + 6)
    sq_emp = (y**2).sum(axis=1)
    sq_gren = (y_gren**2).sum(axis=1)
    se_emp = sq_emp.std(ddof=1) / math.sqrt(sq_emp.size)
    se_gren = sq_gren.std(ddof=1) / math.sqrt(sq_gren.size)
    mc_ok = (
        abs(sq_emp.mean() - rep.e_sq_l2_emp) <= 3 * se_emp
        and abs(sq_gren.mean() - rep.e_sq_l2_gren) <= 3 * se_gren
    )
    _report(6, closed_ok and mc_ok,
            f"closed forms ({rep.e_sq_l2_emp:.9f}, {rep.e_sq_l2_gren:.9f}) and Monte Carlo "
            f"means ({sq_emp.mean():.5f}, {sq_gren.mean():.5f}) agree")


def test_criterion_07_touchpoint_harmonic_law():
    ok = True
    details = []
    for k in (2, 3, 6):
        rng = make_generator(SEED + 70 + k)
        counts = touch_count(rng.standard_normal((10**5, k)))
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        gap = abs(counts.mean() - harmonic(k))
        ok &= gap <= 3 * se
        details.append(f"k={k}: {counts.mean():.4f} vs {harmonic(k):.4f}")
    _report(7, ok, "mean touch counts match harmonic sums (" + ", ".join(details) + ")")


def test_criterion_08_zero_majorant_probability():
    est = gren_zero_probability(9, reps=10**6, seed=SEED + 8)
    _report(8, abs(est - 0.0999) <= 0.003, f"P(gren limit == 0) at y=9: {est:.4f} vs 0.0999 +- 0.003")


def test_criterion_09_chi_squared_identity():
    truth = uniform_pmf(5)
    y, _, _ = draw_limit_batch(truth, 10**5, seed=SEED + 9)
    statistic = (y**2 / truth.probs).sum(axis=1)
    se = statistic.std(ddof=1) / math.sqrt(statistic.size)
    mean_ok = abs(statistic.mean() - 5.0) <= 3 * se
    ks = stats.kstest(statistic, "chi2", args=(5,))
    ks_ok = ks.statistic <= 1.6276 / math.sqrt(statistic.size)
    _report(9, mean_ok and ks_ok,
            f"mean {statistic.mean():.4f} vs kappa=5, KS {ks.statistic:.5f} below the 1% level")


def monotone_probability(n: int) -> float:
    """Exact P(c0 >= c1 >= c2 > 0) for multinomial counts of n uniform draws
    on {0, 1, 2}: the multinomial pmf summed over c1 for each c0, ties
    included (its n -> infinity limit is 1/3!)."""
    log_fact = special.gammaln(np.arange(n + 1) + 1.0)
    total = 0.0
    for c0 in range(n // 3, n + 1):
        c1 = np.arange(-(-(n - c0) // 2), min(c0, n - c0 - 1) + 1)
        log_pmf = log_fact[n] - log_fact[c0] - log_fact[c1] - log_fact[n - c0 - c1] - n * math.log(3)
        total += float(np.exp(log_pmf).sum())
    return total


def test_criterion_10_monotone_sample_fraction():
    truth = uniform_pmf(2)
    n, reps = 10**4, 10**5
    mono = 0
    for start in range(0, reps, 64):  # blocks of 64 count rows, each block one seed
        c = sample_counts(truth, n, mix_seed(SEED, start // 64), min(64, reps - start))
        mono += int(np.count_nonzero((c[:, 2] > 0) & (c[:, 0] >= c[:, 1]) & (c[:, 1] >= c[:, 2])))
    frac = mono / reps
    target = monotone_probability(n)  # ties at n = 10^4 put it 2 SE above the limit 1/3!
    band = 3 * math.sqrt(target * (1 - target) / reps)
    _report(10, abs(frac - target) <= band,
            f"monotone fraction {frac:.5f} within {band:.5f} of the exact {target:.7f} at n = {n} "
            f"(its limit 1/3! = {1 / 6:.5f})")


def test_criterion_11_strict_truth_equivalence():
    truth = Pmf(np.array([0.5, 0.3, 0.2]))
    fe = fluctuation_cdf(truth, 1, n=10**4, reps=10**4, seed=SEED, est=EstimatorKind.EMPIRICAL)
    fg = fluctuation_cdf(truth, 1, n=10**4, reps=10**4, seed=SEED, est=EstimatorKind.GRENANDER)
    d = stats.ks_2samp(fe, fg).statistic
    crit = 1.6276 * math.sqrt(2 / 10**4)
    _report(11, d <= crit, f"KS between Grenander and empirical fluctuations {d:.5f} <= {crit:.5f}")


def test_criterion_12_mixing_estimators():
    truths = {
        "uniform:5": uniform_pmf(5),
        "mixture:0.2:3,0.8:7": mixture_of_uniforms([0.2, 0.8], [3, 7]),
        "mixture:4comp": mixture_of_uniforms([0.25, 0.2, 0.15, 0.4], [1, 3, 5, 7]),
        "geometric:0.75": TruthSpec("geometric", theta=0.75).to_pmf(),
    }
    reps = 400
    ok = True
    details = []
    for label, truth in truths.items():
        q_true = mixing_estimate(truth)
        means = {}
        for n in (100, 10**4):
            total = 0.0
            for i in range(reps):
                emp = empirical_pmf(sample(truth, n, mix_seed(SEED + 12, i))).probs
                for vec in (rear(emp), gren(emp)):
                    w = mixing_estimate(vec)
                    if abs(w.sum() - 1.0) > 1e-10 or np.any(w < -1e-15):
                        ok = False
                total += distance(mixing_estimate(gren(emp)), q_true, MetricKind.ell(1))
            means[n] = total / reps
        if not means[10**4] < means[100]:
            ok = False
        details.append(f"{label}: {means[100]:.4f} -> {means[10**4]:.4f}")
    _report(12, ok, "mixing rows valid on every replicate; mean l1 shrinks with n (" + "; ".join(details) + ")")
