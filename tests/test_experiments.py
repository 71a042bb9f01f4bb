"""Tests for the Monte Carlo experiment harness."""

import json
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from scipy import stats

from monopmf import (
    EstimatorKind,
    ExperimentConfig,
    MetricKind,
    Pmf,
    TruthSpec,
    draw_limit_batch,
    empirical_pmf,
    estimate_risk,
    fluctuation_cdf,
    geometric_pmf,
    gren,
    gren_zero_probability,
    mix_seed,
    mixing_estimate,
    mixture_of_uniforms,
    rear,
    run_experiment,
    sample,
    uniform_pmf,
)
from monopmf import experiments
from monopmf.experiments import InequalityViolation, SummaryStats, _check_inequality, _summarize, replicate_distances
from monopmf.pmf import DEFAULT_TAIL_TOL, sample_counts
from references import replicate_rows

HELL = MetricKind.hellinger()
L1 = MetricKind.ell(1)
L2 = MetricKind.ell(2)

EMP = EstimatorKind.EMPIRICAL
REAR = EstimatorKind.REARRANGEMENT
GREN = EstimatorKind.GRENANDER

TABLE_COUNTS = np.array([20, 14, 11, 22, 15, 18])


@st.composite
def truth_specs(draw, tail_tol=True):
    """Valid truths of all three families; geometric ones with a drawn
    tail_tol unless `tail_tol` is False (labels do not carry it)."""
    family = draw(st.sampled_from(["uniform", "geometric", "mixture"]))
    if family == "uniform":
        return TruthSpec("uniform", y=draw(st.integers(0, 200)))
    if family == "geometric":
        theta = draw(st.floats(0.0, 0.99))
        if not tail_tol:
            return TruthSpec("geometric", theta=theta)
        return TruthSpec("geometric", theta=theta, tail_tol=draw(st.floats(1e-15, 0.5)))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5))
    ys = sorted(draw(st.sets(st.integers(0, 60), min_size=len(raw), max_size=len(raw))))
    return TruthSpec("mixture", weights=tuple(w / sum(raw) for w in raw), ys=tuple(ys))


@st.composite
def experiment_configs(draw):
    k = st.one_of(st.floats(1.0, 1e6), st.integers(1, 10).map(float), st.just(math.inf))
    metric = st.one_of(st.just(HELL), k.map(MetricKind.ell))
    estimators = tuple(draw(st.lists(st.sampled_from(list(EstimatorKind)), min_size=1, max_size=3, unique=True)))
    metrics = tuple(draw(st.lists(metric, min_size=1, max_size=4, unique_by=lambda m: m.label)))
    target = draw(st.sampled_from(["pmf", "mixing"]))
    if target == "mixing" and EMP in estimators and HELL in metrics:
        target = "pmf"
    return ExperimentConfig(
        truth=draw(truth_specs()),
        n=draw(st.integers(1, 10**9)),
        reps=draw(st.integers(1, 10**9)),
        seed=draw(st.integers(0, 2**64 - 1)),
        estimators=estimators,
        metrics=metrics,
        target=target,
    )


class TestTruthSpec:
    def test_parse_uniform(self):
        spec = TruthSpec.parse("uniform:5")
        assert spec.to_pmf().probs == pytest.approx(np.full(6, 1 / 6))
        assert spec.label == "uniform:5"

    def test_parse_geometric(self):
        spec = TruthSpec.parse("geometric:0.75")
        assert spec.to_pmf().probs[0] == pytest.approx(0.25, abs=1e-12)

    def test_parse_mixture(self):
        spec = TruthSpec.parse("mixture:0.2:3,0.8:7")
        assert spec.to_pmf().probs == pytest.approx([0.15] * 4 + [0.10] * 4)

    def test_parse_errors(self):
        for text in ("uniform", "uniform:x", "poisson:3", "mixture:0.2:3,0.8"):
            with pytest.raises(ValueError):
                TruthSpec.parse(text)

    @pytest.mark.parametrize("fields", [
        {"family": "geometric", "theta": "0.5"},
        {"family": "geometric", "theta": True},
        {"family": "geometric", "theta": 0.5, "tail_tol": "1e-9"},
        {"family": "mixture", "weights": ["0.5", 0.5], "ys": [1, 3]},
    ])
    def test_real_fields_must_be_numbers(self, fields):
        with pytest.raises(ValueError, match="must be a real number"):
            TruthSpec(**fields)

    @pytest.mark.parametrize("fields,name", [
        ({"family": "uniform", "y": 3, "weights": (1.0,)}, "weights"),
        ({"family": "uniform", "y": 3, "theta": 0.5}, "theta"),
        ({"family": "uniform", "y": 3, "tail_tol": 1e-9}, "tail_tol"),
        ({"family": "geometric", "theta": 0.5, "ys": (3,)}, "ys"),
        ({"family": "mixture", "weights": (1.0,), "ys": (3,), "y": 3}, "y"),
    ])
    def test_fields_of_another_family_rejected(self, fields, name):
        with pytest.raises(ValueError, match=f"^a {fields['family']} truth takes no '{name}'$"):
            TruthSpec(**fields)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="^unknown truth family 'poisson'$"):
            TruthSpec("poisson", y=3)

    def test_geometric_tail_tol_defaults(self):
        spec = TruthSpec("geometric", theta=0.5)
        assert spec.tail_tol == DEFAULT_TAIL_TOL
        assert spec.to_pmf().probs.tobytes() == geometric_pmf(0.5).probs.tobytes()
        assert TruthSpec("uniform", y=3).to_json_dict() == {"family": "uniform", "y": 3}

    def test_real_fields_stored_as_floats(self):
        spec = TruthSpec("geometric", theta=0, tail_tol=np.float64(1e-9))
        assert type(spec.theta) is float and type(spec.tail_tol) is float
        assert spec.to_json_dict() == {"family": "geometric", "theta": 0.0, "tail_tol": 1e-9}

    def test_json_round_trip_fields(self):
        spec = TruthSpec.parse("mixture:0.2:3,0.8:7")
        d = spec.to_json_dict()
        assert TruthSpec(**d) == spec

    @settings(max_examples=300, deadline=None)
    @given(truth_specs(tail_tol=False))
    def test_label_parses_back(self, spec):
        assert TruthSpec.parse(spec.label) == spec

    def test_labels_keep_their_g_text_when_exact(self):
        for text in ("uniform:5", "geometric:0.75", "mixture:1:3", "mixture:0.2:3,0.8:7",
                     "mixture:0.15:3,0.1:7,0.75:11", "mixture:0.25:1,0.2:3,0.15:5,0.4:7", "geometric:1e-05"):
            assert TruthSpec.parse(text).label == text
        assert TruthSpec.parse("geometric:0.123456789").label == "geometric:0.123456789"
        assert TruthSpec.parse("mixture:0.123456789:2,0.876543211:5").label == "mixture:0.123456789:2,0.876543211:5"


class TestConfigJson:
    @settings(max_examples=300, deadline=None)
    @given(experiment_configs())
    def test_round_trip(self, cfg):
        assert ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg

    def test_defaults_and_spec_strings(self):
        cfg = ExperimentConfig.from_json({"truth": "uniform:4", "n": 30, "reps": 10, "estimators": [], "extra": 1})
        assert cfg == ExperimentConfig(TruthSpec("uniform", y=4), n=30, reps=10, seed=0)

    # bad truths that the CLI tests do not cover, and faults of the other fields
    @pytest.mark.parametrize("data", [
        [1, 2],
        {"n": 3, "reps": 3},
        {"truth": {"family": "uniform", "z": 3}, "n": 3, "reps": 3},
        {"truth": 7, "n": 3, "reps": 3},
        {"truth": "uniform:3", "n": None, "reps": 3},
        {"truth": "uniform:3", "n": 3, "reps": 3, "seed": float("inf")},
        {"truth": "uniform:3", "n": 3, "reps": 3, "estimators": [1]},
        {"truth": "uniform:3", "n": 3, "reps": 3, "metrics": 2},
    ])
    def test_bad_data_is_a_value_error(self, data):
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(data)

    @pytest.mark.parametrize("fields", [
        {"n": 1.9}, {"reps": 2.5}, {"seed": 3.7}, {"n": True}, {"reps": "3"},
        {"truth": {"family": "mixture", "weights": [0.5, 0.5], "ys": [1.7, 3.2]}},
        {"truth": {"family": "uniform", "y": 5.5}},
    ])
    def test_non_integral_fields_rejected(self, fields):
        with pytest.raises(ValueError, match="must be an integer, got "):
            ExperimentConfig.from_json({"truth": "uniform:3", "n": 3, "reps": 3, **fields})

    def test_integral_numbers_become_ints(self):
        cfg = ExperimentConfig.from_json({"truth": {"family": "uniform", "y": 5.0}, "n": 1e4, "reps": 3.0, "seed": 7.0})
        assert cfg == ExperimentConfig(TruthSpec("uniform", y=5), n=10000, reps=3, seed=7)
        assert [type(v) for v in (cfg.truth.y, cfg.n, cfg.reps, cfg.seed)] == [int] * 4
        assert cfg.truth.label == "uniform:5"
        spec = TruthSpec("mixture", weights=(0.5, 0.5), ys=(1.0, np.int64(3)))
        assert spec.ys == (1, 3) and [type(y) for y in spec.ys] == [int, int]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="64-bit"):
            ExperimentConfig(TruthSpec("uniform", y=3), n=5, reps=5, seed=seed)


class TestRunExperiment:
    def test_injected_counts_reproduce_worked_example(self):
        cfg = ExperimentConfig(
            truth=TruthSpec("uniform", y=5),
            n=100,
            reps=1,
            seed=0,
            metrics=(HELL, L2, L1),
        )
        dists = replicate_distances(cfg, cfg.truth.to_pmf().probs, TABLE_COUNTS[None, :])
        expected = {
            (EMP, HELL): 0.08043, (EMP, L2): 0.09129, (EMP, L1): 0.2,
            (REAR, HELL): 0.08043, (REAR, L2): 0.09129, (REAR, L1): 0.2,
            (GREN, HELL): 0.03048, (GREN, L2): 0.03651, (GREN, L1): 0.06667,
        }
        for (est, metric), value in expected.items():
            e, m = cfg.estimators.index(est), cfg.metrics.index(metric)
            assert dists[0, e, m] == pytest.approx(value, abs=5e-5)

    def test_uniform_truth_empirical_equals_rearranged(self):
        cfg = ExperimentConfig(
            truth=TruthSpec("uniform", y=4),
            n=60,
            reps=50,
            seed=10,
            metrics=(HELL, L1, L2, MetricKind.ell(math.inf)),
        )
        summary = run_experiment(cfg)
        e = summary.raw[:, 0, :]
        r = summary.raw[:, 1, :]
        assert np.max(np.abs(e - r)) < 1e-12

    def test_deterministic(self):
        cfg = ExperimentConfig(truth=TruthSpec("geometric", theta=0.75), n=50, reps=20, seed=5)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.raw.tobytes() == b.raw.tobytes()

    def test_monotone_inequalities_hold_replicatewise(self):
        cfg = ExperimentConfig(
            truth=TruthSpec("mixture", weights=(0.2, 0.8), ys=(3, 7)),
            n=30,
            reps=200,
            seed=7,
        )
        summary = run_experiment(cfg)  # would raise internally on violation
        emp = summary.raw[:, 0, :]
        for e in (1, 2):
            assert np.all(summary.raw[:, e, :] <= emp + 1e-9)

    def test_summary_quartiles_ordered(self):
        cfg = ExperimentConfig(truth=TruthSpec("uniform", y=5), n=40, reps=100, seed=2)
        summary = run_experiment(cfg)
        for s in summary.stats.values():
            assert s.min <= s.q1 <= s.median <= s.q3 <= s.max
            assert s.std >= 0

    def test_mixing_rows_are_valid_pmfs(self):
        cfg = ExperimentConfig(
            truth=TruthSpec("geometric", theta=0.75),
            n=200,
            reps=100,
            seed=13,
            estimators=(REAR, GREN),
            target="mixing",
        )
        run_experiment(cfg)  # hellinger is safe here: both estimators give q >= 0
        truth = cfg.truth.to_pmf()
        for counts in replicate_rows(truth, cfg.n, cfg.reps, cfg.seed):  # the run's own samples
            emp = np.trim_zeros(counts, "b") / cfg.n
            for vec in (rear(emp), gren(emp)):
                w = mixing_estimate(vec)
                assert abs(w.sum() - 1.0) <= 1e-10
                assert np.all(w >= -1e-15)

    def test_consistency_in_n(self):
        # mean l1 error shrinks from n=100 to n=10000 for every estimator
        spec = TruthSpec("mixture", weights=(0.25, 0.2, 0.15, 0.4), ys=(1, 3, 5, 7))
        means = {}
        for n in (100, 10**4):
            cfg = ExperimentConfig(truth=spec, n=n, reps=150, seed=21, metrics=(L1,))
            summary = run_experiment(cfg)
            means[n] = {est: summary.stat(est, L1).mean for est in cfg.estimators}
        for est in means[100]:
            assert means[10**4][est] < means[100][est]

    def test_monotone_sample_fraction_grows_and_estimators_coincide(self):
        # strict truth: samples become monotone as n grows, and on those
        # replicates all three estimators are identical arrays
        truth = Pmf(np.array([0.5, 0.3, 0.2]), monotone=True)
        reps = 300
        fractions = {}
        for n in (20, 200, 2000):
            mono = 0
            for i in range(reps):
                emp = sample(truth, n, mix_seed(100 + n, i)) / n
                if np.all(np.diff(emp) <= 0):
                    mono += 1
                    assert_array_equal(rear(emp), emp)
                    assert_array_equal(gren(emp), emp)
            fractions[n] = mono / reps
        assert fractions[20] < fractions[200] < fractions[2000]

    def test_cdf_sup_error_shrinks(self):
        # Glivenko-Cantelli direction for the monotone estimators
        truth = TruthSpec("geometric", theta=0.75).to_pmf()
        cdf_truth = np.cumsum(truth.probs)
        sup_err = {}
        for n in (100, 10**4):
            total = {"rear": 0.0, "gren": 0.0}
            for i in range(100):
                emp = empirical_pmf(sample(truth, n, mix_seed(200 + n, i))).probs
                for name, fit in (("rear", rear(emp)), ("gren", gren(emp))):
                    padded = np.zeros_like(cdf_truth)
                    padded[: fit.size] = fit
                    err = float(np.max(np.abs(np.cumsum(padded) - cdf_truth)))
                    total[name] += err
            sup_err[n] = total
        for name in ("rear", "gren"):
            assert sup_err[10**4][name] < sup_err[100][name]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(truth=TruthSpec("uniform", y=3), n=0, reps=5, seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(truth=TruthSpec("uniform", y=3), n=5, reps=5, seed=1, estimators=())
        with pytest.raises(ValueError):
            ExperimentConfig(truth=TruthSpec("uniform", y=3), n=5, reps=5, seed=1, target="cdf")

    def test_inequality_violation_reported_in_config_estimator_order(self):
        # gren and rear both exceed empirical at replicate 1, metric 0
        cfg = ExperimentConfig(TruthSpec("uniform", y=3), n=5, reps=3, seed=1,
                               estimators=(GREN, REAR, EMP), metrics=(L1, L2))
        raw = np.zeros((3, 3, 2))
        raw[1, :2, 0] = [0.5, 0.7]
        raw[2, 1, :] = 1.0
        with pytest.raises(InequalityViolation, match="replicate 1: grenander l1 distance 0.5 exceeds empirical 0.0"):
            _check_inequality(cfg, raw)
        _check_inequality(cfg, np.zeros((3, 3, 2)))

    def test_mixing_empirical_hellinger_rejected_up_front(self):
        # empirical mixing weights can be negative, where Hellinger is undefined
        with pytest.raises(ValueError, match="Hellinger"):
            ExperimentConfig(truth=TruthSpec("uniform", y=5), n=20, reps=50, seed=1, target="mixing")
        for estimators, metrics in (((REAR, GREN), (HELL,)), ((EMP,), (L1, L2))):
            ExperimentConfig(
                truth=TruthSpec("uniform", y=5), n=20, reps=50, seed=1,
                estimators=estimators, metrics=metrics, target="mixing",
            )

    @settings(max_examples=60, deadline=None)
    @given(
        reps=st.integers(1, 4000),
        data_seed=st.integers(0, 2**32 - 1),
        ties=st.booleans(),
        planted=st.sampled_from([None, math.nan, math.inf]),
    )
    @example(reps=1, data_seed=0, ties=False, planted=None)  # every virtual index is clamped
    @example(reps=2, data_seed=1, ties=False, planted=None)  # q1 clamped to the first value, q3 to the last
    @example(reps=3, data_seed=2, ties=True, planted=None)  # the smallest size with no clamp
    @example(reps=2, data_seed=3, ties=False, planted=math.inf)  # inf - inf where q3 is clamped
    @example(reps=41, data_seed=4, ties=False, planted=math.nan)
    @example(reps=41, data_seed=5, ties=True, planted=math.inf)
    @example(reps=20000, data_seed=6, ties=False, planted=None)  # past numpy's 8192-element reduction buffer
    def test_summary_equals_column_loop(self, reps, data_seed, ties, planted):
        # the order statistics read from one sort have the bits of np.quantile, min and max
        # column by column; the data are non-negative, as distances are, since np.quantile's
        # partition and np.sort may order tied -0.0 and +0.0 differently
        cfg = ExperimentConfig(TruthSpec("uniform", y=3), n=10, reps=reps, seed=0, metrics=(HELL, L1, L2, MetricKind.ell(3)))
        rng = np.random.default_rng(data_seed)
        raw = rng.exponential(size=(reps, 3, 4))
        if ties:
            raw = np.round(raw, 1)
        if planted is not None:  # in the first column, and in one entry of another
            raw[reps // 2, 0, 0] = raw[rng.integers(reps), rng.integers(3), rng.integers(4)] = planted
        with np.errstate(invalid="ignore"):  # inf - inf in the lerp and the std
            summary = _summarize(cfg, raw)
            for e, est in enumerate(cfg.estimators):
                for m, metric in enumerate(cfg.metrics):
                    col = raw[:, e, m]
                    q1, med, q3 = np.quantile(col, [0.25, 0.5, 0.75], method="median_unbiased")
                    std = float(col.std(ddof=1)) if col.size > 1 else 0.0
                    expected = SummaryStats(float(col.mean()), std, float(col.min()), float(q1), float(med), float(q3), float(col.max()))
                    got = summary.stat(est, metric)
                    assert np.array(astuple(got)).tobytes() == np.array(astuple(expected)).tobytes()


class TestEstimateRisk:
    def test_empirical_l2_risk_identity(self):
        # n * R_2(empirical) = 1 - sum p^2 exactly, at any sample size
        truth = uniform_pmf(5)
        target = 1 - np.sum(truth.probs**2)
        for n in (10, 100):
            r = estimate_risk(truth, n, 2, EMP, reps=2 * 10**4, seed=31)
            assert abs(n * r.value - target) < 3 * n * r.se

    def test_point_mass_risk_zero(self):
        truth = uniform_pmf(0)
        for est in (EMP, REAR, GREN):
            r = estimate_risk(truth, 25, 2, est, reps=100, seed=1)
            assert r.value == 0.0 and r.se == 0.0

    def test_grenander_beats_rearrangement_on_flat_truth(self):
        truth = uniform_pmf(5)
        n = 10**3
        rg = estimate_risk(truth, n, 2, GREN, reps=4000, seed=41)
        rr = estimate_risk(truth, n, 2, REAR, reps=4000, seed=42)
        joint_se = math.hypot(rg.se, rr.se)
        assert rg.value < rr.value - 3 * joint_se

    def test_sup_loss(self):
        truth = uniform_pmf(3)
        r = estimate_risk(truth, 50, math.inf, GREN, reps=200, seed=2)
        assert 0 < r.value < 1

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            estimate_risk(uniform_pmf(3), 50, 0.5, EMP, reps=100, seed=1)

    def test_k_must_be_a_real_number(self):
        with pytest.raises(ValueError, match="k must be a real number"):
            estimate_risk(uniform_pmf(3), 50, "2", EMP, reps=100, seed=1)


class TestFluctuationCdf:
    def test_table_well_formed(self):
        truth = uniform_pmf(2)
        table = fluctuation_cdf(truth, 1, n=1, reps=50, seed=3, est=EMP)
        assert table.size == 50
        assert np.all(np.isfinite(table))
        assert np.all(np.diff(table) >= 0)

    def test_strict_truth_grenander_matches_empirical(self):
        truth = Pmf(np.array([0.5, 0.3, 0.2]), monotone=True)
        fe = fluctuation_cdf(truth, 1, n=10**4, reps=2000, seed=77, est=EMP)
        fg = fluctuation_cdf(truth, 1, n=10**4, reps=2000, seed=77, est=GREN)
        d = stats.ks_2samp(fe, fg).statistic
        assert d < 1.6276 * math.sqrt(2 / 2000)

    def test_flat_point_converges_to_limit_in_n(self):
        # the scaled fluctuation law of the Grenander estimator at a flat
        # point approaches the simulated limit coordinate as n grows; the
        # remaining gap at n=10^3 is ~0.024 in KS distance and clears the
        # 1% two-sample threshold by n=10^4
        truth = mixture_of_uniforms([0.2, 0.8], [3, 7])
        reps = 10**4
        _, _, y_gren = draw_limit_batch(truth, reps, seed=99)
        dist = {}
        for n in (10**3, 10**4):
            table = fluctuation_cdf(truth, 7, n=n, reps=reps, seed=42, est=GREN)
            dist[n] = stats.ks_2samp(table, y_gren[:, 7]).statistic
        assert dist[10**4] < dist[10**3]
        assert dist[10**4] < 1.6276 * math.sqrt(2 / reps)
        assert dist[10**3] < 0.05

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="64-bit"):
            fluctuation_cdf(uniform_pmf(2), 1, n=10, reps=10, seed=seed, est=EMP)

    def test_x_outside_support_rejected(self):
        with pytest.raises(ValueError):
            fluctuation_cdf(uniform_pmf(2), 5, n=10, reps=10, seed=1, est=EMP)

    @pytest.mark.parametrize("reps", [0, -3])
    def test_nonpositive_reps_rejected(self, reps):
        with pytest.raises(ValueError, match="reps must be positive"):
            fluctuation_cdf(uniform_pmf(2), 1, n=10, reps=reps, seed=1, est=EMP)


U3 = TruthSpec("uniform", y=3)


@pytest.mark.parametrize("call", [
    lambda: ExperimentConfig(U3, n=2.5, reps=10, seed=0, estimators=(EMP, REAR)),
    lambda: ExperimentConfig(U3, n=True, reps=10, seed=0),
    lambda: ExperimentConfig(U3, n=10, reps=2.5, seed=0),
    lambda: ExperimentConfig(U3, n=10, reps=10, seed=2.5),
    lambda: estimate_risk(U3.to_pmf(), 2.5, 2, EMP, 10, 0),
    lambda: estimate_risk(U3.to_pmf(), 10, 2, EMP, 10.5, 0),
    lambda: estimate_risk(U3.to_pmf(), 10, 2, EMP, "5", 0),
    lambda: estimate_risk(U3.to_pmf(), 10, 2, EMP, 10, 2.5),
    lambda: fluctuation_cdf(U3.to_pmf(), 1, 2.5, 10, 0, EMP),
    lambda: fluctuation_cdf(U3.to_pmf(), 1, "10", 5, 1, EMP),
    lambda: fluctuation_cdf(U3.to_pmf(), 1.5, 10, 10, 0, EMP),
    lambda: sample_counts(U3.to_pmf(), 2.5, 0, 1),
    lambda: sample(U3.to_pmf(), 2.5, 0),
    lambda: draw_limit_batch(U3.to_pmf(), 2.5, 0),
    lambda: gren_zero_probability(2.7, 10, 0),
    lambda: gren_zero_probability(3, 10.5, 0),
], ids=[
    "config-n", "config-n-bool", "config-reps", "config-seed", "risk-n", "risk-reps", "risk-reps-str", "risk-seed",
    "fluctuation-n", "fluctuation-n-str", "fluctuation-x", "sample_counts-n", "sample-n", "limit-reps", "zero-y", "zero-reps",
])
def test_non_integral_sizes_rejected(call):
    # a fractional size used to be truncated (or to crash) where it entered
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize("kind", ["empirical", None], ids=["string", "none"])
def test_unknown_estimator_kind_rejected(kind):
    # anything that is not an EstimatorKind used to be taken for the Grenander
    with pytest.raises(ValueError, match="^unknown estimator "):
        estimate_risk(U3.to_pmf(), 10, 2, kind, 50, 1)
    with pytest.raises(ValueError, match="^unknown estimator "):
        fluctuation_cdf(U3.to_pmf(), 1, 10, 50, 1, kind)


@pytest.mark.parametrize("call", [
    lambda: estimate_risk(uniform_pmf(999999), 10**13, 2, GREN, 5, 0),
    lambda: fluctuation_cdf(uniform_pmf(999999), 0, 10**13, 5, 0, GREN),
    lambda: run_experiment(ExperimentConfig(TruthSpec("uniform", y=999999), n=10**13, reps=5, seed=0)),
], ids=["risk", "fluctuation", "experiment"])
def test_grenander_past_2_63_rejected_before_any_block(call, monkeypatch):
    # the exact Grenander needs n*(K+1) < 2^63; a run used to draw a block first
    def unreachable(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(experiments, "sample_counts", unreachable)
    with pytest.raises(ValueError, match=r"^the Grenander estimator needs n \* \(K\+1\) < 2\^63, got n = 10000000000000"):
        call()
    with pytest.raises(AssertionError, match="a block was drawn"):  # the other estimators take such samples
        estimate_risk(uniform_pmf(999999), 10**13, 2, REAR, 5, 0)
