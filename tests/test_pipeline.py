"""The chunked replicate pipeline writes the same bytes as one replicate at a time.

Each driver (run_experiment, estimate_risk, fluctuation_cdf) and
replicate_distances on given counts are compared bit for bit with a
reference loop written here from the one-sample functions: sample,
empirical_pmf, rear, mixing_estimate, distance and the exact `Fraction`
Grenander of tests/references.py.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monopmf import (
    EstimatorKind,
    ExperimentConfig,
    MetricKind,
    Pmf,
    TruthSpec,
    distance,
    empirical_pmf,
    estimate_risk,
    fluctuation_cdf,
    mix_seed,
    mixing_estimate,
    rear,
    run_experiment,
    sample,
    uniform_pmf,
)
from monopmf import experiments, format_pmf, pmf
from monopmf.cli import main
from monopmf.experiments import replicate_distances
from monopmf.pmf import sample_counts
from monopmf.rng import keyed_generators, make_generator
from references import gren_fraction

EMP = EstimatorKind.EMPIRICAL
REAR = EstimatorKind.REARRANGEMENT
GREN = EstimatorKind.GRENANDER
ALL_METRICS = tuple(MetricKind.parse(m) for m in ("hellinger", "l1", "l2", "linf", "l3"))
L_METRICS = ALL_METRICS[1:]

TRUTHS = ("uniform:5", "geometric:0.75", "mixture:0.2:3,0.8:7", "uniform:40")


def reference_vectors(counts: np.ndarray) -> dict:
    emp = empirical_pmf(counts).probs
    return {EMP: emp, REAR: rear(emp), GREN: gren_fraction(counts, int(counts.sum()))[0]}


def reference_raw(cfg: ExperimentConfig, samples=None) -> np.ndarray:
    """Distances of each replicate, one at a time; `samples` (a list of
    count rows) replaces the seeded samples of cfg when given."""
    truth = cfg.truth.to_pmf()
    ref = mixing_estimate(truth) if cfg.target == "mixing" else truth.probs
    if samples is None:
        samples = [sample(truth, cfg.n, mix_seed(cfg.seed, i)) for i in range(cfg.reps)]
    raw = np.empty((len(samples), len(cfg.estimators), len(cfg.metrics)))
    for i, counts in enumerate(samples):
        vectors = reference_vectors(counts)
        for e, kind in enumerate(cfg.estimators):
            vec = vectors[kind]
            if cfg.target == "mixing":
                vec = mixing_estimate(vec)
            for m, metric in enumerate(cfg.metrics):
                raw[i, e, m] = distance(vec, ref, metric)
    return raw


class TestCountRows:
    @settings(max_examples=60, deadline=None)
    @given(
        probs=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=30),
        n=st.one_of(st.integers(1, 40), st.integers(4090, 4200)),
        seed=st.integers(0, 2**64 - 1),
        rows=st.integers(1, 4),
    )
    def test_rows_equal_padded_samples(self, probs, n, seed, rows):
        probs = np.array(probs) / sum(probs)
        probs[-1] = 1.0 - probs[:-1].sum()
        if probs[-1] <= 0:
            return
        truth = Pmf(probs)
        matrix = sample_counts(truth, n, [mix_seed(seed, i) for i in range(rows)])
        assert matrix.shape == (rows, truth.support_size)
        for i in range(rows):
            counts = sample(truth, n, mix_seed(seed, i))
            padded = np.zeros(truth.support_size, dtype=counts.dtype)
            padded[: counts.size] = counts
            assert matrix[i].tobytes() == padded.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5))
    def test_keyed_generators_match_make_generator(self, seeds):
        streams = [rng.random(9).tobytes() for rng in keyed_generators(seeds)]
        assert streams == [make_generator(s).random(9).tobytes() for s in seeds]

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            sample(uniform_pmf(3), 10, seed=-1)
        with pytest.raises(ValueError):
            sample(uniform_pmf(3), 10, seed=2**64)

    @pytest.mark.parametrize("n", [1, 2, 9, 300])
    def test_sort_blocks_do_not_change_counts(self, n, monkeypatch):
        # blocks of one row, of part of the seeds, of all of them and beyond
        truth = TruthSpec.parse("mixture:0.2:3,0.8:7").to_pmf()
        seeds = mix_seed(11, np.arange(23))
        expected = np.stack([inverse_cdf_counts(truth, n, int(s)) for s in seeds])
        for values in {1, n - 1, n, n + 1, 7 * n, 7 * n + 1, 22 * n, 23 * n, 24 * n}:
            monkeypatch.setattr(pmf, "_SORT_VALUES", values)
            assert sample_counts(truth, n, seeds).tobytes() == expected.tobytes()

    def test_keyed_generators_take_lists_and_uint64_arrays(self):
        seeds = [0, 1, 2**63, 2**64 - 1]
        from_list = [rng.random(9).tobytes() for rng in keyed_generators(seeds)]
        from_array = [rng.random(9).tobytes() for rng in keyed_generators(np.array(seeds, dtype=np.uint64))]
        assert from_list == from_array == [make_generator(s).random(9).tobytes() for s in seeds]

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_keyed_generators_check_every_seed_first(self, bad):
        with pytest.raises(ValueError, match="64-bit unsigned"):
            next(keyed_generators([3, bad]))


def splitmix64(seed: int, index: int) -> int:
    """mix_seed written out in Python integers."""
    mask = 2**64 - 1
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class TestMixSeed:
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_array_equals_scalar(self, seed):
        index = np.concatenate([np.arange(500), [2**40, 2**62, 2**63 - 1]])
        seeds = mix_seed(seed, index)
        assert seeds.dtype == np.uint64 and seeds.shape == index.shape
        expected = [splitmix64(seed, int(i)) for i in index]
        assert [int(s) for s in seeds] == [mix_seed(seed, int(i)) for i in index] == expected

    def test_scalar_wraps_mod_2_64(self):
        assert mix_seed(2**64 + 5, 2**64 + 3) == mix_seed(5, 3) == splitmix64(5, 3)
        assert type(mix_seed(5, np.int64(3))) is int

    def test_non_integer_indices_rejected(self):
        with pytest.raises(ValueError):
            mix_seed(0, np.array([0.5, 1.0]))


def inverse_cdf_counts(p: Pmf, n: int, seed: int) -> np.ndarray:
    """Counts of n draws by searching each uniform into the cumulative
    probabilities, the stream that sample_counts must keep."""
    cum = np.cumsum(p.probs)
    cum[-1] = 1.0
    u = make_generator(seed).random(n)
    return np.bincount(np.searchsorted(cum, u, side="right"), minlength=p.support_size)


class TestCountStream:
    """sample_counts reproduces the inverse-CDF stream bit for bit (compared
    with the formula written out here, not with sample, which shares its code)."""

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.one_of(st.integers(1, 12), st.integers(100, 2000)),
        n=st.one_of(st.integers(1, 40), st.integers(20000, 40000)),
        zeros=st.sampled_from([0.0, 0.3, 0.9]),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**64 - 1),
        rows=st.integers(1, 3),
    )
    def test_rows_equal_inverse_cdf_search(self, size, n, zeros, data_seed, seed, rows):
        # interior zeros give repeated cumulative probabilities
        rng = np.random.default_rng(data_seed)
        w = rng.random(size) * (rng.random(size) >= zeros)
        w[-1] = 0.01 + rng.random()
        truth = Pmf(w / w.sum())
        seeds = [mix_seed(seed, i) for i in range(rows)]
        matrix = sample_counts(truth, n, seeds)
        for row, s in zip(matrix, seeds):
            assert row.tobytes() == inverse_cdf_counts(truth, n, s).tobytes()

    @pytest.mark.parametrize("k", [9, 21, 57])
    @pytest.mark.parametrize("tiny", [5e-324, 1e-300, 1e-17])
    def test_cumulative_sum_above_one(self, k, tiny):
        # k equal entries of 1/k sum to more than 1.0 in floats, so the
        # guard cum[-1] = 1.0 leaves the cumulative probabilities unsorted
        truth = Pmf(np.append(np.full(k, 1.0 / k), tiny))
        assert np.cumsum(truth.probs)[-2] > 1.0
        matrix = sample_counts(truth, 5000, range(4))
        assert np.all(matrix >= 0)
        for s, row in enumerate(matrix):
            assert row.tobytes() == inverse_cdf_counts(truth, 5000, s).tobytes()


class TestRunExperimentBytes:
    @pytest.mark.parametrize("truth", TRUTHS)
    @pytest.mark.parametrize("n", [3, 100, 5000])
    def test_pmf_target(self, truth, n):
        cfg = ExperimentConfig(TruthSpec.parse(truth), n=n, reps=97, seed=5, metrics=ALL_METRICS)
        assert run_experiment(cfg).raw.tobytes() == reference_raw(cfg).tobytes()

    @pytest.mark.parametrize("truth", TRUTHS)
    @pytest.mark.parametrize("n", [3, 60])
    def test_mixing_target(self, truth, n):
        spec = TruthSpec.parse(truth)
        for estimators, metrics in (((REAR, GREN), ALL_METRICS), ((EMP, REAR, GREN), L_METRICS)):
            cfg = ExperimentConfig(spec, n=n, reps=90, seed=8, estimators=estimators, metrics=metrics, target="mixing")
            assert run_experiment(cfg).raw.tobytes() == reference_raw(cfg).tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 250])
    def test_chunk_boundaries(self, chunk, monkeypatch):
        monkeypatch.setattr(experiments, "_CHUNK_ELEMENTS", chunk)
        cfg = ExperimentConfig(TruthSpec.parse("mixture:0.2:3,0.8:7"), n=20, reps=45, seed=2, metrics=ALL_METRICS)
        assert run_experiment(cfg).raw.tobytes() == reference_raw(cfg).tobytes()

    def test_chunk_rows_do_not_depend_on_n(self, monkeypatch):
        sizes = []
        original = experiments.sample_counts

        def counting(p, n, seeds):
            sizes.append(len(seeds))
            return original(p, n, seeds)

        monkeypatch.setattr(experiments, "sample_counts", counting)
        run_experiment(ExperimentConfig(TruthSpec.parse("uniform:5"), n=1000, reps=300, seed=1))
        assert sizes == [300]

    def test_memory_bounded_in_n_and_chunk(self):
        # At n = 10^5 a block of uniforms is one row of n float64 (2^14 // n
        # rows, at least one), whatever the chunk height; sorting it may take
        # one more such row.  The chunk's count and estimator arrays hold
        # reps * (K+1) values times a few estimators and metrics (under 100 KB
        # here), so 1 MiB covers them and the interpreter's own allocations.
        # Uniforms for all 40 rows of the chunk at once would take 32 MB.
        n = 10**5
        cfg = ExperimentConfig(TruthSpec.parse("mixture:0.2:3,0.8:7"), n=n, reps=40, seed=6)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * n + 2**20

    def test_estimator_order_and_repeats(self):
        cfg = ExperimentConfig(
            TruthSpec.parse("uniform:6"), n=30, reps=50, seed=3, estimators=(GREN, EMP, GREN, REAR), metrics=ALL_METRICS
        )
        assert run_experiment(cfg).raw.tobytes() == reference_raw(cfg).tobytes()

    @pytest.mark.parametrize("target", ["pmf", "mixing"])
    def test_replicate_distances_on_given_counts(self, target):
        # the counts reach past the truth's support, which the distances pad
        metrics = L_METRICS if target == "mixing" else ALL_METRICS
        cfg = ExperimentConfig(TruthSpec.parse("uniform:5"), n=103, reps=60, seed=4, metrics=metrics, target=target)
        samples = [np.array([20, 14, 11, 22, 15, 18, 0, 3])]
        samples += [sample(uniform_pmf(7), 103, mix_seed(4, i)) for i in range(59)]
        matrix = np.zeros((len(samples), 8), dtype=np.int64)
        for row, counts in zip(matrix, samples):
            row[: counts.size] = counts
        truth = cfg.truth.to_pmf()
        reference = mixing_estimate(truth) if target == "mixing" else truth.probs
        dists = replicate_distances(cfg, reference, matrix)
        assert dists.tobytes() == reference_raw(cfg, samples).tobytes()

    def test_inequality_violation_names_first_replicate(self, monkeypatch):
        # a broken rearrangement that inflates a large first frequency must be
        # caught at the same replicate, metric and values as a
        # one-replicate-at-a-time check; the pipeline rearranges the counts
        # and then divides by n
        def broken(counts):
            out = np.array(counts, dtype=float)
            first = out[..., 0]
            out[..., 0] = np.where(first > 0.65 * out.sum(axis=-1), 1.2 * first, first)
            return out

        monkeypatch.setattr(experiments, "rear", broken)
        cfg = ExperimentConfig(TruthSpec.parse("geometric:0.5"), n=50, reps=200, seed=3, metrics=ALL_METRICS)
        truth = cfg.truth.to_pmf()
        expected = None
        for i in range(cfg.reps):
            counts = sample(truth, cfg.n, mix_seed(cfg.seed, i))
            emp = counts / cfg.n
            for metric in cfg.metrics:
                d_emp = distance(emp, truth.probs, metric)
                d_bad = distance(broken(counts) / cfg.n, truth.probs, metric)
                if d_bad > d_emp + 1e-9:
                    expected = (
                        f"monotone-estimator inequality violated at replicate {i}: "
                        f"rearrangement {metric.label} distance {d_bad!r} exceeds empirical {d_emp!r}"
                    )
                    break
            if expected:
                break
        assert expected is not None and "replicate 0:" not in expected
        with pytest.raises(RuntimeError) as err:
            run_experiment(cfg)
        assert str(err.value) == expected


class TestBatchedDistance:
    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(1, 6),
        width=st.integers(1, 40),
        k=st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 7.0, math.inf]),
        seed=st.integers(0, 2**32),
    )
    def test_rows_match_one_dimensional(self, rows, width, k, seed):
        # l3 and friends take the root per element: numpy's vectorised pow
        # differs from the scalar one in the last bit on some inputs
        rng = np.random.default_rng(seed)
        a = rng.random((rows, 3, width))
        b = rng.random(width + 2)
        for metric in (MetricKind.hellinger(), MetricKind.ell(k)):
            batched = distance(a, b, metric)
            assert batched.shape == (rows, 3)
            for i in range(rows):
                for j in range(3):
                    assert batched[i, j].tobytes() == np.float64(distance(a[i, j], b, metric)).tobytes()

    def test_hellinger_rejects_negative_rows(self):
        with pytest.raises(ValueError, match="non-negative"):
            distance(np.array([[0.5, 0.5], [1.2, -0.2]]), [0.5, 0.5], MetricKind.hellinger())


class TestOtherDrivers:
    @pytest.mark.parametrize("k", [2, math.inf])
    @pytest.mark.parametrize("est", list(EstimatorKind))
    @pytest.mark.parametrize("truth,n", [("mixture:0.2:3,0.8:7", 100), ("uniform:30", 10), ("geometric:0.9", 6000)])
    def test_estimate_risk(self, k, est, truth, n):
        truth = TruthSpec.parse(truth).to_pmf()
        reps, seed = 70, 12
        losses = np.empty(reps)
        for i in range(reps):
            vec = reference_vectors(sample(truth, n, mix_seed(seed, i)))[est]
            vec = np.concatenate((vec, np.zeros(truth.support_size - vec.size)))
            diff = np.abs(vec - truth.probs)
            losses[i] = diff.max() if math.isinf(k) else float(np.sum(diff ** float(k)))
        r = estimate_risk(truth, n, k, est, reps, seed)
        assert (r.value, r.se) == (float(losses.mean()), float(losses.std(ddof=1) / math.sqrt(reps)))

    @pytest.mark.parametrize("est", list(EstimatorKind))
    @pytest.mark.parametrize("x,n", [(0, 100), (7, 9), (3, 5000)])
    def test_fluctuation_cdf(self, est, x, n):
        truth = uniform_pmf(7)
        reps, seed = 80, 21
        vals = np.empty(reps)
        for i in range(reps):
            vec = reference_vectors(sample(truth, n, mix_seed(seed, i)))[est]
            est_x = float(vec[x]) if x < vec.size else 0.0
            vals[i] = math.sqrt(n) * (est_x - float(truth.probs[x]))
        vals.sort()
        table = fluctuation_cdf(truth, x, n, reps, seed, est)
        assert table.tobytes() == vals.tobytes()


# sha256 of each output file of two small `simulate` runs, recorded at
# version 0.2.0, whose Grenander estimates are the exact slopes of the
# counts correctly rounded (`gren_counts`); the one-replicate-at-a-time
# reference loop above checks the same values
GOLDEN = {
    "pmf": (
        ["--truth", "mixture:0.2:3,0.8:7", "--n", "100", "--reps", "300", "--seed", "7",
         "--metrics", "hellinger,l1,l2,linf,l3"],
        {
            "_raw.csv": "eb98845be4ad0b181df473ecd5d84511a558000c198e8da18cfbe620c95952b4",
            "_summary.csv": "120825a70a41a47a2b6dce51847583f167a5bb232546ee22c9f460c034d4d9f3",
            "_meta.json": "1e0732b697c9b84d859f270c52ae28e31b56fa9ad591496740245d108e7890c2",
        },
    ),
    "mixing": (
        ["--truth", "geometric:0.75", "--n", "30", "--reps", "200", "--seed", "3",
         "--target", "mixing", "--estimators", "rear,gren"],
        {
            "_raw.csv": "a7da6563d96c2e67bc3c325253a67070c1429a0a37b5f20354ee1c0c1aa5efb0",
            "_summary.csv": "0c21801e281dddd2bdb5d3122a5450034fcab610e6ba046a867ad577b8d7bccc",
            "_meta.json": "3c9d0d7134bca15d60371d62e520b6143ab0b12f5b1855e71c3e555881dbec3c",
        },
    ),
}

# sha256 of each output file of two small `limits` runs, recorded with the
# row-by-row limit transform and the in-memory draws file that preceded
# the stack operators and the streamed writer
LIMITS_GOLDEN = {
    "uniform": (
        ["--truth", "uniform:9", "--reps", "500", "--seed", "3"],
        {
            "_draws.csv": "617edc5d7ce63c70decc15a3beca344fd83ef75f7ca83c4629de1f39c5033296",
            "_aggregate.csv": "6cb3292cbadd5ceaf085d675838a31983f181359b5e1a545a432c6497dcc6a6c",
        },
    ),
    "mixture": (
        ["--truth", "mixture:0.2:3,0.8:7"],
        {
            "_draws.csv": "1a9549296454450ec84b88990eda520b8496d9b7b6140b889766307148d9be04",
            "_aggregate.csv": "c8ef23972f62a37f9e42e7b4718963b86dd5db79f6a121176425cc40500851a9",
        },
    ),
}


# sha256 of the stdout of a risk run at the risk-large shape (K = 10^4,
# n = 10^5), recorded at version 0.2.0 with the exact Grenander of the
# counts
RISK_GOLDEN = (
    ["risk", "--truth", "uniform:9999", "--n", "100000", "--k", "2", "--estimator", "gren",
     "--reps", "3", "--seed", "1"],
    "2ab4270f4c15e1e4033ad974d4985e234bc86758c110f1cae09fea984bef5d33",
)


# sha256 of the outputs of the counts-file commands on the worked example
# (counts 20,14,11,22,15,18 against a uniform:5 truth), recorded at version
# 0.2.0: stdout, or each file the command writes
COUNTS_GOLDEN = {
    "estimate": (
        ["estimate", "--estimator", "all", "--truth", "uniform5.pmf"],
        {"stdout": "3875a2fd7520eebb4e5a9e47139a0d6fc34f09aba4b3f7691a39c5a667d94e3a"},
    ),
    "estimate_out": (
        ["estimate", "--estimator", "all", "--out", "fit.pmf"],
        {
            "fit.empirical.pmf": "d911635485ab059b6e6c45623120a33eb88a03e8b22cecd6281d275bb9f1199d",
            "fit.rear.pmf": "91a0f607956c01d7a72054c24f309907256a691785e1129eec2140c663597701",
            "fit.gren.pmf": "86fc693fd5a8822a8c12ca1b895dab59bda4c06ab2ae7f817be1e7c3b82f3cd5",
        },
    ),
    "mixing": (["mixing"], {"stdout": "7097064a561ac1963aced3ca3ac25061a9ad38c69d5b6d6bd8be0d0aae2b0988"}),
}


def check_digests(command, name, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the meta file records no paths, only the config
    args, digests = golden[name]
    assert main([command, *args, "--out", name]) == 0
    for suffix, digest in digests.items():
        assert hashlib.sha256((tmp_path / f"{name}{suffix}").read_bytes()).hexdigest() == digest, suffix


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_golden_digests(name, tmp_path, monkeypatch):
    check_digests("simulate", name, GOLDEN, tmp_path, monkeypatch)


@pytest.mark.parametrize("name", sorted(LIMITS_GOLDEN))
def test_limits_golden_digests(name, tmp_path, monkeypatch):
    check_digests("limits", name, LIMITS_GOLDEN, tmp_path, monkeypatch)


def test_risk_golden_digest(capsys):
    args, digest = RISK_GOLDEN
    assert main(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(COUNTS_GOLDEN))
def test_counts_golden_digests(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sample.counts").write_text("".join(f"{x}\t{c}\n" for x, c in enumerate([20, 14, 11, 22, 15, 18])))
    (tmp_path / "uniform5.pmf").write_text(format_pmf(uniform_pmf(5)))
    args, digests = COUNTS_GOLDEN[name]
    assert main([*args, "--counts", "sample.counts"]) == 0
    stdout = capsys.readouterr().out.encode()
    for target, digest in digests.items():
        data = stdout if target == "stdout" else (tmp_path / target).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, target
