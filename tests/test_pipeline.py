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
from monopmf import cli, experiments, format_pmf
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
        # a fractional seed is not truncated to seed 2
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample(uniform_pmf(3), 10, seed=2.5)
        with pytest.raises(ValueError, match="seed must be an integer"):
            make_generator(2.5)

    def test_keyed_generators_take_lists_and_uint64_arrays(self):
        seeds = [0, 1, 2**63, 2**64 - 1]
        from_list = [rng.random(9).tobytes() for rng in keyed_generators(seeds)]
        from_array = [rng.random(9).tobytes() for rng in keyed_generators(np.array(seeds, dtype=np.uint64))]
        assert from_list == from_array == [make_generator(s).random(9).tobytes() for s in seeds]

    def test_keyed_generators_reset_the_whole_state(self):
        # each row starts from make_generator's state, even after the previous
        # row left half of a 64-bit word (has_uint32) or a part-used buffer
        def plain(state):
            return {k: plain(v) if isinstance(v, dict) else np.asarray(v).tolist() for k, v in state.items()}

        seeds = [0, 2**63, 2**64 - 1, 0]
        for seed, rng in zip(seeds, keyed_generators(seeds)):
            assert plain(rng.bit_generator.state) == plain(make_generator(seed).bit_generator.state)
            rng.integers(0, 7, size=3, dtype=np.uint32)  # leaves has_uint32 set
            rng.random(1)  # part-uses the four-word buffer
            assert rng.bit_generator.state["has_uint32"] == 1 and rng.bit_generator.state["buffer_pos"] < 4

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
        assert mix_seed(5, 2**64 + 3) == mix_seed(5, 3) == splitmix64(5, 3)
        assert type(mix_seed(5, np.int64(3))) is int

    @pytest.mark.parametrize("seed", [-1, 2**64, True, 2.5])
    def test_bad_seed_rejected(self, seed):
        # not wrapped mod 2^64, read as seed 1 or truncated to seed 2
        with pytest.raises(ValueError, match="^seed must be"):
            mix_seed(seed, 1)

    def test_non_integer_indices_rejected(self):
        for index in (np.array([0.5, 1.0]), 2.5, True):  # a scalar is not read as index 2 or 1
            with pytest.raises(ValueError):
                mix_seed(0, index)


# sha256 of the little-endian int64 bytes of sample_counts at fixed
# (truth, n, seeds), recorded with numpy 2.4.6: small n*p takes numpy's
# binomial inversion and large n*p its BTPE sampler, and numpy promises
# neither stream across versions
COUNT_ROWS_GOLDEN = {
    ("uniform:9", 1000, (0, 1, 2**64 - 1)): "eed4e113f7ed2f457b085779fb2fa67167dbe97a5a0fe4f6796522e47e014e2d",
    ("geometric:0.75", 20, (5, 6)): "71512938dd3238535a2a6eeff06c2c150fe042300632e32f0fac1460a11c5ae6",
    ("mixture:0.2:3,0.8:7", 10**12, (7,)): "27b9afd8362d8609e727b7cd2bdd24a98e25550555c37f05cd2a27ec6c86fdf2",
    ("uniform:9999", 100000, (1,)): "2d73c60ec9d5d4c8439e59cfe5d33e45ee0cbdb8fd52b4a1789229f081972bfa",
}


class TestCountStream:
    """Each row of sample_counts is one multinomial draw on its seed's
    generator (compared with the numpy call written out here, not with
    sample, which shares its code)."""

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.one_of(st.integers(1, 12), st.integers(100, 2000)),
        n=st.one_of(st.integers(1, 40), st.integers(20000, 40000)),
        zeros=st.sampled_from([0.0, 0.3, 0.9]),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**64 - 1),
        rows=st.integers(1, 3),
    )
    def test_rows_equal_multinomial(self, size, n, zeros, data_seed, seed, rows):
        # interior zeros are categories that are never drawn
        rng = np.random.default_rng(data_seed)
        w = rng.random(size) * (rng.random(size) >= zeros)
        w[-1] = 0.01 + rng.random()
        truth = Pmf(w / w.sum())
        seeds = [mix_seed(seed, i) for i in range(rows)]
        matrix = sample_counts(truth, n, seeds)
        assert matrix.dtype == np.int64 and matrix.shape == (rows, truth.support_size)
        for row, s in zip(matrix, seeds):
            assert row.tobytes() == make_generator(s).multinomial(n, truth.probs).astype(np.int64).tobytes()

    @pytest.mark.parametrize("k", [9, 21, 57])
    @pytest.mark.parametrize("tiny", [5e-324, 1e-300, 1e-17])
    def test_cumulative_sum_above_one(self, k, tiny):
        # k equal entries of 1/k sum to more than 1.0 in floats; such a
        # truth is still a pmf, and its counts are a sample of size n
        truth = Pmf(np.append(np.full(k, 1.0 / k), tiny))
        assert np.cumsum(truth.probs)[-2] > 1.0
        matrix = sample_counts(truth, 5000, range(4))
        assert np.all(matrix >= 0)
        assert np.all(matrix.sum(axis=1) == 5000)

    @pytest.mark.parametrize("case", list(COUNT_ROWS_GOLDEN), ids=lambda case: f"{case[0]}-n{case[1]}")
    def test_rows_digest(self, case):
        truth, n, seeds = case
        matrix = sample_counts(TruthSpec.parse(truth).to_pmf(), n, seeds)
        digest = hashlib.sha256(matrix.astype("<i8").tobytes()).hexdigest()
        assert digest == COUNT_ROWS_GOLDEN[case], f"numpy {np.__version__} draws another count stream"

    def test_sample_size_of_2_63_rejected(self):
        for n in (0, 2**63, 2**64):
            with pytest.raises(ValueError, match=r"^sample size n must lie in \[1, 2\^63\)"):
                sample_counts(uniform_pmf(3), n, [1])
        assert sample_counts(uniform_pmf(3), 2**63 - 1, [1]).sum() == 2**63 - 1


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
        # A chunk's count matrix and estimator arrays hold reps * (K+1)
        # values times a few estimators and metrics (under 100 KB here),
        # whatever n is, so 1 MiB covers them and the interpreter's own
        # allocations at n = 10^5 and at n = 10^12 alike.
        for n in (10**5, 10**12):
            cfg = ExperimentConfig(TruthSpec.parse("mixture:0.2:3,0.8:7"), n=n, reps=40, seed=6)
            tracemalloc.start()
            try:
                run_experiment(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2**20, n

    def test_estimator_order_and_repeats(self):
        # the columns follow the config's order; a repeated estimator would write its rows twice and is refused
        cfg = ExperimentConfig(
            TruthSpec.parse("uniform:6"), n=30, reps=50, seed=3, estimators=(GREN, EMP, REAR), metrics=ALL_METRICS
        )
        assert run_experiment(cfg).raw.tobytes() == reference_raw(cfg).tobytes()
        with pytest.raises(ValueError, match="estimator 'grenander' given more than once"):
            ExperimentConfig(cfg.truth, n=30, reps=50, seed=3, estimators=(GREN, EMP, GREN, REAR))

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
# version 0.3.0 (count stream 2, numpy 2.4.6), whose Grenander estimates
# are the exact slopes of the counts correctly rounded (`gren_counts`); the
# one-replicate-at-a-time reference loop above checks the same values
GOLDEN = {
    "pmf": (
        ["--truth", "mixture:0.2:3,0.8:7", "--n", "100", "--reps", "300", "--seed", "7",
         "--metrics", "hellinger,l1,l2,linf,l3"],
        {
            "_raw.csv": "d6ec30b4207aaf6c8af87d8b77193df8bbd1cd70d4c6d33bd2d921444a60df06",
            "_summary.csv": "571ef0a59bacee92252724734fe56bd31bfaf3822144644180f3e3c160602a69",
            "_meta.json": "ffa82ca908b2669c3f866b4eef9c2c3818b85860b05fab5fd42a2083e53bb48a",
        },
    ),
    "mixing": (
        ["--truth", "geometric:0.75", "--n", "30", "--reps", "200", "--seed", "3",
         "--target", "mixing", "--estimators", "rear,gren"],
        {
            "_raw.csv": "a80050ced80cc68254c2519989975ba16906501f47976b427aee53c0e491629f",
            "_summary.csv": "1c5f0c22f5e1d6d825faf29091c1e6543945471dac996920f65389ac933cb41e",
            "_meta.json": "004bc04e534fdb79fc2645bbc6064571e0cec3594f947469550937b82d808fca",
        },
    ),
}

# sha256 of each output file of small `limits` runs: "uniform" and
# "mixture" recorded with the row-by-row limit transform and the in-memory
# draws file that preceded the stack operators and the streamed writer (both
# stacks now take the column sweep); "loop", a 100 x 100 stack that takes
# the per-row loop, recorded before that loop absorbed its segment helper
LIMITS_GOLDEN = {
    "loop": (
        ["--truth", "uniform:99", "--reps", "100", "--seed", "5"],
        {
            "_draws.csv": "d3a600e384e23ae50f7416479d6fa1115cd504d079b2eee553719538a68cc2c8",
            "_aggregate.csv": "7a35d8ea29e4f9631063109a99ef1645d76fefa783fb759744228141138ec073",
        },
    ),
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
# n = 10^5), recorded at version 0.3.0 (count stream 2, numpy 2.4.6) with
# the exact Grenander of the counts
RISK_GOLDEN = (
    ["risk", "--truth", "uniform:9999", "--n", "100000", "--k", "2", "--estimator", "gren",
     "--reps", "3", "--seed", "1"],
    "bdd542344406fc5ddf2c37de305ebb45c1d9e8539ed7009154934c91b8c9ed63",
)


# sha256 of the outputs of the counts-file commands on the worked example
# (counts 20,14,11,22,15,18 against a uniform:5 truth), recorded at version
# 0.2.0 (mixing at 0.3.0, where a weight inside a flat stretch prints 0, not
# -0): stdout, or each file the command writes
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
    "mixing": (["mixing"], {"stdout": "278b965cc94d0db10fffe8e3b332707c976944a822c289d528047b7345221caa"}),
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


@pytest.mark.parametrize("rows", [1, 7, 40, 10**6])
@pytest.mark.parametrize("command,name,golden", [("simulate", "pmf", GOLDEN), ("limits", "mixture", LIMITS_GOLDEN)],
                         ids=["simulate", "limits"])
def test_golden_digests_whatever_the_piece_size(command, name, golden, rows, tmp_path, monkeypatch):
    # a streamed CSV formats each piece on its own, so no byte may depend on where a piece ends
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", rows)
    check_digests(command, name, golden, tmp_path, monkeypatch)


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
