"""The chunked replicate pipeline writes the same bytes as one replicate at a time.

Each driver (run_experiment, estimate_risk, fluctuation_cdf) and
replicate_distances on given counts are compared bit for bit with a
reference loop written here from the one-sample functions: empirical_pmf,
rear, mixing_estimate, distance and the exact `Fraction` Grenander of
tests/references.py, on the count rows that tests/references.py draws by
the block rule of count stream 3 and the stretch rule of count stream 4
(`replicate_rows`).
"""

import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from monopmf import cli, experiments, rng
from monopmf.cli import main
from monopmf.experiments import replicate_distances
from monopmf.pmf import sample_counts
from monopmf.rng import make_generator
from references import block_rows, format_pmf, gren_fraction, recorded_note, replicate_rows

EMP = EstimatorKind.EMPIRICAL
REAR = EstimatorKind.REARRANGEMENT
GREN = EstimatorKind.GRENANDER
ALL_METRICS = tuple(MetricKind.parse(m) for m in ("hellinger", "l1", "l2", "linf", "l3"))
L_METRICS = ALL_METRICS[1:]

TRUTHS = ("uniform:5", "geometric:0.75", "mixture:0.2:3,0.8:7", "uniform:40")


def reference_vectors(counts: np.ndarray) -> dict:
    emp = empirical_pmf(counts).probs
    return {EMP: emp, REAR: rear(emp), GREN: gren_fraction(counts, int(counts.sum()))[0]}


def replicate_samples(truth: Pmf, n: int, reps: int, seed: int) -> list:
    """The count rows of replicates 0..reps-1 by the block rule, each less
    its trailing zeros as `sample` returns it."""
    return [np.trim_zeros(row, "b") for row in replicate_rows(truth, n, reps, seed)]


def reference_raw(cfg: ExperimentConfig, samples=None) -> np.ndarray:
    """Distances of each replicate, one at a time; `samples` (a list of
    count rows) replaces the seeded samples of cfg when given."""
    truth = cfg.truth.to_pmf()
    ref = mixing_estimate(truth) if cfg.target == "mixing" else truth.probs
    if samples is None:
        samples = replicate_samples(truth, cfg.n, cfg.reps, cfg.seed)
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


def pipeline_rows(truth: Pmf, n: int, reps: int, seed: int) -> np.ndarray:
    """The count rows the replicate pipeline hands its statistic, in replicate order."""
    blocks = []

    def keep(counts):
        blocks.append(counts.copy())
        return np.zeros(len(counts))

    experiments._count_replicates(truth, n, seed, reps, (), keep)
    return np.concatenate(blocks)


class TestCountRows:
    @settings(max_examples=60, deadline=None)
    @given(
        probs=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=30),
        n=st.one_of(st.integers(1, 40), st.integers(4090, 4200)),
        seed=st.integers(0, 2**64 - 1),
        reps=st.integers(1, 40),
        chunk=st.integers(1, 200),
    )
    def test_rows_equal_padded_samples(self, probs, n, seed, reps, chunk):
        # the pipeline's rows are the block rule's, and each block's first row
        # is the padded sample of the block's seed
        probs = np.array(probs) / sum(probs)
        probs[-1] = 1.0 - probs[:-1].sum()
        if probs[-1] <= 0:
            return
        truth = Pmf(probs)
        with mock.patch.object(rng, "_CHUNK_ELEMENTS", chunk):
            matrix = pipeline_rows(truth, n, reps, seed)
            expected = replicate_rows(truth, n, reps, seed)
        assert matrix.shape == (reps, truth.support_size)
        assert matrix.tobytes() == expected.tobytes()
        height = max(1, chunk // truth.support_size)
        for b, start in enumerate(range(0, reps, height)):
            counts = sample(truth, n, mix_seed(seed, b))
            padded = np.zeros(truth.support_size, dtype=counts.dtype)
            padded[: counts.size] = counts
            assert matrix[start].tobytes() == padded.tobytes()

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
        for index in [*range(500), 2**40, 2**62, 2**63 - 1]:
            assert mix_seed(seed, index) == splitmix64(seed, index)

    def test_scalar_wraps_mod_2_64(self):
        assert mix_seed(5, 2**64 + 3) == mix_seed(5, 3) == splitmix64(5, 3)
        assert type(mix_seed(5, np.int64(3))) is int

    @pytest.mark.parametrize("seed", [-1, 2**64, True, 2.5])
    def test_bad_seed_rejected(self, seed):
        # not wrapped mod 2^64, read as seed 1 or truncated to seed 2
        with pytest.raises(ValueError, match="^seed must be"):
            mix_seed(seed, 1)

    def test_non_integer_indices_rejected(self):
        for index in (np.array([0.5, 1.0]), np.arange(3), 2.5, True):  # a scalar is not read as index 2 or 1
            with pytest.raises(ValueError):
                mix_seed(0, index)


# sha256 of the little-endian int64 bytes of sample_counts at fixed
# (truth, n, seed, rows), under `references.RECORDED`: small n*p takes
# numpy's binomial inversion and large n*p its BTPE sampler, and numpy
# promises neither stream across versions; the first three date from count
# stream 3 (the one-row mixture from stream 2), whose rows they still are.
# The last four take count stream 4: uniform:9999, uniform:999999 and
# uniform:99999 are one sparse stretch, so their rows are numpy's bounded
# `integers` alone (a one-cell multinomial draws nothing), the last in calls
# of w = 10^5 values, and the mixture has a dense and a sparse stretch, so
# it pins the two calls in turn
COUNT_ROWS_GOLDEN = {
    ("uniform:9", 1000, 2**64 - 1, 3): "f3a0fcfd5546d6f91a8ddf49b186c857cdd0972a3a91964c5822d8fac3255826",
    ("geometric:0.75", 20, 5, 2): "ab2bb0a0d631e7a30464112bc57d36a6d54fe161e168efff31e827cf1990de07",
    ("mixture:0.2:3,0.8:7", 10**12, 7, 1): "27b9afd8362d8609e727b7cd2bdd24a98e25550555c37f05cd2a27ec6c86fdf2",
    ("uniform:9999", 100000, 1, 1): "96861f453bbd98cc5e2b168fb323b6bf32280a4936c798763a764b6e0b67cc4d",
    ("uniform:999999", 10, 3, 2): "8d0dcf65da9c451c3cedbbb8e460149d72d272c287c2fb535f25228ead47ae19",
    ("mixture:0.5:999,0.5:9999", 100000, 2, 2): "2114039ef3d1c7112b601d174e1377fc28bcdb660696baf47026d55fa7f75736",
    ("uniform:99999", 10**6, 4, 1): "c2ef4b7339e80c480362a8a8c08eb858ef671c54d8553a857b26e5c4e64c4cee",
}

# 20 flat stretches of 500 points, each narrower than count stream 4's least width of 512
NARROW_STRETCHES = "mixture:" + ",".join(f"0.05:{500 * k - 1}" for k in range(1, 21))


class TestCountStream:
    """A block's count rows are one multinomial call on its seed's generator,
    or on a truth of more than 8192 points with a sparse flat stretch, one
    merged multinomial and one histogram of uniform integers per stretch and
    row (compared with the numpy calls written out in tests/references.py,
    not with sample, which shares its code)."""

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
        matrix = sample_counts(truth, n, seed, rows)
        assert matrix.dtype == np.int64 and matrix.shape == (rows, truth.support_size)
        assert matrix.tobytes() == block_rows(truth.probs, n, seed, rows).astype(np.int64).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.integers(8190, 12000),
        stretches=st.one_of(st.integers(1, 6), st.integers(15, 40)),
        n=st.one_of(st.integers(1, 40), st.integers(10**4, 3 * 10**5), st.integers(10**6, 10**9)),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**64 - 1),
        rows=st.integers(1, 3),
    )
    @example(size=10000, stretches=1, n=10**5, data_seed=0, seed=1, rows=2)
    @example(size=8193, stretches=1, n=16 * 8193, data_seed=0, seed=1, rows=1)
    def test_wide_rows_equal_stream_4(self, size, stretches, n, data_seed, seed, rows):
        # flat stretches of random widths and levels (zero levels too, never
        # drawn), each sparse or dense at n and wider or narrower than 512,
        # and singletons between them
        rng = np.random.default_rng(data_seed)
        cuts = np.sort(rng.choice(np.arange(1, size), stretches - 1, replace=False))
        levels = rng.random(stretches) * (rng.random(stretches) >= 0.2)
        levels[-1] = 0.01 + rng.random()
        w = np.repeat(levels, np.diff(cuts, prepend=0, append=size))
        w[rng.random(size) < 0.001] = rng.random()  # some singletons inside the stretches
        w[-1] = levels[-1]
        truth = Pmf(w / w.sum())
        matrix = sample_counts(truth, n, seed, rows)
        assert matrix.dtype == np.int64 and matrix.shape == (rows, size)
        assert matrix.tobytes() == block_rows(truth.probs, n, seed, rows).tobytes()
        assert np.all(matrix.sum(axis=1) == n) and np.all(matrix >= 0)

    @settings(max_examples=40, deadline=None)
    @given(
        truth=st.sampled_from(TRUTHS + ("mixture:0.5:999,0.5:9999",)),
        n=st.one_of(st.integers(1, 40), st.integers(20000, 40000)),
        seed=st.integers(0, 2**64 - 1),
        rows=st.lists(st.integers(0, 40), min_size=2, max_size=2),
    )
    @example(truth="uniform:5", n=1000, seed=11, rows=[1, 37])
    @example(truth="mixture:0.2:3,0.8:7", n=1000, seed=11, rows=[5, 37])
    @example(truth="geometric:0.75", n=1000, seed=11, rows=[36, 37])
    @example(truth="mixture:0.5:999,0.5:9999", n=40000, seed=11, rows=[3, 8])
    def test_rows_are_a_prefix_of_more_rows(self, truth, n, seed, rows):
        # numpy draws the rows one after another, so a replicate's row does not
        # depend on how many rows its block draws
        truth = TruthSpec.parse(truth).to_pmf()
        short, long = sorted(rows)
        assert sample_counts(truth, n, seed, short).tobytes() == sample_counts(truth, n, seed, long)[:short].tobytes()

    @pytest.mark.parametrize("target", ["pmf", "mixing"])
    def test_raw_is_a_prefix_across_block_boundaries(self, target):
        # uniform:40 draws blocks of 16384 // 41 = 399 replicates, so 500 ends
        # inside the second block, which 900 draws whole
        spec = TruthSpec.parse("uniform:40")
        estimators = (REAR, GREN) if target == "mixing" else (EMP, REAR, GREN)
        short, long = (
            run_experiment(ExperimentConfig(spec, n=50, reps=reps, seed=9, estimators=estimators, target=target)).raw
            for reps in (500, 900)
        )
        assert short.tobytes() == long[:500].tobytes()

    @pytest.mark.parametrize(
        "truth,n",
        [
            ("uniform:8192", 16 * 8193 + 1),
            ("uniform:9999", 10**6),
            ("geometric:0.999", 1000),
            (NARROW_STRETCHES, 1000),
        ],
        ids=["8192", "9999", "geometric:0.999", "narrow-stretches"],
    )
    def test_one_row_blocks_keep_the_stream_2_rows(self, truth, n):
        # K+1 > 8192 gives blocks of one row; with no sparse stretch (a flat
        # truth whose per-point mean n*p passes 16, a strictly decreasing
        # one, or stretches narrower than 512 points) replicate i is stream
        # 2's make_generator(mix_seed(seed, i)).multinomial(n, p)
        truth = TruthSpec.parse(truth).to_pmf()
        assert truth.support_size > 8192
        rows = pipeline_rows(truth, n, 3, 4)
        for i, row in enumerate(rows):
            assert row.tobytes() == make_generator(mix_seed(4, i)).multinomial(n, truth.probs).tobytes()

    @pytest.mark.parametrize(
        "truth,n",
        [
            ("uniform:8192", 16 * 8193),
            ("uniform:9999", 1000),
            ("mixture:0.5:999,0.5:9999", 10**5),
            ("uniform:99999", 10**6),
        ],
    )
    def test_one_row_blocks_take_stream_4_on_a_sparse_stretch(self, truth, n):
        # replicate i is the stream-4 row of its own block's seed mix_seed(seed, i),
        # which differs from the stream-2 row of that seed
        truth = TruthSpec.parse(truth).to_pmf()
        rows = pipeline_rows(truth, n, 3, 4)
        for i, row in enumerate(rows):
            assert row.tobytes() == block_rows(truth.probs, n, mix_seed(4, i), 1)[0].tobytes()
            assert row.tobytes() != make_generator(mix_seed(4, i)).multinomial(n, truth.probs).tobytes()

    @pytest.mark.parametrize("k", [9, 21, 57])
    @pytest.mark.parametrize("tiny", [5e-324, 1e-300, 1e-17])
    def test_cumulative_sum_above_one(self, k, tiny):
        # k equal entries of 1/k sum to more than 1.0 in floats; such a
        # truth is still a pmf, and its counts are a sample of size n
        truth = Pmf(np.append(np.full(k, 1.0 / k), tiny))
        assert np.cumsum(truth.probs)[-2] > 1.0
        matrix = sample_counts(truth, 5000, 0, 4)
        assert np.all(matrix >= 0)
        assert np.all(matrix.sum(axis=1) == 5000)

    @pytest.mark.parametrize("case", list(COUNT_ROWS_GOLDEN), ids=lambda case: f"{case[0]}-n{case[1]}")
    def test_rows_digest(self, case):
        truth, n, seed, rows = case
        matrix = sample_counts(TruthSpec.parse(truth).to_pmf(), n, seed, rows)
        digest = hashlib.sha256(matrix.astype("<i8").tobytes()).hexdigest()
        assert digest == COUNT_ROWS_GOLDEN[case], recorded_note()

    def test_sample_size_of_2_63_rejected(self):
        for n in (0, 2**63, 2**64):
            with pytest.raises(ValueError, match=r"^sample size n must lie in \[1, 2\^63\)"):
                sample_counts(uniform_pmf(3), n, 1, 1)
        assert sample_counts(uniform_pmf(3), 2**63 - 1, 1, 1).sum() == 2**63 - 1

    @pytest.mark.parametrize("y", [3, 9999])
    def test_negative_rows_rejected(self, y):
        # numpy's own message ("negative dimensions are not allowed") named no argument
        for rows in (-1, -5):
            with pytest.raises(ValueError, match=f"^rows must be non-negative, got {rows}$"):
                sample_counts(uniform_pmf(y), 1000, 1, rows)
        assert sample_counts(uniform_pmf(y), 1000, 1, 0).shape == (0, y + 1)


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
        monkeypatch.setattr(rng, "_CHUNK_ELEMENTS", chunk)
        cfg = ExperimentConfig(TruthSpec.parse("mixture:0.2:3,0.8:7"), n=20, reps=45, seed=2, metrics=ALL_METRICS)
        assert run_experiment(cfg).raw.tobytes() == reference_raw(cfg).tobytes()

    def test_chunk_rows_do_not_depend_on_n(self, monkeypatch):
        # uniform:5 draws blocks of 16384 // 6 = 2730 replicates, block b on mix_seed(seed, b)
        calls = []
        original = experiments.sample_counts

        def counting(p, n, seed, rows):
            calls.append((seed, rows))
            return original(p, n, seed, rows)

        monkeypatch.setattr(experiments, "sample_counts", counting)
        for n in (1000, 10**9):
            calls.clear()
            run_experiment(ExperimentConfig(TruthSpec.parse("uniform:5"), n=n, reps=3000, seed=1))
            assert calls == [(mix_seed(1, 0), 2730), (mix_seed(1, 1), 270)]

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
        for i, counts in enumerate(replicate_samples(truth, cfg.n, cfg.reps, cfg.seed)):
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
        for i, counts in enumerate(replicate_samples(truth, n, reps, seed)):
            vec = reference_vectors(counts)[est]
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
        for i, counts in enumerate(replicate_samples(truth, n, reps, seed)):
            vec = reference_vectors(counts)[est]
            est_x = float(vec[x]) if x < vec.size else 0.0
            vals[i] = math.sqrt(n) * (est_x - float(truth.probs[x]))
        vals.sort()
        table = fluctuation_cdf(truth, x, n, reps, seed, est)
        assert table.tobytes() == vals.tobytes()


# sha256 of each output file of two small `simulate` runs, under
# `references.RECORDED` (`_raw.csv` and `_summary.csv` unchanged since
# 0.4.0: K+1 <= 8192 keeps count stream 3's rows), whose Grenander
# estimates are the exact slopes of the counts correctly rounded
# (`gren_counts`); the one-replicate-at-a-time reference loop above checks
# the same values
GOLDEN = {
    "pmf": (
        ["--truth", "mixture:0.2:3,0.8:7", "--n", "100", "--reps", "300", "--seed", "7",
         "--metrics", "hellinger,l1,l2,linf,l3"],
        {
            "_raw.csv": "45e5223d5d765b1228588332559c66b01b2d91c435def2c3008e0d90ca99410d",
            "_summary.csv": "0a18d6268a874232ed355dfd6d94008de06dbd57cf7d590e2d96e5d20b355f1c",
            "_meta.json": "df6c4e12bd4f01efef94cf11191266f14e7eed764d159bdeee1186dec378f200",
        },
    ),
    "mixing": (
        ["--truth", "geometric:0.75", "--n", "30", "--reps", "200", "--seed", "3",
         "--target", "mixing", "--estimators", "rear,gren"],
        {
            "_raw.csv": "774171b45a7baadba20d8ac1083719ef3ff167ce7a84eb18f902622722790b08",
            "_summary.csv": "3c4c24dbaa055e0dea2c4e570e2df7d60039a9fcd03a9419327bf4d37919c59a",
            "_meta.json": "0aa619f7218148948aeb38320427c99905207d9f19036c0f15374f60c2d04f0a",
        },
    ),
}

# sha256 of each output file of small `limits` runs: "uniform" and
# "mixture" recorded with the row-by-row limit transform and the in-memory
# draws file that preceded the stack operators and the streamed writer (both
# stacks now take the column sweep); "loop", a 100 x 100 stack that takes
# the per-row loop, recorded before that loop absorbed its segment helper;
# "blocks" and "wide", which span several replicate blocks, recorded before
# the limit drivers drew their normals block by block
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
    "blocks": (  # 4 replicate blocks of 1638 rows
        ["--truth", "uniform:9", "--reps", "5000", "--seed", "7"],
        {
            "_draws.csv": "2102be23e4e4380ae39b9f9a531201d9d9ece5ce665b4f3c22d0727d1959c7cb",
            "_aggregate.csv": "6be816d3109f5d1be03e7c8e40afd4b18adfd52b0c416ce1dea4508e1fe2af15",
        },
    ),
    "wide": (  # one row per block, and a 20001-line aggregate written in several pieces
        ["--truth", "uniform:20000", "--reps", "3", "--seed", "9"],
        {
            "_draws.csv": "dc0a58a74146b3927078083a4c2042a8f219845a4a823024703b022bd8e019b3",
            "_aggregate.csv": "1bab48dbb0d9bfbb3020e0acbcad1e4732d0c849b4fc0031cfdaf97fbd3f65f7",
        },
    ),
}


# sha256 of the stdout of a risk run at the risk-large shape (K = 10^4,
# n = 10^5, so n*p = 10 and each row is count stream 4's uniform integers),
# under `references.RECORDED`, with the exact Grenander of the counts
RISK_GOLDEN = (
    ["risk", "--truth", "uniform:9999", "--n", "100000", "--k", "2", "--estimator", "gren",
     "--reps", "3", "--seed", "1"],
    "0eb700d8e435be3b71d274c384644b79b857bcbc54d80e5ca649efa4b5f2cfe0",
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
        assert hashlib.sha256((tmp_path / f"{name}{suffix}").read_bytes()).hexdigest() == digest, f"{suffix}: {recorded_note()}"


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


@pytest.mark.parametrize("elements", [1, 7, 250])
@pytest.mark.parametrize("name", ["blocks", "wide"])
def test_limits_golden_digests_whatever_the_block_size(name, elements, tmp_path, monkeypatch):
    # the draws are row cuts of one normal stack, and the aggregate is a pairwise sum streamed
    # over the blocks as they come, so no byte may depend on the block height
    monkeypatch.setattr(rng, "_CHUNK_ELEMENTS", elements)
    check_digests("limits", name, LIMITS_GOLDEN, tmp_path, monkeypatch)


def test_risk_golden_digest(capsys):
    args, digest = RISK_GOLDEN
    assert main(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, recorded_note()


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
        assert hashlib.sha256(data).hexdigest() == digest, f"{target}: {recorded_note()}"
