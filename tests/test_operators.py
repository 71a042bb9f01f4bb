"""Tests for the rearrangement and Grenander operators and mixing recovery."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.testing import assert_allclose, assert_array_equal

from monopmf import (
    Pmf,
    constancy_blocks,
    geometric_pmf,
    gren,
    limit_transform,
    mixing_estimate,
    mixture_of_uniforms,
    rear,
    touch_count,
    uniform_pmf,
)
from monopmf.operators import column_sweep
from references import gren_oracle, gren_oracle_stack

EXAMPLE_EMPIRICAL = np.array([0.20, 0.14, 0.11, 0.22, 0.15, 0.18])

finite_values = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
sequences = st.lists(finite_values, min_size=1, max_size=30)
# few distinct values, so rows carry ties and signed zeros
stack_values = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, -0.5, 1.0]), finite_values)
# no value so small that scaling by 2**-20 could make a sum subnormal
scalable_values = st.one_of(
    st.sampled_from([0.0, 0.25, -0.5]), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6)
)
stack_shapes = st.one_of(
    array_shapes(min_dims=2, max_dims=2, max_side=8), array_shapes(min_dims=3, max_dims=3, max_side=5)
)


class TestRear:
    def test_sample_from_uniform(self):
        assert_allclose(rear(EXAMPLE_EMPIRICAL), [0.22, 0.20, 0.18, 0.15, 0.14, 0.11])

    def test_already_sorted(self):
        assert_array_equal(rear([0.5, 0.3, 0.2]), [0.5, 0.3, 0.2])

    def test_ties(self):
        assert_array_equal(rear([0.1, 0.3, 0.3, 0.3]), [0.3, 0.3, 0.3, 0.1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rear([])

    @given(sequences)
    def test_permutation_invariant(self, values):
        v = np.array(values)
        rng = np.random.default_rng(0)
        assert_array_equal(rear(v), rear(rng.permutation(v)))

    @given(sequences)
    def test_output_sorted_same_multiset(self, values):
        out = rear(values)
        assert np.all(np.diff(out) <= 0)
        assert_array_equal(np.sort(out), np.sort(np.array(values, dtype=float)))


class TestGren:
    def test_sample_from_uniform(self):
        assert_allclose(gren(EXAMPLE_EMPIRICAL), [0.20, 0.16, 0.16, 0.16, 0.16, 0.16])

    def test_concave_input_fixed(self):
        assert_array_equal(gren([0.5, 0.3, 0.2]), [0.5, 0.3, 0.2])

    def test_single_chord(self):
        # LCM of (-1,0),(0,0.1),(1,0.4),(2,1.0) is one chord of slope 1/3
        assert_allclose(gren([0.1, 0.3, 0.6]), [1 / 3, 1 / 3, 1 / 3])

    def test_single_point(self):
        assert_array_equal(gren([1.0]), [1.0])
        assert_array_equal(gren_oracle([1.0]), [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gren([])
        with pytest.raises(ValueError):
            gren_oracle([])

    def test_monotone_input_bitwise_fixed(self):
        # runs of equal values must survive untouched, including awkward floats
        v = np.array([0.3, 0.1, 0.1, 0.1, 0.1, 0.05])
        out = gren(v)
        assert out.tobytes() == v.tobytes()
        assert rear(v).tobytes() == v.tobytes()

    @given(sequences)
    @settings(max_examples=300)
    def test_matches_oracle(self, values):
        assert_allclose(gren(values), gren_oracle(values), rtol=0, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_stacked_oracle_matches_rows(self, data):
        shape = data.draw(array_shapes(min_dims=2, max_dims=2, max_side=8))
        a = data.draw(arrays(float, shape, elements=stack_values))
        out = gren_oracle_stack(a)
        for row, fitted in zip(a, out):
            assert fitted.tobytes() == gren_oracle(row).tobytes()

    @given(sequences)
    def test_nonincreasing_and_sum_preserved(self, values):
        v = np.array(values)
        scale = max(1.0, np.abs(v).max())
        for out in (gren(v), rear(v)):
            assert np.all(np.diff(out) <= 1e-12 * scale)
            assert abs(out.sum() - v.sum()) <= 1e-12 * max(1.0, scale * v.size)

    @given(sequences)
    def test_partial_sum_domination(self, values):
        v = np.array(values)
        tol = 1e-9 * max(1.0, np.abs(v).max() * v.size)
        for out in (gren(v), rear(v)):
            gap = np.cumsum(out) - np.cumsum(v)
            assert np.all(gap >= -tol)
            assert abs(gap[-1]) <= tol

    def test_exhaustive_small_grid(self):
        # quick slice of the exhaustive acceptance sweep
        grid = [0.0, 0.5, 1.0]
        for length in range(1, 5):
            for seq in itertools.product(grid, repeat=length):
                assert_allclose(gren(seq), gren_oracle(seq), rtol=0, atol=1e-12)


class TestOperatorInequalities:
    """Order-theoretic facts behind the estimator dominance results."""

    @given(sequences, st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_increasing_functional_decreases(self, values, seed):
        v = np.array(values)
        rng = np.random.default_rng(seed)
        f = np.sort(rng.uniform(-5, 5, size=v.size))  # non-decreasing
        tol = 1e-9 * max(1.0, np.abs(v).max()) * max(1, v.size)
        for out in (gren(v), rear(v)):
            assert np.sum(f * out) <= np.sum(f * v) + tol

    @given(sequences, st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
    @settings(max_examples=200)
    def test_convex_loss_to_monotone_target_decreases(self, values, seed, k):
        v = np.array(values)
        rng = np.random.default_rng(seed)
        q = -np.sort(rng.uniform(-5, 5, size=v.size))  # non-increasing target
        base = np.sum(np.abs(v - q) ** k)
        tol = 1e-9 * max(1.0, base)
        for out in (gren(v), rear(v)):
            assert np.sum(np.abs(out - q) ** k) <= base + tol


class TestConstancyBlocks:
    def test_uniform_single_block(self):
        assert constancy_blocks(uniform_pmf(5)) == [(0, 5)]

    def test_strictly_decreasing_singletons(self):
        p = Pmf(np.array([0.5, 0.3, 0.2]), monotone=True)
        assert constancy_blocks(p) == [(0, 0), (1, 1), (2, 2)]

    def test_two_level_mixture(self):
        p = mixture_of_uniforms([0.2, 0.8], [3, 7])
        assert constancy_blocks(p) == [(0, 3), (4, 7)]

    def test_requires_monotone(self):
        c = Pmf(np.array([0.2, 0.3, 0.5]))
        with pytest.raises(ValueError):
            constancy_blocks(c)

    def test_tiny_strictly_decreasing_tail_not_merged(self):
        # the tail of geometric:0.75 drops below 1e-12 but stays strictly decreasing
        p = geometric_pmf(0.75)
        assert p.support_size == 97
        assert constancy_blocks(p) == [(x, x) for x in range(97)]

    @settings(max_examples=100, deadline=None)
    @given(
        raw=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
        gaps=st.lists(st.integers(1, 12), min_size=6, max_size=6),
    )
    def test_mixture_blocks_end_at_components(self, raw, gaps):
        ys = np.cumsum(gaps[: len(raw)]) - 1  # strictly increasing, from 0 up
        p = mixture_of_uniforms(np.array(raw) / sum(raw), ys)
        starts = [0] + [int(y) + 1 for y in ys[:-1]]
        assert constancy_blocks(p) == list(zip(starts, ys.tolist()))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**4))
    def test_uniform_is_one_block(self, y):
        assert constancy_blocks(uniform_pmf(y)) == [(0, y)]

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 0.999))
    def test_geometric_blocks_are_singletons(self, theta):
        p = geometric_pmf(theta)
        assert constancy_blocks(p) == [(x, x) for x in range(p.support_size)]


class TestLimitTransform:
    def test_identity_on_singletons(self):
        y = np.array([0.3, -0.1, 0.4])
        blocks = [(0, 0), (1, 1), (2, 2)]
        y_rear, y_gren = limit_transform(y, blocks)
        assert_array_equal(y_rear, y)
        assert_array_equal(y_gren, y)

    def test_single_block_is_global_transform(self):
        y = np.array([0.1, -0.2, 0.3, 0.0])
        y_rear, y_gren = limit_transform(y, [(0, 3)])
        assert_array_equal(y_rear, rear(y))
        assert_array_equal(y_gren, gren(y))

    def test_two_blocks_worked_example(self):
        y = np.array([0.1, -0.2, 0.3, 0.0, 0.05, -0.05, 0.2, -0.1])
        y_rear, y_gren = limit_transform(y, [(0, 3), (4, 7)])
        assert_allclose(y_rear, [0.3, 0.1, 0.0, -0.2, 0.2, 0.05, -0.05, -0.1])
        assert_allclose(y_gren[:4], [0.1, 0.05, 0.05, 0.0])
        assert_allclose(y_gren[4:], gren_oracle(y[4:]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            limit_transform(np.zeros(5), [(0, 3)])
        with pytest.raises(ValueError):
            limit_transform(np.zeros(4), [(0, 1), (3, 3)])


class TestStackContract:
    """gren and limit_transform act row by row on a stack, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_gren_stack_matches_rows(self, data):
        shape = data.draw(stack_shapes)
        a = data.draw(arrays(float, shape, elements=stack_values))
        monotone = data.draw(arrays(bool, shape[:-1]))
        a[monotone] = -np.sort(-a[monotone], axis=-1)
        out = gren(a)
        assert out.shape == a.shape
        for idx in np.ndindex(shape[:-1]):
            assert out[idx].tobytes() == gren(a[idx]).tobytes()
        assert out[monotone].tobytes() == a[monotone].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(arrays(float, st.integers(1, 20), elements=scalable_values), st.integers(-20, 20))
    def test_gren_scale_equivariant(self, w, j):
        c = 2.0**j
        assert gren(c * w).tobytes() == (c * gren(w)).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(arrays(float, st.integers(1, 20), elements=scalable_values), st.floats(1e-6, 1e6))
    def test_gren_scale_equivariant_any_factor(self, w, c):
        # scaling by c rounds every entry, so pooled sums and means may move
        # by a few roundings of the largest partial sum: c * sum|w| * L * eps
        bound = c * np.abs(w).sum() * w.size * np.finfo(float).eps
        assert np.max(np.abs(gren(c * w) - c * gren(w))) <= bound

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_limit_transform_stack_matches_rows(self, data):
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        ends = np.cumsum(sizes) - 1
        blocks = [(int(e) - s + 1, int(e)) for s, e in zip(sizes, ends)]
        lead = data.draw(st.sampled_from([(1,), (3,), (2, 2)]))
        y = data.draw(arrays(float, lead + (sum(sizes),), elements=stack_values))
        y_rear, y_gren = limit_transform(y, blocks)
        for idx in np.ndindex(lead):
            r, g = limit_transform(y[idx], blocks)
            assert y_rear[idx].tobytes() == r.tobytes()
            assert y_gren[idx].tobytes() == g.tobytes()


def reference_pool_segments(values):
    """(totals, lengths) of the pooling loop with both means divided out at
    every comparison, whose means the per-row loop must write bit for bit."""
    totals: list[float] = []
    lengths: list[int] = []
    for x in values:
        t = float(x)
        c = 1
        while totals and totals[-1] / lengths[-1] < t / c:
            t += totals.pop()
            c += lengths.pop()
        totals.append(t)
        lengths.append(c)
    return totals, lengths


def assert_pools_like_reference(values):
    """1-D gren and touch_count, which run the per-row loop, give the fit of
    the reference loop bit for bit (-0.0 != 0.0) and its segment count."""
    totals, lengths = reference_pool_segments(values)
    if not values:
        with pytest.raises(ValueError):
            gren(values)
        return
    fit = np.repeat(np.divide(totals, lengths), lengths)  # t / 1 keeps the input bits
    assert gren(values).tobytes() == fit.tobytes()
    assert touch_count(values) == len(lengths)


class TestPoolSegments:
    """The per-row loop pools the segments of the divide-every-time loop."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(stack_values, max_size=60))
    def test_matches_reference_loop(self, values):
        assert_pools_like_reference(values)

    @settings(max_examples=30, deadline=None)
    @given(
        size=st.integers(1, 10**4),
        levels=st.sampled_from([3, 50, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_long_rows_match_reference_loop(self, size, levels, seed):
        # few levels give long runs of ties; None gives distinct values
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(size)
        if levels is not None:
            values = np.round(values * levels / 4) / levels
            values[rng.random(size) < 0.1] *= -0.0
        assert_pools_like_reference(values.tolist())

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 400),
        st.sampled_from([1e-9, 1e-3, 0.5, 3.0, 1e6, 1e12]),
        st.integers(0, 2**32 - 1),
    )
    def test_touch_count_on_scaled_walks(self, k, scale, seed):
        z = scale * np.random.default_rng(seed).standard_normal(k)
        assert touch_count(z) == len(reference_pool_segments(z.tolist())[1])


class TestColumnSweep:
    """column_sweep, called directly on stacks on both sides of gren's shape
    rule, gives every row the bits and segment count of the per-row loop."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 600), st.integers(1, 120), st.integers(0, 2**32 - 1))
    def test_rows_match_pool_segments(self, rows, length, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows, length))
        tied = rng.random(rows) < 0.3
        a[tied] = np.round(4 * a[tied]) / 4  # ties, zeros and negatives
        a[rng.random((rows, length)) < 0.05] *= -0.0  # signed zeros
        n = int(rng.integers(1, 200))
        counted = rng.random(rows) < 0.3
        a[counted] = rng.multinomial(n, np.full(length, 1.0 / length), size=int(counted.sum())) / n
        monotone = rng.random(rows) < 0.2
        a[monotone] = -np.sort(-a[monotone], axis=1)
        fit, counts = column_sweep(a)
        assert counts.dtype == np.int64
        for i in range(rows):
            assert fit[i].tobytes() == gren(a[i]).tobytes()
            assert counts[i] == len(reference_pool_segments(a[i].tolist())[1])

    def test_gren_on_a_stack_of_several_blocks(self):
        # 9000 rows of 10 take the sweep in blocks of about 2^15 values
        a = np.random.default_rng(3).multinomial(40, np.full(10, 0.1), size=9000) / 40
        fit = gren(a)
        counts = touch_count(a)
        for i in range(a.shape[0]):
            assert fit[i].tobytes() == gren(a[i]).tobytes()
            assert counts[i] == touch_count(a[i])


class TestMixingEstimate:
    def test_uniform_concentrates_at_top(self):
        w = mixing_estimate(uniform_pmf(5))
        assert_allclose(w, [0, 0, 0, 0, 0, 1], atol=1e-15)

    def test_strictly_decreasing(self):
        p = Pmf(np.array([0.5, 0.3, 0.2]), monotone=True)
        assert_allclose(mixing_estimate(p), [0.2, 0.2, 0.6])

    def test_raw_sequence_can_go_negative(self):
        w = mixing_estimate(np.array([0.2, 0.3, 0.5]))
        assert_allclose(w, [-0.1, -0.4, 1.5])

    def test_round_trip_through_mixture(self):
        p = mixture_of_uniforms([0.25, 0.2, 0.15, 0.4], [1, 3, 5, 7])
        w = mixing_estimate(p)
        expected = np.zeros(8)
        expected[[1, 3, 5, 7]] = [0.25, 0.2, 0.15, 0.4]
        assert_allclose(w, expected, atol=1e-15)

    def test_sums_to_one_and_sign_iff_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.dirichlet(np.ones(rng.integers(1, 12)))
            w = mixing_estimate(v)
            assert abs(w.sum() - 1.0) < 1e-12
            assert (np.all(np.diff(v) <= 1e-15)) == bool(np.all(w >= -1e-15))

    def test_weights_not_summing_to_one_rejected(self):
        with pytest.raises(ValueError, match=r"^mixing weights must sum to 1, got 0\.7$"):
            mixing_estimate([0.5, 0.2])

    def test_stack_reports_the_total_of_its_bad_row(self):
        stack = np.array([[0.4, 0.3, 0.2, 0.1], [0.5, 0.2, 0.1, 0.1], [0.25] * 4])
        with pytest.raises(ValueError, match=r"^mixing weights must sum to 1, got 0\.9$"):
            mixing_estimate(stack)

    @pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 3, 4)])
    def test_result_is_a_writable_array_of_the_input_shape(self, shape):
        w = mixing_estimate(np.broadcast_to([0.4, 0.3, 0.2, 0.1], shape))
        assert type(w) is np.ndarray and w.shape == shape and w.flags.writeable
        assert_allclose(w, np.broadcast_to([0.1, 0.2, 0.3, 0.4], shape))
