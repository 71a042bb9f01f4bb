"""Tests for the limit-process simulators and closed-form asymptotics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from monopmf import (
    Pmf,
    asymptotics,
    constancy_blocks,
    draw_limit_batch,
    geometric_pmf,
    gren_zero_probability,
    harmonic,
    limit_transform,
    mixture_of_uniforms,
    rear,
    rng,
    touch_count,
    uniform_pmf,
)
from references import flat_block_gren_reference, limit_rows

STRICT = Pmf(np.array([0.5, 0.3, 0.2]), monotone=True)

# asymptotic (n -> inf) two-sample KS critical values
KS_CRIT_01PCT = math.sqrt(-math.log(0.0005) / 2.0)
KS_CRIT_1PCT = 1.6276


def two_sample_threshold(n, m, c):
    return c * math.sqrt((n + m) / (n * m))


class TestDrawLimit:
    def test_deterministic(self):
        y1, _, gren1 = draw_limit_batch(uniform_pmf(5), 1, seed=42)
        y2, _, gren2 = draw_limit_batch(uniform_pmf(5), 1, seed=42)
        assert_array_equal(y1, y2)
        assert_array_equal(gren1, gren2)

    def test_matches_blockwise_transform(self):
        p = mixture_of_uniforms([0.2, 0.8], [3, 7])
        blocks = constancy_blocks(p)
        y, y_rear, y_gren = draw_limit_batch(p, 50, seed=9)
        for i in range(50):
            r_ref, g_ref = limit_transform(y[i], blocks)
            assert_allclose(y_rear[i], r_ref, atol=1e-14)
            assert_allclose(y_gren[i], g_ref, atol=1e-14)

    def test_moments(self):
        reps = 10**5
        p = mixture_of_uniforms([0.2, 0.8], [3, 7])
        y, _, _ = draw_limit_batch(p, reps, seed=11)
        for x in range(p.support_size):
            se = y[:, x].std(ddof=1) / math.sqrt(reps)
            assert abs(y[:, x].mean()) < 5 * se
            var_target = p.probs[x] * (1 - p.probs[x])
            sq = y[:, x] ** 2
            assert abs(sq.mean() - var_target) < 5 * sq.std(ddof=1) / math.sqrt(reps)

    def test_cross_covariance(self):
        reps = 10**5
        p = uniform_pmf(3)
        y, _, _ = draw_limit_batch(p, reps, seed=12)
        for x, z in [(0, 1), (0, 3), (2, 3)]:
            prod = y[:, x] * y[:, z]
            se = prod.std(ddof=1) / math.sqrt(reps)
            assert abs(prod.mean() - (-p.probs[x] * p.probs[z])) < 5 * se

    def test_strictly_decreasing_identity(self):
        y, y_rear, y_gren = draw_limit_batch(STRICT, 200, seed=3)
        assert_array_equal(y_rear, y)
        assert_array_equal(y_gren, y)

    def test_sum_preserved_and_block_monotone(self):
        p = mixture_of_uniforms([0.3, 0.7], [2, 6])
        y, y_rear, y_gren = draw_limit_batch(p, 500, seed=8)
        assert_allclose(y_rear.sum(axis=1), y.sum(axis=1), atol=1e-10)
        assert_allclose(y_gren.sum(axis=1), y.sum(axis=1), atol=1e-10)
        for r, s in constancy_blocks(p):
            assert np.all(np.diff(y_gren[:, r : s + 1], axis=1) <= 1e-12)

    def test_per_draw_norm_relations(self):
        p = uniform_pmf(7)
        y, y_rear, y_gren = draw_limit_batch(p, 500, seed=21)
        l2 = (y**2).sum(axis=1)
        assert_allclose((y_rear**2).sum(axis=1), l2, rtol=1e-12)
        assert np.all((y_gren**2).sum(axis=1) <= l2 + 1e-12)

    def test_block_partial_sum_domination(self):
        p = mixture_of_uniforms([0.2, 0.8], [3, 7])
        y, _, y_gren = draw_limit_batch(p, 300, seed=5)
        for r, s in constancy_blocks(p):
            gap = np.cumsum(y_gren[:, r : s + 1], axis=1) - np.cumsum(y[:, r : s + 1], axis=1)
            assert np.all(gap >= -1e-10)
            assert np.all(np.abs(gap[:, -1]) <= 1e-10)

    def test_requires_monotone(self):
        with pytest.raises(ValueError):
            draw_limit_batch(Pmf(np.array([0.2, 0.3, 0.5])), 1, seed=0)

    def test_fractional_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            draw_limit_batch(uniform_pmf(5), 1, seed=2.5)

    def test_memory_of_one_output_stack_fewer(self):
        # Y is built block by block, so no (reps, K+1) array of normals or of
        # W outlives its block: the peak is Y, y_rear, y_gren and the
        # transform's temporaries, about 5 output arrays
        reps = 2 * 10**5
        tracemalloc.start()
        try:
            draw_limit_batch(uniform_pmf(9), reps, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * reps * 10 * 8


class TestAsymptotics:
    def test_uniform_five(self):
        rep = asymptotics(uniform_pmf(5))
        assert rep.e_sq_l2_emp == pytest.approx(5 / 6, abs=1e-12)
        assert rep.e_sq_l2_gren == pytest.approx((harmonic(6) - 1) / 6, abs=1e-12)
        assert rep.e_hell_emp == 5.0
        assert rep.e_hell_gren == pytest.approx(harmonic(6) - 1, abs=1e-12)
        assert rep.e_l1_emp == pytest.approx(math.sqrt(2 / math.pi) * 6 * math.sqrt(5 / 36), abs=1e-12)

    def test_uniform_gap_identity(self):
        # one flat block: gap = theta * (tau - H_tau)
        rep = asymptotics(uniform_pmf(5))
        assert rep.e_sq_l2_emp - rep.e_sq_l2_gren == pytest.approx(
            (1 / 6) * (6 - harmonic(6)), abs=1e-12
        )

    def test_geometric_tail_is_strictly_decreasing(self):
        # the tail of geometric:0.75 below 1e-12 is no flat block: the
        # Grenander limit equals the empirical one, as for any strictly
        # decreasing truth
        p = geometric_pmf(0.75)
        rep = asymptotics(p)
        assert rep.e_hell_emp == 96.0
        assert rep.e_hell_gren == rep.e_hell_emp
        assert rep.e_sq_l2_gren == rep.e_sq_l2_emp
        y, y_rear, y_gren = draw_limit_batch(p, 20, seed=4)
        assert y_rear.tobytes() == y.tobytes() and y_gren.tobytes() == y.tobytes()

    def test_strictly_decreasing_equalities(self):
        rep = asymptotics(STRICT)
        assert rep.e_sq_l2_gren == pytest.approx(rep.e_sq_l2_emp, abs=1e-12)
        assert rep.e_sq_l2_emp == pytest.approx(0.62, abs=1e-12)
        assert rep.e_hell_gren == pytest.approx(rep.e_hell_emp, abs=1e-12)

    def test_gren_never_larger(self):
        for p in (uniform_pmf(9), mixture_of_uniforms([0.2, 0.8], [3, 7]), STRICT):
            rep = asymptotics(p)
            assert rep.e_sq_l2_gren <= rep.e_sq_l2_emp + 1e-12
            assert rep.e_hell_gren <= rep.e_hell_emp + 1e-12

    def test_monte_carlo_agreement(self):
        reps = 4 * 10**4
        p = mixture_of_uniforms([0.2, 0.8], [3, 7])
        rep = asymptotics(p)
        y, y_rear, y_gren = draw_limit_batch(p, reps, seed=17)
        for vals, target in [
            ((y**2).sum(axis=1), rep.e_sq_l2_emp),
            ((y_rear**2).sum(axis=1), rep.e_sq_l2_emp),
            ((y_gren**2).sum(axis=1), rep.e_sq_l2_gren),
            ((y**2 / p.probs).sum(axis=1), rep.e_hell_emp),
            ((y_gren**2 / p.probs).sum(axis=1), rep.e_hell_gren),
            (np.abs(y).sum(axis=1), rep.e_l1_emp),
        ]:
            se = vals.std(ddof=1) / math.sqrt(reps)
            assert abs(vals.mean() - target) < 3 * se

    def test_pointwise_second_moment_bound(self):
        # E[(Y^G_x)^2] <= p_x (1 - p_x) coordinate by coordinate
        reps = 4 * 10**4
        p = mixture_of_uniforms([0.25, 0.2, 0.15, 0.4], [1, 3, 5, 7])
        _, _, y_gren = draw_limit_batch(p, reps, seed=19)
        for x in range(p.support_size):
            sq = y_gren[:, x] ** 2
            se = sq.std(ddof=1) / math.sqrt(reps)
            assert sq.mean() <= p.probs[x] * (1 - p.probs[x]) + 3 * se


class TestTouchCount:
    def test_concave_walk_touches_everywhere(self):
        assert touch_count([2, 1]) == 2

    def test_convex_walk_touches_endpoint_only(self):
        assert touch_count([1, 2]) == 1

    def test_collinear_interior_counts(self):
        assert touch_count([1.0, 1.0, 1.0]) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            touch_count([])
        with pytest.raises(ValueError):
            touch_count(np.zeros((3, 0)))

    def test_stack_counts_row_by_row(self):
        z = np.random.default_rng(5).standard_normal((3, 200, 6))
        counts = touch_count(z)
        assert counts.dtype == np.int64 and counts.shape == (3, 200)
        assert all(counts[idx] == touch_count(z[idx]) for idx in np.ndindex(3, 200))
        assert type(touch_count(z[0, 0])) is int

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=12),
        st.integers(-40, 40),
    )
    @example([0.0, 7.0, 10.0, 7.0, 3.0, 9.0], -30)
    def test_scale_invariant(self, z, j):
        # contact is structural (segment ends), not an absolute tolerance, and
        # scaling by 2^j changes no float operation, so the count holds even on
        # exact ties such as the block slopes 24/4 and 12/2 of the example
        # (which 1e-9 * z rounds apart, so other scales are tested on draws)
        z = np.array(z)
        # ... as long as no result is subnormal: entries of size 2^-966 or
        # more are multiples of 2^-1018, and so is every sum of them, so no
        # nonzero block sum is below 2^-1018 nor any mean of <= 12 below 2^-1022
        scaled = np.ldexp(z, j)
        both = np.concatenate([z, scaled])
        assume(np.all((np.abs(both) >= 2.0**-966) | (both == 0)))
        assert touch_count(scaled) == touch_count(z)

    def test_scale_changes_count_below_the_normal_range(self):
        # the domain test_scale_invariant leaves out: halving -5e-324
        # underflows to -0.0, which ties with the 0.0 after it
        z = np.array([-5e-324, 0.0])
        assert touch_count(z) == 1
        assert touch_count(np.ldexp(z, -1)) == 2

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.sampled_from([1e-9, 1e-3, 0.5, 3.0, 1e6, 1e12]),
    )
    def test_scale_invariant_on_continuous_draws(self, data_seed, k, scale):
        z = np.random.default_rng(data_seed).standard_normal(k)
        assert touch_count(scale * z) == touch_count(z)

    def test_scaled_draws_agree_with_hull_segments(self):
        rng = np.random.Generator(np.random.Philox(key=99))
        for row in rng.standard_normal((2000, 6)):
            assert touch_count(1e6 * row) == touch_count(row)

    def test_harmonic_mean_small_k(self):
        reps = 4 * 10**4
        rng = np.random.Generator(np.random.Philox(key=321))
        for k in (2, 3):
            draws = rng.standard_normal((reps, k))
            counts = touch_count(draws)
            se = counts.std(ddof=1) / math.sqrt(reps)
            assert abs(counts.mean() - harmonic(k)) < 3 * se
            # interior touches exclude the always-present endpoint
            assert abs((counts - 1).mean() - (harmonic(k) - 1)) < 3 * se

    def test_expectation_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(3) == pytest.approx(11 / 6, abs=1e-15)
        assert harmonic(6) == pytest.approx(2.45, abs=1e-12)

    def test_harmonic_takes_integer_orders_only(self):
        assert harmonic(2.0) == harmonic(2) == 1.5
        for k in (2.5, "2", True):  # not truncated to H_2 or read as H_1
            with pytest.raises(ValueError, match="k must be an integer"):
                harmonic(k)

    def test_harmonic_rejects_negative_orders(self):
        assert harmonic(0) == 0.0
        for k in (-1, -3):  # not an empty sum
            with pytest.raises(ValueError, match="^k must be a non-negative integer, got "):
                harmonic(k)


def one_stack_zero_probability(y, reps, seed):
    w = np.random.Generator(np.random.Philox(key=seed)).standard_normal((reps, y + 1)) * math.sqrt(1.0 / (y + 1))
    bridge = np.cumsum((w - w.mean(axis=1, keepdims=True))[:, :-1], axis=1)
    return np.count_nonzero(bridge.max(axis=1) <= 0.0) / float(reps)


@pytest.mark.parametrize("elements", [None, 1, 7, 250])
def test_limit_draws_do_not_depend_on_block_size(elements, monkeypatch):
    # both limit drivers run on the replicate map, whose blocks are row cuts
    # of one generator's normal stack, so no value depends on the block height
    if elements is not None:
        monkeypatch.setattr(rng, "_CHUNK_ELEMENTS", elements)
    for p, reps in [(mixture_of_uniforms([0.2, 0.8], [3, 7]), 53), (uniform_pmf(9), 3001)]:
        for got, want in zip(draw_limit_batch(p, reps, seed=23), limit_rows(p, reps, seed=23)):
            assert got.tobytes() == want.tobytes()
    value = gren_zero_probability(9, 3 * 10**4, seed=17)
    assert type(value) is float
    assert value == one_stack_zero_probability(9, 3 * 10**4, seed=17)


class TestGrenZeroProbability:
    def test_point_support(self):
        assert gren_zero_probability(0, reps=10, seed=1) == 1.0

    def test_two_points_is_sign_probability(self):
        est = gren_zero_probability(1, reps=10**5, seed=2)
        assert est == pytest.approx(0.5, abs=0.01)

    def test_deterministic(self):
        a = gren_zero_probability(4, reps=10**4, seed=33)
        b = gren_zero_probability(4, reps=10**4, seed=33)
        assert a == b

    @pytest.mark.parametrize("y", [0, 4])
    def test_fractional_seed_rejected(self, y):
        with pytest.raises(ValueError, match="seed must be an integer"):
            gren_zero_probability(y, reps=10, seed=2.5)

    def test_matches_direct_gren_event(self):
        # the bridge criterion agrees with checking y_gren == 0 directly
        reps = 2000
        _, _, y_gren = draw_limit_batch(uniform_pmf(4), reps, seed=14)
        direct = np.mean(np.all(np.abs(y_gren) <= 1e-10, axis=1))
        est = gren_zero_probability(4, reps=10**5, seed=15)
        assert est == pytest.approx(direct, abs=0.035)


    @pytest.mark.parametrize("y,reps", [(9, 3 * 10**4), (49, 6000), (999, 700)])
    def test_equals_one_whole_stack(self, y, reps):
        # the chunks of rows are cut from one generator's stream, so the value
        # is that of one (reps, y+1) normal stack drawn in a single call
        assert gren_zero_probability(y, reps, seed=17) == one_stack_zero_probability(y, reps, seed=17)

    @pytest.mark.parametrize("y", [0, 9])
    def test_nonpositive_reps_rejected(self, y):
        with pytest.raises(ValueError, match="^reps must be positive$"):
            gren_zero_probability(y, 0, 1)

    def test_memory_bounded_in_y(self):
        # a block of the replicate map holds about 2^14 normals whatever y is,
        # where chunks of 2^12 rows of 1000 took about 100 MB
        tracemalloc.start()
        try:
            gren_zero_probability(999, reps=2**12, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestFlatBlockReference:
    """The within-block limit law realized by two unrelated routes."""

    def test_uniform_block(self):
        reps = 5 * 10**4
        _, _, y_gren = draw_limit_batch(uniform_pmf(5), reps, seed=101)
        ref = flat_block_gren_reference(1 / 6, 6, reps, seed=102)
        thresh = two_sample_threshold(reps, reps, KS_CRIT_01PCT)
        for coord in (0, 3, 5):
            d = stats.ks_2samp(y_gren[:, coord], ref[:, coord]).statistic
            assert d < thresh

    def test_partial_block_of_mixture(self):
        reps = 5 * 10**4
        p = mixture_of_uniforms([0.2, 0.8], [3, 7])
        _, _, y_gren = draw_limit_batch(p, reps, seed=103)
        ref = flat_block_gren_reference(0.1, 4, reps, seed=104)
        thresh = two_sample_threshold(reps, reps, KS_CRIT_01PCT)
        for j, coord in enumerate(range(4, 8)):
            d = stats.ks_2samp(y_gren[:, coord], ref[:, j]).statistic
            assert d < thresh

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError):
            flat_block_gren_reference(0.5, 3, 10, seed=0)  # theta*tau > 1


class TestAlreadyMonotoneProbability:
    def test_factorial_law(self):
        # P(Y already non-increasing) = 1/(y+1)! under the uniform truth
        reps = 2 * 10**5
        for y, seed in ((2, 51), (3, 52)):
            yv, _, _ = draw_limit_batch(uniform_pmf(y), reps, seed=seed)
            frac = np.mean(np.all(np.diff(yv, axis=1) <= 0, axis=1))
            target = 1 / math.factorial(y + 1)
            se = math.sqrt(target * (1 - target) / reps)
            assert abs(frac - target) < 4 * se
