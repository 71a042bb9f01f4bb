"""Tests for pmf construction, sampling, and text formats."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from monopmf import (
    Counts,
    Pmf,
    empirical_pmf,
    format_counts,
    format_pmf,
    geometric_pmf,
    mixture_of_uniforms,
    parse_counts,
    parse_pmf,
    sample,
    uniform_pmf,
)


class TestConstructors:
    def test_uniform_point_mass(self):
        assert_array_equal(uniform_pmf(0).probs, [1.0])

    def test_uniform_five(self):
        p = uniform_pmf(5)
        assert_allclose(p.probs, np.full(6, 1 / 6), rtol=0, atol=0)
        assert p.monotone and p.support_max == 5

    def test_uniform_nine(self):
        assert_allclose(uniform_pmf(9).probs, np.full(10, 0.1))

    def test_uniform_rejects_negative(self):
        with pytest.raises(ValueError):
            uniform_pmf(-1)

    @pytest.mark.parametrize("y", [5.5, "5", True])
    def test_uniform_rejects_non_integral_support(self, y):
        # checked, not truncated: 5.5 is not a support of 6 points
        with pytest.raises(ValueError, match="y must be an integer"):
            uniform_pmf(y)

    def test_uniform_accepts_integral_float(self):
        assert_array_equal(uniform_pmf(5.0).probs, uniform_pmf(5).probs)

    def test_geometric_degenerate(self):
        assert_array_equal(geometric_pmf(0.0).probs, [1.0])

    def test_geometric_head_values(self):
        p = geometric_pmf(0.75, tail_tol=1e-12)
        # renormalization moves entries by less than the tail tolerance
        assert abs(p.probs[0] - 0.25) < 1e-12
        assert abs(p.probs[1] - 0.1875) < 1e-12
        assert p.monotone

    def test_geometric_half_matches_closed_form(self):
        p = geometric_pmf(0.5, tail_tol=1e-12)
        x = np.arange(p.support_size)
        assert_allclose(p.probs, 0.5 ** (x + 1), rtol=1e-10)

    def test_geometric_tail_below_tol(self):
        for theta in (0.3, 0.75, 0.95):
            p = geometric_pmf(theta, tail_tol=1e-12)
            assert theta ** p.support_size < 1e-12
            assert abs(p.probs.sum() - 1.0) < 1e-12

    def test_geometric_domain(self):
        for theta in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                geometric_pmf(theta)

    def test_mixture_single_component(self):
        assert_array_equal(
            mixture_of_uniforms([1.0], [5]).probs, uniform_pmf(5).probs
        )

    def test_mixture_two_levels(self):
        p = mixture_of_uniforms([0.2, 0.8], [3, 7])
        assert_allclose(p.probs, [0.15] * 4 + [0.10] * 4)

    def test_mixture_four_components(self):
        p = mixture_of_uniforms([0.25, 0.2, 0.15, 0.4], [1, 3, 5, 7])
        assert_allclose(p.probs, [0.25, 0.25, 0.125, 0.125, 0.075, 0.075, 0.05, 0.05])

    def test_mixture_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mixture_of_uniforms([0.5, 0.5], [3])  # length mismatch
        with pytest.raises(ValueError):
            mixture_of_uniforms([0.5, 0.5], [7, 3])  # not increasing
        with pytest.raises(ValueError):
            mixture_of_uniforms([0.4, 0.4], [3, 7])  # does not sum to 1

    @pytest.mark.parametrize("ys", [[1.7, 3.2], [1, 3.5], ["1", 3]])
    def test_mixture_rejects_non_integral_components(self, ys):
        with pytest.raises(ValueError, match="ys must be an integer"):
            mixture_of_uniforms([0.5, 0.5], ys)

    @pytest.mark.parametrize("ys", [[10**26], [-(10**26)], [3, 10**26], [10**26, 3]])
    def test_mixture_rejects_components_past_int64(self, ys):
        # checked as Python ints, so a ValueError and not an OverflowError
        with pytest.raises(ValueError):
            mixture_of_uniforms([1.0 / len(ys)] * len(ys), ys)

    def test_monotone_constructors_satisfy_mixture_bound(self):
        for p in (uniform_pmf(7), geometric_pmf(0.6), mixture_of_uniforms([0.3, 0.7], [2, 9])):
            bound = 1.0 / (np.arange(p.support_size) + 1.0)
            assert np.all(p.probs <= bound + 1e-12)
            assert np.all(np.diff(p.probs) <= 1e-12)
            assert abs(p.probs.sum() - 1.0) < 1e-12


class TestPmfValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, -0.1, 0.6]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.4]))

    def test_rejects_trailing_zero(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.5, 0.0]))

    def test_rejects_non_monotone_when_flagged(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.4, 0.6]), monotone=True)

    def test_probs_is_readonly(self):
        p = uniform_pmf(3)
        with pytest.raises(ValueError):
            p.probs[0] = 0.9


class TestSampling:
    def test_point_mass(self):
        c = sample(uniform_pmf(0), 7, seed=123)
        assert_array_equal(c.counts, [7])
        assert c.n == 7

    def test_multinomial_moments(self):
        n = 10**5
        c = sample(uniform_pmf(5), n, seed=1)
        sigma = np.sqrt(n * (1 / 6) * (5 / 6))
        assert c.counts.size == 6
        assert np.all(np.abs(c.counts - n / 6) < 5 * sigma)

    def test_determinism(self):
        p = geometric_pmf(0.75)
        a = sample(p, 1000, seed=99)
        b = sample(p, 1000, seed=99)
        assert_array_equal(a.counts, b.counts)
        assert a.counts.tobytes() == b.counts.tobytes()

    def test_seed_changes_output(self):
        p = uniform_pmf(5)
        a = sample(p, 1000, seed=1)
        b = sample(p, 1000, seed=2)
        assert not np.array_equal(a.counts, b.counts)

    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError):
            sample(uniform_pmf(5), 0, seed=1)

    def test_trailing_zeros_trimmed(self):
        # tiny n from a wide support rarely reaches the top of the support
        c = sample(uniform_pmf(50), 2, seed=7)
        assert c.counts[-1] > 0


class TestEmpirical:
    def test_example_counts(self):
        c = Counts(np.array([20, 14, 11, 22, 15, 18]), n=100)
        assert_allclose(empirical_pmf(c).probs, [0.20, 0.14, 0.11, 0.22, 0.15, 0.18])

    def test_single_point(self):
        assert_array_equal(empirical_pmf(Counts(np.array([5]), n=5)).probs, [1.0])

    def test_interior_zeros_retained(self):
        p = empirical_pmf(Counts(np.array([3, 0, 1]), n=4))
        assert_allclose(p.probs, [0.75, 0.0, 0.25])
        assert not p.monotone

    def test_sampled_empirical_sums_to_one(self):
        p = geometric_pmf(0.9)
        for i, n in enumerate((1, 10, 1000)):
            emp = empirical_pmf(sample(p, n, seed=i))
            assert abs(emp.probs.sum() - 1.0) < 1e-12

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            Counts(np.array([1, 2]), n=4)  # sum mismatch
        with pytest.raises(ValueError):
            Counts(np.array([1, 0]), n=1)  # trailing zero
        with pytest.raises(ValueError):
            Counts(np.array([0]), n=0)  # empty sample forbidden


class TestTextFormats:
    def test_pmf_round_trip(self):
        p = geometric_pmf(0.75)
        q = parse_pmf(format_pmf(p), monotone=True)
        assert_array_equal(p.probs, q.probs)

    def test_counts_round_trip(self):
        c = sample(uniform_pmf(9), 500, seed=4)
        d = parse_counts(format_counts(c))
        assert_array_equal(c.counts, d.counts)
        assert c.n == d.n

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            parse_pmf("0\t0.5\n2\t0.5\n")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_counts("0 5\n")
        with pytest.raises(ValueError):
            parse_pmf("")
