"""Tests for pmf construction, sampling, and text formats."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from monopmf import (
    Pmf,
    empirical_pmf,
    geometric_pmf,
    mixture_of_uniforms,
    parse_counts,
    parse_pmf,
    sample,
    uniform_pmf,
)
from monopmf.pmf import check_sample_size, sample_counts
from references import block_rows, format_counts, format_pmf


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

    @pytest.mark.parametrize("theta,tail_tol", [("0.5", 1e-12), (True, 1e-12), (None, 1e-12), (0.5, "1e-9")])
    def test_geometric_takes_real_numbers_only(self, theta, tail_tol):
        with pytest.raises(ValueError, match="must be a real number"):
            geometric_pmf(theta, tail_tol)

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

    @pytest.mark.parametrize("weights", [[float("nan"), 1.0], [1.0, float("nan")], [float("nan")]])
    def test_mixture_rejects_nan_weight(self, weights):
        # NaN compares False both with 0 and with the sum's tolerance, so each check asks for what passes
        with pytest.raises(ValueError, match="^mixture weights must be positive$"):
            mixture_of_uniforms(weights, [1, 2][: len(weights)])

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
            assert p.monotone and np.all(np.diff(p.probs) <= 0)
            assert abs(p.probs.sum() - 1.0) < 1e-12


class TestPmfValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, -0.1, 0.6]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.4]))

    @pytest.mark.parametrize("probs", [[float("nan"), 0.5], [0.5, float("nan"), 0.5], [0.5, float("inf")]])
    def test_rejects_non_finite_entries(self, probs):
        # a NaN entry used to pass the sum check, which compares nan - 1 with a tolerance
        with pytest.raises(ValueError, match="^pmf entries must be finite$"):
            Pmf(np.array(probs))

    def test_rejects_trailing_zero(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.5, 0.0]))

    def test_rejects_non_monotone_when_flagged(self):
        # monotonicity is read from the probabilities with no slack: a rise of 5e-14 is a rise
        assert Pmf(np.array([0.4, 0.6])).monotone is False
        assert Pmf(np.array([0.5, 0.5 - 2e-13, 1e-13, 1.5e-13])).monotone is False
        assert Pmf(np.array([0.5, 0.5])).monotone is True

    def test_probs_is_readonly(self):
        p = uniform_pmf(3)
        with pytest.raises(ValueError):
            p.probs[0] = 0.9


class TestSampling:
    def test_point_mass(self):
        c = sample(uniform_pmf(0), 7, seed=123)
        assert_array_equal(c, [7])
        assert c.sum() == 7

    def test_multinomial_moments(self):
        n = 10**5
        c = sample(uniform_pmf(5), n, seed=1)
        sigma = np.sqrt(n * (1 / 6) * (5 / 6))
        assert c.size == 6
        assert np.all(np.abs(c - n / 6) < 5 * sigma)

    def test_determinism(self):
        p = geometric_pmf(0.75)
        a = sample(p, 1000, seed=99)
        b = sample(p, 1000, seed=99)
        assert_array_equal(a, b)
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_output(self):
        p = uniform_pmf(5)
        a = sample(p, 1000, seed=1)
        b = sample(p, 1000, seed=2)
        assert not np.array_equal(a, b)

    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError):
            sample(uniform_pmf(5), 0, seed=1)

    def test_trailing_zeros_trimmed(self):
        # tiny n from a wide support rarely reaches the top of the support
        c = sample(uniform_pmf(50), 2, seed=7)
        assert c[-1] > 0

    @pytest.mark.parametrize("truth,n", [(uniform_pmf(50), 2), (uniform_pmf(5), 1000), (geometric_pmf(0.9), 30)])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_row_is_the_trimmed_count_row(self, truth, n, seed):
        # a sample is a block of one row, and the first row of any longer block
        c = sample(truth, n, seed)
        assert c.ndim == 1 and c.dtype == np.int64
        assert int(c.sum()) == n and c[-1] > 0
        for rows in (1, 4):
            row = block_rows(truth.probs, n, seed, rows)[0]
            assert c.tobytes() == row[: c.size].tobytes() and not row[c.size :].any()


def within(values, target, se=None, bands=4.0):
    """Whether the mean of independent `values` lies within `bands` standard
    errors of `target`; the standard error is the sample's unless given."""
    values = np.asarray(values, dtype=float)
    if se is None:
        se = values.std(ddof=1) / np.sqrt(values.size)
    return abs(values.mean() - target) <= bands * se, (values.mean(), target, se)


class TestCountStream4Law:
    """Count stream 4 draws the sparse flat stretches of wide truths as
    uniform integers; its rows keep the multinomial law.  Each check has a
    fixed seed and a band of 4 standard errors, set before the first run:
    the per-row statistics are independent across rows, so their sample
    standard error is used, except where the exact one is known."""

    def test_uniform_mean_variance_covariance(self):
        # uniform:9999 at n = 10^5: one sparse stretch, n*p = 10
        truth, n, reps = uniform_pmf(9999), 10**5, 200
        counts = sample_counts(truth, n, 2024, reps)
        assert np.all(counts.sum(axis=1) == n)
        p = 1.0 / truth.support_size
        dev = counts - n * p
        # per-point means: Pearson's statistic of the pooled counts has mean K, sd sqrt(2K)
        k = truth.support_max
        pearson = float(np.sum((counts.sum(axis=0) - reps * n * p) ** 2 / (reps * n * p)))
        assert abs(pearson - k) <= 4 * np.sqrt(2 * k), pearson
        ok, info = within((dev**2).mean(axis=1), n * p * (1 - p))  # per-point variance n p (1-p)
        assert ok, info
        ok, info = within((dev[:, :-1] * dev[:, 1:]).mean(axis=1), -n * p * p)  # covariance -n p^2
        assert ok, info

    def test_mixture_with_a_dense_and_a_sparse_stretch(self):
        # 0.5 uniform{0..999} + 0.5 uniform{0..9999} at n = 10^5: points 0..999
        # have n*p = 55 (dense, kept as multinomial cells), points 1000..9999
        # have n*p = 5 (sparse, drawn as uniform integers)
        truth, n, reps = mixture_of_uniforms([0.5, 0.5], [999, 9999]), 10**5, 200
        counts = sample_counts(truth, n, 77, reps)
        assert np.all(counts.sum(axis=1) == n)
        p_dense, p_sparse = truth.probs[0], truth.probs[-1]
        dense, sparse = counts[:, :1000], counts[:, 1000:]
        share = 1000 * p_dense
        ok, info = within(dense.sum(axis=1), n * share, se=np.sqrt(n * share * (1 - share) / reps))
        assert ok, info
        pearson = float(np.sum((counts.sum(axis=0) - reps * n * truth.probs) ** 2 / (reps * n * truth.probs)))
        k = truth.support_max
        assert abs(pearson - k) <= 4 * np.sqrt(2 * k), pearson
        for block, p in ((dense, p_dense), (sparse, p_sparse)):
            ok, info = within(((block - n * p) ** 2).mean(axis=1), n * p * (1 - p))
            assert ok, info
        # the dense point x against the sparse point x + 1000: covariance -n p_dense p_sparse
        cross = (dense - n * p_dense) * (sparse[:, :1000] - n * p_sparse)
        ok, info = within(cross.mean(axis=1), -n * p_dense * p_sparse)
        assert ok, info

    def test_rows_at_n_far_below_k(self):
        # uniform:999999 at n = 10: every row sums to n, and the mean drawn
        # point is K/2 with the exact standard error of a uniform draw
        truth, n, reps = uniform_pmf(999999), 10, 100
        points = []
        for seed in range(reps):
            (row,) = sample_counts(truth, n, seed, 1)
            assert row.sum() == n and row.min() >= 0
            points.append(np.repeat(np.arange(row.size), row))
        k = truth.support_max
        ok, info = within(np.concatenate(points), k / 2, se=np.sqrt(((k + 1) ** 2 - 1) / 12 / (reps * n)))
        assert ok, info

    def test_wide_stretch_work_is_linear_in_its_total(self, monkeypatch):
        # uniform:999999 at n = 10^7 (n*p = 10): the stretch's total of 10^7
        # integers is drawn in calls of w = 10^6 values, so the histograms
        # are about 10 of w bins, not one of w bins per 16384 values (610);
        # Pearson's statistic of the row has mean K, sd sqrt(2K)
        truth, n = uniform_pmf(999999), 10**7
        bins, bincount = [], np.bincount

        def counted(*args, **kwargs):
            hist = bincount(*args, **kwargs)
            bins.append(hist.size)
            return hist

        monkeypatch.setattr(np, "bincount", counted)
        (row,) = sample_counts(truth, n, 5, 1)
        k = truth.support_max
        assert len(bins) <= n // (k + 1) + 1 and sum(bins) <= n + k + 1, (len(bins), sum(bins))
        assert row.sum() == n
        pearson = float(np.sum((row - n / (k + 1)) ** 2) / (n / (k + 1)))
        assert abs(pearson - k) <= 4 * np.sqrt(2 * k), pearson


class TestEmpirical:
    def test_example_counts(self):
        c = np.array([20, 14, 11, 22, 15, 18])
        assert_allclose(empirical_pmf(c).probs, [0.20, 0.14, 0.11, 0.22, 0.15, 0.18])

    def test_single_point(self):
        assert_array_equal(empirical_pmf(np.array([5])).probs, [1.0])

    def test_interior_zeros_retained(self):
        p = empirical_pmf(np.array([3, 0, 1]))
        assert_allclose(p.probs, [0.75, 0.0, 0.25])
        assert not p.monotone

    def test_sampled_empirical_sums_to_one(self):
        p = geometric_pmf(0.9)
        for i, n in enumerate((1, 10, 1000)):
            emp = empirical_pmf(sample(p, n, seed=i))
            assert abs(emp.probs.sum() - 1.0) < 1e-12

    def test_counts_validation(self):
        for text, message in (
            ("0\t1\n1\t0\n", "last count must be positive (K_obs is the max observed value)"),  # trailing zero
            ("0\t0\n", "sample size n must lie in [1, 2^63), got 0"),  # empty sample forbidden
            ("0\t3\n1\t-1\n", "counts must be non-negative"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse_counts(text)

    @pytest.mark.parametrize("n,shown", [
        (0, "0"),
        (2**63, "9223372036854775808"),
        (1 - 2**128, str(1 - 2**128)),
        (2**128, "a 129-bit integer"),
        (10**5000, "a 16610-bit integer"),
        (-(10**5000), "a negative 16610-bit integer"),
    ], ids=["zero", "2^63", "128-bit", "129-bit", "10^5000", "-10^5000"])
    def test_sample_size_message_is_bounded(self, n, shown):
        # n past 128 bits is named by its bit length: an int past 4300 digits has no str()
        with pytest.raises(ValueError) as err:
            check_sample_size(n)
        assert str(err.value) == f"sample size n must lie in [1, 2^63), got {shown}"


class TestTextFormats:
    def test_pmf_round_trip(self):
        p = geometric_pmf(0.75)
        q = parse_pmf(format_pmf(p))
        assert_array_equal(p.probs, q.probs)

    def test_counts_round_trip(self):
        rows = [sample(uniform_pmf(9), 500, seed=4), [7], [20, 14, 11, 22, 15, 18], [3, 0, 0, 1], [2**62, 2**62 - 1]]
        for row in rows:
            row = np.asarray(row, dtype=np.int64)
            d = parse_counts(format_counts(row))
            assert d.dtype == np.int64 and d.tobytes() == row.tobytes()

    @pytest.mark.parametrize("parse, text, message", [
        (parse_pmf, "", "pmf: no data lines"),
        (parse_counts, "0 5\n", "counts line 1: expected 'x<TAB>value'"),
        (parse_counts, "0\t1\t2\n", "counts line 1: expected 'x<TAB>value'"),
        (parse_counts, "a\t1\n", "counts line 1: bad support point 'a'"),
        (parse_pmf, "0\t.5\n2\t.5\n", "pmf line 2: support points must be 0,1,... without gaps"),
        (parse_counts, "0\t1\n1\t1.5\n", "counts line 2: bad value '1.5'"),
        (parse_pmf, "0\tx\n", "pmf line 1: bad value 'x'"),
        # a blank line is skipped but counted
        (parse_counts, "0\t1\n\n1\t2.0\n", "counts line 3: bad value '2.0'"),
        (parse_pmf, "\n0\t1\n\n2\t1\n", "pmf line 4: support points must be 0,1,... without gaps"),
    ], ids=["empty", "space", "three-fields", "bad-x", "gap", "bad-count", "bad-prob", "blank-bad-value", "blank-gap"])
    def test_reader_fault_names_its_line(self, parse, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse(text)

    @pytest.mark.parametrize("parse, text, message", [
        (parse_pmf, "0\t" + "y" * 5000, "pmf line 1: bad value 'yyyyyyyyyyyy...yyyyyyyyyyyyy'"),
        (parse_counts, "0\t1\n" + "1" * 40 + "x\t2", "counts line 2: bad support point '111111111111...111111111111x'"),
    ], ids=["pmf-value", "counts-point"])
    def test_long_bad_field_is_cut(self, parse, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse(text)

    def test_blank_lines_and_crlf_are_accepted(self):
        counts = parse_counts("0\t1\n\n1\t2\r\n")
        assert counts.dtype == np.int64 and counts.tolist() == [1, 2]

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            parse_pmf("0\t0.5\n2\t0.5\n")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_counts("0 5\n")
        with pytest.raises(ValueError):
            parse_pmf("")
