"""Tests for the Hellinger and l_k distances."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monopmf import MetricKind, distance, gren, rear, uniform_pmf

EXAMPLE_EMPIRICAL = np.array([0.20, 0.14, 0.11, 0.22, 0.15, 0.18])

HELL = MetricKind.hellinger()
L1 = MetricKind.ell(1)
L2 = MetricKind.ell(2)
LINF = MetricKind.ell(math.inf)

probability_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=12
).map(lambda v: np.array(v) / s if (s := sum(v)) > 0 else np.ones(len(v)) / len(v))


class TestTableValues:
    """Distances of the worked uniform-sample estimators from the truth."""

    def test_empirical_row(self):
        truth = uniform_pmf(5).probs
        assert distance(EXAMPLE_EMPIRICAL, truth, HELL) == pytest.approx(0.08043, abs=5e-5)
        assert distance(EXAMPLE_EMPIRICAL, truth, L2) == pytest.approx(0.09129, abs=5e-5)
        assert distance(EXAMPLE_EMPIRICAL, truth, L1) == pytest.approx(0.2, abs=5e-5)

    def test_grenander_row(self):
        truth = uniform_pmf(5).probs
        fit = gren(EXAMPLE_EMPIRICAL)
        assert distance(fit, truth, HELL) == pytest.approx(0.03048, abs=5e-5)
        assert distance(fit, truth, L2) == pytest.approx(0.03651, abs=5e-5)
        assert distance(fit, truth, L1) == pytest.approx(0.06667, abs=5e-5)

    def test_rearrangement_row_equals_empirical(self):
        # exact for a uniform truth: rearrangement permutes the deviations
        truth = uniform_pmf(5).probs
        fit = rear(EXAMPLE_EMPIRICAL)
        for m in (HELL, L1, L2, LINF, MetricKind.ell(3.5)):
            assert distance(fit, truth, m) == pytest.approx(
                distance(EXAMPLE_EMPIRICAL, truth, m), abs=1e-12
            )


class TestBasics:
    def test_identity(self):
        v = np.array([0.3, 0.3, 0.4])
        for m in (HELL, L1, L2, LINF):
            assert distance(v, v, m) == 0.0

    def test_disjoint_supports(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert distance(a, b, HELL) == pytest.approx(1.0)
        assert distance(a, b, L1) == pytest.approx(2.0)
        assert distance(a, b, L2) == pytest.approx(math.sqrt(2))
        assert distance(a, b, LINF) == pytest.approx(1.0)

    def test_zero_padding(self):
        a = np.array([0.5, 0.5])
        b = np.array([0.5, 0.25, 0.25])
        assert distance(a, b, L1) == pytest.approx(0.5)
        assert distance(a, b, L1) == distance(b, a, L1)

    def test_hellinger_rejects_negative(self):
        with pytest.raises(ValueError):
            distance([-0.1, 1.1], [0.5, 0.5], HELL)

    def test_fractional_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            MetricKind.ell(0.5)

    @pytest.mark.parametrize("k", ["2", True])
    def test_ell_takes_real_numbers_only(self, k):
        # not read as l2 or l1
        with pytest.raises(ValueError, match="k must be a real number"):
            MetricKind.ell(k)

    def test_parse_and_labels(self):
        assert MetricKind.parse("hellinger") == HELL
        assert MetricKind.parse("l1") == L1
        assert MetricKind.parse("l2") == L2
        assert MetricKind.parse("linf") == LINF
        assert MetricKind.parse("l2.5").k == 2.5
        assert MetricKind.parse("L2") == L2
        for m, label in [(HELL, "hellinger"), (L1, "l1"), (LINF, "linf")]:
            assert m.label == label
        assert MetricKind.ell(2.5).label == "l2.5"
        with pytest.raises(ValueError):
            MetricKind.parse("kl")

    def test_labels_keep_their_g_text_when_exact(self):
        assert MetricKind.ell(1.5).label == "l1.5"
        assert MetricKind.ell(3).label == "l3"
        assert MetricKind.ell(1.23456789).label == "l1.23456789"

    @given(st.one_of(st.just(HELL), st.floats(min_value=1.0, allow_nan=False).map(MetricKind.ell)))
    def test_label_parses_back(self, m):
        assert MetricKind.parse(m.label) == m


class TestMetricProperties:
    @given(probability_vectors, probability_vectors)
    def test_symmetry_nonnegativity(self, a, b):
        for m in (HELL, L1, L2, LINF):
            d = distance(a, b, m)
            assert d >= 0.0
            assert d == pytest.approx(distance(b, a, m), abs=1e-12)

    @given(probability_vectors, probability_vectors)
    def test_hellinger_squared_below_l1(self, a, b):
        assert distance(a, b, HELL) ** 2 <= distance(a, b, L1) * 0.5 + 1e-12

    @given(probability_vectors, probability_vectors)
    def test_norm_monotone_in_k(self, a, b):
        ks = [1.0, 1.5, 2.0, 3.0, 7.0, math.inf]
        vals = [distance(a, b, MetricKind.ell(k)) for k in ks]
        for lo, hi in zip(vals[1:], vals):
            assert lo <= hi + 1e-12

    def test_identity_of_indiscernibles(self):
        a = np.array([0.6, 0.4])
        b = np.array([0.6, 0.3, 0.1])
        for m in (HELL, L1, L2, LINF):
            assert distance(a, b, m) > 0
