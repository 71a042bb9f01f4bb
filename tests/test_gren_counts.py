"""The exact Grenander of count rows, `gren_counts`.

It is checked bit for bit, in values and block counts, against the
`Fraction` oracle of tests/references.py; the float `gren` of counts / n
is held within a stated ulp bound of it; and the paper's identities are
checked exactly: sum preservation, monotonicity, majorisation,
idempotence and scale equivariance.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monopmf import EstimatorKind, gren, rear
from monopmf import operators
from monopmf.experiments import estimate
from monopmf.operators import gren_counts
from references import gren_fraction, gren_fraction_stack


@st.composite
def count_stacks(draw, max_scale=2**53, monotone=False):
    """(counts, n): a (rows, L) stack of multinomial count rows of size n,
    with n * L < max_scale; ties, zeros and long pooled runs are common."""
    rows = draw(st.integers(1, 8))
    length = draw(st.integers(1, 40))
    top = (max_scale - 1) // length
    n = draw(st.one_of(st.integers(1, 30), st.integers(1, min(5000, top)), st.integers(1, top)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["flat", "spread", "peaked", "decreasing", "levels"]))
    if shape == "flat":
        p = np.full(length, 1.0 / length)
    elif shape == "levels":  # few distinct probabilities, in any order
        p = rng.choice([1.0, 2.0, 3.0], size=length)
    else:
        p = rng.dirichlet(np.full(length, {"spread": 5.0, "peaked": 0.3, "decreasing": 1.0}[shape]))
        if shape == "decreasing":
            p = np.sort(p)[::-1]
    counts = rng.multinomial(n, p / p.sum(), size=rows)
    if monotone:
        counts = -np.sort(-counts, axis=1)
    return counts, n


def constant_runs(fit_row, n):
    """(lengths, integer totals) of the maximal constant runs of a fit row
    whose block totals are integers."""
    starts = np.flatnonzero(np.r_[True, fit_row[1:] != fit_row[:-1]])
    lengths = np.diff(np.r_[starts, fit_row.size])
    scaled = fit_row[starts] * n * lengths
    totals = np.rint(scaled).astype(np.int64)
    assert np.all(np.abs(scaled - totals) < 1e-3)
    return lengths, totals


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(count_stacks())
    def test_equals_fraction_oracle(self, stack):
        counts, n = stack
        fit, blocks = gren_counts(counts)
        expected_fit, expected_blocks = gren_fraction_stack(counts, n)
        assert fit.tobytes() == expected_fit.tobytes()
        assert blocks.dtype == np.int64 and blocks.tolist() == expected_blocks.tolist()

    @settings(max_examples=300, deadline=None)
    @given(count_stacks())
    def test_float_gren_within_ulp_bound(self, stack):
        # the float loop rounds each count / n and each running block total:
        # every entry stays within L units of 2^-52, relative to the exact value
        counts, n = stack
        exact = gren_fraction_stack(counts, n)[0]
        length = counts.shape[1]
        assert np.all(np.abs(gren(counts / n) - exact) <= length * 2.0**-52 * exact)

    @settings(max_examples=100, deadline=None)
    @given(count_stacks(), st.integers(0, 3))
    def test_pass_cap_changes_no_bit(self, stack, cap):
        counts, n = stack
        fit, blocks = gren_counts(counts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_HULL_PASSES", cap)
            capped_fit, capped_blocks = gren_counts(counts)
        assert capped_fit.tobytes() == fit.tobytes() and capped_blocks.tolist() == blocks.tolist()

    def test_decreasing_run_ending_in_a_spike(self):
        # the first count lifts the run above the end-to-end chord, so the
        # dense pass keeps it; each later pass drops only the last vertex of
        # the run, so without the pass cap this row would take about K passes
        k = 10**4
        row = np.concatenate(([10**11], np.arange(k, 0, -1), [k * (k + 1)]))
        n = int(row.sum())
        fit, blocks = gren_counts(row[None, :])
        expected_fit, expected_blocks = gren_fraction(row, n)
        assert fit[0].tobytes() == expected_fit.tobytes()
        assert blocks.tolist() == [expected_blocks]

    def test_hull_fallback_leaves_numpy_ma_unloaded(self):
        # a long decreasing run above the end-to-end chord, ending in a spike, outlasts the hull
        # passes and reaches _hull_row; picking its rows must not import numpy.ma (about 15 ms per process)
        code = (
            "import sys\n"
            "from monopmf import operators\n"
            "calls, hull = [], operators._hull_row\n"
            "operators._hull_row = lambda *a: calls.append(a) or hull(*a)\n"
            "row = [10**8] + list(range(400, 300, -1)) + [10**6]\n"
            "operators.gren_counts([row])\n"
            "print(len(calls), 'numpy.ma' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1 False\n"

    def test_spike_row_among_ordinary_rows_reaches_the_fallback_once(self, monkeypatch):
        # only the row that outlasts the passes is finished by _hull_row
        spike = [10**8] + list(range(400, 300, -1)) + [10**6]
        n = sum(spike)
        counts = np.random.default_rng(11).multinomial(n, np.full(len(spike), 1 / len(spike)), size=5)
        counts[2] = spike
        calls, hull = [], operators._hull_row
        monkeypatch.setattr(operators, "_hull_row", lambda *a: calls.append(a) or hull(*a))
        fit, blocks = gren_counts(counts)
        expected_fit, expected_blocks = gren_fraction_stack(counts, n)
        assert len(calls) == 1 and calls[0][0][-1] == len(spike) - 1
        assert fit.tobytes() == expected_fit.tobytes() and blocks.tolist() == expected_blocks.tolist()

    @pytest.mark.parametrize("length", [1000, 4999, 20000])
    @pytest.mark.parametrize("truth", ["flat", "slow", "levels"])
    def test_wide_rows_equal_monotone_chain(self, length, truth):
        # the risk-large regime: K + 1 in the thousands, n about 10 (K + 1)
        n = 10 * length + 7
        weights = {
            "flat": np.ones(length),
            "slow": np.linspace(2.0, 1.0, length),
            "levels": np.repeat([3.0, 2.0, 1.0], [length // 3, length // 3, length - 2 * (length // 3)]),
        }[truth]
        counts = np.random.default_rng(length).multinomial(n, weights / weights.sum(), size=3)
        fit, blocks = gren_counts(counts)
        for row, fit_row, b in zip(counts, fit, blocks):
            s = [0, *np.cumsum(row).tolist()]
            xs = list(range(-1, length))
            hull = operators._hull_row(xs, s)
            expected = np.empty(length)
            for a, z in zip(hull, hull[1:]):
                expected[a:z] = float(Fraction(s[z] - s[a], n * (z - a)))
            assert fit_row.tobytes() == expected.tobytes() and b == len(hull) - 1

    @pytest.mark.parametrize("shape", [(0, 5), (2, 0, 3)])
    def test_stack_of_no_rows(self, shape):
        fit, blocks = gren_counts(np.zeros(shape, dtype=np.int64))
        assert fit.shape == shape and fit.dtype == np.float64
        assert blocks.shape == shape[:-1] and blocks.dtype == np.int64

    def test_one_row(self):
        fit, blocks = gren_counts([20, 14, 11, 22, 15, 18])
        expected_fit, expected_blocks = gren_fraction([20, 14, 11, 22, 15, 18], 100)
        assert fit.tobytes() == expected_fit.tobytes() and int(blocks) == expected_blocks == 2
        assert fit.tolist() == [0.2, 0.16, 0.16, 0.16, 0.16, 0.16]

    def test_stack_shape_is_kept(self):
        counts = np.random.default_rng(4).multinomial(30, np.full(5, 0.2), size=(3, 4))
        fit, blocks = gren_counts(counts)
        assert fit.shape == (3, 4, 5) and blocks.shape == (3, 4)
        flat_fit, flat_blocks = gren_counts(counts.reshape(12, 5))
        assert fit.tobytes() == flat_fit.tobytes() and blocks.ravel().tolist() == flat_blocks.tolist()

    @pytest.mark.parametrize("counts", [[], [0.5, 0.5], 3])
    def test_bad_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="integer counts"):
            gren_counts(counts)

    @pytest.mark.parametrize("n,length", [(2**62, 2), (2**61 + 1, 4), (0, 3), (-5, 3)])
    def test_bad_sample_size_rejected(self, n, length):
        # a row of total n spread over L points: n must lie in [1, (2^63 - 1) // L]
        row = [n // length + (i < n % length) for i in range(length)]
        top = (2**63 - 1) // length
        message = f"counts in \\[0, {top}\\]" if n < 0 else f"every row total n in \\[1, {top}\\]"
        with pytest.raises(ValueError, match=f"^gren_counts requires {message} for L = {length}$"):
            gren_counts([row])

    # a row's total n must lie in [1, (2^63 - 1) // L], so no count may exceed that bound
    @pytest.mark.parametrize("counts", [
        [1 << 61, 1 << 62, 5],  # a count above the largest n
        [-1, 2],  # a negative count
        np.array([[2**63 + 5, 0]], dtype=np.uint64),  # wraps to a negative int64
        [2**62, 2**62, 2**62, 2**62 + 7],  # its running sum would wrap past int64
        [[1, 2], [2**61, 2**61]],  # the second row's total is above the largest n
        [[1, 2], [0, 0]],  # the second row's total is below 1: no observations
    ], ids=["above-n", "negative", "uint64", "wrapped-sum", "row-above-n", "row-below-n"])
    def test_counts_outside_the_sample_rejected(self, counts):
        with pytest.raises(ValueError, match=r"^gren_counts requires (counts in \[0, \d+\]|every row total n in \[1, \d+\]) for L = \d+$"):
            gren_counts(counts)

    def test_largest_sample_size_accepted(self):
        n = (2**63 - 1) // 3
        fit, blocks = gren_counts(np.array([[n, 0, 0]]))
        assert fit.tolist() == [[1.0, 0.0, 0.0]] and blocks.tolist() == [2]
        with pytest.raises(ValueError, match=f"^gren_counts requires every row total n in \\[1, {n}\\] for L = 3$"):
            gren_counts(np.array([[n - 1, 2, 0]]))

    def test_rows_of_different_totals_equal_rows_fitted_alone(self):
        rng = np.random.default_rng(9)
        counts = np.stack([rng.multinomial(n, [0.1, 0.3, 0.05, 0.25, 0.2, 0.1]) for n in (7, 100, 10**6)])
        fit, blocks = gren_counts(counts)
        for row, fit_row, b in zip(counts, fit, blocks):
            alone_fit, alone_blocks = gren_counts(row)
            expected_fit, expected_blocks = gren_fraction(row, int(row.sum()))
            assert fit_row.tobytes() == alone_fit.tobytes() == expected_fit.tobytes()
            assert b == alone_blocks == expected_blocks


class TestChordCut:
    """The dense pass keeps a point x only where S_x * L > n * (x + 1),
    strictly above the chord from (-1, 0) to (L-1, n)."""

    @staticmethod
    def fit_checked(counts, exact=True):
        # gren_counts of a stack, checked row by row against the oracle at each row's own total; past
        # n * L = 2^53, float(T) / float(n*c) makes three roundings, so it is held within 2^-51 instead
        fit, blocks = gren_counts(counts)
        for row, fit_row, b in zip(counts, fit, blocks):
            expected_fit, expected_blocks = gren_fraction(row, sum(row))
            assert b == expected_blocks
            if exact:
                assert fit_row.tobytes() == expected_fit.tobytes()
            else:
                assert np.all(np.abs(fit_row - expected_fit) <= 2.0**-51 * expected_fit)
        return fit, blocks

    # every interior point on or under the chord; a strict bend on it, (1, 4) of [1, 3, 1, 3], passes
    # the counts test and is cut only by the chord's strict >
    @pytest.mark.parametrize("row", [[5, 5, 5, 5, 5], [2, 2], [1, 3, 1, 3], [0, 4, 0, 4], [2, 4, 0, 6], [1, 2, 3, 4], [0, 0, 7]])
    def test_rows_on_or_under_the_chord_need_no_pass(self, row, monkeypatch):
        calls, hull = [], operators._hull_row
        monkeypatch.setattr(operators, "_hull_row", lambda *a: calls.append(a) or hull(*a))
        monkeypatch.setattr(operators, "_HULL_PASSES", 0)
        fit, blocks = self.fit_checked(np.array([row]))
        assert calls == [] and blocks.tolist() == [1]

    @pytest.mark.parametrize("rows", [
        [[3, 1, 2, 2], [4, 0, 4, 0], [2, 2, 3, 1], [0, 4, 4, 0]],  # S touches the chord inside the row
        [[5, 3, 0, 0], [1, 0, 0, 0], [2, 3, 0, 0], [0, 4, 0, 0]],  # trailing zeros
        [[7], [1], [10**12]],  # one point: no interior point
        np.zeros((0, 6), dtype=np.int64),  # no rows
    ], ids=["touching", "trailing-zeros", "one-point", "no-rows"])
    def test_equals_fraction_oracle(self, rows):
        fit, blocks = self.fit_checked(np.asarray(rows))
        assert fit.shape == np.shape(rows) and blocks.shape == np.shape(rows)[:1]

    @pytest.mark.parametrize("length", [2, 3, 4, 7])
    def test_largest_totals(self, length):
        # n = (2^63 - 1) // L, nearly all of it in the first count: in the first row every point is a
        # hull vertex and S_x * L lies within L^3 of 2^63, so a product that wrapped would cut one
        n = ((1 << 63) - 1) // length
        rest = list(range(length - 1, 0, -1))
        row = [n - sum(rest), *rest]
        assert (1 << 63) - length**3 < row[0] * length < 1 << 63
        # a first count just above the chord (n < a * L <= n + L), then flat: two blocks
        a = n // length + 1
        flat = [(n - a) // (length - 1) + (i < (n - a) % (length - 1)) for i in range(length - 1)][::-1]
        rows = [row, [a, *flat], [n, *[0] * (length - 1)], [*rest, n - sum(rest)]]
        fit, blocks = self.fit_checked(np.array(rows), exact=False)
        assert blocks.tolist() == [length, 2, 2, 1]


class TestIdentities:
    """The paper's identities, exactly; n * L <= 2^26 keeps distinct block
    values distinct as floats, so the fit's constant runs are its blocks."""

    @settings(max_examples=200, deadline=None)
    @given(count_stacks(max_scale=2**26))
    def test_sum_monotone_and_majorisation(self, stack):
        counts, n = stack
        fit, blocks = gren_counts(counts)
        assert np.all(np.diff(fit, axis=1) <= 0)
        for row, fit_row, b in zip(counts, fit, blocks):
            lengths, totals = constant_runs(fit_row, n)
            assert lengths.size == b
            assert int(totals.sum()) == n  # the block totals sum to n exactly
            s = np.cumsum(row)
            ends = np.cumsum(lengths) - 1
            assert s[ends].tolist() == np.cumsum(totals).tolist()  # the majorant touches S at each block end
            before = np.r_[0, s[ends[:-1]]]  # S just before each block
            for a, c, t, p in zip(ends - lengths + 1, lengths, totals, before):
                # c * (P + T*(j-a+1)/c) >= c * S_j inside the block, in integers
                steps = np.arange(1, c + 1)
                assert np.all(c * p + t * steps >= c * s[a : a + c])

    @settings(max_examples=100, deadline=None)
    @given(count_stacks(max_scale=2**26, monotone=True))
    def test_monotone_counts_unchanged(self, stack):
        counts, n = stack
        fit, blocks = gren_counts(counts)
        assert fit.tobytes() == (counts / n).tobytes()
        assert blocks.tolist() == [len(set(row.tolist())) for row in counts]

    @settings(max_examples=150, deadline=None)
    @given(count_stacks(max_scale=2**40), st.integers(1, 2**12))
    def test_scale_equivariance(self, stack, m):
        counts, n = stack
        fit, blocks = gren_counts(counts)
        scaled_fit, scaled_blocks = gren_counts(m * counts)
        assert scaled_fit.tobytes() == fit.tobytes() and scaled_blocks.tolist() == blocks.tolist()

    @settings(max_examples=150, deadline=None)
    @given(count_stacks())
    def test_estimators_from_counts(self, stack):
        counts, n = stack
        assert estimate(EstimatorKind.EMPIRICAL, counts).tobytes() == (counts / n).tobytes()
        assert estimate(EstimatorKind.REARRANGEMENT, counts).tobytes() == rear(counts / n).tobytes()
        assert estimate(EstimatorKind.GRENANDER, counts).tobytes() == gren_counts(counts)[0].tobytes()
