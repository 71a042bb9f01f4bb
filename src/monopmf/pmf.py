"""Finite-support probability mass functions on {0, ..., K}.

A decreasing pmf on the non-negative integers is a mixture of discrete
uniforms; every constructor here either builds such a mixture directly or
truncates an infinite-support family to finite support.  The empirical
estimator is formed from observed counts and carries no shape guarantee.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import _CHUNK_ELEMENTS, _block_height, as_int, as_real, make_generator

#: Absolute tolerance for "sums to one" checks on probability vectors.
SUM_TOL = 1e-12

#: Default residual tail mass at which infinite-support families are truncated.
DEFAULT_TAIL_TOL = 1e-12

#: Most support points a constructor accepts, checked before allocating.
MAX_SUPPORT = 10**7

#: Version of the count stream of the Monte Carlo drivers, which a run's _meta.json records: 4 (0.5.0)
#: draws the sparse flat stretches of a truth whose blocks hold one row as uniform integers
#: (`sample_counts`), 3 (0.4.0) a block of replicates per `sample_counts` call on the block's seed
#: (`rng._replicate_blocks`), 2 (0.3.0) one per replicate's seed; up to 0.2.0, stream 1 counted sorted
#: uniforms, unrecorded.
COUNT_STREAM = 4

#: Count stream 4's Λ: a flat stretch whose per-point mean n*p is at most this is drawn as uniform
#: integers, below the crossover (n*p between 20 and 30 at widths 10^4 to 10^6) past which numpy's
#: binomial turns from inversion to BTPE.
_SPARSE_MEAN = 16

#: Count stream 4's least stretch width: a narrower stretch stays in the multinomial call, since the
#: few numpy calls per stretch cost more than its binomials below about 128-256 points.  Like Λ and
#: the call size, it is part of the stream.
_SPARSE_WIDTH = 512


def _as_readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-D sequence")
    arr.setflags(write=False)
    return arr


def _check_support(size: int) -> None:
    if size > MAX_SUPPORT:
        raise ValueError(f"support of {size} points exceeds the limit of {MAX_SUPPORT}")


@dataclass(frozen=True)
class Pmf:
    """Probability mass function with support {0, ..., K}.

    `probs[x]` is the probability of x; the last entry must be positive so
    that K is the true support maximum.  `monotone` is read from the
    probabilities, compared exactly.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = _as_readonly(self.probs)
        object.__setattr__(self, "probs", probs)
        if not np.all(np.isfinite(probs)):
            raise ValueError("pmf entries must be finite")
        if np.any(probs < 0):
            raise ValueError("pmf entries must be non-negative")
        with np.errstate(over="ignore"):  # finite entries may sum past the float range, to inf
            total = float(probs.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"pmf entries must sum to 1, got {total!r}")
        if probs[-1] <= 0:
            raise ValueError("trailing zero entries are not allowed; trim the support")

    @property
    def support_size(self) -> int:
        return int(self.probs.size)

    @property
    def support_max(self) -> int:
        """Largest support point K."""
        return int(self.probs.size - 1)

    @cached_property
    def monotone(self) -> bool:
        """Whether probs is non-increasing, with no tolerance."""
        return not np.any(self.probs[1:] > self.probs[:-1])

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and width of each maximal run of exactly equal probabilities,
        in order, computed once per pmf: the constancy blocks of a monotone
        pmf, and the candidates for count stream 4's flat stretches."""
        starts = np.flatnonzero(np.concatenate(([True], self.probs[1:] != self.probs[:-1])))
        return starts, np.diff(starts, append=self.probs.size)


def uniform_pmf(y: int) -> Pmf:
    """Uniform pmf on {0, ..., y}."""
    y = as_int(y, "y")
    if y < 0:
        raise ValueError("y must be a non-negative integer")
    _check_support(y + 1)
    return Pmf(np.full(y + 1, 1.0 / (y + 1)))


def geometric_pmf(theta: float, tail_tol: float = DEFAULT_TAIL_TOL) -> Pmf:
    """Geometric pmf (1-theta)*theta**x, truncated and renormalized.

    Support is cut at the smallest K whose residual tail mass theta**(K+1)
    falls below `tail_tol`; the deficit is redistributed proportionally,
    which preserves monotonicity.
    """
    theta = as_real(theta, "theta")
    tail_tol = as_real(tail_tol, "tail_tol")
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie in (0, 1)")
    if theta == 0.0:
        return Pmf(np.array([1.0]))
    # smallest K with theta**(K+1) < tail_tol
    k = max(0, math.ceil(math.log(tail_tol) / math.log(theta)) - 1)
    while theta ** (k + 1) >= tail_tol:
        k += 1
    _check_support(k + 1)
    x = np.arange(k + 1)
    probs = (1.0 - theta) * theta**x
    probs /= probs.sum()
    return Pmf(probs)


def mixture_of_uniforms(weights, ys) -> Pmf:
    """Pmf of the mixture sum_i weights[i] * uniform{0..ys[i]}.

    `ys` must be strictly increasing non-negative integers and `weights`
    positive reals summing to one.
    """
    w = np.asarray(weights, dtype=float)
    y = np.asarray(ys, dtype=object)
    if w.ndim != 1 or y.ndim != 1 or w.size != y.size or w.size == 0:
        raise ValueError("weights and ys must be non-empty sequences of equal length")
    y = np.array([as_int(v, "ys") for v in y], dtype=object)  # Python ints until the checks pass
    if np.any(~(w > 0)):  # a NaN weight is not positive either
        raise ValueError("mixture weights must be positive")
    with np.errstate(over="ignore"):  # as in Pmf: an inf sum is rejected, without numpy's warning
        if not abs(float(w.sum()) - 1.0) <= SUM_TOL:
            raise ValueError("mixture weights must sum to 1")
    if np.any(y < 0) or np.any(np.diff(y) <= 0):
        raise ValueError("ys must be strictly increasing non-negative integers")
    _check_support(int(y[-1]) + 1)
    y = y.astype(np.int64)
    probs = np.zeros(int(y[-1]) + 1)
    for wi, yi in zip(w, y):
        probs[: yi + 1] += wi / (yi + 1.0)
    return Pmf(probs)


def check_sample_size(n) -> int:
    """`n` as an int in [1, 2^63), the sample sizes the count streams take; anything else is a ValueError,
    whose message gives n past 128 bits by its bit length (an int past 4300 digits has no str())."""
    n = as_int(n, "n")
    if not 1 <= n < 1 << 63:
        shown = n if n.bit_length() <= 128 else f"a {'negative ' if n < 0 else ''}{n.bit_length()}-bit integer"
        raise ValueError(f"sample size n must lie in [1, 2^63), got {shown}")
    return n


def sample_counts(p: Pmf, n: int, seed: int, rows: int) -> np.ndarray:
    """Count matrix of `rows` samples of size n, all drawn on one seed.

    Count stream 3 is make_generator(seed).multinomial(n, p.probs, size=rows):
    each row counts n draws from p over all K+1 support points, so rows may
    end in zeros.  numpy draws a row as K+1 conditional binomials (Davis
    1993), the small ones by inversion, in O(K) per row whatever n is.

    Count stream 4 changes the rows of a truth whose blocks hold one row
    (`rng._block_height(K+1) == 1`, more than 8192 points) that has a
    sparse stretch: a maximal run of w >= _SPARSE_WIDTH equal
    probabilities p whose per-point mean n*p is at most _SPARSE_MEAN.
    Each row is then multinomial(n, q), q being p.probs with
    each sparse stretch merged into one point of mass w*p, after which each
    sparse stretch in turn spreads its total over its points as the
    histogram of that many integers(0, w, dtype=uint32), drawn in calls of
    at most max(_CHUNK_ELEMENTS, w) values.  Given its total, a stretch of
    equal probabilities has multinomial(total, uniform) counts, so the law
    is unchanged.  A row costs one binomial per merged point plus, per
    sparse stretch, a few numpy calls and O(w + total) array work (each
    call's histogram is w long, and a call holds at least w values unless
    it is the last), so O(K + n) array work in all.  Every other pmf keeps
    stream 3's call.

    Either way the rows are drawn one after another, so the first m rows
    of a call are the rows of the same call with rows = m, and besides the
    int64 (rows, K+1) matrix a call takes O(K + _CHUNK_ELEMENTS) memory
    whatever n is.
    """
    n, rows = check_sample_size(n), as_int(rows, "rows")
    if rows < 0:
        raise ValueError(f"rows must be non-negative, got {rows}")
    generator = make_generator(seed)
    starts = widths = []
    if _block_height(p.support_size) == 1:
        starts, widths = p._runs
        sparse = (widths >= _SPARSE_WIDTH) & (n * p.probs[starts] <= _SPARSE_MEAN)
        starts, widths = starts[sparse].tolist(), widths[sparse].tolist()
    if not starts:
        return generator.multinomial(n, p.probs, size=rows)
    kept = np.ones(p.support_size, dtype=bool)  # the points of q: all but the tail of each sparse stretch
    for start, width in zip(starts, widths):
        kept[start + 1 : start + width] = False
    kept = np.flatnonzero(kept)
    q = p.probs[kept]
    q[np.searchsorted(kept, starts)] = np.multiply(widths, p.probs[starts])
    out = np.zeros((rows, p.support_size), dtype=np.int64)
    for row in out:
        row[kept] = generator.multinomial(n, q)
        for start, width, total in zip(starts, widths, row[starts].tolist()):
            row[start] = 0
            call = max(_CHUNK_ELEMENTS, width)
            for done in range(0, total, call):
                hist = np.bincount(generator.integers(0, width, min(call, total - done), dtype=np.uint32))
                row[start : start + hist.size] += hist
    return out


def sample(p: Pmf, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. observations from p and tabulate them: the int64 count
    row of x = 0..K_obs, which sums to n and ends at the largest observed
    value (the row of sample_counts(p, n, seed, 1) less its trailing zeros).

    A multinomial draw on a counter-based generator: identical (p, n, seed)
    triples give identical counts under one numpy version (numpy promises
    no stream across versions; tests/test_pipeline.py pins some rows).
    """
    return np.trim_zeros(sample_counts(p, n, seed, 1)[0], "b")


def empirical_pmf(counts) -> Pmf:
    """Relative frequencies counts / n of a count row, n its total; interior
    zeros are retained."""
    counts = np.asarray(counts)
    return Pmf(counts / float(counts.sum()))


def float_label(x: float) -> str:
    """The `:g` text of x when it reads back as x, else the shortest that does."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


# ---------------------------------------------------------------------------
# Readers of the text formats: one support point per line, "x<TAB>value", ascending x, no gaps.

def _parse_table(text: str, label: str, convert) -> list:
    """The values of a `label` file, each converted by `convert` on its own line."""
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{label} line {lineno}: expected 'x<TAB>value'")
        try:
            x = int(parts[0])
        except ValueError:
            raise ValueError(f"{label} line {lineno}: bad support point {reprlib.repr(parts[0])}") from None
        if x != len(values):
            raise ValueError(f"{label} line {lineno}: support points must be 0,1,... without gaps")
        try:
            values.append(convert(parts[1]))
        except ValueError:
            raise ValueError(f"{label} line {lineno}: bad value {reprlib.repr(parts[1])}") from None
    if not values:
        raise ValueError(f"{label}: no data lines")
    return values


def parse_pmf(text: str) -> Pmf:
    return Pmf(np.array(_parse_table(text, "pmf", float)))


def parse_counts(text: str) -> np.ndarray:
    """The int64 count row of a counts file: non-negative counts whose total,
    the sample size n, passes `check_sample_size`, and whose last is positive (K_obs)."""
    values = _parse_table(text, "counts", int)
    if min(values) < 0:  # Python ints until the checks pass
        raise ValueError("counts must be non-negative")
    check_sample_size(sum(values))
    if values[-1] == 0:
        raise ValueError("last count must be positive (K_obs is the max observed value)")
    return np.array(values, dtype=np.int64)
