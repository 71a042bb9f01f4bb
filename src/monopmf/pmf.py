"""Finite-support probability mass functions on {0, ..., K}.

A decreasing pmf on the non-negative integers is a mixture of discrete
uniforms; every constructor here either builds such a mixture directly or
truncates an infinite-support family to finite support.  The empirical
estimator is formed from observed counts and carries no shape guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import as_int, as_real, keyed_generators

#: Absolute tolerance for "sums to one" checks on probability vectors.
SUM_TOL = 1e-12

#: Default residual tail mass at which infinite-support families are truncated.
DEFAULT_TAIL_TOL = 1e-12

#: Most support points a constructor accepts, checked before allocating.
MAX_SUPPORT = 10**7

#: Uniforms `sample_counts` fills and sorts at a time (one row when n is larger).
_SORT_VALUES = 1 << 14


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
    that K is the true support maximum.  `monotone` is set by constructors
    that guarantee a non-increasing mass function, in which case the
    mixture bound probs[x] <= 1/(x+1) also holds.
    """

    probs: np.ndarray
    monotone: bool = False

    def __post_init__(self):
        probs = _as_readonly(self.probs)
        object.__setattr__(self, "probs", probs)
        if not np.all(np.isfinite(probs)):
            raise ValueError("pmf entries must be finite")
        if np.any(probs < 0):
            raise ValueError("pmf entries must be non-negative")
        total = float(probs.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"pmf entries must sum to 1, got {total!r}")
        if probs[-1] <= 0:
            raise ValueError("trailing zero entries are not allowed; trim the support")
        if self.monotone:
            if np.any(np.diff(probs) > SUM_TOL):
                raise ValueError("monotone pmf must be non-increasing")
            bound = 1.0 / (np.arange(probs.size) + 1.0)
            if np.any(probs > bound + SUM_TOL):
                raise ValueError("monotone pmf must satisfy probs[x] <= 1/(x+1)")

    @property
    def support_size(self) -> int:
        return int(self.probs.size)

    @property
    def support_max(self) -> int:
        """Largest support point K."""
        return int(self.probs.size - 1)


def uniform_pmf(y: int) -> Pmf:
    """Uniform pmf on {0, ..., y}."""
    y = as_int(y, "y")
    if y < 0:
        raise ValueError("y must be a non-negative integer")
    _check_support(y + 1)
    return Pmf(np.full(y + 1, 1.0 / (y + 1)), monotone=True)


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
        return Pmf(np.array([1.0]), monotone=True)
    # smallest K with theta**(K+1) < tail_tol
    k = max(0, math.ceil(math.log(tail_tol) / math.log(theta)) - 1)
    while theta ** (k + 1) >= tail_tol:
        k += 1
    _check_support(k + 1)
    x = np.arange(k + 1)
    probs = (1.0 - theta) * theta**x
    probs /= probs.sum()
    return Pmf(probs, monotone=True)


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
    if np.any(w <= 0):
        raise ValueError("mixture weights must be positive")
    if abs(float(w.sum()) - 1.0) > SUM_TOL:
        raise ValueError("mixture weights must sum to 1")
    if np.any(y < 0) or np.any(np.diff(y) <= 0):
        raise ValueError("ys must be strictly increasing non-negative integers")
    _check_support(int(y[-1]) + 1)
    y = y.astype(np.int64)
    probs = np.zeros(int(y[-1]) + 1)
    for wi, yi in zip(w, y):
        probs[: yi + 1] += wi / (yi + 1.0)
    return Pmf(probs, monotone=True)


def sample_counts(p: Pmf, n: int, seeds) -> np.ndarray:
    """Count matrix of one sample of size n per seed.

    Row i tabulates n draws from p on a generator keyed by seeds[i] (the
    stream of make_generator(seeds[i])), over all K+1 support points, so
    rows may end in zeros.  `seeds` is a uint64 array or a sequence of
    integers.  The rows of uniforms are sorted and the K+1 cumulative
    probabilities are searched into each: the draws below cum[x] are those
    the inverse-CDF search sends to {0, ..., x}, so the counts equal that
    search's exactly, at O(n log n + K log n) per row instead of O(n log K).
    Uniforms are filled and sorted in blocks of max(1, _SORT_VALUES // n)
    rows, so their buffer holds at most max(n, _SORT_VALUES) values however
    many seeds there are; the count matrix holds len(seeds) * (K+1).
    """
    n = as_int(n, "n")
    if n < 1:
        raise ValueError("sample size n must be positive")
    if not isinstance(seeds, np.ndarray):
        seeds = list(seeds)
    cum = np.cumsum(p.probs)
    cum[-1] = 1.0  # guard against float shortfall; uniforms are < 1
    below = np.empty((len(seeds), p.support_size), dtype=np.int64)
    step = max(1, _SORT_VALUES // n)
    u = np.empty((min(len(seeds), step), n))
    rngs = keyed_generators(seeds)
    for start in range(0, len(below), step):
        block = u[: len(below) - start]
        for row in block:
            next(rngs).random(out=row)
        block.sort(axis=1)
        for row, out in zip(block, below[start:]):
            out[:] = row.searchsorted(cum)  # the draws u < cum[x]
    return np.diff(below, axis=1, prepend=0)


def sample(p: Pmf, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. observations from p and tabulate them: the int64 count
    row of x = 0..K_obs, which sums to n and ends at the largest observed
    value (the row of sample_counts(p, n, (seed,)) less its trailing zeros).

    Inverse-CDF sampling on a counter-based generator: identical
    (p, n, seed) triples produce identical counts on every platform.
    """
    return np.trim_zeros(sample_counts(p, n, (seed,))[0], "b")


def empirical_pmf(counts) -> Pmf:
    """Relative frequencies counts / n of a count row, n its total; interior
    zeros are retained."""
    counts = np.asarray(counts)
    return Pmf(counts / float(counts.sum()), monotone=False)


# ---------------------------------------------------------------------------
# Text formats: one support point per line, "x<TAB>value", ascending x, no gaps.

def format_pmf(p) -> str:
    """Lines "x<TAB>value" of a Pmf or of any sequence (estimates, weights)."""
    values = p.probs if isinstance(p, Pmf) else p
    return "".join(f"{x}\t{v:.17g}\n" for x, v in enumerate(values))


def format_counts(counts) -> str:
    return "".join(f"{x}\t{int(v)}\n" for x, v in enumerate(counts))


def float_label(x: float) -> str:
    """The `:g` text of x when it reads back as x, else the shortest that does."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def _parse_table(text: str, label: str):
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{label} line {lineno}: expected 'x<TAB>value'")
        try:
            x = int(parts[0])
        except ValueError:
            raise ValueError(f"{label} line {lineno}: bad support point {parts[0]!r}") from None
        if x != len(rows):
            raise ValueError(f"{label} line {lineno}: support points must be 0,1,... without gaps")
        rows.append(parts[1])
    if not rows:
        raise ValueError(f"{label}: no data lines")
    return rows


def parse_pmf(text: str, monotone: bool = False) -> Pmf:
    values = [float(v) for v in _parse_table(text, "pmf")]
    return Pmf(np.array(values), monotone=monotone)


def parse_counts(text: str) -> np.ndarray:
    """The int64 count row of a counts file: non-negative counts whose total,
    the sample size n, lies in [1, 2^63), and whose last is positive (K_obs)."""
    values = [int(v) for v in _parse_table(text, "counts")]
    if min(values) < 0:  # Python ints until the checks pass
        raise ValueError("counts must be non-negative")
    n = sum(values)
    if n < 1:
        raise ValueError("sample size n must be positive")
    if n > np.iinfo(np.int64).max:
        raise ValueError(f"counts must sum to less than 2^63, got {n}")
    if values[-1] == 0:
        raise ValueError("last count must be positive (K_obs is the max observed value)")
    return np.array(values, dtype=np.int64)
