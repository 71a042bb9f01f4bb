"""Monotone rearrangement and Grenander operators on finite sequences.

Both operators map an arbitrary real sequence to a non-increasing one with
the same total sum.  `rear` sorts; `gren` returns the left slopes of the
least concave majorant of the cumulative-sum graph anchored at (-1, 0),
computed with a single-pass monotone stack of hull segments (the pooled
form of the hull is exactly the pool-adjacent-violators fit).  Both, like
`limit_transform` and `mixing_estimate`, accept a stack of sequences
(shape (..., L)) and work row by row along the last axis.
"""

from __future__ import annotations

import numpy as np

from .pmf import SUM_TOL, Pmf

def rear(w) -> np.ndarray:
    """Values of w reordered to be non-increasing.

    A stack of sequences (shape (..., L)) is rearranged row by row along
    its last axis.
    """
    v = np.asarray(w, dtype=float)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("rear requires a non-empty sequence")
    return np.sort(v, axis=-1)[..., ::-1].copy()


def pool_segments(values) -> tuple[list[float], list[int]]:
    """Hull segments of the least concave majorant of the running sums.

    Returns parallel lists (totals, lengths): segment i covers `lengths[i]`
    consecutive indices and has slope totals[i]/lengths[i].  Segments are
    pooled while a previous slope is strictly below the next one, so the
    emitted slopes are non-increasing.  Already non-increasing input is
    left untouched (every segment has length one).
    """
    totals: list[float] = []
    lengths: list[int] = []
    means: list[float] = []  # means[i] is totals[i] / lengths[i], divided once
    for x in values:
        t = m = float(x)
        c = 1
        # compare the divided means: they are what gets emitted, so the
        # output is non-increasing as floats, not just in exact arithmetic
        while means and means[-1] < m:
            t += totals.pop()
            c += lengths.pop()
            means.pop()
            m = t / c
        totals.append(t)
        lengths.append(c)
        means.append(m)
    return totals, lengths


def gren(w) -> np.ndarray:
    """Left slopes of the least concave majorant of the cumulative sums.

    The majorant is taken over the points {(j, sum_{i<=j} w_i): j=-1..K}
    with the empty sum at j=-1 equal to zero.  The output is non-increasing,
    sums to sum(w), and its partial sums dominate those of w.  A stack of
    sequences (shape (..., L)) is fitted row by row along its last axis;
    non-increasing rows are returned bitwise unchanged.
    """
    v = np.asarray(w, dtype=float)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("gren requires a non-empty sequence")
    out = v.copy()  # untouched segments keep the exact input value
    rows = out.reshape(-1, v.shape[-1])
    for i in range(rows.shape[0]):
        pos = 0
        for t, c in zip(*pool_segments(rows[i].tolist())):
            if c > 1:
                rows[i, pos : pos + c] = t / c
            pos += c
    return out


def constancy_blocks(p: Pmf) -> list[tuple[int, int]]:
    """Maximal index intervals [r, s] on which p is constant.

    Blocks are contiguous, ordered, and cover {0, ..., K}; across a block
    boundary the pmf strictly decreases.  Entries are compared exactly, so
    no block depends on the scale of the probabilities; the package
    constructors give exactly equal entries within each flat stretch.
    """
    if not p.monotone:
        raise ValueError("constancy blocks are defined for monotone pmfs")
    probs = p.probs
    starts = [0, *(np.flatnonzero(probs[1:] != probs[:-1]) + 1).tolist()]
    return list(zip(starts, [s - 1 for s in starts[1:]] + [probs.size - 1]))


def limit_transform(y, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Apply rear and gren within each block of a partition.

    Returns (y_rear, y_gren).  Singleton blocks are passed through
    unchanged, so for a strictly decreasing truth both outputs equal y.  A
    stack of sequences (shape (..., K+1)) is transformed row by row.
    """
    v = np.asarray(y, dtype=float)
    if v.ndim == 0:
        raise ValueError("expected a sequence")
    expected_start = 0
    for r, s in blocks:
        if r != expected_start or s < r:
            raise ValueError("blocks must be contiguous, ordered, and disjoint")
        expected_start = s + 1
    if expected_start != v.shape[-1]:
        raise ValueError("block partition does not cover the sequence")
    y_rear = v.copy()
    y_gren = v.copy()
    for r, s in blocks:
        if s > r:
            y_rear[..., r : s + 1] = rear(v[..., r : s + 1])
            y_gren[..., r : s + 1] = gren(v[..., r : s + 1])
    return y_rear, y_gren


def mixing_estimate(p) -> np.ndarray:
    """Mixing weights of the uniform-mixture representation.

    weights[x] = -(x+1) * (p[x+1] - p[x]) with p[K+1] = 0.  The weights
    telescope to sum(p) = 1; they are non-negative exactly when p is
    non-increasing, so the raw empirical plug-in may go negative.  A stack
    of sequences (shape (..., K+1)) gives a stack of weights, row by row;
    a row that does not sum to one is a ValueError.
    """
    probs = p.probs if isinstance(p, Pmf) else np.asarray(p, dtype=float)
    if probs.ndim == 0 or probs.shape[-1] == 0:
        raise ValueError("expected a non-empty sequence")
    shifted = np.concatenate((probs[..., 1:], np.zeros(probs.shape[:-1] + (1,))), axis=-1)  # p[x+1], p[K+1] = 0
    weights = -(np.arange(probs.shape[-1]) + 1.0) * (shifted - probs)
    totals = np.ravel(weights.sum(axis=-1))
    bad = np.flatnonzero(np.abs(totals - 1.0) > SUM_TOL)
    if bad.size:
        raise ValueError(f"mixing weights must sum to 1, got {float(totals[bad[0]])!r}")
    return weights
