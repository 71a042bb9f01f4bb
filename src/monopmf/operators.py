"""Monotone rearrangement and Grenander operators on finite sequences.

Both operators map an arbitrary real sequence to a non-increasing one with
the same total sum.  `rear` sorts; `gren` returns the left slopes of the
least concave majorant of the cumulative-sum graph anchored at (-1, 0),
computed with a single-pass monotone stack of hull segments (the pooled
form of the hull is exactly the pool-adjacent-violators fit).  Both, like
`limit_transform` and `mixing_estimate`, accept a stack of sequences
(shape (..., L)) and work row by row along the last axis.

`gren` has two paths with the same bits, chosen from the input's shape:
a stack with at least max(128, 4L) rows and L <= 90 is pooled a column
at a time for all rows at once (`column_sweep`, over row blocks of about
2^15 values); a 1-D sequence, a shorter stack or a longer row runs the
`pool_segments` loop once per row.
"""

from __future__ import annotations

import numpy as np

from .pmf import SUM_TOL, Pmf

#: Values per row block of `column_sweep`, which bounds its work arrays.
_SWEEP_VALUES = 1 << 15


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


def column_sweep(rows) -> tuple[np.ndarray, np.ndarray]:
    """`pool_segments` on every row of a (r, L) stack at once: (fit, counts).

    The hull stacks of all rows live in flat (r*L) arrays of totals,
    lengths and means, row i's from i*L up to its top.  Column j is pushed
    onto every stack after merge rounds, each of which pools the new
    segment of every row whose previous mean is strictly smaller.  A row
    makes the float operations of `pool_segments` in its order (t + total,
    then t / c), so its fit has the same bits as the row fitted alone, and
    an unpooled entry keeps its input bits.  counts[i] is the number of
    segments of row i.
    """
    r, length = rows.shape
    totals = np.empty(r * length)
    lengths = np.empty(r * length, dtype=np.int64)
    means = np.empty(r * length)
    base = np.arange(0, r * length, length)
    top = base.copy()  # flat index of each row's next free slot
    every = np.arange(r)
    for j in range(length):
        t = rows[:, j].copy()
        c = np.ones(r, dtype=np.int64)
        m = t.copy()
        live = every if j else every[:0]  # column 0 finds every stack empty
        while live.size:
            k = top[live] - 1
            hit = means[k] < m[live]
            live, k = live[hit], k[hit]
            t[live] += totals[k]
            c[live] += lengths[k]
            m[live] = t[live] / c[live]
            top[live] = k
            live = live[k > base[live]]
        totals[top] = t
        lengths[top] = c
        means[top] = m
        top += 1
    counts = top - base
    used = (np.arange(length) < counts[:, None]).ravel()
    return np.repeat(means[used], lengths[used]).reshape(r, length), counts


def _pool_row(row: np.ndarray, fit: np.ndarray) -> int:
    """Write the `pool_segments` fit of a 1-D row into `fit`, a copy of it
    (unpooled entries keep their input bits); return its segment count."""
    totals, lengths = pool_segments(row.tolist())
    pos = 0
    for t, c in zip(totals, lengths):
        if c > 1:
            fit[pos : pos + c] = t / c
        pos += c
    return len(lengths)


def pava(v: np.ndarray):
    """(fit, segment counts) of every row of a float stack v (shape (..., L)),
    by the path the shape rule in `gren` picks; a 1-D v gives an int count."""
    fit = v.copy()
    if v.ndim == 1:
        return fit, _pool_row(v, fit)
    rows = v.reshape(-1, v.shape[-1])
    fit_rows = fit.reshape(rows.shape)
    r, length = rows.shape
    block = max(1, _SWEEP_VALUES // length)
    counts = np.empty(r, dtype=np.int64)
    if min(r, block) >= max(128, 4 * length):
        start = 0
        for part in np.array_split(rows, r // block or 1):  # blocks of block..2*block-1 rows
            stop = start + part.shape[0]
            fit_rows[start:stop], counts[start:stop] = column_sweep(part)
            start = stop
    else:
        for i in range(r):
            counts[i] = _pool_row(rows[i], fit_rows[i])
    return fit, counts.reshape(v.shape[:-1])


def gren(w) -> np.ndarray:
    """Left slopes of the least concave majorant of the cumulative sums.

    The majorant is taken over the points {(j, sum_{i<=j} w_i): j=-1..K}
    with the empty sum at j=-1 equal to zero.  The output is non-increasing,
    sums to sum(w), and its partial sums dominate those of w.  A stack of
    sequences (shape (..., L)) is fitted row by row along its last axis;
    non-increasing rows are returned bitwise unchanged.

    Two paths give the same bits: a stack whose row blocks of about 2^15
    values hold at least max(128, 4L) rows, which needs L <= 90, is pooled
    by `column_sweep`; a 1-D sequence or any other stack runs
    `pool_segments` once per row.  Measured on normal rows,
    loop -> sweep in ms: L=8, 32 rows 0.08 -> 0.11, 128 rows 0.32 -> 0.14,
    1024 rows 2.5 -> 0.42; L=32, 64 rows 0.43 -> 0.66, 128 rows 0.86 ->
    0.81; L=90, 128 rows 2.1 -> 2.4, 360 rows 5.9 -> 3.7.
    """
    v = np.asarray(w, dtype=float)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("gren requires a non-empty sequence")
    return pava(v)[0]


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
