"""Monotone rearrangement and Grenander operators on finite sequences.

Both operators map an arbitrary real sequence to a non-increasing one with
the same total sum.  `rear` sorts; `gren` returns the left slopes of the
least concave majorant of the cumulative-sum graph anchored at (-1, 0),
computed with a single-pass monotone stack of hull segments (the pooled
form of the hull is exactly the pool-adjacent-violators fit).  Both, like
`limit_transform` and `mixing_estimate`, accept a stack of sequences
(shape (..., L)) and work row by row along the last axis.

Integer counts take `gren_counts`, the estimators of an empirical sample
in the Monte Carlo drivers and the CLI: the Grenander of the counts, its
hull found by exact int64 vertex-removal passes over all rows at once,
divided by n once per block, so each value is the exact slope correctly
rounded when n*(K+1) < 2^53.  Float input takes `gren` (limit draws,
`touch_count`, public calls on a pmf), which `pava` pools row by row
(`_pool_row`) or a column at a time for all rows at once (`column_sweep`),
with the same bits, by the shape rule in its docstring.
"""

from __future__ import annotations

import numpy as np

from .pmf import SUM_TOL, Pmf
from .rng import as_int

#: Values per row block of `column_sweep`, which bounds its work arrays.
_SWEEP_VALUES = 1 << 15

#: Vertex-removal passes of `gren_counts` on all rows at once before the
#: rows not yet done are finished one at a time (a strictly decreasing run
#: that ends in a spike loses one vertex per pass).
_HULL_PASSES = 32


def rear(w) -> np.ndarray:
    """Values of w reordered to be non-increasing.

    A stack of sequences (shape (..., L)) is rearranged row by row along
    its last axis.
    """
    v = np.asarray(w, dtype=float)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("rear requires a non-empty sequence")
    return np.sort(v, axis=-1)[..., ::-1].copy()


def column_sweep(rows) -> tuple[np.ndarray, np.ndarray]:
    """`_pool_row` on every row of a (r, L) stack at once: (fit, counts).

    The hull stacks of all rows live in flat (r*L) arrays of totals,
    lengths and means, row i's from i*L up to its top.  Column j is pushed
    onto every stack after merge rounds, each of which pools the new
    segment of every row whose previous mean is strictly smaller.  A row
    makes the float operations of `_pool_row` in its order (t + total,
    then t / c), so its fit has the same bits as the row fitted alone, and
    an unpooled entry keeps its input bits.  counts[i] is the number of
    segments of row i.  `pava` calls it on the stacks its shape rule picks.
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
    """Pool a 1-D row into `fit`, a copy of it; return its segment count.

    A stack of segments (total, length, mean) pools the new one while the
    previous mean is strictly below its own; each pooled mean is written
    over its segment of `fit`, and an unpooled entry keeps its input bits.
    """
    stack: list[tuple[float, int, float]] = []
    for t in row.tolist():
        c, m = 1, t
        # compare the divided means: they are what gets written, so the
        # fit is non-increasing as floats, not just in exact arithmetic
        while stack and stack[-1][2] < m:
            total, length, _ = stack.pop()
            t += total
            c += length
            m = t / c
        stack.append((t, c, m))
    pos = 0
    for _, c, m in stack:
        if c > 1:
            fit[pos : pos + c] = m
        pos += c
    return len(stack)


def pava(v: np.ndarray):
    """(fit, segment counts) of every row of a float stack v (shape (..., L));
    a 1-D v gives an int count.

    The shape rule: a stack whose row blocks of `_SWEEP_VALUES` = 2^15
    values hold at least max(128, 4L) rows (so L <= 90) is pooled block by
    block by `column_sweep`, whose work arrays then stay near 2^15 values;
    a 1-D v or any other stack runs `_pool_row` once per row.  Both paths
    give the same bits.
    """
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

    `pava` pools it by one of two paths with the same bits, picked by the
    shape rule in its docstring.
    """
    v = np.asarray(w, dtype=float)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("gren requires a non-empty sequence")
    return pava(v)[0]


def _hull_row(x: list, s: list) -> list[int]:
    """Indices of the vertices of the least concave majorant of the points
    (x[i], s[i]), x increasing, by one exact monotone-chain sweep."""
    hull: list[int] = []
    for j, (xj, sj) in enumerate(zip(x, s)):
        while len(hull) > 1:
            a, b = hull[-2], hull[-1]
            if (s[b] - s[a]) * (xj - x[b]) > (sj - s[b]) * (x[b] - x[a]):
                break
            hull.pop()
        hull.append(j)
    return hull


def gren_counts(counts, n) -> tuple[np.ndarray, np.ndarray]:
    """Exact Grenander of count rows: (fit, blocks) of an integer (..., L) stack.

    Each row holds the counts of a sample of size n on {0, ..., L-1}.  Its
    fit is the left slopes of the least concave majorant of the cumulative
    counts S (S_{-1} = 0), divided by n; blocks holds each row's number of
    maximal linear pieces of that majorant (equal slopes share one).  Every
    pooling decision compares int64 cross products exactly, and a block of
    total T and length c gets float(T) / float(n*c).  When n*L < 2^53 that
    is the exact slope correctly rounded, whatever the chunking or scale,
    and an unpooled entry has the bits of count / n.  Counts outside [0, n]
    or a row that does not sum to n is a ValueError, raised before any pass.

    The hull is found by vertex removal on all rows at once.  The first
    pass, on the dense grid, drops every vertex where the counts do not
    strictly decrease.  Each later pass takes the steps dx, ds between the
    surviving vertices of all rows and drops every vertex inside a row whose
    left slope is at most its right one (ds[i-1]*dx[i] <= ds[i]*dx[i-1]).
    Such a vertex lies on or below a chord of its row, so dropping any
    number of them at once keeps the majorant.  The passes stop at the
    first that drops nothing; after `_HULL_PASSES` passes the rows that
    still have such a vertex are finished one at a time by `_hull_row`.
    Every decision is exact, so the switch point changes no bit.  A stack
    of no rows gives an empty fit and blocks.
    """
    c = np.asarray(counts)
    if c.ndim == 0 or c.shape[-1] == 0 or not np.issubdtype(c.dtype, np.integer):
        raise ValueError("gren_counts requires a non-empty sequence of integer counts")
    length = c.shape[-1]
    n = as_int(n, "n")
    if n < 1 or n * length >= 1 << 63:  # the cross products must fit in int64
        raise ValueError(f"gren_counts requires 1 <= n and n * L < 2^63, got n = {n} and L = {length}")
    if c.size and (c.min() < 0 or c.max() > n):  # so no running sum of a row wraps past int64
        raise ValueError(f"gren_counts requires counts in [0, n], got n = {n}")
    rows = c.reshape(-1, length).astype(np.int64, copy=False)
    keep = np.ones((rows.shape[0], length + 1), dtype=bool)  # vertices x = -1..L-1
    keep[:, 1:-1] = rows[:, :-1] > rows[:, 1:]
    s = np.zeros(keep.shape, dtype=np.int64)
    np.cumsum(rows, axis=1, out=s[:, 1:])
    if np.any(s[:, -1] != n):
        raise ValueError(f"gren_counts requires every row of counts to sum to n = {n}")
    kept = np.flatnonzero(keep)
    x, s = kept % (length + 1) - 1, s.ravel()[kept]
    for passes in range(_HULL_PASSES + 1):
        dx, ds = np.diff(x), np.diff(s)  # dx < 0 from one row's end to the next row's start
        keep = np.ones(x.size, dtype=bool)
        np.logical_not((dx[:-1] > 0) & (dx[1:] > 0) & (ds[:-1] * dx[1:] <= ds[1:] * dx[:-1]), out=keep[1:-1])
        done = keep.all()
        if done or passes == _HULL_PASSES:
            break
        x, s = x[keep], s[keep]
    if not done:
        bounds = np.append(np.flatnonzero(x == -1), x.size)  # row i's vertices: bounds[i]:bounds[i+1]
        owners = np.searchsorted(bounds, np.flatnonzero(~keep), side="right") - 1  # sorted, so distinct by diff
        for row in owners[np.diff(owners, prepend=-1) != 0]:
            lo, hi = bounds[row], bounds[row + 1]
            keep[lo:hi] = False
            keep[lo + np.array(_hull_row(x[lo:hi].tolist(), s[lo:hi].tolist()))] = True
        x, s = x[keep], s[keep]
        dx, ds = np.diff(x), np.diff(s)
    inner = dx > 0  # consecutive vertices of one row bound a block
    widths = dx[inner]
    fit = np.repeat(ds[inner] / (n * widths).astype(float), widths)
    blocks = np.diff(np.append(np.flatnonzero(x == -1), x.size)) - 1
    return fit.reshape(c.shape), blocks.reshape(c.shape[:-1])


def constancy_blocks(p: Pmf) -> list[tuple[int, int]]:
    """Maximal index intervals [r, s] on which p is constant.

    Blocks are contiguous, ordered, and cover {0, ..., K}; across a block
    boundary the pmf strictly decreases.  Entries are compared exactly, so
    no block depends on the scale of the probabilities; the package
    constructors give exactly equal entries within each flat stretch.
    """
    if not p.monotone:
        raise ValueError("constancy blocks are defined for monotone pmfs")
    starts, widths = p._runs
    return list(zip(starts.tolist(), (starts + widths - 1).tolist()))


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

    weights[x] = (x+1) * (p[x] - p[x+1]) with p[K+1] = 0, +0.0 on a flat
    stretch.  The weights telescope to sum(p) = 1; they are non-negative
    exactly when p is non-increasing, so the raw empirical plug-in may go
    negative.  A stack of sequences (shape (..., K+1)) gives a stack of
    weights, row by row; a row that does not sum to one is a ValueError.
    """
    probs = p.probs if isinstance(p, Pmf) else np.asarray(p, dtype=float)
    if probs.ndim == 0 or probs.shape[-1] == 0:
        raise ValueError("expected a non-empty sequence")
    shifted = np.concatenate((probs[..., 1:], np.zeros(probs.shape[:-1] + (1,))), axis=-1)  # p[x+1], p[K+1] = 0
    weights = (np.arange(probs.shape[-1]) + 1.0) * (probs - shifted)
    totals = np.ravel(weights.sum(axis=-1))
    bad = np.flatnonzero(np.abs(totals - 1.0) > SUM_TOL)
    if bad.size:
        raise ValueError(f"mixing weights must sum to 1, got {float(totals[bad[0]])!r}")
    return weights
