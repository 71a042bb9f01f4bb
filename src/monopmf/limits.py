"""Gaussian limit fluctuations of the three estimators and their closed forms.

The root-n fluctuation of the empirical pmf converges to a centered
Gaussian vector Y with covariance p_x d_{xx'} - p_x p_{x'}, realized here
as Y_x = W_x - p_x * sum(W) from independent W_x ~ N(0, p_x).  The
fluctuations of the rearrangement and Grenander estimators are obtained by
applying the corresponding operator to Y within each constancy block of
the truth.  Under a uniform truth the partial sums of Y form a discrete
Brownian bridge, whose least-concave-majorant geometry drives the
touchpoint and zero-majorant statistics below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import constancy_blocks, limit_transform, pava
from .pmf import Pmf, uniform_pmf
from .rng import _replicate_blocks, _replicates, as_int, make_generator


@dataclass(frozen=True)
class AsymptoticReport:
    """Closed-form limit moments of the fluctuation processes at a truth p.

    e_sq_l2_*  : expected squared l2 norm of the fluctuation vector;
    e_hell_*   : expected weighted sum of squares sum_x Y_x^2 / p_x (the
                 empirical value is kappa, the largest support index);
    e_l1_emp   : expected l1 norm of the empirical fluctuation.
    The Grenander values are no larger, with equality exactly when p is
    strictly decreasing.
    """

    e_sq_l2_emp: float
    e_sq_l2_gren: float
    e_hell_emp: float
    e_hell_gren: float
    e_l1_emp: float


def _limit_blocks(p: Pmf, reps: int, seed: int):
    """An iterator of the rows of `reps` draws of Y = W - p*sum(W), W = Z*sqrt(p), Z standard normal,
    one block of the replicate map at a time.

    Each block's normals are the next rows of one Philox keyed by `seed`, so
    every value has the bits of one (reps, K+1) stack drawn in one call.
    """
    probs, root = p.probs, np.sqrt(p.probs)
    normals = make_generator(seed).standard_normal
    blocks = _replicate_blocks(probs.size, reps, lambda b, rows: normals((rows, probs.size)) * root)
    return (w - probs * w.sum(axis=1, keepdims=True) for w in blocks)


def _draw_limit_blocks(p: Pmf, reps: int, seed: int):
    """An iterator of (y, y_rear, y_gren) for each block of `_limit_blocks`: its rows of Y and their
    `limit_transform`, which fits each row alone, so no value depends on the block height."""
    if not p.monotone:
        raise ValueError("limit draws require a monotone truth")
    return ((y, *limit_transform(y, p)) for y in _limit_blocks(p, reps, seed))


def draw_limit_batch(p: Pmf, reps: int, seed: int):
    """Vectorized draws: three (reps, K+1) arrays (y, y_rear, y_gren), the slices of one (reps, 3, K+1)
    stack that the blocks of `_draw_limit_blocks` fill in turn, so besides it a call holds one block."""
    out = _replicates((np.stack(block, axis=1) for block in _draw_limit_blocks(p, reps, seed)), reps)
    return out[:, 0], out[:, 1], out[:, 2]


#: numpy's PW_BLOCKSIZE: the most values of a leaf of its pairwise sum.
_PAIRWISE_LEAF = 128


def _pairwise_ops(n: int):
    """numpy's pairwise summation tree of n values, in post-order: a leaf as (start, length), the
    addition of the last two sums (left + right) as None.  A range longer than _PAIRWISE_LEAF splits
    after its first n // 2 values, rounded down to a multiple of 8."""
    todo = [(0, n)]
    while todo:
        item = todo.pop()
        if item is None or item[1] <= _PAIRWISE_LEAF:
            yield item
        else:
            start, length = item
            half = length // 2 - length // 2 % 8
            todo += [None, (start + half, length - half), (start, half)]


def _feed_leaf(acc, res, x, i: int, n: int):
    """Add x (k, W), the values at positions i..i+k-1 of a pairwise leaf of length n, to its state, as
    numpy's leaf loop does; return the new `res`.

    A leaf of n >= 8 values sums them into eight accumulators, acc (8, W): acc[j] starts at value j and
    takes values j + 8, j + 16, ... below m = n - n % 8.  At m the accumulators are added as
    ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)) into res (W,), which then takes the last n % 8 values one
    at a time.  A leaf of n < 8 values adds them one at a time from -0.0.  res is None before m.
    """
    m = n - n % 8 if n >= 8 else 0
    p, end = i, i + len(x)
    while p < min(end, m):  # an eighth of the leaf, or what x holds of it, per step
        q = min(end, m, p // 8 * 8 + 8)
        part = acc[p % 8 : p % 8 + q - p]
        if p < 8:
            part[...] = x[p - i : q - i]
        else:
            part += x[p - i : q - i]
        p = q
    if res is None and end >= m:
        a = acc
        res = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7])) if m else np.full(x.shape[1:], -0.0)
    for q in range(max(p, m), end):
        res += x[q - i]
    return res


class _PairwiseSum:
    """np.add.reduce(a, axis=0) of an (n, W) float64 array `a` fed in blocks of rows, in order: each
    column has the bits numpy gives it as a contiguous row (so the bits of np.mean's sum).

    numpy 2.4.6 adds a contiguous row of n values as 0.0 + its pairwise sum (`_pairwise_ops`, leaves
    summed as `_feed_leaf` says); a test compares this with numpy at many lengths, so a numpy whose
    tree differs fails it.  Each leaf is fed the rows of a block that it holds as the block arrives; a
    leaf that runs past the block stays open for the next.  Finished sums wait on a stack until their
    sibling is done, so memory is O(8 W + W log n), not O(n W).
    """

    def __init__(self, n: int):
        self._ops = _pairwise_ops(n)
        self._stack = []
        self._rows = 0  # rows fed so far
        self._leaf = None  # (start, length, acc, res) of the open leaf, begun and not finished

    def add(self, block) -> None:
        start, stop = self._rows, self._rows + len(block)
        self._rows = stop
        while self._leaf is not None or self._open_next(block.shape[1]):
            begin, n, acc, res = self._leaf
            res = _feed_leaf(acc, res, block[max(begin - start, 0) : begin + n - start], max(start - begin, 0), n)
            if begin + n > stop:
                self._leaf = begin, n, acc, res
                return
            self._leaf = None
            self._stack.append(res)

    def _open_next(self, width: int) -> bool:
        """Add the sums the tree adds before its next leaf, and open that leaf; False if none is left."""
        for op in self._ops:
            if op is not None:
                self._leaf = (*op, np.empty((8, width)), None)
                return True
            right = self._stack.pop()
            self._stack[-1] = self._stack[-1] + right
        return False

    def total(self) -> np.ndarray:
        """The sums, once all n rows are fed."""
        (root,) = self._stack
        return 0.0 + root


def harmonic(k: int) -> float:
    """H_k = sum_{i=1}^{k} 1/i for an integer k >= 0 (H_0 = 0).

    Also the expected number of contacts (`touch_count`, endpoint
    included) between a walk of k i.i.d. continuous increments and its
    least concave majorant (Sparre Andersen); the interior contacts alone
    have mean H_k - 1.
    """
    k = as_int(k, "k")
    if k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k}")
    return float(sum(1.0 / i for i in range(1, k + 1)))


def asymptotics(p: Pmf) -> AsymptoticReport:
    """Closed-form limit moments from the constancy-block decomposition.

    Over a block of size c at level theta the Grenander fluctuation
    contributes sum_{j=1}^{c} theta*(1/j - theta) to the squared l2 norm
    and sum_{j=1}^{c} (1/j - theta) to the weighted sum of squares, less
    than the empirical one by theta*(c - H_c) and c - H_c.  The Grenander
    values are the empirical ones less these gaps, which are exactly zero
    on singleton blocks, so a strictly decreasing truth gives equal values.
    """
    if not p.monotone:
        raise ValueError("asymptotics require a monotone truth")
    probs = p.probs
    e_sq_l2_emp = float(np.sum(probs * (1.0 - probs)))
    e_l1_emp = float(math.sqrt(2.0 / math.pi) * np.sum(np.sqrt(probs * (1.0 - probs))))
    l2_gap = 0.0
    hell_gap = 0.0
    for r, s in constancy_blocks(p):
        size = s - r + 1
        gap = size - harmonic(size)
        l2_gap += float(probs[r]) * gap
        hell_gap += gap
    return AsymptoticReport(
        e_sq_l2_emp=e_sq_l2_emp,
        e_sq_l2_gren=e_sq_l2_emp - l2_gap,
        e_hell_emp=float(p.support_max),
        e_hell_gren=p.support_max - hell_gap,
        e_l1_emp=e_l1_emp,
    )


def touch_count(z):
    """Number of contacts between the cumulative sums of z and their LCM.

    The walk starts at (0, 0); contacts are counted over j = 1..k (the
    endpoint always touches).  Hull segments come from the same pooling
    routine as `gren`.  Equal slopes are never pooled, so every segment
    ends at a contact and no interior point of a segment touches: the
    count is the number of segments, with no tolerance.  Scaling z by a
    power of two (short of overflow and underflow) changes no float
    operation, so it keeps the count; another scale can round two exactly
    equal block slopes apart or together and so change it, which happens
    only on ties (not on draws of a continuous law).  A 1-D z gives an int;
    a stack of walks (shape (..., k)) gives an int64 array of counts, row
    by row.
    """
    v = np.asarray(z, dtype=float)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("touch_count requires a non-empty sequence")
    return pava(v)[1]


def gren_zero_probability(y: int, reps: int, seed: int) -> float:
    """Monte Carlo estimate of P(gren(Y) == 0) under uniform truth on {0..y}.

    The event is that the discrete Brownian bridge (the cumulative sums of
    Y) stays at or below zero at its interior points (its endpoint is 0),
    in which case its least concave majorant is the zero line.  It is a
    statistic of the rows of `_limit_blocks`, those of `draw_limit_batch`; a
    one-point bridge has no interior point, so at y = 0 every replicate
    hits.  The exact value is 1/(y+1): the increments of Y on the flat
    block are exchangeable, continuous and sum to zero, so by the cycle
    lemma exactly one of their y+1 cyclic shifts keeps every partial sum at
    or below zero.
    """
    blocks = _limit_blocks(uniform_pmf(y), reps, seed)
    hits = sum(int(np.count_nonzero(np.all(np.cumsum(rows[:, :-1], axis=1) <= 0.0, axis=1))) for rows in blocks)
    return hits / as_int(reps, "reps")
