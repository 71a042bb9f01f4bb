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
from .rng import _replicates, as_int, make_generator


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


def _limit_rows(p: Pmf, reps: int, seed: int, stat):
    """`stat` of the rows of `reps` draws of Y = W - p*sum(W), W = Z*sqrt(p), Z standard normal.

    Y is built on the replicate map from the rows of one normal stack, drawn
    block by block in order from the Philox keyed by `seed` (so with the bits
    of one call), and `stat` runs on each block's rows.
    """
    probs, root = p.probs, np.sqrt(p.probs)
    normals = make_generator(seed).standard_normal
    return _replicates(probs.size, reps, lambda b, rows: normals((rows, probs.size)) * root,
                       lambda w: stat(w - probs * w.sum(axis=1, keepdims=True)))


def draw_limit_batch(p: Pmf, reps: int, seed: int):
    """Vectorized draws: three (reps, K+1) arrays (y, y_rear, y_gren).

    Y comes from `_limit_rows`; the transforms then run once on all of Y.
    """
    if not p.monotone:
        raise ValueError("limit draws require a monotone truth")
    y = _limit_rows(p, reps, seed, lambda y: y)
    return (y, *limit_transform(y, p))


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
    statistic of the rows of `_limit_rows`, those of `draw_limit_batch`; a
    one-point bridge has no interior point, so at y = 0 every replicate
    hits.  The exact value is 1/(y+1): the increments of Y on the flat
    block are exchangeable, continuous and sum to zero, so by the cycle
    lemma exactly one of their y+1 cyclic shifts keeps every partial sum at
    or below zero.
    """
    hit = _limit_rows(uniform_pmf(y), reps, seed, lambda rows: np.all(np.cumsum(rows[:, :-1], axis=1) <= 0.0, axis=1))
    return int(np.count_nonzero(hit)) / hit.size
