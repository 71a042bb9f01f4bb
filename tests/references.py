"""Reference implementations the tests compare the package against.

Each is built by a route unrelated to the code it checks: the Grenander
slopes by explicit greedy chord construction (one sequence at a time and
vectorised over a stack), and the within-block Grenander limit law from an
independent Gaussian construction.
"""

import math

import numpy as np

from monopmf import gren
from monopmf.rng import make_generator


def gren_oracle(w) -> np.ndarray:
    """Reference LCM slopes by explicit greedy chord construction, O(K^2).

    From each anchor point the next hull vertex is the point of maximal
    chord slope (farthest on ties).  Kept deliberately independent of
    `gren` so the two can cross-check each other.
    """
    v = np.asarray(w, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("gren_oracle requires a non-empty 1-D sequence")
    k = v.size - 1
    s = np.concatenate(([0.0], np.cumsum(v)))  # s[j+1] = sum_{i<=j} w_i
    out = np.empty_like(v)
    a = -1
    while a < k:
        best_b = a + 1
        best_slope = -np.inf
        for b in range(a + 1, k + 1):
            slope = (s[b + 1] - s[a + 1]) / (b - a)
            if slope >= best_slope:
                best_slope = slope
                best_b = b
        out[a + 1 : best_b + 1] = best_slope
        a = best_b
    return out


def gren_oracle_stack(w) -> np.ndarray:
    """`gren_oracle` on each row of a (rows, L) stack, with the same bits.

    Every round takes, for each row not yet finished, the chord slopes
    (s[b+1] - s[a+1]) / (b - a) from its anchor a to every later point b,
    the largest of them and the farthest point attaining it, as the 1-D
    loop's `>=` scan does; at most L rounds.
    """
    v = np.asarray(w, dtype=float)
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError("gren_oracle_stack requires a (rows, L) stack with L > 0")
    rows, length = v.shape
    s = np.concatenate((np.zeros((rows, 1)), np.cumsum(v, axis=1)), axis=1)
    out = np.empty_like(v)
    cols = np.arange(length)
    anchor = np.full(rows, -1)
    live = np.arange(rows)
    while live.size:
        a = anchor[live]
        span = (cols - a[:, None]).astype(float)  # b - a
        ahead = span > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (s[live, 1:] - s[live, a + 1][:, None]) / span
        slope[~ahead] = -np.inf
        top = slope.max(axis=1)
        best_b = length - 1 - np.argmax((slope == top[:, None])[:, ::-1], axis=1)
        best = slope[np.arange(live.size), best_b]  # the bits of that chord (signed zeros)
        fill = ahead & (cols <= best_b[:, None])
        out[live] = np.where(fill, best[:, None], out[live])
        anchor[live] = best_b
        live = live[best_b < length - 1]
    return out


def flat_block_gren_reference(theta: float, tau: int, reps: int, seed: int) -> np.ndarray:
    """Reference draws of the within-block Grenander limit on a flat block.

    Realizes sqrt(theta/tau) * (sqrt(1 - theta*tau) * Z + tau * gren(B))
    where Z is standard normal and B is the centered vector of tau i.i.d.
    N(0, 1/tau) variables (covariance delta/tau - 1/tau^2), independent of
    Z.  Distributionally equal to the block coordinates produced by
    `draw_limit`, but built by an unrelated route; used as a cross-check.
    """
    tau = int(tau)
    if tau < 1:
        raise ValueError("tau must be a positive integer")
    if not 0.0 < theta * tau <= 1.0 + 1e-12:
        raise ValueError("theta * tau must lie in (0, 1]")
    rng = make_generator(seed)
    z = rng.standard_normal(int(reps))
    w = rng.standard_normal((int(reps), tau)) / math.sqrt(tau)
    centered = w - w.mean(axis=1, keepdims=True)
    pooled = gren(centered)
    slack = math.sqrt(max(1.0 - theta * tau, 0.0))
    return math.sqrt(theta / tau) * (slack * z[:, None] + tau * pooled)
