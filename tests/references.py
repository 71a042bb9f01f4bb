"""Reference implementations the tests compare the package against.

Each is built by a route unrelated to the code it checks: the Grenander
slopes by explicit greedy chord construction (one sequence at a time and
vectorised over a stack, and in exact rational arithmetic for counts), and
the within-block Grenander limit law from an independent Gaussian
construction, the count rows of the replicate pipeline from numpy's
multinomial and integers called directly by the block rule of count
stream 3 and the stretch rule of count stream 4, and the limit draws from
one normal stack drawn in a single call (`limit_rows`).  It also writes the
counts and pmf files the CLI tests read (`format_counts`, `format_pmf`,
whose per-value text the CLI's array writer must reproduce) and names the
stream under which the golden digests of the tests were recorded (`RECORDED`).
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from monopmf import gren, limit_transform, mix_seed, rng
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


def gren_fraction(counts, n) -> tuple[np.ndarray, int]:
    """Exact Grenander of one row of counts: (fit, number of blocks).

    Greedy chord construction on the integer cumulative counts in
    `Fraction` arithmetic: from each anchor the next hull vertex is the
    point of maximal chord slope, the farthest one on ties, so collinear
    points share one block.  Each entry is float(T / (n*c)) of its block's
    total T and length c, the correctly rounded exact value.  O(K * blocks).
    """
    c = [int(v) for v in counts]
    if not c:
        raise ValueError("gren_fraction requires a non-empty row")
    s = [0]
    for v in c:
        s.append(s[-1] + v)  # s[j+1] = sum_{i<=j} counts_i
    k = len(c) - 1
    fit = np.empty(len(c))
    blocks = 0
    a = -1
    while a < k:
        best, best_b = None, a + 1
        for b in range(a + 1, k + 1):
            slope = Fraction(s[b + 1] - s[a + 1], b - a)
            if best is None or slope >= best:
                best, best_b = slope, b
        fit[a + 1 : best_b + 1] = float(best / n)
        blocks += 1
        a = best_b
    return fit, blocks


def gren_fraction_stack(counts, n) -> tuple[np.ndarray, np.ndarray]:
    """`gren_fraction` on each row of a (rows, L) count stack."""
    rows = [gren_fraction(row, n) for row in np.asarray(counts)]
    return np.array([fit for fit, _ in rows]).reshape(np.shape(counts)), np.array([b for _, b in rows])


def flat_block_gren_reference(theta: float, tau: int, reps: int, seed: int) -> np.ndarray:
    """Reference draws of the within-block Grenander limit on a flat block.

    Realizes sqrt(theta/tau) * (sqrt(1 - theta*tau) * Z + tau * gren(B))
    where Z is standard normal and B is the centered vector of tau i.i.d.
    N(0, 1/tau) variables (covariance delta/tau - 1/tau^2), independent of
    Z.  Distributionally equal to the block coordinates produced by
    `draw_limit_batch`, but built by an unrelated route; used as a cross-check.
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


def limit_rows(p, reps: int, seed: int):
    """(y, y_rear, y_gren) of `reps` limit draws at the monotone pmf p, from
    one standard_normal((reps, K+1)) call on the Philox keyed by `seed`:
    w = z * sqrt(p), y = w - p * sum(w) row by row, then `limit_transform`
    over the constancy blocks of p, all on the whole stack at once."""
    probs = p.probs
    w = np.random.Generator(np.random.Philox(key=seed)).standard_normal((reps, probs.size)) * np.sqrt(probs)
    y = w - probs * w.sum(axis=1, keepdims=True)
    return (y, *limit_transform(y, p))


#: The count stream, package version and numpy version under which the golden digests of
#: tests/test_pipeline.py were recorded; `_meta.json` records the first two, so a stream change
#: edits them here and replaces the digests.
RECORDED = {"count_stream": 4, "version": "0.5.0", "numpy": "2.4.6"}


def recorded_note() -> str:
    """A golden test's failure message: what the digests were recorded under."""
    return (
        f"digests recorded under count stream {RECORDED['count_stream']}, monopmf {RECORDED['version']}, "
        f"numpy {RECORDED['numpy']}; this run has numpy {np.__version__}"
    )


def block_rows(probs, n: int, seed: int, rows: int) -> np.ndarray:
    """One block of count stream 4 on the Philox keyed by `seed`, called here directly.

    On more than 8192 points, each run of w >= 512 equal probabilities p
    with n*p <= 16 is sparse: a row is numpy's multinomial over the points
    with each sparse run merged into one cell of mass w*p, then, run by
    run, the histogram of the run's total of uniform integers below w,
    drawn as uint32 in calls of at most max(16384, w).  Otherwise (count
    stream 3) the block is one multinomial call of `rows` samples.
    """
    generator = np.random.Generator(np.random.Philox(key=seed))
    probs = np.asarray(probs, dtype=float)
    cells, sparse = [], []  # merged masses; (cell, start, width) of each sparse run
    start = 0
    for value, run in itertools.groupby(probs.tolist()):
        width = len(list(run))
        if probs.size > 8192 and width >= 512 and n * value <= 16:
            sparse.append((len(cells), start, width))
            cells.append(width * value)
        else:
            cells.extend([value] * width)
        start += width
    if not sparse:
        return generator.multinomial(n, probs, size=rows)
    out = np.zeros((rows, probs.size), dtype=np.int64)
    dense = np.ones(len(cells), dtype=bool)
    dense[[cell for cell, _, _ in sparse]] = False
    tails = np.ones(probs.size, dtype=bool)
    for _, start, width in sparse:
        tails[start : start + width] = False
    for row in out:
        merged = generator.multinomial(n, cells)
        row[tails] = merged[dense]
        for cell, start, width in sparse:
            total = int(merged[cell])
            call = max(16384, width)
            sizes = [min(call, total - done) for done in range(0, total, call)]
            draws = [np.empty(0, np.uint32)] + [generator.integers(0, width, size, dtype=np.uint32) for size in sizes]
            row[start : start + width] = np.bincount(np.concatenate(draws), minlength=width)
    return out


def replicate_rows(truth, n: int, reps: int, seed: int) -> np.ndarray:
    """The (reps, K+1) count rows of replicates 0..reps-1 under count stream 4.

    Replicate i is row i % B of block b = i // B, where B is max(1,
    rng._CHUNK_ELEMENTS // (K+1)) read at call time, and block b is
    `block_rows` on the seed mix_seed(seed, b), cut at reps.
    """
    height = max(1, rng._CHUNK_ELEMENTS // truth.support_size)
    starts = range(0, reps, height)
    return np.concatenate(
        [block_rows(truth.probs, n, mix_seed(seed, b), min(height, reps - start)) for b, start in enumerate(starts)]
    )


def format_counts(counts) -> str:
    """The text of a counts file: one line "x<TAB>count" per support point."""
    return "".join(f"{x}\t{int(v)}\n" for x, v in enumerate(counts))


def format_pmf(p) -> str:
    """The text of a pmf or weights file: one line "x<TAB>value" per support point, each value's %.17g text,
    of a Pmf or of any sequence."""
    values = getattr(p, "probs", p)
    return "".join(f"{x}\t{v:.17g}\n" for x, v in enumerate(values))
