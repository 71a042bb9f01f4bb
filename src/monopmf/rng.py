"""Deterministic random number generation.

All randomness in the package flows through a counter-based Philox
generator keyed by an explicit 64-bit seed, so every sampling routine is a
pure function of its inputs.  Batch drivers derive one seed per block of
work items with :func:`mix_seed`, which makes results independent of
execution order.  The block rule (`_block_height`, part of the stream) and
the replicate map of every Monte Carlo driver (`_replicate_blocks`, its
blocks stacked by `_replicates`) live here too.
"""

from __future__ import annotations

import numbers

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Values per block of the replicate map (`_replicate_blocks`): a block holds `_block_height(K+1)` rows
#: whatever n is, tall enough for short rows to spread the per-call cost of the sampler and the kernels,
#: while its estimator arrays stay a few times this size.  Also the least values per `integers` call of
#: count stream 4 (`pmf.sample_counts`) and the values per slice of `operators.pava`'s column sweep.
#: The block height and the call size are part of the stream, so changing this value changes the samples.
_CHUNK_ELEMENTS = 1 << 14


def as_int(value, name: str) -> int:
    """`value` as an int; a bool, a string or a non-integral number is a ValueError."""
    integral = isinstance(value, (int, np.integer)) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(value, name: str) -> float:
    """`value` as a float; a bool, a string or any other non-number is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_seed(seed: int) -> int:
    """`seed` as an int in [0, 2^64); anything else is a ValueError."""
    if not 0 <= as_int(seed, "seed") <= _MASK64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return int(seed)


def make_generator(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit unsigned seed."""
    return np.random.Generator(np.random.Philox(key=check_seed(seed)))


def mix_seed(seed: int, index: int) -> int:
    """Derive the seed for work item `index` from a base seed.

    SplitMix64 finalizer over seed + (index+1)*golden-gamma, mod 2^64, for
    a seed that passes `check_seed` and an integer `index` (a negative one
    wraps mod 2^64); distinct (seed, index) pairs map to well-separated
    64-bit keys.
    """
    z = (check_seed(seed) + (as_int(index, "index") + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _block_height(width: int) -> int:
    """Rows per block of the replicate map for rows of `width` values."""
    return max(1, _CHUNK_ELEMENTS // width)


def _replicate_blocks(width: int, reps: int, draw):
    """An iterator of `draw(b, rows)` for every block b of the replicate map, in order.

    Replicate i is row i % B of block b = i // B, B = `_block_height(width)`,
    the last block's rows cut at reps.  reps is checked at the call, before
    any draw.
    """
    reps = as_int(reps, "reps")
    if reps < 1:
        raise ValueError("reps must be positive")
    height = _block_height(width)
    return (draw(b, min(height, reps - start)) for b, start in enumerate(range(0, reps, height)))


def _replicates(blocks, reps: int) -> np.ndarray:
    """The arrays of the iterator `blocks`, one leading entry per replicate, stacked in order into one
    of `reps` entries, which takes the first block's dtype."""
    out = None
    start = 0
    for block in blocks:
        if out is None:
            out = np.empty((as_int(reps, "reps"),) + block.shape[1:], block.dtype)
        out[start : start + len(block)] = block
        start += len(block)
    return out
