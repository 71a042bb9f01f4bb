"""Deterministic random number generation.

All randomness in the package flows through a counter-based Philox
generator keyed by an explicit 64-bit seed, so every sampling routine is a
pure function of its inputs.  Batch drivers derive one seed per work item
with :func:`mix_seed`, which makes results independent of execution order.
"""

from __future__ import annotations

import numbers

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


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


def keyed_generators(seeds):
    """Yield, for each seed in turn, a generator whose stream equals
    make_generator(seed)'s.

    `seeds` is a uint64 array or a sequence of integers, all checked before
    the first generator is yielded.  One Philox is re-keyed in place through
    its state setter from one reused state of plain Python ints (key
    [seed, 0], counter 0, empty buffer, which the setter reads faster than
    numpy scalars) whose key word alone changes, several times cheaper than
    a new generator per seed.  Each yielded generator is the same object,
    valid until the next one is requested.
    """
    isarray = isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64
    seeds = seeds.tolist() if isarray else [check_seed(s) for s in seeds]
    key = [0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_gen = np.random.Philox(key=0)
    rng = np.random.Generator(bit_gen)
    for seed in seeds:
        key[0] = seed
        bit_gen.state = state
        yield rng


def mix_seed(seed: int, index):
    """Derive the seed for work item `index` from a base seed.

    SplitMix64 finalizer over seed + (index+1)*golden-gamma, mod 2^64, for
    a seed that passes `check_seed`; distinct (seed, index) pairs map to
    well-separated 64-bit keys.  An integer `index` gives an int; an
    integer array of indices gives the uint64 array of their seeds, element
    for element the same values.
    """
    seed = check_seed(seed)
    scalar = np.ndim(index) == 0
    z = np.array(as_int(index, "index") & _MASK64 if scalar else index, ndmin=1)
    if z.dtype.kind not in "iu":
        raise ValueError("mix_seed indices must be integers")
    z = z.astype(np.uint64)  # wraps negative indices mod 2^64
    z = (z + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return int(z[0]) if scalar else z.reshape(np.shape(index))
