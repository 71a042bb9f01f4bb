"""Deterministic random number generation.

All randomness in the package flows through a counter-based Philox
generator keyed by an explicit 64-bit seed, so every sampling routine is a
pure function of its inputs.  Batch drivers derive one seed per work item
with :func:`mix_seed`, which makes results independent of execution order.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def check_seed(seed: int) -> int:
    if not 0 <= int(seed) <= _MASK64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return int(seed)


def make_generator(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit unsigned seed."""
    return np.random.Generator(np.random.Philox(key=check_seed(seed)))


def keyed_generators(seeds):
    """Yield, for each seed in turn, a generator whose stream equals
    make_generator(seed)'s.

    One Philox is re-keyed in place through its state setter (key
    [seed, 0], counter 0, empty buffer), which is several times cheaper
    than building a new generator per seed.  Each yielded generator is
    the same object, valid until the next one is requested.
    """
    bit_gen = np.random.Philox(key=0)
    rng = np.random.Generator(bit_gen)
    for seed in seeds:
        bit_gen.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, np.uint64), "key": np.array([check_seed(seed), 0], np.uint64)},
            "buffer": np.zeros(4, np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def mix_seed(seed: int, index: int) -> int:
    """Derive the seed for work item `index` from a base seed.

    SplitMix64 finalizer over seed + (index+1)*golden-gamma; distinct
    (seed, index) pairs map to well-separated 64-bit keys.
    """
    z = (int(seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64
