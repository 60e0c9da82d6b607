"""Deterministic named random substreams.

Every source of randomness in the package is derived from a single integer
seed plus a descriptive key, so simulations, replicate studies and forecasts are
reproducible and independent of execution order or worker count.
"""

from __future__ import annotations

import zlib

import numpy as np


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    return zlib.crc32(str(key).encode("utf-8"))


def substream(seed: int, *key) -> np.random.Generator:
    """Generator for the substream named by ``key`` under the master ``seed``.

    The same (seed, key) pair always yields the same stream; distinct keys
    yield independent streams.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_key_to_int(k) for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))
