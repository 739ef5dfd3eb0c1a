"""Deterministic random streams.

Everything stochastic in the package draws from numpy Generators built
here. A fixed seed yields a bit-identical stream across runs and
platforms (PCG64 is fully specified), and child streams derived with
string labels are stable too, so independent pipeline stages can share
one top-level seed without coupling their draws.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import ContractViolationError

SEED_MAX = 2**32 - 1  # a seed is one 32-bit word of the seed sequence


def derive_rng(seed: int, *labels: str | int) -> np.random.Generator:
    """Child generator keyed by (seed, labels), independent per label path.

    seed must lie in 0..SEED_MAX, so no two seeds share a stream. Labels
    are hashed through sha256 so stream identity depends only on the
    label values, never on call order.
    """
    if not 0 <= seed <= SEED_MAX:
        raise ContractViolationError(f"seed {seed} outside 0..{SEED_MAX}")
    words: list[int] = [int(seed)]
    for label in labels:
        digest = hashlib.sha256(str(label).encode("utf-8")).digest()
        words.append(int.from_bytes(digest[:4], "little"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
