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


def derive_rng(seed: int, *labels: str | int) -> np.random.Generator:
    """Child generator keyed by (seed, labels), independent per label path.

    Labels are hashed through sha256 so stream identity depends only on
    the label values, never on call order.
    """
    words: list[int] = [int(seed) & 0xFFFFFFFF]
    for label in labels:
        digest = hashlib.sha256(str(label).encode("utf-8")).digest()
        words.append(int.from_bytes(digest[:4], "little"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
