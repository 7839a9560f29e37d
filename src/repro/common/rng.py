"""Deterministic randomness helpers.

All stochastic pieces of the library (database generation, workloads and
seeded DPF key roots) draw from ``numpy.random.Generator`` instances created
here so experiments are reproducible run-to-run.  Client secrets are the
exception: an unseeded :class:`~repro.dpf.dpf.DPF` takes its key roots from
``os.urandom`` — roots drawn from the fixed default below would let one
server regenerate the other's key and recover the queried index.
"""

from __future__ import annotations

import numpy as np

_DEFAULT_SEED = 0x1337_5EED


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return a new :class:`numpy.random.Generator`.

    ``seed=None`` still yields a deterministic generator (a fixed library
    default) because reproducibility matters more than entropy for this
    simulation-oriented code base.  Pass an explicit seed to derive independent
    streams.
    """
    if seed is None:
        seed = _DEFAULT_SEED
    return np.random.default_rng(seed)


def random_bytes(num_bytes: int, rng: np.random.Generator | None = None) -> bytes:
    """Return ``num_bytes`` uniformly random bytes from ``rng``."""
    if num_bytes < 0:
        raise ValueError("num_bytes must be non-negative")
    generator = rng if rng is not None else make_rng()
    return generator.integers(0, 256, size=num_bytes, dtype=np.uint8).tobytes()


def random_bit_vector(length: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Return a uint8 vector of ``length`` independent uniform bits."""
    if length < 0:
        raise ValueError("length must be non-negative")
    generator = rng if rng is not None else make_rng()
    return generator.integers(0, 2, size=length, dtype=np.uint8)


def derive_seed(base_seed: int, *labels: int) -> int:
    """Derive a child seed from ``base_seed`` and integer labels.

    Uses a splitmix64-style mix so that streams labelled by (server id,
    query id, ...) are statistically independent while remaining deterministic.
    """
    state = np.uint64(base_seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        for label in labels:
            state = np.uint64((int(state) + (label & 0xFFFFFFFFFFFFFFFF) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
            z = int(state)
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
            z = z ^ (z >> 31)
            state = np.uint64(z)
    return int(state)
