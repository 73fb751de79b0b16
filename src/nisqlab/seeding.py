"""Deterministic RNG derivation.

All randomness in the package flows from a single master seed. Independent
streams are derived with numpy's SeedSequence spawning convention: a stream
for purpose `(seed, *key)` is `default_rng([seed, *key])`.
"""

from __future__ import annotations

import os

import numpy as np

ENV_SEED_VAR = "NISQLAB_SEED"
DEFAULT_SEED = 7


def resolve_seed(seed: int | None) -> int:
    """Pick the effective master seed.

    Priority: explicit argument, then the NISQLAB_SEED environment
    variable, then the package default.
    """
    if seed is not None:
        return int(seed)
    env = os.environ.get(ENV_SEED_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(
                f"{ENV_SEED_VAR} must be an integer, got {env!r}"
            ) from exc
    return DEFAULT_SEED


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, *key)."""
    return np.random.default_rng([int(seed), *map(int, key)])

