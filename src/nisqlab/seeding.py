"""Deterministic RNG derivation.

All randomness in the package flows from a single master seed. Independent
streams are derived with numpy's SeedSequence spawning convention: a stream
for purpose `(seed, *key)` is `default_rng([seed, *key])`.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import UsageError

ENV_SEED_VAR = "NISQLAB_SEED"
DEFAULT_SEED = 7


def resolve_seed(seed: int | None) -> int:
    """Pick the effective master seed.

    Priority: explicit argument, then the NISQLAB_SEED environment
    variable, then the package default.
    """
    if seed is None:
        env = os.environ.get(ENV_SEED_VAR)
        try:
            seed = DEFAULT_SEED if env is None else int(env)
        except ValueError:
            raise UsageError(f"{ENV_SEED_VAR} must be an integer, got {env!r}") from None
    if int(seed) < 0:
        raise UsageError(f"seed must be nonnegative, got {seed}")
    return int(seed)


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, *key)."""
    return np.random.default_rng([int(seed), *map(int, key)])

