"""Random linear maps.

A linear map is a bare k x N row matrix.  `sample_e_batch` draws every
random map of the experiments: a stack of them from one seeded stream,
each row independent and uniform in the closed unit ball of R^N
(gaussian direction times a U^(1/N) radius, so the radius density is
N r^(N-1)).  It is a deterministic function of the seed.
"""

from __future__ import annotations

import numpy as np


def ball_rows(n_rows, dim, rng):
    """n_rows independent uniform draws from the closed unit ball of R^dim."""
    g = rng.standard_normal((n_rows, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rng.uniform(0.0, 1.0, size=n_rows) ** (1.0 / dim)
    return g * r[:, None]


def sample_e_batch(ambient_dim, k, count, seed):
    """(count, k, ambient_dim) stack of maps whose rows are independent and
    uniform in the closed unit ball of R^ambient_dim."""
    if count < 1:
        raise ValueError("need at least one map")
    if k < 1:
        raise ValueError("a map needs at least one row")
    rng = np.random.default_rng(seed)
    flat = ball_rows(count * k, ambient_dim, rng)
    return flat.reshape(count, k, ambient_dim)

