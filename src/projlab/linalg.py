"""Random linear maps.

A linear map is a bare k x N row matrix.  `sample_e_batch` draws every
random map of the experiments: a stack of them from one seeded stream,
each row independent and uniform in the closed unit ball of R^N
(gaussian direction times a U^(1/N) radius, so the radius density is
N r^(N-1)).  It is a deterministic function of the seed.

The stack is built in place: beyond the result, the sampler holds only
the temporaries of one block of ROW_BLOCK rows, so the largest stack
the experiments draw costs its own size and not a multiple of it.
"""

from __future__ import annotations

import numpy as np

ROW_BLOCK = 1 << 15  # rows normalized and scaled at a time in ball_rows


def ball_rows(n_rows, dim, rng):
    """n_rows independent uniform draws from the closed unit ball of R^dim.

    The gaussians are drawn in one call and the radii after them, so the
    stream is that of drawing each array whole.  Rows are normalized and
    scaled in place a block of ROW_BLOCK at a time: each row's norm is
    reduced within its own row and Generator.uniform draws one double per
    value, so every row is bit-equal to the one-shot
    g / |g| * U^(1/dim), and the temporaries stay within one block
    (the block's squares and two vectors of its length).
    """
    if dim < 1:
        raise ValueError("the ambient dimension must be at least 1")
    g = rng.standard_normal((n_rows, dim))
    for s in range(0, n_rows, ROW_BLOCK):
        block = g[s:s + ROW_BLOCK]
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        block *= (rng.uniform(0.0, 1.0, size=len(block))
                  ** (1.0 / dim))[:, None]
    return g


def sample_e_batch(ambient_dim, k, count, seed):
    """(count, k, ambient_dim) stack of maps whose rows are independent and
    uniform in the closed unit ball of R^ambient_dim.

    The stack is a view of ball_rows' array, so its peak memory is the
    stack's own size plus the temporaries of one block of ROW_BLOCK rows.
    """
    if count < 1:
        raise ValueError("need at least one map")
    if k < 1:
        raise ValueError("a map needs at least one row")
    rng = np.random.default_rng(seed)
    flat = ball_rows(count * k, ambient_dim, rng)
    return flat.reshape(count, k, ambient_dim)
