"""Random linear maps and orthonormal rows.

A linear map is a bare k x N row matrix.  `sample_e_batch` draws every
random map of the experiments: a stack of them from one seeded stream,
each row independent and uniform in the closed unit ball of R^N
(gaussian direction times a U^(1/N) radius, so the radius density is
N r^(N-1)).  It is a deterministic function of the seed.
`orthonormalize_rows` gives an orthonormal basis of rows; a caller
projects points onto its plane as points @ basis.T.
"""

from __future__ import annotations

import numpy as np


def orthonormalize_rows(rows):
    """Modified Gram-Schmidt with one re-orthogonalization pass."""
    q = np.array(np.atleast_2d(rows), dtype=float)
    k = q.shape[0]
    for _ in range(2):
        for i in range(k):
            for j in range(i):
                q[i] -= (q[i] @ q[j]) * q[j]
            nrm = np.linalg.norm(q[i])
            if nrm < 1e-13:
                raise ValueError("rows are numerically dependent")
            q[i] /= nrm
    return q


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
    rng = np.random.default_rng(seed)
    flat = ball_rows(count * k, ambient_dim, rng)
    return flat.reshape(count, k, ambient_dim)

