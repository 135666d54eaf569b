"""Random linear maps, planes and projections.

A linear map is a bare k x N row matrix.  `sample_e_batch` draws every
random map of the experiments: a stack of them from one seeded stream,
each row independent and uniform in the closed unit ball of R^N
(gaussian direction times a U^(1/N) radius, so the radius density is
N r^(N-1)).  `sample_grassmannian` orthonormalizes gaussian rows to get a
uniformly distributed k-plane.  Both are deterministic functions of the
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRAM_TOL = 1e-10


@dataclass
class Plane:
    """k-dimensional linear subspace of R^N given by an orthonormal basis."""

    basis: np.ndarray

    def __post_init__(self):
        self.basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        gram = self.basis @ self.basis.T
        if np.abs(gram - np.eye(self.basis.shape[0])).max() > GRAM_TOL:
            raise ValueError("basis rows are not orthonormal within %g" % GRAM_TOL)

    @property
    def k(self):
        return self.basis.shape[0]

    @property
    def ambient_dim(self):
        return self.basis.shape[1]


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


def sample_grassmannian(ambient_dim, k, seed):
    """Uniformly random k-plane in R^ambient_dim."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((k, ambient_dim))
    return Plane(orthonormalize_rows(g))


def project(plane, x):
    """Coordinates of x on the plane's basis; batch rows accepted."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return plane.basis @ x
    return x @ plane.basis.T
