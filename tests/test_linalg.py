"""Random map samplers, planes and projections."""

import numpy as np
import pytest

from projlab.linalg import Plane, orthonormalize_rows, project, sample_e_batch


def test_row_radius_distribution():
    # uniform in the ball of R^3: mean radius is 3/4
    rows = sample_e_batch(3, 1, 10_000, seed=0).reshape(-1, 3)
    radii = np.linalg.norm(rows, axis=1)
    assert abs(radii.mean() - 0.75) < 0.01
    assert radii.max() <= 1.0


def test_first_coordinate_second_moment():
    # E <b, e1>^2 = E r^2 * E u1^2 = (N/(N+2)) * (1/N) = 1/(N+2), so 1/5 at N=3
    rows = sample_e_batch(3, 1, 20_000, seed=4).reshape(-1, 3)
    assert abs((rows[:, 0] ** 2).mean() - 0.2) < 0.01


def test_operator_norm_bound():
    # unit-ball rows give |Lx| <= sqrt(N) |x|, and sqrt(4) = 2
    rng = np.random.default_rng(5)
    for seed in range(20):
        rows = sample_e_batch(4, 2, 1, seed=seed)[0]
        x = rng.standard_normal(4)
        assert np.linalg.norm(rows @ x) <= 2.0 * np.linalg.norm(x) + 1e-12


def test_sampler_determinism():
    batch = sample_e_batch(5, 3, 4, seed=11)
    assert batch.shape == (4, 3, 5)
    assert np.array_equal(batch, sample_e_batch(5, 3, 4, seed=11))
    assert not np.array_equal(batch, sample_e_batch(5, 3, 4, seed=12))
    assert np.all(np.linalg.norm(batch, axis=2) <= 1.0)
    with pytest.raises(ValueError):
        sample_e_batch(5, 3, 0, seed=11)


def test_plane_requires_orthonormal_rows():
    with pytest.raises(ValueError):
        Plane([[1.0, 1.0], [0.0, 1.0]])
    p = Plane([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert p.k == 2 and p.ambient_dim == 3


def test_project_batch():
    pl = Plane(orthonormalize_rows(
        np.random.default_rng(1).standard_normal((2, 4))))
    xs = np.random.default_rng(2).standard_normal((5, 4))
    coords = project(pl, xs)
    assert coords.shape == (5, 2)
    assert np.allclose(coords[3], project(pl, xs[3]))


def test_orthonormalize_rejects_dependent_rows():
    with pytest.raises(ValueError):
        orthonormalize_rows([[1.0, 0.0], [2.0, 0.0]])
