"""The random map sampler."""

import numpy as np
import pytest

from projlab.linalg import sample_e_batch


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
    with pytest.raises(ValueError, match="at least one map"):
        sample_e_batch(5, 3, 0, seed=11)
    with pytest.raises(ValueError, match="at least one row"):
        sample_e_batch(5, 0, 4, seed=11)
