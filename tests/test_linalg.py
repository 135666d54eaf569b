"""The random map sampler."""

import tracemalloc

import numpy as np
import pytest

from oracles import ball_rows_oracle
from projlab.linalg import ROW_BLOCK, ball_rows, sample_e_batch


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
    for dim in (0, -1):  # refused before 1 / dim or an empty row is formed
        with pytest.raises(ValueError, match="ambient dimension"):
            ball_rows(4, dim, np.random.default_rng(11))


@pytest.mark.parametrize("dim", [1, 3, 10])
@pytest.mark.parametrize("n_rows", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                    3 * ROW_BLOCK + 5])
def test_ball_rows_match_the_one_shot_draw(n_rows, dim):
    got = ball_rows(n_rows, dim, np.random.default_rng(n_rows + dim))
    want = ball_rows_oracle(n_rows, dim, np.random.default_rng(n_rows + dim))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim, k, count", [(3, 2, 200_000), (10, 4, 50_000)])
def test_sampler_peak_is_its_stack_plus_two_blocks(dim, k, count):
    # a block's temporaries are its squares and two vectors of its length,
    # (dim + 2) / dim blocks; the warm-up keeps one-time imports out
    sample_e_batch(dim, k, 1, seed=0)
    tracemalloc.start()
    try:
        stack = sample_e_batch(dim, k, count, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= stack.nbytes + 2 * ROW_BLOCK * dim * 8
