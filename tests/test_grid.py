"""The neighbour grid: the block rule that the covers', decoding's and
log-lip's walks share, and the ranges that decoding and log-lip meet."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from projlab.grid import COVER_PAIRS, block_end, grid_ranges, ranges


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=40),
       st.integers(0, 39), st.integers(1, 120))
def test_block_end_takes_the_longest_block_within_the_budget(costs, s,
                                                              pairs):
    # the block [s, t) adds up to at most pairs, unless it is entry s
    # alone, and one more entry, if there is one, would pass the budget
    s = min(s, len(costs) - 1)
    stop = np.cumsum(costs)
    t = block_end(stop, s, pairs)
    assert s < t <= len(costs)
    assert t == s + 1 or sum(costs[s:t]) <= pairs
    assert t == len(costs) or sum(costs[s:t + 1]) > pairs


def test_block_end_defaults_to_the_cover_budget():
    stop = np.cumsum(np.ones(3 * COVER_PAIRS, np.int64))
    assert block_end(stop, 5) == 5 + COVER_PAIRS


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3),
       n=st.integers(1, 40), d=st.integers(1, 3),
       layout=st.sampled_from(["uniform", "lattice", "coincident"]))
def test_grid_ranges_meet_every_near_pair_once(seed, m, n, d, layout):
    # every pair of a map whose lead differences, each taken with rounding,
    # are at most the map's reach is met, and no pair twice; on a lattice
    # of step reach many differences round to either side of it
    rng = np.random.default_rng(seed)
    reach = rng.uniform(0.1, 1.0, m) * 2.0 ** rng.integers(-4, 4, m)
    if layout == "lattice":
        lead = [rng.uniform(-10, 10, (m, 1))
                + reach[:, None] * rng.integers(-3, 4, (m, n))
                for _ in range(d)]
    else:
        lead = list(rng.uniform(-2, 2, (d, m, n)) * reach.max())
        if layout == "coincident":
            for x in lead:
                x[rng.random((m, n)) < 0.5] = x[0, 0]
    order, first, begin, count = grid_ranges(lead, reach)
    a = order[np.repeat(first, count)]
    b = order[ranges(begin, count)]
    assert np.all(a // n == b // n) and np.all(a != b)  # within one map
    met = set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
    assert len(met) == len(a)
    for g in range(m):
        near = np.ones((n, n), dtype=bool)
        for x in lead:
            near &= np.abs(x[g][:, None] - x[g][None]) <= reach[g]
        i, j = np.nonzero(np.triu(near, 1))
        assert set(zip((i + g * n).tolist(), (j + g * n).tolist())) <= met
