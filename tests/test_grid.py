"""The block rule that the covers' and decoding's walks share."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from projlab.grid import COVER_PAIRS, block_end


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
