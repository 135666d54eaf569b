"""The neighbour grid that greedy covers and per-map kernels share.

grid_keys sorts points by cubic cells a little wider than the reach to be
met, so a point's candidates are the position ranges of the cells about
its own (ranges expands them).  CellTable keys one set for dimension's
covers and finds its ranges by bisection among the occupied cells, as it
may have GRID_AXIS = 2^20 cells an axis.  grid_ranges keys a block of
maps' images on their first one, two or three coordinates, each map at
its own reach, for embedding's decoding and log-lip's pass, and reads a
dense table of where each cell starts, as it has at most about 4 n^(1/d)
cells an axis on d keyed coordinates.  On decode-sparse
{"n_maps": 1000} at seed 42 (one process, 2-core x86-64), decoding took
0.56 s, as long with bisection in place of the dense table, while one
CellTable per map took 1.4 s just to list its candidates.  Imports: numpy
and the stdlib only.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

GRID_MARGIN = 1e-6  # relative margin of a grid's cell side over its reach
GRID_AXIS = 1 << 20  # cells along one axis of a cover's grid, at most
COVER_PAIRS = 1 << 14  # candidate pairs per block of a greedy cover's walk


def sq_norms(a, b=None, out=None):
    """Squared Euclidean norms of a - b (of a when b is None) along the last
    axis, the other axes broadcast; out, if given, receives them.

    The differences are taken directly and the squares summed coordinate
    by coordinate, the order np.linalg.norm uses on rows shorter than 8,
    so no (..., k) difference tensor is built and nothing cancels.
    """
    for c in range(a.shape[-1]):
        if b is None:
            d = np.square(a[..., c], out=None if c else out)
        else:
            d = np.subtract(a[..., c], b[..., c], out=None if c else out)
            np.square(d, out=d)
        out = d if c == 0 else np.add(out, d, out=out)
    return out


def ranges(begin, count):
    """The ranges [begin, begin + count), one after another."""
    out = np.repeat(begin - np.cumsum(count) + count, count)
    out += np.arange(len(out))
    return out


def block_end(stop, s, pairs=COVER_PAIRS):
    """The end t > s of a block of a walk from its entry s on, whose
    costs, with running sums stop, add up to at most pairs (by default a
    greedy cover's budget), or of entry s alone."""
    base = stop[s - 1] if s else 0
    return max(s + 1, int(np.searchsorted(stop, base + pairs, side="right")))


def grid_keys(lead, reach, per_axis):
    """Cut m sets of n points into cubic cells and sort them by cell.

    lead holds the sets' (m, n) arrays of up to three coordinates, reach
    their (m, 1) distances to be met.  A set's cells have side
    h = max(reach (1 + GRID_MARGIN), span / per_axis), span its widest
    coordinate range, and positive when every point coincides.  Keys
    number them with the first coordinate fastest, a spare cell on both
    sides of every axis, and each set's cells after those of the set
    before, so that every cell next to a point's own has a key in the
    set's range, and the three cells of a row along the first axis have
    consecutive keys.  Returns the order that sorts the points by key, the
    sorted keys, each axis's (m, 1) key stride, and the count of keys.

    Two points whose coordinates differ by at most reach, each difference
    taken with rounding, lie in the same or adjacent cells: h exceeds
    reach by GRID_MARGIN, and floor(x / h) rounds by far less, at most
    per_axis 2^-52 cells.
    """
    m, n = lead[0].shape
    lo = [x.min(axis=1, keepdims=True) for x in lead]
    span = np.maximum.reduce([x.max(axis=1, keepdims=True) - l
                              for x, l in zip(lead, lo)])
    side = np.maximum(np.maximum(reach * (1 + GRID_MARGIN), span / per_axis),
                      np.finfo(float).tiny)
    key = np.zeros((m, n), np.int64)
    strides = []
    size = np.ones((m, 1), np.int64)
    for x, l in zip(lead, lo):
        cell = ((x - l) / side).astype(np.int64)
        cell += 1
        strides.append(size)
        key += cell * size
        size = size * (cell.max(axis=1, keepdims=True) + 2)
    key += np.cumsum(size).reshape(m, 1) - size
    key = key.ravel()
    order = np.argsort(key)
    return order, key[order], strides, int(size.sum())


def grid_ranges(lead, reach):
    """Candidate ranges of a block of m maps' images, each map at its own
    reach: every pair whose first one, two or three coordinates each
    differ by at most the reach is met once.

    lead holds those d = 1, 2 or 3 coordinates as (m, n) arrays, and reach
    the (m,) reaches.  Each map's images go into cubic cells of side
    h > reach (grid_keys), and the block is sorted by cell.  Returns that
    order and ranges (first, begin, count): the image at sorted position
    first meets the count images from position begin on.  An image meets
    the images after it in its own cell and the next one of its row, along
    the first axis, and those of the three cells about its own in each row
    whose offsets in the other axes come after 0 in lexicographic order,
    the last axis first; so each pair in the same or adjacent cells is met
    once.

    h is at least span / (4 n^(1/d)), so that a map has at most
    (4 n^(1/d) + 3)^d cells however small its reach; the root is taken
    once, by sqrt and cbrt, so that decoding's cells at d = 2 are those
    of 4 sqrt(n).
    """
    m, n = lead[0].shape
    root = (n, math.sqrt(n), np.cbrt(n))[len(lead) - 1]  # n^(1/d)
    order, key, strides, size = grid_keys(lead, reach[:, None], 4 * root)
    start = np.zeros(size + 1, np.int64)
    np.cumsum(np.bincount(key, minlength=size), out=start[1:])
    pos = np.arange(m * n)
    spans = [(pos + 1, start[key + 2])]
    for row in itertools.product((-1, 0, 1), repeat=len(lead) - 1):
        if row[::-1] > (0,) * len(row):
            at = (key.reshape(m, n)
                  + sum(o * s for o, s in zip(row, strides[1:]))).ravel()
            spans.append((start[at - 1], start[at + 2]))
    parts = []
    for lo_pos, hi_pos in spans:
        hit = np.flatnonzero(hi_pos > lo_pos)
        parts.append((hit, lo_pos[hit], hi_pos[hit] - lo_pos[hit]))
    return order, *(np.concatenate(r) for r in zip(*parts))


class CellTable:
    """A point set on a grid of side delta (1 + GRID_MARGIN), for the
    closed delta-balls of greedy covers (dimension.covering_number).

    The grid keys the first three coordinates (grid_keys), so every point
    within delta of a point lies in the 3^(d-1) rows of cells about its
    own, d <= 3 the keyed coordinates; GRID_AXIS bounds the cells along an
    axis.  Positions are those of the points sorted by cell: order maps
    them to input indices and rank back.  Each occupied cell keeps the
    position ranges of its rows.  counts holds each point's candidates,
    itself included, and alone marks the points known to have no other
    point within delta: at first those alone among their candidates, then
    every one that near finds alone.  With keep_balls, near keeps every
    ball it finds, for a table that many covers of overlapping subsets
    share: their greedy walks open the same centers again and again.
    """

    def __init__(self, points, delta, keep_balls=False):
        points = np.asarray(points, dtype=float)
        n, dim = points.shape
        lead = [points[None, :, c] for c in range(min(dim, 3))]
        self.order, key, strides, _ = grid_keys(
            lead, np.full((1, 1), float(delta)), GRID_AXIS)
        first = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        keys = key[first]
        start = np.append(first, n)
        rows = list(itertools.product((-1, 0, 1), repeat=len(lead) - 1))
        index = np.int32 if n < 2**31 else np.int64  # halves the ranges
        self._begin = np.empty((len(keys), len(rows)), index)
        self._end = np.empty_like(self._begin)
        for r, row in enumerate(rows):
            at = keys + sum(o * int(s[0, 0]) for o, s in zip(row, strides[1:]))
            self._begin[:, r] = start[np.searchsorted(keys, at - 1)]
            self._end[:, r] = start[np.searchsorted(keys, at + 2)]
        self._cell = np.repeat(np.arange(len(keys), dtype=index),
                               np.diff(start))
        self.rank = np.empty(n, np.int64)
        self.rank[self.order] = np.arange(n)
        self._cols = [points[self.order, c] for c in range(dim)]
        self._reach2 = delta * delta
        self.counts = (self._end - self._begin).sum(axis=1)[self._cell]
        self.alone = self.counts == 1
        self._keep = keep_balls
        if keep_balls:  # ball p: kept[at[p]:at[p] + size[p]], size 0 unknown
            self._at = np.zeros(n, np.int64)
            self._size = np.zeros(n, np.int64)
            self._kept = np.empty(0, index)
            self._used = 0

    def pairs(self, pos):
        """Every candidate pair (i, j) of the points at positions pos,
        grouped by i in the order of pos, with its squared distance summed
        coordinate by coordinate as sq_norms sums them, and where each
        group starts."""
        cell = self._cell[pos]
        count = self._end[cell] - self._begin[cell]
        total = count.sum(axis=1)
        i = np.repeat(pos, total)
        j = ranges(self._begin[cell].ravel(), count.ravel())
        d2 = None
        for x in self._cols:
            d = x[j]
            d -= np.repeat(x[pos], total)
            d *= d
            d2 = d if d2 is None else np.add(d2, d, out=d2)
        return i, j, d2, np.cumsum(total) - total

    def near(self, pos):
        """The pairs (i, j) of pairs(pos) with j in the closed delta-ball of
        i, squared distance at most delta * delta, and where each group
        starts.  Each i keeps a group, as its distance to itself is 0."""
        if not self._keep:
            return self._near(pos)
        fresh = pos[self._size[pos] == 0]
        if len(fresh):
            _, j, first = self._near(fresh)
            end = self._used + len(j)
            if end > len(self._kept):
                self._kept = np.resize(self._kept,
                                       max(end, 2 * len(self._kept)))
            self._kept[self._used:end] = j
            self._at[fresh] = first + self._used
            self._size[fresh] = np.diff(first, append=len(j))
            self._used = end
        size = self._size[pos]
        j = ranges(self._at[pos], size)
        return np.repeat(pos, size), self._kept[j], np.cumsum(size) - size

    def _near(self, pos):
        """near(pos), found from the candidates; marks the points found
        alone."""
        i, j, d2, _ = self.pairs(pos)
        keep = np.flatnonzero(d2 <= self._reach2)
        i, j = i[keep], j[keep]
        first = np.flatnonzero(np.concatenate([[True], i[1:] != i[:-1]]))
        self.alone[i[first[np.diff(first, append=len(i)) == 1]]] = True
        return i, j, first

    def costs(self, pos):
        """The work near does for each point at positions pos: its
        candidates, or the size of its ball once kept."""
        if not self._keep:
            return self.counts[pos]
        size = self._size[pos]
        return np.where(size > 0, size, self.counts[pos])
