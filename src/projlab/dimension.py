"""Covering numbers and dimension estimates for finite point sets.

The covering routine is a greedy net: walk the points in input order,
open a closed delta-ball at the first uncovered point, repeat.  Its output
is sandwiched between the true covering numbers at delta and delta/2
(greedy centers are pairwise more than delta apart, so any delta/2-cover
needs at least as many balls; the output is itself a delta-cover).  All
dimension fits are ordinary least squares on log2-log2 tables.

Balls are found on a cell table of side a little above delta
(grid.CellTable), no tree.  A point is in the closed ball when its squared
distance to the center, the squares summed coordinate by coordinate in
order, is at most delta * delta; for points of fewer than eight
coordinates that is the test of a KD-tree's ball query, so the counts are
those of the tree, ties on the rim included.
A point with no other point in its ball can neither be covered by another
center nor cover one, so it is a center whenever it is walked, and such
points are settled in bulk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import AtomicMeasure, PointSet
from .grid import CellTable, block_end


@dataclass
class ScalingFit:
    """Fitted power law count ~ C * scale^(-slope) plus the raw table."""

    slope: float
    intercept: float
    r_squared: float
    table: list  # [(delta, count)], deltas strictly decreasing

    def __post_init__(self):
        if len(self.table) < 3:
            raise ValueError("scaling fit needs at least 3 scales")
        deltas = [row[0] for row in self.table]
        if not all(a > b for a, b in zip(deltas, deltas[1:])):
            raise ValueError("scales must be strictly decreasing")

    def to_json_dict(self):
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "table": [{"delta": d, "count": c} for d, c in self.table],
        }

    def rows(self):
        """Table rows expanded to (delta, log2 delta, count, log2 count)."""
        return [(d, float(np.log2(d)), c, float(np.log2(c)) if c > 0 else -np.inf)
                for d, c in self.table]


def _ols(x, y):
    """Least-squares line y ~ slope * x + intercept, with its r^2."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_sq = 1.0 if ss_tot == 0 else 1.0 - float((resid**2).sum()) / ss_tot
    return float(slope), float(intercept), float(r_sq)


def fit_loglog(deltas, counts):
    """OLS of log2(count) against log2(1/delta); slope is the dimension."""
    return _ols(np.log2(1.0 / np.asarray(deltas, dtype=float)),
                np.log2(np.asarray(counts, dtype=float)))


def _as_points(ps):
    if isinstance(ps, (PointSet, AtomicMeasure)):
        return ps.points
    return np.atleast_2d(np.asarray(ps, dtype=float))


def covering_number(ps, delta, return_centers=False, within=None, index=None):
    """Greedy closed-ball cover count, first uncovered point in input order.

    within (index array or boolean mask) restricts the cover to those
    points of ps, walked in the order of ps: the count equals that of the
    extracted subset, and centers are reported as indices into ps.  index
    is the cell table of ps at this delta, CellTable(ps, delta), for
    callers that cover one set many times at one scale.

    Points known to be alone in their balls are settled as centers at
    once.  The rest are walked in blocks of about a fixed number of
    candidate pairs: a block takes the next walked points that are still
    uncovered, finds their balls at once (CellTable.near), and settles
    every point whose ball holds no other uncovered walked point as a
    center.  Only the others go through the greedy one by one, each center
    covering its ball.  Centers come back in increasing order, the order
    the greedy walk opens them.
    """
    pts = _as_points(ps)
    if not delta > 0:  # NaN fails; an infinite delta is one ball
        raise ValueError("delta must be positive")
    n = len(pts)
    table = CellTable(pts, delta) if index is None else index
    walked = np.zeros(n, dtype=bool)
    walked[slice(None) if within is None else within] = True
    is_center = walked & table.alone[table.rank]
    walk = np.flatnonzero(walked & ~is_center)
    pos = table.rank[walk]
    w = len(walk)
    slot = np.full(n, w)  # walk index of each position, w off the walk
    slot[pos] = np.arange(w)
    open_ = np.ones(w + 1, dtype=bool)
    open_[w] = False
    stop = np.cumsum(table.costs(pos))
    s = 0
    while True:
        s += int(open_[s:].argmax())
        if not open_[s]:
            break
        t = block_end(stop, s)
        block = np.flatnonzero(open_[s:t]) + s
        i, j, first = table.near(pos[block])
        other = i != j
        j = slot[j]
        busy = np.logical_or.reduceat(open_[j] & other, first)
        open_[block[~busy]] = False
        opened = [block[~busy]]
        bounds = np.append(first, len(i)).tolist()
        for k in np.flatnonzero(busy).tolist():
            if open_[block[k]]:
                opened.append(block[k:k + 1])
                open_[j[bounds[k]:bounds[k + 1]]] = False
        is_center[walk[np.concatenate(opened)]] = True
        s = t
    centers = np.flatnonzero(is_center)
    if return_centers:
        return len(centers), centers.tolist()
    return len(centers)


def _check_resolution(pts, delta_min):
    """Refuse a window whose delta_min lies below the set's resolution: its
    least positive nearest-neighbour distance (inf below two points, 0
    when every point has a twin at distance 0), distances taken as the
    roots of squares summed coordinate by coordinate.

    Some point with no twin has a nearest neighbour within delta_min
    exactly when the window stands, and that neighbour is among the
    point's candidates on a cell table of side delta_min, so the points
    are scanned there block by block until one is found.  Only
    a refused window goes on, on tables of doubling side, for the floor
    that the message reports: once some point with no twin meets another
    within the side, the least distance to a candidate is the floor.
    """
    n = len(pts)
    floor, side = math.inf, delta_min
    while n > 1:
        table = CellTable(pts, side)
        stop = np.cumsum(table.counts)
        twinless, s = False, 0
        while s < n:
            t = block_end(stop, s)
            i, j, d2, first = table.pairs(np.arange(s, t))
            nearest = np.minimum.reduceat(np.where(i != j, d2, np.inf), first)
            nearest = nearest[nearest > 0]
            twinless |= len(nearest) > 0
            floor = min(floor, math.sqrt(nearest.min(initial=math.inf)))
            if floor <= delta_min:
                return
            s = t
        if not twinless:
            return  # every point has a twin: the floor is 0
        if floor <= side:
            break
        side *= 2
    raise ValueError(
        "delta_min %.3g is below the resolution limit %.3g" % (delta_min, floor)
    )


def dyadic_scales(delta_max, delta_min):
    """Geometric grid with ratio 2 from delta_max down to delta_min."""
    _check_window(delta_max, delta_min)
    scales = [float(delta_max)]
    while scales[-1] / 2 >= delta_min * (1 - 1e-9):
        scales.append(scales[-1] / 2)
    return scales


def _check_window(delta_max, delta_min):
    """Refuse a scale window unless 0 < delta_min < delta_max < inf, which
    no NaN meets."""
    if not 0 < delta_min < delta_max < math.inf:
        raise ValueError("need 0 < delta_min < delta_max < inf")


def box_dimension_fit(ps, delta_max, delta_min, n_scales=None):
    """Box-counting fit over a geometric scale window.

    By default the scales are dyadic (ratio 2) between the endpoints; an
    explicit whole n_scales >= 3 spaces them geometrically instead.  The
    window is refused when delta_min sinks below the set's minimum
    positive nearest-neighbor distance (4x the saturation floor nn/4):
    below that the table measures the sample, not the set.  The window
    and n_scales are checked before any cell table is built.
    """
    pts = _as_points(ps)
    if n_scales is None:
        scales = dyadic_scales(delta_max, delta_min)
    else:
        if not (math.isfinite(n_scales) and n_scales == int(n_scales)):
            raise ValueError("n_scales must be a whole number")
        if n_scales < 3:
            raise ValueError("need at least 3 scales")
        _check_window(delta_max, delta_min)
        scales = list(np.geomspace(delta_max, delta_min, int(n_scales)))
    if len(scales) < 3:
        raise ValueError("window too narrow: fewer than 3 scales")
    _check_resolution(pts, delta_min)
    counts = [covering_number(pts, d) for d in scales]
    slope, intercept, r_sq = fit_loglog(scales, counts)
    return ScalingFit(slope, intercept, r_sq, list(zip(scales, counts)))


def assouad_probe(ps, n_centers, r, rho, seed=0):
    """Localized covering count at one (r, rho) scale pair.

    Covering numbers of ps intersected with B(x, r) at scale rho are
    maximized over sampled centers; the implied exponent is
    log2(max count) / log2(r / rho), a homogeneity reading at that pair.
    The closed balls B(x, r) and the local covers are found on one cell
    table each, built once for all centers.
    """
    if not 0 < rho < r:
        raise ValueError("need 0 < rho < r")
    pts = _as_points(ps)
    rng = np.random.default_rng(seed)
    n = len(pts)
    if n_centers > n:
        raise ValueError("more centers than points")
    idx = np.arange(n) if n == n_centers else rng.choice(n, size=n_centers,
                                                         replace=False)
    balls, cells = CellTable(pts, r), CellTable(pts, rho, keep_balls=True)
    best = 0
    for i in idx:
        _, local, _ = balls.near(balls.rank[i:i + 1])
        best = max(best, covering_number(pts, rho, within=balls.order[local],
                                         index=cells))
    exponent = np.log2(best) / np.log2(r / rho) if best > 0 else 0.0
    return {"r": float(r), "rho": float(rho), "n_centers": int(n_centers),
            "max_count": int(best), "exponent": float(exponent)}


def local_dimension(measure, x, radii):
    """Fit of log2 mu(B(x, r)) against log2 r over decreasing radii."""
    if not isinstance(measure, AtomicMeasure):
        raise TypeError("local_dimension needs an AtomicMeasure")
    radii = sorted((float(r) for r in radii), reverse=True)
    masses = [measure.ball_mass(x, r) for r in radii]
    if any(m <= 0 for m in masses):
        raise ValueError("zero mass inside the window; enlarge radii")
    return ScalingFit(*_ols(np.log2(radii), np.log2(masses)),
                      list(zip(radii, masses)))
