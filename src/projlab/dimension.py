"""Covering numbers and dimension estimates for finite point sets.

The covering routine is a greedy net: walk the points in input order,
open a closed delta-ball at the first uncovered point, repeat.  Its output
is sandwiched between the true covering numbers at delta and delta/2
(greedy centers are pairwise more than delta apart, so any delta/2-cover
needs at least as many balls; the output is itself a delta-cover).  All
dimension fits are ordinary least squares on log2-log2 tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import AtomicMeasure, PointSet


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
    if isinstance(ps, PointSet):
        return ps.points
    if isinstance(ps, AtomicMeasure):
        return ps.points
    return np.atleast_2d(np.asarray(ps, dtype=float))


def _nn_distances(tree, pts):
    """Distance from each point to its nearest other point (inf if alone)."""
    return tree.query(pts, k=2)[0][:, 1]


def cover_index(ps):
    """KD-tree of a point set and each point's nearest-neighbor distance.

    Built once, it serves every covering_number call on the same set
    (pass it as index=), whatever the scale or subset.
    """
    from scipy.spatial import cKDTree

    pts = _as_points(ps)
    tree = cKDTree(pts)
    return tree, _nn_distances(tree, pts)


def covering_number(ps, delta, return_centers=False, within=None, index=None):
    """Greedy closed-ball cover count, first uncovered point in input order.

    within (index array or boolean mask) restricts the cover to those
    points of ps, walked in the order of ps: the count equals that of the
    extracted subset, and centers are reported as indices into ps.  index
    is cover_index(ps), for callers that cover one set many times.

    A point whose nearest other point lies beyond delta (with a 1e-9
    relative margin for the rounding of the two distance routines) can
    neither be covered by another center nor cover one, in the set or in
    any subset, so it is settled as a center at once.  Every other point
    goes through the exact closed-ball query, and the walk jumps from one
    uncovered index to the next.  Centers come back in increasing order,
    the order the greedy walk opens them.
    """
    pts = _as_points(ps)
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = len(pts)
    tree, nn = cover_index(pts) if index is None else index
    if within is None:
        open_ = np.ones(n, dtype=bool)
    else:
        open_ = np.zeros(n, dtype=bool)
        open_[within] = True
    is_center = open_ & (nn > delta * (1 + 1e-9))
    open_ &= ~is_center
    pos = 0
    while pos < n:
        pos += int(open_[pos:].argmax())
        if not open_[pos]:
            break
        is_center[pos] = True
        open_[tree.query_ball_point(pts[pos], delta, return_sorted=False)] = False
        pos += 1
    centers = np.flatnonzero(is_center)
    if return_centers:
        return len(centers), centers.tolist()
    return len(centers)


def _resolution(nn):
    """Minimum positive nearest-neighbor distance; inf below two points."""
    if len(nn) < 2:
        return np.inf
    positive = nn[nn > 0]
    return float(positive.min()) if len(positive) else 0.0


def min_nn_distance(pts):
    """Minimum positive nearest-neighbor distance (the resolution scale)."""
    return _resolution(cover_index(pts)[1])


def dyadic_scales(delta_max, delta_min):
    """Geometric grid with ratio 2 from delta_max down to delta_min."""
    if not 0 < delta_min < delta_max:
        raise ValueError("need 0 < delta_min < delta_max")
    scales = [float(delta_max)]
    while scales[-1] / 2 >= delta_min * (1 - 1e-9):
        scales.append(scales[-1] / 2)
    return scales


def box_dimension_fit(ps, delta_max, delta_min, n_scales=None):
    """Box-counting fit over a geometric scale window.

    By default the scales are dyadic (ratio 2) between the endpoints; an
    explicit n_scales >= 3 spaces them geometrically instead.  The window
    is refused when delta_min sinks below the set's minimum positive
    nearest-neighbor distance (4x the saturation floor nn/4): below that
    the table measures the sample, not the set.
    """
    pts = _as_points(ps)
    index = cover_index(pts)
    floor = _resolution(index[1])
    if delta_min < floor:
        raise ValueError(
            "delta_min %.3g is below the resolution limit %.3g" % (delta_min, floor)
        )
    if n_scales is None:
        scales = dyadic_scales(delta_max, delta_min)
    else:
        if n_scales < 3:
            raise ValueError("need at least 3 scales")
        scales = list(np.geomspace(delta_max, delta_min, int(n_scales)))
    if len(scales) < 3:
        raise ValueError("window too narrow: fewer than 3 scales")
    counts = [covering_number(pts, d, index=index) for d in scales]
    slope, intercept, r_sq = fit_loglog(scales, counts)
    return ScalingFit(slope, intercept, r_sq, list(zip(scales, counts)))


def assouad_probe(ps, n_centers, r, rho, seed=0):
    """Localized covering count at one (r, rho) scale pair.

    Covering numbers of ps intersected with B(x, r) at scale rho are
    maximized over sampled centers; the implied exponent is
    log2(max count) / log2(r / rho), a homogeneity reading at that pair.
    """
    if not 0 < rho < r:
        raise ValueError("need 0 < rho < r")
    pts = _as_points(ps)
    rng = np.random.default_rng(seed)
    index = cover_index(pts)
    n = len(pts)
    if n_centers > n:
        raise ValueError("more centers than points")
    idx = np.arange(n) if n == n_centers else rng.choice(n, size=n_centers,
                                                         replace=False)
    best = 0
    for i in idx:
        # one tree and one nearest-neighbor pass serve every local cover
        local = index[0].query_ball_point(pts[i], r, return_sorted=False)
        best = max(best, covering_number(pts, rho, within=local, index=index))
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
