"""Quantitative behavior of linear images of point sets.

Everything here asks one of three questions about a map image:

* collisions: which well-separated pairs land close together, how does
  the chance of that scale in the tolerance, and what does it cost to
  invert the map on the set (inverse continuity modulus, pointwise
  Holder ceilings, the log-Lipschitz modulus)?
* transversality: how likely is a random map to send a fixed vector
  eps-close to the origin?
* decoding: which atoms does the nearest image recover from a noisy one?

No estimator draws maps: each takes the maps, or the images under them,
that its caller drew, so every one is a deterministic function of its
arguments.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from . import dimension
from .grid import block_end, grid_ranges, ranges, sq_norms

STACK_BLOCK = 1 << 18  # float64 entries per map-stack block (2 MB)
MAP_BLOCK = 32  # maps per block in collision_probability
TRANS_BLOCK = 1 << 13  # maps per block in transversality_fraction
TRI_BLOCK = 64  # rows per block in log_lip_distances
CEIL_SLACK = 1e-9  # relative raise of the bound c* before thresholds form
CELL_SIDE = 1.0 / 8  # side of the direction cubes of origin_cells
CELL_SLACK = 1e-9  # a cell bound's rounding room, per ||L||_F (|c| + rho)
HULL_TOL = 1e-9  # hull_vertices' plane tolerance, relative to the top norm
HULL_SCAN_MAX = 48  # candidates per facet scan in hull_vertices
DECODE_BLOCK = 1 << 14  # atom images per block of maps in decode_recoveries
DECODE_PAIRS = 1 << 15  # pairs scored at a time there and in log_lip_pass


def __getattr__(name):
    """ConvexHull, from scipy.spatial on first use, for perfbench/traced.py,
    which puts its counting wrapper in its place; hull_vertices imports
    Qhull itself.  Resolving it lazily keeps scipy.spatial, which costs
    more to import than the package, out of every untraced run."""
    if name == "ConvexHull":
        from scipy import spatial

        globals()[name] = value = spatial.ConvexHull
        return value
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def points_provenance(points):
    """Short content hash of a float array, for report provenance."""
    import hashlib

    arr = np.ascontiguousarray(np.asarray(points, dtype=float))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def _tail_table(blocks, eps_grid):
    """How many entries of a statistic are at most eps, for each eps of the
    grid; blocks yields the statistic as 1-d arrays, which are counted one
    at a time, so the statistic need never be held whole.

    Returns the (eps, count) rows in decreasing eps and the log2-log2 fit
    of the frequency count / (number of entries) against eps over the rows
    with events, as {slope, intercept, r_squared}; the fit is None with
    fewer than three such rows.
    """
    eps_grid = np.sort(np.asarray(eps_grid, dtype=float))[::-1]
    counts = np.zeros(len(eps_grid), np.int64)
    size = 0
    for stat in blocks:
        counts += np.count_nonzero(stat[:, None] <= eps_grid, axis=0)
        size += len(stat)
    table = [(float(e), int(c)) for e, c in zip(eps_grid, counts)]
    positive = [(e, c / size) for e, c in table if c > 0]
    if len(positive) < 3:
        return table, None
    slope, intercept, r2 = dimension.fit_loglog(*map(np.array, zip(*positive)))
    # fit_loglog regresses against log2(1/eps); event frequency grows
    # with eps, so flip to report d log2(freq) / d log2(eps)
    return table, {"slope": -slope, "intercept": intercept, "r_squared": r2}


def collision_probability(points, base_index, delta, eps_grid, rows):
    """Chance over a stack of maps that some far point lands eps-close to
    the base point's image.

    rows is an (m, k, N) stack of maps.  For each map the statistic is the
    minimum image distance from the base to the points at distance
    >= delta; the per-eps count is how many maps push that minimum below
    eps.  Returns the map and far-point counts, the per-eps counts and a
    log2-log2 fit of frequency against eps, not the minima themselves.

    The maps are taken in blocks of MAP_BLOCK: one product gives the
    images of every far difference under every map of the block, and the
    squares are summed coordinate by coordinate.  For k < 8 that is the
    order of np.linalg.norm, so each minimum is bit-equal to the norm
    taken map by map; from 8 rows on the norm sums pairwise and the two
    may differ in the last bit.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(eps_grid) < 2:
        raise ValueError("need at least two tolerance levels")
    if 2 * max(eps_grid) > delta:
        raise ValueError("grid leaves the regime 2*eps <= delta")
    base = points[base_index]
    far = points[np.linalg.norm(points - base, axis=1) >= delta]
    if len(far) == 0:
        raise ValueError("no points at distance >= delta from the base")
    diffs = far - base
    diffs_t = np.ascontiguousarray(diffs.T)
    min2 = np.empty(len(rows))
    for s in range(0, len(rows), MAP_BLOCK):
        block = rows[s:s + MAP_BLOCK]
        if rows.shape[1] == 1:  # a one-row map gives matrix-vector products,
            # which BLAS sums in another order than a matrix product: keep them
            images = diffs @ np.swapaxes(block, 1, 2)
        else:
            images = np.swapaxes(block @ diffs_t, 1, 2)
        min2[s:s + MAP_BLOCK] = sq_norms(images).min(axis=1)
    table, fit = _tail_table([np.sqrt(min2)], eps_grid)
    return {
        "n_maps": len(rows),
        "n_far": int(len(far)),
        "points_hash": points_provenance(points),
        "table": table,
        "fit": fit,
    }


def transversality_fraction(x, eps_grid, rows):
    """Empirical P(|Lx| <= eps) over an (m, k, N) stack of maps.

    Returns per-eps counts, the log2-log2 slope of the frequency, and the
    calibrated constant C = max over the grid of freq * |x|^k / eps^k.

    The statistic |Lx| is taken and counted TRANS_BLOCK maps at a time, so
    beyond the stack only one block's images, their squares, their norms
    and its comparisons with the grid are held.  Each map's image and norm
    are reduced within that map, so every entry is bit-equal to
    np.linalg.norm(rows @ x, axis=1) over the whole stack, for every k.
    """
    x = np.asarray(x, dtype=float)
    n_maps, k = rows.shape[:2]
    table, fit = _tail_table(
        (np.linalg.norm(rows[s:s + TRANS_BLOCK] @ x, axis=1)
         for s in range(0, n_maps, TRANS_BLOCK)), eps_grid)
    xnorm = float(np.linalg.norm(x))
    c_values = [(c / n_maps) * xnorm**k / e**k for e, c in table]
    return {
        "x_norm": xnorm,
        "table": table,
        "fit": fit,
        "c_hat": float(max(c_values)),
        "c_by_eps": [float(c) for c in c_values],
    }


def check_deltas(delta_grid):
    """Refuse a delta grid that is empty or holds a delta that is not
    finite and positive."""
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size == 0:
        raise ValueError("the delta grid must not be empty")
    if not np.all(np.isfinite(deltas) & (deltas > 0)):
        raise ValueError("every delta must be finite and positive")


def inverse_continuity_modulus(points, ops, delta_grid):
    """eps(delta) = smallest image distance among pairs at least delta apart.

    ops is a stack of maps, an (m, k, N) array such as sample_e_batch
    returns; the result is a list of m tables of (delta, eps) rows, in
    stack order.  Deltas that no pair reaches, those above the set's
    diameter, are cut from every table alike; the grid must hold at least
    one delta, each finite and positive.

    Image distances are direct differences of the images, squared and
    summed coordinate by coordinate by sq_norms, so a small minimum is
    never the cancellation residue of a Gram identity.  Only a certified
    candidate set of pairs is scored.  Each map's images are sorted by
    their first coordinate, and the pairs (i, i + o) of that order are
    walked for o = 1, 2, ..., every position i at first, in blocks whose
    gathered point and image coordinates stay within STACK_BLOCK entries.
    Let g be a pair's gap in the first coordinate and b the map's least
    squared image distance found so far over pairs at least the largest
    delta apart.  The pair's squared image distance is at
    least fl(g^2), the first term of its sum (adding squares never rounds
    below a term), so once fl(g^2) > b, neither the pair nor any later
    pair of position i (its gaps only grow with o, and b only falls) can
    reach a delta's minimum, which is at most b as the far sets shrink
    with delta; the position is dropped.  Every pair that is not dropped
    is scored, its point distance summed as by set_diameter.  So each
    minimum is taken over a superset of its arg-min: the same float as
    over all pairs, with no slack.  When no far pair lies near in the
    order, b stays infinite and the walk runs on toward all pairs.

    Nondecreasing in delta by construction (shrinking the pair set can only
    raise the minimum).
    """
    check_deltas(delta_grid)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ops = np.asarray(ops, dtype=float)
    if ops.ndim != 3:
        raise ValueError("ops must be an (m, k, N) stack of maps")
    images = np.ascontiguousarray(points @ np.swapaxes(ops, 1, 2))
    delta_grid = np.sort(np.asarray(delta_grid, dtype=float))
    reached = delta_grid[delta_grid <= set_diameter(points,
                                                    stop=delta_grid[-1])]
    if len(reached) == 0:
        raise ValueError("no pairs at the smallest delta")
    m, n = images.shape[:2]
    flat = images.reshape(m * n, -1)
    order = np.argsort(images[..., 0], axis=1)
    first = np.take_along_axis(images[..., 0], order, axis=1).ravel()
    order += n * np.arange(m)[:, None]
    at = order.ravel()  # rows of flat
    del order
    min2 = np.full((len(reached), m), np.inf)
    block = max(1, STACK_BLOCK // (2 * (points.shape[1] + flat.shape[1])))
    live = (n * np.arange(m)[:, None] + np.arange(n - 1)).ravel()
    o = 1
    while live.size:
        kept = []
        for s in range(0, live.size, block):
            pos = live[s:s + block]
            gap2 = np.square(first[pos + o] - first[pos])
            live_now = gap2 <= min2[-1, pos // n]
            pos, gap2 = pos[live_now], gap2[live_now]
            a, b = at[pos], at[pos + o]
            im2 = sq_norms(flat[a], flat[b])
            pd = np.sqrt(sq_norms(points[a % n], points[b % n]))
            for d, row in zip(reached, min2):
                far = ~(pd < d)
                np.minimum.at(row, pos[far] // n, im2[far])
            kept.append(pos[gap2 <= min2[-1, pos // n]])  # the new bound
        o += 1
        live = np.concatenate(kept)
        live = live[live % n < n - o]
    return [[(float(d), math.sqrt(float(e))) for d, e in zip(reached, col)]
            for col in min2.T]


def check_holder_budget(m_const):
    """Refuse a Holder budget M below 1, infinite, or NaN."""
    if not 1 <= m_const < math.inf:
        raise ValueError("M must be at least 1 (normalized distances) "
                         "and finite")


def holder_ceiling(pd, im, m_const):
    """Pointwise Holder ceilings from normalized distances, one per row.

    pd and im hold the point and image distances from a base point to its
    partners along the last axis, divided by the normalizer; any leading
    shape indexes base points or maps.  A partner binds when pd > M im.
    The ceiling of a row is the minimum over its binding partners of
    (log2(pd) - log2 M) / log2(im), floored at 0: an exact collision
    (im = 0 while pd > 0) gives 0 and a row where nothing binds gives inf.
    The base point itself (pd = 0) never binds.  Returns an array of shape
    pd.shape[:-1].
    """
    check_holder_budget(m_const)
    binding = pd > m_const * im
    im_b = im[binding]
    with np.errstate(divide="ignore", invalid="ignore"):
        ceil = (np.log2(pd[binding]) - math.log2(m_const)) / np.log2(im_b)
    ceil[im_b == 0.0] = -np.inf  # an exact collision
    counts = np.asarray(np.count_nonzero(binding, axis=-1))
    alpha = np.full(counts.shape, np.inf)
    filled = counts > 0
    if ceil.size:  # binding pairs come row by row, so rows are segments
        alpha[filled] = np.minimum.reduceat(
            ceil, np.cumsum(counts[filled]) - counts[filled])
    return np.where(alpha > 0.0, alpha, 0.0)


class OriginCells(NamedTuple):
    """A net cut into cells about the origin, as origin_cells builds it.

    points_t is the (d, n) net in cell order, norms its points' norms;
    cell c holds the columns starts[c]:starts[c + 1].  For each cell:
    centres, the midpoint of its bounding box; radii, half the box's
    diagonal, so that every point of the cell lies within it of the
    centre; reach, |centre| + radius; and tops, its largest norm."""

    points_t: np.ndarray
    norms: np.ndarray
    starts: np.ndarray
    centres: np.ndarray
    radii: np.ndarray
    reach: np.ndarray
    tops: np.ndarray


def _cell_keys(points, side):
    """origin_cells' cell keys of the rows of an (n, d) point array: the
    shell and the shifted cube indices of each, in mixed radix."""
    span = 2 * math.ceil(1.0 / side) + 3  # shifted cube indices stay below
    norms = np.sqrt(sq_norms(points))
    # the exponent of sqrt(2) |x| is round(log2 |x|) + 1, from -1073 up
    key = np.where(norms > 0.0, np.frexp(math.sqrt(2.0) * norms)[1] + 1100,
                   0).astype(np.int64)
    scale = np.divide(1.0 / side, norms, out=np.zeros_like(norms),
                      where=norms > 0.0)
    cubes = np.floor(points * scale[:, None] + 0.5).astype(np.int64)
    for cube in cubes.T:
        key *= span
        key += cube + span // 2
    return key


def origin_cells(points, side=CELL_SIDE):
    """Cut an (n, d) point array into cells by shell and by direction.

    A point x != 0 falls in the cell of its shell, round(log2 |x|), and of
    the cube of the given side, centred on a multiple of it, that holds
    its direction x / |x|; points at the origin form one cell.  Any
    partition would do, since a cell's centre and radius come from its
    points, so a cell key that wraps around in many dimensions costs only
    tightness.  The keys and the copy are taken in blocks of rows that
    keep each within STACK_BLOCK entries, so that beyond the cell-ordered
    copy and its norms only full-net index arrays are held.
    """
    points = np.asarray(points, dtype=float)
    n, dim = points.shape
    rows = max(1, STACK_BLOCK // dim)
    key = np.concatenate([_cell_keys(points[s:s + rows], side)
                          for s in range(0, n, rows)])
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1],
                                            [True]]))
    del key
    points_t = np.empty((dim, n))
    for s in range(0, n, rows):
        block = points.take(order[s:s + rows], axis=0)
        for c in range(dim):
            points_t[c, s:s + rows] = block[:, c]
    del order
    lo = np.minimum.reduceat(points_t, starts[:-1], axis=1)
    hi = np.maximum.reduceat(points_t, starts[:-1], axis=1)
    centres = np.ascontiguousarray((0.5 * (lo + hi)).T)
    radii = 0.5 * np.sqrt(sq_norms((hi - lo).T))  # half the box diagonal
    norms = np.sqrt(sq_norms(points_t.T))
    return OriginCells(points_t, norms, starts, centres, radii,
                       np.sqrt(sq_norms(centres)) + radii,
                       np.maximum.reduceat(norms, starts[:-1]))


def _net_images(op, points_t, idx):
    """The (k, len(idx)) images op @ points_t[:, idx] of the columns idx of
    a (d, n) point array.

    A map of one row, or a gather of one column, goes to BLAS twice over:
    a matrix-vector product rounds by the layout and alignment of its
    operands, a matrix product does not.  A test pins the gathers, bit for
    bit, to the whole product on holder-ceiling's nets.
    """
    k, c = len(op), len(idx)
    wide = op if k > 1 else np.repeat(op, 2, axis=0)
    return (wide @ points_t[:, idx if c != 1 else np.repeat(idx, 2)])[:k, :c]


def _cell_members(starts, cells):
    """The columns of the given cells, cell after cell, and how many each
    cell holds."""
    counts = starts[cells + 1] - starts[cells]
    return ranges(starts[cells], counts), counts


def _cell_bounds(cells, op):
    """_origin_ceilings' lower bounds, one per cell, on the computed norms of
    the images of the cell's points under op."""
    lip = math.sqrt(float(np.abs(op @ op.T).sum(axis=1).max()))
    bound = np.sqrt(sq_norms(cells.centres @ op.T))
    bound -= lip * cells.radii
    bound -= CELL_SLACK * float(np.linalg.norm(op)) * cells.reach
    return bound


def _thresholds(top, m_const, power):
    """_origin_ceilings' thresholds for cells of largest normalized pd
    P = top, at the budgets m_const and the powers 1 / c*, both columns:
    min(tau, cap) with tau = (P / M)^power floored at the least normal
    float, infinite where 2 P > M, and cap = (P / M)(1 + CELL_SLACK)
    floored at twice that float."""
    ratio = top / m_const
    tiny = np.finfo(float).tiny
    with np.errstate(over="ignore"):  # only where 2 P > M, set below
        tau = np.maximum(ratio ** power, tiny)
    tau[2.0 * top > m_const] = np.inf
    return np.minimum(tau, np.maximum(ratio * (1.0 + CELL_SLACK), 2 * tiny))


def _origin_ceilings(cells, op, normalizer, m_grid):
    """holder_ceiling(pd / normalizer, im / normalizer, M) over a net with
    its base at the origin, as a float for each M of m_grid, bit for bit,
    with images formed and ceilings taken only on a certified candidate
    set of its points.

    cells is the net cut by origin_cells; pd holds the points' norms and
    im the norms of their images under op, each image _net_images' column.
    Below, pd, im and a cell's largest pd, P, are normalized.

    The bound: for every x of a cell with centre c and radius rho,
    |L x| >= |L c| - ||L||_2 rho, and ||L||_2^2 is at most the largest
    row sum of |L L^T|.  Each computed image norm lies within a few units
    of rounding times ||L||_F |x| of its exact value, as do |L c|, that
    norm bound and rho, and |x| <= |c| + rho; so lowering the bound by
    CELL_SLACK ||L||_F (|c| + rho) makes it a lower bound on the computed
    norms, with room to spare for the division by the normalizer.

    The seed is the set of cells of least bound, but for a cell at the
    origin, which never binds: those at most 0, or the least one if none
    is.  Its points are imaged, and c* is the exact ceiling over each seed
    cell's points of least im, an upper bound on the answer; c* = 0 is the
    answer.  Otherwise no point with im at least its cell's threshold
    (_thresholds) can set a smaller ceiling:

    * above the cap no point binds.  A point binds only if
      fl(M im) < pd <= P, and im >= (P / M)(1 + CELL_SLACK) rules that
      out against rounding; where P / M is below the least normal float,
      2 M times that float is above P;
    * in a cell with 2 P <= M, a binding point has im < pd / M <= 1/2,
      and its ceiling log2(pd / M) / log2(im) is positive and grows with
      im; as log2(pd / M) <= log2(P / M) < 0, a binding point with
      im >= tau = (P / M)^(1 / c*) has a ceiling of at least c*.  tau
      takes c* raised by CEIL_SLACK, so that the slack outweighs the
      rounding of the logs, the division and the power; P <= M / 2 keeps
      log2(P / M) away from 0 for that, and tau is infinite elsewhere.
      It is floored at the least normal float, where it would lose that
      precision; a binding point below it has a smaller im anyway, and
      the floor keeps every exact collision.

    A cell whose bound is at least its threshold at every M is ruled out
    before any image is formed.  The other cells are imaged once, and
    each M scores the points of the seed and of those cells below their
    threshold.  The answer is the smaller of c* and their ceiling: a
    minimum over a superset of the arg-min is the same float.
    """
    bound = _cell_bounds(cells, op)
    far = cells.tops > 0.0  # a cell at the origin never binds
    seed = np.flatnonzero(far & (bound <= max(float(np.min(
        bound, where=far, initial=np.inf)), 0.0)))
    idx, counts = _cell_members(cells.starts, seed)
    im = np.sqrt(sq_norms(_net_images(op, cells.points_t, idx).T))
    im /= normalizer
    least = im == np.repeat(
        np.minimum.reduceat(im, np.cumsum(counts) - counts), counts)
    pd_least, im_least = cells.norms[idx[least]] / normalizer, im[least]
    c_stars = [float(holder_ceiling(pd_least, im_least, m)) for m in m_grid]
    # c* = 0 is the answer, which also keeps 1 / c* finite below
    scored = [j for j, c_star in enumerate(c_stars) if c_star]
    m_col = np.array([m_grid[j] for j in scored])[:, None]
    powers = 1.0 / (np.array([c_stars[j] for j in scored])[:, None]
                    * (1.0 + CEIL_SLACK))
    bound /= normalizer
    top = cells.tops / normalizer  # division is monotone: the cells' P
    kept = (bound < _thresholds(top, m_col, powers)).any(axis=0)
    kept[seed] = False
    more = np.flatnonzero(kept)
    if len(more):
        more_idx, more_counts = _cell_members(cells.starts, more)
        im_more = np.sqrt(sq_norms(_net_images(op, cells.points_t,
                                                more_idx).T))
        im = np.concatenate([im, im_more / normalizer])
        idx = np.concatenate([idx, more_idx])
        seed = np.concatenate([seed, more])
        counts = np.concatenate([counts, more_counts])
    pd = cells.norms[idx] / normalizer
    below = im < np.repeat(_thresholds(top[seed], m_col, powers), counts,
                           axis=1)
    alphas = list(c_stars)
    for j, near in zip(scored, below):
        alphas[j] = min(alphas[j], float(holder_ceiling(pd[near], im[near],
                                                        m_grid[j])))
    return alphas


def holder_at_origin(cells, hull_idx, op, witnesses, m_grid):
    """Pointwise Holder ceilings at the origin of a net and its (w, d)
    witnesses under one map, a float for each M of m_grid.

    cells is the net cut by origin_cells and hull_idx its hull_vertices in
    cell order.  The normalizer is twice the image diameter, taken over the
    images of the net's hull vertices (conv(LX) = L conv(X)) and of the
    witnesses.  The base, at the origin, never binds, and the ceiling is a
    minimum over points, so it splits over the net and the witnesses.
    """
    hull_imgs = _net_images(op, cells.points_t, hull_idx).T
    wit_imgs = witnesses @ op.T
    normalizer = 2.0 * set_diameter(np.vstack([hull_imgs, wit_imgs]))
    alphas = _origin_ceilings(cells, op, normalizer, m_grid)
    pd_wit = np.sqrt(sq_norms(witnesses)) / normalizer
    im_wit = np.sqrt(sq_norms(wit_imgs)) / normalizer
    return [min(a, float(holder_ceiling(pd_wit, im_wit, m)))
            for m, a in zip(m_grid, alphas)]


def _facet_scan(pts, top):
    """Vertices, outward unit normals and offsets of the facets of
    conv(pts) for a (c, 3) array of norms at most top, from a scan over
    every triple; None when the scan cannot decide.

    With tol = HULL_TOL top, a triple spans a facet when every other point
    lies below its plane by more than tol.  The scan cannot decide when c
    is below 4 or above HULL_SCAN_MAX, when a triple is nearly collinear
    (twice its area at most sqrt(HULL_TOL) top^2, where the rounding of
    its normal could outgrow tol), or when a plane with no point above it
    holds a fourth point within tol.  Otherwise no four points of a facet
    are coplanar, so every facet is a triangle of three points, all
    vertices, and every vertex lies on a facet.
    """
    c = len(pts)
    if not 4 <= c <= HULL_SCAN_MAX:
        return None
    tol = HULL_TOL * top
    tri = np.array(list(itertools.combinations(range(c), 3)))
    a, b, d = pts[tri].swapaxes(0, 1)
    normal = np.cross(b - a, d - a)
    length = np.sqrt(sq_norms(normal))
    if length.min() <= math.sqrt(HULL_TOL) * top * top:
        return None
    normal /= length[:, None]
    offset = np.einsum("ij,ij->i", normal, a)
    dist = normal @ pts.T - offset[:, None]
    dist[np.arange(len(tri))[:, None], tri] = 0.0  # a triple's own points
    above = (dist > tol).any(axis=1)
    below = (dist < -tol).any(axis=1)
    facet = ~above | ~below
    if np.any(np.count_nonzero(np.abs(dist[facet]) <= tol, axis=1) > 3):
        return None
    flip = above[facet]
    normal, offset = normal[facet], offset[facet]
    normal[flip] *= -1.0
    offset[flip] *= -1.0
    return np.unique(tri[facet]), normal, offset


def hull_vertices(points, norms):
    """Indices of the convex-hull vertices of an (n, d) point array, in
    ascending order, given the points' Euclidean norms.

    The fast path takes sets that span three coordinates, such as the
    sphere nets, whose points sit on shells about the origin.  Let top be
    the largest norm and tol = HULL_TOL top.  The candidate set C starts
    as the outermost shell, the points of norm at least top - tol (points
    of largest norm are vertices: the ball is strictly convex).  Each
    round:

    * _facet_scan gives the vertices of conv(C) and its facet planes
      n.x <= h; C keeps only those vertices, since a point of C inside
      conv(C) is not extreme.  Let rho be the least offset h.
    * A point q with |q| < rho - tol has n.q <= |q| < h - tol on every
      facet, so it lies inside conv(C).  Only the points not yet settled
      with |q| >= rho - tol are tested against the facets.
    * A point below every facet by more than tol lies inside conv(C) and
      is settled; C only grows, so it stays inside.  A point above some
      facet by more than tol joins C.  If none joins, every point lies in
      conv(C), so conv(points) = conv(C) and the vertices of C are the
      answer.

    Qhull, imported here, takes the set in its own coordinates when they
    are not three, and every set where the certificate cannot decide: a
    scan _facet_scan refuses, or a tested point within tol of a facet
    plane.
    """
    points = np.asarray(points, dtype=float)
    cols = np.arange(points.shape[1])
    if len(cols) != 3:  # a net inside a coordinate subspace
        cols = np.flatnonzero(points.any(axis=0))
    top = float(norms.max())
    tol = HULL_TOL * top
    if len(cols) == 3:
        cand = settled = np.flatnonzero(norms >= top - tol)
        while True:
            scan = _facet_scan(points[np.ix_(cand, cols)], top)
            if scan is None:
                break
            verts, normal, offset = scan
            cand = cand[verts]
            near = np.setdiff1d(np.flatnonzero(norms >= offset.min() - tol),
                                settled, assume_unique=True)
            q = points[np.ix_(near, cols)]  # one facet at a time: O(len(q))
            worst = functools.reduce(np.maximum, (
                q @ n - h for n, h in zip(normal, offset)))
            if np.any(np.abs(worst) <= tol):
                break
            if not np.any(worst > tol):
                return np.sort(cand)
            settled = np.union1d(settled, near)
            cand = np.concatenate([cand, near[worst > tol]])
    if points.shape[1] == 3:  # a flat set goes to Qhull in its own plane
        cols = np.flatnonzero(points.any(axis=0))
    from scipy.spatial import ConvexHull

    return np.sort(ConvexHull(points[:, cols]).vertices)


def set_diameter(points, stop=math.inf):
    """Exact diameter of a point array, by a direct scan over the pairs in
    blocks of rows that keep a block within STACK_BLOCK pairs.

    The scan costs a pass over all pairs.  The diameter is attained on
    convex-hull vertices, so a caller with a large set reduces it to its
    hull_vertices first, as holder_at_origin does.
    The scan ends early at the first block whose largest distance reaches
    stop, and returns that distance: at least stop, at most the diameter.

    The root is taken once, of the largest square: rounded roots are
    monotone, so it is the largest rounded distance.  On a line that is
    fl(sqrt(fl(x^2))) = |x| at the extreme pair, that is fl(max - min),
    outside overflow and underflow.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rows = max(1, STACK_BLOCK // max(len(points), 1))
    top = 0.0
    # partners from the block's first row on: the earlier ones came before
    for s in range(0, len(points), rows):
        top = max(top, math.sqrt(float(sq_norms(points[s:s + rows, None],
                                                 points[None, s:]).max())))
        if top >= stop:
            break
    return top


def check_log_lip_exponents(eta, theta):
    """Refuse log-Lipschitz exponents eta <= 1 or theta <= 0, or NaN."""
    if not eta > 1:  # NaN fails too
        raise ValueError("eta must exceed 1")
    if not theta > 0:
        raise ValueError("theta must be positive")


def log_lipschitz_modulus(u, big_r, eta, theta):
    """The modulus f(u) = u / log2(2R/u)^(eta/theta) at distances u >= 0.

    Needs eta > 1 and theta > 0; f(0) = 0.  f is increasing on (0, R], so
    R should be at least every distance u it is given.
    """
    check_log_lip_exponents(eta, theta)
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return u / np.log2(2.0 * big_r / u) ** (eta / theta)


def log_lip_distances(points):
    """(pd, R) of an (n, N) atom array for log_lip_pass: the distances and
    R = max pd, the diameter.  pd is taken TRI_BLOCK rows at a time, with
    no n x n x N tensor; each entry is its own np.linalg.norm, so pd is
    bit-symmetric and its bits do not depend on the block."""
    pd = np.vstack([
        np.linalg.norm(points[i:i + TRI_BLOCK, None] - points[None], axis=2)
        for i in range(0, len(points), TRI_BLOCK)])
    return pd, float(pd.max())


def _image_diameter(images):
    """The largest distance between rows of an (n, k) image array, from
    the images that can reach it (see log_lip_pass)."""
    rho = np.sqrt(sq_norms(images, images.mean(axis=0)))
    far = int(np.argmax(rho))
    d0 = math.sqrt(float(sq_norms(images, images[far]).max()))
    rho_max = float(rho[far])
    bar = d0 - rho_max - (4.0 * CEIL_SLACK * rho_max + 2.0 ** -500)
    return max(d0, set_diameter(images[~(rho < bar)]))


def log_lip_pass(pd, big_r, images, m_const):
    """Pointwise Holder ceilings and log-Lipschitz defect signs of n atoms
    under one map, from the pairs that can bind; returns (alpha, positive).

    pd holds the atoms' n x n distances and big_r = R their largest, as
    log_lip_distances returns them, and images their (n, k) images.  With
    im the image distances and the normalizer N = 2 max im, or N = 1 when
    every image coincides (any positive N gives the same ceilings there),
    alpha_i is holder_ceiling(pd_i / N, im_i / N, M) over row i, bit for
    bit what the whole n x n matrices give.  Every image distance formed
    is summed coordinate by coordinate as sq_norms sums it, so it is the
    float those matrices hold.  pd must be bit-symmetric and below 2^512,
    as a distance matrix taken entry by entry from finite squares is; the
    image distances are symmetric, since a - b and b - a square alike.

    positive_i, True when no partner j (pd_ij > 0) has im_ij = 0, is the
    defect's sign c_hat_i > 0, where c_hat_i = min im_ij / f_ij over the
    partners (inf without one) and f = log_lipschitz_modulus(pd, R, eta,
    theta) at any eta > 1 and theta > 0.  On 0 < pd <= R, fl(2R/pd) >= 2,
    so the log and its power are at least 1 (or inf) and f lies in
    [0, pd], never NaN.  A positive im is at least 2^-537 (the root of a
    sum of squares of at least 2^-1074) and pd < 2^512, so
    im / f >= im / pd > 2^-1049, or is inf; if im = 0, im / f is 0 or NaN.

    The normalizer.  Let rho_i be the distance of image i from the
    images' centroid, f an image of largest rho and D0 its largest image
    distance, so max im >= D0.  A pair at distance at least D0 has
    rho_a + rho_b >= D0 (the triangle inequality), so both its rho are at
    least D0 - max rho.  A computed distance lies within k + 4 units of
    rounding, relative, of its exact value, and within sqrt(k) 2^-537
    where squares are subnormal, and D0 <= 2 max rho up to rounding; so
    the bar is lowered by 4 CEIL_SLACK max rho + 2^-500, which outweighs
    both for any k below 10^6.  set_diameter of the images
    not below the bar sums each pair as the pass does and takes the
    largest, over a set that holds every pair that can reach D0: it is
    max im.

    The candidates are the pairs with pd > fl(lo im), where
    lo = M (1 - CEIL_SLACK).  They hold every pair that binds,
    fl(pd/N) > fl(M fl(im/N)).  Let
    u = 2^-53 and take a pair that is not a candidate.  If im = 0, then
    pd = 0 and the pair does not bind.  As a positive im is at least
    2^-537 and N <= 2^485 (checked here), im/N is a normal float:
    fl(im/N) >= (im/N)(1 - u).  As M is finite, so is fl(lo im), and
    pd <= fl(lo im) <= M (1 - CEIL_SLACK)(1 + u)^3 im <= M (1 - u) im, so
    pd/N <= M fl(im/N) and, rounding being monotone, fl(pd/N) <=
    fl(M fl(im/N)).

    Which pairs are met.  Let r = max(R / lo, 2^-500)(1 + CEIL_SLACK).  A
    candidate has fl(lo im) < pd <= R, so im < R / (lo (1 - u)); each
    coordinate difference's square is at most the sum, so the difference
    is at most im / (1 - u)^(3/2) < r, or below 2^-511 where its square
    is subnormal.  An exact collision has every
    coordinate difference below 2^-537 (its square rounds to 0), so below
    r too.  grid_ranges meets every pair whose first min(k, 3) coordinates
    each differ by at most r, once.  Its squares are summed coordinate by
    coordinate, and the pair is dropped once the partial sum exceeds r^2:
    sums of squares never fall as terms are added, so then im > R / lo by
    the slack, fl(lo im) >= R >= pd, and the pair is neither a candidate
    nor a collision.  pd is read only for the pairs that are kept.

    The pairs are met DECODE_PAIRS at a time (block_end), so memory stays
    bounded when every image is within reach of every other (k = 1,
    M = 1).  The exact collisions of distinct atoms clear positive at
    both ends.  holder_ceiling scores the candidates, one pair a row, and
    each atom takes the least ceiling of its pairs; the floor at 0
    commutes with that minimum.

    Buffers are allocated per call, so maps can run on parallel threads.
    """
    check_holder_budget(m_const)
    images = np.asarray(images, dtype=float)
    n, k = images.shape
    top = _image_diameter(images)
    normalizer = 2.0 * top if top > 0.0 else 1.0
    if not normalizer <= 2.0 ** 485:
        raise ValueError("image distances beyond 2^484 leave the range "
                         "where the candidate pairs are certified")
    lo = m_const * (1.0 - CEIL_SLACK)
    reach = max(big_r / lo, 2.0 ** -500) * (1.0 + CEIL_SLACK)
    reach2 = reach * reach
    order, first, begin, count = grid_ranges(
        [images[None, :, c] for c in range(min(k, 3))], np.array([reach]))
    cols = [images[order, c] for c in range(k)]
    positive = np.ones(n, dtype=bool)
    cand = [(np.empty(0, np.int64),) * 2 + (np.empty(0),) * 2]
    stop = np.cumsum(count)
    r = 0
    while r < len(count):
        t = block_end(stop, r, DECODE_PAIRS)
        reps = count[r:t]
        i = np.repeat(first[r:t], reps)
        j = ranges(begin[r:t], reps)
        im = np.zeros(len(i))
        for x in cols:
            d = x[i]
            d -= x[j]
            d *= d
            im += d
            near = im <= reach2
            if not near.all():
                near = np.flatnonzero(near)
                i, j, im = i[near], j[near], im[near]
        np.sqrt(im, out=im)
        a, b = order[i], order[j]
        part = pd.take(a * n + b)
        hit = (im == 0.0) & (part > 0.0)
        positive[a[hit]] = False
        positive[b[hit]] = False
        keep = np.flatnonzero(part > lo * im)
        cand.append((a[keep], b[keep], part[keep], im[keep]))
        r = t
    i, j, pd_c, im_c = (np.concatenate(parts) for parts in zip(*cand))
    ceil = holder_ceiling(pd_c[:, None] / normalizer,
                          im_c[:, None] / normalizer, m_const)
    alpha = np.full(n, np.inf)
    np.minimum.at(alpha, i, ceil)
    np.minimum.at(alpha, j, ceil)
    return alpha, positive


def decode_recoveries(points, weights, rows, noise, noise_rng):
    """Weighted share of atoms that nearest-image decoding recovers, for
    each map of an (m, k, N) stack, in stack order.

    Under each map every image L p_i is moved by noise times a uniform unit
    vector drawn from noise_rng, to y_i.  Atom i is recovered only if its
    own clean image is strictly the nearest to y_i: it fails when some
    j != i has |y_i - L p_j|^2 <= |y_i - L p_i|^2, squares summed
    coordinate by coordinate as sq_norms sums them.  So an exact tie, as
    between coincident atoms, is a failure.  The maps share the stream, so
    they are taken in order.

    No tree is built.  Atom j can beat atom i only if
    |L p_j - L p_i| <= 2 |y_i - L p_i| <= 2 reach, with reach the map's
    largest own distance, taken from the computed points (y_i holds
    rounding of the order of |L p_i| 2^-52, which a tiny noise does not
    dominate).  So only pairs whose clean images share or touch a cell of
    side above 2 reach on the first two coordinates (the one coordinate of
    a one-row map) are scored (grid_ranges), in both directions.  The
    squares of a pair are summed one coordinate at a time and the pair is
    dropped once the partial sum exceeds the own distance: a sum of
    squares never falls as terms are added, so the verdict is that of the
    whole sum.

    The maps are taken DECODE_BLOCK images at a time and the pairs
    DECODE_PAIRS at a time.  A block's images are the products
    points @ L.T of its maps one by one, and its noise is one draw of the
    stream normalized row by row, so every bit is that of one map alone.
    """
    n, k = len(points), rows.shape[1]
    per = max(1, DECODE_BLOCK // n)
    recoveries = []
    for s in range(0, len(rows), per):
        ops = rows[s:s + per]
        imgs = np.empty((len(ops), n, k))
        for b, op in enumerate(ops):
            np.matmul(points, op.T, out=imgs[b])
        y = noise_rng.standard_normal(imgs.shape)
        y /= np.linalg.norm(y, axis=2, keepdims=True)
        y *= noise
        y += imgs
        own = sq_norms(y, imgs)
        order, first, begin, count = grid_ranges(
            [imgs[..., c] for c in range(min(k, 2))],
            2 * np.sqrt(own.max(axis=1)))
        own = own.ravel()[order]
        cols = [(y[..., c].ravel()[order], imgs[..., c].ravel()[order])
                for c in range(k)]
        lost = np.zeros(len(order), bool)
        stop = np.cumsum(count)
        r = 0
        while r < len(count):
            t = block_end(stop, r, DECODE_PAIRS)
            reps = count[r:t]
            i = np.repeat(first[r:t], reps)
            j = ranges(begin[r:t], reps)
            for a, b in ((i, j), (j, i)):
                bound, d2 = own[a], np.zeros(len(a))
                for yc, cc in cols:
                    d = yc[a]
                    d -= cc[b]
                    d *= d
                    d2 += d
                    near = np.flatnonzero(d2 <= bound)
                    a, b, d2, bound = a[near], b[near], d2[near], bound[near]
                lost[order[a]] = True
            r = t
        for row in lost.reshape(len(ops), n):
            recoveries.append(float(weights[~row].sum()))
    return recoveries
