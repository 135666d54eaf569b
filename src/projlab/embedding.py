"""Quantitative behavior of linear images of point sets.

Everything here asks one of two questions about a map image:

* collisions: which well-separated pairs land close together, how does
  the chance of that scale in the tolerance, and what does it cost to
  invert the map on the set (inverse continuity modulus, pointwise
  Holder ceilings, the log-Lipschitz modulus)?
* transversality: how likely is a random map to send a fixed vector
  eps-close to the origin?

No estimator draws maps: each takes the maps, or the images under them,
that its caller drew, so every one is a deterministic function of its
arguments.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .dimension import fit_loglog

PAIR_BLOCK = 2048
STACK_BLOCK = 1 << 18  # float64 entries per map-stack block (2 MB)
MAP_BLOCK = 32  # maps per block in collision_probability
CEIL_CHUNK = 4096  # points per chunk in origin_ceiling_scorer
IMAGE_CHUNK = 1 << 14  # points per product in image_sq_norms
TRI_BLOCK = 64  # rows per block in log_lip_pass
CEIL_SLACK = 1e-9  # relative raise of the bound c* before thresholds form
HULL_TOL = 1e-9  # hull_vertices' plane tolerance, relative to the top norm
HULL_SCAN_MAX = 48  # candidates per facet scan in hull_vertices


def __getattr__(name):
    """ConvexHull, from scipy.spatial on first use.  Nothing here builds a
    hull through this name (hull_vertices imports Qhull itself, only where
    its certificate cannot decide); the name resolves only because
    perfbench/traced.py reads it and puts its counting wrapper in its
    place.  Resolving it lazily keeps the import of scipy.spatial, which
    costs more than the rest of the package, out of every untraced run."""
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


def _tail_table(stat, eps_grid):
    """How many entries of stat are at most eps, for each eps of the grid.

    Returns the (eps, count) rows in decreasing eps and the log2-log2 fit
    of the frequency count / len(stat) against eps over the rows with
    events, as {slope, intercept, r_squared}; the fit is None with fewer
    than three such rows.
    """
    eps_grid = np.sort(np.asarray(eps_grid, dtype=float))[::-1]
    table = [(float(e), int(np.count_nonzero(stat <= e))) for e in eps_grid]
    positive = [(e, c / len(stat)) for e, c in table if c > 0]
    if len(positive) < 3:
        return table, None
    slope, intercept, r2 = fit_loglog(*map(np.array, zip(*positive)))
    # fit_loglog regresses against log2(1/eps); event frequency grows
    # with eps, so flip to report d log2(freq) / d log2(eps)
    return table, {"slope": -slope, "intercept": intercept, "r_squared": r2}


def collision_probability(points, base_index, delta, eps_grid, rows):
    """Chance over a stack of maps that some far point lands eps-close to
    the base point's image.

    rows is an (m, k, N) stack of maps.  For each map the statistic is the
    minimum image distance from the base to the points at distance
    >= delta; the per-eps count is how many maps push that minimum below
    eps.  Returns the counts and a log2-log2 fit of frequency against eps.

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
        min2[s:s + MAP_BLOCK] = _sq_norms(images).min(axis=1)
    mins = np.sqrt(min2)
    table, fit = _tail_table(mins, eps_grid)
    return {
        "n_maps": len(rows),
        "n_far": int(len(far)),
        "points_hash": points_provenance(points),
        "table": table,
        "min_distances": mins,
        "fit": fit,
    }


def transversality_fraction(x, eps_grid, rows):
    """Empirical P(|Lx| <= eps) over an (m, k, N) stack of maps.

    Returns per-eps counts, the log2-log2 slope of the frequency, and the
    calibrated constant C = max over the grid of freq * |x|^k / eps^k.
    """
    x = np.asarray(x, dtype=float)
    n_maps, k = rows.shape[:2]
    table, fit = _tail_table(np.linalg.norm(rows @ x, axis=1), eps_grid)
    xnorm = float(np.linalg.norm(x))
    c_values = [(c / n_maps) * xnorm**k / e**k for e, c in table]
    return {
        "x_norm": xnorm,
        "table": table,
        "fit": fit,
        "c_hat": float(max(c_values)),
        "c_by_eps": [float(c) for c in c_values],
    }


def _sq_norms(a, b=None, out=None):
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


def inverse_continuity_modulus(points, ops, delta_grid):
    """eps(delta) = smallest image distance among pairs at least delta apart.

    ops is a stack of maps, an (m, k, N) array such as sample_e_batch
    returns; the result is a list of m tables of (delta, eps) rows, in
    stack order.  Deltas that no pair reaches are cut from every table
    alike.

    The pass runs over blocks of base points.  Point distances and the
    far-pair masks of a block are found once for the whole stack; image
    distances are direct differences of the images, so a small minimum is
    never the cancellation residue of a Gram identity.  A block takes as
    many base points as keep its map x pair entries within STACK_BLOCK,
    and at least one.

    Nondecreasing in delta by construction (shrinking the pair set can only
    raise the minimum).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ops = np.asarray(ops, dtype=float)
    if ops.ndim != 3:
        raise ValueError("ops must be an (m, k, N) stack of maps")
    images = np.ascontiguousarray(points @ np.swapaxes(ops, 1, 2))
    delta_grid = np.sort(np.asarray(delta_grid, dtype=float))
    m, n = images.shape[:2]
    min2 = np.full((len(delta_grid), m), np.inf)
    count = np.zeros(len(delta_grid), dtype=np.int64)
    rows = max(1, STACK_BLOCK // (m * n))
    buf = np.empty(m * rows * n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        # partners j > i only, so the block's columns begin at its first row
        pd = np.sqrt(_sq_norms(points[start:stop, None], points[None, start:]))
        near = np.arange(start, n) <= np.arange(start, stop)[:, None]
        im2 = _sq_norms(images[:, start:stop, None], images[:, None, start:],
                        out=buf[:m * pd.size].reshape((m,) + pd.shape))
        for j, d in enumerate(delta_grid):
            near |= pd < d  # deltas ascend, so the far sets shrink
            count[j] += near.size - np.count_nonzero(near)
            im2[:, near] = np.inf
            np.minimum(min2[j], im2.reshape(m, -1).min(axis=1), out=min2[j])
    if count[0] == 0:
        raise ValueError("no pairs at the smallest delta")
    reached = delta_grid[count > 0]  # counts fall with delta: a prefix
    return [[(float(d), math.sqrt(float(e))) for d, e in zip(reached, col)]
            for col in min2[:len(reached)].T]


def check_holder_budget(m_const):
    """Refuse a Holder budget M below 1."""
    if m_const < 1:
        raise ValueError("M must be at least 1 (normalized distances)")


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


def _chunk_argmins(values, chunk):
    """Index of the first least entry of each chunk-long chunk of a 1-D
    array, the last chunk ragged."""
    whole = len(values) - len(values) % chunk
    idx = values[:whole].reshape(-1, chunk).argmin(axis=1) \
        + np.arange(0, whole, chunk)
    if whole < len(values):
        idx = np.append(idx, whole + values[whole:].argmin())
    return idx


def origin_ceiling_scorer(pd):
    """A function score(sq_im, normalizer, m_grid) that returns
    holder_ceiling(pd / normalizer, sqrt(sq_im) / normalizer, M) as a
    float for each M of m_grid, bit for bit, with exact ceilings taken only
    on a candidate set that holds every arg-min.

    pd holds the distances of a set's points from a base point and sq_im,
    one map's squared image distances of the same points.  The set is cut
    into chunks of CEIL_CHUNK points, whose largest distances are taken
    once here.  Let P be a chunk's largest normalized pd.  The bound: in a
    chunk with P <= M/2 a point binds only if im < pd/M <= 1/2, and then
    its ceiling log2(pd/M) / log2(im) is positive and grows with im; as
    log2(pd/M) <= log2(P/M) < 0, every binding point with
    im >= tau = (P/M)^(1/c) has a ceiling of at least c.

    c* is the exact ceiling over each chunk's point of least image
    distance, an upper bound on the answer; c* = 0 is the answer.
    Otherwise tau takes c* raised by CEIL_SLACK, and only the points with
    im < tau are scored exactly, so a chunk whose least im is not below
    tau is skipped.  c* = inf (none of them binds) gives tau = 1, above
    every binding im.  A chunk with P > M/2 is kept whole: the bound needs
    P < M, and P <= M/2 keeps log2(P/M) a bit away from 0, so that the
    slack outweighs the rounding of the logs, the division and the power.
    tau is floored at the least normal float, where it would lose that
    precision; a binding point of a chunk with P/M below it has a smaller
    im anyway, and the floor keeps every exact collision.  The answer is
    the smaller of c* and the candidates' ceiling: a minimum over a
    superset of the arg-min is the same float.
    """
    chunk = CEIL_CHUNK
    pd_max = np.maximum.reduceat(pd, np.arange(0, len(pd), chunk))

    def score(sq_im, normalizer, m_grid):
        idx = _chunk_argmins(sq_im, chunk)
        pd_c = pd[idx] / normalizer
        im_c = np.sqrt(sq_im[idx]) / normalizer  # each chunk's least im
        top = pd_max / normalizer  # division is monotone: the chunks' P
        alphas = []
        for m in m_grid:
            c_star = float(holder_ceiling(pd_c, im_c, m))
            if c_star == 0.0:  # also keeps 1 / c* finite below
                alphas.append(c_star)
                continue
            with np.errstate(over="ignore"):  # only where 2 P > M, set below
                tau = (top / m) ** (1.0 / (c_star * (1.0 + CEIL_SLACK)))
            tau = np.maximum(tau, np.finfo(float).tiny)
            tau[2.0 * top > m] = np.inf
            parts = []
            for c in np.flatnonzero(im_c < tau):
                s = c * chunk
                near = np.sqrt(sq_im[s:s + chunk]) / normalizer < tau[c]
                parts.append(s + np.flatnonzero(near))
            if parts:
                keep = np.concatenate(parts)
                c_star = min(c_star, float(holder_ceiling(
                    pd[keep] / normalizer, np.sqrt(sq_im[keep]) / normalizer,
                    m)))
            alphas.append(c_star)
        return alphas

    return score


def image_sq_norms(op, points_t, keep):
    """Squared norms of the images op @ points_t of a (d, n) point array,
    and the (len(keep), k) images of its columns keep, in ascending order
    of keep.

    The product is taken IMAGE_CHUNK columns at a time, so that each
    chunk's images are squared and summed while they are in cache; a
    test pins every value, bit for bit, to that of the whole product on
    holder-ceiling's nets.
    """
    n = points_t.shape[1]
    keep = np.sort(keep)
    starts = range(0, n, IMAGE_CHUNK)
    cuts = np.searchsorted(keep, [*starts, n])
    sq_im = np.empty(n)
    kept = np.empty((len(keep), len(op)))
    for s, a, b in zip(starts, cuts, cuts[1:]):
        imgs = op @ points_t[:, s:s + IMAGE_CHUNK]
        _sq_norms(imgs.T, out=sq_im[s:s + IMAGE_CHUNK])
        if a < b:
            kept[a:b] = imgs[:, keep[a:b] - s].T
    return sq_im, kept


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
    length = np.sqrt(_sq_norms(normal))
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


def set_diameter(points):
    """Exact diameter of a point array, by a direct scan over blocks of
    PAIR_BLOCK rows.

    The scan costs a pass over all pairs.  The diameter is attained on
    convex-hull vertices, so a caller with a large set reduces it to its
    hull_vertices first, as holder-ceiling's _holder_leg does once per net.
    On a line the scan's largest distance is fl(sqrt(fl(x^2))) = |x| at the
    extreme pair, that is fl(max - min), outside overflow and underflow.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return max((float(np.sqrt(_sq_norms(points[s:s + PAIR_BLOCK, None],
                                        points[None]).max()))
                for s in range(0, len(points), PAIR_BLOCK)), default=0.0)


def log_lipschitz_modulus(u, big_r, eta, theta):
    """The modulus f(u) = u / log2(2R/u)^(eta/theta) at distances u >= 0.

    Needs eta > 1 and theta > 0; f(0) = 0.  f is increasing on (0, R], so
    R should be at least every distance u it is given.
    """
    if eta <= 1:
        raise ValueError("eta must exceed 1")
    if theta <= 0:
        raise ValueError("theta must be positive")
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return u / np.log2(2.0 * big_r / u) ** (eta / theta)


def log_lip_pass(pd, f_mod, images, m_const):
    """Pointwise Holder ceilings and log-Lipschitz defects of n atoms
    under one map, in one pass over the pairs.

    pd and f_mod are the atoms' n x n distances and modulus values f(pd),
    images their (n, k) images.  With im the image distances and the
    normalizer N = 2 max im, or N = 1 when every image coincides (any
    positive N gives the same ceilings there), atom i gets alpha_i,
    holder_ceiling(pd_i / N, im_i / N, M) over its row, and c_hat_i, the
    least im_ij / f_ij over its partners (pd_ij > 0), inf without one:
    both bit for bit what the whole n x n matrices give.  Returns
    (alpha, c_hat).

    The pass walks blocks of TRI_BLOCK rows over the columns from the
    block's first row on, so that a block's arrays stay in cache.  pd and
    f_mod must be bit-symmetric and pd below 2^512, as a distance matrix
    taken entry by entry from finite squares is; the image distances are
    symmetric, since a - b and b - a square alike.  A
    minimum is exact, so each row's minimum is the smaller of its part
    right of the diagonal and its column part above it.  A block gives its
    image distances, summed coordinate by coordinate from a (k, n) copy of
    the images, their running maximum, the c_hat minima, and as candidates
    the pairs with pd > z = fl(lo im), lo = M (1 - CEIL_SLACK).  Once N is
    known, holder_ceiling scores the candidates, one pair a row, and each
    atom takes the least ceiling of its pairs; the floor at 0 commutes with
    that minimum.

    The candidates hold every pair that binds, fl(pd/N) > fl(M fl(im/N)).
    Let u = 2^-53 and take a pair that is not a candidate.  If im = 0, then
    pd = 0 (or M = inf, where neither test can hold) and the pair does not
    bind.  A positive im is the root of a sum of squares of at least
    2^-1074, so im >= 2^-537, and as N <= 2^485 (checked here) im/N is a
    normal float: fl(im/N) >= (im/N)(1 - u).  If z is finite, then pd <= z
    <= M (1 - CEIL_SLACK)(1 + u)^3 im <= M (1 - u) im, so pd/N <=
    M fl(im/N) and, rounding being monotone, fl(pd/N) <= fl(M fl(im/N)).
    If z overflows, M im exceeds 2^1023 > pd, and the pair cannot bind.

    Buffers are allocated per call, so maps can run on parallel threads.
    """
    check_holder_budget(m_const)
    images_t = np.ascontiguousarray(np.asarray(images, dtype=float).T)
    n = images_t.shape[1]
    lo = m_const * (1.0 - CEIL_SLACK)
    c_hat = np.full(n, np.inf)
    top = 0.0
    cand = []
    buf = np.empty(TRI_BLOCK * n)
    for s in range(0, n, TRI_BLOCK):
        e = min(s + TRI_BLOCK, n)  # rows s..e-1 against columns s..n-1
        im = _sq_norms(images_t[:, s:e].T[:, None], images_t[:, s:].T[None],
                       out=buf[:(e - s) * (n - s)].reshape(e - s, n - s))
        np.sqrt(im, out=im)
        top = max(top, float(im.max()))
        part = pd[s:e, s:]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = im / f_mod[s:e, s:]
        ratio[~(part > 0.0)] = np.inf
        np.minimum(c_hat[s:e], ratio.min(axis=1), out=c_hat[s:e])
        np.minimum(c_hat[s:], ratio.min(axis=0), out=c_hat[s:])
        r, c = np.nonzero(part > lo * im)
        upper = c > r  # the block's own lower triangle repeats its pairs
        cand.append((r[upper] + s, c[upper] + s, im[r[upper], c[upper]]))
    normalizer = 2.0 * top if top > 0.0 else 1.0
    if not normalizer <= 2.0 ** 485:
        raise ValueError("image distances beyond 2^484 leave the range "
                         "where the candidate pairs are certified")
    i, j, im_c = (np.concatenate(parts) for parts in zip(*cand))
    ceil = holder_ceiling(pd[i, j][:, None] / normalizer,
                          im_c[:, None] / normalizer, m_const)
    alpha = np.full(n, np.inf)
    np.minimum.at(alpha, i, ceil)
    np.minimum.at(alpha, j, ceil)
    return alpha, c_hat
