"""Slow, direct oracles that the tests hold the package's fast paths to.

* BitWord and pi_encode: blocked-digit words and their dyadic encodings,
  bit by bit in exact rationals.
* pair_problems: what one pair of words violates in the digit lemma, in
  Python integers.
* parabola_lift_oracle: the parabola lift of the blocked-digit measure,
  word by word.
* greedy_cover_loop: the greedy closed-ball cover one index at a time,
  one KD-tree ball query per center.
* min_nn_distance: the least positive nearest-neighbour distance, by
  KD-tree.
* separated_filter_oracle: first-come thinning from a KD-tree's close
  pairs.
* ball_rows_oracle: unit-ball rows normalized and scaled in one shot.
* transversality_oracle: the tail table of |Lx| from the norm of the
  whole stack's images.
* decode_recoveries_oracle: nearest-image decoding by an unbounded
  KD-tree query.
* decode_brute_force_oracle: nearest-image decoding over all N^2 image
  distances, an exact tie a failure.
* modulus_oracle: the inverse continuity modulus over every pair, in
  blocks of base points.
* image_sq_norms and origin_ceiling_scorer: squared image norms of a
  whole net, chunk by chunk, and the Holder ceilings at its origin from
  them.
* log_lip_pass_oracle: log-lip's ceilings and defect signs of one map
  over every image distance, in blocks of rows.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from projlab.embedding import CEIL_SLACK, check_holder_budget, holder_ceiling
from projlab.grid import sq_norms

MODULUS_BLOCK = 1 << 18  # map x pair entries per block of modulus_oracle
CEIL_CHUNK = 4096  # points per chunk in origin_ceiling_scorer
IMAGE_CHUNK = 1 << 14  # points per product in image_sq_norms
TRI_ROWS = 64  # rows per block in log_lip_pass_oracle


@dataclass(frozen=True)
class BitWord:
    """0/1 word of even length, bits indexed from 1, grouped in pairs.

    Block n consists of positions (2n-1, 2n); the word is admissible when
    every odd (left) position is 0, so all information sits in the right
    bits.
    """

    bits: tuple

    def __post_init__(self):
        if len(self.bits) == 0 or len(self.bits) % 2 != 0:
            raise ValueError("word length must be a positive even number")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @classmethod
    def from_right_bits(cls, right_bits):
        bits = []
        for b in right_bits:
            bits += [0, int(b)]
        return cls(tuple(bits))

    @classmethod
    def from_pattern(cls, r, n_blocks):
        """The admissible word whose block n has right bit n-1 of r."""
        return cls.from_right_bits([(r >> n) & 1 for n in range(n_blocks)])

    def to_string(self):
        return " ".join(
            "%d%d" % (self.bits[2 * n], self.bits[2 * n + 1])
            for n in range(self.n_blocks)
        )

    @property
    def n_blocks(self):
        return len(self.bits) // 2

    def right_bits(self):
        return tuple(self.bits[2 * n + 1] for n in range(self.n_blocks))


def pi_encode(word):
    """Binary-expansion encoding: word -> sum of bit_j * 2^-j, exactly."""
    num = 0
    length = len(word.bits)
    for j, b in enumerate(word.bits, start=1):
        num += b << (length - j)
    return Fraction(num, 1 << length)


def word_ints(depth):
    """Integer encodings (MSB = position 1) of the depth-block admissible
    words, indexed by right-bit pattern."""
    return [int(pi_encode(BitWord.from_pattern(r, depth)) * 4**depth)
            for r in range(1 << depth)]


def pair_problems(x, y, z, depth):
    """What one pair of words violates: x and y are the integer encodings
    of two depth-block words, z the adder's sum.  The sum escaping [0, 1)
    ends the list; otherwise the first prefix carry and every failing
    block check are named."""
    length = 2 * depth
    if z >= (1 << length):
        return ["sum escapes [0,1)"]
    bad = []
    for k in range(1, length + 1):
        shift = length - k + 1
        if (x >> (shift - 1)) & 1 or (y >> (shift - 1)) & 1:
            continue
        if z >> shift != (x >> shift) + (y >> shift):
            bad.append("prefix carry at position %d" % k)
            break
    for n in range(1, depth + 1):
        zl = (z >> (length - 2 * n + 1)) & 1
        zr = (z >> (length - 2 * n)) & 1
        xr = (x >> (length - 2 * n)) & 1
        yr = (y >> (length - 2 * n)) & 1
        if 2 * zl + zr != xr + yr:
            bad.append("block value mismatch at block %d" % n)
        if (zl, zr) == (1, 1):
            bad.append("infeasible block (1,1) at block %d" % n)
        elif (zl, zr) == (0, 0) and not (xr == 0 and yr == 0):
            bad.append("(0,0) block fails to force zeros")
        elif (zl, zr) == (1, 0) and not (xr == 1 and yr == 1):
            bad.append("(1,0) block fails to force ones")
        elif (zl, zr) == (0, 1) and xr + yr != 1:
            bad.append("(0,1) block fails exactly-one")
    return bad


def parabola_lift_oracle(p, n_blocks):
    """(points, weights) of the parabola lift, word by word: atom r
    is the word with right-bit pattern r at (x, x^2), x = pi_encode, with
    weight p^ones (1-p)^zeros / total in exact rationals, then renormalized
    in floats."""
    p = Fraction(p)
    words = [BitWord.from_pattern(r, n_blocks) for r in range(1 << n_blocks)]
    xs = [pi_encode(w) for w in words]
    by_ones = [p**k * (1 - p) ** (n_blocks - k) for k in range(n_blocks + 1)]
    weights = [by_ones[sum(w.right_bits())] for w in words]
    total = sum(weights)
    w = np.array([float(wt / total) for wt in weights])
    w /= w.sum()
    points = np.array([[float(x), float(x * x)] for x in xs])
    return points, w


def greedy_cover_loop(pts, delta):
    """The greedy cover one index at a time, one KD-tree ball query per
    center: the slow reference for covering_number's (count, centers)."""
    from scipy.spatial import cKDTree

    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    tree = cKDTree(pts)
    covered = np.zeros(len(pts), dtype=bool)
    centers = []
    for pos in range(len(pts)):
        if covered[pos]:
            continue
        centers.append(pos)
        covered[tree.query_ball_point(pts[pos], delta)] = True
    return len(centers), centers


def min_nn_distance(pts):
    """Minimum positive nearest-neighbor distance (the resolution scale),
    by KD-tree: inf below two points, 0.0 when every point has a twin."""
    from scipy.spatial import cKDTree

    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if len(pts) < 2:
        return np.inf
    nn = cKDTree(pts).query(pts, k=2)[0][:, 1]
    positive = nn[nn > 0]
    return float(positive.min()) if len(positive) else 0.0


def separated_filter_oracle(pts, ell):
    """The points that no point kept before them lies within
    ell (1 - 1e-12) of, from every close pair of a KD-tree: in increasing
    first index, a point not yet dropped drops its partner.  The slow
    reference for constructions._separated_filter."""
    from scipy.spatial import cKDTree

    close = cKDTree(pts).query_pairs(ell * (1 - 1e-12), output_type="ndarray")
    drop = np.zeros(len(pts), dtype=bool)
    for a, b in close[np.argsort(close[:, 0])]:
        if not drop[a]:
            drop[b] = True
    return pts[~drop]


def ball_rows_oracle(n_rows, dim, rng):
    """n_rows uniform draws from the closed unit ball of R^dim, every
    gaussian, norm and radius taken in one whole-array operation."""
    g = rng.standard_normal((n_rows, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rng.uniform(0.0, 1.0, size=n_rows) ** (1.0 / dim)
    return g * r[:, None]


def transversality_oracle(x, eps_grid, rows):
    """(eps, count) rows of |Lx| <= eps in decreasing eps, and the
    constants freq * |x|^k / eps^k, over an (m, k, N) stack of maps."""
    x = np.asarray(x, dtype=float)
    n_maps, k = rows.shape[:2]
    stat = np.linalg.norm(rows @ x, axis=1)
    xnorm = float(np.linalg.norm(x))
    table = [(float(e), int(np.count_nonzero(stat <= e)))
             for e in sorted(eps_grid, reverse=True)]
    return table, [(c / n_maps) * xnorm**k / e**k for e, c in table]


def decode_recoveries_oracle(points, weights, rows, noise, noise_rng):
    """Per-map weighted share of atoms whose noisy image (noise times a
    unit gaussian direction, map after map) has its own clean image
    nearest, by an unbounded KD-tree query."""
    from scipy.spatial import cKDTree

    recoveries = []
    for ops in rows:
        imgs = points @ ops.T
        g = noise_rng.standard_normal(imgs.shape)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        _, idx = cKDTree(imgs).query(imgs + noise * g, k=1)
        recoveries.append(float(weights[idx == np.arange(len(points))].sum()))
    return recoveries


def decode_brute_force_oracle(points, weights, rows, noise, noise_rng):
    """Per-map weighted share of atoms whose noisy image (noise times a
    unit gaussian direction, map after map) is strictly nearer to the
    atom's own clean image than to any other atom's, every one of the N^2
    squared distances summed coordinate by coordinate.  An exact tie, as
    between coincident atoms, is a failure."""
    recoveries = []
    for ops in rows:
        imgs = points @ ops.T
        g = noise_rng.standard_normal(imgs.shape)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        y = imgs + noise * g
        d2 = np.zeros((len(points), len(points)))
        for c in range(imgs.shape[1]):
            d2 += np.square(y[:, None, c] - imgs[None, :, c])
        own = d2.diagonal().copy()
        np.fill_diagonal(d2, np.inf)
        recovered = (d2 > own[:, None]).all(axis=1)
        recoveries.append(float(weights[recovered].sum()))
    return recoveries


def modulus_oracle(points, ops, delta_grid):
    """eps(delta) = smallest image distance among pairs at least delta apart.

    ops is a stack of maps, an (m, k, N) array such as sample_e_batch
    returns; the result is a list of m tables of (delta, eps) rows, in
    stack order.  Deltas that no pair reaches are cut from every table
    alike.

    The pass runs over blocks of base points.  Point distances and the
    far-pair masks of a block are found once for the whole stack; image
    distances are direct differences of the images, so a small minimum is
    never the cancellation residue of a Gram identity.  A block takes as
    many base points as keep its map x pair entries within MODULUS_BLOCK,
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
    rows = max(1, MODULUS_BLOCK // (m * n))
    buf = np.empty(m * rows * n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        # partners j > i only, so the block's columns begin at its first row
        pd = np.sqrt(sq_norms(points[start:stop, None], points[None, start:]))
        near = np.arange(start, n) <= np.arange(start, stop)[:, None]
        im2 = sq_norms(images[:, start:stop, None], images[:, None, start:],
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
        sq_norms(imgs.T, out=sq_im[s:s + IMAGE_CHUNK])
        if a < b:
            kept[a:b] = imgs[:, keep[a:b] - s].T
    return sq_im, kept


def log_lip_pass_oracle(pd, images, m_const, rows=TRI_ROWS):
    """log_lip_pass(pd, pd.max(), images, m_const) over every pair: each
    block of rows forms its image distances against the columns from its
    first row on.

    A block gives its image distances, summed coordinate by coordinate
    from a (k, n) copy of the images, their running maximum, the exact
    collisions of distinct atoms, which clear positive at both ends, and
    as candidates the pairs with pd > fl(lo im), lo = M (1 - CEIL_SLACK).
    Once N = 2 max im is known (1 when every image coincides),
    holder_ceiling scores the candidates, one pair a row, and each atom
    takes the least ceiling of its pairs.
    """
    check_holder_budget(m_const)
    images_t = np.ascontiguousarray(np.asarray(images, dtype=float).T)
    n = images_t.shape[1]
    lo = m_const * (1.0 - CEIL_SLACK)
    positive = np.ones(n, dtype=bool)
    top = 0.0
    cand = []
    buf = np.empty(rows * n)
    for s in range(0, n, rows):
        e = min(s + rows, n)  # rows s..e-1 against columns s..n-1
        im = sq_norms(images_t[:, s:e].T[:, None], images_t[:, s:].T[None],
                       out=buf[:(e - s) * (n - s)].reshape(e - s, n - s))
        np.sqrt(im, out=im)
        top = max(top, float(im.max()))
        part = pd[s:e, s:]
        r, c = np.nonzero(im == 0.0)  # the diagonal, and exact collisions
        hit = part[r, c] > 0.0
        positive[r[hit] + s] = False
        positive[c[hit] + s] = False
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
    return alpha, positive
