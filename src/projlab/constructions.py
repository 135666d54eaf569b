"""Constructions of the example sets and measures.

Three families live here:

* concentric sphere nets: on each shell of radius 2^-i a separated net at
  scale ell_i (ell_i = 2^(-t*i) or 2^(-i*i)), unioned over coordinate
  spheres and completed by the origin.  Box dimension k(t-1)/t for the
  power law, Assouad dimension k for the squared law.
* dyadic words with blocked digits: words whose odd-indexed bits vanish,
  their encodings as dyadic rationals, the product measure with right-bit
  probability p < 1/2, and the exact digit arithmetic (carry confinement,
  block forcing) that controls which sums x + y = z are possible.
* atom clouds: self-similar iterated-function-system measures, random
  s-sparse vectors, and a dense ball cloud with geometric weights.

Digit facts are verified in exact integer arithmetic; encodings and
weights are exact rationals until the final float conversion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dimension import covering_number
from .geom import AtomicMeasure, PointSet, normalized_measure
from .grid import ranges, sq_norms
from .linalg import ball_rows

PRECISION_FLOOR = 2.0**-40
SHELL_POINT_CAP = 700_000
FIB_DENSITY = 6.0  # points per (r/ell)^2 on a 2-sphere shell


# --- digit arithmetic ---


def _sigma_words(n_blocks):
    """Integer encodings (MSB = position 1) of all 2^n_blocks admissible
    words, as int64, indexed by right-bit pattern r: bit n-1 of r is block
    n's right bit, at position 2n."""
    r = np.arange(1 << n_blocks, dtype=np.int64)
    words = np.zeros_like(r)
    for n in range(1, n_blocks + 1):
        words |= ((r >> (n - 1)) & 1) << (2 * n_blocks - 2 * n)
    return words


def _corrupt_add(x, y, mode):
    if mode == 0:  # carries dropped entirely
        return x ^ y
    if mode == 1:  # carries land two positions up instead of one
        return (x ^ y) ^ ((x & y) << 2)
    return x + y + 1  # off by one ulp


def _problem_masks(x, y, z, depth):
    """What pairs of words violate, as (name, mask) pairs in report order.

    x and y are int64 arrays of encodings of depth-block words, z the
    adder's sums.  The first mask marks sums that escape [0, 1); every
    other mask is false there.  Then, per position k, the pairs whose
    first prefix carry is at k: both words hold a 0 at k, yet the top k-1
    bits of z are not the sum of theirs.  Then, per block n, the pairs
    whose block value 2 zl + zr differs from xr + yr, followed by the
    forcing rule that z's block (zl, zr) names.  As zl, zr, xr and yr are
    bits, that rule fails exactly when the value does: (1,1) always,
    (0,0), (0,1) and (1,0) when xr + yr is not 0, 1 and 2 respectively.
    """
    length = 2 * depth
    fits = z < (1 << length)
    masks = [("sum escapes [0,1)", ~fits)]
    either = x | y
    no_carry_yet = fits.copy()
    for k in range(1, length + 1):
        shift = length - k + 1
        carry = no_carry_yet & (((either >> (shift - 1)) & 1) == 0) \
            & (z >> shift != (x >> shift) + (y >> shift))
        masks.append(("prefix carry at position %d" % k, carry))
        no_carry_yet &= ~carry
    for n in range(1, depth + 1):
        low = length - 2 * n
        z_block = (z >> low) & 3
        wrong = fits & (z_block != ((x >> low) & 1) + ((y >> low) & 1))
        masks.append(("block value mismatch at block %d" % n, wrong))
        rules = ("(0,0) block fails to force zeros",
                 "(0,1) block fails exactly-one",
                 "(1,0) block fails to force ones",
                 "infeasible block (1,1) at block %d" % n)
        masks += [(rule, wrong & (z_block == value))
                  for value, rule in enumerate(rules)]
    return masks


def verify_digit_lemma(depth, corrupt_seed=None):
    """Exhaustive check of the carry-confinement and block-forcing facts.

    Runs over every ordered pair of admissible words with `depth` blocks,
    forms z = x + y exactly, and checks:

    * prefix identity: at each position k where both words carry a 0, the
      top k-1 bits of z equal the bit sum of the top k-1 bits of x and y
      (no carry crosses a double zero);
    * block forcing: no block of z reads (1,1); (0,0) forces both right
      bits 0, (1,0) forces both 1, (0,1) forces exactly one;
    * block-value identity: each block of z contributes exactly
      (x_right + y_right) * 2^-(2n).

    All pairs are checked at once in int64 arrays; the problems are
    spelled out for the first eight violating pairs, in (x, y) order.
    With corrupt_seed set, the adder is deliberately mutated (seeded
    choice of bug) and the report is expected to show violations.
    """
    if not 1 <= depth <= 8:
        raise ValueError("exhaustive check supports depths 1..8")
    n_words = 1 << depth
    mode = None if corrupt_seed is None else corrupt_seed % 3
    words = _sigma_words(depth)
    x = np.repeat(words, n_words)  # pair xi * n_words + yi
    y = np.tile(words, n_words)
    z = x + y if mode is None else _corrupt_add(x, y, mode)
    masks = _problem_masks(x, y, z, depth)
    bad = np.flatnonzero(np.any([mask for _, mask in masks], axis=0))
    examples = [{"x": i // n_words, "y": i % n_words,
                 "problems": [name for name, mask in masks if mask[i]]}
                for i in bad[:8].tolist()]
    return {
        "depth": depth,
        "pairs": n_words * n_words,
        "violations": len(bad),
        "corrupted": mode is not None,
        "examples": examples,
    }


BLOCK_BOTH_ZERO = "both_zero"
BLOCK_EXACTLY_ONE = "exactly_one"
BLOCK_BOTH_ONE = "both_one"
BLOCK_INFEASIBLE = "infeasible"

_BLOCK_TAGS = {
    (0, 0): BLOCK_BOTH_ZERO,
    (0, 1): BLOCK_EXACTLY_ONE,
    (1, 0): BLOCK_BOTH_ONE,
    (1, 1): BLOCK_INFEASIBLE,
}


def block_constraints(z, n_blocks):
    """Per-block tags of the target z in [0,1) for sums x + y = z.

    Tags state what a block of z forces on the right bits of the summands:
    both zero, both one, exactly one, or no solution at all.
    """
    frac = Fraction(z)
    if not 0 <= frac < 1:
        raise ValueError("z must lie in [0, 1)")
    tags = []
    for n in range(1, n_blocks + 1):
        left = int(frac * (1 << (2 * n - 1))) & 1
        right = int(frac * (1 << (2 * n))) & 1
        tags.append(_BLOCK_TAGS[(left, right)])
    return tags


def exceptional_set_membership(alpha, beta, r, n_blocks):
    """Whether the n_blocks-block word with right-bit pattern r can collide
    under the weighting (alpha, beta).

    Bit n-1 of r is block n's right bit, so r indexes the atoms of
    parabola_lift_measure(p, n_blocks).  The collision equation
    alpha*x + beta*y = 0 with encoded x, y reduces to x + y = z for
    z = -alpha/beta.  Finite-depth surrogate for the dichotomy that
    governs it:

    * z outside [0,1): sums of two encodings never reach z, not a member;
    * any block of z infeasible (1,1): no solutions, not a member;
    * some block forces bits ((0,0) or (1,0)): member iff the word matches
      the forced right bit on every such block;
    * all blocks free (0,1): member iff the fraction of right-bit ones over
      the represented blocks reaches 1/2 (frequency surrogate for the
      limsup set, which is null when p < 1/2).
    """
    if beta == 0:
        raise ValueError("beta must be nonzero")
    if not 0 <= r < 1 << n_blocks:
        raise ValueError("r must index one of the 2^n_blocks words")
    z = -Fraction(alpha) / Fraction(beta)
    if not 0 <= z < 1:
        return False
    tags = block_constraints(z, n_blocks)
    if BLOCK_INFEASIBLE in tags:
        return False
    rb = [(r >> n) & 1 for n in range(n_blocks)]
    forced = [(n, tag) for n, tag in enumerate(tags)
              if tag in (BLOCK_BOTH_ZERO, BLOCK_BOTH_ONE)]
    if forced:
        want = {BLOCK_BOTH_ZERO: 0, BLOCK_BOTH_ONE: 1}
        return all(rb[n] == want[tag] for n, tag in forced)
    return sum(rb) * 2 >= n_blocks


# --- the encoded measure and its parabola lift ---


def parabola_lift_measure(p, n_blocks):
    """Exact lift of the blocked-digit measure to the parabola.

    Enumerates all 2^n_blocks admissible words, atom r being the word with
    right-bit pattern r, encodes each as an exact dyadic x, and places
    weight p^ones (1-p)^zeros at (x, x^2).  The n_blocks + 1 weights, one
    per count of ones, are exact rationals until the float conversion; they
    sum to (p + (1-p))^n = 1.
    """
    if n_blocks < 1:
        raise ValueError("n_blocks must be at least 1")
    if n_blocks > 20:
        raise ValueError("refusing to enumerate more than 2^20 atoms")
    p = Fraction(p)
    if not 0 < p < Fraction(1, 2):
        raise ValueError("p must lie in (0, 1/2)")
    length = 2 * n_blocks
    words = _sigma_words(n_blocks)
    x = words / float(1 << length)  # exact: words < 2^40, a power-of-two scale
    by_ones = np.array([float(p**k * (1 - p) ** (n_blocks - k))
                        for k in range(n_blocks + 1)])
    w = by_ones[np.bitwise_count(words)]
    w /= w.sum()
    return AtomicMeasure(np.column_stack([x, x * x]), w)


def parabola_resolution(points):
    """Least nearest-neighbour distance of atoms (x, x^2) with distinct
    x >= 0, found without a tree.

    The squared distance from (x, x^2) to (y, y^2) is
    (x - y)^2 (1 + (x + y)^2).  For y >= x both factors grow with y.  For
    y = x - u, 0 <= u <= x, it is u^2 (1 + (2x - u)^2), whose derivative in
    u is 2u (1 + 2 (2x - u)(x - u)) > 0 for u > 0.  So on each side of x
    the distance grows with |x - y|, every nearest neighbour is adjacent
    in x order, and the least adjacent distance is the least
    nearest-neighbour distance (inf below two atoms).
    """
    pts = points[np.argsort(points[:, 0])]
    gaps = np.sqrt(sq_norms(pts[1:], pts[:-1]))
    return float(gaps[gaps > 0].min(initial=np.inf))


def word_entropy_dimension(p):
    """Expected local dimension of the blocked-word measures.

    Each block is a (1-p, p) coin and spans one length-4 scale, so the
    typical-atom mass decays like radius^(H(p)/log 4).
    """
    p = float(p)
    if not 0.0 < p < 0.5:
        raise ValueError("p must lie in (0, 1/2)")
    h = -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))
    return h / math.log(4.0)


# --- sphere nets ---


@dataclass(frozen=True)
class SphereNetSpec:
    """Concentric net family on the coordinate sphere S_J.

    Shell i has radius r_i = 2^-i and separation ell_i given by l_law:
    'pow2t' means 2^(-t*i), 'pow2sq' means 2^(-i*i).  J must pick k+1
    coordinates, so S_J is a k-dimensional sphere.
    """

    ambient_dim: int
    k: int
    J: tuple
    l_law: str = "pow2t"
    t: float = 2.0
    i_max: int = 8

    def __post_init__(self):
        if len(set(self.J)) != self.k + 1:
            raise ValueError("J must contain k+1 distinct coordinates")
        if any(not 0 <= j < self.ambient_dim for j in self.J):
            raise ValueError("J indexes outside the ambient space")
        if self.l_law not in ("pow2t", "pow2sq"):
            raise ValueError("unknown separation law %r" % self.l_law)
        if self.l_law == "pow2t" and self.t <= 1:
            raise ValueError("t must exceed 1")
        if self.i_max < 1:
            raise ValueError("i_max must be at least 1")
        if self.l_law == "pow2sq" and self.i_max > 6:
            raise ValueError("squared-exponent shells are capped at depth 6")
        if self.ell(self.i_max) < PRECISION_FLOOR:
            raise ValueError("separation at i_max sinks below the precision floor")
        for i in range(1, self.i_max + 1):
            if self.ell(i) > self.radius(i):
                raise ValueError("separation exceeds shell radius at depth %d" % i)

    def radius(self, i):
        return 2.0**-i

    def ell(self, i):
        if self.l_law == "pow2t":
            return 2.0 ** (-self.t * i)
        return 2.0 ** (-i * i)

    def precision_depth(self):
        """Deepest shell whose separation ell_i still passes PRECISION_FLOOR."""
        i = self.i_max
        while self.ell(i + 1) >= PRECISION_FLOOR:
            i += 1
        return i


GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def fibonacci_sphere(count):
    """Near-uniform lattice on the unit 2-sphere."""
    i = np.arange(count, dtype=float)
    z = 1.0 - (2 * i + 1) / count
    theta = GOLDEN_ANGLE * i
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])


def _separated_filter(pts, ell):
    """The points that no point kept before them lies within ell (1 - 1e-12)
    of (first come wins): the centers of the greedy cover at that delta,
    whose walk opens a center exactly when no earlier center's closed ball
    holds the point.  Its tie rule, squares summed coordinate by coordinate
    against delta * delta, is a KD-tree's pair test below eight coordinates.
    """
    _, kept = covering_number(pts, ell * (1 - 1e-12), return_centers=True)
    return pts[kept]


def _lattice_filter(pts, ell):
    """_separated_filter(pts, ell) for pts = fibonacci_sphere(n) @ q.T
    with q orthogonal: pts itself when the lattice's index offsets certify
    that no pair is close.

    Point i has height z_i = 1 - (2i+1)/n, radius rho_i = sqrt(1 - z_i^2)
    and angle g*i, g = GOLDEN_ANGLE.  For j = i + d the squared chord is

        (2d/n)^2 + (rho_i - rho_j)^2 + 2 rho_i rho_j (1 - cos g d)
            >= (2d/n)^2 + 2 min(rho_i, rho_j)^2 (1 - cos g d),

    so a pair closer than ell needs d < ell n / 2 and
    min(rho_i, rho_j)^2 < q_d = (ell^2 - (2d/n)^2) / (2 (1 - cos g d)).
    rho^2 < q_d means |z| > s_d = sqrt(1 - q_d); as z falls with the
    index, that puts i in the north cap z_i > s_d, the first
    h_d = (n (1 - s_d) - 1) / 2 indices, or j in the mirror south cap,
    the last h_d.  Only these pairs are candidates; their distances are
    taken on pts itself.

    Margins for the rounding: the computed angles g*i lie within
    spacing(g n) / 2 of their exact values, so 1 - cos g d is lowered by
    4 spacing(g n) + 1e-15; ell is raised by a relative 1e-6, against
    coordinate, rotation and distance errors of order 1e-15 (ell >= 1e-9
    is ample); each cap gets two more indices, against the rounding of z
    and of h_d.  So every close pair is a candidate.  When every candidate
    lies above the threshold ell (1 - 1e-12) by more than a relative 1e-9,
    which no difference in rounding between two distance routines bridges,
    no point is dropped and the lattice is returned as it is.  Otherwise
    the whole shell goes to _separated_filter.
    """
    n = len(pts)
    thr = ell * (1 - 1e-12)
    reach = ell * (1 + 1e-6)
    d = np.arange(1, min(n - 1, int(reach * n / 2) + 1) + 1)
    gap = reach * reach - (2.0 * d / n) ** 2
    d, gap = d[gap > 0], gap[gap > 0]
    bend = 1.0 - np.cos(GOLDEN_ANGLE * d) - (4 * np.spacing(GOLDEN_ANGLE * n)
                                             + 1e-15)
    with np.errstate(divide="ignore"):  # bend <= 0 gives q_d = inf
        q = gap / (2 * np.maximum(bend, 0))
    # 1 - s_d without cancellation; a cap with q_d >= 1 is the whole sphere
    lift = np.where(q < 1, q / (1 + np.sqrt(np.maximum(1 - q, 0))), 2.0)
    cap = np.ceil((n * lift - 1) / 2).astype(np.int64) + 2
    # per offset, i runs over [0, north) and [south, n - d), or over all of
    # [0, n - d) when the two ranges meet
    stop = n - d
    north = np.clip(cap, 0, stop)
    south = np.maximum(stop - cap, north)
    starts = np.concatenate([np.zeros_like(d), south])
    lengths = np.concatenate([north, stop]) - starts
    i = ranges(starts, lengths)
    j = i + np.repeat(np.concatenate([d, d]), lengths)
    dist = np.sqrt(sq_norms(pts[j], pts[i]))
    if np.any(dist <= thr * (1 + 1e-9)):
        return _separated_filter(pts, ell)
    return pts


def _sphere_shell(k, r, ell, rng, max_points):
    """Separated net on the k-sphere of radius r; None when it cannot be
    materialized inside max_points."""
    ratio = r / ell
    if k == 1:
        if ell > 2 * r:
            return np.array([[r, 0.0]])
        m = int(np.floor(np.pi / np.arcsin(ell / (2 * r))))
        if m > max_points:
            return None
        phase = rng.uniform(0, 2 * np.pi)
        ang = phase + 2 * np.pi * np.arange(m) / m
        return np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    if k == 2:
        want = max(1, int(FIB_DENSITY * ratio**2))
        if want > max_points:
            return None
        pts = fibonacci_sphere(want)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        pts = pts @ q.T
        return _lattice_filter(pts, ell / r) * r
    # generic dimension: greedy over an oversampled uniform stream
    want = int(np.ceil(2.0 * ratio**k))
    if want > max_points:
        return None
    stream = rng.standard_normal((50 * want, k + 1))
    stream /= np.linalg.norm(stream, axis=1, keepdims=True)
    return _separated_filter(stream, ell / r) * r


def sphere_net(spec, seed, allow_partial=False, sep_floor=None):
    """Union over shells of separated nets on r_i * S_J, plus the origin.

    Deterministic in the seed (the seed fixes lattice phases/rotations).
    Two finite-truncation escapes, both off by default:

    * sep_floor clamps each shell's separation to max(ell_i, sep_floor).
      Coverings at scales >= 4 * sep_floor cannot tell the clamped net
      from the full one, so box-counting windows above the floor stay
      faithful while deep shells remain materializable.
    * allow_partial replaces a shell whose net would still exceed the
      point cap with a sparser separated packing (ell_i-separated but no
      longer covering), whose run is ('partial', i) instead of (J, i).

    The runs are ('origin', 0) for the origin, first, then one per shell.
    """
    rng = np.random.default_rng(seed)
    pts = [np.zeros((1, spec.ambient_dim))]
    runs = [(("origin", 0), 1)]
    for i in range(1, spec.i_max + 1):
        r, ell = spec.radius(i), spec.ell(i)
        if sep_floor is not None:
            ell = min(max(ell, sep_floor), r)
        shell = _sphere_shell(spec.k, r, ell, rng, SHELL_POINT_CAP)
        partial = shell is None
        if partial:
            if not allow_partial:
                raise ValueError(
                    "shell %d would need more than %d points" % (i, SHELL_POINT_CAP)
                )
            shell = _sphere_shell(spec.k, r, r / 64.0, rng, SHELL_POINT_CAP)
        embedded = np.zeros((len(shell), spec.ambient_dim))
        embedded[:, list(spec.J)] = shell
        pts.append(embedded)
        runs.append((("partial" if partial else spec.J, i), len(shell)))
    return PointSet(np.vstack(pts), runs=tuple(runs))


def sphere_net_union(ambient_dim, k, l_law="pow2t", t=2.0, i_max=8, seed=0,
                     allow_partial=False, sep_floor=None):
    """Union of sphere_net over every (k+1)-subset J of the coordinates,
    in lexicographic order of J.  The first net keeps its origin; each
    later net drops its own, its first point and first run."""
    if k + 1 > ambient_dim:
        raise ValueError("k + 1 must not exceed ambient_dim")
    pts = []
    runs = ()
    for J in itertools.combinations(range(ambient_dim), k + 1):
        spec = SphereNetSpec(ambient_dim, k, J, l_law=l_law, t=t, i_max=i_max)
        net = sphere_net(spec, seed, allow_partial=allow_partial,
                         sep_floor=sep_floor)
        skip = 1 if pts else 0
        pts.append(net.points[skip:])
        runs += net.runs[skip:]
    return PointSet(np.vstack(pts), runs=runs)


def kernel_shell_witnesses(spec, rows, seed, shells):
    """Stand-ins for the net points adjacent to ker L on each shell.

    An ell_i-net of r_i S_J has a point within ell_i of every point of the
    sphere, in particular of the two kernel points +-r_i u of a given map
    (u spans ker L restricted to the coordinates J); such a neighbor x has
    |x| = r_i and |Lx| <= |L| ell_i.  For shells too deep to materialize,
    this returns two such points directly: each kernel point offset
    tangentially by a seeded fraction of ell_i, then put back on the
    sphere.  The built shells (a Fibonacci lattice thinned by a separation
    filter) are not proven to be maximal nets, so the witnesses are not
    points of any particular net.  They are conservative stand-ins,
    checked against the nets that can be built: put in place of built
    shells, they leave holder-ceiling's median ceilings no lower and its
    fractions of maps under the bar no higher.  shells lists the shell
    indices that get witnesses.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    rng = np.random.default_rng(seed)
    cols = list(spec.J)
    sub = rows[:, cols]  # k x (k+1), nullspace dim >= 1
    _, _, vt = np.linalg.svd(sub)
    kernel = vt[-1]
    pts = []
    for i in shells:
        r, ell = spec.radius(i), spec.ell(i)
        for sign in (1.0, -1.0):
            u = sign * kernel
            tang = rng.standard_normal(len(cols))
            tang -= (tang @ u) * u
            tang /= np.linalg.norm(tang)
            m = ell * rng.uniform(0.3, 0.95)
            w = u + (m / r) * tang
            w = w / np.linalg.norm(w) * r
            embedded = np.zeros(spec.ambient_dim)
            embedded[cols] = w
            pts.append(embedded)
    return PointSet(np.array(pts).reshape(-1, spec.ambient_dim))


# --- iterated function systems ---


@dataclass
class IfsSpec:
    """Contracting similarities x -> ratio * O x + shift with weights."""

    ratios: list
    orthogonals: list
    shifts: list
    probs: list

    def __post_init__(self):
        m = len(self.ratios)
        if not (len(self.orthogonals) == len(self.shifts) == len(self.probs) == m):
            raise ValueError("maps and weights must align")
        if m < 1:
            raise ValueError("need at least one map")
        if not all(0 < r < 1 for r in self.ratios):
            raise ValueError("ratios must lie in (0,1)")
        self.orthogonals = [np.atleast_2d(np.asarray(o, dtype=float))
                            for o in self.orthogonals]
        self.shifts = [np.atleast_1d(np.asarray(s, dtype=float)) for s in self.shifts]
        for o in self.orthogonals:
            if np.abs(o @ o.T - np.eye(o.shape[0])).max() > 1e-10:
                raise ValueError("orthogonal parts must be orthogonal")
        p = np.asarray(self.probs, dtype=float)
        if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be positive and sum to 1")

    @property
    def dim(self):
        return self.orthogonals[0].shape[0]

    def apply(self, idx, x):
        return self.ratios[idx] * (np.asarray(x) @ self.orthogonals[idx].T) \
            + self.shifts[idx]

    def fixed_point(self, idx=0):
        a = np.eye(self.dim) - self.ratios[idx] * self.orthogonals[idx]
        return np.linalg.solve(a, self.shifts[idx])


def ifs_atoms(spec, depth):
    """Depth-d cylinder approximation of the stationary measure.

    Atoms are the images of the first map's fixed point under all length-d
    compositions of the m maps.  Atom r is the composition named by the d
    base-m digits of r, least significant first: r % m is the map applied
    last, to atom r // m of depth d - 1.  Its weight is the product of the
    digits' probabilities.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    atoms = [(spec.fixed_point(0), 1.0)]
    for _ in range(depth):
        atoms = [(spec.apply(idx, x), w * spec.probs[idx])
                 for x, w in atoms for idx in range(len(spec.ratios))]
    pts, weights = zip(*atoms)
    return normalized_measure(np.array(pts), np.array(weights))


# --- sparse and dense atom clouds ---


def sparse_atoms(ambient_dim, s, count, seed):
    """Random s-sparse atoms: support uniform over the s-subsets,
    nonzero values uniform in [-1,1], uniform weights."""
    if not 0 <= s < ambient_dim:
        raise ValueError("need 0 <= s < ambient_dim")
    rng = np.random.default_rng(seed)
    pts = np.zeros((count, ambient_dim))
    for i in range(count):
        support = rng.choice(ambient_dim, size=s, replace=False)
        pts[i, support] = rng.uniform(-1.0, 1.0, size=s)
    return normalized_measure(pts, np.full(count, 1.0))


def dense_ball_atoms(ambient_dim, count, seed, decay=0.9):
    """Uniform ball cloud with geometric weights decay^j (dense support)."""
    if not 0 < decay < 1:
        raise ValueError("decay must lie in (0,1)")
    pts = ball_rows(count, ambient_dim, np.random.default_rng(seed))
    return normalized_measure(pts, decay ** np.arange(count, dtype=float))
