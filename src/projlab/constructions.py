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

from .geom import AtomicMeasure, PointSet, normalized_measure
from .linalg import ball_rows

PRECISION_FLOOR = 2.0**-40
SHELL_POINT_CAP = 700_000
FIB_DENSITY = 6.0  # points per (r/ell)^2 on a 2-sphere shell


# --- bit words and dyadic rationals ---


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


# --- digit arithmetic ---


def _sigma_word_int(right_bits_int, n_blocks):
    """Integer encoding (MSB = position 1) of the admissible word with the
    given right-bit pattern (bit n-1 of right_bits_int = block n's bit)."""
    total = 0
    for n in range(1, n_blocks + 1):
        bit = (right_bits_int >> (n - 1)) & 1
        total |= bit << (2 * n_blocks - 2 * n)
    return total


def _corrupt_add(x, y, mode):
    if mode == 0:  # carries dropped entirely
        return x ^ y
    if mode == 1:  # carries land two positions up instead of one
        return (x ^ y) ^ ((x & y) << 2)
    return x + y + 1  # off by one ulp


def _pair_problems(x, y, z, depth):
    """What one pair of words violates: x and y are the integer encodings
    of two admissible depth-block words, z the adder's sum.  The sum
    escaping [0, 1) ends the list; otherwise the first prefix carry and
    every failing block check are named."""
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


def _violation_mask(x, y, z, depth):
    """bool(_pair_problems(x, y, z, depth)) over int64 arrays of pairs."""
    length = 2 * depth
    bad = z >= (1 << length)
    for shift in range(length, 0, -1):  # position k = length - shift + 1
        both_zero = (((x | y) >> (shift - 1)) & 1) == 0
        bad |= both_zero & (z >> shift != (x >> shift) + (y >> shift))
    for n in range(1, depth + 1):
        # with zl, zr, xr, yr bits, 2 zl + zr = xr + yr rules out (1,1)
        # and makes each forcing check hold: a block fails exactly when
        # its value does
        z_block = (z >> (length - 2 * n)) & 3
        bad |= z_block != ((x >> (length - 2 * n)) & 1) \
            + ((y >> (length - 2 * n)) & 1)
    return bad


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
    words = np.array([_sigma_word_int(r, depth) for r in range(n_words)],
                     dtype=np.int64)
    x = np.repeat(words, n_words)  # pair xi * n_words + yi
    y = np.tile(words, n_words)
    z = x + y if mode is None else _corrupt_add(x, y, mode)
    bad = np.flatnonzero(_violation_mask(x, y, z, depth))
    examples = [{"x": i // n_words, "y": i % n_words,
                 "problems": _pair_problems(int(x[i]), int(y[i]), int(z[i]),
                                            depth)}
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


def exceptional_set_membership(alpha, beta, word):
    """Whether the word can collide under the weighting (alpha, beta).

    The collision equation alpha*x + beta*y = 0 with encoded x, y reduces
    to x + y = z for z = -alpha/beta.  Finite-depth surrogate for the
    dichotomy that governs it:

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
    z = -Fraction(alpha) / Fraction(beta)
    if not 0 <= z < 1:
        return False
    tags = block_constraints(z, word.n_blocks)
    if BLOCK_INFEASIBLE in tags:
        return False
    rb = word.right_bits()
    forced = [(n, tag) for n, tag in enumerate(tags)
              if tag in (BLOCK_BOTH_ZERO, BLOCK_BOTH_ONE)]
    if forced:
        want = {BLOCK_BOTH_ZERO: 0, BLOCK_BOTH_ONE: 1}
        return all(rb[n] == want[tag] for n, tag in forced)
    return sum(rb) * 2 >= word.n_blocks


# --- the encoded measure and its parabola lift ---


def parabola_lift_measure(p, n_blocks):
    """Exact lift of the blocked-digit measure to the parabola.

    Enumerates all 2^n_blocks admissible words, encodes each as an exact
    dyadic x, and places weight p^ones (1-p)^zeros at (x, x^2).  Weights
    are computed as exact rationals before the float conversion.
    """
    if n_blocks > 20:
        raise ValueError("refusing to enumerate more than 2^20 atoms")
    p = Fraction(p)
    if not 0 < p < Fraction(1, 2):
        raise ValueError("p must lie in (0, 1/2)")
    length = 2 * n_blocks
    scale = float(1 << length)  # dividing by a power of two is exact
    pts = np.empty((1 << n_blocks, 2))
    weights = []
    labels = []
    for r in range(1 << n_blocks):
        ones = r.bit_count()
        x = _sigma_word_int(r, n_blocks)
        pts[r] = x / scale, x * x / (scale * scale)
        weights.append(p**ones * (1 - p) ** (n_blocks - ones))
        bits = format(x, "0%db" % length)  # the word, as BitWord.to_string
        labels.append(" ".join(bits[j:j + 2] for j in range(0, length, 2)))
    total = sum(weights)
    w = np.array([float(wt / total) for wt in weights])
    w /= w.sum()
    return AtomicMeasure(pts, w, labels=labels)


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


def fibonacci_sphere(count):
    """Near-uniform lattice on the unit 2-sphere."""
    i = np.arange(count, dtype=float)
    z = 1.0 - (2 * i + 1) / count
    theta = np.pi * (3.0 - np.sqrt(5.0)) * i
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])


def _separated_filter(pts, ell):
    """Keep a subset with pairwise distances >= ell (first come wins)."""
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    close = tree.query_pairs(ell * (1 - 1e-12), output_type="ndarray")
    drop = np.zeros(len(pts), dtype=bool)
    for a, b in close[np.argsort(close[:, 0])]:
        if not drop[a]:
            drop[b] = True
    return pts[~drop]


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
        return _separated_filter(pts, ell / r) * r
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
      longer covering), labeled ('partial', i) instead of (J, i).
    """
    rng = np.random.default_rng(seed)
    pts = [np.zeros((1, spec.ambient_dim))]
    labels = [("origin", 0)]
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
        tag = ("partial", i) if partial else (spec.J, i)
        labels += [tag] * len(shell)
    return PointSet(np.vstack(pts), labels=labels)


def sphere_net_union(ambient_dim, k, l_law="pow2t", t=2.0, i_max=8, seed=0,
                     allow_partial=False, sep_floor=None):
    """Union of sphere_net over every (k+1)-subset J of the coordinates."""
    pts = []
    labels = []
    for J in itertools.combinations(range(ambient_dim), k + 1):
        spec = SphereNetSpec(ambient_dim, k, J, l_law=l_law, t=t, i_max=i_max)
        net = sphere_net(spec, seed, allow_partial=allow_partial,
                         sep_floor=sep_floor)
        if pts:  # keep a single origin
            keep = [j for j, lab in enumerate(net.labels) if lab != ("origin", 0)]
            pts.append(net.points[keep])
            labels += [net.labels[j] for j in keep]
        else:
            pts.append(net.points)
            labels += net.labels
    return PointSet(np.vstack(pts), labels=labels)


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
    labels = []
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
            labels.append(("witness", i))
    return PointSet(np.array(pts).reshape(-1, spec.ambient_dim), labels=labels)


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
        for r in self.ratios:
            if not 0 < r < 1:
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
    compositions; labels record the composition words.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    x0 = spec.fixed_point(0)
    pts = [x0]
    weights = [1.0]
    labels = [()]
    for _ in range(depth):
        new_pts = []
        new_w = []
        new_lab = []
        for x, w, lab in zip(pts, weights, labels):
            for idx in range(len(spec.ratios)):
                new_pts.append(spec.apply(idx, x))
                new_w.append(w * spec.probs[idx])
                new_lab.append((idx + 1,) + lab)
        pts, weights, labels = new_pts, new_w, new_lab
    return normalized_measure(np.array(pts), np.array(weights), labels=labels)


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
