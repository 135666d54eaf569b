"""Slow, direct oracles that the tests hold the package's fast paths to.

* BitWord and pi_encode: blocked-digit words and their dyadic encodings,
  bit by bit in exact rationals.
* pair_problems: what one pair of words violates in the digit lemma, in
  Python integers.
* parabola_lift_oracle: the parabola lift of the blocked-digit measure,
  word by word.
* min_nn_distance: the least positive nearest-neighbour distance, by
  KD-tree.
* ball_rows_oracle: unit-ball rows normalized and scaled in one shot.
* transversality_oracle: the tail table of |Lx| from the norm of the
  whole stack's images.
* decode_recoveries_oracle: nearest-image decoding by an unbounded
  KD-tree query.
* decode_brute_force_oracle: nearest-image decoding over all N^2 image
  distances, an exact tie a failure.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from projlab.dimension import _resolution, cover_index


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


def min_nn_distance(pts):
    """Minimum positive nearest-neighbor distance (the resolution scale)."""
    return _resolution(cover_index(pts)[1])


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
