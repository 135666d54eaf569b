"""Example sets, digit arithmetic, and atom clouds."""

import dataclasses
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from oracles import (BitWord, min_nn_distance, pair_problems,
                     parabola_lift_oracle, pi_encode, separated_filter_oracle,
                     word_ints)
from projlab import constructions
from projlab.constructions import (PRECISION_FLOOR, IfsSpec, SphereNetSpec,
                                   _corrupt_add, _lattice_filter,
                                   _problem_masks, _separated_filter,
                                   block_constraints, dense_ball_atoms,
                                   exceptional_set_membership,
                                   fibonacci_sphere, ifs_atoms,
                                   kernel_shell_witnesses,
                                   parabola_lift_measure,
                                   parabola_resolution, sparse_atoms,
                                   sphere_net, sphere_net_union,
                                   verify_digit_lemma, word_entropy_dimension)
from projlab.experiments import REGISTRY, _sub_seeds
from projlab.linalg import sample_e_batch


# --- words and encodings ---


def test_bit_word_round_trip():
    w = BitWord.from_right_bits([0, 1])
    assert w.bits == (0, 0, 0, 1)
    assert w.to_string() == "00 01"
    assert w.n_blocks == 2
    assert w.right_bits() == (0, 1)


def test_bit_word_validation():
    with pytest.raises(ValueError):
        BitWord((0,))  # odd length
    with pytest.raises(ValueError):
        BitWord((0, 2))


def test_pi_encode_frozen_value():
    w = BitWord.from_right_bits([1, 1])  # bits 0101
    assert pi_encode(w) == Fraction(5, 16)


def test_pi_encode_injective_depth_5():
    seen = set()
    for r in range(2**5):
        seen.add(pi_encode(BitWord.from_pattern(r, 5)))
    assert len(seen) == 2**5


# --- digit lemmas ---


def test_digit_lemma_clean_all_depths():
    for depth in range(1, 9):
        report = verify_digit_lemma(depth)
        assert report["pairs"] == 4**depth
        assert report["violations"] == 0
        assert not report["corrupted"]


def test_digit_lemma_catches_every_corruption_mode():
    for corrupt_seed in range(3):
        report = verify_digit_lemma(3, corrupt_seed=corrupt_seed)
        assert report["corrupted"]
        assert report["violations"] > 0
        assert report["examples"]


def _digit_lemma_loop(depth, corrupt_seed=None):
    """verify_digit_lemma pair by pair in Python integers, as an oracle."""
    mode = None if corrupt_seed is None else corrupt_seed % 3
    words = word_ints(depth)
    violations, examples = 0, []
    for xi, x in enumerate(words):
        for yi, y in enumerate(words):
            z = x + y if mode is None else _corrupt_add(x, y, mode)
            bad = pair_problems(x, y, z, depth)
            if bad:
                violations += 1
                if len(examples) < 8:
                    examples.append({"x": xi, "y": yi, "problems": bad})
    return {"depth": depth, "pairs": len(words) ** 2,
            "violations": violations, "corrupted": mode is not None,
            "examples": examples}


def _mask_names(x, y, z, depth):
    """The problems _problem_masks names for each pair, in report order."""
    masks = _problem_masks(x, y, z, depth)
    return [[name for name, mask in masks if mask[i]] for i in range(len(x))]


@pytest.mark.parametrize("corrupt_seed", [None, 0, 1, 2])
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_digit_lemma_matches_the_pair_loop(depth, corrupt_seed):
    assert verify_digit_lemma(depth, corrupt_seed) == \
        _digit_lemma_loop(depth, corrupt_seed)
    mode = None if corrupt_seed is None else corrupt_seed % 3
    words = np.array(word_ints(depth))
    x, y = (a.ravel() for a in np.meshgrid(words, words, indexing="ij"))
    z = x + y if mode is None else _corrupt_add(x, y, mode)
    assert _mask_names(x, y, z, depth) == [
        pair_problems(int(a), int(b), int(c), depth)
        for a, b, c in zip(x, y, z)]


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 8])
def test_violation_mask_matches_the_pair_checks_on_any_bits(depth):
    # on admissible words a failed prefix check always comes with a failed
    # block, so only arbitrary bit patterns test each check on its own
    length = 2 * depth
    x, y, z = np.random.default_rng(depth).integers(
        0, [[1 << length], [1 << length], [1 << (length + 1)]], (3, 4000))
    z[::2] = x[::2] + y[::2] + (z[::2] & 1)  # near sums: few block errors
    assert _mask_names(x, y, z, depth) == [
        pair_problems(int(a), int(b), int(c), depth)
        for a, b, c in zip(x, y, z)]


def test_digit_lemma_depth_bounds():
    with pytest.raises(ValueError):
        verify_digit_lemma(0)
    with pytest.raises(ValueError):
        verify_digit_lemma(9)


def brute_force_sums(depth):
    """All sums x + y over admissible depth-block words, exact fractions."""
    words = []
    for r in range(2**depth):
        bits = [(r >> n) & 1 for n in range(depth)]
        words.append(sum(Fraction(b, 4**n) for n, b in
                         zip(range(1, depth + 1), bits)))
    return words


def test_block_sum_identity_against_fractions():
    # z = x + y decomposes blockwise: block n of z holds x_n + y_n in
    # binary, and no carry ever leaves a block
    words = brute_force_sums(3)
    for x, y in itertools.product(words, repeat=2):
        z = x + y
        for n in range(1, 4):
            block = (int(z * 4**n) - 4 * int(z * 4**(n - 1)))
            xn = int(x * 4**n) - 4 * int(x * 4**(n - 1))
            yn = int(y * 4**n) - 4 * int(y * 4**(n - 1))
            assert block == xn + yn


def test_block_constraints_frozen():
    assert block_constraints(Fraction(5, 16), 2) == \
        ["exactly_one", "exactly_one"]
    assert block_constraints(Fraction(3, 4), 1) == ["infeasible"]
    assert block_constraints(Fraction(1, 2), 1) == ["both_one"]
    assert block_constraints(Fraction(0), 3) == ["both_zero"] * 3
    with pytest.raises(ValueError):
        block_constraints(Fraction(3, 2), 1)


def test_membership_forced_blocks():
    # alpha x + beta y = 0 with z = -alpha/beta = 1/2: block 1 forces both
    # right bits to 1, all deeper blocks force 0; right bits (1, 0, 0) are
    # pattern 1, (0, 1, 0) pattern 2
    assert exceptional_set_membership(-1, 2, 1, 3)
    assert not exceptional_set_membership(-1, 2, 2, 3)


def test_membership_infeasible_and_out_of_range():
    assert not exceptional_set_membership(-3, 4, 3, 2)  # z = 3/4 infeasible
    assert not exceptional_set_membership(1, 2, 3, 2)  # z = -1/2 out of range
    with pytest.raises(ValueError):
        exceptional_set_membership(1, 0, 3, 2)
    for r in (-1, 4):
        with pytest.raises(ValueError, match="r must index"):
            exceptional_set_membership(-1, 2, r, 2)


def test_membership_free_blocks_frequency():
    # z = 1/3 = 0.010101.. leaves every block free; membership then asks
    # for right-bit frequency at least 1/2: right bits (1, 1, 0, 1) are
    # pattern 11, (0, 0, 0, 1) pattern 8
    assert exceptional_set_membership(-1, 3, 11, 4)
    assert not exceptional_set_membership(-1, 3, 8, 4)


def test_membership_matches_exhaustive_solver():
    # depth-3 truth: the word is a member iff some pair of admissible
    # words sums to z and one of them is the word itself; r indexes both
    # the words and the atoms of the parabola lift
    depth = 3
    encs = brute_force_sums(depth)
    assert parabola_lift_measure(0.25, depth).points[:, 0].tolist() == \
        [float(x) for x in encs]
    for zi, z in enumerate([Fraction(1, 2), Fraction(5, 16), Fraction(0)]):
        solvable = {i for i, j in itertools.product(range(2**depth), repeat=2)
                    if encs[i] + encs[j] == z}
        for r in range(2**depth):
            got = exceptional_set_membership(-z, 1, r, depth)
            assert got == (r in solvable), (zi, r)


# --- encoded measures ---


def test_parabola_lift_depth_one_exact():
    m = parabola_lift_measure(Fraction(1, 4), 1)
    atoms = {tuple(p): w for p, w in zip(map(tuple, m.points), m.weights)}
    assert atoms[(0.0, 0.0)] == pytest.approx(0.75)
    assert atoms[(0.25, 0.0625)] == pytest.approx(0.25)


def test_parabola_lift_is_on_the_parabola():
    m = parabola_lift_measure(0.25, 8)
    assert m.n == 256
    assert np.allclose(m.points[:, 1], m.points[:, 0] ** 2, atol=1e-15)
    assert m.weights.sum() == pytest.approx(1.0)


def test_parabola_lift_matches_the_word_encoding():
    # bit for bit against the word-by-word lift in exact rationals
    for p in (0.1, 0.25, 1 / 3, 0.4, 0.49):
        for n_blocks in range(1, 15):
            m = parabola_lift_measure(p, n_blocks)
            points, weights = parabola_lift_oracle(p, n_blocks)
            assert np.array_equal(m.points, points), (p, n_blocks)
            assert np.array_equal(m.weights, weights), (p, n_blocks)


@pytest.mark.parametrize("n_blocks", [4, 8, 12])
def test_parabola_resolution_is_the_tree_value(n_blocks):
    # all-directions' atom resolution, bit for bit, against the KD-tree
    pts = parabola_lift_measure(0.25, n_blocks).points
    assert parabola_resolution(pts) == min_nn_distance(pts)


def test_word_entropy_dimension_frozen():
    # H(1/4) / log 4 computed independently
    p = 0.25
    h = -(p * math.log(p) + (1 - p) * math.log(1 - p))
    assert word_entropy_dimension(0.25) == pytest.approx(h / math.log(4),
                                                         abs=1e-15)
    assert word_entropy_dimension(0.25) == pytest.approx(0.4056390622295665,
                                                         abs=1e-12)
    with pytest.raises(ValueError):
        word_entropy_dimension(0.5)


# --- sphere nets ---


def test_sphere_net_spec_validation():
    with pytest.raises(ValueError):
        SphereNetSpec(3, 2, (0, 1), l_law="pow2t")  # J too small
    with pytest.raises(ValueError):
        SphereNetSpec(3, 2, (0, 1, 3))  # index out of range
    with pytest.raises(ValueError):
        SphereNetSpec(3, 2, (0, 1, 2), l_law="cubic")
    with pytest.raises(ValueError):
        SphereNetSpec(3, 2, (0, 1, 2), l_law="pow2t", t=1.0)
    with pytest.raises(ValueError):
        SphereNetSpec(3, 2, (0, 1, 2), l_law="pow2sq", i_max=7)
    with pytest.raises(ValueError):
        SphereNetSpec(3, 2, (0, 1, 2), l_law="pow2t", t=2.0, i_max=21)


def test_circle_net_counts_frozen():
    # floor(pi / asin(ell / 2r)) points fit on each circle
    spec = SphereNetSpec(2, 1, (0, 1), l_law="pow2t", t=1.5, i_max=4)
    net = sphere_net(spec, seed=3)
    counts = Counter(net.labels)
    assert counts[("origin", 0)] == 1
    assert [counts[((0, 1), i)] for i in range(1, 5)] == [8, 12, 17, 25]


def test_circle_net_separation_and_covering():
    spec = SphereNetSpec(2, 1, (0, 1), l_law="pow2t", t=1.5, i_max=3)
    net = sphere_net(spec, seed=9)
    for i in range(1, 4):
        r, ell = spec.radius(i), spec.ell(i)
        shell = net.points[[lab == ((0, 1), i) for lab in net.labels]]
        d = np.linalg.norm(shell[:, None, :] - shell[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= ell * (1 - 1e-9)
        # maximality: a fine probe of the circle stays within ell of the net
        ang = np.linspace(0, 2 * np.pi, 2000, endpoint=False)
        probe = r * np.column_stack([np.cos(ang), np.sin(ang)])
        gap = np.linalg.norm(probe[:, None, :] - shell[None, :, :], axis=2)
        assert gap.min(axis=1).max() <= ell


def test_sphere_shell_counts_scale_like_area():
    spec = SphereNetSpec(3, 2, (0, 1, 2), l_law="pow2t", t=2.0, i_max=5)
    for seed in range(3):
        counts = Counter(sphere_net(spec, seed=seed).labels)
        for i in range(1, 6):
            c = counts[((0, 1, 2), i)]
            # (r/ell)^2 = 4^i with a fixed density constant
            assert 4.5 * 4**i <= c <= 6.5 * 4**i


def test_sphere_shell_separation_2d():
    spec = SphereNetSpec(3, 2, (0, 1, 2), l_law="pow2t", t=2.0, i_max=3)
    net = sphere_net(spec, seed=1)
    for i in range(1, 4):
        shell = net.points[[lab == ((0, 1, 2), i) for lab in net.labels]]
        assert np.allclose(np.linalg.norm(shell, axis=1), spec.radius(i),
                           atol=1e-12)
        d = np.linalg.norm(shell[:, None, :] - shell[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= spec.ell(i) * (1 - 1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lattice_filter_matches_the_tree(seed):
    # the offset candidates keep exactly the tree's set on rotated
    # lattices, sparse (nothing dropped) to dense (most points dropped)
    rng = np.random.default_rng(seed)
    dropped = 0
    for ratio in (1, 2, 3, 7, 16, 28):
        for density in (6, 12, 24, 60):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            pts = fibonacci_sphere(max(1, int(density * ratio**2))) @ q.T
            kept = separated_filter_oracle(pts, 1 / ratio)
            assert np.array_equal(_lattice_filter(pts, 1 / ratio), kept)
            dropped += len(pts) - len(kept)
    assert dropped > 10_000


def test_lattice_filter_matches_the_tree_at_the_largest_shell():
    # ratio 256 at density 6: holder-ceiling's largest shell, 393,216 points
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    pts = fibonacci_sphere(6 * 256**2) @ q.T
    assert np.array_equal(_lattice_filter(pts, 1 / 256),
                          separated_filter_oracle(pts, 1 / 256))


def test_lattice_filter_falls_back_to_the_cover_near_the_threshold(
        monkeypatch):
    # the offset candidates only certify that nothing is dropped: a
    # candidate at or below the threshold (1 + 1e-9), where two distance
    # routines might round apart, sends the whole shell to the cover once
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    pts = fibonacci_sphere(100) @ q.T
    calls = []

    def spy(points, ell):
        calls.append(ell)
        return _separated_filter(points, ell)

    monkeypatch.setattr(constructions, "_separated_filter", spy)
    d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    gap = float(d[np.triu_indices(len(pts), 1)].min())
    for ell, fallback in ((gap * (1 - 1e-8), False),  # below the band
                          (gap * (1 - 5e-10) / (1 - 1e-12), True),  # inside
                          (gap / (1 - 1e-12), True),  # at the threshold
                          (0.5, True)):  # most points dropped
        calls.clear()
        kept = _lattice_filter(pts, ell)
        assert calls == ([ell] if fallback else [])
        assert np.array_equal(kept, separated_filter_oracle(pts, ell))
    assert len(kept) < len(pts)


def test_sphere_nets_match_the_tree_path(monkeypatch):
    # the union (collision-scaling's) and the squared-law net with partial
    # shells (holder-ceiling's leg B) come out bit-equal on the tree path
    def build():
        spec = SphereNetSpec(3, 2, (0, 1, 2), l_law="pow2sq", i_max=4)
        return (sphere_net_union(3, 2, i_max=5, seed=7).points,
                sphere_net(spec, 7, allow_partial=True).points)

    fast = build()
    monkeypatch.setattr(constructions, "_lattice_filter",
                        separated_filter_oracle)
    for a, b in zip(fast, build()):
        assert np.array_equal(a, b)


def test_sphere_net_k3_matches_brute_force_greedy():
    # k >= 3 shells thin a seeded uniform stream on S^3; redraw the stream
    # and keep each point that is ell-far from every point kept before it
    spec = SphereNetSpec(4, 3, (0, 1, 2, 3), l_law="pow2t", t=2.0, i_max=2)
    net = sphere_net(spec, seed=3)
    rng = np.random.default_rng(3)
    for i in (1, 2):
        r, ell = spec.radius(i), spec.ell(i)
        count = 50 * int(np.ceil(2.0 * (r / ell) ** 3))
        stream = rng.standard_normal((count, 4))
        stream /= np.linalg.norm(stream, axis=1, keepdims=True)
        kept = np.empty((0, 4))
        for cand in stream:
            if np.all(np.linalg.norm(kept - cand, axis=1) >= ell / r):
                kept = np.vstack([kept, cand])
        shell = net.points[[lab == ((0, 1, 2, 3), i) for lab in net.labels]]
        assert len(shell) > 1
        assert np.array_equal(shell, kept * r)


lattice_rows = st.integers(1, 4).flatmap(lambda dim: st.lists(
    st.tuples(*[st.integers(0, 6)] * dim), min_size=1, max_size=30))


@settings(max_examples=150, deadline=None)
@given(rows=lattice_rows, quarters=st.integers(1, 12),
       power=st.integers(-8, 8), on_rim=st.booleans())
def test_separated_filter_matches_the_tree_on_lattices(rows, quarters, power,
                                                       on_rim):
    # 1/4-lattice points in 1-4 dimensions, duplicates common, scaled by
    # 2^p exactly; with on_rim the threshold ell (1 - 1e-12) is itself a
    # lattice distance, so pairs lie exactly on it
    c = 2.0**power
    pts, ell = c * 0.25 * np.array(rows, dtype=float), c * 0.25 * quarters
    if on_rim:
        ell /= 1 - 1e-12
        assert ell * (1 - 1e-12) == c * 0.25 * quarters
    assert np.array_equal(_separated_filter(pts, ell),
                          separated_filter_oracle(pts, ell))


@pytest.mark.parametrize("k, ratio", [(3, 2), (3, 4), (4, 2), (4, 4), (5, 2)])
def test_separated_filter_matches_the_tree_on_streams(k, ratio):
    # the k >= 3 shells thin an oversampled uniform stream on S^k
    rng = np.random.default_rng(k)
    stream = rng.standard_normal((50 * int(np.ceil(2.0 * ratio**k)), k + 1))
    stream /= np.linalg.norm(stream, axis=1, keepdims=True)
    kept = _separated_filter(stream, 1 / ratio)
    assert 1 < len(kept) < len(stream)
    assert np.array_equal(kept, separated_filter_oracle(stream, 1 / ratio))


def test_default_nets_never_reach_the_cover(monkeypatch):
    # at FIB_DENSITY the default shells drop no lattice point, so the nets
    # the experiments build by default (seed 42) are certified by the
    # offsets alone: holder-ceiling's legs A and B, box-dim's union at
    # t = 2 and 3, assouad-probe's net and collision-scaling's union
    calls = []
    monkeypatch.setattr(constructions, "_separated_filter",
                        lambda pts, ell: calls.append(ell)
                        or _separated_filter(pts, ell))
    hc, bd, ap, cs = (REGISTRY[name]["defaults"] for name in (
        "holder-ceiling", "box-dim", "assouad-probe", "collision-scaling"))
    seed = _sub_seeds(42, 3)[0]  # holder-ceiling's nets
    sphere_net_union(hc["ambient_dim"], hc["k"], t=hc["t"],
                     i_max=hc["i_max"], seed=seed)
    sphere_net(SphereNetSpec(hc["ambient_dim"], hc["k"],
                             tuple(range(hc["k"] + 1)), l_law="pow2sq",
                             i_max=hc["sq_i_max"]), seed, allow_partial=True)
    for t in (2.0, 3.0):
        sphere_net_union(bd["ambient_dim"], bd["k"], t=t, i_max=bd["i_max"],
                         seed=42, sep_floor=bd["delta_min"] / 4)
    sphere_net(SphereNetSpec(ap["ambient_dim"], ap["k"],
                             tuple(range(ap["k"] + 1)), l_law="pow2sq",
                             i_max=ap["i_max"]), 42)
    sphere_net_union(cs["ambient_dim"], cs["k"], t=cs["t"],
                     i_max=cs["i_max"], seed=42)
    assert calls == []


def test_sphere_net_point_cap():
    spec = SphereNetSpec(3, 2, (0, 1, 2), l_law="pow2sq", i_max=6)
    with pytest.raises(ValueError):
        sphere_net(spec, seed=0)  # deep shells exceed the cap
    net = sphere_net(spec, seed=0, allow_partial=True)
    tags = {lab[0] for lab in net.labels}
    assert "partial" in tags  # sparser stand-in shells are labeled


def test_sphere_net_sep_floor_clamps():
    spec = SphereNetSpec(3, 2, (0, 1, 2), l_law="pow2t", t=2.0, i_max=8)
    floor = 2.0**-9
    net = sphere_net(spec, seed=0, sep_floor=floor)
    counts = Counter(net.labels)
    # above the floor the shells are unchanged; below it they stop growing
    assert counts[((0, 1, 2), 2)] == 96
    deep = counts[((0, 1, 2), 8)]
    assert deep <= 6.5 * (spec.radius(8) / floor) ** 2


def test_sphere_net_union_subsets_and_origin():
    union = sphere_net_union(3, 1, l_law="pow2t", t=2.0, i_max=3, seed=0)
    tags = Counter(lab[0] for lab in union.labels)
    assert tags["origin"] == 1
    assert set(tags) == {"origin", (0, 1), (0, 2), (1, 2)}
    # every net point sits on a coordinate circle through the named axes
    for p, lab in zip(union.points, union.labels):
        if lab[0] == "origin":
            continue
        off = [j for j in range(3) if j not in lab[0]]
        assert np.allclose(p[off], 0.0)


def test_kernel_shell_witnesses_hit_small_images():
    spec = SphereNetSpec(3, 2, (0, 1, 2), l_law="pow2sq", i_max=6)
    rows = sample_e_batch(3, 2, 1, seed=5)[0]
    wit = kernel_shell_witnesses(spec, rows, seed=5, shells=[4, 5, 6])
    assert len(wit.points) == 6  # two antipodal witnesses per shell
    for p, lab in zip(wit.points, wit.labels):
        i = lab[1]
        assert np.linalg.norm(p) == pytest.approx(spec.radius(i), rel=1e-6)
        # witness sits within ell of the kernel direction, so its image is
        # operator-norm small
        assert np.linalg.norm(rows @ p) <= math.sqrt(3) * spec.ell(i) * 1.001


def test_precision_depth_is_the_deepest_shell_above_the_floor():
    spec = SphereNetSpec(3, 2, (0, 1, 2), l_law="pow2t", t=2.0, i_max=8)
    assert spec.precision_depth() == 20  # ell_20 = 2^-40, ell_21 refused
    assert spec.ell(20) == PRECISION_FLOOR
    assert SphereNetSpec(3, 2, (0, 1, 2), t=3.0,
                         i_max=2).precision_depth() == 13  # ell_13 = 2^-39
    assert SphereNetSpec(3, 2, (0, 1, 2), l_law="pow2sq",
                         i_max=2).precision_depth() == 6


def test_kernel_shell_witnesses_pow2t_down_to_precision_floor():
    # power-law shells 9..20 stand in for the nets past the point cap; at
    # ell_20 = 2^-40 the witnesses must still be honest small images
    spec = SphereNetSpec(3, 2, (0, 1, 2), l_law="pow2t", t=2.0, i_max=8)
    deep = dataclasses.replace(spec, i_max=spec.precision_depth())
    shells = range(spec.i_max + 1, deep.i_max + 1)
    eps = np.finfo(float).eps
    for midx, rows in enumerate(sample_e_batch(3, 2, 800, seed=11)):
        norm_l = np.linalg.norm(rows, 2)
        wit = kernel_shell_witnesses(deep, rows, seed=midx, shells=shells)
        assert len(wit.points) == 2 * len(shells)
        for p, lab in zip(wit.points, wit.labels):
            r, ell = deep.radius(lab[1]), deep.ell(lab[1])
            assert np.linalg.norm(p) == pytest.approx(r, rel=1e-12)
            image = np.linalg.norm(rows @ p)
            # within ell_i of ker L, so the image is operator-norm small...
            assert image <= norm_l * ell
            # ...yet no minimum made by cancellation: far above the
            # rounding error of L w, about eps * r_i * |L|
            assert image >= 1e6 * eps * r * norm_l


# --- iterated function systems ---


CANTOR = IfsSpec(ratios=[1 / 3, 1 / 3], orthogonals=[np.eye(1)] * 2,
                 shifts=[np.zeros(1), np.array([2 / 3])], probs=[0.5, 0.5])


def test_ifs_spec_validation():
    with pytest.raises(ValueError):
        IfsSpec(ratios=[0.5], orthogonals=[np.eye(1)] * 2,
                shifts=[np.zeros(1)] * 2, probs=[0.5, 0.5])
    with pytest.raises(ValueError):
        IfsSpec(ratios=[1.5, 0.5], orthogonals=[np.eye(1)] * 2,
                shifts=[np.zeros(1)] * 2, probs=[0.5, 0.5])
    with pytest.raises(ValueError):
        IfsSpec(ratios=[0.5, 0.5], orthogonals=[[[1.0, 1.0], [0.0, 1.0]]] * 2,
                shifts=[np.zeros(2)] * 2, probs=[0.5, 0.5])
    with pytest.raises(ValueError):
        IfsSpec(ratios=[0.5, 0.5], orthogonals=[np.eye(1)] * 2,
                shifts=[np.zeros(1)] * 2, probs=[0.9, 0.2])


def test_ifs_atoms_cantor_frozen():
    m = ifs_atoms(CANTOR, 2)
    got = sorted(float(p) for p in m.points[:, 0])
    assert got == pytest.approx([0.0, 2 / 9, 2 / 3, 8 / 9], abs=1e-12)
    assert np.allclose(m.weights, 0.25)
    # labels are outermost map first
    by_label = {lab: float(p) for lab, p in zip(m.labels, m.points[:, 0])}
    assert by_label[(1, 2)] == pytest.approx(2 / 9)
    assert by_label[(2, 1)] == pytest.approx(2 / 3)


def test_ifs_atoms_depth_six_gaps():
    m = ifs_atoms(CANTOR, 6)
    assert m.n == 64
    gaps = np.diff(np.sort(m.points[:, 0]))
    assert gaps.min() == pytest.approx(2 * 3.0**-6, rel=1e-9)


# --- atom clouds ---


def test_sparse_atoms_support():
    m = sparse_atoms(8, 2, 400, seed=11)
    nz = (m.points != 0).sum(axis=1)
    assert np.all(nz == 2)
    assert np.abs(m.points).max() <= 1.0
    assert np.allclose(m.weights, 1.0 / 400)
    # all 28 supports of size 2 appear
    supports = {tuple(np.nonzero(row)[0]) for row in m.points}
    assert len(supports) == math.comb(8, 2)
    with pytest.raises(ValueError):
        sparse_atoms(4, 4, 10, seed=0)


def test_dense_ball_atoms_cover_the_ball():
    m = dense_ball_atoms(3, 2000, seed=5)
    norms = np.linalg.norm(m.points, axis=1)
    assert norms.max() <= 1.0
    assert np.allclose(m.weights[1:] / m.weights[:-1], 0.9)
    rng = np.random.default_rng(7)
    probe = rng.standard_normal((500, 3))
    probe /= np.linalg.norm(probe, axis=1, keepdims=True)
    probe *= rng.uniform(0, 1, (500, 1)) ** (1 / 3)
    d, _ = cKDTree(m.points).query(probe)
    assert d.max() < 0.25
    with pytest.raises(ValueError):
        dense_ball_atoms(3, 10, seed=0, decay=1.0)
