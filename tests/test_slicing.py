"""Slab conditionals, near-Dirac scores, and translate pairs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlab import constructions, grid, slicing
from projlab.constructions import IfsSpec
from projlab.geom import WEIGHT_TOL, AtomicMeasure
from projlab.slicing import (dirac_score, nn_spacing_at, slab_conditional,
                             translate_pair_test)
from projlab.slicing import _complement_plane


FOUR = AtomicMeasure([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
                     [0.1, 0.2, 0.3, 0.4])
X_COORDS = FOUR.points @ np.array([[1.0], [0.0]])  # coordinates on the x axis


def test_slab_conditional_renormalizes():
    indices, sliced = slab_conditional(FOUR, X_COORDS, [0.0], 0.25)
    assert list(indices) == [0, 1]
    assert np.array_equal(sliced.points, FOUR.points[:2])
    assert np.allclose(sliced.weights, [1.0 / 3.0, 2.0 / 3.0])


def test_slab_boundary_is_closed():
    # x = 1 sits on the rim
    indices, _ = slab_conditional(FOUR, X_COORDS, [0.75], 0.25)
    assert list(indices) == [2, 3]


def test_slab_without_mass_raises():
    with pytest.raises(ValueError, match="catches no mass"):
        slab_conditional(FOUR, X_COORDS, [5.0], 0.1)
    with pytest.raises(ValueError, match="half_width"):
        slab_conditional(FOUR, X_COORDS, [0.0], 0.0)


@settings(max_examples=60, deadline=None)
@given(atoms=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                                st.integers(1, 5)), min_size=1, max_size=25),
       angle=st.floats(0.0, np.pi), half_width=st.floats(0.01, 3.0))
def test_slab_conditional_matches_brute_force(atoms, angle, half_width):
    # lattice atoms, some repeated, cut by slabs of one random direction
    # centred on every atom in turn: one of random width, and one whose
    # rim passes through the farthest atom
    pts = np.array([a[:2] for a in atoms], dtype=float)
    raw = np.array([a[2] for a in atoms], dtype=float)
    measure = AtomicMeasure(pts, raw / raw.sum())
    unit = np.array([np.cos(angle), np.sin(angle)])
    coords = pts @ unit[:, None]
    for c in range(len(pts)):
        gaps = np.abs(coords[:, 0] - coords[c, 0])
        for width in (half_width, gaps.max() or half_width):
            indices, sliced = slab_conditional(measure, coords, coords[c],
                                               width)
            brute = [i for i in range(len(pts)) if gaps[i] <= width]
            assert list(indices) == brute
            assert c in indices
            assert np.array_equal(sliced.points, pts[brute])
            assert abs(sliced.weights.sum() - 1.0) <= WEIGHT_TOL


def test_dirac_score_single_atom():
    m = AtomicMeasure([[2.0, 3.0]], [1.0])
    assert dirac_score(m, 0.25) == (0.0, 0)


def test_dirac_score_dominant_atom():
    m = AtomicMeasure([[0.0], [1.0]], [0.9, 0.1])
    rho, center = dirac_score(m, 0.25)
    assert rho == 0.0 and center == 0  # 0.9 >= 1 - tau already


def test_dirac_score_split_mass():
    m = AtomicMeasure([[0.0], [1.0]], [0.5, 0.5])
    rho, center = dirac_score(m, 0.25)
    assert rho == 1.0  # no single atom holds 0.75


def test_dirac_score_inclusive_threshold():
    m = AtomicMeasure([[0.0], [1.0]], [0.75, 0.25])
    rho, center = dirac_score(m, 0.25)
    assert rho == 0.0 and center == 0  # exactly 1 - tau counts


def test_dirac_score_monotone_in_tau():
    rng = np.random.default_rng(0)
    m = AtomicMeasure(rng.uniform(0, 1, (30, 2)), np.full(30, 1.0 / 30.0))
    scores = [dirac_score(m, tau)[0] for tau in (0.1, 0.25, 0.5, 0.9)]
    assert scores == sorted(scores, reverse=True)


def test_dirac_score_validation():
    m = AtomicMeasure([[0.0]], [1.0])
    with pytest.raises(ValueError):
        dirac_score(m, 0.0)
    with pytest.raises(ValueError):
        dirac_score(m, 1.0)


def dirac_loop(measure, tau):
    """One norm and one stable argsort per candidate center: the slow
    reference for dirac_score."""
    pts, w = measure.points, measure.weights
    need = 1.0 - tau - 1e-12
    best, best_center = np.inf, -1
    for c in range(len(pts)):
        d = np.linalg.norm(pts - pts[c], axis=1)
        order = np.argsort(d, kind="stable")
        hit = int(np.searchsorted(np.cumsum(w[order]), need, side="left"))
        if hit < len(d) and float(d[order][hit]) < best:
            best, best_center = float(d[order][hit]), c
    return best, best_center


def dirac_cases():
    rng = np.random.default_rng(21)
    for dim in (1, 2, 3):
        n = 80
        yield "equal-%dd" % dim, AtomicMeasure(rng.uniform(0, 1, (n, dim)),
                                               np.full(n, 1.0 / n))
        yield "unequal-%dd" % dim, AtomicMeasure(rng.uniform(0, 1, (n, dim)),
                                                 rng.dirichlet(np.ones(n)))
    # a lattice with equal weights: radii tie between many centers
    g = np.arange(6.0)
    grid = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    yield "tied-grid", AtomicMeasure(grid, np.full(len(grid), 1.0 / len(grid)))
    # atom 0's radius equals its bound and ties with atom 1's, whose bound
    # is lower: atom 1 is scored first, yet atom 0 must win the tie
    yield "tie-after-bound", AtomicMeasure([[3.0], [2.0], [2.0], [2.0], [2.0]],
                                           np.array([3, 1, 3, 3, 1]) / 11)
    dup = np.repeat(rng.uniform(0, 1, (20, 2)), 3, axis=0)
    yield "duplicates", AtomicMeasure(dup, rng.dirichlet(np.ones(60)))
    heavy = rng.dirichlet(np.full(30, 0.2))
    yield "one-heavy-atom", AtomicMeasure(rng.uniform(0, 1, (30, 2)), heavy)
    # one atom alone holds the mass: every bound is zero
    yield "heavy-first", AtomicMeasure([[0.0, 0.0], [1e-4, 0.0]], [0.75, 0.25])
    yield "heavy-second", AtomicMeasure([[0.0, 0.0], [1e-4, 0.0]], [0.25, 0.75])
    for n in (2, 3, 4):
        yield "tiny-%d" % n, AtomicMeasure(rng.uniform(0, 1, (n, 2)),
                                           rng.dirichlet(np.ones(n)))
    # more than one row block at the default block size
    yield "two-blocks", AtomicMeasure(rng.uniform(0, 1, (700, 2)),
                                      rng.dirichlet(np.ones(700)))


@pytest.mark.parametrize("measure", [c[1] for c in dirac_cases()],
                         ids=[c[0] for c in dirac_cases()])
def test_dirac_score_matches_loop(measure):
    for tau in (0.05, 0.25, 0.5, 0.9):
        assert dirac_score(measure, tau) == dirac_loop(measure, tau)


def test_distance_rows_match_norm():
    rng = np.random.default_rng(8)
    for dim in range(1, 8):  # numpy sums eight or more pairwise
        pts = rng.normal(0, 3, (50, dim))
        # the two forms dirac_score takes: a block of rows and one row
        rows = np.sqrt(grid.sq_norms(pts[10:30, None], pts[None]))
        for c in range(10, 30):
            direct = np.linalg.norm(pts - pts[c], axis=1)
            assert np.array_equal(rows[c - 10], direct)
            assert np.array_equal(np.sqrt(grid.sq_norms(pts[c], pts)),
                                  direct)


# lattice atoms with small integer weights: ties in distance and in mass
weighted_lattices = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 5)),
    min_size=1, max_size=30).map(lambda xs: AtomicMeasure(
        np.array([x[:2] for x in xs], dtype=float),
        np.array([x[2] for x in xs], dtype=float) / sum(x[2] for x in xs)))


@settings(max_examples=60, deadline=None)
@given(measure=weighted_lattices,
       taus=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=4))
def test_dirac_score_nonincreasing_in_tau(measure, taus):
    scores = [dirac_score(measure, tau) for tau in sorted(taus)]
    assert scores == [dirac_loop(measure, tau) for tau in sorted(taus)]
    radii = [rho for rho, _ in scores]
    assert radii == sorted(radii, reverse=True)


def test_complement_plane():
    # t along each axis, either way round, and generic t, in 2-4 dimensions
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        axes = list(0.5 * np.eye(n))
        for t in axes + [-axes[-1]] + list(rng.standard_normal((5, n))):
            basis = _complement_plane(t)
            assert basis.shape == (n - 1, n)
            assert np.abs(basis @ t).max() < 1e-12
            assert np.abs(basis @ basis.T - np.eye(n - 1)).max() < 1e-12


def test_nn_spacing_at():
    coords = np.array([[0.0], [0.5], [2.0]])
    assert nn_spacing_at(coords, [0.0]) == pytest.approx(0.5)
    assert nn_spacing_at(np.array([[1.0]]), [1.0]) == 0.0


def pair_spec(ratio, translate):
    dim = len(translate)
    return IfsSpec(ratios=[ratio, ratio], orthogonals=[np.eye(dim)] * 2,
                   shifts=[np.zeros(dim), np.asarray(translate, dtype=float)],
                   probs=[0.5, 0.5])


def test_translate_pair_depth_one_exact():
    out = translate_pair_test(pair_spec(0.3, [0.0, 1.0]), depth=1,
                              n_slices=16, seed=0)
    # depth 1 has exactly one matched pair of atoms at distance |t|
    assert out["n_slices_checked"] > 0
    assert out["all_labels_match"] and out["all_shifts_match"]
    assert out["min_mixed_score"] == pytest.approx(1.0, abs=1e-12)
    assert out["translate_norm"] == pytest.approx(1.0)
    assert out["passes_floor"]


def test_translate_pair_structure_deeper():
    out = translate_pair_test(pair_spec(0.1, [0.0, 0.5]), depth=6,
                              n_slices=24, seed=1)
    assert out["all_labels_match"] and out["all_shifts_match"]
    assert out["n_mixed"] > 0
    # branch spread eats at most ratio/(1-ratio) of the translate length
    floor = 0.5 * (1 - 0.1 / 0.9)
    assert out["min_mixed_score"] >= floor - 1e-9


def test_translate_pair_flags_a_broken_shift(monkeypatch):
    spec = pair_spec(0.1, [0.0, 0.5])
    real = constructions.ifs_atoms

    def stretched(spec, depth):
        # branch 2 moves along t: slabs and labels stay, the shift is off
        nu = real(spec, depth)
        moved = nu.points.copy()
        moved[[lab[0] == 2 for lab in nu.labels]] += [0.0, 1e-3]
        return AtomicMeasure(moved, nu.weights, labels=nu.labels)

    monkeypatch.setattr(slicing, "ifs_atoms", stretched)
    out = translate_pair_test(spec, depth=6, n_slices=24, seed=1)
    assert out["all_labels_match"]
    assert not out["all_shifts_match"]


def test_translate_pair_rejects_degenerate_input():
    with pytest.raises(ValueError):
        translate_pair_test(pair_spec(0.3, [0.0, 0.0]), depth=2)
    bad = IfsSpec(ratios=[0.3, 0.4], orthogonals=[np.eye(2)] * 2,
                  shifts=[np.zeros(2), np.array([0.0, 1.0])], probs=[0.5, 0.5])
    with pytest.raises(ValueError):
        translate_pair_test(bad, depth=2)
    three = IfsSpec(ratios=[0.3] * 3, orthogonals=[np.eye(2)] * 3,
                    shifts=[np.zeros(2)] * 3, probs=[1 / 3] * 3)
    with pytest.raises(ValueError):
        translate_pair_test(three, depth=2)


def test_translate_pair_refuses_a_non_orthonormal_basis(monkeypatch):
    # rows orthogonal to t = (0, 0, 1) but not to each other
    skewed = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
    monkeypatch.setattr(slicing, "_complement_plane", lambda t: skewed)
    with pytest.raises(ValueError, match="not orthonormal"):
        translate_pair_test(pair_spec(0.3, [0.0, 0.0, 1.0]), depth=2)
    scaled = np.array([[1.0 + 1e-9, 0.0, 0.0], [0.0, 1.0, 0.0]])
    monkeypatch.setattr(slicing, "_complement_plane", lambda t: scaled)
    with pytest.raises(ValueError, match="not orthonormal"):
        translate_pair_test(pair_spec(0.3, [0.0, 0.0, 1.0]), depth=2)
