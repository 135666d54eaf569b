"""Covering counts, scaling fits, and local exponents."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from projlab.constructions import IfsSpec, ifs_atoms
from projlab.dimension import (ScalingFit, assouad_probe, box_dimension_fit,
                               covering_number, cover_index, dyadic_scales,
                               fit_loglog, local_dimension, min_nn_distance)
from projlab.geom import AtomicMeasure, PointSet


def exhaustive_cover(pts, delta):
    """Smallest number of delta-balls centered at the points that covers
    them, by brute subset enumeration."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    for size in range(1, len(pts) + 1):
        for centers in itertools.combinations(range(len(pts)), size):
            if np.all(d[list(centers)].min(axis=0) <= delta + 1e-12):
                return size
    return len(pts)


def greedy_cover_loop(pts, delta):
    """The greedy cover one index at a time, one ball query per center:
    the slow reference for covering_number's (count, centers)."""
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


LINE5 = np.arange(5.0)[:, None]


def mixed_set(seed):
    """Tight clusters and lone points, shuffled together."""
    rng = np.random.default_rng(seed)
    hubs = rng.uniform(0, 1, (6, 2))
    clusters = (hubs[:, None, :] + rng.normal(0, 0.01, (6, 30, 2))).reshape(-1, 2)
    lone = rng.uniform(2, 3, (40, 2))
    pts = np.vstack([clusters, lone])
    return pts[rng.permutation(len(pts))]


def cover_cases():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3):
        pts = rng.uniform(0, 1, (300, dim))
        for delta in (0.02, 0.1, 0.3):
            yield "uniform-%dd-%g" % (dim, delta), pts, delta
    # lattice spacing 0.5: neighbors sit exactly on the closed-ball rim,
    # or just inside or outside the lone-point margin
    g = 0.5 * np.arange(7.0)
    grid = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    grid = grid[rng.permutation(len(grid))]
    for delta in (0.5, 0.5 * (1 - 1e-12), 0.5 * (1 + 1e-12), 1.0):
        yield "grid-%r" % delta, grid, delta
    yield "line-rim", LINE5, 1.0
    dup = np.repeat(rng.uniform(0, 1, (40, 2)), 3, axis=0)
    dup = dup[rng.permutation(len(dup))]
    for delta in (1e-6, 0.05):
        yield "duplicates-%g" % delta, dup, delta
    for delta in (0.005, 0.05, 0.5):
        yield "mixed-%g" % delta, mixed_set(3), delta
    yield "one-point", np.array([[0.3, 0.7]]), 0.1


@pytest.mark.parametrize("pts,delta", [c[1:] for c in cover_cases()],
                         ids=[c[0] for c in cover_cases()])
def test_cover_matches_greedy_loop(pts, delta):
    assert covering_number(pts, delta, return_centers=True) == \
        greedy_cover_loop(pts, delta)


def test_greedy_cover_frozen_line():
    # greedy is first-come so it spends 3 balls where 2 suffice
    assert covering_number(LINE5, 1.0) == 3
    assert exhaustive_cover(LINE5, 1.0) == 2
    assert covering_number(LINE5, 0.5) == 5
    assert exhaustive_cover(LINE5, 0.5) == 5


def test_greedy_never_beats_exhaustive():
    rng = np.random.default_rng(0)
    for trial in range(20):
        pts = rng.uniform(0, 1, (8, 2))
        delta = rng.uniform(0.1, 0.6)
        greedy = covering_number(pts, delta)
        assert greedy >= exhaustive_cover(pts, delta)


def test_cover_centers_actually_cover():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, (200, 2))
    count, centers = covering_number(pts, 0.15, return_centers=True)
    assert len(centers) == count
    d = np.linalg.norm(pts[:, None, :] - pts[centers][None, :, :], axis=2)
    assert d.min(axis=1).max() <= 0.15 + 1e-12


def test_cover_scale_invariance():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, (150, 3))
    assert covering_number(pts, 0.2) == covering_number(4.0 * pts, 0.8)


def test_cover_accepts_point_set():
    ps = PointSet(LINE5)
    assert covering_number(ps, 1.0) == covering_number(LINE5, 1.0)


def test_min_nn_distance():
    assert min_nn_distance(LINE5) == pytest.approx(1.0)
    assert min_nn_distance([[0.0, 0.0], [0.3, 0.4], [9.0, 9.0]]) == \
        pytest.approx(0.5)


def test_dyadic_scales():
    scales = dyadic_scales(2.0**-3, 2.0**-8)
    assert scales == [2.0**-i for i in range(3, 9)]


def test_fit_loglog_exact_power_law():
    deltas = [2.0**-i for i in range(1, 7)]
    counts = [4**i for i in range(1, 7)]
    slope, intercept, r2 = fit_loglog(deltas, counts)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_scaling_fit_validation():
    with pytest.raises(ValueError):
        ScalingFit(1.0, 0.0, 1.0, [(0.5, 2), (0.25, 4)])  # too few scales
    with pytest.raises(ValueError):
        ScalingFit(1.0, 0.0, 1.0, [(0.25, 4), (0.5, 2), (0.125, 8)])
    fit = ScalingFit(1.0, 0.0, 1.0, [(0.5, 2), (0.25, 4), (0.125, 8)])
    assert len(fit.rows()) == 3
    assert fit.to_json_dict()["slope"] == 1.0


def test_box_dimension_segment():
    rng = np.random.default_rng(7)
    seg = np.sort(rng.uniform(0, 10, 10_000))[:, None]
    fit = box_dimension_fit(seg, 1.0, 2.0**-6)
    assert abs(fit.slope - 1.0) < 0.05
    assert fit.r_squared > 0.999


def test_box_dimension_plane_grid():
    # window kept an octave above the lattice spacing so the covering
    # constant is stable across scales
    g = np.linspace(0.0, 1.0, 512)
    grid = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    fit = box_dimension_fit(grid, 2.0**-3, 2.0**-6)
    assert abs(fit.slope - 2.0) < 0.1
    assert fit.r_squared > 0.999


def test_box_dimension_cantor_exact():
    spec = IfsSpec(ratios=[1 / 3, 1 / 3], orthogonals=[np.eye(1)] * 2,
                   shifts=[np.zeros(1), np.array([2 / 3])], probs=[0.5, 0.5])
    pts = ifs_atoms(spec, 8).points
    fit = box_dimension_fit(pts, 3.0**-1, 3.0**-5, n_scales=5)
    # covering numbers at 3^-j are exactly 2^j here, so the fit is exact
    assert fit.slope == pytest.approx(math.log(2) / math.log(3), abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_box_dimension_counts_match_greedy_loop():
    pts = mixed_set(5)
    fit = box_dimension_fit(pts, 0.5, 2.0**-6)
    assert [c for _, c in fit.table] == \
        [greedy_cover_loop(pts, d)[0] for d, _ in fit.table]


def test_box_dimension_refuses_sub_resolution_window():
    with pytest.raises(ValueError):
        box_dimension_fit(LINE5, 2.0, 0.5)  # min gap is 1.0


def test_assouad_probe_matches_exhaustive_on_small_set():
    pts = np.array([[0.0], [0.1], [0.2], [0.55], [1.0]])
    probe = assouad_probe(pts, n_centers=5, r=0.5, rho=0.1, seed=1)
    best = 0
    for c in pts:
        local = pts[np.linalg.norm(pts - c, axis=1) <= 0.5]
        best = max(best, exhaustive_cover(local, 0.1))
    assert probe["max_count"] == best == 3
    assert probe["exponent"] == pytest.approx(math.log(3) / math.log(5), abs=1e-9)


def test_assouad_probe_plane_grid():
    g = np.linspace(0.0, 1.0, 64)
    grid = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    probe = assouad_probe(grid, n_centers=32, r=0.25, rho=1.0 / 32, seed=0)
    # local covering exponent of a planar set sits near 2 (greedy overshoot
    # keeps it above, never below the exhaustive value)
    assert 1.8 <= probe["exponent"] <= 3.0


@pytest.mark.parametrize("r,rho", [(0.5, 0.02), (0.3, 0.005), (2.0, 0.1)])
def test_local_covers_match_extracted_sets(r, rho):
    # assouad_probe's covers: a subset of one indexed set, walked in place
    pts = mixed_set(7)
    index = cover_index(pts)
    counts = []
    for i in range(len(pts)):
        local = np.flatnonzero(np.linalg.norm(pts - pts[i], axis=1) <= r)
        count, centers = greedy_cover_loop(pts[local], rho)
        assert covering_number(pts, rho, True, within=local, index=index) == \
            (count, local[centers].tolist())
        mask = np.zeros(len(pts), dtype=bool)
        mask[local] = True
        assert covering_number(pts, rho, within=mask) == count
        counts.append(count)
    probe = assouad_probe(pts, len(pts), r, rho)
    assert probe["max_count"] == max(counts)


def test_local_dimension_frozen_example():
    m = AtomicMeasure([[0.0], [0.25], [0.5], [0.75]], np.full(4, 0.25))
    fit = local_dimension(m, [0.0], [0.2, 0.25, 0.5])
    # least squares by hand over (log2 r, log2 mass)
    xs = np.log2([0.2, 0.25, 0.5])
    ys = np.log2([0.25, 0.5, 0.75])
    slope = (3 * (xs * ys).sum() - xs.sum() * ys.sum()) / \
        (3 * (xs * xs).sum() - xs.sum() ** 2)
    assert fit.slope == pytest.approx(slope, abs=1e-9)


def test_local_dimension_rejects_zero_mass():
    m = AtomicMeasure([[0.0], [10.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        local_dimension(m, [5.0], [0.25, 0.5, 1.0])


# lattice points in units of 1/4: duplicates and distances exactly at
# delta are common, and scaling by a power of two is exact
lattice_sets = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                        min_size=1, max_size=40).map(
    lambda xs: 0.25 * np.array(xs, dtype=float))


@settings(max_examples=60, deadline=None)
@given(pts=lattice_sets, quarters=st.integers(1, 12), power=st.integers(-8, 8))
def test_cover_scaling_invariant(pts, quarters, power):
    delta = 0.25 * quarters
    c = 2.0**power
    base = covering_number(pts, delta, return_centers=True)
    assert base == greedy_cover_loop(pts, delta)
    assert covering_number(c * pts, c * delta, return_centers=True) == base


@settings(max_examples=60, deadline=None)
@given(pts=lattice_sets, quarters=st.integers(1, 12),
       factor=st.floats(2.0, 8.0))
def test_cover_shrinks_when_delta_doubles(pts, quarters, factor):
    # the greedy count is not monotone between nearby scales, but centers
    # of the coarse cover are pairwise farther apart than twice delta, so
    # no fine ball holds two of them
    delta = 0.25 * quarters
    assert covering_number(pts, factor * delta) <= covering_number(pts, delta)
