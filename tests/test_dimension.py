"""Covering counts, scaling fits, and local exponents."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import greedy_cover_loop, min_nn_distance
from projlab import dimension, grid
from projlab.constructions import IfsSpec, ifs_atoms, sphere_net_union
from projlab.dimension import (ScalingFit, assouad_probe, box_dimension_fit,
                               covering_number, dyadic_scales, fit_loglog,
                               local_dimension)
from projlab.geom import AtomicMeasure, PointSet
from projlab.grid import CellTable


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


@pytest.mark.parametrize("delta", [1.0, 8.0, 2.0**-9])
def test_cover_meets_a_rim_pair_across_a_cell_edge(delta):
    # the table's cells have side h = delta (1 + GRID_MARGIN) from the
    # lowest point, 0; x sits just below the edge at 2h and x + delta on
    # the rim of its ball, so the pair must share or touch a cell
    x = np.nextafter(2 * delta * (1 + grid.GRID_MARGIN), 0)
    pts = np.array([[0.0], [x], [x + delta]])
    assert pts[2, 0] - pts[1, 0] == delta
    assert covering_number(pts, delta, True) == greedy_cover_loop(pts, delta) \
        == (2, [0, 1])


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


def test_cover_refuses_a_delta_that_is_not_positive():
    # NaN fails the guard as well; an infinite delta is one ball
    for delta in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match="delta must be positive"):
            covering_number(LINE5, delta)
    assert covering_number(LINE5, math.inf, return_centers=True) == (1, [0])


def test_min_nn_distance():
    assert min_nn_distance(LINE5) == pytest.approx(1.0)
    assert min_nn_distance([[0.0, 0.0], [0.3, 0.4], [9.0, 9.0]]) == \
        pytest.approx(0.5)


def test_dyadic_scales():
    scales = dyadic_scales(2.0**-3, 2.0**-8)
    assert scales == [2.0**-i for i in range(3, 9)]


@pytest.mark.parametrize("delta_max, delta_min", [
    (math.inf, 2.0**-8), (math.nan, 2.0**-8), (0.5, math.nan),
    (math.inf, math.inf), (0.5, 0.0), (0.25, 0.5), (-0.25, -0.5)])
def test_scale_windows_must_be_finite_and_ordered(monkeypatch, delta_max,
                                                  delta_min):
    # dyadic_scales(inf, d) would halve inf forever; both paths of the fit
    # refuse the window before any cell table is built
    def unreachable(*args, **kwargs):
        raise AssertionError("a cell table was built")

    with pytest.raises(ValueError, match="delta_min < delta_max < inf"):
        dyadic_scales(delta_max, delta_min)
    monkeypatch.setattr(dimension, "CellTable", unreachable)
    for n_scales in (None, 4):
        with pytest.raises(ValueError, match="delta_min < delta_max < inf"):
            box_dimension_fit(LINE5, delta_max, delta_min, n_scales=n_scales)


def test_n_scales_must_be_whole(monkeypatch):
    # int(n_scales) once overflowed at inf and cut 3.7 to 3 scales; the
    # count is refused before any cell table is built
    def unreachable(*args, **kwargs):
        raise AssertionError("a cell table was built")

    monkeypatch.setattr(dimension, "CellTable", unreachable)
    for n_scales in (math.inf, -math.inf, math.nan, 3.7):
        with pytest.raises(ValueError, match="n_scales must be a whole"):
            box_dimension_fit(LINE5, 2.0, 0.25, n_scales=n_scales)


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


def small_union(seed, t):
    return sphere_net_union(3, 2, l_law="pow2t", t=t, i_max=5, seed=seed,
                            sep_floor=2.0**-8).points


@pytest.mark.parametrize("t", [2.0, 3.0])
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_box_dimension_counts_match_the_tree_on_the_union(seed, t):
    # shell i sits at distance exactly 2^-i from the origin, so at each
    # dyadic scale a whole shell lies on the rim of the origin's ball
    pts = small_union(seed, t)
    fit = box_dimension_fit(pts, 2.0**-1, 2.0**-6)
    assert [c for _, c in fit.table] == \
        [greedy_cover_loop(pts, d)[0] for d, _ in fit.table]


def resolution_sets():
    yield "union", small_union(0, 2.0)
    yield "line", LINE5
    # the twins are 1 apart, but only the lone point counts: floor 4
    yield "twins", np.array([[0.0], [0.0], [1.0], [1.0], [5.0]])
    yield "all-twins", np.repeat(LINE5, 2, axis=0)  # floor 0
    yield "one-point", np.array([[0.3, 0.7]])  # floor inf
    rng = np.random.default_rng(3)
    yield "cloud", rng.uniform(0, 1, (500, 3))


@pytest.mark.parametrize("pts", [c[1] for c in resolution_sets()],
                         ids=[c[0] for c in resolution_sets()])
def test_resolution_floor_refuses_the_windows_the_tree_refused(pts):
    # the window stands exactly when delta_min reaches the tree's floor,
    # to the last bit, and a refusal reports that floor
    floor = min_nn_distance(pts)
    if floor == 0:
        probes = [1e-3, 1.0]
    elif floor == math.inf:
        probes = [1.0]
    else:
        probes = [floor / 3, np.nextafter(floor, 0), floor,
                  np.nextafter(floor, math.inf), 3 * floor]
    for delta_min in probes:
        if delta_min < floor:
            with pytest.raises(ValueError, match="resolution limit %.3g"
                               % floor):
                box_dimension_fit(pts, 8 * delta_min, delta_min)
        else:
            box_dimension_fit(pts, 8 * delta_min, delta_min)


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
    # assouad_probe's covers: a subset of one set, walked in place, alone
    # or on one table that keeps the balls of every cover before
    pts = mixed_set(7)
    shared = CellTable(pts, rho, keep_balls=True)
    counts = []
    for i in range(len(pts)):
        local = np.flatnonzero(np.linalg.norm(pts - pts[i], axis=1) <= r)
        count, centers = greedy_cover_loop(pts[local], rho)
        assert covering_number(pts, rho, True, within=local) == \
            covering_number(pts, rho, True, within=local, index=shared) == \
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


lattice_rows = st.integers(1, 4).flatmap(lambda dim: st.lists(
    st.tuples(*[st.integers(0, 6)] * dim), min_size=1, max_size=30))


@settings(max_examples=150, deadline=None)
@given(rows=lattice_rows, quarters=st.integers(1, 12),
       power=st.integers(-8, 8), data=st.data())
def test_cover_matches_the_tree_on_lattices(rows, quarters, power, data):
    # 1/4-lattice points in 1-4 dimensions: duplicates and points exactly
    # on the rim of a ball are common, and scaling by 2^p is exact.  A
    # cover within a subset is the tree's cover of the extracted points.
    c = 2.0**power
    pts, delta = c * 0.25 * np.array(rows, dtype=float), c * 0.25 * quarters
    within = data.draw(st.none() | st.lists(
        st.booleans(), min_size=len(pts), max_size=len(pts)).map(np.array))
    if within is None:
        want = greedy_cover_loop(pts, delta)
    else:
        local = np.flatnonzero(within)
        count, centers = greedy_cover_loop(pts[local], delta)
        want = (count, local[centers].tolist())
    assert covering_number(pts, delta, True, within=within) == want
