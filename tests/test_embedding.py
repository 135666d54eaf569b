"""Collision probabilities, transversality and inverse moduli."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from oracles import (decode_brute_force_oracle, decode_recoveries_oracle,
                     image_sq_norms, log_lip_pass_oracle, modulus_oracle,
                     origin_ceiling_scorer, transversality_oracle)
from projlab import embedding
from projlab.constructions import (SphereNetSpec, sparse_atoms, sphere_net,
                                   sphere_net_union)
from projlab.embedding import (CEIL_SLACK, _image_diameter, _net_images,
                               _origin_ceilings, _tail_table,
                               collision_probability, decode_recoveries,
                               holder_ceiling, hull_vertices,
                               inverse_continuity_modulus, log_lip_distances,
                               log_lip_pass, log_lipschitz_modulus,
                               origin_cells, set_diameter,
                               transversality_fraction)
from projlab.experiments import _sub_seeds
from projlab.grid import COVER_PAIRS, block_end, sq_norms
from projlab.linalg import sample_e_batch


def test_collision_probability_fields_and_monotonicity():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, (150, 3))
    rows = sample_e_batch(3, 2, 400, seed=7)
    out = collision_probability(pts, base_index=0, delta=0.25,
                                eps_grid=[2.0**-3, 2.0**-4, 2.0**-5],
                                rows=rows)
    counts = [c for _, c in out["table"]]
    eps = [e for e, _ in out["table"]]
    assert eps == sorted(eps, reverse=True)
    assert counts == sorted(counts, reverse=True)  # events shrink with eps
    assert out["n_maps"] == 400
    again = collision_probability(pts, base_index=0, delta=0.25,
                                  eps_grid=[2.0**-3, 2.0**-4, 2.0**-5],
                                  rows=rows)
    assert again["table"] == out["table"]


def test_tail_table_inclusive_and_descending():
    # a statistic equal to some eps counts there; the grid may come in any
    # order and the rows come back in decreasing eps; the fit needs three
    # rows with events
    stat = np.array([0.125, 0.25, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    table, fit = _tail_table([stat], [0.25, 0.5, 1.0, 2.0])
    assert table == [(2.0, 6), (1.0, 5), (0.5, 4), (0.25, 3)]
    assert all(type(e) is float and type(c) is int for e, c in table)
    assert fit["slope"] > 0 and 0 < fit["r_squared"] <= 1
    assert _tail_table([stat], [2.0, 0.25, 1.0, 0.5]) == (table, fit)
    assert _tail_table([stat], [0.01, 0.1, 0.125, 0.25]) == (
        [(0.25, 3), (0.125, 1), (0.1, 0), (0.01, 0)], None)


def _collision_minima(points, base_index, delta, rows):
    """Per-map minima, one map at a time, as a direct oracle."""
    base = points[base_index]
    far = points[np.linalg.norm(points - base, axis=1) >= delta]
    return np.array([np.linalg.norm((far - base) @ op.T, axis=1).min()
                     for op in rows])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n_maps", [1, embedding.MAP_BLOCK - 1,
                                    embedding.MAP_BLOCK + 1,
                                    3 * embedding.MAP_BLOCK])
def test_collision_blocks_match_the_per_map_loop(n_maps, k):
    # the grid holds each oracle minimum and the float just below it, so
    # a map whose minimum is one ulp off either way changes a count; rows
    # of norm at most 1/4 keep every minimum within delta / 2
    rng = np.random.default_rng(n_maps + k)
    pts = rng.uniform(-1, 1, (300, 4)) * 10.0 ** rng.uniform(-3, 0, (300, 1))
    rows = sample_e_batch(4, k, n_maps, seed=k) / 4.0
    mins = _collision_minima(pts, 0, 0.25, rows)
    assert mins.max() <= 0.125
    grid = np.concatenate([mins, np.nextafter(mins, 0.0)])
    out = collision_probability(pts, 0, 0.25, grid, rows)
    assert out["table"] == [(float(e), int(np.count_nonzero(mins <= e)))
                            for e in sorted(grid, reverse=True)]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60),
       k=st.integers(1, 3))
def test_collision_table_permutation_invariant(seed, n, k):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (n, 3))
    pts[-1] = pts[0] + 1.0  # at least one point at distance >= delta
    perm = rng.permutation(n)
    grid = [2.0**-2, 2.0**-4, 2.0**-6]
    rows = sample_e_batch(3, k, 2 * embedding.MAP_BLOCK + 5, seed)
    out = collision_probability(pts, 0, 0.5, grid, rows)
    moved = collision_probability(pts[perm], int(np.argmax(perm == 0)), 0.5,
                                  grid, rows)
    assert moved["table"] == out["table"]


def test_transversality_event_scaling():
    # event |L e1| <= eps over ball-row maps: fraction scales like eps^k
    n_maps = 40_000
    out = transversality_fraction([1.0, 0.0, 0.0],
                                  eps_grid=[2.0**-2, 2.0**-3, 2.0**-4],
                                  rows=sample_e_batch(3, 2, n_maps, seed=3))
    assert abs(out["fit"]["slope"] - 2.0) < 0.3
    assert math.isfinite(out["c_hat"]) and out["c_hat"] > 0
    fracs = [c / n_maps for _, c in out["table"]]
    assert fracs == sorted(fracs, reverse=True)


def test_transversality_scale_equivariance():
    # doubling |x| doubles the eps needed for the same event count, exactly
    # on one stack: doubling is exact in binary floating point
    rows = sample_e_batch(3, 2, 20_000, seed=5)
    big = transversality_fraction([2.0, 0.0, 0.0], [2.0**-2], rows)
    small = transversality_fraction([1.0, 0.0, 0.0], [2.0**-3], rows)
    assert big["table"][0][1] == small["table"][0][1] > 0


@pytest.mark.parametrize("k", [1, 2, 8, 9])
@pytest.mark.parametrize("generic", [False, True])
def test_transversality_blocks_match_the_whole_stack_norm(k, generic):
    # from 8 rows on np.linalg.norm sums pairwise; the eps are statistics
    # of maps at block edges, so a raised last bit there drops a count
    m = 2 * embedding.TRANS_BLOCK + 1
    rows = sample_e_batch(k + 1, k, m, seed=k)
    x = (np.random.default_rng(k).standard_normal(k + 1) if generic
         else np.eye(k + 1)[0])
    stat = np.linalg.norm(rows @ x, axis=1)
    grid = stat[[0, embedding.TRANS_BLOCK - 1, embedding.TRANS_BLOCK, m - 1]]
    out = transversality_fraction(x, grid, rows)
    table, c_by_eps = transversality_oracle(x, grid, rows)
    assert out["table"] == table
    assert out["c_by_eps"] == c_by_eps


@pytest.mark.parametrize("k", [1, 2])
def test_transversality_peak_is_one_block(k):
    # a block holds its images, their squares, their norms and its
    # comparisons with the grid; the statistic is never held whole
    rows = sample_e_batch(3, k, 200_000, seed=k)
    grid = [2.0**-2, 2.0**-4, 2.0**-6]
    transversality_fraction([1.0, 0.0, 0.0], grid, rows[:2])
    tracemalloc.start()
    try:
        transversality_fraction([1.0, 0.0, 0.0], grid, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 2 * (k + 1) * embedding.TRANS_BLOCK * 8
    block += (8 + len(grid)) * embedding.TRANS_BLOCK
    assert peak <= block + (1 << 16)


def test_modulus_identity_map():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 1, (200, 2))
    table, = inverse_continuity_modulus(pts, np.eye(2)[None], [0.1, 0.3, 0.5])
    assert len(table) == 3
    for delta, eps in table:
        assert eps >= delta - 1e-7  # identity never contracts
    # nondecreasing in delta
    eps_vals = [eps for _, eps in table]
    assert eps_vals == sorted(eps_vals)


def test_modulus_detects_collision():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0]])
    op = np.array([[1.0, 0.0]])
    table, = inverse_continuity_modulus(pts, op[None], [0.5])
    assert table[0][1] <= 1e-7  # the vertical pair collides
    with pytest.raises(ValueError, match="stack of maps"):
        inverse_continuity_modulus(pts, op, [0.5])


def test_modulus_no_pairs_raises():
    pts = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError):
        inverse_continuity_modulus(pts, np.eye(1)[None], [5.0])


@pytest.mark.parametrize("deltas", [[], [float("nan")], [-1.0], [0.0],
                                    [0.5, math.inf], [0.5, -0.5]])
def test_modulus_refuses_a_bad_delta_grid(deltas):
    pts = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError, match="delta"):
        inverse_continuity_modulus(pts, np.eye(1)[None], deltas)


def test_modulus_truncates_unreachable_scales():
    pts = np.array([[0.0], [1.0], [2.0]])
    table, = inverse_continuity_modulus(pts, np.eye(1)[None],
                                        [0.5, 1.5, 10.0])
    assert [d for d, _ in table] == [0.5, 1.5]  # no pair at distance 10


def test_set_diameter_paths():
    # one scan for every dimension: in 1-D its largest pair distance is
    # fl(sqrt(fl(x^2))) = |x| at the extreme pair, so max - min exactly
    assert set_diameter(np.array([[0.0], [2.0], [7.0]])) == 7.0
    assert set_diameter(np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.2]])) \
        == math.sqrt(2.0)
    assert set_diameter(np.empty((0, 1))) == 0.0
    assert set_diameter(np.empty((0, 2))) == 0.0
    with pytest.raises(AttributeError):  # only ConvexHull resolves lazily
        embedding.__getattr__("no_such_name")


def _pair_max(pts):
    """The diameter as the largest np.linalg.norm over all pairs."""
    return float(np.linalg.norm(pts[:, None] - pts[None], axis=-1).max())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       dim=st.integers(1, 3), block=st.sampled_from([1, 7, 64, 2048, 1 << 18]),
       power=st.integers(-30, 30))
def test_set_diameter_is_the_pair_maximum(seed, n, dim, block, power):
    # bit for bit against every pair, under any block size, for any row
    # order, and scaled exactly by powers of two; an early stop returns a
    # pair distance of at least the stop
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, dim)) * 2.0 ** rng.integers(-4, 5, (n, 1))
    pts[rng.random(n) < 0.1] = pts[0]  # some repeated points
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embedding, "STACK_BLOCK", block)
        diam = set_diameter(pts)
        assert diam == _pair_max(pts)
        assert set_diameter(pts[rng.permutation(n)]) == diam
        assert set_diameter(2.0**power * pts) == 2.0**power * diam
        stop = float(rng.uniform(0.0, 1.5)) * diam
        early = set_diameter(pts, stop=stop)
        assert min(stop, diam) <= early <= diam
        dists = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
        assert early in dists


def _hull_calls(monkeypatch):
    """A list that grows by one for each Qhull call hull_vertices makes."""
    import scipy.spatial

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return ConvexHull(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "ConvexHull", counting)
    return calls


def _qhull_vertices(pts):
    return np.sort(ConvexHull(pts).vertices)


@pytest.mark.parametrize("seed", [42, 0, 1, 7])
def test_hull_vertices_of_the_holder_nets_match_qhull(seed, monkeypatch):
    # both default holder-ceiling nets: the certificate decides (no Qhull
    # call), leg A on its outermost shell, leg B after peeling shell 2
    seeds = _sub_seeds(seed, 3)
    leg_a = sphere_net_union(3, 2, t=2.0, i_max=8, seed=seeds[0]).points
    leg_b = sphere_net(SphereNetSpec(3, 2, (0, 1, 2), l_law="pow2sq",
                                     i_max=6), seeds[0],
                       allow_partial=True).points
    calls = _hull_calls(monkeypatch)
    got = [hull_vertices(p, np.sqrt(sq_norms(p))) for p in (leg_a, leg_b)]
    assert not calls
    shell_1 = np.flatnonzero(np.isclose(np.linalg.norm(leg_a, axis=1), 0.5))
    assert np.array_equal(got[0], shell_1) and len(shell_1) == 24
    for pts, verts in zip((leg_a, leg_b), got):
        assert np.array_equal(verts, _qhull_vertices(pts))


def _shell_set(seed, counts, dim=3):
    """Random points on shells of radius 2^-i, counts[i-1] on shell i."""
    rng = np.random.default_rng(seed)
    shells = []
    for i, count in enumerate(counts, start=1):
        u = rng.normal(size=(count, dim))
        shells.append(2.0**-i * u / np.linalg.norm(u, axis=1, keepdims=True))
    return np.vstack(shells)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       counts=st.lists(st.integers(1, 40), min_size=1, max_size=4),
       scale=st.floats(1e-3, 1e3))
def test_hull_vertices_permute_and_scale(seed, counts, scale):
    # against Qhull; a permutation of the points permutes the vertex set,
    # and a positive scaling leaves it as it is
    pts = _shell_set(seed, [max(counts[0], 4)] + counts[1:])
    verts = hull_vertices(pts, np.sqrt(sq_norms(pts)))
    assert np.array_equal(verts, _qhull_vertices(pts))
    perm = np.random.default_rng(seed).permutation(len(pts))
    moved = pts[perm]
    assert np.array_equal(hull_vertices(moved, np.sqrt(sq_norms(moved))),
                          np.flatnonzero(np.isin(perm, verts)))
    scaled = scale * pts
    assert np.array_equal(hull_vertices(scaled, np.sqrt(sq_norms(scaled))),
                          verts)


def test_hull_vertices_fall_back_where_the_certificate_cannot_decide(
        monkeypatch):
    calls = _hull_calls(monkeypatch)
    inner = _shell_set(3, [0, 30])
    cases = [
        # an outer shell of 4 coplanar points
        np.vstack([[[0.5, 0, 0], [0, 0.5, 0], [-0.5, 0, 0], [0, -0.5, 0]],
                   inner]),
        # a cube: each facet plane holds a fourth corner
        np.vstack([0.25 * np.array(np.meshgrid(*[[-1.0, 1.0]] * 3))
                   .reshape(3, -1).T, inner]),
        # more candidates than one scan takes
        _shell_set(4, [embedding.HULL_SCAN_MAX + 1, 20]),
    ]
    for pts in cases:
        before = len(calls)
        assert np.array_equal(hull_vertices(pts, np.sqrt(sq_norms(pts))),
                              _qhull_vertices(pts))
        assert len(calls) == before + 1
    # sets in fewer coordinates than the ambient space go to Qhull in
    # their own coordinates: a flat set in R^3, a 2-sphere net in R^4
    # takes the certificate on its three coordinates, a union in R^4 Qhull
    flat = np.zeros((len(inner), 3))
    flat[:, :2] = inner[:, :2]
    net4 = np.zeros((len(inner), 4))
    net4[:, :3] = inner
    full4 = _shell_set(5, [10, 30], dim=4)
    for pts, cols, qhull in ((flat, [0, 1], 1), (net4, [0, 1, 2], 0),
                             (full4, [0, 1, 2, 3], 1)):
        before = len(calls)
        assert np.array_equal(hull_vertices(pts, np.sqrt(sq_norms(pts))),
                              _qhull_vertices(pts[:, cols]))
        assert len(calls) == before + qhull


def test_log_lipschitz_identity_floor():
    # for the identity the ratio u / f(u) is log2(2R/u)^(eta/theta) >= 1
    # at every distance up to R
    pts = np.random.default_rng(10).uniform(0, 1, (50, 2))
    pd = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    pd = pd[pd > 0]
    assert np.all(pd / log_lipschitz_modulus(pd, pd.max(), 2.0, 1.0) >= 1.0)


def test_log_lipschitz_collision_and_validation():
    # f is positive on (0, R], so a ratio against it is 0 exactly at a
    # collision
    u = np.array([1e-12, 0.5, 1.0, 4.0])
    assert np.all(log_lipschitz_modulus(u, 4.0, 2.0, 1.0) > 0)
    assert log_lipschitz_modulus([0.0, 1.0], 1.0, 2.0, 1.0).tolist() == [0.0, 1.0]
    for eta, theta in ((0.5, 1.0), (2.0, 0.0)):
        with pytest.raises(ValueError):
            log_lipschitz_modulus([1.0], 1.0, eta, theta)



@pytest.mark.parametrize("n", [1, embedding.TRI_BLOCK,
                               2 * embedding.TRI_BLOCK + 5])
def test_log_lip_distances_are_symmetric_row_norms(n):
    # log_lip_pass needs pd bit-symmetric and taken entry by entry; repeated
    # atoms and mixed scales put exact zeros and small distances in it
    rng = np.random.default_rng(n)
    pts = rng.uniform(-1, 1, (n, 8)) * 2.0 ** rng.integers(-6, 1, (n, 1))
    pts[rng.random(n) < 0.1] = pts[0]
    pd, big_r = log_lip_distances(pts)
    assert pd.shape == (n, n)
    assert np.array_equal(pd, pd.T)
    for i in range(n):
        assert np.array_equal(pd[i], np.linalg.norm(pts - pts[i], axis=1))
    assert big_r == float(pd.max())

# --- log-lip's pass against the whole matrices ---


def _full_matrix_pass(pd, images, m_const, eta=2.0, theta=1.0):
    """(alpha, c_hat) from the whole n x n matrices, as log-lip first took
    them map by map: c_hat is each atom's least ratio of image distance to
    the modulus f(pd) over its partners (pd > 0).  A large eta / theta
    overflows the modulus's power, which makes f 0 at small distances."""
    im = np.sqrt(sq_norms(images[:, None, :], images[None, :, :]))
    top = float(im.max())
    normalizer = 2.0 * top if top > 0.0 else 1.0  # every image coincides
    alpha = holder_ceiling(pd / normalizer, im / normalizer, m_const)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f_mod = log_lipschitz_modulus(pd, pd.max(), eta, theta)
        c_hat = np.min(im / f_mod, axis=1, initial=np.inf, where=pd > 0)
    return alpha, c_hat


def _atoms_and_images(seed, n, k, dim=3):
    """Bit-symmetric distances of n atoms, some of them repeated, and
    images of them, some of which collide."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (n, dim)) * 2.0 ** rng.integers(-6, 1, (n, 1))
    pts[rng.random(n) < 0.1] = pts[0]
    pd = np.sqrt(sq_norms(pts[:, None], pts[None]))
    images = pts @ sample_e_batch(dim, k, 1, seed)[0].T
    images[rng.random(n) < 0.1] = images[-1]
    return pd, images


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
       k=st.integers(1, 2), m_const=st.sampled_from([1.0, 3.0, 16.0]),
       exponents=st.sampled_from([(2.0, 1.0), (1.01, 10.0), (1000.0, 1.0)]))
def test_log_lip_pass_blocks_and_permutation(seed, n, k, m_const, exponents):
    # the flags are the defect's sign at every (eta, theta), also where the
    # modulus's power overflows and f is 0 at small distances; blocks of
    # 1, 3 and 64 pairs split the ranges of one image anywhere
    pd, images = _atoms_and_images(seed, n, k)
    alpha, c_hat = _full_matrix_pass(pd, images, m_const, *exponents)
    with pytest.MonkeyPatch.context() as patch:
        for block in (1, 3, 64, n * n):
            patch.setattr(embedding, "DECODE_PAIRS", block)
            got = log_lip_pass(pd, pd.max(), images, m_const)
            assert np.array_equal(got[0], alpha)
            assert np.array_equal(got[1], c_hat > 0)
    perm = np.random.default_rng(seed).permutation(n)
    moved = log_lip_pass(pd[perm][:, perm], pd.max(), images[perm], m_const)
    assert np.array_equal(moved[0], alpha[perm])
    assert np.array_equal(moved[1], c_hat[perm] > 0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60),
       k=st.integers(1, 5), m_const=st.sampled_from([1.0, 3.0, 16.0, 1e6]),
       scale=st.sampled_from([1.0, 2.0**-500, 2.0**480]))
def test_log_lip_pass_matches_the_dense_oracle(seed, n, k, m_const, scale):
    # k up to 5 leaves coordinates unkeyed; coincident atoms and colliding
    # images come from _atoms_and_images, and the scales reach both ends of
    # the certified range
    pd, images = _atoms_and_images(seed, n, k, dim=6)
    images *= scale
    want = log_lip_pass_oracle(pd, images, m_const)
    got = log_lip_pass(pd, pd.max(), images, m_const)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    perm = np.random.default_rng(seed).permutation(n)
    moved = log_lip_pass(pd[perm][:, perm], pd.max(), images[perm], m_const)
    assert np.array_equal(moved[0], want[0][perm])
    assert np.array_equal(moved[1], want[1][perm])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_log_lip_pass_total_collapse_is_an_exact_collision():
    # two atoms at distance 1 with one image: each pair collides exactly,
    # so both ceilings are 0, as holder_ceiling defines them, and neither
    # defect is positive
    pd = np.array([[0.0, 1.0], [1.0, 0.0]])
    images = np.zeros((2, 1))
    for m_const in (1.0, 16.0):
        alpha, positive = log_lip_pass(pd, 1.0, images, m_const)
        assert alpha.tolist() == [0.0, 0.0]
        assert positive.tolist() == [False, False]
        oracle = _full_matrix_pass(pd, images, m_const)
        assert [a.tolist() for a in oracle] == [[0.0, 0.0], [0.0, 0.0]]


def test_log_lip_pass_refuses_images_beyond_the_certified_range():
    pd, images = _atoms_and_images(3, 10, 2)
    log_lip_pass(pd, pd.max(), 2.0**480 * images, 1.0)
    with pytest.raises(ValueError, match="certified"):
        log_lip_pass(pd, pd.max(), 2.0**490 * images, 1.0)
    for m_const in (0.5, math.inf):
        with pytest.raises(ValueError, match="M must be at least 1"):
            log_lip_pass(pd, pd.max(), images, m_const)


@pytest.mark.parametrize("m_const", [3.0, 5.0, 10.0])
def test_log_lip_candidates_hold_every_binding_pair(m_const, monkeypatch):
    # every pair sits at pd = fl(M im) or one step beside it, and some
    # images collide; normalizing can make a pair with pd <= M im bind,
    # and the scored candidates must still hold every binding pair
    rng = np.random.default_rng(int(m_const))
    n = 40
    images = rng.uniform(-1, 1, (n, 2))
    images[5:9] = images[4]  # exact collisions
    im = np.sqrt(sq_norms(images[:, None], images[None]))
    pd = np.where(im > 0, m_const * im, rng.uniform(0.1, 1.0, (n, n)))
    step = rng.integers(-1, 2, (n, n))
    pd = np.where(step < 0, np.nextafter(pd, 0.0),
                  np.where(step > 0, np.nextafter(pd, np.inf), pd))
    pd = np.triu(pd, 1) + np.triu(pd, 1).T
    scored = []

    def spy(pd_c, im_c, m):
        scored.append(np.count_nonzero(pd_c > m * im_c))
        return holder_ceiling(pd_c, im_c, m)

    monkeypatch.setattr(embedding, "holder_ceiling", spy)
    alpha, positive = log_lip_pass(pd, pd.max(), images, m_const)
    monkeypatch.undo()
    oracle_alpha, c_hat = _full_matrix_pass(pd, images, m_const)
    assert np.array_equal(alpha, oracle_alpha)
    assert np.array_equal(positive, c_hat > 0)
    assert positive.tolist() == [not 4 <= i < 9 for i in range(n)]
    normalizer = 2.0 * im.max()
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    binding = upper & (pd / normalizer > m_const * (im / normalizer))
    assert scored == [np.count_nonzero(binding)]
    assert np.any(binding & (im == 0))  # a collision binds
    assert np.any(binding & (pd <= m_const * im) & (im > 0))  # by rounding


@pytest.mark.parametrize("m_const", [1.0, 3.0, 10.0])
def test_log_lip_scores_the_pairs_at_the_reach(m_const, monkeypatch):
    # two atoms R apart whose images lie t apart, t the largest float with
    # fl(lo t) < R, lo = M (1 - CEIL_SLACK): the pair is a candidate at the
    # far edge of the reach, and its squares may sum above fl(t^2)
    rng = np.random.default_rng(int(m_const))
    lo = m_const * (1.0 - CEIL_SLACK)
    scored = []

    def spy(pd_c, im_c, m):
        scored.append(len(pd_c))
        return holder_ceiling(pd_c, im_c, m)

    monkeypatch.setattr(embedding, "holder_ceiling", spy)
    for _ in range(200):
        big_r = rng.uniform(0.5, 1.0)
        t = big_r / lo
        while lo * t >= big_r:
            t = np.nextafter(t, 0.0)
        k = int(rng.integers(1, 6))
        d = np.zeros(k)
        while np.sqrt(sq_norms(d[None]))[0] != t:
            u = rng.standard_normal(k)
            d = t * u / np.linalg.norm(u)
        pd = np.array([[0.0, big_r], [big_r, 0.0]])
        log_lip_pass(pd, big_r, np.array([np.zeros(k), d]), m_const)
    assert scored == [1] * 200


def _clusters(seed, n, k):
    """n images in a few tight clusters far apart."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-1, 1, (3, k))
    return centres[rng.integers(0, 3, n)] + 1e-9 * rng.standard_normal((n, k))


@pytest.mark.parametrize("images", [
    np.full((5, 3), 0.1),  # every image coincides: max im 0, so N = 1
    np.array([[0.25, -1.0]]),
    np.array([[0.0, 1.0], [3.0, -2.0]]),
    np.outer(np.linspace(-1.0, 3.0, 40) ** 3, [0.6, -0.8]),  # collinear
    np.linspace(0.0, 1.0, 30)[:, None],
    _clusters(0, 50, 2), _clusters(1, 200, 4),
    2.0**-500 * _clusters(2, 60, 3),
    np.random.default_rng(3).uniform(-1, 1, (300, 4))])
def test_image_diameter_is_the_diameter_of_every_image(images):
    # the centroid's bar keeps every pair that can reach the largest image
    # distance, so the pruned diameter is the same float
    assert _image_diameter(images) == set_diameter(images)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80),
       k=st.integers(1, 4), power=st.sampled_from([0, -500, 480]))
def test_image_diameter_matches_set_diameter(seed, n, k, power):
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((n, k)) * 2.0 ** rng.integers(-3, 3, (n, 1))
    images[rng.random(n) < 0.2] = images[0]
    images *= 2.0**power
    assert _image_diameter(images) == set_diameter(images)


# --- the map-stacked modulus kernel against direct differences ---


def _direct_modulus(pts, rows, deltas):
    """min |L(x - y)| over pairs with |x - y| >= delta, pair by pair."""
    diff = pts[:, None, :] - pts[None, :, :]
    pd = np.linalg.norm(diff, axis=2)
    im = np.linalg.norm(diff @ np.atleast_2d(rows).T, axis=2)
    upper = np.triu(np.ones(pd.shape, dtype=bool), 1)
    return [(d, float(im[upper & (pd >= d)].min())) for d in deltas]


@pytest.mark.parametrize("k", [1, 2])
def test_modulus_stack_matches_direct_oracle(k):
    rng = np.random.default_rng(20 + k)
    pts = rng.uniform(-1, 1, (40, 3))
    rows = sample_e_batch(3, k, 5, seed=k)
    deltas = [0.3, 0.8, 1.4]
    tables = inverse_continuity_modulus(pts, rows, deltas)
    assert len(tables) == len(rows)
    for r, table in zip(rows, tables):
        # a stack gives the tables of one call per map
        assert [table] == inverse_continuity_modulus(pts, r[None], deltas)
        for (d, eps), (d_ref, eps_ref) in zip(table,
                                              _direct_modulus(pts, r, deltas)):
            assert d == d_ref
            assert eps == pytest.approx(eps_ref, rel=1e-12)
    identity, = inverse_continuity_modulus(pts, np.eye(3)[None], deltas)
    oracle = _direct_modulus(pts, np.eye(3), deltas)
    assert [e for _, e in identity] == pytest.approx([e for _, e in oracle],
                                                     rel=1e-12)


def _modulus_cases():
    """(points, maps, deltas) on which the walk meets each of its paths."""
    rng = np.random.default_rng(31)
    cloud = rng.uniform(-1, 1, (60, 3))
    line = np.outer(0.1 * np.arange(40), [1.0, 0.0, 0.0]) \
        + 1e-3 * rng.normal(size=(40, 3))
    yield from ((cloud, sample_e_batch(3, k, 4, seed=k), [0.3, 0.8, 1.4])
                for k in (1, 2, 3))
    # deltas above the diameter, which no pair reaches
    yield cloud, sample_e_batch(3, 2, 3, seed=4), [0.5, 3.0, 4.0, 9.0]
    # along a line seen end on, image neighbours are domain neighbours:
    # no pair near in the image order is 2 apart
    yield line, np.array([[[1.0, 0.0, 0.0]], [[0.9, 0.1, 0.0]]]), [0.05, 2.0]
    # every image coincides: eps is 0
    yield cloud, np.zeros((2, 2, 3)), [0.5]
    yield cloud[:1].repeat(5, axis=0), sample_e_batch(3, 1, 2, seed=5), [0.5]


@pytest.mark.parametrize("case", range(7))
def test_modulus_matches_the_all_pairs_oracle(case, monkeypatch):
    # bit for bit, under any block size, against the pass over every pair
    pts, rows, deltas = list(_modulus_cases())[case]
    try:
        expected = modulus_oracle(pts, rows, deltas)
    except ValueError:  # every point coincides: no pair is far
        with pytest.raises(ValueError, match="no pairs"):
            inverse_continuity_modulus(pts, rows, deltas)
        return
    for block in (1, 40, 1 << 18):
        monkeypatch.setattr(embedding, "STACK_BLOCK", block)
        assert inverse_continuity_modulus(pts, rows, deltas) == expected


def test_modulus_blocks_smaller_than_the_stack(monkeypatch):
    # from one base point per block to the whole stack in one block: the
    # block size must not change the table
    rng = np.random.default_rng(23)
    pts = rng.uniform(-1, 1, (30, 3))
    rows = sample_e_batch(3, 2, 4, seed=5)
    monkeypatch.setattr(embedding, "STACK_BLOCK", 4 * 30 * 30)
    whole = inverse_continuity_modulus(pts, rows, [0.2, 0.9])
    for block in (1, 1 << 18, 1 << 21):
        monkeypatch.setattr(embedding, "STACK_BLOCK", block)
        assert inverse_continuity_modulus(pts, rows, [0.2, 0.9]) == whole


def _cloud_and_maps(seed, n, k):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (n, 3)), sample_e_batch(3, k, 3, seed=seed)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 30),
       k=st.integers(1, 2))
def test_modulus_permutation_invariant(seed, n, k):
    pts, rows = _cloud_and_maps(seed, n, k)
    perm = np.random.default_rng(seed + 1).permutation(n)
    deltas = [0.25, 0.5, 1.0]
    tables = inverse_continuity_modulus(pts, rows, deltas)
    assert tables == modulus_oracle(pts, rows, deltas)
    for a, b in zip(tables,
                    inverse_continuity_modulus(pts[perm], rows, deltas)):
        assert [d for d, _ in a] == [d for d, _ in b]
        assert [e for _, e in a] == pytest.approx([e for _, e in b],
                                                  rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 30),
       k=st.integers(1, 2), power=st.integers(-8, 8))
def test_modulus_scales_with_points_and_maps(seed, n, k, power):
    # powers of two scale every rounding step exactly
    pts, rows = _cloud_and_maps(seed, n, k)
    c = 2.0**power
    deltas = [0.25, 0.5, 1.0]
    base = inverse_continuity_modulus(pts, rows, deltas)
    moved = inverse_continuity_modulus(c * pts, rows, [c * d for d in deltas])
    stretched = inverse_continuity_modulus(pts, c * rows, deltas)
    for t0, t1, t2 in zip(base, moved, stretched):
        assert [(c * d, c * e) for d, e in t0] == t1
        assert [(d, c * e) for d, e in t0] == t2


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 30),
       k=st.integers(1, 2),
       deltas=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=6))
def test_modulus_nondecreasing_in_delta(seed, n, k, deltas):
    pts, rows = _cloud_and_maps(seed, n, k)
    if np.linalg.norm(pts[:, None] - pts[None], axis=2).max() < min(deltas):
        return  # no pair at the smallest delta: the call refuses
    for table in inverse_continuity_modulus(pts, rows, deltas):
        eps = [e for _, e in table]
        assert [d for d, _ in table] == sorted(d for d, _ in table)
        assert eps == sorted(eps)


# --- the Holder ceiling routine ---


def _direct_ceiling(pd, im, m_const):
    """The ceiling of one row, pair by pair."""
    best = math.inf
    for p, q in zip(pd, im):
        if p > m_const * q:
            if q == 0.0:
                return 0.0
            best = min(best, (math.log2(p) - math.log2(m_const))
                       / math.log2(q))
    return max(0.0, best)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6),
       cols=st.integers(1, 12))
def test_holder_ceiling_rows_match_direct_and_grow_with_m(seed, rows, cols):
    rng = np.random.default_rng(seed)
    pd = rng.uniform(0.0, 0.5, (rows, cols))
    im = pd * rng.uniform(0.0, 1.5, (rows, cols))
    im[rng.random((rows, cols)) < 0.05] = 0.0  # some exact collisions
    pd[:, 0] = im[:, 0] = 0.0  # the base point itself
    last = np.zeros(rows)
    for m in (1.0, 2.0, 8.0):
        alpha = holder_ceiling(pd, im, m)
        assert alpha.shape == (rows,)
        for r in range(rows):
            assert alpha[r] == pytest.approx(_direct_ceiling(pd[r], im[r], m),
                                             rel=1e-12)
            assert float(holder_ceiling(pd[r], im[r], m)) == alpha[r]
        assert np.all(alpha >= last)
        last = alpha


def test_holder_ceiling_hand_example():
    # points 0, 1, 4 under x -> x/2, base 1, normalizer 4: pd = (1/4, 3/4)
    # and im = (1/8, 3/8); both bind, the second hardest
    pd = np.array([0.25, 0.0, 0.75])
    alpha = float(holder_ceiling(pd, pd / 2, 1.0))
    assert alpha == pytest.approx(math.log2(0.75) / math.log2(0.375),
                                  abs=1e-12)


def test_holder_ceiling_monotone_in_m():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1, 1, (60, 3))
    imgs = pts @ sample_e_batch(3, 2, 1, seed=9)[0].T
    normalizer = 2.0 * set_diameter(imgs)
    pd = np.linalg.norm(pts - pts[0], axis=1) / normalizer
    im = np.linalg.norm(imgs - imgs[0], axis=1) / normalizer
    alphas = [float(holder_ceiling(pd, im, m)) for m in (1.0, 2.0, 4.0, 8.0)]
    assert alphas == sorted(alphas) and math.isfinite(alphas[0])


def _base_distances(pts, imgs, base_index=0):
    """Distances from the base point in the domain and in the image, over
    twice the image diameter (or the domain's, when the image is a point)."""
    normalizer = 2.0 * (set_diameter(imgs) or set_diameter(pts))
    pd = np.linalg.norm(pts - pts[base_index], axis=1) / normalizer
    im = np.linalg.norm(imgs - imgs[base_index], axis=1) / normalizer
    return pd, im


def test_pointwise_holder_collision_and_identity():
    pts = np.array([[0.0, 0.0], [0.0, 2.0], [1.0, 0.0]])
    op = np.array([[1.0, 0.0]])
    pd, im = _base_distances(pts, pts @ op.T)
    # the projection sends (0, 2) onto the base: an exact collision kills
    # every exponent
    assert float(holder_ceiling(pd, im, 4.0)) == 0.0
    pd, im = _base_distances(pts, pts)
    assert float(holder_ceiling(pd, im, 1.0)) == math.inf  # nothing binds
    with pytest.raises(ValueError):
        holder_ceiling(pd, im, 0.5)  # M < 1 is refused


def test_holder_ceiling_collision_and_empty_rules():
    pd = np.array([[0.0, 0.25, 0.5], [0.0, 0.25, 0.5]])
    im = np.array([[0.0, 0.25, 0.0], [0.0, 0.5, 0.5]])
    # row 0: the collision at index 2 gives 0; row 1: nothing binds
    assert holder_ceiling(pd, im, 1.0).tolist() == [0.0, math.inf]
    with pytest.raises(ValueError):
        holder_ceiling(pd, im, 0.5)  # M < 1 is refused
    # partner 1 binds with a negative ceiling (pd > 1), partner 2 collides:
    # both floor at 0
    pd = np.array([0.0, 10.0, 20.0, 1.0]) / 2.0
    im = np.array([0.0, 0.1, 0.0, 1.0]) / 2.0
    assert float(holder_ceiling(pd, im, 1.0)) == 0.0
    assert float(holder_ceiling(pd[:2], im[:2], 1.0)) == 0.0


# --- exact ceilings on a certified candidate set ---

M_GRID = [1.0, 1.5, 2.0, 4.0, 16.0, 1000.0]


def _full_pass(pts, op, normalizer, m_grid=M_GRID):
    """holder_ceiling over every point, each image from the product with
    the whole net: the oracle.  For k >= 2 that product is the chunked
    one of the scorer the cells replaced, and that scorer agrees."""
    pts_t = np.ascontiguousarray(pts.T)
    sq_im = sq_norms(_net_images(op, pts_t, np.arange(len(pts))).T)
    pd = np.sqrt(sq_norms(pts))
    full = [float(holder_ceiling(pd / normalizer, np.sqrt(sq_im) / normalizer,
                                 m)) for m in m_grid]
    if len(op) > 1:
        chunked, _ = image_sq_norms(op, pts_t, np.zeros(0, dtype=int))
        assert np.array_equal(chunked, sq_im)
        assert origin_ceiling_scorer(pd)(sq_im, normalizer, m_grid) == full
    return full


def _candidate_pass(pts, op, normalizer, m_grid=M_GRID,
                    side=embedding.CELL_SIDE):
    return _origin_ceilings(origin_cells(pts, side), op, normalizer, m_grid)


def _shell_net(n, seed, shuffle):
    """A net with the origin first and its other points on shells of
    radius 2^-i, in shell order as a sphere net lays them out (or
    shuffled); a random map; and the normalizer, twice the image
    diameter."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    radii = 2.0 ** -np.sort(rng.integers(0, 12, n))
    pts *= (radii / np.linalg.norm(pts, axis=1))[:, None]
    pts[0] = 0.0
    if shuffle:
        pts[1:] = rng.permutation(pts[1:])
    op = sample_e_batch(3, 2, 1, seed)[0]
    imgs = pts @ op.T
    return pts, op, 2.0 * set_diameter(imgs[ConvexHull(imgs).vertices])


@pytest.mark.parametrize("shuffle", [False, True])
@pytest.mark.parametrize("n", [2**12 - 1, 2**12, 2**12 + 1, 3 * 2**12 + 17])
def test_origin_ceilings_match_the_full_pass(n, shuffle, monkeypatch):
    scored = []

    def spy(pd, im, m_const):
        scored.append(len(pd))
        return holder_ceiling(pd, im, m_const)

    for seed in range(3):
        pts, op, normalizer = _shell_net(n, seed, shuffle)
        full = _full_pass(pts, op, normalizer)
        with monkeypatch.context() as patch:
            patch.setattr(embedding, "holder_ceiling", spy)
            assert _candidate_pass(pts, op, normalizer) == full
    # no M scores the whole net
    assert 0 < max(scored) < n


def _point(pd, im, angle):
    """A point whose norm is pd and whose image under _MAP has norm im,
    up to rounding, at the given angle about the map's kernel."""
    return np.array([0.5 * im * math.cos(angle), 0.5 * im * math.sin(angle),
                     math.sqrt(max(pd * pd - 0.25 * im * im, 0.0))])


_MAP = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])  # kernel: the z axis


def _net(*groups):
    """The origin and a point for each (pd, im) pair, the pairs of group g
    at angle 2 g about the kernel, so that groups fall in other cells."""
    return np.array([np.zeros(3)] + [_point(pd, im, 2.0 * g)
                                     for g, pairs in enumerate(groups)
                                     for pd, im in pairs])


@pytest.mark.parametrize("case, expected", [
    # an exact collision on the kernel, in a cell whose bound is 0 and
    # whose largest distance is tiny
    (([(0.2, 0.01), (0.3, 0.1), (0.3, 0.2), (0.4, 0.3)],
      [(1e-150, 0.0), (1e-140, 1e-141)]), 0.0),
    # every image is at least as far out as its point: nothing binds
    (([(0.1, 0.1), (0.2, 0.3), (0.1, 0.2)], [(0.01, 0.02), (0.2, 0.2)]),
     math.inf),
    # the seed cell's least image sets c*; a point behind it, in the same
    # cell, sets the answer
    (([(0.3, 0.05), (0.25, 0.04)], [(0.2, 0.3), (0.1, 0.2), (0.3, 0.25)]),
     math.log2(0.3) / math.log2(0.05)),
    # the seed, of least bound, binds nowhere, a later point does
    # (c* = inf)
    (([(0.01, 0.02), (0.4, 0.3)], [(0.1, 0.2)]), None),
    # P >= M: a point at distance 2 binds at M = 1 with a negative ceiling
    (([(0.1, 0.001), (0.2, 0.3), (0.3, 0.3), (0.4, 0.3)],
      [(0.1, 0.2), (2.0, 0.4), (0.1, 0.4)]), None),
])
def test_origin_ceilings_special_cases(case, expected):
    pts = _net(*case)
    alphas = _candidate_pass(pts, _MAP, 1.0)
    assert alphas == _full_pass(pts, _MAP, 1.0)
    if expected is not None:  # at M = 1
        assert alphas[0] == pytest.approx(expected, rel=1e-12)


def test_origin_ceilings_p_at_least_m_beyond_im_one():
    # c* = log2 5 / log2 1.5 comes from the seed, the cell of least bound;
    # the other cell has P = 3 M, and its point at im = 2 binds with a
    # smaller ceiling, log2 3 / log2 2, beyond the cell's tau.  The points
    # carry rounding, so only the full pass gives the ceiling exactly
    pts = _net([(5.0, 1.5)], [(3.0, 2.0)])
    alpha, = _candidate_pass(pts, _MAP, 1.0, [1.0])
    assert alpha == _full_pass(pts, _MAP, 1.0, [1.0])[0]
    assert alpha == pytest.approx(math.log2(3.0) / math.log2(2.0), rel=1e-12)
    assert alpha < math.log2(5.0) / math.log2(1.5)


@pytest.mark.parametrize("near_m", [False, True])
def test_origin_ceilings_keep_points_at_the_rounded_threshold(near_m):
    # the seed sets c*; in another cell a point sits at tau = (P/M)^(1/c*)
    # itself, where rounding can put its ceiling a bit under c*.  With P
    # near M, log2(P/M) is near 0 and that error outgrows any slack.
    rng = np.random.default_rng(12)
    below = 0
    for _ in range(300):
        m = float(rng.choice([1.0, 3.0, 16.0]))
        pd_a = m * rng.uniform(0.01, 0.5)
        im_a = pd_a / m * rng.uniform(0.01, 0.9)
        c_star = float(holder_ceiling(np.array([pd_a]), np.array([im_a]), m))
        p = m * (1.0 - 10.0 ** -rng.uniform(5, 13) if near_m
                 else rng.uniform(0.001, 0.5))
        pts = _net([(pd_a, im_a)], [(p, (p / m) ** (1.0 / c_star))])
        full = _full_pass(pts, _MAP, 1.0, [m])
        below += full[0] < c_star
        assert _candidate_pass(pts, _MAP, 1.0, [m]) == full
    assert below > 0  # the rounding case did occur


def test_cell_bounds_hold_on_tight_cells():
    # two points of a cell straddle its centre along the map's first row,
    # where |L x| = |L c| - ||L|| rho holds exactly: the rounding of every
    # term must not lift the bound above a computed image norm
    rng = np.random.default_rng(21)
    for _ in range(500):
        a, r = rng.uniform(0.1, 1.0), rng.uniform(0.0, 0.05)
        pts = np.array([[a - r, 0.0, 1.0], [a + r, 0.0, 1.0]]) \
            * rng.uniform(0.5, 2.0)
        op = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]) \
            * rng.uniform(0.5, 2.0)
        cells = origin_cells(pts, math.inf)
        im = np.sqrt(sq_norms(_net_images(op, cells.points_t,
                                          np.arange(2)).T))
        assert embedding._cell_bounds(cells, op)[0] <= im.min()


def test_thresholds_cap_every_binding_image():
    # a point binds when fl(M im) < pd; at im = pd / M give or take a few
    # units of rounding that can hold with im >= fl(pd / M), so the cap
    # above which nothing binds must sit above both
    rng = np.random.default_rng(22)
    edge = 0
    for _ in range(3000):
        pd = rng.uniform(0.01, 0.5)
        m = float(rng.choice([1.5, 3.0, 5.0, 7.0, 11.0]))
        im = pd / m * (1.0 + 2.0**-52 * rng.integers(-4, 5))
        if pd > m * im:  # binds
            edge += im >= pd / m
            assert im < embedding._thresholds(np.array([pd]), m, 0.0)[0]
    assert edge > 0  # the rounding case did occur


def _random_net(seed, n, k=2):
    """Points in shells from 2^-30 to 2, some in the kernel of the map
    (exact collisions) and some repeated, and a map of k rows in the unit
    ball; the normalizer, twice the image diameter (1 when every image is
    0)."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts *= (2.0 ** rng.integers(-30, 2, n) / np.linalg.norm(pts, axis=1)
            )[:, None]
    op = sample_e_batch(3, k, 1, seed)[0]
    kernel = np.linalg.svd(op)[2][k:]
    on_kernel = rng.random(n) < 0.05
    pts[on_kernel] = rng.uniform(-1, 1, (on_kernel.sum(), 3 - k)) @ kernel
    pts[rng.random(n) < 0.05] = pts[0]
    pts[0] = 0.0
    return pts, op, 2.0 * set_diameter(pts @ op.T) or 1.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       k=st.integers(1, 3),
       side=st.sampled_from([2.0**-30, 1.0 / 8, 0.5, math.inf]))
def test_origin_ceilings_permutation_within_chunks_and_monotone_in_m(seed, n,
                                                                     k, side):
    # any map, any cell side, from a cell for each point to one cell for
    # each shell, and any order of the net give the full pass
    pts, op, normalizer = _random_net(seed, n, k)
    alphas = _candidate_pass(pts, op, normalizer, side=side)
    assert alphas == _full_pass(pts, op, normalizer)
    assert alphas == sorted(alphas)  # M_GRID is increasing
    perm = np.random.default_rng(seed).permutation(n)
    assert _candidate_pass(pts[perm], op, normalizer, side=side) == alphas


def test_origin_cells_partition_the_net():
    # the cells hold every point once, inside their radius; infinite cubes
    # leave a cell for each shell
    pts, _, _ = _random_net(3, 300)
    for side in (2.0**-30, 1.0 / 8, math.inf):
        cells = origin_cells(pts, side)
        counts = np.diff(cells.starts)
        assert counts.sum() == len(pts) and np.all(counts > 0)
        assert sorted(map(tuple, cells.points_t.T)) == \
            sorted(map(tuple, pts))
        cell = np.repeat(np.arange(len(counts)), counts)
        gap = np.linalg.norm(cells.points_t.T - cells.centres[cell], axis=1)
        assert np.all(gap <= cells.radii[cell] * (1 + 1e-12))
        assert np.array_equal(cells.norms, np.linalg.norm(cells.points_t.T,
                                                          axis=1))
    shells = {round(math.log2(r)) if r > 0 else None for r in cells.norms}
    assert len(counts) == len(shells)
    # on one sphere: a cell for each point, or one cell for all
    sphere = np.random.default_rng(4).normal(size=(300, 3))
    sphere /= np.linalg.norm(sphere, axis=1)[:, None]
    assert len(origin_cells(sphere, 2.0**-30).starts) == len(sphere) + 1
    assert origin_cells(sphere, math.inf).starts.tolist() == [0, len(sphere)]


# --- nearest-image decoding ---


@pytest.mark.parametrize("noise", [0.007, 0.0, -0.007, 1e-13])
def test_decode_bounded_query_matches_the_unbounded_tree(noise):
    # the grid meets only images within twice the largest own distance;
    # at noise 1e-13 that distance is set by the rounding of y, and the
    # cell side by the span.  One row puts every image on a line, and from
    # three rows on some coordinates are not bucketed.
    for seed in range(4):
        measure = sparse_atoms(10, 2, 1000, seed)
        for k in (1, 2, 3, 4, 6):
            rows = sample_e_batch(10, k, 20, seed)
            got = decode_recoveries(
                measure.points, measure.weights, rows, noise,
                np.random.default_rng(seed))
            want = decode_recoveries_oracle(
                measure.points, measure.weights, rows, noise,
                np.random.default_rng(seed))
            assert got == want
            if noise == 0:
                assert got == [float(measure.weights.sum())] * 20


@pytest.mark.parametrize("block, pairs", [(None, None), (480, 100)])
def test_decode_ties_fail_as_in_the_brute_force_oracle(monkeypatch, block,
                                                       pairs):
    # coincident atoms (every atom at s = 0, ten repeated ones otherwise)
    # tie and fail, where a tree recovers one of them.  Blocks of 480
    # images (three maps) end on a ragged one, and chunks of 100 pairs
    # split the range of a cell that holds all 160 atoms.
    n_maps = 6
    if block is not None:
        monkeypatch.setattr(embedding, "DECODE_BLOCK", block)
        monkeypatch.setattr(embedding, "DECODE_PAIRS", pairs)
        n_maps = 4
    for s in (0, 1, 2):
        measure = sparse_atoms(10, s, 150, s)
        points = np.vstack([measure.points, measure.points[:10]])
        weights = np.full(len(points), 1 / len(points))
        for k in (1, 2, 3, 4, 6):
            rows = sample_e_batch(10, k, n_maps, k)
            for noise in (0.007, 0.0, 0.3):
                got = decode_recoveries(
                    points, weights, rows, noise, np.random.default_rng(s))
                want = decode_brute_force_oracle(
                    points, weights, rows, noise, np.random.default_rng(s))
                assert got == want
                assert max(got) <= 140 / 160 + 1e-12
                if s == 0:
                    assert got == [0.0] * n_maps


@pytest.mark.parametrize("s, noise, n_maps", [(2, 0.007, 500),
                                              (2, 1e-13, 500), (0, 0.007, 17)])
def test_decode_peak_is_one_block(s, noise, n_maps):
    # a block holds its images and noisy images and their columns in cell
    # order, the keys and ranges of its atoms, a cell table and its counts
    # (at most (4 sqrt n + 3)^2 cells a map) and one chunk of pairs.  The
    # stack's images at 500 maps would not fit; at s = 0 every atom shares
    # one cell and the pairs come in many chunks.
    n, k = 1000, 4
    per = embedding.DECODE_BLOCK // n
    measure = sparse_atoms(10, s, n, 0)
    rows = sample_e_batch(10, k, n_maps, 0)
    decode_recoveries(measure.points, measure.weights, rows[:1], noise,
                      np.random.default_rng(0))
    tracemalloc.start()
    try:
        decode_recoveries(measure.points, measure.weights, rows, noise,
                          np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = per * (4 * math.sqrt(n) + 3) ** 2
    words = (4 * k + 16) * per * n + 2 * cells + 12 * (
        embedding.DECODE_PAIRS + n)
    assert peak <= 8 * words
    if n_maps == 500:
        assert 8 * words < n_maps * n * k * 8


def test_decode_scores_pairs_in_blocks_of_its_own_budget(monkeypatch):
    # every block of pairs that decoding scores keeps to DECODE_PAIRS, not
    # to block_end's default (the covers' budget), unless it is one cell
    monkeypatch.setattr(embedding, "DECODE_PAIRS", 50)
    blocks = []

    def spy(stop, s, pairs=COVER_PAIRS):
        t = block_end(stop, s, pairs)
        blocks.append((int(stop[t - 1] - (stop[s - 1] if s else 0)), t - s))
        return t

    monkeypatch.setattr(embedding, "block_end", spy)
    measure = sparse_atoms(10, 2, 300, 0)
    decode_recoveries(measure.points, measure.weights,
                      sample_e_batch(10, 4, 3, 0), 0.007,
                      np.random.default_rng(0))
    assert sum(size for size, _ in blocks) > 50
    assert all(size <= 50 or cells == 1 for size, cells in blocks)
