"""Experiment registry, summaries, and artifact plumbing."""

import csv
import json
import math
import warnings

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from oracles import image_sq_norms
from projlab import embedding, experiments
from projlab.constructions import (SphereNetSpec, dense_ball_atoms,
                                   kernel_shell_witnesses, sparse_atoms,
                                   sphere_net, sphere_net_union)
from projlab.embedding import (_net_images, hull_vertices,
                               log_lipschitz_modulus, origin_cells,
                               set_diameter)
from projlab.experiments import (_sub_seeds, config_hash, experiment_names,
                                 run_experiment, to_jsonable)
from projlab.geom import AtomicMeasure, read_points_csv
from projlab.grid import sq_norms
from projlab.linalg import sample_e_batch

ALL_NAMES = [
    "all-directions", "assouad-probe", "box-dim", "collision-scaling",
    "decode-sparse", "dense-ball-discontinuity", "digit-lemma",
    "holder-ceiling", "ifs-translate", "local-dim", "log-lip",
    "transversality",
]


def test_registry_names():
    assert experiment_names() == ALL_NAMES


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        run_experiment("warp-drive", config={"seed": 0})


def test_unknown_config_key_raises():
    with pytest.raises(ValueError):
        run_experiment("digit-lemma", config={"depth": 4})


def test_seeded_experiment_requires_seed():
    with pytest.raises(ValueError):
        run_experiment("transversality", config={"n_maps": 100})


def test_digit_lemma_runs_without_seed():
    summary = run_experiment("digit-lemma", config={"depth_max": 4})
    assert summary["all_passed"]
    assert summary["experiment"] == "digit-lemma"


def test_summary_shape_and_checks():
    summary = run_experiment("local-dim", config={
        "seed": 7, "n_atoms": 8, "r_max": 2.0**-4, "r_min": 2.0**-10})
    for key in ("experiment", "config", "config_hash", "versions", "results",
                "checks", "all_passed", "runtime_seconds"):
        assert key in summary
    assert set(summary["versions"]) == {"projlab", "numpy", "scipy"}
    for chk in summary["checks"]:
        assert set(chk) == {"name", "passed", "detail"}
    assert summary["all_passed"] == all(c["passed"] for c in summary["checks"])


def test_summary_json_is_byte_identical(tmp_path):
    cfg = {"seed": 3, "n_maps": 2000}
    blobs = []
    for rep in range(2):
        out = tmp_path / ("run%d" % rep)
        run_experiment("transversality", config=cfg, out_dir=out)
        blobs.append((out / "summary.json").read_bytes())
        meta = json.loads((out / "run_meta.json").read_text())
        assert isinstance(meta["peak_rss_mb"], float)
        assert meta["peak_rss_mb"] > 0
    assert blobs[0] == blobs[1]
    assert b"peak_rss_mb" not in blobs[0]


def test_transversality_without_events_fails_without_warnings():
    # no map falls below any eps: every constant is 0, so the spread has
    # no mean to compare with and is inf, as for an empty grid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = run_experiment("transversality", config={
            "seed": 1, "n_maps": 3, "eps_max": 2.0**-4, "eps_min": 2.0**-7})
    assert summary["results"]["c_by_eps"] == [0.0] * 4
    assert summary["results"]["c_relative_spread"] == "inf"
    assert not summary["all_passed"]


def test_threads_do_not_change_results(tmp_path):
    cfg = {"seed": 5, "n_atoms": 60, "n_maps": 6}
    one = run_experiment("log-lip", config=cfg, threads=1)
    four = run_experiment("log-lip", config=cfg, threads=4)
    assert json.dumps(to_jsonable(one["results"]), sort_keys=True) == \
        json.dumps(to_jsonable(four["results"]), sort_keys=True)


def test_config_hash_tracks_content():
    a = config_hash("box-dim", {"seed": 0})
    b = config_hash("box-dim", {"seed": 1})
    c = config_hash("box-dim", {"seed": 0})
    assert a == c != b
    assert len(a) == 64


def test_to_jsonable_handles_special_values():
    out = to_jsonable({
        "nan": float("nan"), "inf": math.inf, "ninf": -math.inf,
        "arr": np.arange(3), "np_int": np.int64(4),
        "np_float": np.float64(0.5), "nested": [(1, 2.5)],
    })
    assert out["nan"] == "nan"
    assert out["inf"] == "inf" and out["ninf"] == "-inf"
    assert out["arr"] == [0, 1, 2]
    assert out["np_int"] == 4 and isinstance(out["np_int"], int)
    assert out["np_float"] == 0.5 and isinstance(out["np_float"], float)
    assert out["nested"] == [[1, 2.5]]
    assert json.dumps(out)  # must serialize cleanly


def test_artifacts_written(tmp_path):
    out = tmp_path / "run"
    run_experiment("local-dim", config={
        "seed": 7, "n_atoms": 8, "r_max": 2.0**-4, "r_min": 2.0**-10},
        out_dir=out, export_points=True)
    assert (out / "summary.json").exists()
    tables = {p.name for p in (out / "tables").iterdir()}
    assert "local_dim_scaling.csv" in tables or any(
        p.endswith(".csv") for p in tables)
    exported = out / "tables" / "local_dim_points.csv"
    assert exported.exists()
    measure = read_points_csv(exported)
    assert isinstance(measure, AtomicMeasure)
    assert measure.ambient_dim == 2
    plots = list((out / "plots").iterdir())
    assert plots and all(p.suffix == ".svg" for p in plots)


def test_written_summary_matches_returned(tmp_path):
    out = tmp_path / "run"
    summary = run_experiment("digit-lemma", config={"depth_max": 3},
                             out_dir=out)
    on_disk = json.loads((out / "summary.json").read_text())
    returned = dict(summary)
    returned.pop("runtime_seconds")  # wall-clock facts stay out of the file
    assert on_disk == json.loads(json.dumps(to_jsonable(returned)))
    # the first write makes both directories, also for a run without plots
    assert list((out / "plots").iterdir()) == []


# --- kernel-adjacent witnesses on the power-law leg of holder-ceiling ---


def _holder_table(out_dir, tag="pow2t"):
    """Per-map alpha ceilings of one holder-ceiling leg, as written."""
    with open(out_dir / "tables" / ("holder_%s.csv" % tag)) as handle:
        rows = list(csv.reader(handle))
    return np.array([[float(v) for v in row[1:]] for row in rows[1:]])


def _direct_alphas(pd, im, m_grid):
    """alpha_hat for each M as first written: logs of every normalized
    distance (base excluded), then the minimum over the binding pairs."""
    if np.any(im == 0.0):
        return [0.0] * len(m_grid)
    out = []
    for m in m_grid:
        binding = pd > m * im
        ceil = (np.log2(pd)[binding] - math.log2(m)) / np.log2(im)[binding]
        out.append(max(0.0, float(ceil.min())) if ceil.size else math.inf)
    return out


def test_holder_witnesses_are_conservative_stand_ins(tmp_path):
    # the net built to depth 5 plus witnesses on shells 6..8 against the
    # full depth-8 net, on the same maps (sq_i_max only trims the other leg)
    runs = {}
    for i_max in (5, 8):
        out = tmp_path / ("depth%d" % i_max)
        summary = run_experiment("holder-ceiling", config={
            "seed": 42, "i_max": i_max, "witness_depth": 8, "sq_i_max": 3},
            out_dir=out)
        runs[i_max] = (summary["results"]["pow2t"], _holder_table(out))
    (wit, wit_alphas), (full, full_alphas) = runs[5], runs[8]
    assert wit["n_witnesses"] == 6 and full["n_witnesses"] == 0
    for m in ("1.0", "4.0", "16.0"):
        assert wit["fractions_below_bar"][m] <= full["fractions_below_bar"][m]
        assert wit["median_alpha"][m] >= full["median_alpha"][m]
    # and they track the built shells map by map
    assert np.all(np.percentile(np.abs(wit_alphas - full_alphas), 95,
                                axis=0) <= 0.1)


def test_holder_witnesses_at_i_max_change_nothing(tmp_path):
    # sq_i_max = 4 leaves shell 4 partial, so leg B gets witnesses too
    cfg = {"seed": 3, "i_max": 5, "witness_depth": 5, "sq_i_max": 4,
           "n_maps": 12}
    run_experiment("holder-ceiling", config=cfg, out_dir=tmp_path)
    seeds = _sub_seeds(cfg["seed"], 3)
    m_grid = [1.0, 4.0, 16.0]
    # the power-law leg as it stood before witnesses, recomputed directly
    pts = sphere_net_union(3, 2, t=2.0, i_max=5, seed=seeds[0]).points
    hull_idx = ConvexHull(pts).vertices
    expected = []
    for rows in sample_e_batch(3, 2, cfg["n_maps"], seeds[1]):
        imgs = pts @ rows.T
        normalizer = 2.0 * set_diameter(imgs[hull_idx])
        im = np.linalg.norm(imgs, axis=1)
        expected.append(_direct_alphas(
            np.linalg.norm(pts, axis=1)[1:] / normalizer,
            im[1:] / normalizer, m_grid))
    assert np.array_equal(_holder_table(tmp_path), np.array(expected))
    # leg B with the diameter over its whole image, recomputed directly
    spec = SphereNetSpec(3, 2, (0, 1, 2), l_law="pow2sq", i_max=4)
    net = sphere_net(spec, seeds[0], allow_partial=True)
    wit_seeds = _sub_seeds(seeds[2], cfg["n_maps"])
    expected = []
    for midx, rows in enumerate(sample_e_batch(3, 2, cfg["n_maps"],
                                               seeds[2])):
        wit = kernel_shell_witnesses(spec, rows, wit_seeds[midx], shells=[4])
        assert wit.n == 2
        merged = np.vstack([net.points, wit.points])
        imgs = merged @ rows.T
        normalizer = 2.0 * set_diameter(imgs[ConvexHull(imgs).vertices])
        expected.append(_direct_alphas(
            np.linalg.norm(merged, axis=1)[1:] / normalizer,
            np.linalg.norm(imgs, axis=1)[1:] / normalizer, m_grid))
    assert np.array_equal(_holder_table(tmp_path, "pow2sq"),
                          np.array(expected))


def test_holder_witnesses_never_set_the_power_law_diameter(tmp_path):
    # witnesses on shells 6..8 lie inside conv(X), so the power-law leg
    # scores net and witnesses against the diameter of the net's image alone
    cfg = {"seed": 3, "i_max": 5, "witness_depth": 8, "sq_i_max": 3,
           "n_maps": 12}
    summary = run_experiment("holder-ceiling", config=cfg, out_dir=tmp_path)
    assert summary["results"]["pow2t"]["n_witnesses"] == 6
    seeds = _sub_seeds(cfg["seed"], 3)
    m_grid = [1.0, 4.0, 16.0]
    pts = sphere_net_union(3, 2, t=2.0, i_max=5, seed=seeds[0]).points
    hull_idx = ConvexHull(pts).vertices
    spec = SphereNetSpec(3, 2, (0, 1, 2), t=2.0, i_max=8)
    wit_seeds = _sub_seeds(seeds[1], cfg["n_maps"])
    expected = []
    for midx, rows in enumerate(sample_e_batch(3, 2, cfg["n_maps"],
                                               seeds[1])):
        wit = kernel_shell_witnesses(spec, rows, wit_seeds[midx],
                                     shells=[6, 7, 8])
        normalizer = 2.0 * set_diameter((pts @ rows.T)[hull_idx])
        merged = np.vstack([pts, wit.points])
        imgs = merged @ rows.T
        expected.append(_direct_alphas(
            np.linalg.norm(merged, axis=1)[1:] / normalizer,
            np.linalg.norm(imgs, axis=1)[1:] / normalizer, m_grid))
    assert np.array_equal(_holder_table(tmp_path), np.array(expected))


def test_holder_images_by_the_transposed_view_keep_their_bits():
    # holder_at_origin gathers (k, c) images from a (3, n) cell-ordered copy of
    # the net, column subsets of every size: the hull vertices, candidate
    # cells, one point.  BLAS builds do not promise that these products
    # equal net.points @ op.T or the whole product, so pin the gathers and
    # their squared norms to the whole product chunk by chunk, on both
    # default nets and maps at seed 42; and one-row maps, which _net_images
    # doubles, to the whole product of the doubled map
    seeds = _sub_seeds(42, 3)
    union = sphere_net_union(3, 2, l_law="pow2t", t=2.0, i_max=8,
                             seed=seeds[0]).points
    net = sphere_net(SphereNetSpec(3, 2, (0, 1, 2), l_law="pow2sq",
                                   i_max=6), seeds[0],
                     allow_partial=True).points
    rng = np.random.default_rng(9)
    for pts, seed in ((union, seeds[1]), (net, seeds[2])):
        cells = origin_cells(pts)
        pts_t = cells.points_t
        hull = hull_vertices(pts_t.T, cells.norms)
        counts = np.diff(cells.starts)
        maps = list(sample_e_batch(3, 2, 200, seed)) \
            + list(sample_e_batch(3, 1, 20, seed))
        for op in maps:
            imgs = op @ pts_t
            if len(op) == 1:
                imgs = (np.repeat(op, 2, axis=0) @ pts_t)[:1]
            else:
                assert np.array_equal(imgs, (pts_t.T @ op.T).T)
                sq_im, hull_imgs = image_sq_norms(op, pts_t, hull)
                assert np.array_equal(sq_im, sq_norms(imgs.T))
                assert np.array_equal(hull_imgs, imgs[:, hull].T)
            assert np.array_equal(_net_images(op, pts_t, hull), imgs[:, hull])
            picked = rng.choice(len(counts), 40, replace=False)
            for some in (picked[:1], picked):
                idx = np.concatenate([np.arange(cells.starts[c],
                                                cells.starts[c + 1])
                                      for c in np.sort(some)])
                assert np.array_equal(_net_images(op, pts_t, idx),
                                      imgs[:, idx])
            one = rng.integers(len(pts), size=1)
            assert np.array_equal(_net_images(op, pts_t, one), imgs[:, one])


THREAD_CONFIGS = {
    "holder-ceiling": {"seed": 5, "i_max": 5, "sq_i_max": 3, "n_maps": 12},
    "log-lip": {"seed": 5, "n_atoms": 200, "n_maps": 6, "m_const": 2.0},
    "dense-ball-discontinuity": {"seed": 5, "n_atoms": 300, "n_maps": 10},
}


@pytest.mark.parametrize("name", sorted(THREAD_CONFIGS))
def test_threads_do_not_change_summary(tmp_path, name):
    blobs = []
    for threads in (1, 4):
        out = tmp_path / ("threads%d" % threads)
        summary = run_experiment(name, config=THREAD_CONFIGS[name],
                                 out_dir=out, threads=threads)
        if name == "holder-ceiling":
            assert summary["results"]["pow2t"]["witness_depth"] == 20
        blobs.append([(out / f).read_bytes() for f in
                      ["summary.json"] + sorted(
                          str(p.relative_to(out)) for p in out.glob("*/*"))])
    assert blobs[0] == blobs[1]


def test_holder_witness_depth_validated():
    for depth in (4, 21):  # shallower than i_max = 5; ell_21 < 2^-40
        with pytest.raises(ValueError):
            run_experiment("holder-ceiling", config={
                "seed": 0, "i_max": 5, "witness_depth": depth, "n_maps": 2})


SMALL = {"log-lip": {"n_atoms": 60, "n_maps": 2},
         "holder-ceiling": {"i_max": 3, "sq_i_max": 3, "n_maps": 2},
         "dense-ball-discontinuity": {"n_atoms": 100}}


@pytest.mark.parametrize("name, config, message", [
    ("log-lip", {"eta": 0.5}, "eta must exceed 1"),
    ("log-lip", {"theta": 0}, "theta must be positive"),
    ("log-lip", {"m_const": 0.5}, "M must be at least 1"),
    ("holder-ceiling", {"m_grid": [0.5, 1]}, "M must be at least 1"),
    ("transversality", {"n_maps": 0}, "at least one map"),
    ("collision-scaling", {"n_maps": 0}, "at least one map"),
    ("dense-ball-discontinuity", {"n_maps": 0}, "at least one map"),
    ("holder-ceiling", {"n_maps": 0}, "at least one map"),
    ("assouad-probe", {"i_max": 1}, "i_max must reach a shell"),
    ("all-directions", {"n_directions": 0}, "n_directions must be at least 1"),
    ("all-directions", {"n_slabs": 0}, "n_slabs must be at least 1"),
    ("ifs-translate", {"n_slices": 0}, "n_slices must be at least 1"),
    ("local-dim", {"n_atoms": 0}, "n_atoms must be at least 1"),
    ("assouad-probe", {"n_centers": 0}, "n_centers must be at least 1"),
    ("log-lip", {"n_atoms": 1}, "n_atoms must be at least 2"),
    ("holder-ceiling", {"m_grid": []}, "m_grid must not be empty"),
    ("digit-lemma", {"corrupt_seeds": []}, "corrupt_seeds must not be empty"),
    ("digit-lemma", {"depth_max": 0}, r"depth_max must lie in 1\.\.8"),
    ("digit-lemma", {"depth_max": 9}, r"depth_max must lie in 1\.\.8"),
    ("ifs-translate", {"translate": []}, "translate must have at least 2"),
    ("ifs-translate", {"translate": [0.5]}, "translate must have at least 2"),
    ("decode-sparse", {"k_good": 0}, "a map needs at least one row"),
    ("transversality", {"k": 0}, "a map needs at least one row"),
    ("box-dim", {"l_law": "pow2sq"}, "holds only for l_law 'pow2t'"),
    ("holder-ceiling", {"k": 3}, r"k \+ 1 must not exceed ambient_dim"),
    ("box-dim", {"k": 3}, r"k \+ 1 must not exceed ambient_dim"),
    ("collision-scaling", {"k": 3}, r"k \+ 1 must not exceed ambient_dim"),
    ("decode-sparse", {"noise": math.nan}, "noise must be finite"),
    ("decode-sparse", {"noise": math.inf}, "noise must be finite"),
    ("transversality", {"ambient_dim": 0}, "ambient dimension must be at"),
    ("holder-ceiling", {"ambient_dim": 0}, "ambient dimension must be at"),
    ("dense-ball-discontinuity", {"ambient_dim": 0},
     "ambient dimension must be at"),
    ("box-dim", {"delta_max": math.inf}, r"delta_min < delta_max < inf"),
    ("box-dim", {"delta_min": math.nan}, r"delta_min < delta_max < inf"),
    ("box-dim", {"n_scales": math.inf}, "n_scales must be a whole number"),
    ("box-dim", {"n_scales": 3.7}, "n_scales must be a whole number"),
    ("log-lip", {"m_const": math.nan}, "M must be at least 1"),
    ("log-lip", {"eta": math.nan}, "eta must exceed 1"),
    ("log-lip", {"theta": math.nan}, "theta must be positive"),
    ("holder-ceiling", {"m_grid": [math.nan]}, "M must be at least 1"),
    ("log-lip", {"m_const": math.inf}, "M must be at least 1"),
    ("holder-ceiling", {"m_grid": [math.inf]}, "M must be at least 1"),
])
def test_invalid_config_values_raise(name, config, message):
    with pytest.raises(ValueError, match=message):
        run_experiment(name, config={"seed": 0, **SMALL.get(name, {}),
                                     **config})


def test_holder_budget_refused_before_the_union_is_built(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the union was built")

    monkeypatch.setattr(experiments, "sphere_net_union", unreachable)
    for config, message in (({"m_grid": [1, 0.5]}, "M must be at least 1"),
                            ({"m_grid": []}, "m_grid must not be empty"),
                            ({"n_maps": 0}, "at least one map")):
        with pytest.raises(ValueError, match=message):
            run_experiment("holder-ceiling", config={"seed": 0, **config})


def test_log_lip_values_refused_before_the_atoms_are_drawn(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the atoms were drawn")

    monkeypatch.setattr(experiments, "sparse_atoms", unreachable)
    for config, message in (({"m_const": 0.5}, "M must be at least 1"),
                            ({"m_const": math.nan}, "M must be at least 1"),
                            ({"m_const": math.inf}, "M must be at least 1"),
                            ({"eta": 1.0}, "eta must exceed 1"),
                            ({"theta": 0.0}, "theta must be positive")):
        with pytest.raises(ValueError, match=message):
            run_experiment("log-lip", config={"seed": 0, **config})


def test_empty_list_values_raise():
    # a key whose default is a non-empty list never runs on an empty one,
    # which would pass its checks vacuously
    keys = [(name, key) for name in ALL_NAMES
            for key, value in experiments.REGISTRY[name]["defaults"].items()
            if isinstance(value, list) and value]
    assert {key for _, key in keys} >= {"corrupt_seeds", "m_grid",
                                        "translate"}
    for name, key in keys:
        with pytest.raises(ValueError):
            run_experiment(name, config={"seed": 0, **SMALL.get(name, {}),
                                         key: []})


# --- the experiment paths against the library oracles ---


def test_log_lip_matches_library_oracles(tmp_path, monkeypatch):
    # each atom's ceiling, bit for bit, and the sign of its defect against
    # direct norms: _direct_alphas with the atom itself left out, and image
    # distances over log_lipschitz_modulus of the point distances.  The
    # second config has one-row maps of small image diameter, where binding
    # ceilings go negative and the floor at 0 decides; the last two span
    # more than one row block and end on a ragged one.
    seen = []
    map_loop = experiments._map_loop

    def spy(one_map, n_maps, threads):
        seen[:] = map_loop(one_map, n_maps, threads)
        return seen

    monkeypatch.setattr(experiments, "_map_loop", spy)
    default_block = embedding.TRI_BLOCK
    for run, (block, cfg) in enumerate((
            (default_block, {"seed": 11, "n_atoms": 60, "n_maps": 3,
                             "m_const": 2.0}),
            (default_block, {"seed": 11, "n_atoms": 60, "n_maps": 3,
                             "m_const": 1.0, "ambient_dim": 3, "s": 1,
                             "k": 1}),
            (7, {"seed": 12, "n_atoms": 60, "n_maps": 2, "m_const": 2.0}),
            (default_block, {"seed": 13, "n_atoms": 2 * default_block + 5,
                             "n_maps": 2, "m_const": 1.0}))):
        monkeypatch.setattr(embedding, "TRI_BLOCK", block)
        cfg = {**experiments.REGISTRY["log-lip"]["defaults"], **cfg}
        out = tmp_path / str(run)
        run_experiment("log-lip", config=cfg, out_dir=out)
        seeds = _sub_seeds(cfg["seed"], 2)
        measure = sparse_atoms(cfg["ambient_dim"], cfg["s"], cfg["n_atoms"],
                               seeds[0])
        pts, w = measure.points, measure.weights
        n = len(pts)
        pd = [np.linalg.norm(pts - x, axis=1) for x in pts]
        big_r = max(float(d.max()) for d in pd)
        with open(out / "tables" / "log_lip.csv") as handle:
            table = list(csv.DictReader(handle))
        assert len(seen) == len(table) == cfg["n_maps"]
        for midx, op in enumerate(sample_e_batch(
                cfg["ambient_dim"], cfg["k"], cfg["n_maps"], seeds[1])):
            imgs = pts @ op.T
            im = [np.linalg.norm(imgs - y, axis=1) for y in imgs]
            normalizer = 2.0 * max(float(d.max()) for d in im)
            alpha, c_hat = np.empty(n), np.empty(n)
            for i in range(n):
                others = np.arange(n) != i
                alpha[i], = _direct_alphas(pd[i][others] / normalizer,
                                           im[i][others] / normalizer,
                                           [cfg["m_const"]])
                c_hat[i] = (im[i][others] / log_lipschitz_modulus(
                    pd[i][others], big_r, cfg["eta"], cfg["theta"])).min()
            assert np.isfinite(alpha).sum() > n // 2  # pairs do bind
            assert np.array_equal(seen[midx][0], alpha)
            assert np.array_equal(seen[midx][1], c_hat > 0)
            row = table[midx]
            assert float(row["alpha_weighted_fraction"]) == \
                float(w[alpha >= cfg["alpha_floor"]].sum())
            assert float(row["defect_positive_fraction"]) == \
                float(np.mean(c_hat > 0))


@pytest.mark.parametrize("delta", [-1.0, float("nan"), 0.0, math.inf])
def test_dense_ball_refuses_a_delta_before_any_work(tmp_path, monkeypatch,
                                                    delta):
    # a negative delta once passed with negative ratios, a NaN wrote "nan"
    # into summary.json; neither may build the atoms or draw the maps
    def refuse(*args, **kwargs):
        raise AssertionError("work began")

    monkeypatch.setattr(experiments, "dense_ball_atoms", refuse)
    monkeypatch.setattr(experiments, "sample_e_batch", refuse)
    with pytest.raises(ValueError, match="delta"):
        run_experiment("dense-ball-discontinuity",
                       config={"seed": 42, "delta": delta},
                       out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_dense_ball_has_no_false_collision(tmp_path):
    # the Gram identity once read eps(0.5) = 0 on map 22 and was more than
    # 1 % off on the other five maps named here
    run_experiment("dense-ball-discontinuity", config={"seed": 42},
                   out_dir=tmp_path)
    with open(tmp_path / "tables" / "dense_ball.csv") as handle:
        eps = np.array([float(r["eps_at_delta"])
                        for r in csv.DictReader(handle)])
    assert len(eps) == 100 and np.all(eps > 0)
    seeds = _sub_seeds(42, 2)
    pts = dense_ball_atoms(3, 2000, seeds[0], decay=0.9).points
    maps = [15, 22, 28, 87, 92, 96]
    rows = sample_e_batch(3, 1, 100, seeds[1])[maps, 0]
    oracle = np.full(len(maps), np.inf)
    for start in range(0, len(pts), 250):
        diff = pts[start:start + 250, None] - pts[None]
        far = np.linalg.norm(diff, axis=2) >= 0.5
        oracle = np.minimum(oracle, np.abs(diff[far] @ rows.T).min(axis=0))
    assert eps[maps] == pytest.approx(oracle, rel=1e-6)
