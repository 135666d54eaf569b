"""Named, config-driven experiment runs.

Each experiment is a pure function of (config, seed): it builds its
inputs from the registered defaults merged with overrides, computes a
results payload, and evaluates a list of named pass/fail checks.  The
summary written to disk is deterministic byte for byte (sorted keys, no
timestamps; wall-clock facts live in run_meta.json next to it), so a
rerun with the same config can be diffed directly.

Artifacts per run directory:

* summary.json: config, config hash, library versions, results, checks.
* run_meta.json: timestamp and runtime for this particular run.
* tables/*.csv, plots/*.svg: the scaling tables and their fits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import resource
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .constructions import (IfsSpec, SphereNetSpec, dense_ball_atoms,
                            kernel_shell_witnesses, parabola_lift_measure,
                            parabola_resolution, sparse_atoms, sphere_net,
                            sphere_net_union, verify_digit_lemma,
                            word_entropy_dimension)
from .dimension import (assouad_probe, box_dimension_fit, dyadic_scales,
                        local_dimension)
from .embedding import (check_deltas, check_holder_budget,
                        check_log_lip_exponents, collision_probability,
                        decode_recoveries, holder_at_origin, hull_vertices,
                        inverse_continuity_modulus, log_lip_distances,
                        log_lip_pass, origin_cells, transversality_fraction)
from .geom import write_points_csv
from .linalg import sample_e_batch
from .slicing import (dirac_score, nn_spacing_at, slab_conditional,
                      translate_pair_test)
from .svgplot import loglog_plot


# --- plumbing ---


def to_jsonable(obj):
    """Recursively convert results to deterministic JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if hasattr(obj, "to_json_dict"):
        return to_jsonable(obj.to_json_dict())
    return obj


def config_hash(name, cfg):
    blob = json.dumps({"experiment": name, "config": to_jsonable(cfg)},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _sub_seeds(seed, n):
    """Independent child seeds derived from one root seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _map_loop(fn, n, threads):
    """fn(i) for i in range(n), optionally on a thread pool, order kept."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            return list(pool.map(fn, range(n)))
    return [fn(i) for i in range(n)]


def check(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


class Artifacts:
    """Collects tables/plots/summary under one run directory (or nowhere).

    The directory and its tables/ and plots/ are made at the first write,
    so a run refused before it writes anything leaves no directory.
    """

    def __init__(self, out_dir, export_points=False):
        self.out_dir = Path(out_dir) if out_dir else None
        self.export_points = bool(export_points)

    def _path(self, *parts):
        for sub in ("tables", "plots"):
            (self.out_dir / sub).mkdir(parents=True, exist_ok=True)
        return self.out_dir.joinpath(*parts)

    def points(self, name, obj):
        if self.out_dir and self.export_points:
            write_points_csv(self._path("tables", name + ".csv"), obj)

    def table(self, name, header, rows):
        if not self.out_dir:
            return
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                                  for v in row))
        self._path("tables", name + ".csv").write_text("\n".join(lines) + "\n")

    def plot(self, name, series, **kwargs):
        if not self.out_dir:
            return
        loglog_plot(series, self._path("plots", name + ".svg"), **kwargs)

    def summary(self, payload, runtime_seconds):
        if not self.out_dir:
            return
        text = json.dumps(to_jsonable(payload), sort_keys=True, indent=2)
        self._path("summary.json").write_text(text + "\n")
        # ru_maxrss is in KiB on Linux
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        meta = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "runtime_seconds": round(runtime_seconds, 3),
                "peak_rss_mb": round(peak_kib / 1024, 1)}
        (self.out_dir / "run_meta.json").write_text(
            json.dumps(meta, sort_keys=True, indent=2) + "\n")


REGISTRY = {}


def _register(name, needs_seed, defaults):
    def wrap(fn):
        REGISTRY[name] = {"fn": fn, "needs_seed": needs_seed,
                          "defaults": defaults}
        return fn
    return wrap


def experiment_names():
    return sorted(REGISTRY)


def run_experiment(name, config=None, out_dir=None, threads=1,
                   export_points=False):
    """Run one registered experiment and return its summary dict.

    config overrides the registered defaults key by key; unknown keys, a
    missing seed (for seeded experiments) and threads below 1 raise
    ValueError before any work happens.  threads caps the per-map workers of holder-ceiling and
    log-lip (the others run single-threaded) and never changes results;
    export_points additionally dumps constructed point sets as CSV.
    """
    if name not in REGISTRY:
        raise KeyError("unknown experiment %r; known: %s"
                       % (name, ", ".join(experiment_names())))
    entry = REGISTRY[name]
    cfg = dict(entry["defaults"])
    for key, value in (config or {}).items():
        if key not in cfg:
            raise ValueError("unknown config key %r for %s (allowed: %s)"
                             % (key, name, ", ".join(sorted(cfg))))
        cfg[key] = value
    if entry["needs_seed"] and cfg.get("seed") is None:
        raise ValueError("experiment %s draws random maps: a seed is required"
                         % name)
    if int(threads) < 1:
        raise ValueError("threads must be at least 1")
    art = Artifacts(out_dir, export_points=export_points)
    start = time.perf_counter()
    results, checks = entry["fn"](cfg, art, int(threads))
    runtime = time.perf_counter() - start
    summary = {
        "experiment": name,
        "config": to_jsonable(cfg),
        "config_hash": config_hash(name, cfg),
        "versions": {"projlab": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "results": to_jsonable(results),
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
    art.summary(summary, runtime)
    summary["runtime_seconds"] = runtime  # not part of the written file
    return summary


def _fit_artifacts(art, name, fit, title):
    art.table(name, ["delta", "log2_delta", "count", "log2_count"], fit.rows())
    deltas = [d for d, _ in fit.table]
    counts = [c for _, c in fit.table]
    fitted = [2.0 ** (fit.intercept + fit.slope * np.log2(1.0 / d))
              for d in deltas]
    art.plot(name, [
        {"x": deltas, "y": counts, "label": "measured"},
        {"x": deltas, "y": fitted, "label": "fit slope %.3f" % fit.slope,
         "dashed": True},
    ], title=title, xlabel="scale", ylabel="count")


# --- exact digit arithmetic ---


@_register("digit-lemma", needs_seed=False, defaults={
    "depth_max": 8, "mutation_depth": 3, "corrupt_seeds": [0, 1, 2],
    "seed": None,
})
def _digit_lemma(cfg, art, threads):
    if not 1 <= cfg["depth_max"] <= 8:
        raise ValueError("depth_max must lie in 1..8")
    if not cfg["corrupt_seeds"]:
        raise ValueError("corrupt_seeds must not be empty")
    if cfg["seed"] is not None:
        cfg = dict(cfg)
        cfg["corrupt_seeds"] = [int(cfg["seed"]) + j for j in range(3)]
    clean = [verify_digit_lemma(d) for d in range(1, cfg["depth_max"] + 1)]
    corrupted = [verify_digit_lemma(cfg["mutation_depth"], corrupt_seed=s)
                 for s in cfg["corrupt_seeds"]]
    art.table("digit_lemma", ["depth", "pairs", "violations"],
              [(r["depth"], r["pairs"], r["violations"]) for r in clean])
    art.table("digit_lemma_corrupted", ["corrupt_seed", "violations"],
              [(s, r["violations"])
               for s, r in zip(cfg["corrupt_seeds"], corrupted)])
    total_pairs = sum(r["pairs"] for r in clean)
    worst = max(r["violations"] for r in clean)
    caught = [r["violations"] > 0 for r in corrupted]
    results = {
        "clean": [{k: r[k] for k in ("depth", "pairs", "violations")}
                  for r in clean],
        "corrupted": [{"corrupt_seed": s, "violations": r["violations"],
                       "examples": r["examples"][:3]}
                      for s, r in zip(cfg["corrupt_seeds"], corrupted)],
        "total_pairs": total_pairs,
    }
    checks = [
        check("clean-adder-no-violations", worst == 0,
              "max violations %d over %d pairs, depths 1..%d"
              % (worst, total_pairs, cfg["depth_max"])),
        check("corrupted-adder-caught", all(caught),
              "%d/%d corrupt modes produced violations"
              % (sum(caught), len(caught))),
    ]
    return results, checks


# --- box dimension of the sphere-net unions ---


@_register("box-dim", needs_seed=True, defaults={
    "ambient_dim": 3, "k": 2, "l_law": "pow2t", "t": 2.0, "i_max": 8,
    "delta_max": 2.0 ** -3, "delta_min": 2.0 ** -8, "n_scales": None,
    "sep_floor": "auto", "allow_partial": False, "slope_tol": 0.15,
    "r2_min": 0.98, "seed": None,
})
def _box_dim(cfg, art, threads):
    if cfg["l_law"] != "pow2t":  # pow2sq's upper box dimension is k
        raise ValueError("the target k(t-1)/t holds only for l_law 'pow2t'")
    floor = cfg["sep_floor"]
    if floor == "auto":
        floor = cfg["delta_min"] / 4.0
    union = sphere_net_union(cfg["ambient_dim"], cfg["k"], l_law=cfg["l_law"],
                             t=cfg["t"], i_max=cfg["i_max"], seed=cfg["seed"],
                             allow_partial=cfg["allow_partial"],
                             sep_floor=floor)
    fit = box_dimension_fit(union, cfg["delta_max"], cfg["delta_min"],
                            n_scales=cfg["n_scales"])
    target = cfg["k"] * (cfg["t"] - 1.0) / cfg["t"]
    shell_counts = {}
    for lab, count in union.runs:
        shell_counts[str(lab)] = shell_counts.get(str(lab), 0) + count
    _fit_artifacts(art, "box_dim", fit,
                   "box counting, %s t=%.3g" % (cfg["l_law"], cfg["t"]))
    art.points("box_dim_points", union)
    results = {
        "n_points": union.n,
        "sep_floor": floor,
        "shell_counts": shell_counts,
        "fit": fit,
        "target_dimension": target,
    }
    checks = [
        check("slope-matches-formula",
              abs(fit.slope - target) <= cfg["slope_tol"],
              "slope %.4f vs target %.4f (tol %.2f)"
              % (fit.slope, target, cfg["slope_tol"])),
        check("fit-quality", fit.r_squared >= cfg["r2_min"],
              "r^2 %.5f (floor %.2f)" % (fit.r_squared, cfg["r2_min"])),
    ]
    return results, checks


# --- localized homogeneity of the slowly-separated union ---


@_register("assouad-probe", needs_seed=True, defaults={
    "ambient_dim": 3, "k": 2, "i_max": 3, "n_centers": 64,
    "exponent_floor": 1.7, "seed": None,
})
def _assouad_probe(cfg, art, threads):
    if cfg["n_centers"] < 1:
        raise ValueError("n_centers must be at least 1")
    spec = SphereNetSpec(cfg["ambient_dim"], cfg["k"],
                         tuple(range(cfg["k"] + 1)), l_law="pow2sq",
                         i_max=cfg["i_max"])
    shells = [i for i in range(1, cfg["i_max"] + 1)
              if spec.ell(i) < spec.radius(i)]
    if not shells:
        raise ValueError("i_max must reach a shell with rho < r")
    net = sphere_net(spec, cfg["seed"])
    rows = []
    for i in shells:
        r, rho = spec.radius(i), spec.ell(i)
        probe = assouad_probe(net, min(cfg["n_centers"], net.n), r, rho,
                              seed=cfg["seed"])
        probe["shell"] = i
        rows.append(probe)
    art.table("assouad_probe", ["shell", "r", "rho", "max_count", "exponent"],
              [(p["shell"], p["r"], p["rho"], p["max_count"], p["exponent"])
               for p in rows])
    deepest = rows[-1]
    counts = [p["max_count"] for p in rows]
    results = {"n_points": net.n, "probes": rows,
               "deepest_exponent": deepest["exponent"]}
    checks = [
        check("exponent-approaches-k",
              deepest["exponent"] >= cfg["exponent_floor"],
              "exponent %.3f at (r, rho) = (2^-%d, 2^-%d), floor %.2f"
              % (deepest["exponent"], deepest["shell"],
                 deepest["shell"] ** 2, cfg["exponent_floor"])),
        check("local-counts-grow",
              all(a < b for a, b in zip(counts, counts[1:])),
              "max local counts %s" % (counts,)),
    ]
    return results, checks


# --- local dimension of the lifted digit measure ---


@_register("local-dim", needs_seed=True, defaults={
    "p": 0.25, "n_blocks": 12, "n_atoms": 32, "r_max": 2.0 ** -4,
    "r_min": 2.0 ** -14, "tol": 0.05, "seed": None,
})
def _local_dim(cfg, art, threads):
    if cfg["n_atoms"] < 1:
        raise ValueError("n_atoms must be at least 1")
    measure = parabola_lift_measure(cfg["p"], cfg["n_blocks"])
    radii = dyadic_scales(cfg["r_max"], cfg["r_min"])
    rng = np.random.default_rng(cfg["seed"])
    picks = rng.choice(measure.points.shape[0], size=cfg["n_atoms"],
                       replace=True, p=measure.weights)
    fits = [local_dimension(measure, measure.points[i], radii) for i in picks]
    slopes = np.array([f.slope for f in fits])
    target = word_entropy_dimension(cfg["p"])
    art.table("local_dim", ["atom_index", "slope", "r_squared"],
              [(int(i), f.slope, f.r_squared) for i, f in zip(picks, fits)])
    art.points("local_dim_points", measure)
    art.plot("local_dim", [
        {"x": [d for d, _ in f.table], "y": [c for _, c in f.table]}
        for f in fits[:6]
    ], title="ball mass at sampled atoms", xlabel="radius", ylabel="mass")
    results = {
        "target_dimension": target,
        "mean_slope": float(slopes.mean()),
        "median_slope": float(np.median(slopes)),
        "slopes": [float(s) for s in slopes],
    }
    checks = [
        check("mean-local-dimension",
              abs(results["mean_slope"] - target) <= cfg["tol"],
              "mean slope %.4f vs entropy value %.4f (tol %.2f)"
              % (results["mean_slope"], target, cfg["tol"])),
    ]
    return results, checks


# --- transversality of the random map family ---


@_register("transversality", needs_seed=True, defaults={
    "ambient_dim": 3, "k": 2, "eps_max": 2.0 ** -2, "eps_min": 2.0 ** -5,
    "n_maps": 100_000, "slope_tol": 0.15, "stability_tol": 0.2, "seed": None,
})
def _transversality(cfg, art, threads):
    rows = sample_e_batch(cfg["ambient_dim"], cfg["k"], cfg["n_maps"],
                          cfg["seed"])
    x = np.zeros(cfg["ambient_dim"])
    x[0] = 1.0
    grid = dyadic_scales(cfg["eps_max"], cfg["eps_min"])
    res = transversality_fraction(x, grid, rows)
    art.table("transversality", ["eps", "count", "fraction", "c_at_eps"],
              [(e, c, c / cfg["n_maps"], cv)
               for (e, c), cv in zip(res["table"], res["c_by_eps"])])
    art.plot("transversality", [
        {"x": [e for e, _ in res["table"]],
         "y": [max(c, 1) / cfg["n_maps"] for _, c in res["table"]],
         "label": "P(|Lx| <= eps)"},
    ], title="transversality scaling", xlabel="eps", ylabel="frequency")
    c_vals = np.array(res["c_by_eps"])
    # the constants are >= 0: with none positive (no grid, or no map
    # below any eps) there is no mean to compare with
    c_rel = (np.abs(c_vals / c_vals.mean() - 1.0).max() if c_vals.any()
             else np.inf)
    slope = res["fit"]["slope"] if res["fit"] else float("nan")
    results = {"table": res["table"], "fit": res["fit"], "c_hat": res["c_hat"],
               "c_by_eps": res["c_by_eps"], "x_norm": res["x_norm"],
               "c_relative_spread": float(c_rel)}
    checks = [
        check("eps-slope", res["fit"] is not None
              and abs(slope - cfg["k"]) <= cfg["slope_tol"],
              "slope %.4f vs k = %d (tol %.2f)"
              % (slope, cfg["k"], cfg["slope_tol"])),
        check("c-hat-finite", math.isfinite(res["c_hat"]) and res["c_hat"] > 0,
              "c_hat %.4f" % res["c_hat"]),
        check("c-hat-stable", c_rel <= cfg["stability_tol"],
              "max relative spread %.3f over the grid (tol %.2f)"
              % (c_rel, cfg["stability_tol"])),
    ]
    return results, checks


# --- collision probability scaling on the sphere-net union ---


@_register("collision-scaling", needs_seed=True, defaults={
    "ambient_dim": 3, "k": 2, "t": 2.0, "i_max": 5, "delta": 2.0 ** -2,
    "eps_max": 2.0 ** -6, "eps_min": 2.0 ** -10, "n_maps": 2000,
    "theta": 0.1, "slope_floor": 0.7, "seed": None,
})
def _collision_scaling(cfg, art, threads):
    for key in ("theta", "slope_floor", "delta"):
        if not math.isfinite(cfg[key]):  # before the union is built
            raise ValueError("%s must be finite" % key)
    union = sphere_net_union(cfg["ambient_dim"], cfg["k"], l_law="pow2t",
                             t=cfg["t"], i_max=cfg["i_max"], seed=cfg["seed"])
    # the first point of the first run on shell 1
    starts = itertools.accumulate([c for _, c in union.runs], initial=0)
    base, base_label = next((s, lab) for s, (lab, _) in zip(starts, union.runs)
                            if lab[0] != "origin" and lab[1] == 1)
    # keep eps_max low enough that the event fraction stays well under
    # ~0.2: union saturation flattens the top of the curve and eats the
    # envelope's margin (theta is only 0.1)
    grid = dyadic_scales(cfg["eps_max"], cfg["eps_min"])
    rows = sample_e_batch(cfg["ambient_dim"], cfg["k"], cfg["n_maps"],
                          cfg["seed"])
    res = collision_probability(union.points, base, cfg["delta"], grid, rows)
    fracs = [(e, c / cfg["n_maps"]) for e, c in res["table"]]
    # calibrate the envelope at the largest tolerance
    exp = cfg["k"] - 1.0 - cfg["theta"]
    e0, f0 = fracs[0]
    d_hat = f0 * cfg["delta"] ** cfg["k"] / e0 ** exp
    bound = [(e, d_hat * cfg["delta"] ** (-cfg["k"]) * e ** exp)
             for e, _ in fracs]
    dominated = all(f <= b * (1 + 1e-9)
                    for (_, f), (_, b) in zip(fracs, bound))
    slope = res["fit"]["slope"] if res["fit"] else float("nan")
    art.table("collision_scaling", ["eps", "count", "fraction", "envelope"],
              [(e, c, f, b) for (e, c), (_, f), (_, b)
               in zip(res["table"], fracs, bound)])
    art.plot("collision_scaling", [
        {"x": [e for e, _ in fracs],
         "y": [max(f, 0.5 / cfg["n_maps"]) for _, f in fracs],
         "label": "measured"},
        {"x": [e for e, _ in bound], "y": [b for _, b in bound],
         "label": "calibrated envelope", "dashed": True},
    ], title="collision probability", xlabel="eps", ylabel="fraction")
    results = {"n_points": union.n, "base_index": base,
               "base_label": str(base_label), "table": res["table"],
               "fractions": fracs, "envelope": bound, "d_hat": float(d_hat),
               "fit": res["fit"], "n_far": res["n_far"],
               "points_hash": res["points_hash"]}
    checks = [
        check("envelope-dominates", dominated,
              "fractions under D * delta^-k * eps^(k-1-theta), D=%.4g"
              % d_hat),
        check("eps-slope", res["fit"] is not None
              and slope >= cfg["slope_floor"],
              "slope %.4f (floor %.2f)" % (slope, cfg["slope_floor"])),
        check("regime", 2 * cfg["eps_max"] <= cfg["delta"],
              "2*eps_max = %.4g <= delta = %.4g"
              % (2 * cfg["eps_max"], cfg["delta"])),
    ]
    return results, checks


# --- pointwise Holder ceilings at the origin of the unions ---


def _holder_leg(net, specs, shells, rows, seed, m_grid, threads):
    """alpha_hat for each M, one dict per map, on a net about the origin,
    cut into origin_cells once.

    Each map sees the net's images and the two kernel-adjacent witnesses
    of every spec on shells; spec j of map midx draws its witnesses from
    _sub_seeds(seed, len(specs) * n_maps)[j * n_maps + midx].
    """
    n_maps = len(rows)
    cells = origin_cells(net.points)
    hull_idx = hull_vertices(cells.points_t.T, cells.norms)
    wit_seeds = _sub_seeds(seed, len(specs) * n_maps)

    def one_map(midx):
        op = rows[midx]
        wit = np.vstack([
            kernel_shell_witnesses(s, op, wit_seeds[j * n_maps + midx],
                                   shells).points
            for j, s in enumerate(specs)])
        return dict(zip(m_grid, holder_at_origin(cells, hull_idx, op, wit,
                                                 m_grid)))

    return _map_loop(one_map, n_maps, threads)


@_register("holder-ceiling", needs_seed=True, defaults={
    "ambient_dim": 3, "k": 2, "t": 2.0, "i_max": 8, "witness_depth": None,
    "sq_i_max": 6, "n_maps": 200, "m_grid": [1.0, 4.0, 16.0],
    "alpha_bar_pow2t": 0.6, "alpha_bar_pow2sq": 0.2, "required_fraction": 0.9,
    "seed": None,
})
def _holder_ceiling(cfg, art, threads):
    seeds = _sub_seeds(cfg["seed"], 3)
    m_grid = [float(m) for m in cfg["m_grid"]]
    if not m_grid:  # before the nets and the witnesses are built
        raise ValueError("m_grid must not be empty")
    for m in m_grid:
        check_holder_budget(m)
    rows_a, rows_b = (sample_e_batch(cfg["ambient_dim"], cfg["k"],
                                     cfg["n_maps"], s) for s in seeds[1:])

    # leg A: polynomially separated union, full nets to i_max.  Deeper
    # shells would break the point cap, so, as in leg B, each map gets the
    # two kernel-adjacent witnesses of every S_J on shells i_max+1 ..
    # witness_depth (default: the deepest shell above the precision floor).
    # They lie inside conv(X), so they never set leg A's diameter.
    wit_specs = [SphereNetSpec(cfg["ambient_dim"], cfg["k"], J, t=cfg["t"],
                               i_max=cfg["i_max"])
                 for J in itertools.combinations(range(cfg["ambient_dim"]),
                                                 cfg["k"] + 1)]
    if not wit_specs:
        raise ValueError("k + 1 must not exceed ambient_dim")
    depth = cfg["witness_depth"]
    if depth is None:
        depth = wit_specs[0].precision_depth()
    if depth < cfg["i_max"]:
        raise ValueError("witness_depth must be at least i_max")
    wit_specs = [dataclasses.replace(s, i_max=depth) for s in wit_specs]
    deep_shells = range(cfg["i_max"] + 1, depth + 1)

    def legs():
        """One tuple per leg.  Leg B's net is built only after leg A is
        scored, so it adds nothing to leg A's peak memory."""
        union = sphere_net_union(cfg["ambient_dim"], cfg["k"], l_law="pow2t",
                                 t=cfg["t"], i_max=cfg["i_max"], seed=seeds[0])
        yield ("pow2t", union, wit_specs, deep_shells, rows_a, seeds[1],
               m_grid, {"witness_depth": depth,
                        "n_witnesses": 2 * len(deep_shells) * len(wit_specs)})
        # leg B: super-polynomially separated net; deep shells cannot be
        # materialized, so each map gets its two kernel-adjacent witnesses
        # per missing shell in place of the unbuildable full net.  It is
        # checked at the first budget of the grid (the baseline M=1 by
        # default): at the shell cap the M-shifted ceilings cannot reach
        # the bar.
        spec = SphereNetSpec(cfg["ambient_dim"], cfg["k"],
                             tuple(range(cfg["k"] + 1)), l_law="pow2sq",
                             i_max=cfg["sq_i_max"])
        net = sphere_net(spec, seeds[0], allow_partial=True)
        partial_shells = sorted({lab[1] for lab, _ in net.runs
                                 if lab[0] == "partial"})
        yield ("pow2sq", net, [spec], partial_shells, rows_b, seeds[2],
               m_grid[:1], {"partial_shells": partial_shells})

    results, checks = {}, []
    for tag, pts, specs, shells, rows, seed, budgets, extra in legs():
        alphas = _holder_leg(pts, specs, shells, rows, seed, m_grid, threads)
        cols = {m: [a[m] for a in alphas] for m in m_grid}
        bar = cfg["alpha_bar_" + tag]
        frac = {m: float(np.mean([a <= bar for a in cols[m]])) for m in m_grid}
        results[tag] = dict(extra, n_points=pts.n, fractions_below_bar=frac,
                            alpha_bar=bar, median_alpha={
                                m: float(np.median(cols[m])) for m in m_grid})
        art.table("holder_" + tag,
                  ["map_index"] + ["alpha_m%g" % m for m in m_grid],
                  [(i,) + tuple(a[m] for m in m_grid)
                   for i, a in enumerate(alphas)])
        xs = [(i + 1) / len(alphas) for i in range(len(alphas))]
        art.plot("holder_" + tag, [
            {"x": xs, "y": [min(y, 10.0) for y in sorted(cols[m])],
             "label": "M=%g" % m} for m in m_grid],
            log_x=False, log_y=False, title="sorted alpha ceilings (%s)" % tag,
            xlabel="map quantile", ylabel="alpha_hat")
        checks += [
            check("%s-ceiling-m%g" % (tag, m),
                  frac[m] >= cfg["required_fraction"],
                  "alpha_hat <= %.2f for %.1f%% of maps at M=%g (need %.0f%%)"
                  % (bar, 100 * frac[m], m, 100 * cfg["required_fraction"]))
            for m in budgets]
    return results, checks


# --- log-Lipschitz defect and Holder floor on sparse clouds ---


@_register("log-lip", needs_seed=True, defaults={
    "ambient_dim": 8, "s": 2, "k": 4, "n_atoms": 1000, "n_maps": 100,
    "m_const": 16.0, "alpha_floor": 0.9, "alpha_fraction": 0.95,
    "eta": 2.0, "theta": 1.0, "defect_fraction": 0.99, "seed": None,
})
def _log_lip(cfg, art, threads):
    if cfg["n_atoms"] < 2:  # a ceiling and a defect need a pair
        raise ValueError("n_atoms must be at least 2")
    m_const = float(cfg["m_const"])
    check_holder_budget(m_const)  # before the atoms and the maps are drawn
    check_log_lip_exponents(cfg["eta"], cfg["theta"])
    seeds = _sub_seeds(cfg["seed"], 2)
    measure = sparse_atoms(cfg["ambient_dim"], cfg["s"], cfg["n_atoms"],
                           seeds[0])
    pts = measure.points
    w = measure.weights
    pd, big_r = log_lip_distances(pts)
    rows = sample_e_batch(cfg["ambient_dim"], cfg["k"], cfg["n_maps"],
                          seeds[1])

    def one_map(midx):
        return log_lip_pass(pd, big_r, pts @ rows[midx].T, m_const)

    per_map = _map_loop(one_map, cfg["n_maps"], threads)
    alpha_frac = np.array([float(w[a >= cfg["alpha_floor"]].sum())
                           for a, _ in per_map])
    defect_frac = np.array([float(np.mean(p)) for _, p in per_map])
    art.table("log_lip", ["map_index", "alpha_weighted_fraction",
                          "defect_positive_fraction"],
              [(i, float(a), float(d))
               for i, (a, d) in enumerate(zip(alpha_frac, defect_frac))])
    results = {
        "n_atoms": len(pts), "diameter": big_r,
        "mean_alpha_fraction": float(alpha_frac.mean()),
        "min_alpha_fraction": float(alpha_frac.min()),
        "mean_defect_fraction": float(defect_frac.mean()),
        "min_defect_fraction": float(defect_frac.min()),
    }
    checks = [
        check("holder-floor-fraction",
              results["mean_alpha_fraction"] >= cfg["alpha_fraction"],
              "weighted fraction with alpha_hat >= %.2f at M=%g: %.4f "
              "(need %.2f)" % (cfg["alpha_floor"], m_const,
                               results["mean_alpha_fraction"],
                               cfg["alpha_fraction"])),
        check("defect-positive",
              results["mean_defect_fraction"] >= cfg["defect_fraction"],
              "fraction of atoms with c_hat > 0: %.4f (need %.2f)"
              % (results["mean_defect_fraction"], cfg["defect_fraction"])),
    ]
    return results, checks


# --- nearest-image decoding of sparse clouds ---


@_register("decode-sparse", needs_seed=True, defaults={
    "ambient_dim": 10, "s": 2, "k_good": 4, "k_bad": 2, "n_atoms": 1000,
    "n_maps": 100, "noise": 0.007, "recovery_floor": 0.99,
    "degraded_ceiling": 0.9, "seed": None,
})
def _decode_sparse(cfg, art, threads):
    if not math.isfinite(cfg["noise"]):
        raise ValueError("noise must be finite")
    seeds = _sub_seeds(cfg["seed"], 4)
    measure = sparse_atoms(cfg["ambient_dim"], cfg["s"], cfg["n_atoms"],
                           seeds[0])

    def recovery_for(k, map_seed, noise_seed):
        rows = sample_e_batch(cfg["ambient_dim"], k, cfg["n_maps"], map_seed)
        return decode_recoveries(measure.points, measure.weights, rows,
                                 cfg["noise"],
                                 np.random.default_rng(noise_seed))

    good = recovery_for(cfg["k_good"], seeds[1], seeds[2])
    bad = recovery_for(cfg["k_bad"], seeds[1], seeds[3])
    art.table("decode_sparse", ["map_index", "recovery_k%d" % cfg["k_good"],
                                "recovery_k%d" % cfg["k_bad"]],
              [(i, g, b) for i, (g, b) in enumerate(zip(good, bad))])
    art.points("decode_sparse_points", measure)
    results = {
        "mean_recovery_good": float(np.mean(good)),
        "mean_recovery_bad": float(np.mean(bad)),
        "min_recovery_good": float(np.min(good)),
        "noise": cfg["noise"],
    }
    checks = [
        check("recovery-at-safe-rank",
              results["mean_recovery_good"] >= cfg["recovery_floor"],
              "mean weighted recovery %.4f at k=%d (need %.2f)"
              % (results["mean_recovery_good"], cfg["k_good"],
                 cfg["recovery_floor"])),
        check("recovery-degrades-at-sparsity-rank",
              results["mean_recovery_bad"] < cfg["degraded_ceiling"],
              "mean weighted recovery %.4f at k=%d (must drop below %.2f)"
              % (results["mean_recovery_bad"], cfg["k_bad"],
                 cfg["degraded_ceiling"])),
    ]
    return results, checks


# --- slab slices of the lifted digit measure, every direction ---


@_register("all-directions", needs_seed=True, defaults={
    "p": 0.25, "n_blocks": 12, "n_directions": 64, "n_slabs": 40,
    "tau": 0.25, "width_factor": 2.0, "required_fraction": 0.95,
    "seed": None,
})
def _all_directions(cfg, art, threads):
    for key in ("n_directions", "n_slabs"):
        if cfg[key] < 1:
            raise ValueError("%s must be at least 1" % key)
    measure = parabola_lift_measure(cfg["p"], cfg["n_blocks"])
    atom_res = parabola_resolution(measure.points)
    n = measure.points.shape[0]
    rng = np.random.default_rng(cfg["seed"])
    fractions = []
    worst = None
    for j in range(cfg["n_directions"]):
        theta = math.pi * j / cfg["n_directions"]
        coords = measure.points @ np.array([[math.cos(theta)],
                                            [math.sin(theta)]])
        picks = rng.choice(n, size=cfg["n_slabs"], replace=True,
                           p=measure.weights)
        hits = 0
        used = 0
        for idx in picks:
            a = coords[idx]
            spacing = nn_spacing_at(coords, a)
            if spacing == 0:
                continue
            width = cfg["width_factor"] * spacing
            _, sliced = slab_conditional(measure, coords, a, width)
            rho = dirac_score(sliced, cfg["tau"])
            used += 1
            hits += rho <= atom_res + 1e-15
        frac = hits / used if used else 0.0
        fractions.append(frac)
        if worst is None or frac < worst[1]:
            worst = (j, frac)
    art.table("all_directions", ["direction_index", "theta", "fraction"],
              [(j, math.pi * j / cfg["n_directions"], f)
               for j, f in enumerate(fractions)])
    art.plot("all_directions", [
        {"x": list(range(cfg["n_directions"])), "y": fractions},
    ], log_x=False, log_y=False, title="Dirac-slice fraction by direction",
        xlabel="direction index", ylabel="fraction")
    results = {
        "atom_resolution": float(atom_res),
        "fractions": [float(f) for f in fractions],
        "min_fraction": float(min(fractions)),
        "worst_direction": worst[0],
    }
    checks = [
        check("dirac-slices-every-direction",
              results["min_fraction"] >= cfg["required_fraction"],
              "min over directions of Dirac-slice fraction %.3f at "
              "direction %d (need %.2f)"
              % (results["min_fraction"], worst[0], cfg["required_fraction"])),
    ]
    return results, checks


# --- the translated-pair counterexample direction ---


@_register("ifs-translate", needs_seed=True, defaults={
    # the best Dirac center sits at a cluster edge, so rho* lands near
    # |t| * (1 - ratio): the ratio must stay below the score tolerance
    "ratio": 0.05, "translate": [0.0, 0.5], "depth": 10, "n_slices": 32,
    "tau": 0.25, "tol": 0.1, "half_width": None, "seed": None,
})
def _ifs_translate(cfg, art, threads):
    if len(cfg["translate"]) < 2:  # the slices need a complement plane
        raise ValueError("translate must have at least 2 entries")
    t = np.asarray(cfg["translate"], dtype=float)
    eye = np.eye(t.size)
    spec = IfsSpec(ratios=[cfg["ratio"], cfg["ratio"]],
                   orthogonals=[eye, eye],
                   shifts=[np.zeros(t.size), t],
                   probs=[0.5, 0.5])
    res = translate_pair_test(spec, cfg["depth"], half_width=cfg["half_width"],
                              n_slices=cfg["n_slices"], seed=cfg["seed"],
                              tau=cfg["tau"], tol=cfg["tol"])
    results = {k: res[k] for k in
               ("depth", "n_slices_checked", "n_mixed", "all_labels_match",
                "all_shifts_match", "min_mixed_score", "translate_norm",
                "score_floor", "passes_floor")}
    art.table("ifs_translate", ["key", "value"],
              sorted((k, v) for k, v in results.items()))
    checks = [
        check("branch-labels-match", res["all_labels_match"],
              "slice atoms pair off between the two branches"),
        check("branch-shift-identity", res["all_shifts_match"],
              "paired slice atoms differ by the translate exactly"),
        check("mixed-slices-exist", res["n_mixed"] >= 1,
              "%d mixed slices among %d" % (res["n_mixed"],
                                            res["n_slices_checked"])),
        check("dirac-score-floor", res["passes_floor"],
              "min mixed-slice score %.4f vs floor %.4f = (1-tol)|t|"
              % (res["min_mixed_score"], res["score_floor"])),
    ]
    return results, checks


# --- inverse-modulus collapse on a dense cloud ---


@_register("dense-ball-discontinuity", needs_seed=True, defaults={
    "ambient_dim": 3, "k": 1, "n_atoms": 2000, "n_maps": 100, "delta": 0.5,
    "ratio_bound": 1e-2, "required_fraction": 0.9, "decay": 0.9,
    "seed": None,
})
def _dense_ball(cfg, art, threads):
    check_deltas([cfg["delta"]])  # before the atoms and the maps are drawn
    seeds = _sub_seeds(cfg["seed"], 2)
    measure = dense_ball_atoms(cfg["ambient_dim"], cfg["n_atoms"], seeds[0],
                               decay=cfg["decay"])
    pts = measure.points
    rows = sample_e_batch(cfg["ambient_dim"], cfg["k"], cfg["n_maps"],
                          seeds[1])
    tables = inverse_continuity_modulus(pts, rows, [cfg["delta"]])
    eps_at_delta = np.array([table[0][1] for table in tables])
    ratios = eps_at_delta / cfg["delta"]
    frac = float(np.mean(ratios < cfg["ratio_bound"]))
    art.table("dense_ball", ["map_index", "eps_at_delta", "ratio"],
              [(i, float(e), float(r))
               for i, (e, r) in enumerate(zip(eps_at_delta, ratios))])
    art.points("dense_ball_points", measure)
    results = {
        "delta": cfg["delta"],
        "median_ratio": float(np.median(ratios)),
        "max_ratio": float(ratios.max()),
        "fraction_below_bound": frac,
    }
    checks = [
        check("modulus-collapses", frac >= cfg["required_fraction"],
              "eps(delta)/delta < %.0e for %.1f%% of maps (need %.0f%%)"
              % (cfg["ratio_bound"], 100 * frac,
                 100 * cfg["required_fraction"])),
    ]
    return results, checks
