"""Output checks: each experiment's files against the paper's formulas.

A check reads `summary.json` and `tables/*.csv` of one finished run and
returns a list of problems; an empty list means the output holds.  The
expected values are computed here from the run's own inputs (the config
echoed in `summary.json`), or are properties the method must have.  No
check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

SLOPE_TOL = 0.15        # box-dim and transversality slopes
LOCAL_DIM_TOL = 0.05
HOLDER_MARGIN = 0.1     # median pow2t alpha may sit this far above 1/t


def read_summary(out):
    return json.loads((Path(out) / "summary.json").read_text())


def read_table(out, name):
    with open(Path(out) / "tables" / (name + ".csv"), newline="") as handle:
        return list(csv.DictReader(handle))


def ols_slope(xs, ys):
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def box_dim(out, summary):
    """Slope within 0.15 of k(t-1)/t, both as reported and as refitted from
    the table; greedy counts never drop as delta halves."""
    cfg = summary["config"]
    rows = read_table(out, "box_dim")
    deltas = [float(r["delta"]) for r in rows]
    counts = [int(r["count"]) for r in rows]
    problems = []
    if any(b != a / 2 for a, b in zip(deltas, deltas[1:])):
        problems.append("scales do not halve: %s" % deltas)
    if any(b < a for a, b in zip(counts, counts[1:])):
        problems.append("cover counts drop as delta halves: %s" % counts)
    target = cfg["k"] * (cfg["t"] - 1.0) / cfg["t"]
    refit = ols_slope([-math.log2(d) for d in deltas],
                      [math.log2(c) for c in counts])
    for what, slope in (("reported", summary["results"]["fit"]["slope"]),
                        ("refitted", refit)):
        if not abs(slope - target) <= SLOPE_TOL:
            problems.append("%s slope %.4f vs k(t-1)/t = %.4f"
                            % (what, slope, target))
    return problems


def local_dim(out, summary):
    """Mean local slope within 0.05 of H(p)/log 4."""
    cfg = summary["config"]
    p = cfg["p"]
    target = -(p * math.log(p) + (1 - p) * math.log(1 - p)) / math.log(4)
    slopes = [float(r["slope"]) for r in read_table(out, "local_dim")]
    mean = sum(slopes) / len(slopes)
    if not abs(mean - target) <= LOCAL_DIM_TOL:
        return ["mean slope %.4f vs H(p)/log 4 = %.4f" % (mean, target)]
    return []


def transversality(out, summary):
    """log P(|Lx| <= eps) against log eps has slope k, within 0.15."""
    cfg = summary["config"]
    rows = [r for r in read_table(out, "transversality") if int(r["count"]) > 0]
    if len(rows) < 3:
        return ["fewer than 3 tolerances with a hit"]
    slope = ols_slope([math.log2(float(r["eps"])) for r in rows],
                      [math.log2(float(r["fraction"])) for r in rows])
    if not abs(slope - cfg["k"]) <= SLOPE_TOL:
        return ["eps-slope %.4f vs k = %d" % (slope, cfg["k"])]
    return []


def digit_lemma(out, summary):
    """No violations, and 4^d ordered word pairs at each depth d."""
    cfg = summary["config"]
    rows = read_table(out, "digit_lemma")
    problems = []
    if [int(r["depth"]) for r in rows] != list(range(1, cfg["depth_max"] + 1)):
        problems.append("depths %s" % [r["depth"] for r in rows])
    for r in rows:
        d = int(r["depth"])
        if int(r["pairs"]) != 4 ** d:
            problems.append("depth %d: %s pairs, not 4^%d" % (d, r["pairs"], d))
        if int(r["violations"]) != 0:
            problems.append("depth %d: %s violations" % (d, r["violations"]))
    return problems


def ifs_translate(out, summary):
    """Every mixed slice scores at least (1 - tol)|t|."""
    cfg = summary["config"]
    values = {r["key"]: r["value"] for r in read_table(out, "ifs_translate")}
    floor = (1.0 - cfg["tol"]) * math.hypot(*cfg["translate"])
    score = float(values["min_mixed_score"])
    if int(values["n_mixed"]) < 1 or not score >= floor:
        return ["min mixed score %r vs (1 - tol)|t| = %.4f over %s mixed slices"
                % (score, floor, values["n_mixed"])]
    return []


def collision_scaling(out, summary):
    """Collision counts never rise as eps shrinks."""
    rows = read_table(out, "collision_scaling")
    eps = [float(r["eps"]) for r in rows]
    counts = [int(r["count"]) for r in rows]
    problems = []
    if any(b >= a for a, b in zip(eps, eps[1:])):
        problems.append("eps not decreasing: %s" % eps)
    if any(b > a for a, b in zip(counts, counts[1:])):
        problems.append("counts rise as eps shrinks: %s" % counts)
    return problems


def holder_ceiling(out, summary):
    """Per-map alpha nondecreasing in M; pow2t median alpha <= 1/t + 0.1."""
    cfg = summary["config"]
    problems = []
    for tag in ("pow2t", "pow2sq"):
        rows = read_table(out, "holder_" + tag)
        columns = sorted((c for c in rows[0] if c.startswith("alpha_m")),
                         key=lambda c: float(c[len("alpha_m"):]))
        for r in rows:
            alphas = [float(r[c]) for c in columns]
            if any(b < a for a, b in zip(alphas, alphas[1:])):
                problems.append("%s map %s: alpha falls as M grows: %s"
                                % (tag, r["map_index"], alphas))
        if tag == "pow2t":
            bar = 1.0 / cfg["t"] + HOLDER_MARGIN
            for c in columns:
                med = median(float(r[c]) for r in rows)
                if not med <= bar:
                    problems.append("pow2t median %s %.4f above 1/t + %.1f = %.2f"
                                    % (c, med, HOLDER_MARGIN, bar))
    return problems


def dense_ball(out, summary):
    """eps(delta) > 0 for every map: atoms of a continuous random cloud at
    least delta apart have no exact image collision."""
    cfg = summary["config"]
    zero = [r["map_index"] for r in read_table(out, "dense_ball")
            if not float(r["eps_at_delta"]) > 0]
    if zero:
        return ["eps(%g) = 0 for maps %s" % (cfg["delta"], ", ".join(zero))]
    return []


CHECKS = {
    "box-dim": box_dim,
    "local-dim": local_dim,
    "transversality": transversality,
    "digit-lemma": digit_lemma,
    "ifs-translate": ifs_translate,
    "collision-scaling": collision_scaling,
    "holder-ceiling": holder_ceiling,
    "dense-ball-discontinuity": dense_ball,
}


def check_output(experiment, out):
    """Problems with one run's output; every experiment must pass its own
    named checks, and some also face a formula or property above."""
    try:
        summary = read_summary(out)
        problems = [] if summary["all_passed"] else [
            "failed own checks: %s" % ", ".join(
                c["name"] for c in summary["checks"] if not c["passed"])]
        check = CHECKS.get(experiment)
        if check is not None:
            problems += check(out, summary)
    except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        return ["unreadable output: %r" % exc]
    return problems
