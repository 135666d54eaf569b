"""Tests of the benchmark itself: its output checks, its coverage of the
experiments and the repeatability of its traced counts.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from projlab.experiments import experiment_names, run_experiment  # noqa: E402

# small configs: the same outputs, the same checks, a fraction of the time
OUTPUTS = {
    "box-dim": {"seed": 42},
    "box-dim-t3": {"seed": 42, "t": 3.0},
    "local-dim": {"seed": 42},
    "transversality": {"seed": 42},
    "digit-lemma": {"depth_max": 6},
    "ifs-translate": {"seed": 42, "depth": 8, "n_slices": 8},
    "collision-scaling": {"seed": 42},
    "holder-ceiling": {"seed": 42, "n_maps": 20},
    # seed 1: no map of the first ten meets the Gram fault
    "dense-ball-discontinuity": {"seed": 1, "n_maps": 10},
}


def experiment_of(label):
    return label[:-3] if label.endswith("-t3") else label


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("outputs")
    for label, config in OUTPUTS.items():
        run_experiment(experiment_of(label), config=dict(config),
                       out_dir=base / label)
    return base


def corrupted(outputs, tmp_path, label):
    copy = tmp_path / label
    shutil.copytree(outputs / label, copy)
    return copy


def rewrite_table(out, name, edit):
    path = out / "tables" / (name + ".csv")
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("label", sorted(OUTPUTS))
def test_check_accepts_todays_output(outputs, label):
    assert checks.check_output(experiment_of(label), outputs / label) == []


def test_box_dim_check_rejects_slope_one_half(outputs, tmp_path):
    out = corrupted(outputs, tmp_path, "box-dim")
    summary = json.loads((out / "summary.json").read_text())
    summary["results"]["fit"]["slope"] = 0.5
    (out / "summary.json").write_text(json.dumps(summary))
    problems = checks.check_output("box-dim", out)
    assert len(problems) == 1 and "reported slope 0.5000" in problems[0]


def test_box_dim_check_rejects_counts_that_drop(outputs, tmp_path):
    out = corrupted(outputs, tmp_path, "box-dim")
    rewrite_table(out, "box_dim", lambda rows: rows[2].__setitem__(2, "1"))
    assert any("drop" in p for p in checks.check_output("box-dim", out))


def test_dense_ball_check_rejects_a_zero_modulus(outputs, tmp_path):
    out = corrupted(outputs, tmp_path, "dense-ball-discontinuity")
    rewrite_table(out, "dense_ball", lambda rows: rows[4].__setitem__(1, "0.0"))
    assert checks.check_output("dense-ball-discontinuity", out) == [
        "eps(0.5) = 0 for maps 3"]


def test_holder_check_rejects_alpha_falling_in_m(outputs, tmp_path):
    out = corrupted(outputs, tmp_path, "holder-ceiling")

    def swap(rows):
        header = rows[0]
        lo, hi = header.index("alpha_m1"), header.index("alpha_m16")
        row = next(r for r in rows[1:] if float(r[lo]) < float(r[hi]))
        row[lo], row[hi] = row[hi], row[lo]

    rewrite_table(out, "holder_pow2t", swap)
    problems = checks.check_output("holder-ceiling", out)
    assert len(problems) == 1 and "alpha falls as M grows" in problems[0]


# An operation must pass on every seed, or fail on every run; these
# experiments do neither and stay out until they are mended.
LEFT_OUT = {
    "local-dim": "mean slope misses H(p)/log 4 by more than its own "
                 "tolerance 0.05 on some seeds (0.4585 at seed 4)",
}


def test_every_experiment_is_in_a_workload():
    measured = {op.experiment for ops in run.WORKLOADS.values() for op in ops}
    assert set(experiment_names()) == measured | set(LEFT_OUT)
    assert not measured & set(LEFT_OUT)
    assert set(run.WORKLOADS) == {"inverse-maps", "cover-slice", "many-maps"}


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)


# every layer and every count of the tracer, at a few seconds' cost
TRACED_OPS = [
    run.Op("box-dim", "box-dim"),
    run.Op("all-directions", "all-directions", {"n_directions": 4}),
    run.Op("dense-ball-discontinuity", "dense-ball-discontinuity",
           {"n_maps": 5}, seed=1),
    run.Op("holder-ceiling", "holder-ceiling", {"n_maps": 5}),
    run.Op("collision-scaling", "collision-scaling", {"n_maps": 200}),
    run.Op("decode-sparse", "decode-sparse", {"n_maps": 20}),
]


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for i in range(2):
        rnd = run.run_round(TRACED_OPS, 42, 1, tmp_path / str(i),
                            time.perf_counter() + 120.0, traced=True)
        assert [r["problems"] for r in rnd["ops"]] == [[]] * len(TRACED_OPS)
        metrics, consistent = run.layer_metrics(rnd, tmp_path / str(i))
        assert consistent
        counts.append({name: value for name, (value, unit) in metrics.items()
                       if unit in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert all(counts[0].values()), counts[0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "many-maps", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_process_past_the_deadline_is_killed(tmp_path):
    start = time.perf_counter()
    code, *_ = run.launch([sys.executable, "-c", "import time; time.sleep(30)"],
                          tmp_path / "log", start + 0.5)
    assert code == -9
    assert time.perf_counter() - start < 10.0
