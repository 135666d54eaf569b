"""Exit codes and artifacts of the command line front end."""

import json
import math
import subprocess
import sys

import pytest

from projlab.experiments import experiment_names
from projlab.geom import read_points_csv


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "projlab.cli", *args],
                          capture_output=True, text=True)


def test_list_names():
    proc = run_cli("list")
    assert proc.returncode == 0
    for name in experiment_names():
        assert name in proc.stdout


def test_import_leaves_scipy_spatial_unloaded():
    # scipy.spatial is loaded by the first hull, not by the import;
    # embedding's hull name still resolves, to scipy's own object
    code = ("import sys, projlab.cli; print('scipy.spatial' in sys.modules); "
            "from projlab import embedding; import scipy.spatial as sp; "
            "print(embedding.ConvexHull is sp.ConvexHull)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_shell_and_parabola_experiments_leave_scipy_spatial_unloaded():
    # collision-scaling thins its shells by lattice offsets and
    # all-directions takes its atom resolution in x order: neither builds
    # a tree; holder-ceiling takes its nets' hull vertices from the shells,
    # decode-sparse finds its nearest images on a grid, box-dim and
    # assouad-probe find their balls on cell tables, and a k = 3 net thins
    # its stream with the greedy cover
    code = ("import sys; from projlab.experiments import run_experiment; "
            "run_experiment('collision-scaling', config={'seed': 0, "
            "'i_max': 4, 'n_maps': 50}); "
            "run_experiment('all-directions', config={'seed': 0, "
            "'n_blocks': 6, 'n_directions': 4, 'n_slabs': 5}); "
            "run_experiment('holder-ceiling', config={'seed': 0, "
            "'i_max': 3, 'sq_i_max': 3, 'n_maps': 2}); "
            "run_experiment('decode-sparse', config={'seed': 0, "
            "'n_atoms': 200, 'n_maps': 5}); "
            "run_experiment('box-dim', config={'seed': 0, 'i_max': 5}); "
            "run_experiment('box-dim', config={'seed': 0, 'i_max': 5, "
            "'t': 3.0}); "
            "run_experiment('assouad-probe', config={'seed': 0, "
            "'n_centers': 8}); "
            "from projlab.constructions import sphere_net_union; "
            "sphere_net_union(4, 3, i_max=2, seed=0); "
            "print('scipy.spatial' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("config", [
    # leg B's net spans three of the four coordinates, leg A's union all four
    {"ambient_dim": 4, "k": 2, "i_max": 4, "sq_i_max": 3, "n_maps": 4},
    # leg B's circle net is flat in R^3
    {"k": 1, "i_max": 4, "sq_i_max": 3, "n_maps": 4},
])
def test_holder_ceiling_off_the_default_dimensions_exits_by_its_checks(
        tmp_path, config):
    # both hulls are taken, and the exit status is the checks' verdict
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    proc = run_cli("holder-ceiling", "--config", str(cfg), "--seed", "0",
                   "--out", str(tmp_path / "run"))
    assert "Traceback" not in proc.stderr
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert proc.returncode == (0 if summary["all_passed"] else 1)


def test_pass_run_exit_zero(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depth_max": 4}))
    proc = run_cli("digit-lemma", "--config", str(cfg))
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout
    assert "checks passed" in proc.stdout


def test_failing_check_exit_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_maps": 2000, "slope_tol": 1e-9}))
    proc = run_cli("transversality", "--config", str(cfg), "--seed", "0")
    assert proc.returncode == 1
    assert "[FAIL]" in proc.stdout
    assert "eps-slope" in proc.stderr  # the failing check is named


def test_unknown_experiment_exit_two():
    proc = run_cli("warp-drive", "--seed", "0")
    assert proc.returncode == 2
    assert "unknown experiment" in proc.stderr


def test_missing_seed_exit_two():
    proc = run_cli("transversality")
    assert proc.returncode == 2
    assert "seed" in proc.stderr


def test_bad_config_exit_two(tmp_path):
    missing = run_cli("digit-lemma", "--config", str(tmp_path / "nope.json"))
    assert missing.returncode == 2
    not_json = tmp_path / "bad.json"
    not_json.write_text("{not json")
    assert run_cli("digit-lemma", "--config", str(not_json)).returncode == 2
    not_object = tmp_path / "arr.json"
    not_object.write_text("[1, 2]")
    assert run_cli("digit-lemma", "--config", str(not_object)).returncode == 2
    unknown_key = tmp_path / "key.json"
    unknown_key.write_text(json.dumps({"depth": 4}))
    assert run_cli("digit-lemma", "--config", str(unknown_key)).returncode == 2
    bad_value = tmp_path / "eta.json"
    bad_value.write_text(json.dumps({"eta": 0.5, "n_atoms": 60, "n_maps": 2}))
    proc = run_cli("log-lip", "--config", str(bad_value), "--seed", "0")
    assert proc.returncode == 2
    assert "eta must exceed 1" in proc.stderr


def test_refused_run_leaves_no_output_directory(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m_grid": []}))
    out = tmp_path / "run"
    proc = run_cli("holder-ceiling", "--seed", "1", "--config", str(cfg),
                   "--out", str(out))
    assert proc.returncode == 2
    assert "m_grid must not be empty" in proc.stderr
    assert not out.exists()


def test_n_blocks_below_one_exit_two(tmp_path):
    for n_blocks in (0, -1):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_blocks": n_blocks}))
        for name in ("all-directions", "local-dim"):
            proc = run_cli(name, "--seed", "0", "--config", str(cfg))
            assert proc.returncode == 2, (name, n_blocks)
            assert "n_blocks must be at least 1" in proc.stderr



def test_ambient_dim_zero_exit_two(tmp_path):
    # these once raised IndexError or ZeroDivisionError, which exits 1
    # with a traceback as if a check had failed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ambient_dim": 0}))
    for name in ("transversality", "holder-ceiling",
                 "dense-ball-discontinuity"):
        out = tmp_path / name
        proc = run_cli(name, "--seed", "0", "--config", str(cfg),
                       "--out", str(out))
        assert proc.returncode == 2, name
        assert "ambient dimension must be at least 1" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


def test_box_dim_non_finite_window_exits_two(tmp_path):
    # json reads Infinity and NaN; an infinite delta_max once made the
    # dyadic grid halve inf forever
    cfg = tmp_path / "cfg.json"
    for config in ({"delta_max": float("inf")}, {"delta_min": float("nan")}):
        cfg.write_text(json.dumps(config))
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "projlab.cli", "box-dim", "--seed", "0",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, config
        assert "need 0 < delta_min < delta_max < inf" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


def test_box_dim_n_scales_not_whole_exits_two(tmp_path):
    # int(inf) once raised OverflowError (exit 1), and 3.7 built 3 scales
    # while the summary recorded 3.7
    cfg = tmp_path / "cfg.json"
    for n_scales in (float("inf"), 3.7):
        cfg.write_text(json.dumps({"n_scales": n_scales}))
        out = tmp_path / "run"
        proc = run_cli("box-dim", "--seed", "0", "--config", str(cfg),
                       "--out", str(out))
        assert proc.returncode == 2, n_scales
        assert "n_scales must be a whole number" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


def test_nan_budget_and_exponents_exit_two(tmp_path):
    # NaN passed the tests M < 1, eta <= 1 and theta <= 0: a NaN budget
    # bound no pair, so log-lip exited 0 with every ceiling inf; an
    # infinite budget once ran too, on inf x 0 = NaN in the thresholds
    cfg = tmp_path / "cfg.json"
    small = {"n_atoms": 200, "n_maps": 5}
    for name, config, message in (
            ("log-lip", {"m_const": math.nan, **small}, "M must be at least 1"),
            ("log-lip", {"eta": math.nan, **small}, "eta must exceed 1"),
            ("log-lip", {"theta": math.nan, **small}, "theta must be positive"),
            ("holder-ceiling", {"m_grid": [math.nan]}, "M must be at least 1"),
            ("log-lip", {"m_const": math.inf, **small},
             "M must be at least 1"),
            ("holder-ceiling", {"m_grid": [math.inf]},
             "M must be at least 1"),
            # theta and slope_floor NaN failed the checks with exit 1, and
            # a NaN delta was refused as a set with no far point
            ("collision-scaling", {"theta": math.nan},
             "theta must be finite"),
            ("collision-scaling", {"slope_floor": math.nan},
             "slope_floor must be finite"),
            ("collision-scaling", {"delta": math.nan},
             "delta must be finite")):
        cfg.write_text(json.dumps(config))
        out = tmp_path / "run"
        proc = run_cli(name, "--seed", "1", "--config", str(cfg),
                       "--out", str(out))
        assert proc.returncode == 2, config
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


def test_threads_below_one_exit_two():
    for threads in ("0", "-2"):
        proc = run_cli("digit-lemma", "--threads", threads)
        assert proc.returncode == 2
        assert "threads must be at least 1" in proc.stderr


def test_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "n_maps": 2000}))
    out = tmp_path / "run"
    proc = run_cli("transversality", "--config", str(cfg), "--seed", "2",
                   "--out", str(out))
    # a short run may miss its statistical checks; only the override matters
    assert proc.returncode in (0, 1)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 2


def test_rerun_summary_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depth_max": 4}))
    blobs = []
    for rep in range(2):
        out = tmp_path / ("run%d" % rep)
        proc = run_cli("digit-lemma", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0
        blobs.append((out / "summary.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_export_points_round_trips(tmp_path):
    out = tmp_path / "run"
    proc = run_cli("local-dim", "--seed", "42", "--out", str(out),
                   "--export-points")
    assert proc.returncode == 0
    exported = out / "tables" / "local_dim_points.csv"
    assert exported.exists()
    assert read_points_csv(exported).n > 0
