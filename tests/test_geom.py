"""Containers and CSV round trips."""

import numpy as np
import pytest

from projlab.embedding import set_diameter
from projlab.geom import (AtomicMeasure, PointSet, normalized_measure,
                          read_points_csv, write_points_csv)


def test_point_set_shapes_and_props():
    ps = PointSet([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    assert ps.n == 3
    assert ps.ambient_dim == 2
    one = PointSet([1.0, 2.0])  # single point promoted to a row
    assert one.n == 1 and one.ambient_dim == 2


def test_point_set_rejects_bad_input():
    with pytest.raises(ValueError):
        PointSet([[np.nan, 0.0]])
    with pytest.raises(ValueError):
        PointSet([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        PointSet([[0.0, 0.0], [1.0, 1.0]], runs=(("a", 1),))
    assert PointSet([[0.0, 0.0], [1.0, 1.0]], runs=(("a", 1), ("b", 1))).n == 2


def test_point_set_diameter_exact():
    ps = PointSet([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    assert set_diameter(ps.points) == pytest.approx(5.0, abs=1e-12)
    assert set_diameter(PointSet([[2.0, 7.0]]).points) == 0.0


def test_atomic_measure_validation():
    pts = [[0.0], [1.0]]
    with pytest.raises(ValueError):
        AtomicMeasure(pts, [0.5])
    with pytest.raises(ValueError):
        AtomicMeasure(pts, [0.7, 0.7])
    with pytest.raises(ValueError):
        AtomicMeasure(pts, [-0.2, 1.2])
    m = AtomicMeasure(pts, [0.25, 0.75])
    assert m.n == 2 and m.ambient_dim == 1


def test_normalized_measure_scales_weights():
    m = normalized_measure([[0.0], [1.0], [2.0]], [1.0, 1.0, 2.0])
    assert np.allclose(m.weights, [0.25, 0.25, 0.5])
    with pytest.raises(ValueError):
        normalized_measure([[0.0]], [0.0])


def test_ball_mass_closed_boundary():
    m = AtomicMeasure([[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5])
    assert m.ball_mass([0.0], 1.0) == pytest.approx(0.5)  # boundary atom counts
    assert m.ball_mass([0.0], 0.999) == pytest.approx(0.2)
    assert m.ball_mass([0.0], 2.0) == pytest.approx(1.0)
    assert m.ball_mass([10.0], 0.5) == 0.0


def test_point_set_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    ps = PointSet(rng.standard_normal((17, 3)))
    path = tmp_path / "pts.csv"
    write_points_csv(path, ps)
    back = read_points_csv(path)
    assert isinstance(back, PointSet)
    assert np.array_equal(back.points, ps.points)  # repr floats are lossless


def test_measure_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    w = rng.uniform(0.1, 1.0, 9)
    m = normalized_measure(rng.standard_normal((9, 4)), w)
    path = tmp_path / "m.csv"
    write_points_csv(path, m)
    back = read_points_csv(path)
    assert isinstance(back, AtomicMeasure)
    assert np.array_equal(back.points, m.points)
    assert np.array_equal(back.weights, m.weights)


def test_csv_header_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0\n")
    with pytest.raises(ValueError):
        read_points_csv(bad)
    wide = tmp_path / "wide.csv"
    wide.write_text("# dim=2 weighted=0\n0.0,1.0,2.0\n")
    with pytest.raises(ValueError):
        read_points_csv(wide)
