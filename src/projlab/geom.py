"""Point clouds and finitely supported measures.

Everything downstream works with two containers: a PointSet (points in
R^d, optionally in labelled runs) and an AtomicMeasure (points plus a
probability vector).  Both round-trip through a small CSV format whose
header records the ambient dimension and whether a weight column is
present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEIGHT_TOL = 1e-12


@dataclass
class PointSet:
    """Finite subset of R^d, one point per row; runs, if given, is a tuple
    of (label, count) pairs that covers the points in order."""

    points: np.ndarray
    runs: tuple | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")
        if self.runs is not None and sum(c for _, c in self.runs) != self.n:
            raise ValueError("run counts do not add up to the point count")

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def ambient_dim(self):
        return self.points.shape[1]


@dataclass
class AtomicMeasure:
    """Finitely supported probability measure on R^d."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (len(self.points),):
            raise ValueError("one weight per atom required")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError("weights must sum to 1 within %g" % WEIGHT_TOL)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def ambient_dim(self):
        return self.points.shape[1]

    def ball_mass(self, center, radius):
        """Mass of the closed ball B(center, radius)."""
        center = np.asarray(center, dtype=float)
        d = np.linalg.norm(self.points - center, axis=1)
        return float(self.weights[d <= radius].sum())


def normalized_measure(points, raw_weights):
    """Build an AtomicMeasure from unnormalized nonnegative weights."""
    w = np.asarray(raw_weights, dtype=float)
    total = w.sum()
    if total <= 0:
        raise ValueError("total weight must be positive")
    return AtomicMeasure(points, w / total)


def write_points_csv(path, obj):
    """Write a PointSet or AtomicMeasure.

    Header line is '# dim=N weighted=0|1'; each row lists the coordinates,
    followed by the weight when the object is a measure.
    """
    weighted = isinstance(obj, AtomicMeasure)
    with open(path, "w") as fh:
        fh.write("# dim=%d weighted=%d\n" % (obj.ambient_dim, int(weighted)))
        for i in range(obj.n):
            row = [repr(float(v)) for v in obj.points[i]]
            if weighted:
                row.append(repr(float(obj.weights[i])))
            fh.write(",".join(row) + "\n")


def read_points_csv(path):
    """Inverse of write_points_csv; returns PointSet or AtomicMeasure."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError("missing header line")
        fields = dict(tok.split("=") for tok in header[1:].split())
        dim = int(fields["dim"])
        weighted = bool(int(fields["weighted"]))
        rows = [line.strip() for line in fh if line.strip()]
    data = np.array([[float(v) for v in line.split(",")] for line in rows])
    if data.size == 0:
        data = data.reshape(0, dim + int(weighted))
    if data.shape[1] != dim + int(weighted):
        raise ValueError("row width does not match header")
    if weighted:
        return AtomicMeasure(data[:, :dim], data[:, dim])
    return PointSet(data)
