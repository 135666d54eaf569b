"""Conditional structure of atomic measures on projection slabs.

A slab is the preimage of a small ball under orthogonal projection onto a
plane; conditioning an atomic measure on it gives the empirical slice.
Callers project the atoms once per plane, as points @ basis.T for an
orthonormal basis of rows, and cut every slab of that plane from these
coordinates.  The near-Dirac score asks how concentrated a slice is: the
smallest radius at which a ball around some atom already holds a 1 - tau
share of the slice.  Translate-pair systems (two copies of one
contraction shifted by a vector orthogonal to the slab plane) are the
canonical example where every slice splits into two matched copies and
the score stays near the translation length.
"""

from __future__ import annotations

import numpy as np

from .constructions import ifs_atoms
from .geom import AtomicMeasure
from .grid import sq_norms


def slab_conditional(measure, coords, center, half_width):
    """Condition an atomic measure on the closed slab
    {x : |P_V x - center| <= half_width}.

    coords holds the atoms' coordinates on the plane V, one row per atom.
    Returns (indices, conditional measure): the surviving atoms' positions
    in the parent, and the survivors with renormalized weights.  A slab
    that catches no mass raises ValueError.
    """
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    keep = np.linalg.norm(coords - np.atleast_1d(center), axis=1) <= half_width
    raw = float(measure.weights[keep].sum())
    if raw <= 0.0:
        raise ValueError("the slab catches no mass")
    return np.flatnonzero(keep), AtomicMeasure(measure.points[keep],
                                               measure.weights[keep] / raw)


DIRAC_BLOCK = 2 ** 18  # distance entries per row block of dirac_score


def dirac_score(measure, tau):
    """Smallest radius at which one atom-centered ball holds mass 1 - tau.

    Returns rho_star.  Zero radius means a 1 - tau majority sits on a
    single atom (Dirac behavior up to tau); a positive score is the
    diameter cost of collecting that much mass.  Candidate centers are
    the atoms themselves and the threshold is inclusive: mass exactly
    1 - tau counts.

    A ball holding mass need holds at least q = ceil(need / max weight)
    atoms, so a center's radius is at least its q-th smallest distance
    (its own zero included).  The bound takes the (q-1)-th, one lower as
    slack for rounding in the running mass sums.  Exact radii are taken
    only for centers in increasing order of that bound, until a bound
    reaches the best radius found: no later center can beat it.
    """
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0,1)")
    pts = measure.points
    w = measure.weights
    n = len(pts)
    need = 1.0 - tau - 1e-12
    rank = min(max(int(np.ceil(need / w.max())) - 2, 0), n - 1)
    bounds = np.zeros(n)  # rank 0 is each row's own zero
    if rank > 0:
        step = max(1, DIRAC_BLOCK // n)
        for start in range(0, n, step):
            rows = np.sqrt(sq_norms(pts[start:start + step, None], pts[None]))
            bounds[start:start + len(rows)] = np.partition(rows, rank, axis=1)[:, rank]
    best = np.inf
    for c in np.argsort(bounds):
        if bounds[c] >= best:
            break
        d = np.sqrt(sq_norms(pts[c], pts))
        order = np.argsort(d, kind="stable")
        hit = int(np.searchsorted(np.cumsum(w[order]), need, side="left"))
        if hit < n:  # the least closed ball around c holding mass need
            best = min(best, float(d[order[hit]]))
    return best


def _complement_plane(t):
    """Orthonormal basis of the hyperplane orthogonal to t, as rows: the
    last n - 1 columns of Q in a QR factorization of [t, I]."""
    n = len(t)
    q, _ = np.linalg.qr(np.column_stack([t, np.eye(n)]))
    return q[:, 1:n].T


def nn_spacing_at(coords, center):
    """Distance from center to the nearest distinct projected point."""
    coords = np.atleast_2d(coords)
    d = np.linalg.norm(coords - np.atleast_1d(center), axis=1)
    positive = d[d > 0]
    return float(positive.min()) if positive.size else 0.0


def translate_pair_test(spec, depth, half_width=None, n_slices=64, seed=0,
                        tau=0.25, tol=0.05):
    """Slice structure of a two-branch system phi2 = phi1 + t.

    Builds the depth-d atoms of the pair system, projects them once onto a
    plane orthogonal to t (constructed here; its basis rows are asserted
    orthonormal and orthogonal to t within 1e-10), and on slabs around
    sampled projected atoms checks that:

    * the two branch slices hold the same tails (membership is branch
      independent when the plane kills t): atom r of ifs_atoms is branch
      r % 2 applied to its tail, atom r // 2 one level up;
    * matched atoms 2 tail and 2 tail + 1 differ by t exactly;
    * the mixed slice is never Dirac: its score at level tau stays at or
      above (1 - tol) * |t|.

    Default half_width per slab is twice the nearest projected-neighbor
    spacing at the sampled center.
    """
    if len(spec.ratios) != 2:
        raise ValueError("need exactly two maps")
    if abs(spec.ratios[0] - spec.ratios[1]) > 1e-12 or \
            np.abs(spec.orthogonals[0] - spec.orthogonals[1]).max() > 1e-12:
        raise ValueError("the pair must share its linear part")
    translate = spec.shifts[1] - spec.shifts[0]
    t_norm = float(np.linalg.norm(translate))
    if t_norm == 0:
        raise ValueError("the two maps coincide (t = 0)")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if n_slices < 1:
        raise ValueError("n_slices must be at least 1")
    basis = _complement_plane(translate)
    if np.abs(basis @ basis.T - np.eye(len(basis))).max() > 1e-10:
        raise ValueError("slab plane basis is not orthonormal within 1e-10")
    if np.abs(basis @ translate).max() > 1e-10:
        raise ValueError("slab plane is not orthogonal to the translate")

    nu = ifs_atoms(spec, depth)
    coords = nu.points @ basis.T

    rng = np.random.default_rng(seed)
    label_matches = 0
    shift_ok = 0
    mixed_seen = 0
    min_mixed_score = np.inf
    for _ in range(n_slices):
        pick = rng.integers(0, len(coords))
        a = coords[pick]
        width = half_width
        if width is None:
            spacing = nn_spacing_at(coords, a)
            width = 2.0 * spacing if spacing > 0 else 2.0 * t_norm
        indices, sliced = slab_conditional(nu, coords, a, width)
        # indices ascend, so each branch's tails come sorted
        tails1 = indices[indices % 2 == 0] // 2
        tails2 = indices[indices % 2 == 1] // 2
        if np.array_equal(tails1, tails2):
            label_matches += 1
        one = 2 * np.intersect1d(tails1, tails2)
        ok = np.allclose(nu.points[one + 1], nu.points[one] + translate,
                         atol=1e-9)
        shift_ok += bool(ok)
        if tails1.size and tails2.size:
            mixed_seen += 1
            score = dirac_score(sliced, tau)
            min_mixed_score = min(min_mixed_score, score)
    return {
        "depth": depth,
        "n_slices_checked": n_slices,
        "n_mixed": mixed_seen,
        "all_labels_match": label_matches == n_slices,
        "all_shifts_match": shift_ok == n_slices,
        "min_mixed_score": float(min_mixed_score),
        "translate_norm": t_norm,
        "score_floor": (1.0 - tol) * t_norm,
        "passes_floor": bool(min_mixed_score >= (1.0 - tol) * t_norm),
    }
