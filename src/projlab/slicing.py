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


def _row_radius(d, w, need):
    """Smallest closed-ball radius around one center holding mass need."""
    order = np.argsort(d, kind="stable")
    hit = int(np.searchsorted(np.cumsum(w[order]), need, side="left"))
    return float(d[order[hit]]) if hit < len(d) else np.inf


def dirac_score(measure, tau):
    """Smallest radius at which one atom-centered ball holds mass 1 - tau.

    Returns (rho_star, center_index).  Zero radius means a 1 - tau
    majority sits on a single atom (Dirac behavior up to tau); a positive
    score is the diameter cost of collecting that much mass.  Candidate
    centers are the atoms themselves and the threshold is inclusive: mass
    exactly 1 - tau counts.  Of several centers with the smallest radius
    the first in atom order is returned.

    A ball holding mass need holds at least q = ceil(need / max weight)
    atoms, so a center's radius is at least its q-th smallest distance
    (its own zero included).  The bound takes the (q-1)-th, one lower as
    slack for rounding in the running mass sums.  Exact radii are taken
    only for centers in increasing order of that bound, until no later
    center can beat or tie-and-precede the best radius found.
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
    best_center = -1
    for c in np.argsort(bounds, kind="stable"):
        # later rows have larger bounds, or equal bounds and larger indices
        if bounds[c] > best or (bounds[c] == best and c > best_center):
            break
        radius = _row_radius(np.sqrt(sq_norms(pts[c], pts)), w, need)
        if radius < best or (radius == best and c < best_center):
            best = radius
            best_center = int(c)
    return best, best_center


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

    * the two branch slices carry exactly the same composition labels
      (membership is branch independent when the plane kills t);
    * matched atoms differ by t exactly;
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
    branches = np.array([lab[0] for lab in nu.labels])
    tails = [lab[1:] for lab in nu.labels]
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
        got_b = branches[indices]
        got_t = [tails[i] for i in indices]
        tails1 = sorted(t for b, t in zip(got_b, got_t) if b == 1)
        tails2 = sorted(t for b, t in zip(got_b, got_t) if b == 2)
        if tails1 == tails2:
            label_matches += 1
        by_key = {(b, t): i for b, t, i in zip(got_b, got_t, indices)}
        matched = [(i, by_key[(2, t)]) for (b, t), i in by_key.items()
                   if b == 1 and (2, t) in by_key]
        one, two = np.array(matched, dtype=np.intp).reshape(-1, 2).T
        ok = np.allclose(nu.points[two], nu.points[one] + translate, atol=1e-9)
        shift_ok += bool(ok)
        if tails1 and tails2:
            mixed_seen += 1
            score, _ = dirac_score(sliced, tau)
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
