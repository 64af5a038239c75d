"""Multiway cut matrix sets and their l1-Hausdorff comparison.

For part masses a, the cut set of a kernel consists of all q x q matrices of
rectangle integrals over partitions with those part masses.  The set is a
continuum; this module ships a sampler (corner-rule vertices, per-entry
extreme points, seeded scaling interior points) and documents the Hausdorff
output as an estimate from below.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import PartitionSpec, _cumulative, _mismatch, corner_rule, edge_density
from .errors import (
    DimensionMismatch,
    MarginalMismatch,
    ProvenanceMismatch,
    ScalingDiverged,
    StepGraphonError,
)
from .metrics import dyadic_intervals, l1_hausdorff

VERTEX_ENUM_CAP = 10_000


class MultiwayMatrixSet:
    """Finite sample of cut matrices with the partitions that produced them.

    Entries are finite and lie in [0, a_l*a_m] within 1e-9.  Each matrix
    has one provenance partition.  Every partition sends its mass onto parts
    with masses a, and all of them split one source weight vector, both
    within core.MATCH_TOL.
    """

    def __init__(self, a, matrices, provenance):
        self.a = np.asarray(a, dtype=float)
        self.matrices = [np.asarray(m, dtype=float) for m in matrices]
        self.provenance = list(provenance)
        q = len(self.a)
        bound = np.outer(self.a, self.a)
        for m in self.matrices:
            if m.shape != (q, q):
                raise DimensionMismatch(f"matrix shape {m.shape} != ({q}, {q})")
            if not ((m >= -1e-9) & (m <= bound + 1e-9)).all():
                raise StepGraphonError("cut matrix entry is not a number in [0, a_l*a_m]")
        if len(self.provenance) != len(self.matrices):
            raise ProvenanceMismatch(
                f"{len(self.matrices)} matrices but {len(self.provenance)} partitions")
        for idx, spec in enumerate(self.provenance):
            if _mismatch(spec.target_masses, self.a):
                raise ProvenanceMismatch(
                    f"partition {idx} has part masses {spec.target_masses.tolist()}, "
                    f"not {self.a.tolist()}")
            if _mismatch(spec.source_weights, self.provenance[0].source_weights):
                raise ProvenanceMismatch(
                    f"partition {idx} splits other source weights than partition 0")

    @property
    def q(self):
        return len(self.a)

    def to_dict(self):
        return {
            "a": self.a.tolist(),
            "matrices": [m.tolist() for m in self.matrices],
            "provenance": [p.to_dict() for p in self.provenance],
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["a"], d["matrices"],
                   [PartitionSpec.from_dict(p) for p in d["provenance"]])

    def __len__(self):
        return len(self.matrices)


def multiway_matrix(W, R):
    """The q x q matrix of rectangle integrals under the partition R."""
    R.require_source(W.weights)
    r = R.assignment
    return r.T @ W.values @ r


def _safe_ratio(target, current):
    return np.divide(target, current, out=np.zeros_like(target),
                     where=current > 0)


def _scaled_random(rng, row, col, cap=500, residual_tol=1e-10):
    """Seeded interior plan with marginals row and col, by Sinkhorn scaling.

    Once both residuals are below residual_tol, one more row scaling puts
    the row sums on `row` up to rounding.  A cut matrix's total is s^T V s
    for the plan's row sums s, so it then stays on the edge density.  That
    step moves each column sum by at most the summed row residuals it
    removes (each below residual_tol), so the column sums may miss `col`
    by about residual_tol; nothing checks them.
    """
    m = rng.random((len(row), len(col))) + 0.05
    res = np.inf
    for _ in range(cap):
        m *= _safe_ratio(row, m.sum(axis=1))[:, None]
        m *= _safe_ratio(col, m.sum(axis=0))
        res = max(np.abs(m.sum(axis=1) - row).max(),
                  np.abs(m.sum(axis=0) - col).max())
        if res < residual_tol:
            m *= _safe_ratio(row, m.sum(axis=1))[:, None]
            return m
    raise ScalingDiverged(res, cap)


def sample_multiway_set(W, a, count, seed=0, dedup_tol=1e-9):
    """Sampled cut matrices for part masses a.

    Deterministic generation first: the full corner-rule vertex family when
    q! * k! is at most 10^4, otherwise the per-entry max/min extreme points;
    then `count` seeded interior points of the transport polytope (count may
    be 0 for deterministic-only generation).

    Duplicates go in two stages, in plan order.  A plan whose bytes equal an
    earlier plan's is skipped before its matrix is built: it would give the
    same matrix, which the second stage already drops.  A matrix within l1
    distance `dedup_tol` of a kept one is then dropped, tested against all
    kept matrices in one stacked comparison.  The kept matrices and their
    provenance are those of testing every plan's matrix in turn.
    """
    a = np.asarray(a, dtype=float)
    if count < 0:
        raise ValueError("count must be >= 0")
    if not dedup_tol >= 0:
        raise ValueError("dedup_tol must be >= 0")
    if not (abs(a.sum() - 1.0) <= 1e-9 and (a >= 0).all()):
        raise MarginalMismatch("part masses must be nonnegative and sum to 1")
    w = W.weights
    k, q = len(w), len(a)
    plans = []

    if math.factorial(q) * math.factorial(k) <= VERTEX_ENUM_CAP:
        for row_order in itertools.permutations(range(k)):
            for col_order in itertools.permutations(range(q)):
                plans.append(corner_rule(w, a, row_order, col_order))
    else:
        base_rows = list(range(k))
        base_cols = list(range(q))
        for i in range(k):
            for l in range(q):
                rows = [i] + [r for r in base_rows if r != i]
                cols_max = [l] + [c for c in base_cols if c != l]
                cols_min = [c for c in base_cols if c != l] + [l]
                plans.append(corner_rule(w, a, rows, cols_max))
                plans.append(corner_rule(w, a, rows, cols_min))

    for idx in range(count):
        rng = np.random.default_rng((seed, idx))
        plans.append(_scaled_random(rng, w, a))

    seen = set()
    kept = np.empty((len(plans), q, q))
    matrices, provenance = [], []
    for plan in plans:
        key = plan.tobytes()
        if key in seen:
            continue
        seen.add(key)
        spec = PartitionSpec(plan)
        m = multiway_matrix(W, spec)
        n = len(matrices)
        if (np.abs(kept[:n] - m).sum(axis=(1, 2)) <= dedup_tol).any():
            continue
        kept[n] = m
        matrices.append(m)
        provenance.append(spec)

    density = edge_density(W)
    for m in matrices:
        if abs(m.sum() - density) > 1e-10:
            raise StepGraphonError("cut matrix total drifted from the edge density")
    return MultiwayMatrixSet(a, matrices, provenance)


def multiway_hausdorff(su, sw):
    """Hausdorff distance of two sampled cut sets under entrywise l1."""
    if su.q != sw.q:
        raise DimensionMismatch(f"part counts differ: {su.q} != {sw.q}")
    if len(su) == 0 or len(sw) == 0:
        raise DimensionMismatch("cut sets must be nonempty")
    return l1_hausdorff([m.ravel() for m in su.matrices],
                        [m.ravel() for m in sw.matrices], np.ones(su.q * su.q))


def part_index_bound(a, depth):
    """Largest dyadic-enumeration index representing the parts exactly.

    The canonical parts are the consecutive intervals with masses a; each
    must coincide with one interval of the breadth-first dyadic family up to
    the given depth.  The returned bound enters the quantitative transfer
    from envelope distance to cut-set distance.
    """
    a = np.asarray(a, dtype=float)
    cum = _cumulative(a)
    family = dyadic_intervals(depth)
    indices = []
    for lo, hi in zip(cum[:-1], cum[1:]):
        found = None
        for idx, (x, y) in enumerate(family, start=1):
            if abs(x - lo) <= 1e-12 and abs(y - hi) <= 1e-12:
                found = idx
                break
        if found is None:
            raise StepGraphonError(
                f"part [{lo}, {hi}) is not a dyadic interval at depth {depth}")
        indices.append(found)
    return max(indices)
