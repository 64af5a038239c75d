"""Multiway cut matrix sets and their l1-Hausdorff comparison.

For part masses a, the cut set of a kernel consists of all q x q matrices of
rectangle integrals over partitions with those part masses.  The set is a
continuum; this module ships a sampler (corner-rule vertices, per-entry
extreme points, seeded scaling interior points).  A Hausdorff comparison
sees two such subsamples, so its value is neither an upper nor a lower
bound on the distance between the full cut sets.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .core import (
    PartitionSpec,
    _check_stack,
    _derived_partition,
    _freeze,
    _mismatch,
    _mismatches,
    _nonnegative,
    _require_source,
    corner_rule,
    edge_density,
)
from .errors import (
    DimensionMismatch,
    MarginalMismatch,
    ProvenanceMismatch,
    ScalingDiverged,
    StepGraphonError,
)
from .metrics import l1_hausdorff

VERTEX_ENUM_CAP = 10_000
DEDUP_TOL = 1e-9
SCALING_TOL = 1e-10  # Sinkhorn residual, and the drift allowed in a cut matrix total
SCALING_CAP = 500  # Sinkhorn rounds before a plan counts as diverged


class MultiwayMatrixSet:
    """Finite sample of cut matrices with the partitions that produced them.

    Entries are finite and lie in [0, a_l*a_m].  Each matrix has one
    provenance partition.  Every partition sends its mass onto parts with
    masses a, and all of them split one source weight vector.  All three
    hold as core._mismatches decides.
    """

    def __init__(self, a, matrices, provenance):
        self.a = np.asarray(a, dtype=float)
        self.matrices = [np.asarray(m, dtype=float) for m in matrices]
        self.provenance = list(provenance)
        q = len(self.a)
        # each check runs on a stack of the items before the first misshapen
        # one, which is then the next offender: the first offender in order
        # raises, as a check of one item at a time would
        n = _first(m.shape != (q, q) for m in self.matrices)
        stack = np.array(self.matrices[:n]).reshape(n, q, q)
        if _mismatches(stack, np.clip(stack, 0.0, np.outer(self.a, self.a))).any():
            raise StepGraphonError("cut matrix entry is not a number in [0, a_l*a_m]")
        if n < len(self.matrices):
            raise DimensionMismatch(f"matrix shape {self.matrices[n].shape} != ({q}, {q})")
        if len(self.provenance) != len(self.matrices):
            raise ProvenanceMismatch(
                f"{len(self.matrices)} matrices but {len(self.provenance)} partitions")
        if self.provenance:
            k = len(self.provenance[0].assignment)
            n = _first(spec.assignment.shape != (k, q) for spec in self.provenance)
            r = np.array([spec.assignment for spec in self.provenance[:n]]).reshape(n, k, q)
            targets, sources = r.sum(axis=1), r.sum(axis=2)
            idx = _first(_mismatches(targets, self.a) | _mismatches(sources, sources[:1]))
            if idx < len(self.provenance):
                self._check_partition(idx)

    def _check_partition(self, idx):
        """Partition idx's two checks alone, which raise for the first offender."""
        spec = self.provenance[idx]
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


def _first(flags):
    """Index of the first true flag, or the number of flags if none is."""
    flags = list(flags)
    return flags.index(True) if True in flags else len(flags)


def multiway_matrix(W, R):
    """The q x q matrix of rectangle integrals under the partition R."""
    R.require_source(W.weights)
    r = R.assignment
    return r.T @ W.values @ r


def _safe_ratio(target, current):
    return np.divide(target, current, out=np.zeros_like(current),
                     where=current > 0)


def _vertex_count(k, q):
    """(count, whether all pairs) of the vertex plans of _vertex_orders(k, q):
    all q! * k! order pairs up to VERTEX_ENUM_CAP, else 2kq extreme points."""
    pairs = math.factorial(q) * math.factorial(k)
    return (pairs, True) if pairs <= VERTEX_ENUM_CAP else (2 * k * q, False)


@functools.lru_cache(maxsize=16)
def _vertex_orders(k, q):
    """Read-only (n, k) row orders and (n, q) column orders of the vertex plans.

    When _vertex_count takes all pairs, they come row order outermost, each
    in itertools.permutations order.  Otherwise they are the 2kq
    extreme-point orders: for each row i and column l, row i first, then
    column l first (the entry's max) and column l last (its min).
    """
    if _vertex_count(k, q)[1]:
        rows = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
        cols = np.array(list(itertools.permutations(range(q))), dtype=np.intp)
        row_orders = np.repeat(rows, len(cols), axis=0)
        col_orders = np.tile(cols, (len(rows), 1))
    else:
        def first(n, x):
            return [x] + [y for y in range(n) if y != x]

        def last(n, x):
            return [y for y in range(n) if y != x] + [x]

        row_orders = np.array([first(k, i) for i in range(k) for _ in range(2 * q)],
                              dtype=np.intp).reshape(-1, k)
        col_orders = np.array([order(q, l) for _ in range(k) for l in range(q)
                               for order in (first, last)], dtype=np.intp).reshape(-1, q)
    return _freeze(row_orders), _freeze(col_orders)


def _scaled_random(seed, count, row, col):
    """`count` seeded interior plans with marginals row and col, by Sinkhorn scaling.

    Plan idx starts from the generator seeded (seed, idx).  The plans scale
    in lockstep, each exactly as it would alone: once both of its residuals
    are below SCALING_TOL, one more row scaling puts its row sums on `row`
    up to rounding and the plan leaves the stack.  A cut matrix's total is
    s^T V s for the plan's row sums s, so it then stays on the edge density
    (sample_multiway_set allows a drift of SCALING_TOL).  That step moves
    each column sum by at most the summed row residuals it removes (each
    below SCALING_TOL), so the column sums may miss `col` by about
    SCALING_TOL; MultiwayMatrixSet checks them against the part masses.
    Raises ScalingDiverged with the largest residual still live if a plan
    has not converged after SCALING_CAP rounds.
    """
    k, q = len(row), len(col)
    plans = np.empty((count, k, q))
    for idx in range(count):
        plans[idx] = np.random.default_rng((seed, idx)).random((k, q)) + 0.05
    live, m, res = np.arange(count), plans, np.full(count, np.inf)
    sums = m.sum(axis=2)  # row sums, kept from each round's residual for the next scaling
    for _ in range(SCALING_CAP):
        if not len(live):
            break
        m *= _safe_ratio(row, sums)[:, :, None]
        m *= _safe_ratio(col, m.sum(axis=1))[:, None, :]
        sums = m.sum(axis=2)
        res = np.maximum(np.abs(sums - row).max(axis=1),
                         np.abs(m.sum(axis=1) - col).max(axis=1))
        done = res < SCALING_TOL
        if done.any():
            fin = m[done]
            fin *= _safe_ratio(row, sums[done])[:, :, None]
            plans[live[done]] = fin
            live, m, res, sums = live[~done], m[~done], res[~done], sums[~done]
    if len(live):
        raise ScalingDiverged(res.max(), SCALING_CAP)
    return plans


def _stacked_matrices(W, plans):
    """Cut matrices r^T V r of a (n, k, q) stack of plans, (n, q, q).

    Each slice is the product multiway_matrix forms for that plan, with the
    same association, so the two agree bit for bit.
    """
    return plans.transpose(0, 2, 1) @ W.values @ plans


def sample_multiway_set(W, a, count, seed=0):
    """Sampled cut matrices for part masses a.

    Deterministic generation first: the full corner-rule vertex family when
    q! * k! is at most 10^4, otherwise the per-entry max/min extreme points;
    then `count` seeded interior points of the transport polytope (count may
    be 0 for deterministic-only generation).  Every plan comes from one
    stacked corner rule or one lockstep scaling, neither of which makes a
    negative entry; a stack of more than core.ARRAY_CAP plan values raises
    StepGraphonError before it is built.

    Duplicates go in two stages, in plan order.  Only the first plan of
    each byte pattern stays; the distinct plans are clipped at 0 and their
    row sums checked against W's block weights all at once
    (PartitionMismatch as PartitionSpec and require_source raise it), and
    their matrices come from one stacked product.  Walking the kept
    matrices in order, every later matrix within l1 distance DEDUP_TOL of a
    kept one is dropped, so the next survivor is the next kept matrix: the
    kept matrices and their provenance are those of testing every plan's
    matrix in turn against the kept ones.  Only kept plans become a
    PartitionSpec, without a second check, and go through multiway_matrix.
    """
    a = np.asarray(a, dtype=float)
    if count < 0:
        raise ValueError("count must be >= 0")
    if _mismatch(a.sum(), 1.0) or not (a >= 0).all():
        raise MarginalMismatch("part masses must be nonnegative and sum to 1")
    w = W.weights
    k, q = len(w), len(a)
    _check_stack(_vertex_count(k, q)[0] + count, k, q, "plans")
    plans = np.concatenate((corner_rule(w, a, *_vertex_orders(k, q)),
                            _scaled_random(seed, count, w, a)))
    rows = plans.reshape(len(plans), k * q)
    _, first = np.unique(rows.view(np.dtype((np.void, rows.itemsize * k * q))).ravel(),
                         return_index=True)
    plans = _nonnegative(plans[np.sort(first)])
    _require_source(plans, w)

    stack = _stacked_matrices(W, plans)
    density = edge_density(W)
    matrices, provenance = [], []
    rest = np.arange(len(stack))
    while len(rest):
        i, rest = rest[0], rest[1:]
        rest = rest[~(np.abs(stack[rest] - stack[i]).sum(axis=(1, 2)) <= DEDUP_TOL)]
        spec = _derived_partition(plans[i].copy())
        m = multiway_matrix(W, spec)
        if abs(m.sum() - density) > SCALING_TOL:
            raise StepGraphonError("cut matrix total drifted from the edge density")
        matrices.append(m)
        provenance.append(spec)
    return MultiwayMatrixSet(a, matrices, provenance)


def multiway_hausdorff(su, sw):
    """Hausdorff distance under entrywise l1 of two sampled cut sets with equal part masses.

    Both sets are subsamples, so the value estimates the distance between the
    full cut sets but is neither an upper nor a lower bound on it: one kernel
    sampled under two seeds can compare at a positive value.
    """
    if _mismatch(su.a, sw.a):
        raise DimensionMismatch(f"part masses differ: {su.a.tolist()} != {sw.a.tolist()}")
    if len(su) == 0 or len(sw) == 0:
        raise DimensionMismatch("cut sets must be nonempty")
    return l1_hausdorff([m.ravel() for m in su.matrices],
                        [m.ravel() for m in sw.matrices], np.ones(su.q * su.q))
