"""Structuredness-order probes.

The order itself has no finite certificate, so the comparison API is
one-sided: it refutes "U at most as structured as W" through necessary
conditions (density, range-frequency flatness, degree-frequency flatness) or
reports the pair consistent.  Envelopes are approximated by finite clouds of
rearrangement signatures at a fixed dyadic depth.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import (
    PartitionSpec,
    StepGraphon,
    _canonical_cell_order,
    _interlace_order,
    _overlaps,
    dyadic_intervals,
    edge_density,
    grid_version,
    stepping,
)
from .errors import NoInteriorValues, StepGraphonError
from .measures import check_flatter, degree_frequencies, range_frequencies
from .metrics import l1_hausdorff, rectangle_signature, signature_weights

_STACK_FLOATS = 1 << 20  # cap on an envelope's base and on the values one stacked product gathers
_ENVELOPE_FLOATS = 1 << 26  # cap on the signature values of one envelope (512 MiB)
TOL = 1e-9  # order_check's density match and classify_extremal's value spreads


class OrderVerdict:
    """refuted | consistent, with one record per necessary condition."""

    def __init__(self, status, reasons):
        self.status = status
        self.reasons = reasons

    @property
    def refuted(self):
        return self.status == "refuted"

    def failed_conditions(self):
        return [r["condition"] for r in self.reasons if not r["passed"]]

    def to_dict(self):
        return {"status": self.status, "reasons": self.reasons}

    def __repr__(self):
        return f"OrderVerdict({self.status}, failed={self.failed_conditions()})"


def order_check(U, W):
    """Run the necessary conditions for U being at most as structured as W.

    Densities must agree within TOL; flatness runs at check_flatter's
    default tolerance.  Returns refuted with the failing certificates, or
    consistent.  A consistent verdict is not a proof of the order relation;
    the conditions are necessary only.
    """
    reasons = []
    du, dw = edge_density(U), edge_density(W)
    reasons.append({
        "condition": "edge-density",
        "passed": bool(abs(du - dw) <= TOL),
        "detail": {"density_u": du, "density_w": dw},
    })
    wit_range = check_flatter(range_frequencies(U), range_frequencies(W))
    reasons.append({
        "condition": "range-frequency-flatness",
        "passed": wit_range.feasible,
        "detail": {"residual": wit_range.residual, "reason": wit_range.reason},
    })
    wit_deg = check_flatter(degree_frequencies(U), degree_frequencies(W))
    reasons.append({
        "condition": "degree-frequency-flatness",
        "passed": wit_deg.feasible,
        "detail": {"residual": wit_deg.residual, "reason": wit_deg.reason},
    })
    status = "consistent" if all(r["passed"] for r in reasons) else "refuted"
    return OrderVerdict(status, reasons)


def classify_extremal(W):
    """minimal | maximal | neither | both, from the positive-mass block values.

    Constants are the order minimum, 0/1-valued kernels the maxima; the
    all-0 and all-1 kernels are both.  Values within TOL count as equal.
    """
    keep = W.weights > 0
    vals = W.values[np.ix_(keep, keep)].ravel()
    if len(vals) == 0:
        return "both"
    minimal = bool(vals.max() - vals.min() <= TOL)
    maximal = bool(np.minimum(vals, 1.0 - vals).max() <= TOL)
    if minimal and maximal:
        return "both"
    if minimal:
        return "minimal"
    if maximal:
        return "maximal"
    return "neither"


def strictify(W, eps):
    """Doubled rearrangement with a +/- eps checker perturbation.

    The input is rearranged so the square holds four half-scale copies of
    itself; on the sub-blocks whose value lies in [eps, 1-eps] the two
    diagonal quadrants gain eps and the off-diagonal quadrants lose eps.
    Degrees and the edge density are unchanged, while any strictly convex
    value functional strictly increases, so the result sits strictly above
    the input in the structuredness order.
    """
    if eps <= 0:
        raise NoInteriorValues("eps must be positive")
    a = W.weights
    interior = ((W.values >= eps) & (W.values <= 1.0 - eps)
                & (np.outer(a, a) > 0))
    if not interior.any():
        raise NoInteriorValues(
            "no block value lies in [eps, 1-eps] on positive pair mass")
    k = W.k
    weights = np.concatenate((a, a)) / 2.0
    vals = np.zeros((2 * k, 2 * k))
    for c in (0, 1):
        for d in (0, 1):
            block = W.values.copy()
            delta = eps if c == d else -eps
            block[interior] += delta
            vals[c * k:(c + 1) * k, d * k:(d + 1) * k] = block
    return StepGraphon(weights, np.clip(vals, 0.0, 1.0))


def canonicalize(W, n):
    """Refine W to n equal cells and reorder them canonically."""
    base = grid_version(W, n)
    return grid_version(base, n, _canonical_cell_order(base.weights, base.values))


class EnvelopeSample:
    """Finite cloud of weak*-coordinate signatures of rearrangements."""

    def __init__(self, resolution, depth, signatures):
        self.resolution = int(resolution)
        self.depth = int(depth)
        self.signatures = np.asarray(signatures, dtype=float)

    def to_dict(self):
        return {
            "resolution": self.resolution,
            "depth": self.depth,
            "signatures": self.signatures.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["resolution"], d["depth"], d["signatures"])

    def __len__(self):
        return len(self.signatures)


def _signature(V, depth):
    return rectangle_signature(V, depth).ravel()


def _interlace_levels(n):
    """The levels whose 2 * level slabs divide an n-cell grid, lowest first."""
    return [level for level in range(1, n // 2 + 1) if n % (2 * level) == 0]


@functools.lru_cache(maxsize=16)
def _envelope_perms(seed, count, n):
    """Read-only (rows, n) table of the cell orders an n-cell envelope samples.

    Row idx < count is the uniform permutation drawn from the generator
    seeded (seed, idx); the rows after it are the interlacing orders at
    every level whose 2 * level slabs divide the grid, lowest level first.
    The cache is bounded because a seed sweep would otherwise keep every
    table: 200 seeds at count 500 on 64 cells hold 49 MiB.
    """
    levels = _interlace_levels(n)
    table = np.empty((count + len(levels), n), dtype=np.intp)
    for idx in range(count):
        table[idx] = np.random.default_rng((seed, idx)).permutation(n)
    for row, level in enumerate(levels, start=count):
        table[row] = _interlace_order(n, level)
    table.flags.writeable = False
    return table


def _check_envelope(n, count, depth):
    """Reject bad arguments and oversized envelopes before anything is built.

    Each level of depth quadruples a signature, and depth 12 would need
    10 GB for 4 samples on 8 cells, so an envelope of more than
    _ENVELOPE_FLOATS signature values raises StepGraphonError.  So do a
    base of more than _STACK_FLOATS values (n > 1024; n = 100000 would
    need 75 GiB) and a cell-order table of more than _ENVELOPE_FLOATS entries.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if n * n > _STACK_FLOATS:
        raise StepGraphonError(
            f"an envelope on {n} cells holds {n * n} base values, over the cap of {_STACK_FLOATS}")
    rows = count + len(_interlace_levels(n))
    if rows * n > _ENVELOPE_FLOATS:
        raise StepGraphonError(
            f"an envelope of {rows} cell orders on {n} cells holds {rows * n} order entries, "
            f"over the cap of {_ENVELOPE_FLOATS}")
    m = (1 << (depth + 1)) - 1
    size = (rows + depth + 1) * m * m
    if size > _ENVELOPE_FLOATS:
        raise StepGraphonError(
            f"an envelope at depth {depth} holds {size} signature values, "
            f"over the cap of {_ENVELOPE_FLOATS}")


def _envelope_cloud(base, count, depth, seed):
    """The signatures, one row each, of the envelope of a canonical n-cell base.

    Every rearrangement keeps the grid, so its signature is r @ V[P][:, P] @
    r.T for the grid's one dyadic overlap matrix r: all of them come from
    stacked products over the table of cell orders P, in blocks of rows
    that keep each gathered stack within _STACK_FLOATS values.
    """
    n = base.k
    perms = _envelope_perms(seed, count, n)
    r = _overlaps(base.cumulative(), *zip(*dyadic_intervals(depth)))
    m = len(r)
    rows = len(perms)
    sigs = np.empty((rows + depth + 1, m * m))
    step = _STACK_FLOATS // (n * n)
    for lo in range(0, rows, step):
        p = perms[lo:lo + step]
        stack = base.values[p[:, :, None], p[:, None, :]]
        np.matmul(r @ stack, r.T, out=sigs[lo:lo + len(p)].reshape(len(p), m, m))
    for d in range(depth + 1):
        sigs[rows + d] = _signature(
            stepping(base, PartitionSpec.dyadic(base.weights, d)), depth)
    return sigs


def sample_envelope(W, n, count, depth, seed=0):
    """Sampled rearrangement signatures plus the deterministic family.

    Includes `count` seeded uniform cell permutations, the interlacing
    versions at every level dividing the grid, and all dyadic steppings up
    to the signature depth.  The input is canonicalized first so that
    cell-permuted inputs produce identical clouds.  Arguments and the
    envelope size are checked before anything is built.
    """
    _check_envelope(n, count, depth)
    return EnvelopeSample(n, depth, _envelope_cloud(canonicalize(W, n), count, depth, seed))


def chi_estimate(U, W, n, count, depth, seed=0):
    """Hausdorff distance between sampled envelope signature clouds.

    Estimates the hyperspace distance between the two envelopes; both clouds
    are subsamples, so the value is neither an upper nor a lower bound.
    Inputs whose canonical n-cell forms are equal have equal envelopes and
    give exactly 0.0 without sampling.  Otherwise signatures and weights are
    symmetric, so the distance runs over the m(m+1)/2 upper-triangle
    coordinates with doubled off-diagonal weights; that moves the value
    from the full-coordinate sum only by rounding.
    """
    _check_envelope(n, count, depth)
    bu, bw = canonicalize(U, n), canonicalize(W, n)
    if np.array_equal(bu.values, bw.values):
        return 0.0
    full = signature_weights(depth)
    i, j = np.triu_indices(len(full))
    upper = i * len(full) + j
    weights = np.where(i == j, 1.0, 2.0) * full[i, j]
    return l1_hausdorff(_envelope_cloud(bu, count, depth, seed)[:, upper],
                        _envelope_cloud(bw, count, depth, seed)[:, upper], weights)
