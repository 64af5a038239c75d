"""Structuredness-order probes.

The module checks necessary conditions only (a certificate of the order on
step graphons is ROADMAP item 28), so the comparison API is one-sided: it
refutes "U at most as structured as W" through density, range-frequency
flatness and degree-frequency flatness, or reports the pair consistent.
Envelopes are approximated by finite clouds of rearrangement signatures at
a fixed dyadic depth.
"""

from __future__ import annotations

import numpy as np

from .core import (
    ARRAY_CAP,
    PartitionSpec,
    SignedStepKernel,
    StepGraphon,
    _canonical_cell_order,
    _dyadic_overlaps,
    _interlace_order,
    _mismatch,
    edge_density,
    grid_version,
    stepping,
)
from .errors import NoInteriorValues, StepGraphonError
from .measures import check_flatter, degree_frequencies, range_frequencies
from .metrics import l1_hausdorff, rectangle_signature, signature_weights

_STACK_FLOATS = 1 << 20  # cap on an envelope's base and on the values one stacked product gathers


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

    Densities must match (core._mismatch); flatness runs check_flatter's
    float route.  Returns refuted with the failing certificates, or
    consistent.  A consistent verdict is not a proof of the order relation;
    the conditions are necessary only.  A flatness detail carries the
    witness's residual, None for a refusal.
    """
    reasons = []
    du, dw = edge_density(U), edge_density(W)
    reasons.append({
        "condition": "edge-density",
        "passed": not _mismatch(du, dw),
        "detail": {"density_u": du, "density_w": dw},
    })
    for name, frequencies in (("range", range_frequencies), ("degree", degree_frequencies)):
        wit = check_flatter(frequencies(U), frequencies(W))
        reasons.append({
            "condition": f"{name}-frequency-flatness",
            "passed": wit.feasible,
            "detail": {"residual": wit.residual, "reason": wit.reason},
        })
    status = "consistent" if all(r["passed"] for r in reasons) else "refuted"
    return OrderVerdict(status, reasons)


def strictify(W, eps):
    """Doubled rearrangement with a +/- eps checker perturbation.

    The input is rearranged so the square holds four half-scale copies of
    itself; on the sub-blocks whose value lies in [eps, 1-eps] the two
    diagonal quadrants gain eps and the off-diagonal quadrants lose eps.
    Degrees and the edge density are unchanged, while any strictly convex
    value functional strictly increases, so the result sits strictly above
    the input in the structuredness order.  A SignedStepKernel raises
    StepGraphonError.
    """
    if isinstance(W, SignedStepKernel):
        raise StepGraphonError("strictify takes a graphon, not a signed kernel")
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

    def __len__(self):
        return len(self.signatures)


def _interlace_levels(n):
    """The levels whose 2 * level slabs divide an n-cell grid, lowest first."""
    return [level for level in range(1, n // 2 + 1) if n % (2 * level) == 0]


def _envelope_perms(seed, count, n):
    """The (rows, n) table of the cell orders an n-cell envelope samples.

    Row idx < count is the uniform permutation drawn from the generator
    seeded (seed, idx); the rows after it are the interlacing orders at
    every level whose 2 * level slabs divide the grid, lowest level first.
    """
    levels = _interlace_levels(n)
    table = np.empty((count + len(levels), n), dtype=np.intp)
    for idx in range(count):
        table[idx] = np.random.default_rng((seed, idx)).permutation(n)
    for row, level in enumerate(levels, start=count):
        table[row] = _interlace_order(n, level)
    return table


def _check_envelope(n, count, depth):
    """Reject bad arguments and oversized envelopes before anything is built.

    Each level of depth quadruples a signature, and depth 12 would need
    10 GB for 4 samples on 8 cells, so an envelope of more than
    ARRAY_CAP signature values raises StepGraphonError.  So do a
    base of more than _STACK_FLOATS values (n > 1024; n = 100000 would
    need 75 GiB) and a cell-order table of more than ARRAY_CAP entries.
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
    if rows * n > ARRAY_CAP:
        raise StepGraphonError(
            f"an envelope of {rows} cell orders on {n} cells holds {rows * n} order entries, "
            f"over the cap of {ARRAY_CAP}")
    if 2 * depth >= ARRAY_CAP.bit_length():
        # m * m >= 4**depth > ARRAY_CAP, a bound that stays short to print
        raise StepGraphonError(
            f"an envelope at depth {depth} holds at least 4**{depth} signature values, "
            f"over the cap of {ARRAY_CAP}")
    m = (1 << (depth + 1)) - 1
    size = (rows + depth + 1) * m * m
    if size > ARRAY_CAP:
        raise StepGraphonError(
            f"an envelope at depth {depth} holds {size} signature values, "
            f"over the cap of {ARRAY_CAP}")


def _envelope_cloud(base, perms, depth):
    """The signatures, one row each, of the envelope of a canonical n-cell base.

    Every rearrangement keeps the grid, so its signature is r @ V[P][:, P] @
    r.T for the grid's one dyadic overlap matrix r: all of them come from
    stacked products over the _envelope_perms table of cell orders P, in
    blocks of rows that keep each gathered stack within _STACK_FLOATS values.
    """
    n = base.k
    r = _dyadic_overlaps(base.cumulative(), depth)
    m = len(r)
    rows = len(perms)
    sigs = np.empty((rows + depth + 1, m * m))
    step = _STACK_FLOATS // (n * n)
    for lo in range(0, rows, step):
        p = perms[lo:lo + step]
        stack = base.values[p[:, :, None], p[:, None, :]]
        np.matmul(r @ stack, r.T, out=sigs[lo:lo + len(p)].reshape(len(p), m, m))
    for d in range(depth + 1):
        sigs[rows + d] = rectangle_signature(
            stepping(base, PartitionSpec.dyadic(base.weights, d)), depth).ravel()
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
    return EnvelopeSample(n, depth, _envelope_cloud(canonicalize(W, n),
                                                    _envelope_perms(seed, count, n), depth))


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
    perms = _envelope_perms(seed, count, n)
    return l1_hausdorff(_envelope_cloud(bu, perms, depth)[:, upper],
                        _envelope_cloud(bw, perms, depth)[:, upper], weights)
